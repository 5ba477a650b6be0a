"""Evaluation contexts: one generic algorithm, interchangeable semantics.

Model code (projections, convolutions, the state-space recurrence) is
written once against a small scalar vocabulary and executed under any of
three contexts: :class:`PBitScalars` rounds every operation to ``p`` bits,
:class:`ExactScalars` computes exact rationals (the reference semantics the
p-bit route is measured against), and the tracer in :mod:`artifact.depth`
replays the same code on node ids, recording a cost-annotated dataflow
graph and computing no values.

The vocabulary distinguishes flavours that plain value semantics don't care
about but the cost model does:

* ``iter_add`` / ``iter_mul`` — single-rounding aggregations over a family;
* ``const_mul`` — a product of two *parameters*, precomputable before the
  input arrives (a constant in the cost model, a plain multiply here);
* ``dup`` — a broadcast of one scalar to many consumers;
* ``index`` — a shifted-window retrieval (convolution boundary handling);
* ``reinject`` — carried state re-entering as a fresh leaf;
* ``seq_point`` — a stage barrier separating pipeline phases.

In the value contexts the structural extras are identities/no-ops.
``guard_small`` is the one method that reads a value: the value contexts
compare it with their threshold, and the tracer always answers ``False``,
tracing the general branch.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Generic, Sequence, TypeVar

from artifact.elementary import (
    TaylorConfig,
    exp_fp,
    log_fp,
    sigmoid_fp,
    silu_fp,
    softplus_fp,
    sqrt_fp,
)
from artifact.floats import (
    DivisionByZero,
    FpNumber,
    fp_add,
    fp_div,
    fp_floor,
    fp_mul,
    iter_add,
    iter_mul,
    round_p,
)

V = TypeVar("V")

__all__ = ["ExactScalars", "PBitScalars", "ScalarContext"]


class ScalarContext(ABC, Generic[V]):
    """Scalar vocabulary shared by the p-bit, exact, and traced semantics."""

    # ------------------------------------------------------------- leaves
    @abstractmethod
    def input(self, q: Fraction) -> V:
        """Wrap an externally supplied value (model input or parameter)."""

    @abstractmethod
    def const(self, q: Fraction) -> V:
        """A literal constant of the algorithm (0, 1, -1, ...)."""

    # --------------------------------------------------------- primitives
    @abstractmethod
    def add(self, a: V, b: V) -> V: ...

    @abstractmethod
    def mul(self, a: V, b: V) -> V: ...

    @abstractmethod
    def div(self, a: V, b: V) -> V: ...

    @abstractmethod
    def floor(self, a: V) -> V: ...

    @abstractmethod
    def iter_add(self, xs: Sequence[V]) -> V: ...

    @abstractmethod
    def iter_mul(self, xs: Sequence[V]) -> V: ...

    # -------------------------------------------------------- elementary
    @abstractmethod
    def exp(self, a: V) -> V: ...

    @abstractmethod
    def sqrt(self, a: V) -> V: ...

    @abstractmethod
    def log(self, a: V) -> V: ...

    @abstractmethod
    def softplus(self, a: V) -> V: ...

    @abstractmethod
    def sigmoid(self, a: V) -> V: ...

    @abstractmethod
    def silu(self, a: V) -> V: ...

    # ---------------------------------------------------------- structure
    def index(self, a: V) -> V:
        return a

    def dup(self, a: V) -> V:
        return a

    def const_mul(self, a: V, b: V) -> V:
        return self.mul(a, b)

    def reinject(self, a: V) -> V:
        return a

    def seq_point(self, xs: Sequence[V]) -> None:
        """Stage barrier; a no-op outside the tracer."""

    # -------------------------------------------------------- control flow
    @abstractmethod
    def guard_small(self, a: V) -> bool:
        """Whether ``|a|`` is below the magnitude at which the
        discretization takes its small branch; never a traced event."""


class PBitScalars(ScalarContext[FpNumber]):
    """Every operation is the p-bit float op: one rounding per event."""

    def __init__(self, p: int, taylor: TaylorConfig | None = None) -> None:
        self.p = p
        self.taylor = taylor

    def input(self, q: Fraction) -> FpNumber:
        return round_p(Fraction(q), self.p)

    const = input

    def add(self, a, b):
        return fp_add(a, b)

    def mul(self, a, b):
        return fp_mul(a, b)

    def div(self, a, b):
        return fp_div(a, b)

    def floor(self, a):
        return fp_floor(a)

    def iter_add(self, xs):
        return iter_add(list(xs))

    def iter_mul(self, xs):
        return iter_mul(list(xs))

    def exp(self, a):
        return exp_fp(a, self.taylor)

    def sqrt(self, a):
        return sqrt_fp(a, self.taylor)

    def log(self, a):
        return log_fp(a, self.taylor)

    def softplus(self, a):
        return softplus_fp(a, self.taylor)

    def sigmoid(self, a):
        return sigmoid_fp(a, self.taylor)

    def silu(self, a):
        return silu_fp(a, self.taylor)

    def guard_small(self, a):
        return abs(a.to_fraction()) < Fraction(1, 1 << (self.p // 2))


class ExactScalars(ScalarContext[Fraction]):
    """Exact rational arithmetic; elementary functions are evaluated at a
    high reference precision ``ref_p`` and then carried exactly."""

    def __init__(self, ref_p: int = 64) -> None:
        self.ref_p = ref_p

    def input(self, q: Fraction) -> Fraction:
        return Fraction(q)

    const = input

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("exact division by zero")
        return a / b

    def floor(self, a):
        return Fraction(math.floor(a))

    def iter_add(self, xs):
        return sum(xs, Fraction(0))

    def iter_mul(self, xs):
        out = Fraction(1)
        for x in xs:
            out *= x
        return out

    def _elem(self, fn, a: Fraction) -> Fraction:
        return fn(round_p(a, self.ref_p)).to_fraction()

    def exp(self, a):
        return self._elem(exp_fp, a)

    def sqrt(self, a):
        return self._elem(sqrt_fp, a)

    def log(self, a):
        return self._elem(log_fp, a)

    def softplus(self, a):
        return self._elem(softplus_fp, a)

    def sigmoid(self, a):
        return self._elem(sigmoid_fp, a)

    def silu(self, a):
        return self._elem(silu_fp, a)

    def guard_small(self, a):
        return abs(a) < Fraction(1, 1 << (self.ref_p // 2))
