"""Evaluation contexts: one generic algorithm, interchangeable semantics.

Model code (projections, convolutions, the state-space recurrence) is
written once against a small scalar vocabulary and executed under any of
three contexts: :class:`PBitScalars` rounds every operation to ``p`` bits,
:class:`ExactScalars` computes exact rationals on integer pairs ``(n, d)``
(the reference semantics the p-bit route is measured against;
:func:`exact_value` reads a value out as a ``Fraction``), and the tracer in
:mod:`artifact.depth` replays the same code on node ids, recording a
cost-annotated dataflow graph and computing no values.

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

from abc import ABC, abstractmethod
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Generic, Sequence, TypeVar

from artifact.elementary import (
    exp_fp,
    log_fp,
    sigmoid_fp,
    silu_fp,
    softplus_fp,
    sqrt_fp,
)
from artifact.floats import (
    DivisionByZero,
    FpError,
    FpNumber,
    fp_add,
    fp_div,
    fp_floor,
    fp_mul,
    iter_add,
    iter_mul,
    round_p,
    round_ratio,
)

V = TypeVar("V")

# The types ``input`` takes as they are; any other goes through ``Fraction``,
# which also turns a subclass (``bool`` included) into a plain value.
_RATIONAL = (int, Fraction)

__all__ = ["ExactDomainError", "ExactScalars", "PBitScalars", "ScalarContext", "exact_value"]


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

    def __init__(self, p: int) -> None:
        self.p = p

    def input(self, q: Fraction) -> FpNumber:
        return round_p(q if type(q) in _RATIONAL else Fraction(q), self.p)

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
        return exp_fp(a)

    def sqrt(self, a):
        return sqrt_fp(a)

    def log(self, a):
        return log_fp(a)

    def softplus(self, a):
        return softplus_fp(a)

    def sigmoid(self, a):
        return sigmoid_fp(a)

    def silu(self, a):
        return silu_fp(a)

    def guard_small(self, a):
        # |m| * 2**e < 2**-(p // 2) in integers, with no power of two built:
        # the exponent can be near -2**p.
        return not a.m or abs(a.m).bit_length() <= -(self.p // 2) - a.e


Pair = tuple[int, int]


def _add(a: Pair, b: Pair) -> Pair:
    """Exact ``a + b`` on pairs, not reduced: the operands' denominators
    are combined through their gcd, as :class:`~fractions.Fraction` does."""
    an, ad = a
    bn, bd = b
    if ad == bd:
        return an + bn, ad
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + bn * ad, ad * bd
    s = ad // g
    return an * (bd // g) + bn * s, s * bd


def _reduced(n: int, d: int) -> Pair:
    g = gcd(n, d)
    return n // g, d // g


def exact_value(v: Pair) -> Fraction:
    """The rational that an :class:`ExactScalars` value stands for.

    A module function rather than a method: the benchmark's op counters
    wrap every public method of a context, and reading a value is not an op.
    """
    return Fraction(*v)


#: The exact route's domain: the largest |exponent| an elementary result
#: may carry.  Its power of two then has at most 2**16 bits.
EXACT_EXP_BOUND = 1 << 16
#: The precision an exact operand is rounded to before an elementary
#: function; ``guard_small`` tests ``|a| < 2**-(EXACT_REF_P // 2)``.
EXACT_REF_P = 64


class ExactDomainError(FpError):
    """An elementary result on the exact route has an exponent past
    :data:`EXACT_EXP_BOUND` in magnitude: carrying its power of two exactly
    would build an integer of that many bits, up to ``2**EXACT_REF_P``."""


class ExactScalars(ScalarContext[Pair]):
    """Exact rational arithmetic on integer pairs ``(n, d)``, ``d > 0``,
    standing for ``n / d``; elementary functions are evaluated at the
    reference precision :data:`EXACT_REF_P` and then carried exactly.

    ``input`` and ``const`` take a ``Fraction``; :func:`exact_value` reads a
    value back out as one, and no ``Fraction`` is built in between.  ``mul``
    and ``add`` leave their results unreduced: a gcd per op costs more than
    the wider integers it saves.  ``iter_add``, ``iter_mul`` and
    ``reinject`` reduce once, so the aggregations that end each stage and
    the carried state are in lowest terms, where equal values are equal
    pairs.  The elementary functions round a pair with
    :func:`~artifact.floats.round_ratio`, which does not need lowest terms,
    and raise :class:`ExactDomainError` on a result whose exponent is past
    :data:`EXACT_EXP_BOUND` in magnitude.
    """

    def input(self, q: Fraction) -> Pair:
        if type(q) not in _RATIONAL:
            q = Fraction(q)
        return q.numerator, q.denominator

    const = input

    def add(self, a, b):
        return _add(a, b)

    def mul(self, a, b):
        return a[0] * b[0], a[1] * b[1]

    def div(self, a, b):
        if not b[0]:
            raise DivisionByZero("exact division by zero")
        n, d = a[0] * b[1], a[1] * b[0]
        return (-n, -d) if d < 0 else (n, d)

    def floor(self, a):
        return a[0] // a[1], 1

    def iter_add(self, xs):
        return _reduced(*reduce(_add, xs, (0, 1)))

    def iter_mul(self, xs):
        n = d = 1
        for xn, xd in xs:
            n *= xn
            d *= xd
        return _reduced(n, d)

    def reinject(self, a):
        return _reduced(*a)

    def _elem(self, name: str, fn, a: Pair) -> Pair:
        y = fn(round_ratio(a[0], a[1], EXACT_REF_P))
        if abs(y.e) > EXACT_EXP_BOUND:
            raise ExactDomainError(
                f"exact {name} result has exponent {y.e}, past the exact route's "
                f"bound |e| <= {EXACT_EXP_BOUND}"
            )
        return (y.m << y.e, 1) if y.e >= 0 else (y.m, 1 << -y.e)

    def exp(self, a):
        return self._elem("exp", exp_fp, a)

    def sqrt(self, a):
        return self._elem("sqrt", sqrt_fp, a)

    def log(self, a):
        return self._elem("log", log_fp, a)

    def softplus(self, a):
        return self._elem("softplus", softplus_fp, a)

    def sigmoid(self, a):
        return self._elem("sigmoid", sigmoid_fp, a)

    def silu(self, a):
        return self._elem("silu", silu_fp, a)

    def guard_small(self, a):
        return abs(a[0]) << (EXACT_REF_P // 2) < a[1]
