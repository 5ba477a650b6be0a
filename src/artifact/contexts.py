"""Evaluation contexts: one generic algorithm, interchangeable semantics.

Model code (projections, convolutions, the state-space recurrence) is
written once against a small scalar vocabulary and executed under any of
three contexts: :class:`PBitScalars` rounds every operation to ``p`` bits
on ``(m, e)`` pairs, each op one call of the integer kernel of
:mod:`artifact.floats` or of an elementary body; :class:`ExactScalars`
computes exact rationals on dyadic triples ``(n, k, d)`` standing for
``n * 2**k / d`` with an odd ``d`` (the reference semantics the p-bit
route is measured against; :func:`exact_value` reads a value out as a
``Fraction``); and the tracer in :mod:`artifact.depth` replays the same code
on node ids, recording a cost-annotated dataflow graph and computing no values.

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
from math import gcd, lcm
from typing import Generic, Sequence, TypeVar

from artifact.elementary import _exp, _log, _sigmoid, _silu, _softplus, _sqrt
from artifact.floats import DivisionByZero, FpError, Pair, _require_p, _round_quotient
from artifact.floats import _add, _div, _floor, _iter_add, _iter_mul, _mul

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
    # Each is the pair body of its name in :mod:`artifact.elementary`, applied
    # by the value contexts' ``_elem``; the tracer overrides all six.
    def _elem(self, name: str, fn, a: V) -> V:
        raise NotImplementedError(name)

    def exp(self, a: V) -> V:
        return self._elem("exp", _exp, a)

    def sqrt(self, a: V) -> V:
        return self._elem("sqrt", _sqrt, a)

    def log(self, a: V) -> V:
        return self._elem("log", _log, a)

    def softplus(self, a: V) -> V:
        return self._elem("softplus", _softplus, a)

    def sigmoid(self, a: V) -> V:
        return self._elem("sigmoid", _sigmoid, a)

    def silu(self, a: V) -> V:
        return self._elem("silu", _silu, a)

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


class PBitScalars(ScalarContext[Pair]):
    """Every operation is the p-bit float op: one rounding per event.

    Values are ``(m, e)`` pairs.  Each arithmetic method is one op of the
    kernel in :mod:`artifact.floats`, and each elementary method one call
    of its body in :mod:`artifact.elementary`; no ``FpNumber`` is built."""

    def __init__(self, p: int) -> None:
        _require_p(p)
        self.p = p

    def input(self, q: Fraction) -> Pair:
        if type(q) not in _RATIONAL:
            q = Fraction(q)
        return _round_quotient(q.numerator, q.denominator, 0, self.p)

    const = input

    def add(self, a, b):
        return _add(a, b, self.p)

    def mul(self, a, b):
        return _mul(a, b, self.p)

    const_mul = mul

    def div(self, a, b):
        return _div(a, b, self.p)

    def floor(self, a):
        return _floor(a, self.p)

    def iter_add(self, xs):
        return _iter_add(xs, self.p)

    def iter_mul(self, xs):
        return _iter_mul(xs, self.p)

    def _elem(self, name: str, fn, a: Pair) -> Pair:
        return fn(a, self.p)

    def guard_small(self, a):
        # |m| * 2**e < 2**-(p // 2) in integers, with no power of two built:
        # the exponent can be near -2**p.
        m, e = a
        return not m or abs(m).bit_length() <= -(self.p // 2) - e


Triple = tuple[int, int, int]

#: Zero in the canonical form of :class:`ExactScalars`.
_ZERO: Triple = (0, 0, 1)


def _reduced(n: int, k: int, d: int) -> Triple:
    """``(n, k, d)`` in canonical form: ``n``'s trailing zero bits move
    into ``k``, and the gcd left to take is that of ``n`` and the odd ``d``,
    which is small."""
    if not n:
        return _ZERO
    z = (n & -n).bit_length() - 1
    if z:
        n >>= z
        k += z
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    return n, k, d


def exact_value(v: Triple) -> Fraction:
    """The rational that an :class:`ExactScalars` value stands for.

    The ``Fraction`` holds the power of two ``2**k`` in its numerator or
    denominator, where the route keeps the exponent ``k``.  A module
    function rather than a method: the benchmark's op counters wrap every
    public method of a context, and reading a value is not an op.
    """
    n, k, d = v
    return Fraction(n << k, d) if k >= 0 else Fraction(n, d << -k)


#: The exact route's domain: the largest |exponent| an elementary result
#: may carry.  :func:`exact_value` then builds a power of two of at most
#: 2**16 bits for it; the route itself carries the exponent as ``k``.
EXACT_EXP_BOUND = 1 << 16
#: The precision an exact operand is rounded to before an elementary
#: function; ``guard_small`` tests ``|a| < 2**-(EXACT_REF_P // 2)``.
EXACT_REF_P = 64


class ExactDomainError(FpError):
    """An elementary result on the exact route has an exponent past
    :data:`EXACT_EXP_BOUND` in magnitude: reading it out with
    :func:`exact_value` would build an integer of that many bits, up to
    ``2**EXACT_REF_P``."""


class ExactScalars(ScalarContext[Triple]):
    """Exact rational arithmetic on dyadic triples ``(n, k, d)`` standing
    for ``n * 2**k / d``, with ``d`` odd and positive; elementary functions
    are evaluated at the reference precision :data:`EXACT_REF_P` and then
    carried exactly.

    Nearly every value on the route is a small odd ratio times a large
    power of two; the triple keeps that power as the exponent ``k``, so no
    op multiplies powers of two or takes a gcd of one.  ``input`` and
    ``const`` take a ``Fraction``; :func:`exact_value` reads a value back
    out as one, and no ``Fraction`` is built in between.

    ``mul``, ``add`` and ``div`` leave ``n`` unreduced.  ``iter_add``,
    ``iter_mul``, ``floor``, ``reinject`` and the leaves return the
    canonical form:
    ``n`` odd or zero, ``gcd(n, d) == 1``, zero as ``(0, 0, 1)``, where
    equal values are equal triples.  The elementary functions round a
    triple as the rational ``n / d * 2**k``, through the same adapter as
    ``round_p`` (a triple with ``d == 1`` takes its scale path), apply the
    p-bit body to that pair, return its result ``<m, e>`` as ``(m, e, 1)``,
    and raise :class:`ExactDomainError` on a result whose exponent is past
    :data:`EXACT_EXP_BOUND` in magnitude.
    """

    def input(self, q: Fraction) -> Triple:
        if type(q) not in _RATIONAL:
            q = Fraction(q)
        d = q.denominator
        z = (d & -d).bit_length() - 1
        return _reduced(q.numerator, -z, d >> z)

    const = input

    def add(self, a, b):
        an, ak, ad = a
        bn, bk, bd = b
        if not an:
            return b
        if not bn:
            return a
        # Align at the smaller exponent, so only left shifts are taken.
        if ak < bk:
            bn <<= bk - ak
        elif bk < ak:
            an <<= ak - bk
            ak = bk
        if ad == bd:
            return an + bn, ak, ad
        g = gcd(ad, bd)
        if g == 1:
            return an * bd + bn * ad, ak, ad * bd
        s = ad // g
        return an * (bd // g) + bn * s, ak, s * bd

    def mul(self, a, b):
        return a[0] * b[0], a[1] + b[1], a[2] * b[2]

    const_mul = mul

    def div(self, a, b):
        bn, bk, bd = b
        if not bn:
            raise DivisionByZero("exact division by zero")
        z = (bn & -bn).bit_length() - 1
        bn >>= z
        n = a[0] * bd
        return (-n if bn < 0 else n), a[1] - bk - z, a[2] * abs(bn)

    def floor(self, a):
        n, k, d = a
        # floor(floor(x) / d) == floor(x / d) for a positive integer d.
        return _reduced((n << k if k >= 0 else n >> -k) // d, 0, 1)

    def iter_add(self, xs):
        # One pass finds the smallest exponent and the lcm of the odd parts
        # of the nonzero terms; a zero term sets neither.
        k = None
        den = 1
        for n, xk, d in xs:
            if n:
                if k is None or xk < k:
                    k = xk
                if den % d:
                    den = lcm(den, d)
        if k is None:
            return _ZERO
        return _reduced(sum((n * (den // d)) << (xk - k) for n, xk, d in xs if n), k, den)

    def iter_mul(self, xs):
        n = d = 1
        k = 0
        for xn, xk, xd in xs:
            n *= xn
            k += xk
            d *= xd
        return _reduced(n, k, d)

    def reinject(self, a):
        return _reduced(*a)

    def _elem(self, name: str, fn, a: Triple) -> Triple:
        n, k, d = a
        m, e = fn(_round_quotient(n, d, k, EXACT_REF_P), EXACT_REF_P)
        if abs(e) > EXACT_EXP_BOUND:
            raise ExactDomainError(
                f"exact {name} result has exponent {e}, past the exact route's "
                f"bound |e| <= {EXACT_EXP_BOUND}"
            )
        return m, e, 1

    def guard_small(self, a):
        # |n| * 2**s < d with s = k + EXACT_REF_P // 2, decided on bit
        # lengths; only when they tie is a shift of that length taken.
        n, k, d = a
        if not n:
            return True
        n = abs(n)
        s = k + EXACT_REF_P // 2
        gap = n.bit_length() + s - d.bit_length()
        if gap:
            return gap < 0
        if s >= 0:
            return n << s < d
        return n < d << -s
