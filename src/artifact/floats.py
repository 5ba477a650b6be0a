"""Arbitrary-precision binary floating point with explicit precision ``p``.

A p-bit float is a pair ``(m, e)`` of arbitrary-size integers encoding the
value ``m * 2**e``.  Zero is canonically ``(0, 0)``; otherwise the
significand is normalized, ``2**(p-1) <= |m| <= 2**p - 1``, and the exponent
lies in the two's-complement window ``-2**p <= e < 2**p``.  Every operation
works on the integer pairs: it forms its exact result as an integer ``n``
times ``2**k`` and rounds that once with ``_round(n, k, p) -> (m, e)``, the
single rounding kernel, so results are bit-reproducible.  A rational ``num
/ den * 2**k`` reaches the same kernel through one adapter,
``_round_quotient``: :func:`fp_div`, :func:`round_p` and the exact route of
:mod:`artifact.contexts` all round through it.

The kernel and its ops (``_add``, ``_mul``, ``_div``, ``_compare``,
``_floor``, ``_iter_add``, ``_iter_mul``) take plain ``(m, e)`` pairs and
``p``, check nothing and build no :class:`FpNumber`;
:mod:`artifact.contexts`, :mod:`artifact.elementary` and
:mod:`artifact.synthesis` call them directly.  Each public function is its
precision check, one kernel op and one ``FpNumber`` built from the result.

Rounding is round-to-nearest with ties resolved toward the even
significand.  A result whose nearest representable would need an exponent
``>= 2**p`` raises :class:`Overflow`; tiny results round to zero or the
smallest normalized magnitude, whichever is nearer (underflow is not an
error).

Division-flavoured scaling inside the arithmetic ops uses an *approximate*
quotient: ``a`` over ``b`` equals the exact quotient when that quotient is
an integer multiple of 1/4, and otherwise the exact quotient plus a fixed
bias of 1/8 (added regardless of sign).  ``oracle_approx_div`` in
``tests/oracles.py`` states this rule over ``Fraction`` values and is the
specification the tests hold the ops to; the ops apply it in integers.
``m / 2**d`` is a multiple of 1/4 exactly when the low ``d - 2`` bits of
``m`` are zero, and after scaling both sides by 8 the bias is the integer
``2**d``.

Zero carries no intrinsic exponent (``(0, e)`` denotes the same value for
every ``e``; the stored form is the canonical ``(0, 0)``).  The exponent
alignment in :func:`fp_add` and :func:`fp_compare` therefore treats a zero
operand as having the *other* operand's exponent: addition with zero is an
identity and comparison against zero is sign-correct, instead of the tiny
operand being demoted through the approximate quotient by a meaningless
exponent gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import prod
from typing import Sequence

__all__ = [
    "Comparison",
    "DivisionByZero",
    "FpError",
    "FpNumber",
    "Overflow",
    "fp_add",
    "fp_compare",
    "fp_div",
    "fp_floor",
    "fp_mul",
    "iter_add",
    "iter_mul",
    "round_p",
]


class FpError(ArithmeticError):
    """Base class for arithmetic failures of p-bit float operations."""


class Overflow(FpError):
    """Nearest representable result would need an exponent >= 2**p."""


class DivisionByZero(FpError):
    """Division (exact or approximate) by zero."""


class Comparison(Enum):
    """Total-order verdict produced by :func:`fp_compare`."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


@dataclass(frozen=True, slots=True)
class FpNumber:
    """A validated p-bit float ``m * 2**e``.

    Construction enforces the normal form: zero is exactly ``(0, 0)``, a
    nonzero significand satisfies ``2**(p-1) <= |m| <= 2**p - 1``, and the
    exponent satisfies ``-2**p <= e < 2**p``.
    """

    m: int
    e: int
    p: int

    def __post_init__(self) -> None:
        _require_p(self.p)
        if not isinstance(self.m, int) or not isinstance(self.e, int):
            raise ValueError("significand and exponent must be int")
        lim = 1 << self.p
        if self.m == 0:
            if self.e != 0:
                raise ValueError("canonical zero must be (0, 0)")
            return
        if not (lim >> 1) <= abs(self.m) <= lim - 1:
            raise ValueError(
                f"significand {self.m} not normalized for p={self.p}"
            )
        if not -lim <= self.e <= lim - 1:
            raise ValueError(
                f"exponent {self.e} outside [-2**p, 2**p) for p={self.p}"
            )

    @classmethod
    def zero(cls, p: int) -> "FpNumber":
        """The canonical zero at precision ``p``."""
        return cls(0, 0, p)

    @property
    def is_zero(self) -> bool:
        return self.m == 0

    def to_fraction(self) -> Fraction:
        """Exact rational value ``m * 2**e``."""
        if self.e >= 0:
            return Fraction(self.m << self.e)
        return Fraction(self.m, 1 << -self.e)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.m}, {self.e}>@p{self.p}"


_new = object.__new__
_set_m = FpNumber.m.__set__
_set_e = FpNumber.e.__set__
_set_p = FpNumber.p.__set__


def _normal(m: int, e: int, p: int) -> FpNumber:
    """An FpNumber whose fields the kernel has already put in normal form,
    built without repeating the ``__post_init__`` checks."""
    x = _new(FpNumber)
    _set_m(x, m)
    _set_e(x, e)
    _set_p(x, p)
    return x


def _require_p(p: int) -> None:
    if p < 1:
        raise ValueError(f"precision must be >= 1, got {p}")


Pair = tuple[int, int]


def _round(n: int, k: int, p: int) -> Pair:
    """Round ``n * 2**k`` to the nearest p-bit ``(m, e)``.

    Ties go to the even significand.  If the nearest representable would
    need an exponent ``>= 2**p`` (this includes the tie at the very top of
    the range, whose even resolution renormalizes upward), :class:`Overflow`
    is raised.  Values below the smallest normalized magnitude round to zero
    or that smallest magnitude, whichever is nearer; at their exact midpoint
    both candidate significands are even, so the tie rule is mute and the
    result is zero (the magnitude-smaller candidate).
    """
    if not n:
        return 0, 0
    a = -n if n < 0 else n
    lim = 1 << p
    shift = a.bit_length() - p
    e = k + shift
    if e < -lim:
        # Compare a * 2**k against 2**(p-2-lim), half the smallest normal,
        # via bit lengths so no giant power of two is materialized.
        t = p - 2 - lim - k
        bl = a.bit_length() - 1
        if bl < t or (bl == t and a == 1 << t):
            return 0, 0
        return (-(lim >> 1) if n < 0 else lim >> 1), -lim
    if shift <= 0:
        m = a << -shift
    else:
        # Add just under half an ulp, plus one more when the kept part is
        # odd, so an exact tie lands on the even significand.
        m = (a + (1 << (shift - 1)) - 1 + ((a >> shift) & 1)) >> shift
        if m == lim:
            m = lim >> 1
            e += 1
    if e >= lim:
        raise Overflow(f"exponent {e} out of range for p={p}")
    return (-m if n < 0 else m), e


def _round_quotient(num: int, den: int, k: int, p: int) -> Pair:
    """Round ``num / den * 2**k`` for any nonzero ``den``: the one adapter
    from a rational to :func:`_round`.

    A positive power-of-two denominator ``2**j`` is a scale, ``num *
    2**(k - j)``.  Any other has its magnitude reduced to an integer
    quotient ``q`` of at least ``p + 2`` bits and the sticky word ``2q |
    (remainder != 0)``: a non-dyadic quotient is never a rounding tie, so
    one bit below ``q`` settles the rounding as the exact rational would.
    """
    if den > 0 and not den & (den - 1):
        return _round(num, k + 1 - den.bit_length(), p)
    a, d = abs(num), abs(den)
    s = max(0, p + 2 + d.bit_length() - a.bit_length())
    q, r = divmod(a << s, d)
    w = (q << 1) | (r != 0)
    return _round(-w if (num < 0) != (den < 0) else w, k - s - 1, p)


def _align(hi_m: int, lo_m: int, d: int) -> tuple[int, int, int]:
    """Integer sides of ``hi_m`` against ``lo_m /~ 2**d`` for ``d >= 0``.

    Returns ``(x, y, s)`` with ``x = hi_m * 2**s`` and ``y = (lo_m /~
    2**d) * 2**s``, both integers: ``s = d`` when the quotient is a
    multiple of 1/4 (the low ``d - 2`` bits of ``lo_m`` are zero), and
    otherwise ``s = d + 3`` so the 1/8 bias becomes ``2**d``.
    """
    if d <= 2 or not lo_m & ((1 << (d - 2)) - 1):
        return hi_m << d, lo_m, d
    return hi_m << (d + 3), (lo_m << 3) + (1 << d), d + 3


def _add(a: Pair, b: Pair, p: int) -> Pair:
    (am, ae), (bm, be) = a, b
    if not am:
        return b
    if not bm:
        return a
    if ae < be:
        a, am, ae, bm, be = b, bm, be, am, ae
    d = ae - be
    if d >= p + 4:
        # b's quotient lies strictly between 1/16 and 3/16, under half an
        # ulp of a even at a binade edge: the sum rounds back to a.
        return a
    x, y, s = _align(am, bm, d)
    return _round(x + y, ae - s, p)


def _mul(a: Pair, b: Pair, p: int) -> Pair:
    return _round(a[0] * b[0], a[1] + b[1], p)


def _div(a: Pair, b: Pair, p: int) -> Pair:
    if not b[0]:
        raise DivisionByZero("float division by zero")
    n, d = a[0] << (p - 1), b[0]
    if (n << 2) % d:
        n, d = (n << 3) + d, d << 3
    return _round_quotient(n, d, a[1] - b[1] - p + 1, p)


def _compare(a: Pair, b: Pair, p: int) -> Comparison:
    x, y = a[0], b[0]
    if x and y:
        d = a[1] - b[1]
        if d >= p + 4:  # b's quotient is under 1/4: a's sign decides
            y = 0
        elif d <= -(p + 4):  # a is under 2**-4 of b's magnitude: b's sign decides
            x = 0
        elif d < 0:
            y <<= -d
        else:
            x, y, _ = _align(x, y, d)
    if x == y:
        return Comparison.EQUAL
    return Comparison.LESS if x < y else Comparison.GREATER


def _floor(a: Pair, p: int) -> Pair:
    m, e = a
    return _round(m, e, p) if e >= 0 else _round(m >> -e, 0, p)


def _iter_add(xs: Sequence[Pair], p: int) -> Pair:
    if not xs:
        raise ValueError("iter_add requires at least one operand")
    e0 = None
    for m, e in xs:
        if m and (e0 is None or e < e0):
            e0 = e
    if e0 is None:
        return 0, 0
    return _round(sum(m << (e - e0) for m, e in xs if m), e0, p)


def _iter_mul(xs: Sequence[Pair], p: int) -> Pair:
    if not xs:
        raise ValueError("iter_mul requires at least one operand")
    return _round(prod(m for m, _ in xs), sum(e for _, e in xs), p)


def round_p(x: Fraction | int, p: int) -> FpNumber:
    """Round an exact rational to the nearest p-bit float.

    The value goes to :func:`_round_quotient` as its numerator and
    denominator, so the rounding rule is that of the kernel ``_round``.
    This is the one public rounding call.
    """
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"round_p expects Fraction or int, got {type(x)!r}")
    _require_p(p)
    return _normal(*_round_quotient(x.numerator, x.denominator, 0, p), p)


def _mixed_precision(xs: Sequence[FpNumber]) -> ValueError:
    ps = sorted({x.p for x in xs})
    return ValueError(f"operands must share one precision, got {ps}")


def _require_same_p(xs: Sequence[FpNumber]) -> int:
    p = xs[0].p if xs else 1  # an empty family goes on to the op, which refuses it
    for x in xs:
        if x.p != p:
            raise _mixed_precision(xs)
    return p


def fp_add(a: FpNumber, b: FpNumber) -> FpNumber:
    """Add: align the smaller exponent via the approximate quotient, round.

    With ``e1 >= e2`` the result is ``round_p((m1 + (m2 /~ 2**(e1-e2))) *
    2**e1)``, and symmetrically otherwise.  A zero operand aligns at the
    other operand's exponent, making it an additive identity.  An exponent
    gap of ``p + 4`` or more returns the larger-exponent operand without
    building the aligning shift, which at large ``p`` could be too wide
    to hold.
    """
    if a.p != b.p:
        raise _mixed_precision((a, b))
    return _normal(*_add((a.m, a.e), (b.m, b.e), a.p), a.p)


def fp_mul(a: FpNumber, b: FpNumber) -> FpNumber:
    """Multiply: significands multiply exactly, exponents add, then round."""
    if a.p != b.p:
        raise _mixed_precision((a, b))
    return _normal(*_mul((a.m, a.e), (b.m, b.e), a.p), a.p)


def fp_div(a: FpNumber, b: FpNumber) -> FpNumber:
    """Divide: ``round_p((m1 * 2**(p-1) /~ m2) * 2**(e1 - e2 - p + 1))``."""
    if a.p != b.p:
        raise _mixed_precision((a, b))
    return _normal(*_div((a.m, a.e), (b.m, b.e), a.p), a.p)


def fp_compare(a: FpNumber, b: FpNumber) -> Comparison:
    """Compare via the approximate quotient.

    ``b``'s significand is rescaled to ``t = m2 /~ 2**(e1-e2)`` and the
    verdict combines ``m1 <= t`` and ``t <= m1`` (at least one always
    holds, so the verdict is total).  For nonzero operands the 1/8 bias is
    too small to straddle a genuine difference, and a zero operand aligns
    at the other's exponent, so the verdict always agrees with comparing
    exact values.  At an exponent gap of ``p + 4`` or more the sign of the
    larger-exponent operand decides, with no shift built.
    """
    if a.p != b.p:
        raise _mixed_precision((a, b))
    return _compare((a.m, a.e), (b.m, b.e), a.p)


def fp_floor(a: FpNumber) -> FpNumber:
    """Floor toward minus infinity, then round back to ``p`` bits.

    For ``e >= 0`` the value is already an integer and is simply re-rounded
    (wide integers may lose low bits).  For ``e < 0`` the significand is
    shifted right by ``-e`` (toward minus infinity) and the integer result
    rounded.
    """
    return _normal(*_floor((a.m, a.e), a.p), a.p)


def iter_add(xs: Sequence[FpNumber]) -> FpNumber:
    """Sum a non-empty family exactly, then round once.

    The nonzero significands are shifted to the smallest of their exponents
    and added as integers, with one final rounding: the result is invariant
    under permutation of the operands and is *not* a fold of binary adds.
    A singleton returns its element unchanged.
    """
    p = _require_same_p(xs)
    return _normal(*_iter_add([(x.m, x.e) for x in xs], p), p)


def iter_mul(xs: Sequence[FpNumber]) -> FpNumber:
    """Multiply a non-empty family exactly, then round once."""
    p = _require_same_p(xs)
    return _normal(*_iter_mul([(x.m, x.e) for x in xs], p), p)
