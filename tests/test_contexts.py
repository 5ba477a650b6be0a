"""Op-level oracle for the exact context.

Every :class:`ExactScalars` op on integer pairs is checked against the
same op on ``Fraction`` values.  Operands are drawn unreduced and of
either sign, as ``mul`` and ``add`` leave them; the aggregations and
``reinject`` must return the canonical (reduced, positive-denominator)
pair, and the elementary functions must equal ``round_p`` of the
``Fraction`` fed to the p-bit function.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from artifact import contexts
from artifact.contexts import (
    EXACT_EXP_BOUND,
    EXACT_REF_P,
    ExactDomainError,
    ExactScalars,
    PBitScalars,
    exact_value,
)
from artifact.elementary import exp_fp, log_fp, sigmoid_fp, silu_fp, softplus_fp, sqrt_fp
from artifact.floats import DivisionByZero, FpNumber, round_p

F = Fraction
SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)


@st.composite
def pairs(draw, bits: int = 40):
    """A pair ``(n, d)``, ``d > 0``, scaled by a common factor so that it
    is often not in lowest terms."""
    n = draw(st.integers(-(1 << bits), 1 << bits))
    d = draw(st.integers(1, 1 << bits))
    k = draw(st.sampled_from([1, 1, 2, 3, 6, 1 << 20, 3**15]))
    return n * k, d * k


def canonical(v) -> bool:
    n, d = v
    return type(n) is int and type(d) is int and d > 0 and math.gcd(n, d) == 1


def value(v) -> Fraction:
    n, d = v
    assert d > 0
    return exact_value(v)


ctx = ExactScalars()


class TestLeaves:
    @SETTINGS
    @given(pairs())
    def test_input_and_const_are_canonical(self, v):
        q = F(*v)
        for leaf in (ctx.input, ctx.const):
            assert leaf(q) == (q.numerator, q.denominator)
            assert canonical(leaf(q)) and exact_value(leaf(q)) == q

    def test_input_takes_int(self):
        assert ctx.input(-3) == (-3, 1)


class TestInputWithoutCopy:
    """``input`` passes an ``int`` or ``Fraction`` through as it is and sends
    every other type through ``Fraction``: each accepted value gives what
    ``Fraction(q)`` first gave, and each refused one raises the same error."""

    VALUES = [0, -3, 7, 1 << 70, -(3**50), F(3, 4), F(-5, 12), F(1, 1 << 40), F(10**30, 7),
              "3/4", "-1.25", 0.75, -2.5, True, False]
    REFUSED = [None, "abc", "1/0", float("nan"), float("inf"), [1]]

    @staticmethod
    def outcome(fn, q):
        """The result and its ``repr`` (so that ``True`` is not ``1``), or
        the error raised."""
        try:
            v = fn(q)
        except Exception as exc:
            return type(exc), str(exc)
        return v, repr(v)

    @pytest.mark.parametrize("p", [2, 4, 8, 16, 24, 53])
    def test_pbit_matches_fraction_copy(self, p):
        new = PBitScalars(p)
        for q in self.VALUES + self.REFUSED:
            want = self.outcome(lambda v: round_p(F(v), p), q)
            for leaf in (new.input, new.const):
                assert self.outcome(leaf, q) == want, q

    def test_exact_matches_fraction_copy(self):
        for q in self.VALUES + self.REFUSED:
            want = self.outcome(lambda v: (F(v).numerator, F(v).denominator), q)
            for leaf in (ctx.input, ctx.const):
                assert self.outcome(leaf, q) == want, q

    def test_int_and_fraction_are_not_copied(self, monkeypatch):
        import artifact.contexts as contexts

        def no_copy(q):
            raise AssertionError(f"Fraction({q!r}) built")

        monkeypatch.setattr(contexts, "Fraction", no_copy)
        for q in (5, -(1 << 80), F(3, 4), F(-7, 1 << 30)):
            assert ctx.input(q) == (F(q).numerator, F(q).denominator)
            assert PBitScalars(16).input(q) == round_p(F(q), 16)
        with pytest.raises(AssertionError, match="built"):
            ctx.input("3/4")


class TestArithmetic:
    @SETTINGS
    @given(pairs(), pairs())
    def test_add_mul_div(self, a, b):
        assert value(ctx.add(a, b)) == F(*a) + F(*b)
        assert value(ctx.mul(a, b)) == F(*a) * F(*b)
        assert value(ctx.const_mul(a, b)) == F(*a) * F(*b)
        if b[0]:
            assert value(ctx.div(a, b)) == F(*a) / F(*b)
        else:
            with pytest.raises(DivisionByZero):
                ctx.div(a, b)

    @pytest.mark.parametrize("a, b", [((3, 4), (5, 4)), ((6, 8), (-3, 8)), ((1, 6), (1, 10)),
                                      ((-2, 12), (9, 18)), ((0, 5), (0, 7)), ((7, 1), (-7, 1))])
    def test_add_shared_and_mixed_denominators(self, a, b):
        assert value(ctx.add(a, b)) == F(*a) + F(*b)

    @pytest.mark.parametrize("zero", [(0, 1), (0, 9)])
    def test_div_by_unreduced_zero_raises(self, zero):
        with pytest.raises(DivisionByZero):
            ctx.div((3, 2), zero)

    @SETTINGS
    @given(pairs(bits=12))
    def test_floor(self, a):
        got = ctx.floor(a)
        assert got[1] == 1 and value(got) == math.floor(F(*a))


class TestAggregations:
    @SETTINGS
    @given(st.lists(pairs(bits=24), max_size=8))
    def test_iter_add_and_iter_mul(self, xs):
        total = ctx.iter_add(xs)
        product = ctx.iter_mul(xs)
        assert canonical(total) and exact_value(total) == sum((F(*x) for x in xs), F(0))
        assert canonical(product) and exact_value(product) == math.prod(F(*x) for x in xs)

    def test_empty_families(self):
        assert ctx.iter_add([]) == (0, 1)
        assert ctx.iter_mul([]) == (1, 1)

    def test_iter_add_mixed_denominators_reduces(self):
        xs = [(1, 6), (1, 10), (2, 30), (-4, 12), (6, 9), (0, 4)]
        assert ctx.iter_add(xs) == (2, 3)
        assert ctx.iter_add([(3, 6), (-6, 12)]) == (0, 1)

    @SETTINGS
    @given(pairs())
    def test_reinject_reduces(self, a):
        got = ctx.reinject(a)
        assert canonical(got) and exact_value(got) == F(*a)


class TestGuardSmall:
    """``ExactScalars.guard_small`` is ``|a| < 2**-(EXACT_REF_P // 2)``.  The
    rule is checked at the shipped constant and, set in place, at a few
    others, odd ones included."""

    @pytest.mark.parametrize("precision", [2, 15, 16, EXACT_REF_P])
    @pytest.mark.parametrize("k", [1, 3, 1 << 40])
    def test_threshold_is_exclusive(self, precision, k, monkeypatch):
        monkeypatch.setattr(contexts, "EXACT_REF_P", precision)
        c = ExactScalars()
        t = 1 << (precision // 2)  # the threshold is 1 / t
        for sign in (1, -1):
            assert not c.guard_small((sign * k, t * k))
            assert c.guard_small((sign * k, t * k + 1))
            assert not c.guard_small((sign * (k + 1), t * k))
        assert c.guard_small((0, k))

    @SETTINGS
    @given(pairs(bits=48))
    def test_matches_fraction(self, a):
        threshold = F(1, 1 << (EXACT_REF_P // 2))
        assert ExactScalars().guard_small(a) == (abs(F(*a)) < threshold)


class TestPBitGuardSmall:
    """``PBitScalars.guard_small`` is ``|a| < 2**-(p // 2)``."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_matches_fraction_on_every_legal_float(self, p):
        c = PBitScalars(p)
        threshold = F(1, 1 << (p // 2))
        for m, e in oracles.legal_floats(p):
            want = abs(oracles.value((m, e))) < threshold
            assert c.guard_small(FpNumber(m, e, p)) == want, (m, e)

    @pytest.mark.parametrize("p", [16, 17, 24])
    def test_one_ulp_either_side_of_the_threshold(self, p):
        c = PBitScalars(p)
        h = p // 2
        below = FpNumber((1 << p) - 1, -h - p, p)
        at = FpNumber(1 << (p - 1), -h - (p - 1), p)
        above = FpNumber((1 << (p - 1)) + 1, -h - (p - 1), p)
        assert at.to_fraction() == F(1, 1 << h)
        assert below.to_fraction() < at.to_fraction() < above.to_fraction()
        for sign in (1, -1):
            assert c.guard_small(FpNumber(sign * below.m, below.e, p))
            assert not c.guard_small(FpNumber(sign * at.m, at.e, p))
            assert not c.guard_small(FpNumber(sign * above.m, above.e, p))
        assert c.guard_small(FpNumber.zero(p))

    def test_extreme_exponents_at_p64(self):
        """Exponents near +-2**64 are decided without building ``2**e``."""
        c = PBitScalars(64)
        assert c.guard_small(FpNumber(-(1 << 63), -(1 << 64), 64))
        assert not c.guard_small(FpNumber(1 << 63, (1 << 64) - 1, 64))


_ELEMENTARY = {
    "exp": exp_fp,
    "sqrt": sqrt_fp,
    "log": log_fp,
    "softplus": softplus_fp,
    "sigmoid": sigmoid_fp,
    "silu": silu_fp,
}


class TestElementary:
    @pytest.mark.parametrize("name", sorted(_ELEMENTARY))
    @SETTINGS
    @given(pairs(bits=10))
    def test_equals_round_p_of_the_fraction(self, name, a):
        c = ExactScalars()
        fn = _ELEMENTARY[name]
        try:
            want = fn(round_p(F(*a), EXACT_REF_P)).to_fraction()
        except (ArithmeticError, ValueError) as exc:  # Overflow, NegativeInput, ...
            with pytest.raises(type(exc)):
                getattr(c, name)(a)
            return
        assert value(getattr(c, name)(a)) == want


class TestExactDomain:
    """The exact route's domain: an elementary result whose exponent is
    past ``EXACT_EXP_BOUND`` in magnitude raises ``ExactDomainError``,
    naming the op and the exponent, instead of building its power of two."""

    def test_bound_is_inclusive_on_both_sides(self):
        c = ExactScalars()  # EXACT_REF_P = 64: a power of two is 2**63 * 2**e
        top = EXACT_EXP_BOUND + 63
        assert c.sqrt((1 << 2 * top, 1)) == (1 << top, 1)
        with pytest.raises(ExactDomainError, match=f"sqrt result has exponent {EXACT_EXP_BOUND + 1},"):
            c.sqrt((1 << 2 * top + 2, 1))
        low = EXACT_EXP_BOUND - 63
        assert value(c.sqrt((1, 1 << 2 * low))) == F(1, 1 << low)
        with pytest.raises(ExactDomainError, match=f"sqrt result has exponent -{EXACT_EXP_BOUND + 1},"):
            c.sqrt((1, 1 << 2 * low + 2))

    @pytest.mark.parametrize(
        "name,a",
        [("exp", (10**6, 1)), ("exp", (-(10**6), 1)), ("softplus", (-(10**6), 1)),
         ("sigmoid", (-(10**6), 1)), ("silu", (-(10**308), 1)), ("sigmoid", (-(10**308), 1))],
    )
    def test_large_magnitudes_raise(self, name, a):
        with pytest.raises(ExactDomainError, match=f"^exact {name} result has exponent -?[0-9]+,"):
            getattr(ExactScalars(), name)(a)
