"""Unit tests for the p-bit float core.

Expected values come from two places: hand-checkable identities asserted
directly, and values frozen from the enumeration oracle in ``oracles.py``
(nearest-representable search over every legal float, ties to the even
significand).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from artifact.floats import (
    Comparison,
    DivisionByZero,
    FpNumber,
    Overflow,
    _round,
    _round_quotient,
    fp_add,
    fp_compare,
    fp_div,
    fp_floor,
    fp_mul,
    iter_add,
    iter_mul,
    round_p,
)


def me(x: FpNumber) -> tuple[int, int]:
    return (x.m, x.e)


def fp(m: int, e: int, p: int = 3) -> FpNumber:
    return FpNumber(m, e, p)


class TestFpNumber:
    def test_canonical_zero(self):
        z = FpNumber.zero(3)
        assert (z.m, z.e, z.p) == (0, 0, 3)
        assert z.is_zero and z.to_fraction() == 0

    def test_validation_rejects_denormal_significand(self):
        with pytest.raises(ValueError):
            FpNumber(3, 0, 3)  # |m| < 2**(p-1)
        with pytest.raises(ValueError):
            FpNumber(8, 0, 3)  # |m| >= 2**p
        with pytest.raises(ValueError):
            FpNumber(-8, 0, 3)  # closed interval excludes -2**p
        FpNumber(-4, 0, 3)  # but includes -2**(p-1)

    def test_validation_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            FpNumber(4, 8, 3)
        with pytest.raises(ValueError):
            FpNumber(4, -9, 3)
        FpNumber(4, 7, 3)
        FpNumber(4, -8, 3)

    def test_validation_rejects_noncanonical_zero(self):
        with pytest.raises(ValueError):
            FpNumber(0, 1, 3)

    def test_to_fraction_matches_oracle(self):
        for m, e in oracles.legal_floats(3):
            assert FpNumber(m, e, 3).to_fraction() == oracles.value((m, e))


class TestRoundP:
    def test_exact_representable(self):
        assert me(round_p(8, 3)) == (4, 1)
        assert me(round_p(Fraction(5, 2), 3)) == (5, -1)
        assert me(round_p(-6, 3)) == (-6, 0)

    def test_tie_to_even_up_and_down(self):
        # 9 sits between <4,1>=8 and <5,1>=10: even significand wins (4).
        assert me(round_p(9, 3)) == (4, 1)
        # 11 sits between <5,1>=10 and <6,1>=12: even significand wins (6).
        assert me(round_p(11, 3)) == (6, 1)
        assert me(round_p(-9, 3)) == (-4, 1)

    def test_tie_at_binade_top_renormalizes(self):
        # 15/2 lies between <7,0>=7 and <4,1>=8; 15/2 -> m0=7, tie -> 8.
        assert me(round_p(Fraction(15, 2), 3)) == (4, 1)

    def test_overflow_at_range_top(self):
        # p=3: largest float is <7,7> = 896, next grid point would be 1024.
        assert me(round_p(959, 3)) == (7, 7)
        with pytest.raises(Overflow):
            round_p(961, 3)
        # The 960 midpoint resolves to the even significand, which
        # renormalizes out of range: Overflow by the tie rule.
        with pytest.raises(Overflow):
            round_p(960, 3)

    def test_underflow_rounds_to_zero_or_smallest(self):
        # p=3: smallest positive is <4,-8> = 1/64, midpoint 1/128.
        assert me(round_p(Fraction(1, 100), 3)) == (4, -8)
        assert me(round_p(Fraction(1, 129), 3)) == (0, 0)
        # Exact midpoint: both candidates have even significands; the
        # magnitude-smaller one (zero) wins.
        assert me(round_p(Fraction(1, 128), 3)) == (0, 0)
        assert me(round_p(Fraction(-1, 128), 3)) == (0, 0)

    # Non-dyadic values a hair off a rounding tie: the integer quotient
    # alone would land on the tie, so only the sticky bit decides.
    @pytest.mark.parametrize(
        "center",
        [Fraction(9), Fraction(11), Fraction(15, 2), Fraction(1, 128), Fraction(960)],
        ids=["tie-even-down", "tie-even-up", "binade-top", "underflow-midpoint", "overflow-tie"],
    )
    def test_non_dyadic_beside_ties(self, center):
        eps = Fraction(1, 3 << 40)
        for x in (center - eps, center + eps, -center + eps, -center - eps):
            try:
                want = oracles.oracle_round(x, 3)
            except oracles.OracleOverflow:
                with pytest.raises(Overflow):
                    round_p(x, 3)
                continue
            assert me(round_p(x, 3)) == want, x

    def test_non_dyadic_beside_ties_hand_checked(self):
        eps = Fraction(1, 3 << 40)
        assert me(round_p(9 - eps, 3)) == (4, 1)
        assert me(round_p(9 + eps, 3)) == (5, 1)
        assert me(round_p(Fraction(1, 128) - eps, 3)) == (0, 0)
        assert me(round_p(Fraction(1, 128) + eps, 3)) == (4, -8)
        assert me(round_p(Fraction(-1, 128) - eps, 3)) == (-4, -8)
        assert me(round_p(960 - eps, 3)) == (7, 7)
        with pytest.raises(Overflow):
            round_p(960 + eps, 3)

    def test_matches_oracle_on_random_rationals(self):
        rng = random.Random(7)
        for p in (3, 4):
            for _ in range(2000):
                num = rng.randrange(-(1 << 14), 1 << 14)
                den = rng.randrange(1, 1 << 10)
                x = Fraction(num, den)
                try:
                    got = me(round_p(x, p))
                except Overflow:
                    with pytest.raises(oracles.OracleOverflow):
                        oracles.oracle_round(x, p)
                    continue
                assert got == oracles.oracle_round(x, p)

    def test_identity_on_representables(self):
        for m, e in oracles.legal_floats(3):
            x = Fraction(m) * oracles.pow2(e)
            assert me(round_p(x, 3)) == (m, e)

    def test_power_of_two_denominator_is_a_scale(self):
        """``_round_quotient(num, 2**j, k, p)`` is the kernel's
        ``_round(num, k - j, p)``, ``Overflow`` included, with ``k`` at both
        ends of the exponent range and in its middle: 360,300 cases."""

        def outcome(fn, *args):
            try:
                return fn(*args)
            except Overflow:
                return Overflow

        for p in (1, 2, 3, 5, 8):
            lim = 1 << p
            for k in (-lim - 12, -lim, 0, lim - 12, lim):
                for j in range(12):
                    for num in range(-600, 601):
                        want = outcome(_round, num, k - j, p)
                        assert outcome(_round_quotient, num, 1 << j, k, p) == want, (num, j, k, p)

    def test_exponent_shift_is_a_scale(self):
        """Inside the exponent range ``_round`` takes its significand from
        ``n`` alone and adds ``k`` to the exponent.  For every nonzero
        ``|n| < 2**(2p+1)`` at p = 2 to 6, ``(m, e) = _round(n, k, p)`` at
        the ``k`` that puts ``e`` at 0 or 1, and ``_round(n, k + t, p)`` is
        ``(m, e + t)`` for every shift ``t`` that keeps ``e + t`` in
        ``[-2**p, 2**p)``: 2,396,176 cases.  ``synthesis.check_op``'s
        exhaustive sweeps derive their reference from this."""
        cases = 0
        for p in range(2, 7):
            lim = 1 << p
            bound = 1 << (2 * p + 1)
            for n in range(1 - bound, bound):
                if not n:
                    continue
                k = p - abs(n).bit_length()
                m, e = _round(n, k, p)
                assert e in (0, 1), (n, p)
                shifts = range(-lim - e, lim - e)
                assert [_round(n, k + t, p) for t in shifts] == [(m, e + t) for t in shifts], (n, p)
                cases += len(shifts)
        assert cases == 2_396_176


class TestApproxDiv:
    """The approximate-quotient rule of the module docstring, as the
    oracle states it; the ops are held to the oracle below."""

    def test_exact_when_quarter_multiple(self):
        assert oracles.oracle_approx_div(5, 2) == Fraction(5, 2)
        assert oracles.oracle_approx_div(3, 4) == Fraction(3, 4)
        assert oracles.oracle_approx_div(0, 7) == 0

    def test_biased_otherwise(self):
        assert oracles.oracle_approx_div(5, 3) == Fraction(5, 3) + Fraction(1, 8)
        assert oracles.oracle_approx_div(5, 3) == Fraction(43, 24)
        # The bias is added, never subtracted, for negative quotients too.
        assert oracles.oracle_approx_div(-5, 3) == Fraction(-5, 3) + Fraction(1, 8)

    def test_division_by_zero(self):
        with pytest.raises(oracles.OracleDivisionByZero):
            oracles.oracle_approx_div(1, 0)


class TestScalarOps:
    def test_add_basic(self):
        assert me(fp_add(fp(4, 0), fp(4, 0))) == (4, 1)

    def test_add_zero_is_identity(self):
        # Zero aligns at the other operand's exponent, so no significand is
        # demoted through the approximate quotient: x + 0 = x exactly.
        z = FpNumber.zero(3)
        for m, e in [(5, -6), (-7, 3), (4, -8), (6, 7)]:
            assert fp_add(z, fp(m, e)) == fp(m, e)
            assert fp_add(fp(m, e), z) == fp(m, e)
        assert fp_add(z, z) == z
        assert oracles.oracle_add((0, 0), (5, -6), 3) == (5, -6)

    def test_compare_zero_sign_correct(self):
        z = FpNumber.zero(3)
        assert fp_compare(z, fp(-4, -6)) is Comparison.GREATER
        assert fp_compare(z, fp(4, -6)) is Comparison.LESS
        assert fp_compare(fp(-4, -6), z) is Comparison.LESS
        assert fp_compare(z, z) is Comparison.EQUAL

    def test_mul_basic(self):
        assert me(fp_mul(fp(4, 0), fp(4, 0))) == (4, 2)
        assert me(fp_mul(fp(-4, 0), fp(4, 0))) == (-4, 2)

    def test_mul_overflow(self):
        with pytest.raises(Overflow):
            fp_mul(fp(7, 3), fp(7, 3))  # 3136 needs e=9 >= 2**3

    def test_div_basic(self):
        assert me(fp_div(fp(4, 1), fp(4, 0))) == (4, -1)  # 8/4 = 2

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            fp_div(fp(4, 0), FpNumber.zero(3))

    def test_div_zero_numerator(self):
        assert fp_div(FpNumber.zero(3), fp(5, 2)).is_zero

    def test_compare(self):
        assert fp_compare(fp(5, 0), fp(4, 0)) is Comparison.GREATER
        assert fp_compare(fp(4, 0), fp(5, 0)) is Comparison.LESS
        assert fp_compare(fp(4, 1), fp(4, 1)) is Comparison.EQUAL
        # Same value, different exponents: the rescale is exact.
        assert fp_compare(fp(4, 1), fp(4, 1)) is Comparison.EQUAL
        assert fp_compare(fp(-4, 0), fp(4, 0)) is Comparison.LESS

    def test_floor(self):
        assert me(fp_floor(fp(5, -1))) == (4, -1)  # floor(5/2) = 2
        assert me(fp_floor(fp(5, 1))) == (5, 1)  # already integral
        assert me(fp_floor(fp(-5, -1))) == (-6, -1)  # floor(-5/2) = -3
        assert fp_floor(fp(5, -3)).is_zero  # floor(5/8) = 0

    def test_iter_add_singleton_identity(self):
        x = fp(5, -2)
        assert iter_add([x]) == x
        assert iter_mul([x]) == x

    def test_iter_add_single_rounding(self):
        # Four copies of 4 sum exactly to 16 before the one rounding.
        assert me(iter_add([fp(4, 0)] * 4)) == (4, 2)

    def test_iter_add_not_a_fold(self):
        # 6 + 1/4 + 1/4: exact aggregation gives 6.5 -> rounds to 6 (even),
        # while folding binary adds would round each step.
        xs = [fp(6, 0), fp(4, -4), fp(4, -4)]
        assert me(iter_add(xs)) == (6, 0)

    def test_iter_empty_rejected(self):
        with pytest.raises(ValueError):
            iter_add([])
        with pytest.raises(ValueError):
            iter_mul([])

    def test_mixed_precision_rejected(self):
        with pytest.raises(ValueError):
            fp_add(FpNumber(4, 0, 3), FpNumber(8, 0, 4))


class TestOracleConformance:
    """Exhaustive agreement over every legal p=3 float: 129 values, 16,641
    pairs per two-operand op."""

    VALUES = oracles.legal_floats(3)

    def to_fp(self, t):
        return FpNumber(t[0], t[1], 3)

    def assert_pairs_match(self, op, oracle_op):
        for a in self.VALUES:
            for b in self.VALUES:
                try:
                    want = oracle_op(a, b)
                except oracles.OracleOverflow:
                    with pytest.raises(Overflow):
                        op(self.to_fp(a), self.to_fp(b))
                    continue
                except oracles.OracleDivisionByZero:
                    with pytest.raises(DivisionByZero):
                        op(self.to_fp(a), self.to_fp(b))
                    continue
                assert me(op(self.to_fp(a), self.to_fp(b))) == want, (a, b)

    def test_add_matches_oracle(self):
        self.assert_pairs_match(fp_add, lambda a, b: oracles.oracle_add(a, b, 3))

    def test_compare_matches_oracle(self):
        for a in self.VALUES:
            for b in self.VALUES:
                assert fp_compare(self.to_fp(a), self.to_fp(b)).value == oracles.oracle_compare(a, b)

    def test_mul_matches_oracle(self):
        self.assert_pairs_match(fp_mul, lambda a, b: oracles.oracle_mul(a, b, 3))

    def test_div_matches_oracle(self):
        self.assert_pairs_match(fp_div, lambda a, b: oracles.oracle_div(a, b, 3))

    def test_floor_matches_oracle(self):
        for a in self.VALUES:
            assert me(fp_floor(self.to_fp(a))) == oracles.oracle_floor(a, 3)


class TestWideExponentGap:
    """An exponent gap of p+4 or more decides add and compare without
    aligning the operands: every legal significand pair at each gap from
    p+4 to p+8 that the exponent range holds, placed at both ends of the
    range, in both operand orders."""

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_add_and_compare_match_oracle(self, p):
        lim = 1 << p
        sigs = [s * m for m in range(lim >> 1, lim) for s in (1, -1)]
        gaps = [d for d in range(p + 4, p + 9) if d < 2 * lim]
        assert gaps
        for d in gaps:
            for e_lo in (-lim, lim - 1 - d):
                for m1 in sigs:
                    for m2 in sigs:
                        a, b = (m1, e_lo + d), (m2, e_lo)
                        fa, fb = FpNumber(*a, p), FpNumber(*b, p)
                        assert me(fp_add(fa, fb)) == oracles.oracle_add(a, b, p), (a, b)
                        assert me(fp_add(fb, fa)) == oracles.oracle_add(b, a, p), (b, a)
                        assert fp_compare(fa, fb).value == oracles.oracle_compare(a, b)
                        assert fp_compare(fb, fa).value == oracles.oracle_compare(b, a)

    def test_astronomical_gap_at_high_precision(self):
        """A gap far past any shift the interpreter could build."""
        big, tiny = FpNumber(1 << 63, 0, 64), FpNumber(-(1 << 63), -(1 << 40), 64)
        assert fp_add(big, tiny) == big and fp_add(tiny, big) == big
        assert fp_compare(big, tiny) is Comparison.GREATER
        assert fp_compare(tiny, big) is Comparison.LESS


class TestProperties:
    """Seeded property loops across several precisions."""

    @pytest.mark.parametrize("p", [3, 4, 8])
    def test_closure_and_commutativity(self, p):
        rng = random.Random(100 + p)
        lim = 1 << p
        e_lo, e_hi = -min(lim, 32), min(lim, 32)
        for _ in range(500):
            a = oracles.rand_me(rng, p, e_lo, e_hi)
            b = oracles.rand_me(rng, p, e_lo, e_hi)
            fa, fb = FpNumber(*a, p), FpNumber(*b, p)
            for op in (fp_add, fp_mul):
                try:
                    out = op(fa, fb)
                except Overflow:
                    continue
                # Construction re-validates the normal form (closure).
                FpNumber(out.m, out.e, out.p)
                assert op(fb, fa) == out
            if not fb.is_zero:
                try:
                    out = fp_div(fa, fb)
                except Overflow:
                    continue
                FpNumber(out.m, out.e, out.p)

    @pytest.mark.parametrize("p", [3, 8])
    def test_iter_ops_permutation_invariant(self, p):
        rng = random.Random(200 + p)
        for _ in range(200):
            xs = [
                FpNumber(*oracles.rand_me(rng, p, -6, 6), p)
                for _ in range(rng.randrange(1, 7))
            ]
            ys = xs[:]
            rng.shuffle(ys)
            try:
                assert iter_add(xs) == iter_add(ys)
            except Overflow:
                pass
            try:
                assert iter_mul(xs) == iter_mul(ys)
            except Overflow:
                pass
