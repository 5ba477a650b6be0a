"""Elementary-function tests.

The reference route is mpmath at 256-bit precision (a library the package
itself never imports), converted to exact Fractions so every error
comparison below is exact rational arithmetic — no float slop in the
verdicts.  Error bounds asserted here: exp/sqrt/log within relative 2**-p,
sigmoid/silu/softplus within 4 * 2**-p.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import mpmath
import pytest

from artifact import elementary
from artifact.elementary import (
    NegativeInput,
    NonPositiveInput,
    exp_fp,
    log_fp,
    sigmoid_fp,
    silu_fp,
    softplus_fp,
    sqrt_fp,
)
from artifact.floats import FpNumber, Overflow, round_p

mpmath.mp.prec = 256


def mpf_to_fraction(t) -> Fraction:
    sign, man, exp, _ = t._mpf_
    if man == 0:
        return Fraction(0)
    fr = Fraction(man) * (Fraction(1 << exp) if exp >= 0 else Fraction(1, 1 << -exp))
    return -fr if sign else fr


def mp_of(x: FpNumber):
    fr = x.to_fraction()
    return mpmath.mpf(fr.numerator) / mpmath.mpf(fr.denominator)


def rel_err(got: FpNumber, true) -> Fraction:
    t = mpf_to_fraction(true)
    assert t != 0
    return abs(got.to_fraction() - t) / abs(t)


def rand_float(rng: random.Random, p: int, lo: float, hi: float) -> FpNumber:
    return round_p(Fraction(rng.uniform(lo, hi)).limit_denominator(1 << 30), p)


class TestExp:
    def test_exp_zero_is_one(self):
        for p in (3, 8, 16):
            assert exp_fp(FpNumber.zero(p)).to_fraction() == 1

    def test_overflow_and_underflow_band(self):
        p = 8
        big = round_p(1 << (p + 3), p)
        with pytest.raises(Overflow):
            exp_fp(big)
        assert exp_fp(round_p(-(1 << (p + 3)), p)).is_zero

    def test_known_value(self):
        # e at p=16 (correct rounding checked against the 256-bit route).
        got = exp_fp(round_p(1, 16))
        assert rel_err(got, mpmath.e) <= Fraction(1, 1 << 16)

    @pytest.mark.parametrize("p", [8, 16])
    def test_relative_error_sweep(self, p):
        rng = random.Random(300 + p)
        bound = Fraction(1, 1 << p)
        for _ in range(400):
            x = rand_float(rng, p, -16.0, 16.0)
            assert rel_err(exp_fp(x), mpmath.exp(mp_of(x))) <= bound

    def test_monotone_on_grid(self):
        p = 8
        vals = [exp_fp(round_p(Fraction(k, 8), p)) for k in range(-40, 41)]
        fracs = [v.to_fraction() for v in vals]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))


class TestSqrt:
    def test_domain(self):
        with pytest.raises(NegativeInput):
            sqrt_fp(round_p(-1, 8))
        assert sqrt_fp(FpNumber.zero(8)).is_zero

    def test_perfect_squares_exact(self):
        for p in (3, 8, 16):
            for n in (1, 4, 9, 16, 64):
                assert sqrt_fp(round_p(n, p)).to_fraction() ** 2 == n

    @pytest.mark.parametrize("p", [8, 16])
    def test_relative_error_sweep(self, p):
        rng = random.Random(400 + p)
        bound = Fraction(1, 1 << p)
        for _ in range(400):
            x = rand_float(rng, p, 2.0**-12, 2.0**12)
            if x.m <= 0:
                continue
            assert rel_err(sqrt_fp(x), mpmath.sqrt(mp_of(x))) <= bound

    @pytest.mark.parametrize("p", [8, 12])
    def test_correctly_rounded_exhaustive(self, p):
        """Every p-bit float in [2**-12, 2**12]: ``r`` is the correctly
        rounded root of ``x`` exactly when ``x`` lies strictly between the
        squares of the midpoints next to ``r`` (no square of a midpoint is a
        p-bit float, so there are no ties).  Checked in integers, with the
        midpoints as multiples of ``2**(e_r - 2)``."""
        xs = [(m, b - p + 1) for b in range(-12, 12) for m in range(1 << (p - 1), 1 << p)]
        xs.append((1 << (p - 1), 13 - p))  # 2**12
        for m, e in xs:
            r = sqrt_fp(FpNumber(m, e, p))
            # Below r's binade edge the floats are twice as dense.
            lo = 4 * r.m - (1 if r.m == 1 << (p - 1) else 2)
            hi = 4 * r.m + 2
            s = min(2 * r.e - 4, e)  # compare lo**2 * 2**(2 e_r - 4) with m * 2**e
            scale, x = 2 * r.e - 4 - s, m << (e - s)
            assert lo * lo << scale < x < hi * hi << scale, (m, e)


class TestLog:
    def test_domain(self):
        with pytest.raises(NonPositiveInput):
            log_fp(FpNumber.zero(8))
        with pytest.raises(NonPositiveInput):
            log_fp(round_p(-2, 8))

    def test_log_one_is_zero_both_parities(self):
        # p even and odd exercise both branches of the exponent-parity split.
        for p in (3, 4, 8, 16, 17):
            assert log_fp(round_p(1, p)).is_zero

    @pytest.mark.parametrize("p", [8, 16])
    def test_relative_error_sweep(self, p):
        rng = random.Random(500 + p)
        bound = Fraction(1, 1 << p)
        for _ in range(400):
            x = rand_float(rng, p, 2.0**-12, 2.0**12)
            if x.m <= 0 or x.to_fraction() == 1:
                continue
            assert rel_err(log_fp(x), mpmath.log(mp_of(x))) <= bound

    def test_round_trip_with_exp(self):
        # log(exp(x)) within 8*2^-p of x for 1/4 <= |x| <= 4.  The lower
        # clip is necessary: exp's own rounding injects absolute error on
        # the order of 2^-p, which no later step can undo relative to a
        # vanishing x.
        p = 16
        rng = random.Random(42)
        bound = Fraction(8, 1 << p)
        for _ in range(200):
            mag = rng.uniform(0.25, 4.0)
            x = round_p(Fraction(mag if rng.random() < 0.5 else -mag).limit_denominator(1 << 30), p)
            got = log_fp(exp_fp(x))
            assert abs(got.to_fraction() - x.to_fraction()) <= bound * abs(x.to_fraction())


class TestSigmoidFamily:
    def test_sigmoid_zero_is_half(self):
        for p in (3, 8, 16):
            assert sigmoid_fp(FpNumber.zero(p)).to_fraction() == Fraction(1, 2)

    def test_sigmoid_open_interval(self):
        p = 8
        for v in (-10**6, -300, -40, -1, 1, 40, 300, 10**6):
            out = sigmoid_fp(round_p(v, p))
            assert 0 < out.to_fraction() < 1

    def test_sigmoid_saturates_to_largest_below_one(self):
        p = 8
        out = sigmoid_fp(round_p(100, p))
        assert out.to_fraction() == Fraction((1 << p) - 1, 1 << p)

    def test_silu_zero(self):
        assert silu_fp(FpNumber.zero(8)).is_zero

    def test_softplus_very_negative_matches_exp(self):
        # softplus(-20) ~ exp(-20): the one-pipeline evaluation keeps full
        # relative accuracy where composing rounded float ops would give 0.
        p = 16
        got = softplus_fp(round_p(-20, p))
        assert not got.is_zero
        assert rel_err(got, mpmath.log1p(mpmath.exp(-20))) <= Fraction(4, 1 << p)

    def test_softplus_saturates_positive(self):
        p = 8
        x = round_p(1 << (p + 3), p)
        assert softplus_fp(x) == x

    @pytest.mark.parametrize("p", [16, 32, 64])
    def test_softplus_saturates_without_building_exp(self, p):
        """Up to ``2**(p + 2)``, where ``exp(x)`` is about ``1.44 * x`` bits
        wide, a large positive input returns itself; below the cutoff
        ``2**(bit_length(p) + 1)`` the pipeline still gives ``x``."""
        for x in (FpNumber((1 << p) - 1, 2, p), FpNumber(1 << (p - 1), 29 - (p - 1), p),
                  FpNumber(1 << (p - 1), p.bit_length() + 1 - (p - 1), p),
                  FpNumber((1 << p) - 1, p.bit_length() - (p - 1), p)):
            assert softplus_fp(x) == x

    @pytest.mark.parametrize("p", [8, 16])
    def test_relative_error_sweep(self, p):
        rng = random.Random(600 + p)
        bound = Fraction(4, 1 << p)
        for _ in range(300):
            x = rand_float(rng, p, -20.0, 20.0)
            assert rel_err(sigmoid_fp(x), mpmath.sigmoid(mp_of(x))) <= bound
            assert rel_err(softplus_fp(x), mpmath.log1p(mpmath.exp(mp_of(x)))) <= bound
            if x.m != 0:
                true = mp_of(x) * mpmath.sigmoid(mp_of(x))
                assert rel_err(silu_fp(x), true) <= bound


PIN_PRECISIONS = (5, 8, 12, 16, 24, 53, 64)
PIN_FUNCTIONS = (exp_fp, log_fp, sqrt_fp, sigmoid_fp, silu_fp, softplus_fp)
PIN_LINES = 22_218
PIN_SHA256 = "1a01bb55289af9c8e62ac43e95051bd2363df13dc326abf1e857e68f4da6bc50"


def pinned_inputs():
    """Per precision: 400 random rationals, then k/8 for k = -64..64, all
    drawn from one generator that runs on across precisions."""
    rng = random.Random(11)
    for p in PIN_PRECISIONS:
        xs = [
            round_p(Fraction(rng.randint(-10**4, 10**4),
                             rng.choice([1, 7, 1000, 3**9, 2**20])), p)
            for _ in range(400)
        ]
        xs += [round_p(Fraction(k, 8), p) for k in range(-64, 65)]
        yield p, xs


class TestPinnedOutputs:
    def test_outputs_and_retries_pinned(self, monkeypatch):
        """Every output bit of the six functions on a fixed sweep, through
        each path: special cases, saturation, domain errors and retries."""
        retries = dict.fromkeys((f.__name__ for f in PIN_FUNCTIONS), 0)
        commit = elementary._commit
        current = None

        def counting_commit(*args):
            out = commit(*args)
            if out is None:
                retries[current] += 1
            return out

        monkeypatch.setattr(elementary, "_commit", counting_commit)
        digest = hashlib.sha256()
        lines = 0
        for p, xs in pinned_inputs():
            for x in xs:
                for fn in PIN_FUNCTIONS:
                    current = fn.__name__
                    try:
                        y = fn(x)
                        got = f"{y.m},{y.e}"
                    except (ArithmeticError, ValueError) as exc:
                        got = type(exc).__name__
                    digest.update(f"{p}|{x.m},{x.e}|{fn.__name__}|{got}\n".encode())
                    lines += 1
        assert lines == PIN_LINES
        assert digest.hexdigest() == PIN_SHA256
        # The sweep reaches the retry path of each function that has one
        # in reach (12, 1 and 20 retries when the digest was pinned).
        for name in ("exp_fp", "log_fp", "softplus_fp"):
            assert retries[name] >= 1, retries


class TestSchedule:
    def test_base_log_terms_is_the_smallest_sufficient(self):
        """The smallest n with (1/2)**n / n <= 2**-(2p+8); at p = 6 and 31
        the bound holds with equality."""
        for p in range(1, 129):
            n = elementary._base_log_terms(p)
            assert n * (1 << n) >= 1 << (2 * p + 8)
            assert (n - 1) * (1 << (n - 1)) < 1 << (2 * p + 8)
