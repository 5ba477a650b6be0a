"""Op-level oracle for the exact context.

Every :class:`ExactScalars` op on dyadic triples ``(n, k, d)``, standing
for ``n * 2**k / d`` with ``d`` odd and positive, is checked against the
same op on ``Fraction`` values.  Operands are drawn unreduced and of
either sign, as ``mul`` and ``add`` leave them, with exponents near zero
and past ``+-2**16``; the leaves, the aggregations, ``floor`` and
``reinject`` must return the canonical triple, and the elementary
functions must equal ``round_p`` of the ``Fraction`` fed to the p-bit
function.  A differential check runs the whole forward pass under a
``Fraction`` context as well.
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
from artifact.mamba import (
    ShapeConfig,
    mamba_forward,
    random_input,
    random_params,
    wrap_params,
    wrap_values,
)

F = Fraction
SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)

@st.composite
def far_exponents(draw):
    """An exponent near zero, or one time in four past ``+-2**16``, so that
    two operands can lie more than ``2**17`` binades apart."""
    k = draw(st.integers(-80, 80))
    if draw(st.integers(0, 3)):
        return k
    far = (1 << 16) + draw(st.integers(0, 999))
    return far if k >= 0 else -far


@st.composite
def triples(draw, bits: int = 40, odd_parts=None, exponents=far_exponents()):
    """A triple ``(n, k, d)`` with ``d`` odd and positive, often not in
    lowest terms: ``n`` and ``d`` share an odd factor, and ``n`` carries
    trailing zero bits that ``k`` gives back."""
    n = draw(st.integers(-(1 << bits), 1 << bits))
    if odd_parts is None:
        d = 2 * draw(st.integers(0, 1 << (bits - 1))) + 1
    else:
        d = draw(st.sampled_from(odd_parts))
    c = draw(st.sampled_from([1, 1, 3, 15, 3**15]))
    j = draw(st.sampled_from([0, 0, 1, 5, 20]))
    return (n * c) << j, draw(exponents) - j, d * c


def oracle_value(v) -> Fraction:
    """``n * 2**k / d`` computed on ``Fraction`` values."""
    n, k, d = v
    return F(n, d) * F(2) ** k


def oracle_triple(q: Fraction):
    """The canonical triple of ``q``, found by stripping zero digits off
    the binary numerals of its numerator and denominator."""
    if not q:
        return 0, 0, 1
    num, den = bin(q.numerator), bin(q.denominator)
    zn = len(num) - len(num.rstrip("0"))
    zd = len(den) - len(den.rstrip("0"))
    return q.numerator >> zn, zn - zd, q.denominator >> zd


def canonical(v) -> bool:
    n, k, d = v
    return (all(type(x) is int for x in v) and d > 0 and d % 2 == 1
            and (n % 2 == 1 or v == (0, 0, 1)) and math.gcd(n, d) == 1)


def me(x: FpNumber) -> tuple[int, int]:
    """The ``(m, e)`` pair of a p-bit float, as ``PBitScalars`` holds it."""
    return x.m, x.e


def value(v) -> Fraction:
    """The value of a result, which must keep ``d`` odd and positive."""
    assert v[2] > 0 and v[2] % 2 == 1, v
    q = exact_value(v)
    assert q == oracle_value(v)
    return q


ctx = ExactScalars()


class TestLeaves:
    @SETTINGS
    @given(triples())
    def test_input_and_const_are_canonical(self, v):
        q = oracle_value(v)
        for leaf in (ctx.input, ctx.const):
            assert leaf(q) == oracle_triple(q)
            assert canonical(leaf(q)) and exact_value(leaf(q)) == q

    def test_input_takes_int(self):
        assert ctx.input(-3) == (-3, 0, 1)
        assert ctx.input(-12) == (-3, 2, 1)
        assert ctx.input(0) == (0, 0, 1)
        assert ctx.input(F(3, 40)) == (3, -3, 5)


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
            want = self.outcome(lambda v: me(round_p(F(v), p)), q)
            for leaf in (new.input, new.const):
                assert self.outcome(leaf, q) == want, q

    def test_exact_matches_fraction_copy(self):
        for q in self.VALUES + self.REFUSED:
            want = self.outcome(lambda v: oracle_triple(F(v)), q)
            for leaf in (ctx.input, ctx.const):
                assert self.outcome(leaf, q) == want, q

    def test_int_and_fraction_are_not_copied(self, monkeypatch):
        import artifact.contexts as contexts

        def no_copy(q):
            raise AssertionError(f"Fraction({q!r}) built")

        monkeypatch.setattr(contexts, "Fraction", no_copy)
        for q in (5, -(1 << 80), F(3, 4), F(-7, 1 << 30)):
            assert ctx.input(q) == oracle_triple(F(q))
            assert PBitScalars(16).input(q) == me(round_p(F(q), 16))
        with pytest.raises(AssertionError, match="built"):
            ctx.input("3/4")


class TestArithmetic:
    @SETTINGS
    @given(triples(), triples())
    def test_add_mul_div(self, a, b):
        qa, qb = oracle_value(a), oracle_value(b)
        assert value(ctx.add(a, b)) == qa + qb
        assert value(ctx.mul(a, b)) == qa * qb
        assert value(ctx.const_mul(a, b)) == qa * qb
        if b[0]:
            assert value(ctx.div(a, b)) == qa / qb
        else:
            with pytest.raises(DivisionByZero):
                ctx.div(a, b)

    @pytest.mark.parametrize("a, b", [
        ((3, -2, 1), (5, -2, 1)), ((6, -3, 1), (-3, -3, 1)), ((1, -1, 3), (1, -1, 5)),
        ((-2, -2, 3), (9, -1, 9)), ((0, 0, 1), (0, 7, 7)), ((7, 0, 1), (-7, 0, 1)),
        ((1, -(1 << 17), 1), (1, 1 << 17, 3)), ((5, 1 << 17, 3), (-7, 3, 3)),
        ((0, 1 << 20, 1), (3, -(1 << 20), 5)),
    ])
    def test_add_shared_and_mixed_denominators(self, a, b):
        assert value(ctx.add(a, b)) == oracle_value(a) + oracle_value(b)
        assert value(ctx.add(b, a)) == oracle_value(a) + oracle_value(b)

    @pytest.mark.parametrize("b", [(12, 0, 5), (-12, 0, 5), (-40, -(1 << 17), 3),
                                   (1 << 70, 3, 1), (-(3 << 9), 1 << 17, 15)])
    def test_div_by_even_numerators(self, b):
        a = (7, -5, 9)
        got = ctx.div(a, b)
        assert value(got) == oracle_value(a) / oracle_value(b)

    @pytest.mark.parametrize("zero", [(0, 0, 1), (0, 5, 9), (0, -(1 << 17), 3)])
    def test_div_by_unreduced_zero_raises(self, zero):
        with pytest.raises(DivisionByZero):
            ctx.div((3, -1, 1), zero)

    @SETTINGS
    @given(triples(bits=12, exponents=st.integers(-80, 80)))
    def test_floor(self, a):
        got = ctx.floor(a)
        assert canonical(got) and value(got) == math.floor(oracle_value(a))

    @pytest.mark.parametrize("a", [(-3, -1, 1), (3, -1, 1), (7, -70, 3), (-7, -70, 3),
                                   (-(5 << 20), -(1 << 16) - 20, 5), (9, -(1 << 17), 1),
                                   (-9, -(1 << 17), 1), (45, -2, 15), (-1, -3, 3)])
    def test_floor_at_negative_exponents(self, a):
        got = ctx.floor(a)
        assert canonical(got) and value(got) == math.floor(oracle_value(a))


class TestAggregations:
    @SETTINGS
    @given(st.lists(triples(bits=24), max_size=8))
    def test_iter_add_and_iter_mul(self, xs):
        total = ctx.iter_add(xs)
        product = ctx.iter_mul(xs)
        assert canonical(total) and value(total) == sum(map(oracle_value, xs), F(0))
        assert canonical(product) and value(product) == math.prod(map(oracle_value, xs))

    @SETTINGS
    @given(st.lists(triples(bits=16, odd_parts=[1, 3, 5, 7, 9, 15, 21, 45]), max_size=12))
    def test_iter_add_mixed_odd_parts(self, xs):
        total = ctx.iter_add(xs)
        assert canonical(total) and value(total) == sum(map(oracle_value, xs), F(0))

    def test_empty_families(self):
        assert ctx.iter_add([]) == (0, 0, 1)
        assert ctx.iter_mul([]) == (1, 0, 1)

    def test_iter_add_mixed_denominators_reduces(self):
        # 1/6 + 1/10 + 1/15 - 1/3 + 2/3 + 0 = 2/3
        xs = [(1, -1, 3), (1, -1, 5), (2, -1, 15), (-4, -2, 3), (6, 0, 9), (0, 5, 7)]
        assert ctx.iter_add(xs) == (1, 1, 3)
        assert ctx.iter_add([(3, -1, 3), (-6, -2, 3)]) == (0, 0, 1)
        # A zero far above the others does not set the common exponent.
        assert ctx.iter_add([(0, 1 << 20, 1), (3, -(1 << 17), 1)]) == (3, -(1 << 17), 1)

    @SETTINGS
    @given(triples())
    def test_reinject_reduces(self, a):
        got = ctx.reinject(a)
        assert canonical(got) and value(got) == oracle_value(a)


class TestGuardSmall:
    """``ExactScalars.guard_small`` is ``|a| < 2**-(EXACT_REF_P // 2)``.  The
    rule is checked at the shipped constant and, set in place, at a few
    others, odd ones included."""

    @pytest.mark.parametrize("precision", [2, 15, 16, EXACT_REF_P])
    @pytest.mark.parametrize("k", [1, 3, 1 << 40])
    def test_threshold_is_exclusive(self, precision, k, monkeypatch):
        """With ``k = odd * 2**j``, ``(+-k << shift, -h - j - shift, odd)``
        is the threshold ``2**-h`` itself, unreduced, at an exponent past
        ``-2**17`` for the large shift; one unit in the last place of ``n``
        either side of it decides the comparison."""
        monkeypatch.setattr(contexts, "EXACT_REF_P", precision)
        c = ExactScalars()
        h = precision // 2
        j = (k & -k).bit_length() - 1
        odd = k >> j
        for shift in (0, 1 << 17):
            e = -h - j - shift
            for sign in (1, -1):
                at = (sign * k << shift, e, odd)
                assert oracle_value(at) == sign * F(1, 1 << h)
                assert not c.guard_small(at)
                assert c.guard_small((sign * ((k << (shift + 1)) - 1), e - 1, odd))
                assert not c.guard_small((sign * ((k << (shift + 1)) + 1), e - 1, odd))
        assert c.guard_small((0, 0, 1)) and c.guard_small((0, 1 << 20, 7))

    @pytest.mark.parametrize("a, small", [((1, 1 << 17, 1), False), ((-1, -(1 << 17), 1), True),
                                          ((1 << 200, -(1 << 17), 3), True),
                                          ((1, -40, (1 << 100) + 1), True),
                                          ((-((1 << 100) + 1), -132, 1), False)])
    def test_far_exponents(self, a, small):
        assert ExactScalars().guard_small(a) == small
        assert small == (abs(oracle_value(a)) < F(1, 1 << (EXACT_REF_P // 2)))

    @SETTINGS
    @given(triples(bits=48))
    def test_matches_fraction(self, a):
        threshold = F(1, 1 << (EXACT_REF_P // 2))
        assert ExactScalars().guard_small(a) == (abs(oracle_value(a)) < threshold)


class TestPBitGuardSmall:
    """``PBitScalars.guard_small`` is ``|a| < 2**-(p // 2)``."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_matches_fraction_on_every_legal_float(self, p):
        c = PBitScalars(p)
        threshold = F(1, 1 << (p // 2))
        for m, e in oracles.legal_floats(p):
            want = abs(oracles.value((m, e))) < threshold
            assert c.guard_small((m, e)) == want, (m, e)

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
            assert c.guard_small((sign * below.m, below.e))
            assert not c.guard_small((sign * at.m, at.e))
            assert not c.guard_small((sign * above.m, above.e))
        assert c.guard_small((0, 0))

    def test_extreme_exponents_at_p64(self):
        """Exponents near +-2**64 are decided without building ``2**e``."""
        c = PBitScalars(64)
        assert c.guard_small((-(1 << 63), -(1 << 64)))
        assert not c.guard_small((1 << 63, (1 << 64) - 1))


class TestPBitConstMul:
    """A parameter-parameter product is ``mul`` itself, so a counter that
    wraps each public method counts it once."""

    def test_is_an_alias_of_mul(self):
        assert PBitScalars.const_mul is PBitScalars.mul


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
    @given(triples(bits=10))
    def test_equals_round_p_of_the_fraction(self, name, a):
        """The result ``<m, e>`` of the p-bit function comes back as
        ``(m, e, 1)``; past the exact route's bound it raises instead."""
        c = ExactScalars()
        fn = _ELEMENTARY[name]
        try:
            want = fn(round_p(oracle_value(a), EXACT_REF_P))
        except (ArithmeticError, ValueError) as exc:  # Overflow, NegativeInput, ...
            with pytest.raises(type(exc)):
                getattr(c, name)(a)
            return
        if abs(want.e) > EXACT_EXP_BOUND:
            with pytest.raises(ExactDomainError):
                getattr(c, name)(a)
            return
        assert getattr(c, name)(a) == (want.m, want.e, 1)


class TestExactDomain:
    """The exact route's domain: an elementary result whose exponent is
    past ``EXACT_EXP_BOUND`` in magnitude raises ``ExactDomainError``,
    naming the op and the exponent."""

    def test_bound_is_inclusive_on_both_sides(self):
        c = ExactScalars()  # EXACT_REF_P = 64: a power of two is 2**63 * 2**e
        top = EXACT_EXP_BOUND + 63
        # The operand's power of two as the exponent k, and moved into n.
        for shift in (0, 2 * top):
            assert c.sqrt((1 << shift, 2 * top - shift, 1)) == (1 << 63, EXACT_EXP_BOUND, 1)
            with pytest.raises(ExactDomainError,
                               match=f"sqrt result has exponent {EXACT_EXP_BOUND + 1},"):
                c.sqrt((1 << shift, 2 * top + 2 - shift, 1))
        low = EXACT_EXP_BOUND - 63
        assert value(c.sqrt((1, -2 * low, 1))) == F(1, 1 << low)
        with pytest.raises(ExactDomainError, match=f"sqrt result has exponent -{EXACT_EXP_BOUND + 1},"):
            c.sqrt((1, -2 * low - 2, 1))

    @pytest.mark.parametrize(
        "name,a",
        [("exp", (10**6, 0, 1)), ("exp", (-(10**6), 0, 1)), ("softplus", (-(10**6), 0, 1)),
         ("sigmoid", (-(10**6), 0, 1)), ("silu", (-(10**308), 0, 1)),
         ("sigmoid", (-(10**308), 0, 1)), ("exp", (-15625, 6, 1))],
    )
    def test_large_magnitudes_raise(self, name, a):
        with pytest.raises(ExactDomainError, match=f"^exact {name} result has exponent -?[0-9]+,"):
            getattr(ExactScalars(), name)(a)


def _reference_elementary(name: str, q: Fraction) -> Fraction:
    """An exact-route elementary result, computed from the ``Fraction``."""
    y = _ELEMENTARY[name](round_p(q, EXACT_REF_P))
    if abs(y.e) > EXACT_EXP_BOUND:
        raise ExactDomainError(f"exact {name} result has exponent {y.e}")
    return y.to_fraction()


class TestForwardDifferential:
    """The whole forward pass, both forms, under ``ExactScalars`` and under
    a context on plain ``Fraction`` values: every output is the same
    rational."""

    @pytest.mark.parametrize("positive", [False, True], ids=["signed", "positive"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dims", [(4, 2, 2, 2, 3), (6, 3, 4, 2, 2), (8, 4, 8, 4, 4)])
    def test_outputs_equal_fraction_route(self, dims, seed, positive):
        shape = ShapeConfig(*dims)
        params = random_params(shape, seed, positive=positive)
        x = random_input(shape, seed + 1)
        forms = ("recurrent", "convolution")
        oracle = oracles.FractionScalars(_reference_elementary, F(1, 1 << (EXACT_REF_P // 2)))
        want = mamba_forward(oracle, wrap_params(oracle, params), wrap_values(oracle, x), forms)
        got = mamba_forward(ctx, wrap_params(ctx, params), wrap_values(ctx, x), forms)
        assert [[[exact_value(v) for v in row] for row in y] for y in got] == want
