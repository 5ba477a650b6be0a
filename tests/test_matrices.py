"""Matrix layer: construction, products, JSON round trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from artifact.floats import FpNumber, round_p
from artifact.matrices import FpMatrix, ShapeMismatch, hadamard, matmul, max_rel_gap


def rand_exact(rng: random.Random, r: int, c: int) -> FpMatrix:
    return FpMatrix.exact(
        [[Fraction(rng.randrange(-20, 20), rng.randrange(1, 9)) for _ in range(c)] for _ in range(r)]
    )


class TestConstruction:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            FpMatrix(1, 1, "decimal", None, ((Fraction(1),),))
        with pytest.raises(ValueError):
            FpMatrix(1, 1, "pbit", None, ((round_p(1, 8),),))
        with pytest.raises(ValueError):
            FpMatrix(1, 1, "exact", 8, ((Fraction(1),),))

    def test_precision_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FpMatrix.pbit([[round_p(1, 8), round_p(1, 16)]], 8)

    def test_from_fractions_rounds(self):
        m = FpMatrix.from_fractions([[Fraction(1, 3)]], "pbit", 8)
        assert m.entry(0, 0) == round_p(Fraction(1, 3), 8)


class TestProducts:
    def test_matmul_single_rounding_per_entry(self):
        p = 3
        # 6*1 + 1/4 + 1/4: a fold of binary adds would round midway; one
        # exact aggregation rounds 6.5 to the even significand 6.
        a = FpMatrix.pbit([[FpNumber(6, 0, p), FpNumber(4, -4, p), FpNumber(4, -4, p)]], p)
        b = FpMatrix.pbit([[FpNumber(4, -2, p)]] * 3, p)
        out = matmul(a, b)
        assert out.entry(0, 0) == FpNumber(6, 0, p)

    def test_matmul_exact_is_rational(self):
        rng = random.Random(1)
        a, b = rand_exact(rng, 2, 3), rand_exact(rng, 3, 2)
        out = matmul(a, b)
        assert out.entry(0, 0) == sum(
            a.entry(0, k) * b.entry(k, 0) for k in range(3)
        )

    def test_matmul_exact_associative(self):
        rng = random.Random(2)
        a, b, c = rand_exact(rng, 2, 3), rand_exact(rng, 3, 4), rand_exact(rng, 4, 2)
        lhs = matmul(matmul(a, b), c)
        rhs = matmul(a, matmul(b, c))
        assert lhs.data == rhs.data

    def test_shape_errors(self):
        rng = random.Random(3)
        with pytest.raises(ShapeMismatch):
            matmul(rand_exact(rng, 2, 3), rand_exact(rng, 2, 3))
        with pytest.raises(ShapeMismatch):
            hadamard(rand_exact(rng, 2, 3), rand_exact(rng, 3, 2))

    def test_hadamard(self):
        rng = random.Random(4)
        a, b = rand_exact(rng, 2, 2), rand_exact(rng, 2, 2)
        out = hadamard(a, b)
        assert out.entry(1, 1) == a.entry(1, 1) * b.entry(1, 1)


class TestJsonAndGap:
    def test_max_rel_gap(self):
        a = FpMatrix.exact([[Fraction(1), Fraction(0)]])
        b = FpMatrix.exact([[Fraction(9, 8), Fraction(0)]])
        assert max_rel_gap(a, b) == Fraction(1, 9)
