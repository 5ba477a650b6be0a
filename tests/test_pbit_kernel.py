"""Differential tests of the p-bit context against the public float API.

``PBitScalars`` computes on plain ``(m, e)`` pairs by calling the integer
kernel of :mod:`artifact.floats` directly, while the public ``fp_*``
functions wrap the same kernel in ``FpNumber`` checks and construction.
Every context op is held to the public op of the same name: exhaustively
over all 129 legal floats at p=3 (and, there, to the enumerative oracle
of ``tests/oracles.py`` as well, so a change to the shared rounding rule
fails here too), and on drawn operands at p = 8 to 64 with exponents at
both ends of the range and exponent gaps around the ``p + 4`` shortcut.
A result must be the same pair, or the same error.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from artifact.contexts import PBitScalars
from artifact.elementary import exp_fp, log_fp, sigmoid_fp, silu_fp, softplus_fp, sqrt_fp
from artifact.floats import (
    DivisionByZero,
    FpNumber,
    Overflow,
    fp_add,
    fp_div,
    fp_floor,
    fp_mul,
    iter_add,
    iter_mul,
)

SETTINGS = settings(max_examples=80, derandomize=True, database=None, deadline=None)
P3 = oracles.legal_floats(3)

#: Context op name -> (public op on FpNumber, oracle op on pairs and p).
BINARY = {
    "add": (fp_add, oracles.oracle_add),
    "mul": (fp_mul, oracles.oracle_mul),
    "div": (fp_div, oracles.oracle_div),
}
FAMILY = {
    "iter_add": (iter_add, oracles.oracle_iter_add),
    "iter_mul": (iter_mul, oracles.oracle_iter_mul),
}
ELEMENTARY = {"exp": exp_fp, "log": log_fp, "sqrt": sqrt_fp, "sigmoid": sigmoid_fp,
              "silu": silu_fp, "softplus": softplus_fp}


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def error_type(fn, *args):
    """The result, or the type of the error raised; oracle errors are
    named by the error the package raises for them."""
    try:
        return fn(*args)
    except (Overflow, oracles.OracleOverflow):
        return Overflow
    except (DivisionByZero, oracles.OracleDivisionByZero):
        return DivisionByZero


def public(fn, p: int):
    """``fn`` on the FpNumbers of pairs (one family argument, or each
    argument a pair), returning the result's pair."""

    def run(*args):
        if isinstance(args[0], list):
            r = fn([FpNumber(*x, p) for x in args[0]])
        else:
            r = fn(*[FpNumber(*x, p) for x in args])
        return r.m, r.e

    return run


class TestExhaustiveP3:
    """All 16,641 ordered pairs of legal p=3 floats per binary op."""

    ctx = PBitScalars(3)

    @pytest.mark.parametrize("name", sorted(BINARY))
    def test_binary_ops(self, name):
        op = getattr(self.ctx, name)
        fp_op, oracle_op = BINARY[name]
        for a in P3:
            for b in P3:
                got = outcome(op, a, b)
                assert got == outcome(public(fp_op, 3), a, b), (a, b)
                assert error_type(op, a, b) == error_type(oracle_op, a, b, 3), (a, b)

    def test_const_mul_and_floor(self):
        for a in P3:
            assert self.ctx.floor(a) == public(fp_floor, 3)(a) == oracles.oracle_floor(a, 3)
            for b in P3:
                assert outcome(self.ctx.const_mul, a, b) == outcome(public(fp_mul, 3), a, b)

    @pytest.mark.parametrize("name", sorted(FAMILY))
    def test_singletons_and_pairs_with_zeros(self, name):
        op = getattr(self.ctx, name)
        fp_op, oracle_op = FAMILY[name]
        families = [[a] for a in P3] + [[a, b] for a in P3 for b in P3]
        families += [[(0, 0), a, (0, 0)] for a in P3] + [[(0, 0)] * 3]
        for xs in families:
            got = outcome(op, xs)
            assert got == outcome(public(fp_op, 3), xs), xs
            assert error_type(op, xs) == error_type(oracle_op, xs, 3), xs

    def test_empty_families_raise_as_public(self):
        for name, (fp_op, _) in FAMILY.items():
            assert outcome(getattr(self.ctx, name), []) == outcome(fp_op, [])

    @pytest.mark.parametrize("name", sorted(ELEMENTARY))
    def test_elementary(self, name):
        op = getattr(self.ctx, name)
        for a in P3:
            assert outcome(op, a) == outcome(public(ELEMENTARY[name], 3), a), a


@st.composite
def exponents(draw, p: int):
    """An exponent at the bottom, middle or top of the range at ``p``."""
    lim = 1 << p
    where = draw(st.sampled_from(["low", "mid", "high"]))
    step = draw(st.integers(0, 2 * p + 8))
    return {"low": -lim + step, "mid": step - p - 4, "high": lim - 1 - step}[where]


@st.composite
def operands(draw, p: int, size: int):
    """``size`` operands ``(m, e)``, in drawn order, whose exponents lie
    ``p + 3``, ``p + 4`` or ``p + 5`` (or a little) away from one drawn
    exponent; one in eight is zero."""
    lim = 1 << p
    e1 = draw(exponents(p))
    out = []
    for _ in range(size):
        if not draw(st.integers(0, 7)):
            out.append((0, 0))
            continue
        m = draw(st.integers(lim >> 1, lim - 1))
        gap = draw(st.sampled_from([p + 3, p + 4, p + 5]) | st.integers(0, 3))
        e = e1 - gap if e1 - gap >= -lim else e1 + gap
        out.append((m if draw(st.booleans()) else -m, e1 if draw(st.booleans()) else e))
    return out


PRECISIONS = [8, 16, 24, 53, 64]


class TestDrawnOperands:
    @pytest.mark.parametrize("p", PRECISIONS)
    @SETTINGS
    @given(data=st.data())
    def test_binary_ops_and_floor(self, p, data):
        ctx = PBitScalars(p)
        a, b = data.draw(operands(p, 2))
        for name, (fp_op, _) in BINARY.items():
            assert outcome(getattr(ctx, name), a, b) == outcome(public(fp_op, p), a, b), name
        for x in (a, b):
            assert outcome(ctx.floor, x) == outcome(public(fp_floor, p), x)

    @pytest.mark.parametrize("p", PRECISIONS)
    @SETTINGS
    @given(data=st.data())
    def test_families(self, p, data):
        ctx = PBitScalars(p)
        xs = data.draw(operands(p, data.draw(st.integers(1, 8))))
        for name, (fp_op, _) in FAMILY.items():
            assert outcome(getattr(ctx, name), xs) == outcome(public(fp_op, p), xs), name
