"""Differential tests of the p-bit context against the public float API.

``PBitScalars`` computes on plain ``(m, e)`` pairs by calling the integer
kernel of :mod:`artifact.floats` directly, while the public ``fp_*``
functions wrap the same kernel in ``FpNumber`` checks and construction.
Every context op is held to the public op of the same name: exhaustively
over all 129 legal floats at p=3 (and, there, to the enumerative oracle
of ``tests/oracles.py`` as well, so a change to the shared rounding rule
fails here too), and on drawn operands at p = 8 to 64 with exponents at
both ends of the range and exponent gaps around the ``p + 4`` shortcut.
A result must be the same pair, or the same error.  The elementary ops
are drawn across the exponent range, through ``exp`` overflow, the
``log``/``sqrt`` domain errors and ``softplus`` saturation.  Every product
(``fp_mul``, the context's ``mul``, the one inside ``_silu``) is the
kernel op ``floats._mul`` on all encodable pairs at p = 2 to 5.  Last, a p-bit
forward pass is counted: between its input and its output it builds no
``FpNumber`` and calls no public elementary function.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artifact
import oracles
from artifact import elementary, floats
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
from artifact.mamba import ShapeConfig, forward_routes, random_input, random_params
from artifact.matrices import FpMatrix
from artifact.synthesis import BitEncoding

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

    @pytest.mark.parametrize("p", PRECISIONS)
    @SETTINGS
    @given(data=st.data())
    def test_elementary(self, p, data):
        ctx = PBitScalars(p)
        a = data.draw(elementary_operands(p))
        for name, fn in ELEMENTARY.items():
            got = outcome(getattr(ctx, name), a)
            assert got == outcome(public(fn, p), a), name
            if name in MESSAGES and isinstance(got[0], type):
                x = FpNumber(*a, p)
                assert got[1] in (MESSAGES[name].format(x=x, p=p), COMMIT_OVERFLOW.format(p=p))


#: The refusal of each function that names its operand, in the operand's
#: ``FpNumber`` form; ``exp`` may also overflow at the final rounding.
MESSAGES = {
    "exp": "exp of {x} exceeds the exponent range at p={p}",
    "sqrt": "sqrt of negative float {x}",
    "log": "log of non-positive float {x}",
}
COMMIT_OVERFLOW = "result exceeds the exponent range at p={p}"


@st.composite
def elementary_operands(draw, p: int):
    """One operand ``(m, e)`` of either sign, or zero: its binade
    ``floor(log2 |x|)`` lies within ``p + 8`` of zero, where the functions
    evaluate, straddles the ``exp`` overflow and ``softplus`` saturation
    cut-offs, or sits at either end of the exponent range."""
    lim = 1 << p
    if not draw(st.integers(0, 11)):
        return 0, 0
    m = draw(st.integers(lim >> 1, lim - 1))
    binade = draw(
        st.integers(-p - 8, p + 8)
        | st.sampled_from([p.bit_length() + d for d in (0, 1, 2)] + [p + d for d in (1, 2, 3)])
        | st.integers(-lim + p - 1, -lim + 2 * p)
        | st.integers(lim - p - 8, lim - 1)
    )
    e = min(max(binade - (p - 1), -lim), lim - 1)
    return (m if draw(st.booleans()) else -m), e


class TestOneProduct:
    """``fp_mul``, ``PBitScalars.mul`` and the product inside ``_silu`` are
    ``floats._mul``: the same pair, or the same error, on every ordered
    pair of values the synthesized circuits encode at p = 2 to 5 (window
    ``p``), whose products reach past the top of the exponent range."""

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_every_product_is_the_kernel_op(self, p, monkeypatch):
        numbers = BitEncoding(p, p).enumerate_values()
        pairs = [(x.m, x.e) for x in numbers]
        mul = PBitScalars(p).mul

        def product(x, y):
            r = fp_mul(x, y)
            return r.m, r.e

        # ``_silu`` multiplies its operand by its ``_sigmoid``: here, by ``b``.
        sigmoids = []
        monkeypatch.setattr(elementary, "_sigmoid", lambda a, p: sigmoids.pop())
        overflows = 0
        for a, x in zip(pairs, numbers):
            want = [outcome(floats._mul, a, b, p) for b in pairs]
            assert [outcome(product, x, y) for y in numbers] == want, a
            assert [outcome(mul, a, b) for b in pairs] == want, a
            sigmoids[:] = reversed(pairs)
            assert [outcome(elementary._silu, a, p) for _ in pairs] == want, a
            overflows += sum(isinstance(w[0], type) for w in want)
        assert overflows


class TestRouteBuildsNoFpNumber:
    """A p-bit forward pass holds ``(m, e)`` pairs from its input to its
    output: between those ends no public elementary function runs and no
    ``FpNumber`` is built."""

    NAMES = ("exp_fp", "log_fp", "sqrt_fp", "sigmoid_fp", "silu_fp", "softplus_fp")

    def test_forward_routes(self, monkeypatch):
        shape = ShapeConfig(4, 2, 3, 2, 2)
        params = random_params(shape, 0)
        x = FpMatrix.from_fractions(random_input(shape, 0), "pbit", 16)
        calls = dict.fromkeys(("_normal",) + self.NAMES, 0)
        originals = {"_normal": floats._normal}
        originals.update((name, getattr(elementary, name)) for name in self.NAMES)
        modules = [importlib.import_module(f"artifact.{info.name}")
                   for info in pkgutil.iter_modules(artifact.__path__)]
        for name, fn in originals.items():
            def counted(*args, _name=name, _fn=fn):
                calls[_name] += 1
                return _fn(*args)

            for module in modules:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted)
        ys = forward_routes(shape, params, x, ("recurrent", "convolution"))
        assert len(ys) == 2
        assert calls == dict.fromkeys(calls, 0) | {"_normal": 2 * shape.seq_len * shape.d_model}
