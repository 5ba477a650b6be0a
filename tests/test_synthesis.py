"""Tests for gate-level synthesis of the float primitives: encoding,
exhaustive conformance against the software ops, and the structural
depth/size guarantees."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from artifact.circuits import evaluate, parse_netlist, serialize_netlist
from artifact.floats import FpNumber, fp_add, fp_compare, fp_mul, iter_add
from artifact.synthesis import (
    BitEncoding,
    UnsupportedPrecision,
    check_op,
    synth_primitive,
)

from oracles import polyfit_max_rel_residual


def random_value(rng: random.Random, enc: BitEncoding, zero_rate: float = 0.1) -> FpNumber:
    """A random encodable value, zeros included with the given rate."""
    if rng.random() < zero_rate:
        return FpNumber.zero(enc.p)
    m = rng.randrange(1 << (enc.p - 1), 1 << enc.p) * rng.choice((1, -1))
    return FpNumber(m, rng.randint(enc.e_min, enc.e_max), enc.p)


class TestBitEncoding:
    """The fixed-width two's-complement layout of p-bit floats."""

    def test_enumeration_count(self):
        """p=3 with a [-4, 4) window: zero plus 2*4*8 normalized values."""
        enc = BitEncoding(3, 3)
        values = enc.enumerate_values()
        assert len(values) == 65
        assert len(set(values)) == 65
        assert FpNumber.zero(3) in values

    def test_round_trip_all_values(self):
        enc = BitEncoding(3, 3)
        for x in enc.enumerate_values():
            bits = enc.encode(x)
            assert len(bits) == enc.width == 7
            assert enc.decode(bits) == x

    def test_zero_encodes_all_clear(self):
        enc = BitEncoding(3, 3)
        assert enc.encode(FpNumber.zero(3)) == (0,) * 7

    def test_decode_rejects_noncanonical_zero(self):
        enc = BitEncoding(3, 3)
        with pytest.raises(ValueError):
            enc.decode((0, 0, 0, 0, 1, 0, 0))  # m == 0 but e == 1

    def test_decode_rejects_denormal_significand(self):
        enc = BitEncoding(3, 3)
        with pytest.raises(ValueError):
            enc.decode((1, 0, 0, 0, 0, 0, 0))  # m == 1 < 2**(p-1)

    def test_encode_rejects_out_of_window_exponent(self):
        enc = BitEncoding(3, 2)
        with pytest.raises(ValueError):
            enc.encode(FpNumber(4, 3, 3))


class TestParameterValidation:
    """Synthesis bounds: precision, window, and operand count."""

    def test_precision_cap(self):
        with pytest.raises(UnsupportedPrecision):
            synth_primitive("add", 7)
        with pytest.raises(UnsupportedPrecision):
            synth_primitive("compare", 1)

    def test_rounding_ops_require_narrow_window(self):
        with pytest.raises(UnsupportedPrecision):
            synth_primitive("add", 3, exp_bits=4)
        with pytest.raises(UnsupportedPrecision):
            synth_primitive("mul", 3, exp_bits=5)

    def test_compare_allows_wide_window(self):
        op = synth_primitive("compare", 3, exp_bits=5)
        assert op.circuit.n_inputs == 2 * (4 + 5)

    def test_iter_add_operand_bounds(self):
        with pytest.raises(UnsupportedPrecision):
            synth_primitive("iter_add", 3, m=1)
        with pytest.raises(UnsupportedPrecision):
            synth_primitive("iter_add", 3, m=65)
        with pytest.raises(UnsupportedPrecision):
            synth_primitive("iter_add", 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_primitive("div", 3)

    def test_operand_count_only_for_iter_add(self):
        with pytest.raises(ValueError):
            synth_primitive("add", 3, m=4)


class TestCompareCircuit:
    """The comparator against fp_compare, exhaustively."""

    def test_exhaustive_p3(self):
        """All 65*65 encodable pairs agree with the software comparison."""
        report = check_op(synth_primitive("compare", 3))
        assert report["cases"] == 65 * 65
        assert report["ok"], report["mismatches"][:3]

    def test_exhaustive_p2(self):
        report = check_op(synth_primitive("compare", 2))
        assert report["ok"], report["mismatches"][:3]

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_exhaustive_window_one(self, p):
        """A one-bit window has no biased shift at all, only the pad."""
        report = check_op(synth_primitive("compare", p, exp_bits=1))
        assert report["cases"] == (1 + 2**p * 2) ** 2
        assert report["ok"], report["mismatches"][:3]

    def test_verdict_encoding(self):
        """(lt, gt) bits: less=10, greater=01, equal=00."""
        op = synth_primitive("compare", 3)
        a = FpNumber(4, 0, 3)
        b = FpNumber(5, 0, 3)
        assert evaluate(op.circuit, op.encode_inputs([a, b])) == (1, 0)
        assert evaluate(op.circuit, op.encode_inputs([b, a])) == (0, 1)
        assert evaluate(op.circuit, op.encode_inputs([a, a])) == (0, 0)

    def test_zero_against_tiny_is_sign_correct(self):
        """Zero aligns at the other operand's exponent, so sign decides."""
        op = synth_primitive("compare", 3)
        zero = FpNumber.zero(3)
        tiny = FpNumber(4, -4, 3)
        assert evaluate(op.circuit, op.encode_inputs([zero, tiny])) == (1, 0)
        assert evaluate(op.circuit, op.encode_inputs([tiny, zero])) == (0, 1)

    def test_depth_independent_of_window_width(self):
        """Wider exponent windows widen fan-ins, not the critical path."""
        depths = {
            w: synth_primitive("compare", 3, exp_bits=w).circuit.depth
            for w in (1, 2, 3, 5)
        }
        assert len(set(depths.values())) == 1, depths


class TestAddCircuit:
    """The adder against fp_add, exhaustively."""

    def test_exhaustive_p3(self):
        """All 4225 encodable pairs: same value, flag clear (in-window
        addition can never overflow)."""
        report = check_op(synth_primitive("add", 3))
        assert report["cases"] == 65 * 65
        assert report["ok"], report["mismatches"][:3]

    def test_exhaustive_p2(self):
        report = check_op(synth_primitive("add", 2))
        assert report["ok"], report["mismatches"][:3]

    def test_zero_is_identity(self):
        """The synthesized adder honours the zero-alignment rule."""
        op = synth_primitive("add", 3)
        zero = FpNumber.zero(3)
        for x in (FpNumber(4, -4, 3), FpNumber(-7, 3, 3), zero):
            for pair in ((x, zero), (zero, x)):
                bits = evaluate(op.circuit, op.encode_inputs(list(pair)))
                assert bits[-1] == 0
                assert op.output_encoding.decode(bits[:-1]) == x

    def test_spot_rounding_bias_case(self):
        """A case where the 1/8 alignment bias flips the rounding."""
        op = synth_primitive("add", 3)
        a = FpNumber(4, 0, 3)
        b = FpNumber(7, -4, 3)
        bits = evaluate(op.circuit, op.encode_inputs([a, b]))
        assert op.output_encoding.decode(bits[:-1]) == fp_add(a, b)
        bits_rev = evaluate(op.circuit, op.encode_inputs([b, a]))
        assert op.output_encoding.decode(bits_rev[:-1]) == fp_add(b, a)


class TestMulCircuit:
    """The multiplier against fp_mul, exhaustively, overflow included."""

    def test_exhaustive_p3(self):
        report = check_op(synth_primitive("mul", 3))
        assert report["cases"] == 65 * 65
        assert report["ok"], report["mismatches"][:3]

    def test_exhaustive_p2(self):
        report = check_op(synth_primitive("mul", 2))
        assert report["ok"], report["mismatches"][:3]

    def test_overflow_sets_flag(self):
        """(7,3) squared needs exponent 9 >= 2**3: flag, zeroed outputs."""
        op = synth_primitive("mul", 3)
        x = FpNumber(7, 3, 3)
        bits = evaluate(op.circuit, op.encode_inputs([x, x]))
        assert bits[-1] == 1
        assert all(bit == 0 for bit in bits[:-1])

    def test_sign_handling(self):
        op = synth_primitive("mul", 3)
        a = FpNumber(-5, -2, 3)
        b = FpNumber(6, 1, 3)
        bits = evaluate(op.circuit, op.encode_inputs([a, b]))
        assert op.output_encoding.decode(bits[:-1]) == fp_mul(a, b)


class TestIterAddCircuit:
    """Fixed-stage iterated addition: correctness, then the structural
    constant-depth / polynomial-size guarantees."""

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_sampled_conformance(self, m):
        """Seeded operand tuples agree with the one-rounding software sum."""
        op = synth_primitive("iter_add", 3, m=m)
        rng = random.Random(8100 + m)
        cases = [
            [random_value(rng, op.input_encoding) for _ in range(m)]
            for _ in range(300)
        ]
        report = check_op(op, cases)
        assert report["ok"], report["mismatches"][:3]

    def test_sampled_conformance_m64(self):
        op = synth_primitive("iter_add", 3, m=64)
        rng = random.Random(8164)
        cases = [
            [random_value(rng, op.input_encoding) for _ in range(64)]
            for _ in range(40)
        ]
        report = check_op(op, cases)
        assert report["ok"], report["mismatches"][:3]

    def test_differs_from_folded_binary_adds(self):
        """One exact aggregation is not a fold of biased binary adds."""
        op = synth_primitive("iter_add", 3, m=3)
        xs = [FpNumber(4, 0, 3), FpNumber(7, -4, 3), FpNumber(7, -4, 3)]
        bits = evaluate(op.circuit, op.encode_inputs(xs))
        single = op.output_encoding.decode(bits[:-1])
        assert single == iter_add(xs)
        folded = fp_add(fp_add(xs[0], xs[1]), xs[2])
        assert single != folded  # the fold picks up two alignment biases

    def test_overflow_sets_flag(self):
        """Sixty-four copies of the largest value overflow the exponent."""
        op = synth_primitive("iter_add", 3, m=64)
        xs = [FpNumber(7, 3, 3)] * 64
        with pytest.raises(Exception):
            iter_add(xs)  # the software op overflows too
        bits = evaluate(op.circuit, op.encode_inputs(xs))
        assert bits[-1] == 1

    def test_depth_constant_across_operand_count(self):
        """Three counting stages always: depth(m=64) equals depth(m=2)."""
        depths = {
            m: synth_primitive("iter_add", 3, m=m).circuit.depth
            for m in (2, 4, 8, 16, 32, 64)
        }
        assert len(set(depths.values())) == 1, depths

    def test_size_growth_is_low_degree_polynomial(self):
        """Gate count over m fits a cubic with small relative residual."""
        ms = [2, 4, 8, 16, 32, 64]
        sizes = [synth_primitive("iter_add", 3, m=m).circuit.size for m in ms]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        residual = polyfit_max_rel_residual(ms, sizes, 3)
        assert residual <= Fraction(1, 20), (sizes, float(residual))


class TestNetlistIntegration:
    """Synthesized circuits survive the text round trip bit-for-bit."""

    def test_add_round_trip_preserves_behaviour(self):
        op = synth_primitive("add", 2)
        back = parse_netlist(serialize_netlist(op.circuit))
        rng = random.Random(8200)
        for _ in range(50):
            a = random_value(rng, op.input_encoding)
            b = random_value(rng, op.input_encoding)
            bits = op.encode_inputs([a, b])
            assert evaluate(back, bits) == evaluate(op.circuit, bits)

    def test_compare_verdicts_survive_round_trip(self):
        op = synth_primitive("compare", 2)
        back = parse_netlist(serialize_netlist(op.circuit))
        values = op.input_encoding.enumerate_values()
        for a in values[:9]:
            for b in values[:9]:
                bits = op.encode_inputs([a, b])
                assert evaluate(back, bits) == evaluate(op.circuit, bits)
