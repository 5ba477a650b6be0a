"""Tests for gate-level synthesis of the float primitives: encoding,
exhaustive conformance against the software ops, and the structural
depth/size guarantees."""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction
from functools import partial
from itertools import islice, product
from typing import Iterator

import pytest

from artifact.circuits import (
    _COUNT,
    _SOURCE_KINDS,
    BLOCK_LANES,
    Circuit,
    evaluate,
    evaluate_many,
    parse_netlist,
    serialize_netlist,
)
from artifact import floats, synthesis
from artifact.floats import FpNumber, Overflow, fp_add, fp_compare, fp_mul, iter_add
from artifact.synthesis import (
    MAX_PRECISION,
    BitEncoding,
    SynthesizedOp,
    UnsupportedPrecision,
    check_op,
    synth_primitive,
)

from oracles import per_lane_expected_words, per_lane_input_words, polyfit_max_rel_residual


def random_value(rng: random.Random, enc: BitEncoding, zero_rate: float = 0.1) -> FpNumber:
    """A random encodable value, zeros included with the given rate."""
    if rng.random() < zero_rate:
        return FpNumber.zero(enc.p)
    m = rng.randrange(1 << (enc.p - 1), 1 << enc.p) * rng.choice((1, -1))
    return FpNumber(m, rng.randint(enc.e_min, enc.e_max), enc.p)


def with_outputs(op: SynthesizedOp, outputs) -> SynthesizedOp:
    """The same primitive with its circuit's outputs rewired."""
    circuit = Circuit(op.circuit.gates, outputs)
    return SynthesizedOp(op.kind, op.p, circuit, op.input_encoding, op.output_encoding, op.m)


def per_lane_mismatches(op: SynthesizedOp, cases) -> list[dict]:
    """The conformance rules applied one case at a time: compare wants its
    (lt, gt) bits; a rounding op wants the flag alone where the reference
    overflows, and otherwise a clear flag and the reference's encoding
    (a reference the output encoding cannot hold always mismatches).
    Stops at the first ten mismatches."""
    reference = {"add": fp_add, "mul": fp_mul, "iter_add": lambda *xs: iter_add(xs)}
    outputs = evaluate_many(op.circuit, [op.encode_inputs(case) for case in cases])
    mismatches = []
    for case, got in zip(cases, outputs):
        if op.kind == "compare":
            want = {"less": (1, 0), "greater": (0, 1), "equal": (0, 0)}[
                fp_compare(*case).value
            ]
            bad = got != want
        else:
            try:
                value = reference[op.kind](*case)
            except Overflow:
                want, bad = "overflow", got[-1] != 1
            else:
                want = str(value)
                try:
                    bits = op.output_encoding.encode(value)
                except ValueError:
                    bits = None
                bad = got[-1] != 0 or got[:-1] != bits
        if bad:
            mismatches.append({"operands": [str(x) for x in case], "want": want, "got": got})
            if len(mismatches) == 10:
                break
    return mismatches


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

    def test_compare_window_cap(self):
        # compare grows about fourfold in gates per window bit (p=2: 40,837
        # gates at 8 bits, 146,977 at 9), so its window stops at MAX_PRECISION.
        op = synth_primitive("compare", 2, exp_bits=MAX_PRECISION)
        assert op.circuit.n_inputs == 2 * (3 + MAX_PRECISION)
        with pytest.raises(UnsupportedPrecision, match=r"outside synthesizable range \[1, 6\]"):
            synth_primitive("compare", 2, exp_bits=MAX_PRECISION + 1)

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


# Each refusal of TestParameterValidation, after the call it neighbours:
# the valid parameters nearest to it.
_REFUSALS = [
    (("add", 6), ("add", 7), {}, UnsupportedPrecision),
    (("compare", 2), ("compare", 1), {}, UnsupportedPrecision),
    (("add", 3), ("add", 3), {"exp_bits": 4}, UnsupportedPrecision),
    (("mul", 3), ("mul", 3), {"exp_bits": 5}, UnsupportedPrecision),
    (("compare", 2, MAX_PRECISION), ("compare", 2), {"exp_bits": MAX_PRECISION + 1},
     UnsupportedPrecision),
    (("iter_add", 3, None, 2), ("iter_add", 3), {"m": 1}, UnsupportedPrecision),
    (("iter_add", 3, None, 64), ("iter_add", 3), {"m": 65}, UnsupportedPrecision),
    (("iter_add", 3, None, 2), ("iter_add", 3), {}, UnsupportedPrecision),
    (("add", 3), ("div", 3), {}, ValueError),
    (("add", 3), ("add", 3), {"m": 4}, ValueError),
]


class TestSynthesisMemo:
    """``synth_primitive`` validates every call, then builds each
    ``(kind, p, exp_bits, m)`` once and returns the same op after."""

    def test_default_window_is_one_key(self):
        assert synth_primitive("add", 3) is synth_primitive("add", 3, exp_bits=3)
        assert synth_primitive("iter_add", 2, m=5) is synth_primitive("iter_add", 2, 2, 5)

    @pytest.mark.parametrize(
        "valid,refused,kwargs,error",
        _REFUSALS,
        ids=["p-cap", "p-floor", "add-window", "mul-window", "compare-window", "m-floor",
             "m-cap", "m-missing", "unknown-kind", "m-not-iter-add"],
    )
    def test_refusals_hold_after_a_neighbour_is_kept(self, valid, refused, kwargs, error):
        op = synth_primitive(*valid)
        assert synth_primitive(*valid) is op
        with pytest.raises(error):
            synth_primitive(*refused, **kwargs)

    @pytest.mark.parametrize("kind", ["add", "mul", "compare", "iter_add"])
    def test_kept_ops_equal_fresh_builds(self, kind):
        build = synthesis._PRIMITIVES[kind][0]
        for p in range(2, 5):
            for window in range(1, p + 1):
                extra = (3,) if kind == "iter_add" else ()
                op = synth_primitive(kind, p, window, *extra)
                assert synth_primitive(kind, p, window, *extra) is op
                fresh = build(p, window, *extra)
                assert serialize_netlist(op.circuit) == serialize_netlist(fresh.circuit)
                assert (op.input_encoding, op.output_encoding, op.m) == (
                    fresh.input_encoding, fresh.output_encoding, fresh.m
                )

    def test_least_recently_used_evicted_within_budget(self, monkeypatch):
        sizes = {p: len(synthesis._synth_mul(p, 1).circuit.gates) for p in (2, 3)}
        budget = sizes[2] + sizes[3] + 1
        memo = synthesis._OpMemo(budget)
        monkeypatch.setattr(synthesis, "_MEMO", memo)

        def held() -> list[int]:
            assert memo.held == sum(len(op.circuit.gates) for op in memo.ops.values())
            assert memo.held <= budget
            return [op.p for op in memo.ops.values()]

        mul2 = synth_primitive("mul", 2, 1)
        mul3 = synth_primitive("mul", 3, 1)
        assert held() == [2, 3]
        assert synth_primitive("mul", 2, 1) is mul2  # now the most recent
        assert held() == [3, 2]
        synth_primitive("add", 2, 1)  # evicts mul p=3, the least recent
        assert [op.kind for op in memo.ops.values()] == ["mul", "add"]
        held()
        assert synth_primitive("mul", 3, 1) is not mul3
        held()
        # An op over the whole budget is returned and not kept.
        before = list(memo.ops)
        big = synth_primitive("add", 4)
        assert len(big.circuit.gates) > budget
        assert list(memo.ops) == before
        assert synth_primitive("add", 4) is not big
        held()


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


# Each depth of the pinned sweep, by kind, p and window 1..p; iter_add at
# p=3 has depth 49 for every operand count.
_SWEEP_DEPTHS = {
    "add": {2: (55, 64), 3: (55, 64, 66), 4: (56, 65, 67, 67), 5: (56, 65, 67, 67, 67)},
    "mul": {2: (48, 48), 3: (48, 48, 48), 4: (49, 49, 49, 49), 5: (49, 49, 49, 49, 49)},
    "compare": {p: (29,) * p for p in range(2, 6)},
}


def pinned_sweep():
    """``(op, depth)`` over the pinned sweep: add, mul and compare at p
    2..5 and every window 1..p, then iter_add at p=3 for five operand
    counts, in that order."""
    for kind, depths in _SWEEP_DEPTHS.items():
        for p, by_window in depths.items():
            for window, depth in enumerate(by_window, start=1):
                yield synth_primitive(kind, p, window), depth
    for m in (2, 3, 8, 32, 64):
        yield synth_primitive("iter_add", 3, m=m), 49


class TestNetlistIntegration:
    """Synthesized circuits survive the text round trip bit-for-bit."""

    def test_synthesized_netlists_pinned(self):
        """The gate lists synthesis emits over the pinned sweep, pinned
        byte for byte, hashed in the sweep's order."""
        h = hashlib.sha256()
        for op, _ in pinned_sweep():
            h.update(serialize_netlist(op.circuit).encode())
        assert h.hexdigest() == (
            "756e1608e1cc2ee42a108ee196c95f8b2d83e83eea3a0c838232a7249f9ac593"
        )
        assert op.circuit.depth == 49

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


class TestInterning:
    """Synthesis builds each distinct gate once, with its inputs in
    canonical order, and sharing changes no gate level."""

    def test_no_two_gates_share_a_key(self):
        for op, _ in pinned_sweep():
            keys = [(g.kind, g.inputs, g.k) for g in op.circuit.gates if g.kind not in _SOURCE_KINDS]
            assert len(set(keys)) == len(keys), (op.kind, op.p, op.input_encoding, op.m)

    def test_inputs_in_canonical_order(self):
        """AND and OR inputs strictly increase; THRESHOLD inputs do not
        decrease, since a column may hold one wire more than once."""
        for op, _ in pinned_sweep():
            for g in op.circuit.gates:
                pairs = list(zip(g.inputs, g.inputs[1:]))
                if g.kind in ("AND", "OR"):
                    assert all(a < b for a, b in pairs), g
                elif g.kind == "THRESHOLD":
                    assert all(a <= b for a, b in pairs), g

    def test_each_threshold_column_counted_once(self):
        """The evaluator counts each distinct THRESHOLD input tuple once:
        a column's thresholds still stand in one run."""
        for op, _ in pinned_sweep():
            ops, _ = op.circuit._plan
            columns = {g.inputs for g in op.circuit.gates if g.kind == "THRESHOLD"}
            assert ops.count(_COUNT) == len(columns), (op.kind, op.p, op.m)
        assert len(columns) == 47  # iter_add at m=64

    def test_depths_pinned(self):
        for op, depth in pinned_sweep():
            assert op.circuit.depth == depth, (op.kind, op.p, op.input_encoding, op.m)

    @pytest.mark.parametrize(
        "key,size,depth",
        [
            (("compare", 6, 6), 5056, 29),
            (("add", 6, 6), 11215, 67),
            (("mul", 6, 6), 1467, 49),
            (("iter_add", 3, 3, 64), 7296, 49),
            (("iter_add", 6, 6, 8), 16407, 49),
        ],
        ids=["compare-p6", "add-p6", "mul-p6", "iter_add-p3-m64", "iter_add-p6-m8"],
    )
    def test_interned_sizes_pinned(self, key, size, depth):
        """Non-input gates and depth of the largest ops the tests build."""
        circuit = synth_primitive(*key).circuit
        assert (circuit.size, circuit.depth) == (size, depth)


# The kernel op each kind is checked against, called as ``ref(*case, p)``.
KERNEL_REFS = {
    "compare": floats._compare,
    "add": floats._add,
    "mul": lambda a, b, p: floats._round(a[0] * b[0], a[1] + b[1], p),
    "iter_add": lambda *case: floats._iter_add(case[:-1], case[-1]),
}


def narrowed(op: SynthesizedOp, exp_bits: int) -> SynthesizedOp:
    """``op`` with its output window cut to ``exp_bits`` exponent bits."""
    narrow = BitEncoding(op.p, exp_bits)
    outs = op.circuit.outputs
    circuit = Circuit(op.circuit.gates, outs[: narrow.width] + outs[-1:])
    return SynthesizedOp(op.kind, op.p, circuit, op.input_encoding, narrow, op.m)


def scale_classes(op: SynthesizedOp) -> synthesis._ScaleClasses:
    """The reference of ``op``'s exhaustive binary sweep, as ``check_op``
    builds it."""
    return synthesis._ScaleClasses(op, op.input_encoding._pairs())


def scaled_sums(op: SynthesizedOp, pairs=None) -> synthesis._ScaledSums:
    """The reference of an ``iter_add`` check over ``pairs`` (the
    encoding's values by default), as ``check_op`` builds it."""
    return synthesis._ScaledSums(op, op.input_encoding._pairs() if pairs is None else pairs)


def sweep_cases(op: SynthesizedOp, pairs: list) -> Iterator[tuple]:
    """Every case of ``op``'s exhaustive sweep over ``pairs``, in lane order."""
    return product(pairs, repeat=op.n_operands)


def index_cases(pairs: list, flat: list[int], n: int) -> list[tuple]:
    """The cases of ``n`` value indices each in ``flat``, case after case."""
    return list(zip(*[iter([pairs[i] for i in flat])] * n))


def sweep_mismatches(op: SynthesizedOp, reference) -> int:
    """The blocks of ``op``'s exhaustive sweep whose expected words from
    ``reference`` differ from ``oracles.per_lane_expected_words``."""
    pairs = op.input_encoding._pairs()
    cases = sweep_cases(op, pairs)
    bad = 0
    for block, _ in synthesis._sweep_blocks(op, pairs):
        block_cases = islice(cases, len(block))
        want = per_lane_expected_words(op, block_cases, KERNEL_REFS[op.kind], Overflow)
        bad += reference(block) != want
    return bad


def index_chunks(flat: list[int], n: int) -> list[list[int]]:
    """``flat`` in chunks of ``BLOCK_LANES`` cases of ``n`` indices, as
    ``check_op`` cuts explicit cases."""
    step = BLOCK_LANES * n
    return [flat[i : i + step] for i in range(0, len(flat), step)]


class TestExpectedWords:
    """The engine's expected output words equal, block for block, those of
    ``oracles.per_lane_expected_words``, which calls the kernel op once per
    case, codes each result on its own and packs with ``int.to_bytes``.
    The exhaustive ``add``, ``mul`` and ``compare`` sweeps take their words
    from scale classes (``_ScaleClasses``), every ``iter_add`` check from
    scaled sums (``_ScaledSums``), and explicit and sampled binary cases
    from ``_expected_words``."""

    @staticmethod
    def assert_blocks_match(op: SynthesizedOp, blocks, reference, cases) -> int:
        """Lanes checked; ``cases`` holds every case of the blocks, in lane
        order, and is cut per block."""
        cases = iter(cases)
        lanes = 0
        for block, _ in blocks:
            block_cases = list(islice(cases, len(block)))
            want = per_lane_expected_words(op, block_cases, KERNEL_REFS[op.kind], Overflow)
            assert reference(block) == want
            lanes += len(block_cases)
        assert next(cases, None) is None
        return lanes

    @staticmethod
    def index_reference(op: SynthesizedOp, pairs):
        """The reference of index blocks over ``pairs``, as ``_check_indices`` takes it."""
        if op.kind == "iter_add":
            return scaled_sums(op, pairs).expected_words
        return partial(synthesis._expected_words, op)

    def assert_explicit_blocks_match(self, op: SynthesizedOp, cases) -> int:
        """``_index_blocks`` over explicit cases, each distinct value an
        index where it first occurs, as ``check_op`` maps them."""
        values = list(dict.fromkeys(x for case in cases for x in case))
        index = {x: i for i, x in enumerate(values)}
        flat = [index[x] for case in cases for x in case]
        pairs = [(x.m, x.e) for x in values]
        codes = [op.input_encoding.code(x) for x in values]
        blocks = synthesis._index_blocks(op, codes, pairs, index_chunks(flat, op.n_operands))
        cases = [tuple((x.m, x.e) for x in case) for case in cases]
        return self.assert_blocks_match(op, blocks, self.index_reference(op, pairs), cases)

    def sweep(self, op: SynthesizedOp) -> None:
        """The sweep's reference as ``check_op`` takes it: scale classes for
        the binary kinds, scaled sums for ``iter_add``."""
        pairs = op.input_encoding._pairs()
        reference = (scaled_sums if op.kind == "iter_add" else scale_classes)(op).expected_words
        blocks = synthesis._sweep_blocks(op, pairs)
        lanes = self.assert_blocks_match(op, blocks, reference, sweep_cases(op, pairs))
        assert lanes == len(pairs) ** op.n_operands

    @pytest.mark.parametrize("p, window", [(p, w) for p in (2, 3, 4, 5) for w in range(1, p + 1)])
    @pytest.mark.parametrize("kind", ["add", "mul", "compare"])
    def test_binary_sweeps(self, kind, p, window):
        self.sweep(synth_primitive(kind, p, window))

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_compare_sweep_at_window_p_plus_one(self, p):
        """The widest window ``circuit check compare`` takes."""
        self.sweep(synth_primitive("compare", p, p + 1))

    @pytest.mark.parametrize("narrow", [1, 2, "p"])
    @pytest.mark.parametrize("p, window", [(p, w) for p in (2, 3, 4) for w in range(1, p + 1)])
    @pytest.mark.parametrize("kind", ["add", "mul"])
    def test_binary_sweeps_on_narrowed_output_windows(self, kind, p, window, narrow):
        """Output windows of 1, 2 and p exponent bits leave results outside
        them, and for ``add`` results inside them for some head exponents
        and outside for others: those lanes go through the one-by-one
        path of the scale-class reference."""
        op = narrowed(synth_primitive(kind, p, window), p if narrow == "p" else narrow)
        self.sweep(op)

    def test_narrowed_sweeps_have_unencodable_lanes(self):
        """The narrowed sweeps above do reach lanes outside the window."""
        for kind in ("add", "mul"):
            op = narrowed(synth_primitive(kind, 3), 2)
            pairs = op.input_encoding._pairs()
            blocks = synthesis._sweep_blocks(op, pairs)
            words = [scale_classes(op).expected_words(b) for b, _ in blocks]
            assert any(w[-1] for w in words), kind

    def test_iter_add_sweep(self):
        """Every operand triple at p=2: 17**3 lanes."""
        self.sweep(synth_primitive("iter_add", 2, m=3))

    def test_iter_add_sweep_p3(self):
        """Every operand triple at p=3: 65**3 lanes."""
        self.sweep(synth_primitive("iter_add", 3, m=3))

    @pytest.mark.parametrize("window, narrow", [(1, 1), (2, 1), (2, 2)])
    def test_iter_add_sweeps_on_narrowed_output_windows(self, window, narrow):
        """Output windows of 1 and 2 exponent bits at p=2, m=3: sums land
        outside them, and those lanes are unencodable."""
        op = narrowed(synth_primitive("iter_add", 2, window, m=3), narrow)
        self.sweep(op)
        pairs = op.input_encoding._pairs()
        words = [scaled_sums(op).expected_words(b) for b, _ in synthesis._sweep_blocks(op, pairs)]
        assert any(w[-1] for w in words)

    @pytest.mark.parametrize(
        "m, n_cases", [(2, 500), (8, 300), (64, 200), (2, BLOCK_LANES + 1), (8, 1), (2, 1)]
    )
    def test_sampled_index_blocks(self, m, n_cases):
        self.assert_sampled_blocks_match(synth_primitive("iter_add", 3, m=m), n_cases)

    @pytest.mark.parametrize("m", [8, 64])
    def test_sampled_index_blocks_on_narrowed_output_windows(self, m):
        """With two exponent bits out, many sums at p=3 are unencodable."""
        self.assert_sampled_blocks_match(narrowed(synth_primitive("iter_add", 3, m=m), 2), 300)

    def assert_sampled_blocks_match(self, op: SynthesizedOp, n_cases: int) -> None:
        m = op.m
        pairs = op.input_encoding._pairs()
        rng = random.Random(8340 + m)
        flat = [rng.randrange(len(pairs)) for _ in range(n_cases * m)]
        codes = op.input_encoding._codes(pairs)
        blocks = synthesis._index_blocks(op, codes, pairs, index_chunks(flat, m))
        cases = index_cases(pairs, flat, m)
        lanes = self.assert_blocks_match(op, blocks, scaled_sums(op).expected_words, cases)
        assert lanes == n_cases

    @pytest.mark.parametrize("kind", ["add", "mul", "compare"])
    def test_explicit_cases_overflowing_and_outside_the_output_window(self, kind):
        """At p=3 mul overflows on some lanes; with the output window cut
        to two exponent bits, add and mul results fall outside it on
        others.  Compare has no output window and is checked as is."""
        op = synth_primitive(kind, 3)
        if kind != "compare":
            op = narrowed(op, 2)
        values = op.input_encoding.enumerate_values()
        cases = list(product(values, repeat=2))
        rng = random.Random(8350)
        rng.shuffle(cases)
        if kind == "mul":
            results = [fp_mul(*case) for case in cases if not self.overflows(case)]
            assert len(results) < len(cases)
            assert any(not -2 <= x.e <= 1 for x in results)
        self.assert_explicit_blocks_match(op, cases)

    def test_explicit_iter_add_cases_outside_the_output_window(self):
        op = narrowed(synth_primitive("iter_add", 3, m=8), 3)
        rng = random.Random(8360)
        cases = [tuple(random_value(rng, op.input_encoding) for _ in range(8)) for _ in range(400)]
        assert any(not -4 <= iter_add(case).e <= 3 for case in cases)
        self.assert_explicit_blocks_match(op, cases)

    @staticmethod
    def iter_add_outcome(case):
        try:
            return iter_add(case)
        except Overflow:
            return Overflow

    @pytest.mark.parametrize("p, window, m, overflows", [
        (2, 1, 64, True), (3, 3, 64, True), (3, 3, 8, False), (5, 5, 2, False),
    ])
    def test_explicit_iter_add_overflow_zero_and_cancelling_cases(self, p, window, m, overflows):
        """All-zero cases, cases whose operands cancel to zero or to one
        operand, a lone nonzero operand among zeros, and sums of the
        window's largest values, which overflow at the given parameters:
        64 times ``3 * 2**0`` is ``3 * 2**6`` at p=2, and 64 times ``7 *
        2**3`` is ``7 * 2**9`` at p=3."""
        op = synth_primitive("iter_add", p, window, m=m)
        enc = op.input_encoding
        zero = FpNumber.zero(p)
        top = FpNumber((1 << p) - 1, enc.e_max, p)
        low = FpNumber(1 << (p - 1), enc.e_min, p)
        rng = random.Random(8380 + p)
        cases = [(zero,) * m, (top,) * m, (FpNumber(-top.m, top.e, p),) * m]
        for _ in range(100):
            half = [random_value(rng, enc) for _ in range(m // 2)]
            negated = [FpNumber(-x.m, x.e, p) for x in half]
            rest = [zero] * (m - 2 * len(half))
            if rest and rng.random() < 0.5:
                rest[0] = random_value(rng, enc, zero_rate=0)
            case = half + negated + rest
            rng.shuffle(case)
            cases.append(tuple(case))
            lone = [zero] * m
            lone[rng.randrange(m)] = rng.choice((top, low, random_value(rng, enc, zero_rate=0)))
            cases.append(tuple(lone))
        outcomes = [self.iter_add_outcome(case) for case in cases]
        assert outcomes.count(FpNumber.zero(p)) >= 40
        assert (Overflow in outcomes) == overflows
        assert self.assert_explicit_blocks_match(op, cases) == len(cases)

    def test_rounding_a_scaled_sum_is_rounding_the_sum(self):
        """``_round(n << s, k - s, p) == _round(n, k, p)``, ``Overflow``
        included, over the sums an ``iter_add`` check forms: p = 2 to 6,
        ``|n|`` of up to ``p + 2**p + 7`` bits (64 operands of the widest
        window, scaled across it), every shift the window allows.  Each
        ``n`` is a ``p + 1``-bit head above tie, near-tie and sticky tails,
        and ``k`` puts the result at each edge of the exponent range and
        past it.  ``test_floats``' scale test stops at ``|n| < 2**(2p+1)``."""

        def outcome(n, k, p):
            try:
                return floats._round(n, k, p)
            except Overflow:
                return Overflow

        rng = random.Random(8390)
        cases = 0
        for p in range(2, 7):
            lim = 1 << p
            for bits in range(1, p + lim + 8):
                tails = {0, 1}
                if bits > p + 1:
                    half = 1 << (bits - p - 2)
                    tails |= {half - 1, half, half + 1, rng.randrange(2 * half)}
                for tail in tails:
                    head = rng.randrange(1 << (p - 1), 1 << p) if bits > p else 0
                    a = (head << max(bits - p, 0)) | tail | 1 << (bits - 1)
                    for n in (a, -a):
                        for e in (-lim - 2, -lim, -lim + 1, -1, 0, lim - 2, lim - 1, lim):
                            k = e - (bits - p)
                            want = outcome(n, k, p)
                            for s in range(1, lim + 1):
                                assert outcome(n << s, k - s, p) == want, (n, k, s, p)
                                cases += 1
        assert cases > 100_000

    def test_planted_exponent_fault_is_caught(self):
        """Sums rounded one exponent above the window's least, the scaled
        values unchanged: the p=2, m=3 sweep no longer equals the per-lane
        reference."""
        op = synth_primitive("iter_add", 2, m=3)
        reference = scaled_sums(op)
        reference.k += 1
        assert sweep_mismatches(op, reference.expected_words)
        assert not sweep_mismatches(op, scaled_sums(op).expected_words)

    def test_planted_zero_scale_fault_is_caught(self):
        """The zero value entered as ``2**0``, the unit at its stored
        exponent, in place of 0: the sweep's lanes with a zero operand no
        longer equal the per-lane reference."""
        op = synth_primitive("iter_add", 2, m=3)
        reference = scaled_sums(op)
        assert reference.scaled[0] == 0
        reference.scaled[0] = 1 << -reference.k
        assert sweep_mismatches(op, reference.expected_words)

    def test_passing_checks_call_no_iter_add_and_build_no_float(self, monkeypatch, capsys):
        """The exhaustive sweeps of every kind, the sampled command and
        explicit ``iter_add`` cases: no ``_iter_add`` call and no
        ``FpNumber`` built (checked or not) once the cases are given."""
        op = synth_primitive("iter_add", 3, m=8)
        rng = random.Random(8400)
        cases = [tuple(random_value(rng, op.input_encoding) for _ in range(8)) for _ in range(300)]
        ops = [synth_primitive("iter_add", 2, m=3)]
        ops += [synth_primitive(kind, 3) for kind in ("add", "mul", "compare")]
        made = []
        real_post_init = FpNumber.__post_init__

        def counted(name, real):
            return lambda *args: made.append(name) or real(*args)

        monkeypatch.setattr(floats, "_iter_add", counted("_iter_add", floats._iter_add))
        monkeypatch.setattr(synthesis, "_iter_add", counted("_iter_add", synthesis._iter_add))
        synthesize = synthesis._PRIMITIVES["iter_add"][0]
        monkeypatch.setitem(
            synthesis._PRIMITIVES, "iter_add", (synthesize, counted("_iter_add", floats._iter_add))
        )
        monkeypatch.setattr(FpNumber, "__post_init__", counted("FpNumber", real_post_init))
        monkeypatch.setattr(floats, "_normal", counted("FpNumber", floats._normal))
        monkeypatch.setattr(synthesis, "_normal", counted("FpNumber", synthesis._normal))
        for swept in ops:
            assert check_op(swept)["ok"], swept.kind
        assert check_op(op, cases)["ok"]
        from artifact.cli import main

        assert main(["circuit", "check", "iter_add", "-p", "3", "-m", "64"]) == 0
        assert capsys.readouterr().out == "sampled: PASS (200 cases, kind=iter_add, p=3)\n"
        assert made == []
        # The spies do see a failing check's report, which asks the kernel.
        broken = with_outputs(op, op.circuit.outputs[::-1])
        assert not check_op(broken, cases)["ok"]
        assert "_iter_add" in made and "FpNumber" in made

    def test_references_are_the_kernel_ops(self):
        """Each kind is checked against the op the public function rounds
        through, not a copy of it; ``KERNEL_REFS`` stays independent."""
        kernel = {"compare": floats._compare, "add": floats._add, "mul": floats._mul,
                  "iter_add": floats._iter_add}
        assert synthesis._PRIMITIVES.keys() == kernel.keys()
        for kind, (_, ref) in synthesis._PRIMITIVES.items():
            assert ref is kernel[kind], kind

    def test_verdict_other_than_a_comparison_raises(self, monkeypatch):
        """Verdicts are coded by identity; anything else raises, not 0."""
        op = synth_primitive("compare", 2)
        synthesize = synthesis._PRIMITIVES["compare"][0]
        monkeypatch.setitem(synthesis._PRIMITIVES, "compare", (synthesize, lambda a, b, p: "equal"))
        with pytest.raises(TypeError, match="not a Comparison"):
            synthesis._expected_words(op, [((2, 0), (2, 0))])

    @staticmethod
    def overflows(case) -> bool:
        try:
            fp_mul(*case)
        except Overflow:
            return True
        return False

    @pytest.mark.parametrize("kind, window, narrow", [
        ("add", 3, 2), ("mul", 3, 2), ("compare", 3, None), ("compare", 4, None),
    ])
    def test_check_op_on_permuted_outputs_matches_per_lane_mismatches(self, kind, window, narrow):
        """``check_op``'s exhaustive sweep at p=3 reports exactly the
        mismatches the per-lane rules find, in case order, on permuted
        outputs: of ``add`` and ``mul`` with the output window cut to two
        exponent bits, and of ``compare`` at windows 3 and 4."""
        op = synth_primitive(kind, 3, window)
        if narrow is not None:
            op = narrowed(op, narrow)
        values = op.input_encoding.enumerate_values()
        cases = list(product(values, repeat=2))
        rng = random.Random(8370 + window)
        for _ in range(3):
            outputs = list(op.circuit.outputs)
            while outputs == list(op.circuit.outputs):
                rng.shuffle(outputs)
            broken = with_outputs(op, outputs)
            report = check_op(broken)
            assert report["mismatches"] == per_lane_mismatches(broken, cases)
            assert not report["ok"]

    @pytest.mark.parametrize("kind", ["add", "mul", "compare"])
    def test_planted_slice_start_fault_is_caught(self, kind, monkeypatch):
        """Each row sliced one head exponent too high (the top row as it
        was): the p=3 sweep no longer equals the per-lane reference."""
        op = synth_primitive(kind, 3)
        real = synthesis._ScaleClasses._start
        e_max = op.input_encoding.e_max
        monkeypatch.setattr(
            synthesis._ScaleClasses, "_start", lambda self, ae: real(self, min(ae + 1, e_max))
        )
        assert sweep_mismatches(op, scale_classes(op).expected_words)

    @pytest.mark.parametrize("kind", ["add", "mul", "compare"])
    def test_planted_class_exponent_fault_is_caught(self, kind, monkeypatch):
        """Each class call made with ``b``'s exponent one too high, so
        every class stands for its neighbour: the p=3 sweep no longer
        equals the per-lane reference, though lanes taken one by one are
        still right."""
        op = synth_primitive(kind, 3)
        classes = scale_classes(op)
        real = classes.ref
        monkeypatch.setattr(classes, "ref", lambda a, b, p: real(a, (b[0], b[1] + 1), p))
        assert sweep_mismatches(op, classes.expected_words)
        assert not sweep_mismatches(op, scale_classes(op).expected_words)

    @pytest.mark.parametrize("kind", ["add", "mul", "compare"])
    def test_kernel_calls_stay_within_the_classes(self, kind, monkeypatch):
        """An exhaustive p=4, window-4 sweep (66,049 lanes) calls the
        kernel op at most once per scale class plus once per lane that
        breaks the pattern: a zero operand; a result that is zero,
        overflows, has an exponent at or below ``-2**p`` or outside the
        output window; for ``add``, a class result that does."""
        op = synth_primitive(kind, 4, 4)
        p, lim, out = op.p, 1 << op.p, op.output_encoding
        synthesize, kernel = synthesis._PRIMITIVES[kind]
        calls = [0]

        def counted(a, b, p):
            calls[0] += 1
            return kernel(a, b, p)

        monkeypatch.setitem(synthesis._PRIMITIVES, kind, (synthesize, counted))
        assert check_op(op)["ok"]

        def breaks(ref, a, b) -> bool:
            try:
                m, e = ref(a, b, p)
            except Overflow:
                return True
            return not m or e <= -lim or not out.e_min <= e <= out.e_max

        values = op.input_encoding.enumerate_values()
        pairs = [(x.m, x.e) for x in values]
        breaking = 0
        for a, b in product(pairs, repeat=2):
            if not a[0] or not b[0]:
                breaking += 1
            elif kind != "compare":
                ref = KERNEL_REFS[kind]
                breaking += breaks(ref, a, b) or (
                    kind == "add" and breaks(ref, (a[0], 0), (b[0], b[1] - a[1]))
                )
        signed = 2 ** p  # signed significands
        classes = signed * signed * (1 if kind == "mul" else 2 * 16 - 1)
        assert len(pairs) ** 2 == 66_049
        assert calls[0] <= classes + breaking < 66_049 // 6, (calls[0], classes, breaking)


class TestInputWords:
    """The input words of every block equal ``oracles.per_lane_input_words``:
    each lane's input code on its own, transposed.  The exhaustive sweep
    builds them by big-int arithmetic over one V-lane slot per head
    (``_sweep_blocks``), sampled and explicit cases from one digit string
    per input bit (``_index_blocks``)."""

    @staticmethod
    def assert_words_match(op: SynthesizedOp, blocks, cases) -> list[int]:
        """The block sizes; ``cases`` holds every case of the blocks, in
        lane order, and is cut per block."""
        cases = iter(cases)
        sizes = []
        for block, words in blocks:
            assert words == per_lane_input_words(op, islice(cases, len(block)))
            sizes.append(len(block))
        assert next(cases, None) is None
        return sizes

    def assert_sweep_words_match(self, op: SynthesizedOp) -> list[int]:
        pairs = op.input_encoding._pairs()
        blocks = synthesis._sweep_blocks(op, pairs)
        return self.assert_words_match(op, blocks, sweep_cases(op, pairs))

    def test_oracle_codes_are_input_codes(self):
        """The oracle's lane code is ``SynthesizedOp.encode_inputs``' bits."""
        rng = random.Random(8500)
        for op in (synth_primitive("add", 3, 2), synth_primitive("iter_add", 2, m=5)):
            for _ in range(50):
                case = [random_value(rng, op.input_encoding) for _ in range(op.n_operands)]
                words = per_lane_input_words(op, [[(x.m, x.e) for x in case]])
                assert words == op.encode_inputs(case)

    @pytest.mark.parametrize("p, window", [(p, w) for p in (2, 3, 4) for w in range(1, p + 1)])
    @pytest.mark.parametrize("kind", ["add", "mul", "compare"])
    def test_binary_sweep_words(self, kind, p, window):
        sizes = self.assert_sweep_words_match(synth_primitive(kind, p, window))
        if (p, window) == (4, 4):  # 257 heads, 255 to a block: a partial last block
            assert sizes == [255 * 257, 2 * 257]

    def test_iter_add_sweep_words(self):
        """Every operand triple at p=2, in one block of 289 heads."""
        assert self.assert_sweep_words_match(synth_primitive("iter_add", 2, m=3)) == [17**3]

    @pytest.mark.parametrize("heads", [1, 10, 288])
    @pytest.mark.parametrize("kind, m, n_heads", [("add", None, 17), ("iter_add", 3, 289)])
    def test_partial_last_block(self, kind, m, n_heads, heads, monkeypatch):
        """Blocks of ``heads`` heads at p=2: the last block holds what is
        left, and its words are made for its own number of heads."""
        monkeypatch.setattr(synthesis, "BLOCK_LANES", heads * 17)
        sizes = self.assert_sweep_words_match(synth_primitive(kind, 2, m=m))
        blocks = -(-n_heads // heads)
        assert sizes == [heads * 17] * (blocks - 1) + [(n_heads - heads * (blocks - 1)) * 17]

    @pytest.mark.parametrize("m, n_cases", [(2, 300), (8, 300), (64, 200), (2, BLOCK_LANES + 1)])
    def test_index_words(self, m, n_cases):
        op = synth_primitive("iter_add", 3, m=m)
        pairs = op.input_encoding._pairs()
        rng = random.Random(8510 + m)
        flat = [rng.randrange(len(pairs)) for _ in range(n_cases * m)]
        codes = op.input_encoding._codes(pairs)
        blocks = synthesis._index_blocks(op, codes, pairs, index_chunks(flat, m))
        sizes = self.assert_words_match(op, blocks, index_cases(pairs, flat, m))
        assert sizes == ([BLOCK_LANES, 1] if n_cases > BLOCK_LANES else [n_cases])

    def test_explicit_index_words(self):
        """Explicit ``mul`` cases, each distinct value an index where it
        first occurs, as ``check_op`` maps them."""
        op = synth_primitive("mul", 3)
        cases = list(product(op.input_encoding.enumerate_values(), repeat=2))
        random.Random(8520).shuffle(cases)
        values = list(dict.fromkeys(x for case in cases for x in case))
        index = {x: i for i, x in enumerate(values)}
        flat = [index[x] for case in cases for x in case]
        pairs = [(x.m, x.e) for x in values]
        codes = [op.input_encoding.code(x) for x in values]
        blocks = synthesis._index_blocks(op, codes, pairs, index_chunks(flat, 2))
        assert self.assert_words_match(op, blocks, index_cases(pairs, flat, 2)) == [65**2]


class TestConformanceReports:
    """check_op against per-lane rules on broken circuits, the mismatch cap,
    and the exhaustive sweeps the packed evaluator makes affordable."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("kind", ["add", "mul", "compare"])
    def test_permuted_outputs_match_per_lane_oracle(self, kind, p):
        op = synth_primitive(kind, p)
        values = op.input_encoding.enumerate_values()
        cases = list(product(values, repeat=2))
        rng = random.Random(8300 + p)
        for _ in range(3):
            outputs = list(op.circuit.outputs)
            while outputs == list(op.circuit.outputs):
                rng.shuffle(outputs)
            broken = with_outputs(op, outputs)
            report = check_op(broken)
            assert report["cases"] == len(cases)
            assert report["mismatches"] == per_lane_mismatches(broken, cases)
            assert not report["ok"]

    def test_permuted_iter_add_outputs_match_per_lane_oracle(self):
        op = synth_primitive("iter_add", 3, m=4)
        rng = random.Random(8310)
        cases = [
            tuple(random_value(rng, op.input_encoding) for _ in range(4))
            for _ in range(300)
        ]
        for _ in range(3):
            outputs = list(op.circuit.outputs)
            rng.shuffle(outputs)
            broken = with_outputs(op, outputs)
            assert check_op(broken, cases)["mismatches"] == per_lane_mismatches(broken, cases)

    def test_swapped_comparator_reports_first_ten(self):
        """(gt, lt) for (lt, gt) is wrong on 4160 of 4225 lanes; only the
        first ten are reported, in case order."""
        op = synth_primitive("compare", 3)
        broken = with_outputs(op, op.circuit.outputs[::-1])
        values = op.input_encoding.enumerate_values()
        report = check_op(broken)
        assert report["cases"] == 65 * 65 and not report["ok"]
        assert len(report["mismatches"]) == 10
        assert report["mismatches"] == per_lane_mismatches(
            broken, list(product(values, repeat=2))
        )

    def test_unnormalized_outputs_are_mismatches(self):
        """An adder whose sign output is wired to an input decodes to
        significands such as -2 at p=3: mismatches, not an exception."""
        op = synth_primitive("add", 3)
        outputs = list(op.circuit.outputs)
        outputs[op.p] = 8  # the sign bit of the result's significand
        report = check_op(with_outputs(op, outputs))
        assert not report["ok"]
        assert len(report["mismatches"]) == 10

    @pytest.mark.parametrize("kind", ["add", "mul", "compare"])
    def test_exhaustive_p5(self, kind):
        """All 1025**2 operand pairs at p=5; a few seconds each."""
        start = time.perf_counter()
        report = check_op(synth_primitive(kind, 5))
        elapsed = time.perf_counter() - start
        assert report["cases"] == 1025**2
        assert report["ok"], report["mismatches"][:3]
        assert elapsed <= 60, elapsed

    def test_exhaustive_mul_p6(self):
        """All 4097**2 operand pairs at p=6, the largest sweep ``check_op``
        takes; ``add`` and ``compare`` there evaluate bigger circuits and
        stay out of the suite."""
        start = time.perf_counter()
        report = check_op(synth_primitive("mul", 6))
        elapsed = time.perf_counter() - start
        assert report["cases"] == 4097**2 == 16_785_409
        assert report["ok"], report["mismatches"][:3]
        assert elapsed <= 60, elapsed

    def test_exhaustive_iter_add_p3_m3(self):
        """Every operand triple at p=3: 65**3 lanes in mixed radix."""
        report = check_op(synth_primitive("iter_add", 3, m=3))
        assert report["cases"] == 65**3 == 274_625
        assert report["ok"], report["mismatches"][:3]

    def test_permuted_iter_add_sweep_matches_per_lane_oracle(self):
        """The exhaustive m=3 sweep runs in mixed radix, first operand
        slowest: its mismatches come in that order."""
        op = synth_primitive("iter_add", 2, m=3)
        values = op.input_encoding.enumerate_values()
        outputs = list(op.circuit.outputs)
        random.Random(8320).shuffle(outputs)
        broken = with_outputs(op, outputs)
        report = check_op(broken)
        assert report["cases"] == 17**3
        assert report["mismatches"] == per_lane_mismatches(
            broken, list(product(values, repeat=3))
        )

    def test_overflow_lanes_check_the_flag_only(self):
        """Where the reference overflows, garbage value outputs pass and a
        clear flag fails."""
        op = synth_primitive("mul", 3)
        values = op.input_encoding.enumerate_values()
        cases = []
        for case in product(values, repeat=2):
            try:
                fp_mul(*case)
            except Overflow:
                cases.append(case)
        assert len(cases) > 10
        garbage = list(range(len(op.circuit.outputs) - 1)) + [op.circuit.outputs[-1]]
        assert check_op(with_outputs(op, garbage), cases)["ok"]
        no_flag = list(op.circuit.outputs[:-1]) + [0]
        report = check_op(with_outputs(op, no_flag), cases)
        assert report["mismatches"] == per_lane_mismatches(with_outputs(op, no_flag), cases)
        assert [m["want"] for m in report["mismatches"]] == ["overflow"] * 10

    def test_unencodable_reference_always_mismatches(self):
        """With the output window narrowed to two exponent bits, exactly
        the results outside [-2, 1] mismatch."""
        op = synth_primitive("mul", 3)
        narrow = BitEncoding(3, 2)
        outs = op.circuit.outputs
        circuit = Circuit(op.circuit.gates, outs[: narrow.width] + outs[-1:])
        narrowed = SynthesizedOp("mul", 3, circuit, op.input_encoding, narrow)
        values = op.input_encoding.enumerate_values()
        cases = list(product(values, repeat=2))
        outside = []
        for case in cases:
            try:
                if not narrow.e_min <= fp_mul(*case).e <= narrow.e_max:
                    outside.append(case)
            except Overflow:
                pass
        report = check_op(narrowed, cases)
        assert report["mismatches"] == per_lane_mismatches(narrowed, cases)
        assert [m["operands"] for m in report["mismatches"]] == [
            [str(x) for x in case] for case in outside[:10]
        ]
        # Not even all-zero outputs can match such a result.
        zero = next(g.id for g in op.circuit.gates if g.kind == "CONST0")
        silent = Circuit(op.circuit.gates, [zero] * (narrow.width + 1))
        silenced = SynthesizedOp("mul", 3, silent, op.input_encoding, narrow)
        assert len(check_op(silenced, outside)["mismatches"]) == 10

    def test_explicit_cases_encode_each_distinct_value_once(self, monkeypatch):
        op = synth_primitive("iter_add", 3, m=4)
        rng = random.Random(8330)
        values = op.input_encoding.enumerate_values()
        cases = [tuple(rng.choice(values[:9]) for _ in range(4)) for _ in range(300)]
        want = check_op(op, cases)
        calls = []
        real = BitEncoding.code
        monkeypatch.setattr(BitEncoding, "code", lambda enc, x: calls.append(x) or real(enc, x))
        assert check_op(op, cases) == want and want["ok"]
        assert sorted(calls, key=values.index) == sorted(set(calls), key=values.index)
        assert set(calls) == {x for case in cases for x in case}

    @pytest.mark.parametrize("at", [0, 250])
    def test_explicit_cases_refused_as_input_code_refuses(self, at):
        """A value outside the window, or a case of the wrong length, raises
        the error ``input_code`` raises for it, wherever it sits."""
        op = synth_primitive("iter_add", 3, m=4)
        values = op.input_encoding.enumerate_values()
        good = [tuple(values[i % 60 : i % 60 + 4]) for i in range(300)]
        outside = FpNumber(4, 7, 3)  # the window holds exponents -4 to 3
        for bad in [(values[1], outside, values[2], values[3]), tuple(values[:3])]:
            with pytest.raises(ValueError) as want:
                op.input_code(bad)
            cases = good[:at] + [bad] + good[at:]
            with pytest.raises(ValueError) as got:
                check_op(op, cases)
            assert str(got.value) == str(want.value)

    def test_oversized_sweep_refused(self):
        with pytest.raises(ValueError):
            check_op(synth_primitive("iter_add", 3, m=8))
