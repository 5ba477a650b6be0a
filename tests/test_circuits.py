"""Tests for the threshold-circuit IR: structure, evaluation, rewriting,
and the netlist text format."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from artifact.circuits import (
    BLOCK_LANES,
    ArityMismatch,
    Circuit,
    CircuitBuilder,
    CircuitError,
    Gate,
    ParseError,
    evaluate,
    evaluate_many,
    evaluate_words,
    is_majority_only,
    pack_codes,
    parse_netlist,
    serialize_netlist,
    _check_gate,
    to_majority_only,
)
from artifact.hardness import enumerate_small_circuits, lower_or_gates
from artifact import circuits, synthesis
from artifact.synthesis import check_op, synth_primitive

from oracles import keep_all_evaluate_words, reference_evaluate


def random_circuit(rng: random.Random, n_inputs: int, n_gates: int) -> Circuit:
    """A seeded random DAG over the full gate vocabulary."""
    gates = [Gate(i, "INPUT") for i in range(n_inputs)]
    gates.append(Gate(n_inputs, "CONST0"))
    gates.append(Gate(n_inputs + 1, "CONST1"))
    while len(gates) < n_inputs + 2 + n_gates:
        gid = len(gates)
        kind = rng.choice(["NOT", "AND", "OR", "THRESHOLD"])
        if kind == "NOT":
            inputs = (rng.randrange(gid),)
            k = None
        else:
            fan = rng.randint(1, min(5, gid))
            inputs = tuple(rng.randrange(gid) for _ in range(fan))
            k = rng.randint(1, fan) if kind == "THRESHOLD" else None
        gates.append(Gate(gid, kind, inputs, k))
    n_out = rng.randint(1, 3)
    outputs = [rng.randrange(len(gates)) for _ in range(n_out)]
    return Circuit(gates, outputs)


def threshold_run_circuit(rng: random.Random, n_inputs: int, n_runs: int) -> Circuit:
    """Runs of THRESHOLD gates over one input tuple at several k, as the
    synthesizer emits per counting column, each followed by one of: the
    tuple reordered, the tuple with one wire changed, an earlier tuple
    repeated after other gates, or a plain gate.  Every gate is an output."""
    gates = [Gate(i, "INPUT") for i in range(n_inputs)]
    tuples: list[tuple[int, ...]] = []

    def emit(kind: str, inputs: tuple[int, ...], k: int | None = None) -> None:
        gates.append(Gate(len(gates), kind, inputs, k))

    for _ in range(n_runs):
        gid = len(gates)
        ins = tuple(rng.randrange(gid) for _ in range(rng.randint(1, min(9, gid))))
        tuples.append(ins)
        for k in rng.sample(range(1, len(ins) + 1), rng.randint(1, len(ins))):
            emit("THRESHOLD", ins, k)
        follow = rng.randrange(4)
        if follow == 0:
            other = tuple(rng.sample(ins, len(ins)))
        elif follow == 1:
            at = rng.randrange(len(ins))
            other = ins[:at] + (rng.randrange(len(gates)),) + ins[at + 1 :]
        elif follow == 2:
            emit("NOT", (rng.randrange(len(gates)),))
            other = rng.choice(tuples)
        else:
            emit(rng.choice(["AND", "OR"]), ins)
            continue
        emit("THRESHOLD", other, rng.randint(1, len(other)))
    return Circuit(gates, list(range(n_inputs, len(gates))))


class TestGate:
    """The gate record: a named tuple of id, kind, inputs and k."""

    def test_positional_and_keyword_construction(self):
        g = Gate(3, "INPUT")
        assert (g.id, g.kind, g.inputs, g.k) == (3, "INPUT", (), None)
        t = Gate(id=4, kind="THRESHOLD", inputs=(0, 1, 2), k=2)
        assert t == Gate(4, "THRESHOLD", (0, 1, 2), 2)
        assert Gate(5, "NOT", inputs=(4,)).k is None

    @pytest.mark.parametrize("field", ["id", "kind", "inputs", "k"])
    def test_fields_are_read_only(self, field):
        g = Gate(1, "THRESHOLD", (0,), 1)
        with pytest.raises(AttributeError):
            setattr(g, field, 2)

    def test_synthesized_netlist_round_trip_keeps_gates(self):
        c = synth_primitive("iter_add", 3, m=8).circuit
        assert parse_netlist(serialize_netlist(c)).gates == c.gates

    def test_validation_agrees_with_check_gate(self):
        """A circuit is refused exactly when ``_check_gate`` refuses one of
        its gates, with that gate's message."""
        rng = random.Random(7301)
        kinds = ["INPUT", "CONST0", "CONST1", "NOT", "AND", "OR", "THRESHOLD", "XOR"]
        for _ in range(3000):
            i = rng.randint(0, 4)
            inputs = tuple(rng.randint(-1, i) for _ in range(rng.randint(0, 3)))
            g = Gate(rng.choice([i, i, i, i + 1]), rng.choice(kinds), inputs,
                     rng.choice([None, None, 0, 1, 2, 3, 4]))
            gates = [Gate(j, "INPUT") for j in range(i)] + [g]
            try:
                _check_gate(g, i)
            except CircuitError as exc:
                with pytest.raises(CircuitError) as err:
                    Circuit(gates, [])
                assert str(err.value) == str(exc)
            else:
                assert Circuit(gates, []).gates == tuple(gates)


class TestCircuitBuilder:
    """The one emitter: ids are assigned in order, each gate is checked
    once as it enters, and ``build`` makes no second pass."""

    def test_emit_assigns_dense_ids(self):
        b = CircuitBuilder()
        assert [b.emit("INPUT"), b.emit("INPUT"), b.emit("CONST1")] == [0, 1, 2]
        assert b.emit("THRESHOLD", (0, 1, 2), 2) == 3
        c = b.build([3])
        assert c.gates[3] == Gate(3, "THRESHOLD", (0, 1, 2), 2)
        assert (c.n_inputs, c.outputs, c.depth) == (2, (3,), 1)

    def test_emit_refuses_with_check_gate_message(self):
        b = CircuitBuilder()
        b.emit("INPUT")
        bad = [("NOT", (0, 0), None), ("AND", (1,), None), ("OR", (0,), 1),
               ("THRESHOLD", (0,), 2), ("XOR", (0,), None), ("INPUT", (0,), None)]
        for kind, inputs, k in bad:
            with pytest.raises(CircuitError) as want:
                _check_gate(Gate(1, kind, inputs, k), 1)
            with pytest.raises(CircuitError) as got:
                b.emit(kind, inputs, k)
            assert str(got.value) == str(want.value)
            assert len(b.gates) == 1

    def test_build_checks_outputs(self):
        b = CircuitBuilder()
        b.emit("INPUT")
        with pytest.raises(CircuitError, match="output id 1 out of range"):
            b.build([0, 1])
        with pytest.raises(CircuitError, match="output id -1 out of range"):
            b.build([-1])

    def test_every_gate_is_checked_once(self, monkeypatch):
        """However a circuit is made, each of its gates passes through
        ``CircuitBuilder.emit`` exactly once.  Synthesis runs against an
        empty memo, so it builds rather than returning a kept op."""
        synthesized = synth_primitive("iter_add", 2, m=3).circuit
        text = serialize_netlist(synthesized)
        small = enumerate_small_circuits(2, 2, include_or=True)[-1]
        makers = {
            "synthesize": lambda: [synth_primitive("add", 2).circuit],
            "parse": lambda: [parse_netlist(text)],
            "rewrite": lambda: [to_majority_only(synthesized)],
            "lower": lambda: [lower_or_gates(small)],
            "enumerate": lambda: enumerate_small_circuits(2, 2, include_or=True),
            "construct": lambda: [Circuit(synthesized.gates, synthesized.outputs)],
        }
        calls = [0]
        emit = CircuitBuilder.emit

        def counted(builder, *args):
            calls[0] += 1
            return emit(builder, *args)

        monkeypatch.setattr(CircuitBuilder, "emit", counted)
        monkeypatch.setattr(synthesis, "_MEMO", synthesis._OpMemo(synthesis._MEMO_GATES))
        for name, make in makers.items():
            calls[0] = 0
            made = make()
            assert calls[0] == sum(len(c.gates) for c in made), name


class TestCircuitStructure:
    """Construction-time validation and the depth/size metrics."""

    def test_single_and_depth_and_size(self):
        """One AND over two inputs: depth 1, size 1."""
        c = Circuit(
            [Gate(0, "INPUT"), Gate(1, "INPUT"), Gate(2, "AND", (0, 1))], [2]
        )
        assert c.depth == 1
        assert c.size == 1
        assert c.n_inputs == 2

    def test_not_chain_depth(self):
        """Two chained NOTs count two levels."""
        c = Circuit(
            [Gate(0, "INPUT"), Gate(1, "NOT", (0,)), Gate(2, "NOT", (1,))], [2]
        )
        assert c.depth == 2
        assert c.size == 2

    def test_constants_are_depth_zero_sources(self):
        """Constants count toward size but sit at level zero like inputs."""
        c = Circuit(
            [
                Gate(0, "INPUT"),
                Gate(1, "CONST1"),
                Gate(2, "AND", (0, 1)),
            ],
            [2],
        )
        assert c.depth == 1
        assert c.size == 2  # the constant still occupies a gate

    def test_depth_measured_at_outputs(self):
        """Gates not feeding any output do not contribute to depth."""
        c = Circuit(
            [
                Gate(0, "INPUT"),
                Gate(1, "NOT", (0,)),
                Gate(2, "NOT", (1,)),
                Gate(3, "OR", (0,)),
            ],
            [3],
        )
        assert c.depth == 1

    def test_rejects_forward_reference(self):
        with pytest.raises(CircuitError):
            Circuit([Gate(0, "AND", (1,)), Gate(1, "INPUT")], [0])

    def test_rejects_sparse_ids(self):
        with pytest.raises(CircuitError):
            Circuit([Gate(1, "INPUT")], [1])

    def test_rejects_bad_not_arity(self):
        with pytest.raises(CircuitError):
            Circuit([Gate(0, "INPUT"), Gate(1, "NOT", (0, 0))], [1])

    def test_rejects_threshold_k_out_of_range(self):
        gates = [Gate(0, "INPUT"), Gate(1, "INPUT")]
        with pytest.raises(CircuitError):
            Circuit(gates + [Gate(2, "THRESHOLD", (0, 1), 3)], [2])
        with pytest.raises(CircuitError):
            Circuit(gates + [Gate(2, "THRESHOLD", (0, 1), 0)], [2])

    def test_rejects_output_out_of_range(self):
        with pytest.raises(CircuitError):
            Circuit([Gate(0, "INPUT")], [1])

    def test_rejects_k_on_non_threshold(self):
        with pytest.raises(CircuitError):
            Circuit([Gate(0, "INPUT"), Gate(1, "OR", (0,), 1)], [1])


class TestEvaluate:
    """Semantics of the bit-sliced evaluator."""

    def test_majority_of_three(self):
        """THRESHOLD(2) over three inputs is the majority vote."""
        c = Circuit(
            [
                Gate(0, "INPUT"),
                Gate(1, "INPUT"),
                Gate(2, "INPUT"),
                Gate(3, "THRESHOLD", (0, 1, 2), 2),
            ],
            [3],
        )
        for a in range(2):
            for b in range(2):
                for d in range(2):
                    assert evaluate(c, (a, b, d)) == (int(a + b + d >= 2),)

    def test_threshold_counts_multiplicity(self):
        """Repeated wires count once per occurrence, not once per wire."""
        c = Circuit(
            [Gate(0, "INPUT"), Gate(1, "THRESHOLD", (0, 0), 2)],
            [1],
        )
        assert evaluate(c, (1,)) == (1,)
        assert evaluate(c, (0,)) == (0,)

    def test_arity_mismatch(self):
        c = Circuit([Gate(0, "INPUT"), Gate(1, "NOT", (0,))], [1])
        with pytest.raises(ArityMismatch):
            evaluate(c, (1, 0))

    def test_matches_reference_on_random_circuits(self):
        """Bit-sliced evaluation agrees with plain per-gate semantics."""
        rng = random.Random(7001)
        for _ in range(40):
            c = random_circuit(rng, rng.randint(1, 6), rng.randint(3, 25))
            assignments = [
                [rng.randint(0, 1) for _ in range(c.n_inputs)] for _ in range(32)
            ]
            packed = evaluate_many(c, assignments)
            for a, got in zip(assignments, packed):
                assert got == reference_evaluate(c, a)

    def test_exhaustive_small_circuit(self):
        """All 2**n assignments evaluated in one bit-sliced pass."""
        rng = random.Random(7002)
        c = random_circuit(rng, 5, 15)
        assignments = [
            [(i >> j) & 1 for j in range(5)] for i in range(32)
        ]
        packed = evaluate_many(c, assignments)
        for a, got in zip(assignments, packed):
            assert got == reference_evaluate(c, a)

    def test_matches_reference_across_block_boundary(self):
        """More lanes than one evaluation block: every lane on both sides
        of the boundary agrees with per-gate semantics."""
        rng = random.Random(7003)
        c = random_circuit(rng, 4, 12)
        assignments = [
            [rng.randint(0, 1) for _ in range(4)] for _ in range(BLOCK_LANES + 5)
        ]
        packed = evaluate_many(c, assignments)
        assert len(packed) == len(assignments)
        assert packed == [reference_evaluate(c, a) for a in assignments]

    def test_zero_and_one_lane(self):
        rng = random.Random(7004)
        c = random_circuit(rng, 3, 10)
        assert evaluate_many(c, []) == []
        assert evaluate_many(c, [[1, 0, 1]]) == [reference_evaluate(c, [1, 0, 1])]
        assert evaluate(c, [1, 0, 1]) == reference_evaluate(c, [1, 0, 1])

    def test_no_outputs(self):
        c = Circuit([Gate(0, "INPUT")], [])
        assert evaluate_many(c, [[0], [1]]) == [(), ()]

    def test_words_match_many(self):
        """The packed core on hand-built words equals evaluate_many: bit i
        of input word j is input j of lane i."""
        rng = random.Random(7005)
        c = random_circuit(rng, 3, 15)
        assignments = [[(i >> j) & 1 for j in range(3)] for i in range(8)]
        words = [0b11110000, 0b11001100, 0b10101010][::-1]
        outputs = evaluate_words(c, words, 8)
        assert [tuple((w >> i) & 1 for w in outputs) for i in range(8)] == (
            evaluate_many(c, assignments)
        )
        with pytest.raises(ArityMismatch):
            evaluate_words(c, words[:2], 8)

    def test_shared_popcount_matches_reference(self):
        """Thresholds that share one column's count agree with per-gate
        semantics, next to reordered, altered and repeated columns."""
        rng = random.Random(7007)
        for _ in range(30):
            c = threshold_run_circuit(rng, rng.randint(2, 6), rng.randint(1, 8))
            assignments = [
                [rng.randint(0, 1) for _ in range(c.n_inputs)] for _ in range(64)
            ]
            assert evaluate_many(c, assignments) == [
                reference_evaluate(c, a) for a in assignments
            ]

    @pytest.mark.parametrize("lanes", [1, 64, BLOCK_LANES + 1])
    def test_shared_popcount_at_lane_counts(self, lanes):
        rng = random.Random(7008)
        c = threshold_run_circuit(rng, 4, 10)
        want = {
            code: reference_evaluate(c, [(code >> j) & 1 for j in range(4)])
            for code in range(16)
        }
        codes = [rng.randrange(16) for _ in range(lanes)]
        got = evaluate_many(c, [[(code >> j) & 1 for j in range(4)] for code in codes])
        assert got == [want[code] for code in codes]

    @pytest.mark.parametrize(
        "width", [1, 7, 8, 9, 16, 17, 20, 24, 25, 32, 33, 64, 65, 70]
    )
    def test_pack_codes_transposes(self, width):
        """Every width on either side of a byte count that a native item
        size holds, or the next one up, at 1, 300 and ``BLOCK_LANES + 1``
        lanes; random codes, with the all-ones code in the last lane."""
        rng = random.Random(7006 + width)
        for lanes in (1, 300, BLOCK_LANES + 1):
            codes = [rng.getrandbits(width) for _ in range(lanes - 1)]
            codes.append((1 << width) - 1)
            # Column k of the binary strings, last lane first, is bit width-1-k.
            columns = zip(*[format(c, f"0{width}b") for c in reversed(codes)])
            assert pack_codes(codes, width) == [int("".join(col), 2) for col in columns][::-1]
        assert pack_codes([], width) == [0] * width


class TestWireLifetime:
    """``evaluate_words`` drops each wire's word after its last reader,
    keeps the outputs, and gives the same words as a keep-all evaluator."""

    @staticmethod
    def _agrees(circuit: Circuit, rng: random.Random, lanes: int = 70) -> None:
        words = [rng.getrandbits(lanes) for _ in range(circuit.n_inputs)]
        got = evaluate_words(circuit, words, lanes)
        assert got == keep_all_evaluate_words(circuit, words, lanes)

    # Inputs 0 and 1; 2 = AND(0, 1); 3 = NOT 2; 4 = OR(2, 3, 0).
    _GATES = [Gate(0, "INPUT"), Gate(1, "INPUT"), Gate(2, "AND", (0, 1)),
              Gate(3, "NOT", (2,)), Gate(4, "OR", (2, 3, 0))]

    @pytest.mark.parametrize(
        "outputs",
        [[2, 4], [3, 2], [2, 2, 4], [4, 4], [0, 4], [1], [0, 1, 0]],
        ids=["read-later", "read-later-first", "duplicate", "duplicate-last",
             "input-read-later", "input-only", "input-duplicate"],
    )
    def test_outputs_survive_their_readers(self, outputs):
        self._agrees(Circuit(self._GATES, outputs), random.Random(len(outputs)))

    def test_threshold_runs_over_one_column(self):
        rng = random.Random(7009)
        for _ in range(30):
            c = threshold_run_circuit(rng, rng.randint(2, 6), rng.randint(1, 8))
            # Keep a few gates only, so the columns' wires are freed.
            c = Circuit(c.gates, rng.sample(range(len(c.gates)), rng.randint(1, 3)))
            self._agrees(c, rng)

    def test_random_small_circuits(self):
        rng = random.Random(7010)
        for c in enumerate_small_circuits(2, 2, include_or=True):
            self._agrees(c, rng, lanes=4)
        for _ in range(50):
            c = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 30))
            self._agrees(c, rng)

    def test_every_wire_but_the_outputs_is_freed_once(self):
        rng = random.Random(7011)
        circuits = [synth_primitive("add", 3).circuit, Circuit(self._GATES, [2, 2, 0])]
        circuits += [random_circuit(rng, 4, 40) for _ in range(20)]
        for c in circuits:
            last = {q: max([g.id for g in c.gates if q in g.inputs], default=q)
                    for q in range(len(c.gates))}
            freed = [(q, at) for at, qs in enumerate(c._plan[1]) for q in qs]
            assert sorted(q for q, _ in freed) == sorted(set(last) - set(c.outputs))
            assert all(at == last[q] for q, at in freed)

    def test_table_built_on_first_evaluation_only(self):
        """Parsing, rewriting and depth do not build the opcode and
        last-use tables; the first evaluation builds both and later ones
        reuse them."""
        c = parse_netlist(serialize_netlist(synth_primitive("mul", 3).circuit))
        assert c.depth > 0 and to_majority_only(c).depth > 0
        assert "_plan" not in vars(c)
        evaluate(c, [0] * c.n_inputs)
        plan = vars(c)["_plan"]
        ops, dead = plan
        assert type(ops) is bytes and len(ops) == len(dead) == len(c.gates)
        evaluate_many(c, [[1] * c.n_inputs] * 3)
        evaluate_words(c, [0] * c.n_inputs, 5)
        assert vars(c)["_plan"] is plan
        assert plan[0] is ops and plan[1] is dead

    def test_opcodes(self):
        """Two-input AND and OR have opcodes of their own, and a THRESHOLD
        reuses a count only right after a THRESHOLD over the same tuple."""
        gates = [Gate(0, "INPUT"), Gate(1, "INPUT"), Gate(2, "CONST0"), Gate(3, "CONST1"),
                 Gate(4, "AND", (0, 1)), Gate(5, "AND", (0, 1, 2)), Gate(6, "AND", (0,)),
                 Gate(7, "OR", (0, 1)), Gate(8, "OR", (1, 0, 1)), Gate(9, "NOT", (8,)),
                 Gate(10, "THRESHOLD", (0, 1), 1), Gate(11, "THRESHOLD", (0, 1), 2),
                 Gate(12, "THRESHOLD", (1, 0), 1), Gate(13, "NOT", (12,)),
                 Gate(14, "THRESHOLD", (1, 0), 2)]
        c = Circuit(gates, [14])
        names = {getattr(circuits, name): name for name in (
            "_AND2", "_NOT", "_RECOUNT", "_OR", "_AND", "_OR2", "_COUNT",
            "_INPUT", "_CONST0", "_CONST1")}
        assert sorted(names) == list(range(10))
        assert [names[op] for op in c._plan[0]] == [
            "_INPUT", "_INPUT", "_CONST0", "_CONST1", "_AND2", "_AND", "_AND",
            "_OR2", "_OR", "_NOT", "_COUNT", "_RECOUNT", "_COUNT", "_NOT", "_RECOUNT"]

    @pytest.mark.parametrize("lanes", [1, 200, BLOCK_LANES + 1])
    def test_random_circuits_at_lane_counts(self, lanes):
        rng = random.Random(7012)
        for _ in range(40 if lanes <= 200 else 1):
            c = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 30))
            self._agrees(c, rng, lanes)
        c = threshold_run_circuit(rng, 4, 3 if lanes > 200 else 8)
        self._agrees(c, rng, lanes)

    def test_sweep_peak_memory(self):
        """Freed wires bound the live words of an exhaustive p=4 ``add``
        sweep: its traced peak was about 19 MB when every wire lived to the
        end of the call, and is about 9.5 MB now."""
        op = synth_primitive("add", 4, exp_bits=4)
        tracemalloc.start()
        try:
            assert check_op(op)["ok"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 << 20


class TestMajorityRewrite:
    """THRESHOLD/AND/OR elimination in favour of MAJORITY-shaped gates."""

    def _gate_kinds(self, c: Circuit) -> set[str]:
        return {g.kind for g in c.gates}

    def test_binary_and_becomes_majority_with_const0(self):
        c = Circuit(
            [Gate(0, "INPUT"), Gate(1, "INPUT"), Gate(2, "AND", (0, 1))], [2]
        )
        r = to_majority_only(c)
        assert is_majority_only(r)
        top = r.gates[r.outputs[0]]
        assert top.kind == "THRESHOLD" and len(top.inputs) == 3 and top.k == 2
        pad_kinds = {r.gates[q].kind for q in top.inputs} - {"INPUT"}
        assert pad_kinds == {"CONST0"}

    def test_binary_or_becomes_majority_with_const1(self):
        c = Circuit(
            [Gate(0, "INPUT"), Gate(1, "INPUT"), Gate(2, "OR", (0, 1))], [2]
        )
        r = to_majority_only(c)
        top = r.gates[r.outputs[0]]
        assert top.kind == "THRESHOLD" and len(top.inputs) == 3 and top.k == 2
        pad_kinds = {r.gates[q].kind for q in top.inputs} - {"INPUT"}
        assert pad_kinds == {"CONST1"}

    def test_threshold_low_k_pads_with_ones(self):
        """THRESHOLD(1) over two wires needs one CONST1 pad."""
        c = Circuit(
            [Gate(0, "INPUT"), Gate(1, "INPUT"), Gate(2, "THRESHOLD", (0, 1), 1)],
            [2],
        )
        r = to_majority_only(c)
        assert is_majority_only(r)
        top = r.gates[r.outputs[0]]
        assert len(top.inputs) == 3 and top.k == 2

    def test_rewrite_is_detected(self):
        c = Circuit(
            [Gate(0, "INPUT"), Gate(1, "INPUT"), Gate(2, "AND", (0, 1))], [2]
        )
        assert not is_majority_only(c)
        assert is_majority_only(to_majority_only(c))

    def test_equivalence_exhaustive_small(self):
        """Rewrites preserve every truth table up to 12 inputs exhaustively."""
        rng = random.Random(7100)
        for _ in range(25):
            n = rng.randint(1, 6)
            c = random_circuit(rng, n, rng.randint(3, 20))
            r = to_majority_only(c)
            assignments = [
                [(i >> j) & 1 for j in range(n)] for i in range(1 << n)
            ]
            assert evaluate_many(c, assignments) == evaluate_many(r, assignments)

    def test_equivalence_sampled_wide(self):
        """Beyond 12 inputs: a thousand seeded random assignments."""
        rng = random.Random(7101)
        c = random_circuit(rng, 16, 40)
        r = to_majority_only(c)
        assignments = [
            [rng.randint(0, 1) for _ in range(16)] for _ in range(1000)
        ]
        assert evaluate_many(c, assignments) == evaluate_many(r, assignments)

    def test_rewrite_preserves_depth(self):
        """Pads are depth-zero constants, so gate levels never stretch."""
        rng = random.Random(7102)
        for _ in range(20):
            c = random_circuit(rng, rng.randint(2, 5), rng.randint(3, 20))
            assert to_majority_only(c).depth == c.depth


class TestNetlist:
    """Round trips and line-numbered rejection of malformed text."""

    def test_round_trip_example(self):
        c = Circuit(
            [
                Gate(0, "INPUT"),
                Gate(1, "INPUT"),
                Gate(2, "THRESHOLD", (0, 1, 1), 2),
                Gate(3, "NOT", (2,)),
            ],
            [2, 3],
        )
        text = serialize_netlist(c)
        back = parse_netlist(text)
        assert back.gates == c.gates
        assert back.outputs == c.outputs
        assert serialize_netlist(back) == text

    def test_parse_keeps_equal_gates_as_written(self):
        """Only synthesis shares equal gates: a parsed netlist keeps every
        gate, its id and its input order."""
        text = "0 INPUT\n1 INPUT\n2 AND 1 0\n3 AND 1 0\n4 THRESHOLD 1 1 0 1\n5 OR 3 2 2\nOUTPUTS 4 5\n"
        c = parse_netlist(text)
        assert [g.inputs for g in c.gates] == [(), (), (1, 0), (1, 0), (1, 0, 1), (3, 2, 2)]
        assert serialize_netlist(c) == text

    def test_round_trip_random(self):
        rng = random.Random(7200)
        for _ in range(25):
            c = random_circuit(rng, rng.randint(1, 5), rng.randint(2, 30))
            back = parse_netlist(serialize_netlist(c))
            assert back.gates == c.gates
            assert back.outputs == c.outputs

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n0 INPUT\n1 NOT 0\n\nOUTPUTS 1\n"
        c = parse_netlist(text)
        assert c.n_inputs == 1
        assert evaluate(c, (0,)) == (1,)

    def test_parse_error_carries_line_number(self):
        text = "0 INPUT\n1 NOT 0\n2 FROB 1\nOUTPUTS 2\n"
        with pytest.raises(ParseError) as err:
            parse_netlist(text)
        assert err.value.line_no == 3
        assert "line 3" in str(err.value)

    def test_forward_reference_rejected(self):
        text = "0 INPUT\n1 AND 0 2\n2 INPUT\nOUTPUTS 1\n"
        with pytest.raises(ParseError) as err:
            parse_netlist(text)
        assert err.value.line_no == 2

    def test_self_reference_rejected(self):
        text = "0 INPUT\n1 AND 1\nOUTPUTS 1\n"
        with pytest.raises(ParseError) as err:
            parse_netlist(text)
        assert err.value.line_no == 2

    def test_missing_outputs_rejected(self):
        with pytest.raises(ParseError):
            parse_netlist("0 INPUT\n1 NOT 0\n")

    def test_gate_after_outputs_rejected(self):
        text = "0 INPUT\nOUTPUTS 0\n1 NOT 0\n"
        with pytest.raises(ParseError) as err:
            parse_netlist(text)
        assert err.value.line_no == 3

    def test_duplicate_outputs_rejected(self):
        text = "0 INPUT\nOUTPUTS 0\nOUTPUTS 0\n"
        with pytest.raises(ParseError) as err:
            parse_netlist(text)
        assert err.value.line_no == 3

    def test_threshold_requires_k(self):
        text = "0 INPUT\n1 THRESHOLD\nOUTPUTS 1\n"
        with pytest.raises(ParseError) as err:
            parse_netlist(text)
        assert err.value.line_no == 2

    def test_nonsequential_id_rejected(self):
        text = "0 INPUT\n2 NOT 0\nOUTPUTS 2\n"
        with pytest.raises(ParseError) as err:
            parse_netlist(text)
        assert err.value.line_no == 2
