"""The benchmark's own tests: ``python3 perfbench/selftest.py``.

Kept out of the program's pytest suite on purpose (the file name does not
match ``test_*.py``): they test the measuring code, not the program.
"""

from __future__ import annotations

import io
import json
import random
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
from stats import Outcome  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_nested_span_tree(self):
        log = tracing.SpanLog()
        root = log.add("cli", -1, 0, 0.0, 10.0)
        a = log.add("mamba.forward_matrix", root, 0, 1.0, 5.0)
        log.add("floats.fp_add", a, 0, 2.0, 3.0)
        log.add("floats.round_p", a, 0, 3.5, 4.0)
        b = log.add("mamba.forward_matrix", root, 0, 6.0, 9.0)
        inner = log.add("mamba.forward_matrix", b, 0, 7.0, 8.0)
        log.add("floats.fp_add", inner, 0, 7.25, 7.5)
        self.assertEqual(log.self_times(), [3.0, 2.5, 1.0, 0.5, 2.0, 0.75, 0.25])

        m = tracing.layer_metrics(log, {})
        self.assertEqual(m["cli.self_s"], 3.0)
        self.assertEqual(m["mamba.forward_matrix.calls"], 3)
        self.assertEqual(m["mamba.forward_matrix.self_s"], 2.5 + 2.0 + 0.75)
        # The inner forward_matrix span lies inside another one: busy
        # time counts the outer span only.
        self.assertEqual(m["mamba.forward_matrix.busy_s"], 4.0 + 3.0)
        self.assertEqual(m["floats.fp_add.calls"], 2)
        self.assertEqual(m["floats.fp_add.self_s"], 1.25)

    def test_errors_count_where_they_leave_the_layer(self):
        log = tracing.SpanLog()
        root = log.add("cli", -1, 0, 0.0, 4.0)
        outer = log.add("hardness.eval_instance", root, 0, 1.0, 3.0, raised=True)
        log.add("hardness.eval", outer, 0, 1.5, 2.5, raised=True)
        log.add("floats.fp_div", root, 1, 3.0, 3.5, raised=True)
        m = tracing.layer_metrics(log, {})
        self.assertEqual(m["hardness.errors"], 1)
        self.assertEqual(m["floats.errors"], 1)


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        runs = [Outcome(str(i), i / 1000) for i in range(1, 101)]
        self.assertAlmostEqual(stats.percentile(runs, 0.5), 0.0505)
        self.assertAlmostEqual(stats.percentile(runs, 0.9), 0.0901)
        self.assertEqual(stats.percentile(runs[:1], 0.9), 0.001)
        self.assertEqual(stats.percentile(runs[:2], 1.0), 0.002)

    def test_failed_op_ranks_slowest(self):
        runs = [Outcome(str(i), i / 1000) for i in range(1, 11)]
        # The failure took almost no time, yet it ranks above 10 ms.
        runs[0] = Outcome("0", 0.0001, "raised RecursionError")
        self.assertAlmostEqual(stats.percentile(runs, 0.5), 0.0065)
        self.assertAlmostEqual(stats.percentile(runs, 8 / 9), 0.010)
        total = sum(o.seconds for o in runs)
        self.assertEqual(stats.percentile(runs, 0.9), total)
        self.assertEqual(stats.percentile(runs, 1.0), total)

    def test_scaled_times_divide_out_the_machine_speed(self):
        slow = Outcome("a", 0.3, calibration=3 * stats.REFERENCE_S)
        fast = Outcome("b", 0.1, calibration=stats.REFERENCE_S)
        self.assertAlmostEqual(slow.scaled, fast.scaled)
        self.assertAlmostEqual(stats.throughput([slow, fast], scaled=True), 10.0)
        self.assertAlmostEqual(stats.percentile([slow, fast], 1.0, scaled=True), 0.1)

    def test_failed_frac_and_throughput(self):
        runs = [Outcome("a", 0.5), Outcome("b", 0.25, "exit code 2"),
                Outcome("c", 0.25), Outcome("d", 1.0, "raised KeyError")]
        self.assertEqual(stats.failed_frac(runs), 0.5)
        self.assertEqual(stats.throughput(runs), 1.0)  # 2 successes in 2 s


class ReferenceEvaluators(unittest.TestCase):
    def test_matches_program_on_shallow_instances(self):
        from artifact.hardness import eval_instance

        rng = random.Random(7)
        for kind, size in (("bool", 80), ("bool", 400), ("perm", 50),
                           ("arith", 40), ("arith-z7", 40), ("arith-z5", 12)):
            for line in reference.random_corpus(kind, size, 40, rng):
                self.assertEqual(reference.label(kind, line), eval_instance(kind, line),
                                 (kind, line))

    def test_matches_program_on_shallow_combs(self):
        from artifact.hardness import eval_instance

        rng = random.Random(8)
        for kind in ("bool", "arith", "arith-z7"):
            for depth in (1, 2, 50, 200):
                line = reference.deep_comb(kind, depth, rng)
                self.assertEqual(reference.label(kind, line), eval_instance(kind, line))

    def test_deep_comb_needs_no_recursion(self):
        rng = random.Random(9)
        depth = 5 * sys.getrecursionlimit()
        text = reference.deep_comb("bool", depth, rng)
        want = int(text[0])
        for i in range(1, len(text), 2):
            bit, op = int(text[i]), text[i + 1]
            want = want & bit if op == "&" else want | bit
        self.assertEqual(reference.eval_bool_postfix(text), want)
        line = reference.deep_comb("arith-z7", depth, rng)
        self.assertIn(reference.label("arith-z7", line), [str(v) for v in range(7)])

    def test_perm_label(self):
        self.assertEqual(reference.eval_perm_line("21345 21345"), 1)
        self.assertEqual(reference.eval_perm_line("21345 13245"), 0)
        self.assertEqual(reference.eval_perm_line("23451 23451 23451 23451 23451"), 1)


class Tracing(unittest.TestCase):
    def test_every_per_layer_metric_is_produced_and_mapped(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        names = {m["name"] for m in spec["per_layer"]}
        produced = set(tracing.layer_metrics(tracing.SpanLog(), {}))
        produced |= {"cli.stdout_bytes", "trace.overhead_frac"}  # set by run.py
        self.assertLessEqual(names, produced)
        mapped = json.loads((BENCH / "layers.json").read_text())["per_layer"]
        self.assertEqual(sorted(n for entry in mapped for n in entry["metrics"]), sorted(names))
        end_to_end = {m["name"] for m in spec["end_to_end"]} | {"failed_frac"}
        self.assertLessEqual({n for entry in mapped for n in entry["moves"]}, end_to_end)

    def test_install_wraps_every_binding_and_uninstall_restores(self):
        import artifact.cli
        import artifact.contexts
        import artifact.floats
        import artifact.hardness
        import artifact.matrices

        pbit = artifact.contexts.PBitScalars
        before = (artifact.floats.fp_mul, artifact.matrices.fp_mul,
                  artifact.hardness.eval_bool, dict(vars(pbit)))
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIsNot(artifact.matrices.fp_mul, before[0])
            self.assertIs(artifact.matrices.fp_mul, artifact.floats.fp_mul)
            self.assertIn("dup", vars(pbit))  # inherited methods are wrapped too
            tr.op_id = 3
            with redirect_stdout(io.StringIO()):
                code = artifact.cli.main(["fp", "1.5*2.5", "-p", "8"])
        finally:
            tr.uninstall()
        self.assertEqual(code, 0)
        self.assertEqual((artifact.floats.fp_mul, artifact.matrices.fp_mul,
                          artifact.hardness.eval_bool, dict(vars(pbit))),
                         before)
        m = tracing.layer_metrics(tr.log, tr.counts)
        self.assertEqual(m["cli.calls"], 1)
        self.assertEqual(m["floats.fp_mul.calls"], 1)
        self.assertEqual(set(tr.log.op), {3})

    def test_recursion_adds_no_frames(self):
        import inspect

        import artifact.hardness as h

        # Deep enough that a wrapper frame per level would overflow.
        depth = sys.getrecursionlimit() - len(inspect.stack()) - 50
        line = "1" + "1&" * depth
        formula = h.parse_bool_postfix(line)
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertEqual(h.eval_bool(formula), 1)
            self.assertEqual(h.eval_bool(formula), 1)
        finally:
            tr.uninstall()
        m = tracing.layer_metrics(tr.log, tr.counts)
        self.assertEqual(m["hardness.eval.calls"], 2)


if __name__ == "__main__":
    unittest.main()
