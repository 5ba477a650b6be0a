"""Benchmark of the `artifact` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all               # every workload
    python3 perfbench/run.py --workload all --trace 1     # per-layer metrics
    python3 perfbench/run.py --workload all --record-golden

Each op is an in-process call of ``artifact.cli.main(argv)`` with stdout
captured; `workloads` builds the seeded op list of one pass.  Ops run in a
closed loop (one client, one thread, one process per workload) through
whole passes, and stop at the end of the first pass by which ``--seconds``
have passed and at least ``MIN_OPS`` ops ran.

An op fails when it raises, exits non-zero, or prints stdout that fails
its check: its own check, the same bytes as its first run in this
process, its peer route's bytes, and at seed 0 the golden digest in
``golden.json``.  ``correct`` is false when an op returned a wrong exit
code or wrong stdout; an op that raised produced no result and counts
only as failed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, their
times scaled to the machine's speed as `stats` describes; the raw figures
are printed beside them.  ``--trace 1`` runs exactly one pass untraced and
then the same pass traced, reports the per-layer metrics, and gives the
tracing overhead as the traced pass's scaled op time over the untraced
pass's, minus one.  The spans go to ``perfbench/out/<workload>-seed<n>.spans``.

The last line of stdout is the run's result as one JSON object; the same
result, with the machine it ran on, goes to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
GOLDEN_SEED = 0
SETUP_ROUNDS = 5
MIN_OPS = 100  # at least ten samples beyond p90
MAX_RUN_SECONDS = 150  # stop early rather than overrun a run's time limit

import stats  # noqa: E402  (the benchmark's own modules sit beside this file)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def load_program():
    """Import ``artifact`` afresh from the checkout's sources."""
    for name in [n for n in sys.modules if n == "artifact" or n.startswith("artifact.")]:
        del sys.modules[name]
    cli = importlib.import_module("artifact.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"artifact was imported from {cli.__file__}, not from {SRC}")
    return cli


def execute(cli, argv: list[str]) -> tuple[float, int | None, str, str | None]:
    """One op: (seconds in main, exit code, stdout, what it raised)."""
    out = io.StringIO()
    raised = None
    code = None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            raised = f"raised {type(exc).__name__}"
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), raised


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Verifier:
    """Judges each op's outcome and keeps the first pass's digests."""

    def __init__(self, golden: dict | None) -> None:
        self.golden = golden or {}
        self.first: dict[str, str] = {}
        self.lines: list[str] = []  # "key<TAB>digest or failure", first pass
        self.wrong = 0

    def judge(self, op: workloads.Op, code: int | None, out: str, raised: str | None) -> str | None:
        if raised:
            problem = raised
        else:
            problem = self._check_output(op, code, out)
            if problem:
                self.wrong += 1
        if op.key not in self.first:
            self.first[op.key] = digest(out) if not raised else raised
            self.lines.append(f"{op.key}\t{problem or self.first[op.key]}")
        return problem

    def _check_output(self, op: workloads.Op, code: int | None, out: str) -> str | None:
        d = digest(out)
        if code != 0:
            return f"exit code {code}"
        if self.first.get(op.key, d) != d:
            return "stdout differs from this op's first run"
        if self.golden.get(op.key) not in (None, d):
            return "stdout differs from the golden digest"
        if op.same_as in self.first and self.first[op.same_as] != d:
            return f"stdout differs from {op.same_as}"
        try:
            return op.check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable stdout ({type(exc).__name__}: {exc})"

    def combined(self) -> str:
        return digest("".join(line + "\n" for line in self.lines))


def run_ops(cli, ops, verifier: Verifier, deadline: float, seconds: float = 0,
            min_ops: int = 0, tracer=None) -> list[stats.Outcome]:
    """Run whole passes over the ops until ``seconds`` have passed and
    ``min_ops`` ops ran (by default, one pass), or the ``deadline`` is
    reached.  Every run then has the same mix of ops, however many passes
    fit."""
    outcomes = []
    start = time.perf_counter()
    before = stats.calibrate()
    while True:
        for op in ops:
            if tracer:
                tracer.op_id = len(outcomes)
            took, code, out, raised = execute(cli, op.argv)
            after = stats.calibrate()
            problem = verifier.judge(op, code, out, raised)
            outcomes.append(stats.Outcome(op.key, took, problem, len(out.encode("utf-8")),
                                          (before + after) / 2))
            before = after
            if time.perf_counter() > deadline:
                return outcomes
        if time.perf_counter() - start >= seconds and len(outcomes) >= min_ops:
            return outcomes


def failure_summary(outcomes: list[stats.Outcome]) -> list[str]:
    counts = Counter(
        (o.key.split("/")[0], o.failure) for o in outcomes if o.failure
    )
    return [f"{n} x {family} ops: {why}" for (family, why), n in sorted(counts.items())]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_golden(workload: str, seed: int) -> dict | None:
    if seed != GOLDEN_SEED or not GOLDEN.exists():
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {}).get("ops")


def record_golden(workload: str, verifier: Verifier) -> None:
    data = {"seed": GOLDEN_SEED, "workloads": {}}
    if GOLDEN.exists():
        with open(GOLDEN, encoding="utf-8") as fh:
            data = json.load(fh)
    data["workloads"][workload] = {
        "digest": verifier.combined(),
        "ops": {
            key: (d if not d.startswith("raised ") else None)
            for key, d in verifier.first.items()
        },
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program, write the inputs and warm up, ``SETUP_ROUNDS``
    times over; each round is one sample of the set-up time."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        before = stats.calibrate()
        start = time.perf_counter()
        cli = load_program()
        ops = workloads.build(workload, seed, workdir)
        for argv in workloads.WARMUP[workload]:
            execute(cli, argv)
        took = time.perf_counter() - start
        rounds.append(stats.Outcome("set-up", took, calibration=(before + stats.calibrate()) / 2))
    return cli, ops, rounds


def end_to_end(outcomes: list[stats.Outcome], setups: list[stats.Outcome]) -> dict:
    """Every end-to-end figure, scaled and raw: name -> (value, unit, note)."""
    n = len(outcomes)
    beyond = n - math.ceil(0.9 * n)
    out = {}
    for prefix, scaled in (("scaled_", True), ("", False)):
        out[prefix + "throughput_ops_s"] = (
            stats.throughput(outcomes, scaled), "1/s",
            f"{n - sum(1 for o in outcomes if o.failure)} successful ops")
        out[prefix + "latency_p50_ms"] = (
            stats.percentile(outcomes, 0.50, scaled) * 1e3, "ms", f"{n} samples")
        out[prefix + "latency_p90_ms"] = (
            stats.percentile(outcomes, 0.90, scaled) * 1e3, "ms",
            f"{n} samples, {beyond} beyond p90")
    out["setup_s"] = (statistics.median(o.scaled for o in setups), "s",
                      f"scaled, median of {len(setups)} set-ups")
    out["raw_setup_s"] = (statistics.median(o.seconds for o in setups), "s",
                          f"median of {len(setups)} set-ups")
    out["failed_frac"] = (stats.failed_frac(outcomes), "1",
                          f"{sum(1 for o in outcomes if o.failure)} of {n} ops")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                          "one process")
    return out


def per_layer(cli, ops, verifier: Verifier, untraced: list[stats.Outcome], deadline: float):
    """Run the pass again with spans recorded: (figures, traced outcomes, spans)."""
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = run_ops(cli, ops, verifier, deadline, tracer=tr)
    finally:
        tr.uninstall()
    figures = tracing.layer_metrics(tr.log, tr.counts)
    figures["cli.stdout_bytes"] = sum(o.stdout_bytes for o in traced)
    figures["trace.overhead_frac"] = (sum(o.scaled for o in traced)
                                      / sum(o.scaled for o in untraced) - 1)
    return figures, traced, tr.log


def run_workload(args) -> int:
    spec = load_spec()
    env = environment()
    deadline = time.perf_counter() + MAX_RUN_SECONDS
    workdir = OUT / f"inputs-{args.workload}-{os.getpid()}"
    try:
        cli, ops, setups = set_up(args.workload, args.seed, workdir)
        verifier = Verifier(None if args.record_golden else load_golden(args.workload, args.seed))
        traced = []
        if args.record_golden or args.trace:
            outcomes = run_ops(cli, ops, verifier, deadline)
        else:
            outcomes = run_ops(cli, ops, verifier, deadline, args.seconds, MIN_OPS)
        figures = end_to_end(outcomes, setups)
        notes = [f"{len(ops)} ops per pass"]
        if len(outcomes) % len(ops):
            notes.append(f"stopped inside a pass after {MAX_RUN_SECONDS} s")
        if args.record_golden:
            if verifier.wrong:
                print(f"perfbench: {verifier.wrong} ops printed wrong output; "
                      "golden digests not written", file=sys.stderr)
                return 1
            record_golden(args.workload, verifier)
            notes.append(f"golden digests written to {GOLDEN.relative_to(ROOT)}")
            metrics = {}
        elif args.trace:
            layer, traced, log = per_layer(cli, ops, verifier, outcomes, deadline)
            if len(traced) < len(ops):
                notes.append(f"traced pass stopped after {len(traced)} ops at the deadline")
            stem = OUT / f"{args.workload}-seed{args.seed}"
            log.write(str(stem))
            notes.append("the figures above are from the untraced pass; the traced pass "
                         f"failed {sum(1 for o in traced if o.failure)} of {len(traced)} ops")
            notes.append(f"{len(log)} spans written to {stem.relative_to(ROOT)}.spans")
            metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}
        else:
            metrics = {m["name"]: figures[m["name"]][:2] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"Python {env['python']}, nproc {env['nproc']}, {env['platform']}")
    for name, (value, unit, note) in figures.items():
        print(f"  {name:26s} {value:12.6g} {unit:4s} {note}")
    for line in failure_summary(outcomes):
        print(f"    {line}")
    for name, (value, unit) in metrics.items():
        if name not in figures:
            print(f"  {name:36s} {value:12.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  digest {args.workload} seed {args.seed}: {verifier.combined()}")

    attempted = outcomes + traced
    result = {
        "correct": verifier.wrong == 0,
        "attempted": len(attempted),
        "failed": sum(1 for o in attempted if o.failure),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "figures": {name: value for name, (value, _, _) in figures.items()},
        "failures": failure_summary(outcomes), "digest": verifier.combined(),
        "result": result,
        "ops": [[o.key, o.seconds, o.calibration, o.failure] for o in attempted],
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record_golden:
            cmd.append("--record-golden")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"workload {w} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[w] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="run one pass at seed 0 and store its stdout digests")
    args = parser.parse_args(argv)
    if args.record_golden:
        args.seed = GOLDEN_SEED
    if not (SRC / "artifact" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'artifact'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
