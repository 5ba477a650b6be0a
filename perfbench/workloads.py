"""The four workloads: seeded op lists over the `artifact` command line.

An op is one call of ``artifact.cli.main(argv)``.  `build` writes the op
list's input files into a work directory and returns the ops of one pass,
in the order they run.  Each op carries a check of its own stdout, so
correctness does not rest on a stored digest alone:

* ``mamba compare``: the gap is within 64·L·2^-p (p-bit) or exactly 0
  (exact);
* ``mamba run``: the activations have the right shape and are p-bit
  normal; in exact mode the recurrent and convolution routes print the
  same bytes;
* ``mamba depth``: the report covers the requested shape;
* ``circuit check``: PASS over the expected number of cases;
* ``hardness eval``: ``labels: PASS`` against labels from `reference`;
* ``hardness gen``: the requested number of well-formed lines;
* ``hardness barrington --check``: the program equals the circuit.

Each kind of op is spread evenly through the pass, so a run cut short at
its deadline still sees the workload's mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from reference import deep_comb, label, random_corpus

WORKLOADS = ("forward", "depth", "circuit", "corpus")

# A check gets the op's stdout and returns what is wrong with it, or None.
Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Op:
    key: str
    argv: list[str]
    check: Check
    same_as: str | None = None  # key of an op that must print the same bytes


def _merge(lists: list[list[Op]]) -> list[Op]:
    """Merge the lists so that each one is spread evenly over the result:
    item j of a list of n items sits at relative position (j + 1/2) / n."""
    placed = [((j + 0.5) / len(ops), i, op) for i, ops in enumerate(lists)
              for j, op in enumerate(ops)]
    return [op for _, _, op in sorted(placed, key=lambda t: t[:2])]


# ------------------------------------------------------------- forward

FORWARD_LENGTHS = {4: 12, 8: 4, 16: 1}  # L -> blocks per pass
FORWARD_DIMS = (4, 8, 4, 4)  # D, E, n, K
FORWARD_PRECISIONS = (16, 12, 24)  # block b runs pbit at FORWARD_PRECISIONS[b % 3]
FORWARD_FORMS = ("recurrent", "convolution")
# Each block draws its own parameters and inputs.  Many small blocks, one
# precision each, average the cost over more draws than a few blocks that
# run every precision, so the percentiles depend less on the seed.  At
# L=16 the ROADMAP's end-to-end case as written there stands in for the
# seeded pbit compare.
ROADMAP_COMPARE = ["mamba", "compare", "--shape", "16,4,8,4,4"]


def _write_input(path: Path, rng: random.Random, rows: int, cols: int, positive: bool) -> None:
    lo = 1 if positive else -16
    entries = [[f"{rng.randint(lo, 16)}/16" for _ in range(cols)] for _ in range(rows)]
    path.write_text(json.dumps({"entries": entries}), encoding="utf-8")


def _check_run(L: int, mode: str, p: int | None) -> Check:
    def check(out: str) -> str | None:
        y = json.loads(out)
        if (y["mode"], y["p"], y["rows"], y["cols"]) != (mode, p, L, FORWARD_DIMS[0]):
            return "wrong activation header"
        rows = y["entries"]
        if len(rows) != L or any(len(r) != FORWARD_DIMS[0] for r in rows):
            return "wrong activation shape"
        for row in rows:
            for x in row:
                if mode == "exact":
                    Fraction(x)
                elif x != [0, 0] and not 2 ** (p - 1) <= abs(x[0]) < 2 ** p:
                    return f"entry {x} is not a normal {p}-bit float"
        return None

    return check


def _check_compare(L: int, mode: str, p: int | None) -> Check:
    bound = Fraction(64 * L, 2 ** p) if mode == "pbit" else Fraction(0)

    def check(out: str) -> str | None:
        report = json.loads(out)
        gap = Fraction(report["max_rel_gap"])
        if Fraction(report["bound"]) != bound or not report["within_bound"]:
            return f"bound {report['bound']} / within_bound {report['within_bound']}"
        if gap > bound:
            return f"gap {gap} exceeds {bound}"
        return None

    return check


def _forward(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"forward|{seed}")
    per_length = []
    for L, blocks in FORWARD_LENGTHS.items():
        shape = ",".join(map(str, (L,) + FORWARD_DIMS))
        ops = []
        for b in range(blocks):
            tag = f"L{L}b{b}"
            signed = workdir / f"{tag}.json"
            _write_input(signed, rng, L, FORWARD_DIMS[0], positive=False)
            pseed = str(rng.randrange(1 << 31))
            base = ["--shape", shape, "--seed", pseed]
            p_block = FORWARD_PRECISIONS[b % len(FORWARD_PRECISIONS)]
            for mode, p in (("pbit", p_block), ("exact", None)):
                prec = ["-p", str(p)] if p else []
                for form in FORWARD_FORMS:
                    # Exact arithmetic makes the two routes identical.
                    peer = f"run/{tag}/exact/recurrent" if form == "convolution" else None
                    ops.append(Op(
                        f"run/{tag}/{mode}{p or ''}/{form}",
                        ["mamba", "run", *base, "--input", str(signed),
                         "--mode", mode, *prec, "--form", form],
                        _check_run(L, mode, p),
                        peer if mode == "exact" else None,
                    ))
            if L < 16:
                positive = workdir / f"{tag}-pos.json"
                _write_input(positive, rng, L, FORWARD_DIMS[0], positive=True)
                ops.append(Op(
                    f"compare/{tag}/pbit{p_block}",
                    ["mamba", "compare", *base, "--positive", "--input", str(positive),
                     "-p", str(p_block)],
                    _check_compare(L, "pbit", p_block),
                ))
            else:
                ops.append(Op("compare/roadmap", ROADMAP_COMPARE, _check_compare(L, "pbit", 16)))
            ops.append(Op(
                f"compare/{tag}/exact",
                ["mamba", "compare", *base, "--input", str(signed), "--mode", "exact"],
                _check_compare(L, "exact", None),
            ))
        per_length.append(ops)
    return _merge(per_length)


# --------------------------------------------------------------- depth

# (L, D, E, n, K) beyond the 108-shape grid: longer sequences, where
# stage-barrier fan-in makes trace edges far outnumber nodes.
DEPTH_LONG_SHAPES = (
    (16, 1, 1, 1, 2),
    (16, 1, 2, 1, 2),
    (16, 2, 2, 1, 2),
    (16, 1, 2, 2, 2),
    (16, 2, 2, 2, 2),
    (16, 2, 2, 2, 4),
    (32, 1, 1, 1, 2),
    (32, 1, 1, 1, 4),
    (32, 1, 1, 2, 2),
    (32, 2, 2, 2, 2),
)


def _check_depth(shape: tuple[int, ...]) -> Check:
    want = dict(zip(("seq_len", "d_model", "d_inner", "d_state", "kernel_size"), shape))

    def check(out: str) -> str | None:
        report = json.loads(out)
        if report["shapes"] != [want]:
            return "report covers other shapes"
        if not all(c["identical_across_shapes"] for c in report["components"].values()):
            return "a component's depth varies"
        return None

    return check


def _depth(grid: list[tuple[int, ...]]) -> list[Op]:
    def op(shape):
        text = ",".join(map(str, shape))
        return Op(f"depth/{text}", ["mamba", "depth", "--shape", text], _check_depth(shape))

    # A stride coprime to 108 mixes short and long grid shapes.
    grid_ops = [op(grid[(i * 29) % len(grid)]) for i in range(len(grid))]
    return _merge([grid_ops, [op(shape) for shape in DEPTH_LONG_SHAPES]])


# ------------------------------------------------------------- circuit

CIRCUIT_KINDS = ("add", "mul", "compare")
CIRCUIT_WINDOWS = {2: (1, 2), 3: (1, 2, 3), 4: (1, 2, 3, 4)}  # p -> window bits
ITER_ADD_P = 3
ITER_ADD_OPERANDS = {2: 48, 8: 40, 32: 12, 64: 12}  # m -> sampled ops per pass
ITER_ADD_CASES = 200


def _check_circuit(label_: str, cases: int, kind: str, p: int) -> Check:
    want = f"{label_}: PASS ({cases} cases, kind={kind}, p={p})\n"

    def check(out: str) -> str | None:
        return None if out == want else f"expected {want.strip()!r}"

    return check


def _circuit(seed: int) -> list[Op]:
    rng = random.Random(f"circuit|{seed}")
    windows = [(p, w) for p, ws in CIRCUIT_WINDOWS.items() for w in ws]
    windows.sort(reverse=True)
    per_kind = []
    for i, kind in enumerate(CIRCUIT_KINDS):
        # Rotate each kind's sweep so the widest windows do not coincide.
        shift = i * len(windows) // len(CIRCUIT_KINDS)
        per_kind.append([
            Op(f"check/{kind}/p{p}/w{w}",
               ["circuit", "check", kind, "-p", str(p), "--window", str(w)],
               _check_circuit("exhaustive", (1 + 2 ** p * 2 ** w) ** 2, kind, p))
            for p, w in windows[shift:] + windows[:shift]
        ])
    sampled = []
    for m, count in ITER_ADD_OPERANDS.items():
        sampled.append([
            Op(f"check/iter_add/m{m}/{i}",
               ["circuit", "check", "iter_add", "-p", str(ITER_ADD_P), "-m", str(m),
                "--cases", str(ITER_ADD_CASES), "--seed", str(rng.randrange(1 << 31))],
               _check_circuit("sampled", ITER_ADD_CASES, "iter_add", ITER_ADD_P))
            for i in range(count)
        ])
    return _merge(per_kind + sampled)


# -------------------------------------------------------------- corpus

# (kind, size, lines per file, files): one gen op per entry, one eval op
# per file.  The twelve word-length-100 files make a tight cluster of ops
# at the slowest tenth of a pass, so p90 falls inside it rather than on
# the gap between the small ops and the long words.
CORPORA = (
    ("bool", 64, 20, 1),
    ("bool", 512, 20, 1),
    ("perm", 100, 20, 12),
    ("perm", 1000, 20, 1),
    ("perm", 10000, 2, 1),
    ("arith", 16, 20, 1),
    ("arith", 128, 20, 1),
    ("arith-z7", 16, 20, 1),
    ("arith-z7", 128, 20, 1),
)
DEEP_KINDS = ("bool", "arith", "arith-z7")
DEEP_DEPTH = 3000
DEEP_INSTANCES = 2


def _check_labels(n: int) -> Check:
    want = f"labels: PASS ({n}/{n})\n"

    def check(out: str) -> str | None:
        return None if out == want else f"expected {want.strip()!r}"

    return check


def _check_gen(kind: str, size: int, n: int) -> Check:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != n:
            return f"{len(lines)} lines, expected {n}"
        for line in lines:
            label(kind, line)  # raises on a malformed line
            if kind == "perm" and len(line.split()) != size:
                return "word of the wrong length"
        return None

    return check


def _check_barrington(out: str) -> str | None:
    report = json.loads(out)
    if not report["length_ok"] or report["equivalence"] != "pass":
        return f"length_ok={report['length_ok']} equivalence={report['equivalence']}"
    return None


def _write_corpus(path: Path, kind: str, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    labels = [label(kind, line) for line in lines]
    Path(str(path) + ".labels").write_text("\n".join(labels) + "\n", encoding="utf-8")


def _corpus(seed: int, workdir: Path, netlists: list[str]) -> list[Op]:
    rng = random.Random(f"corpus|{seed}")
    files = []
    for kind, size, n, copies in CORPORA:
        for c in range(copies):
            path = workdir / f"{kind}-{size}-{c}.txt"
            _write_corpus(path, kind, random_corpus(kind, size, n, rng))
            files.append(Op(f"eval/{kind}/{size}/{c}", ["hardness", "eval", kind, str(path)],
                            _check_labels(n)))
        s = str(rng.randrange(1 << 31))
        files.append(Op(f"gen/{kind}/{size}",
                        ["hardness", "gen", kind, "--size", str(size), "--seed", s,
                         "-n", str(n)],
                        _check_gen(kind, size, n)))
    deep = []
    for kind in DEEP_KINDS:
        path = workdir / f"deep-{kind}.txt"
        lines = [deep_comb(kind, DEEP_DEPTH, rng) for _ in range(DEEP_INSTANCES)]
        _write_corpus(path, kind, lines)
        deep.append(Op(f"eval-deep/{kind}/{DEEP_DEPTH}",
                        ["hardness", "eval", kind, str(path)],
                        _check_labels(DEEP_INSTANCES)))
    circuits = []
    for i, text in enumerate(netlists):
        path = workdir / f"small-{i}.net"
        path.write_text(text, encoding="utf-8")
        circuits.append(Op(f"barrington/{i}", ["hardness", "barrington", str(path), "--check"],
                           _check_barrington))
    return _merge([files, deep, circuits])


# ---------------------------------------------------------------- entry

# Small ops run once before timing: they fill the program's lazy caches
# (such as the fixed-point log2 table in `elementary`) at every precision
# the workload uses.
WARMUP = {
    "forward": [["mamba", "compare", "--shape", "2,1,2,1,1", "-p", str(p), "--positive"]
                for p in (12, 16, 24)]
    + [["mamba", "compare", "--shape", "2,1,2,1,1", "--mode", "exact"]],
    "depth": [["mamba", "depth", "--shape", "1,1,1,1,1"]],
    "circuit": [["circuit", "check", kind, "-p", "2", "--window", "2"] for kind in CIRCUIT_KINDS]
    + [["circuit", "check", "iter_add", "-p", "3", "-m", "2", "--cases", "4"]],
    "corpus": [["hardness", "gen", "perm", "--size", "4", "-n", "2"]],
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's inputs under ``workdir``; return one pass."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "forward":
        return _forward(seed, workdir)
    if workload == "depth":
        from artifact.depth import default_shape_grid

        grid = [(s.seq_len, s.d_model, s.d_inner, s.d_state, s.kernel_size)
                for s in default_shape_grid()]
        return _depth(grid)
    if workload == "circuit":
        return _circuit(seed)
    if workload == "corpus":
        from artifact.circuits import serialize_netlist
        from artifact.hardness import enumerate_small_circuits

        netlists = [serialize_netlist(c) for c in enumerate_small_circuits(3, 3)]
        return _corpus(seed, workdir, netlists)
    raise ValueError(f"unknown workload {workload!r}")
