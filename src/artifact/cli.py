"""Command-line front end for the whole workbench.

Subcommands
-----------
``fp EXPR``
    Evaluate an arithmetic expression in the p-bit float model and print
    the significand/exponent pair with a decimal approximation.  The
    expression grammar covers decimal literals, ``+ - * /``, parentheses,
    and the functions ``floor exp log sqrt sigmoid softplus silu``.
``mamba run|compare|depth``
    Forward pass of the selective state-space block (writes activations as
    JSON), dual-route recurrent-vs-convolution comparison with the mode's
    gap bound, and the symbolic depth report with per-component verdicts.
``circuit synth|check|rewrite|eval|depth``
    Synthesize float primitives as threshold-gate netlists, check a
    synthesized circuit against the scalar reference semantics, rewrite
    AND/OR/THRESHOLD to majority-only form, evaluate a netlist on
    assignments, and report size/depth.
``hardness gen|eval|barrington``
    Emit labelled instance corpora (formula evaluation, word problem),
    re-derive labels of an existing corpus, and run the width-5
    branching-program transform on a netlist.

Models and inputs are JSON; netlists and corpora are line-oriented text.
A model file holds ``{"shape": {...}, "params": ...}`` where ``params`` is
``"random"`` (with ``"seed"``/``"positive"``), ``"zero"``, or explicit
nested rationals as produced by the library's serializer.  Every command is
a deterministic function of its arguments and seeds: JSON is printed with
sorted keys, no timestamps are embedded, and reruns are byte-identical.

Exit codes: 0 on success, 1 when a check fails or arithmetic leaves the
model's domain (division by zero, overflow), 2 for usage or input-syntax
errors.  Set ``ARTIFACT_LOG=debug`` for diagnostic logging; there are no
other environment knobs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from artifact.circuits import (
    Circuit,
    CircuitError,
    ParseError,
    evaluate,
    evaluate_many,
    is_majority_only,
    parse_netlist,
    serialize_netlist,
    to_majority_only,
)
from artifact.contexts import ExactScalars, PBitScalars
from artifact.depth import DEFAULT_ASSIGNMENT, default_shape_grid, depth_report
from artifact.elementary import (
    NegativeInput,
    NonPositiveInput,
    exp_fp,
    log_fp,
    sigmoid_fp,
    silu_fp,
    softplus_fp,
    sqrt_fp,
)
from artifact.floats import (
    FpError,
    FpNumber,
    fp_add,
    fp_div,
    fp_floor,
    fp_mul,
    round_p,
)
from artifact.hardness import (
    DomainMismatch,
    FormulaParseError,
    UnsupportedGate,
    barrington_transform,
    eval_instance,
    eval_pbp,
    gen_instances,
    lower_or_gates,
)
from artifact.mamba import (
    MambaParams,
    ShapeConfig,
    forward_matrix,
    random_input,
    random_params,
)
from artifact.matrices import FpMatrix, ShapeMismatch, max_rel_gap
from artifact.synthesis import (
    SYNTH_KINDS,
    UnsupportedPrecision,
    check_op,
    synth_primitive,
)

log = logging.getLogger("artifact.cli")


class CliUsageError(ValueError):
    """Bad arguments or malformed input files (exit code 2)."""


# ------------------------------------------------------------- fp command


_UNARY_FNS: dict[str, Callable[[FpNumber], FpNumber]] = {
    "floor": fp_floor,
    "exp": exp_fp,
    "log": log_fp,
    "sqrt": sqrt_fp,
    "sigmoid": sigmoid_fp,
    "softplus": softplus_fp,
    "silu": silu_fp,
}


def _tokenize_expr(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise CliUsageError(f"unexpected character {ch!r} in expression")
    return tokens


def eval_expression(text: str, p: int) -> FpNumber:
    """Evaluate the expression with every operation rounded to p bits."""
    tokens = _tokenize_expr(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise CliUsageError("unexpected end of expression")
        pos += 1
        return tokens[pos - 1]

    def parse_sum() -> FpNumber:
        value = parse_product()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_product()
            if op == "-":
                rhs = FpNumber(-rhs.m, rhs.e, rhs.p)
            value = fp_add(value, rhs)
        return value

    def parse_product() -> FpNumber:
        value = parse_unary()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_unary()
            value = fp_mul(value, rhs) if op == "*" else fp_div(value, rhs)
        return value

    def parse_unary() -> FpNumber:
        if peek() == "-":
            take()
            inner = parse_unary()
            return FpNumber(-inner.m, inner.e, inner.p)
        return parse_atom()

    def parse_atom() -> FpNumber:
        tok = take()
        if tok == "(":
            value = parse_sum()
            if take() != ")":
                raise CliUsageError("missing ')'")
            return value
        if tok in _UNARY_FNS:
            if take() != "(":
                raise CliUsageError(f"{tok} needs parenthesized argument")
            arg = parse_sum()
            if take() != ")":
                raise CliUsageError("missing ')'")
            return _UNARY_FNS[tok](arg)
        if tok[0].isdigit() or tok[0] == ".":
            try:
                if "." in tok:
                    whole, _, frac = tok.partition(".")
                    if "." in frac:
                        raise ValueError
                    num = int((whole or "0") + (frac or "0"))
                    value = Fraction(num, 10 ** len(frac))
                else:
                    value = Fraction(int(tok))
            except ValueError:
                raise CliUsageError(f"bad numeric literal {tok!r}") from None
            return round_p(value, p)
        raise CliUsageError(f"unexpected token {tok!r}")

    result = parse_sum()
    if pos != len(tokens):
        raise CliUsageError(f"trailing tokens after position {pos}")
    return result


def _decimal_approx(x: FpNumber, digits: int = 12) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.m) * (Decimal(2) ** x.e))


def cmd_fp(args: argparse.Namespace) -> int:
    value = eval_expression(args.expr, args.precision)
    print(f"(m={value.m}, e={value.e}, p={value.p}) ~ {_decimal_approx(value)}")
    return 0


# ---------------------------------------------------------- mamba helpers


def _parse_shape(text: str) -> ShapeConfig:
    parts = text.split(",")
    if len(parts) != 5:
        raise CliUsageError("--shape needs five integers L,D,E,n,K")
    try:
        l, d, e, n, k = (int(x) for x in parts)
    except ValueError:
        raise CliUsageError(f"bad --shape {text!r}") from None
    return ShapeConfig(l, d, e, n, k)


def _zero_params(shape: ShapeConfig) -> MambaParams:
    z = Fraction(0)

    def vec(k: int) -> tuple:
        return (z,) * k

    def mat(r: int, c: int) -> tuple:
        return tuple(vec(c) for _ in range(r))

    l, d, e, n, k = (
        shape.seq_len,
        shape.d_model,
        shape.d_inner,
        shape.d_state,
        shape.kernel_size,
    )
    return MambaParams(
        w_x_in=mat(d, e),
        b_x_in=vec(e),
        w_conv=tuple(mat(e, e) for _ in range(k)),
        a_diag=vec(n),
        b_base=mat(n, e),
        c_base=mat(e, n),
        w_b=mat(n, l),
        p_b=mat(e, e),
        w_c=mat(e, l),
        p_c=mat(e, n),
        w_delta=vec(l),
        p_delta=vec(e),
        w_delta_scalar=z,
        w_x_out=mat(e, d),
        b_x_out=vec(d),
    )


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliUsageError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"{path}: invalid JSON ({exc})") from None


def _load_model(args: argparse.Namespace) -> tuple[ShapeConfig, MambaParams]:
    if args.model:
        obj = _load_json(args.model)
        try:
            shape = ShapeConfig.from_json_dict(obj["shape"])
            params_field = obj.get("params", "random")
            if params_field == "random":
                params = random_params(
                    shape,
                    int(obj.get("seed", args.seed)),
                    bool(obj.get("positive", False)),
                )
            elif params_field == "zero":
                params = _zero_params(shape)
            else:
                params = MambaParams.from_json_dict(params_field)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliUsageError(f"{args.model}: bad model ({exc})") from None
        params.validate(shape)
        return shape, params
    if args.shape:
        shape = _parse_shape(args.shape)
        return shape, random_params(shape, args.seed, args.positive)
    raise CliUsageError("provide --model FILE or --shape L,D,E,n,K")


def _entry_fraction(x: object) -> Fraction:
    if isinstance(x, bool):
        raise CliUsageError(f"bad matrix entry {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError:
            raise CliUsageError(f"bad matrix entry {x!r}") from None
    if isinstance(x, float):
        return Fraction(str(x))
    raise CliUsageError(f"bad matrix entry {x!r}")


def _load_input(args: argparse.Namespace, shape: ShapeConfig) -> list[list[Fraction]]:
    if args.input:
        obj = _load_json(args.input)
        if isinstance(obj, dict):
            if "entries" not in obj:
                raise CliUsageError(f"{args.input}: input object needs \"entries\"")
            obj = obj["entries"]
        if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
            raise CliUsageError(f"{args.input}: input must be a list of rows")
        entries = [[_entry_fraction(x) for x in row] for row in obj]
        if len(entries) != shape.seq_len or any(
            len(r) != shape.d_model for r in entries
        ):
            raise CliUsageError("input must be seq_len x d_model")
        return entries
    seed = args.input_seed if args.input_seed is not None else args.seed + 1
    return random_input(shape, seed)


def _matrix_json(m: FpMatrix) -> dict:
    if m.mode == "pbit":
        entries = [[[x.m, x.e] for x in row] for row in m.data]
    else:
        entries = [[str(x) for x in row] for row in m.data]
    return {
        "mode": m.mode,
        "p": m.p,
        "rows": m.rows,
        "cols": m.cols,
        "entries": entries,
    }


def _dump(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _run_forward(args: argparse.Namespace, form: str) -> FpMatrix:
    shape, params = _load_model(args)
    entries = _load_input(args, shape)
    x = FpMatrix.from_fractions(
        entries, args.mode, args.precision if args.mode == "pbit" else None
    )
    return forward_matrix(shape, params, x, form=form)


def cmd_mamba_run(args: argparse.Namespace) -> int:
    y = _run_forward(args, args.form)
    _dump(_matrix_json(y), args.out)
    if args.out:
        print(f"wrote {y.rows}x{y.cols} activations to {args.out}")
    return 0


def cmd_mamba_compare(args: argparse.Namespace) -> int:
    shape, params = _load_model(args)
    entries = _load_input(args, shape)
    x = FpMatrix.from_fractions(
        entries, args.mode, args.precision if args.mode == "pbit" else None
    )
    rec = forward_matrix(shape, params, x, form="recurrent")
    conv = forward_matrix(shape, params, x, form="convolution")
    gap = max_rel_gap(rec, conv)
    if args.mode == "exact":
        bound = Fraction(0)
    else:
        bound = Fraction(64 * shape.seq_len, 2**args.precision)
    ok = gap <= bound
    report = {
        "mode": args.mode,
        "p": args.precision if args.mode == "pbit" else None,
        "shape": shape.to_json_dict(),
        "max_rel_gap": str(gap),
        "bound": str(bound),
        "within_bound": ok,
    }
    _dump(report, args.out)
    return 0 if ok else 1


def _parse_assignment(text: str | None) -> dict[str, int]:
    assignment = dict(DEFAULT_ASSIGNMENT)
    if not text:
        return assignment
    for item in text.split(","):
        name, _, raw = item.partition("=")
        name = name.strip()
        try:
            value = int(raw)
        except ValueError:
            raise CliUsageError(f"bad --assign entry {item!r}") from None
        if name == "all":
            assignment = {key: value for key in assignment}
        elif name in assignment:
            assignment[name] = value
        else:
            raise CliUsageError(f"unknown depth constant {name!r}")
    return assignment


_DEPTH_DEFAULT_SHAPES = (
    ShapeConfig(1, 1, 1, 1, 1),
    ShapeConfig(2, 2, 2, 2, 2),
    ShapeConfig(4, 3, 3, 3, 2),
)


def cmd_mamba_depth(args: argparse.Namespace) -> int:
    if args.shape:
        shapes: Sequence[ShapeConfig] = [_parse_shape(args.shape)]
    elif args.full_grid:
        shapes = default_shape_grid()
    else:
        shapes = _DEPTH_DEFAULT_SHAPES
    assignment = _parse_assignment(args.assign)
    report = depth_report(
        shapes=shapes, p=args.precision, assignment=assignment, strict=False
    )
    _dump(report, args.out)
    ok = True
    for comp in report["components"].values():
        ok = ok and comp["identical_across_shapes"]
        if "matches_registry_exactly" in comp:
            ok = ok and comp["matches_registry_exactly"]
            ok = ok and comp["check"]["verdict"] == "within_bound"
    ok = ok and report["mamba"]["compositional"]["verdict"] == "within_bound"
    return 0 if ok else 1


# --------------------------------------------------------------- circuits


def _read_netlist(path: str) -> Circuit:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliUsageError(f"no such file: {path}") from None
    return parse_netlist(text)


def _circuit_stats(c: Circuit) -> dict:
    return {
        "n_inputs": c.n_inputs,
        "n_outputs": len(c.outputs),
        "gates": len(c.gates),
        "size": c.size,
        "depth": c.depth,
    }


def cmd_circuit_synth(args: argparse.Namespace) -> int:
    op = synth_primitive(
        args.kind, args.precision, exp_bits=args.window, m=args.operands
    )
    text = serialize_netlist(op.circuit)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        summary = {"kind": op.kind, "p": op.p, "out": args.out}
        summary.update(_circuit_stats(op.circuit))
        _dump(summary, None)
    else:
        sys.stdout.write(text)
    return 0


def cmd_circuit_check(args: argparse.Namespace) -> int:
    op = synth_primitive(
        args.kind, args.precision, exp_bits=args.window, m=args.operands
    )
    if args.kind == "iter_add":
        rng = random.Random(args.seed)
        values = op.input_encoding.enumerate_values()
        cases = [
            tuple(rng.choice(values) for _ in range(args.operands))
            for _ in range(args.cases)
        ]
        report = check_op(op, cases)
        label = "sampled"
    else:
        report = check_op(op)
        label = "exhaustive"
    verdict = "PASS" if report["ok"] else "FAIL"
    print(f"{label}: {verdict} ({report['cases']} cases, kind={args.kind}, "
          f"p={args.precision})")
    if not report["ok"]:
        _dump({"mismatches": report["mismatches"]}, None)
        return 1
    return 0


def cmd_circuit_rewrite(args: argparse.Namespace) -> int:
    circuit = _read_netlist(args.netlist)
    rewritten = to_majority_only(circuit)
    assert is_majority_only(rewritten)
    text = serialize_netlist(rewritten)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        _dump(
            {
                "out": args.out,
                "before": _circuit_stats(circuit),
                "after": _circuit_stats(rewritten),
            },
            None,
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_circuit_eval(args: argparse.Namespace) -> int:
    circuit = _read_netlist(args.netlist)
    assignments = []
    for bits in args.bits:
        if len(bits) != circuit.n_inputs or any(c not in "01" for c in bits):
            raise CliUsageError(
                f"--bits needs {circuit.n_inputs} binary digits, got {bits!r}"
            )
        assignments.append([int(c) for c in bits])
    if not assignments:
        raise CliUsageError("provide at least one --bits assignment")
    for outputs in evaluate_many(circuit, assignments):
        print("".join(str(b) for b in outputs))
    return 0


def cmd_circuit_depth(args: argparse.Namespace) -> int:
    circuit = _read_netlist(args.netlist)
    stats = _circuit_stats(circuit)
    stats["majority_only"] = is_majority_only(circuit)
    _dump(stats, args.out)
    return 0


# --------------------------------------------------------------- hardness


def cmd_hardness_gen(args: argparse.Namespace) -> int:
    corpus = gen_instances(args.kind, args.size, args.seed, count=args.count)
    if args.out:
        Path(args.out).write_text(corpus.instances_text(), encoding="utf-8")
        Path(args.out + ".labels").write_text(
            corpus.labels_text(), encoding="utf-8"
        )
        print(f"wrote {len(corpus.instances)} instances to {args.out} "
              f"(+ labels sidecar)")
    else:
        sys.stdout.write(corpus.instances_text())
    return 0


def cmd_hardness_eval(args: argparse.Namespace) -> int:
    try:
        lines = Path(args.corpus).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise CliUsageError(f"no such file: {args.corpus}") from None
    lines = [ln for ln in lines if ln.strip()]
    computed = [eval_instance(args.kind, ln) for ln in lines]
    labels_path = args.labels or (
        args.corpus + ".labels"
        if Path(args.corpus + ".labels").exists()
        else None
    )
    if labels_path is None:
        for label in computed:
            print(label)
        return 0
    try:
        want = [
            ln
            for ln in Path(labels_path).read_text(encoding="utf-8").splitlines()
            if ln.strip()
        ]
    except FileNotFoundError:
        raise CliUsageError(f"no such file: {labels_path}") from None
    if len(want) != len(computed):
        print(f"labels: FAIL (expected {len(computed)} labels, "
              f"file has {len(want)})")
        return 1
    bad = [i for i, (a, b) in enumerate(zip(computed, want)) if a != b]
    if bad:
        print(f"labels: FAIL ({len(computed) - len(bad)}/{len(computed)} "
              f"match; first mismatch at line {bad[0] + 1})")
        return 1
    print(f"labels: PASS ({len(computed)}/{len(computed)})")
    return 0


def cmd_hardness_barrington(args: argparse.Namespace) -> int:
    circuit = _read_netlist(args.netlist)
    if args.lower:
        circuit = lower_or_gates(circuit)
    program = barrington_transform(circuit)
    bound = 4**circuit.depth
    report = {
        "instructions": len(program),
        "circuit_depth": circuit.depth,
        "length_bound": bound,
        "length_ok": len(program) <= bound,
    }
    if args.check:
        if circuit.n_inputs > 12:
            report["equivalence"] = "skipped"
        else:
            n = circuit.n_inputs
            failures = 0
            for a in range(1 << n):
                bits = [(a >> i) & 1 for i in range(n)]
                if eval_pbp(program, bits) != evaluate(circuit, bits)[0]:
                    failures += 1
            report["equivalence"] = "pass" if failures == 0 else "fail"
            report["assignments"] = 1 << n
            report["failures"] = failures
    _dump(report, args.out)
    ok = report["length_ok"] and report.get("equivalence") != "fail"
    return 0 if ok else 1


# ------------------------------------------------------------ arg parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="p-bit float workbench: scalar model, state-space block, "
        "depth calculus, circuit synthesis, hardness corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_precision(p: argparse.ArgumentParser, default: int = 16) -> None:
        p.add_argument(
            "-p", "--precision", type=int, default=default,
            help=f"significand bits (default {default})",
        )

    fp = sub.add_parser("fp", help="evaluate an expression in p-bit floats")
    fp.add_argument("expr", help="e.g. 'log(2)' or '(1+3)*silu(2)'")
    add_precision(fp)
    fp.set_defaults(func=cmd_fp)

    mamba = sub.add_parser("mamba", help="selective state-space block")
    mamba_sub = mamba.add_subparsers(dest="subcommand", required=True)

    def add_model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", help="model JSON file")
        p.add_argument("--shape", help="synthesize a model: L,D,E,n,K")
        p.add_argument("--seed", type=int, default=0, help="parameter seed")
        p.add_argument(
            "--positive", action="store_true",
            help="draw positive (cancellation-free) parameters",
        )
        p.add_argument("--input", help="input JSON file (entries L x D)")
        p.add_argument(
            "--input-seed", type=int, default=None,
            help="input seed (default: --seed + 1)",
        )
        p.add_argument(
            "--mode", choices=("pbit", "exact"), default="pbit",
            help="arithmetic mode (default pbit)",
        )
        add_precision(p)
        p.add_argument("-o", "--out", help="output file (default stdout)")

    run = mamba_sub.add_parser("run", help="forward pass, write activations")
    add_model_args(run)
    run.add_argument(
        "--form", choices=("recurrent", "convolution"), default="recurrent",
        help="state-space evaluation route (default recurrent)",
    )
    run.set_defaults(func=cmd_mamba_run)

    cmp_ = mamba_sub.add_parser(
        "compare", help="recurrent vs convolution entrywise gap"
    )
    add_model_args(cmp_)
    cmp_.set_defaults(func=cmd_mamba_compare)

    dep = mamba_sub.add_parser("depth", help="symbolic depth report")
    dep.add_argument(
        "--assign", help="depth constants, e.g. all=1 or d_exp=2,d_dup=0"
    )
    dep.add_argument("--shape", help="single shape L,D,E,n,K")
    dep.add_argument(
        "--full-grid", action="store_true",
        help="use the full L x D x E x n shape grid (slower)",
    )
    add_precision(dep)
    dep.add_argument("-o", "--out", help="output file (default stdout)")
    dep.set_defaults(func=cmd_mamba_depth)

    circ = sub.add_parser("circuit", help="threshold-circuit IR and synthesis")
    circ_sub = circ.add_subparsers(dest="subcommand", required=True)

    synth = circ_sub.add_parser("synth", help="synthesize a float primitive")
    synth.add_argument("kind", choices=sorted(SYNTH_KINDS))
    add_precision(synth, default=3)
    synth.add_argument(
        "--window", type=int, default=None,
        help="exponent bits (default: p)",
    )
    synth.add_argument(
        "-m", "--operands", type=int, default=None,
        help="operand count (iter_add only)",
    )
    synth.add_argument("-o", "--out", help="netlist file (default stdout)")
    synth.set_defaults(func=cmd_circuit_synth)

    check = circ_sub.add_parser(
        "check", help="synthesize and compare against scalar semantics"
    )
    check.add_argument("kind", choices=sorted(SYNTH_KINDS))
    add_precision(check, default=3)
    check.add_argument("--window", type=int, default=None)
    check.add_argument("-m", "--operands", type=int, default=None)
    check.add_argument(
        "--cases", type=int, default=200,
        help="sampled case count for iter_add (default 200)",
    )
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=cmd_circuit_check)

    rewrite = circ_sub.add_parser(
        "rewrite", help="rewrite to majority-only gates"
    )
    rewrite.add_argument("netlist")
    rewrite.add_argument("-o", "--out", help="output netlist (default stdout)")
    rewrite.set_defaults(func=cmd_circuit_rewrite)

    ceval = circ_sub.add_parser("eval", help="evaluate a netlist")
    ceval.add_argument("netlist")
    ceval.add_argument(
        "--bits", action="append", default=[],
        help="assignment as 0/1 string, one output line each (repeatable)",
    )
    ceval.set_defaults(func=cmd_circuit_eval)

    cdepth = circ_sub.add_parser("depth", help="report netlist size and depth")
    cdepth.add_argument("netlist")
    cdepth.add_argument("-o", "--out", help="output file (default stdout)")
    cdepth.set_defaults(func=cmd_circuit_depth)

    hard = sub.add_parser("hardness", help="formula/word-problem corpora")
    hard_sub = hard.add_subparsers(dest="subcommand", required=True)

    gen = hard_sub.add_parser("gen", help="generate a labelled corpus")
    gen.add_argument(
        "kind", help="bool | perm | arith | arith-zM (e.g. arith-z7)"
    )
    gen.add_argument("--size", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-n", "--count", type=int, default=100)
    gen.add_argument(
        "-o", "--out",
        help="instances file; labels go to OUT.labels (default: stdout, "
        "instances only)",
    )
    gen.set_defaults(func=cmd_hardness_gen)

    heval = hard_sub.add_parser(
        "eval", help="recompute labels; verify against a labels file"
    )
    heval.add_argument("kind")
    heval.add_argument("corpus")
    heval.add_argument(
        "--labels", help="labels file (default: CORPUS.labels if present)"
    )
    heval.set_defaults(func=cmd_hardness_eval)

    barr = hard_sub.add_parser(
        "barrington", help="width-5 branching program from a netlist"
    )
    barr.add_argument("netlist")
    barr.add_argument(
        "--lower", action="store_true",
        help="De Morgan-lower OR gates before transforming",
    )
    barr.add_argument(
        "--check", action="store_true",
        help="exhaustively compare program vs circuit (<= 12 inputs)",
    )
    barr.add_argument("-o", "--out", help="output file (default stdout)")
    barr.set_defaults(func=cmd_hardness_barrington)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if os.environ.get("ARTIFACT_LOG", "").lower() == "debug":
        logging.basicConfig(level=logging.DEBUG)
    parser = build_parser()
    args = parser.parse_args(argv)
    log.debug("dispatch %s", args.command)
    try:
        return args.func(args)
    except (FpError, NegativeInput, NonPositiveInput) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (
        CliUsageError,
        ParseError,
        CircuitError,
        FormulaParseError,
        DomainMismatch,
        UnsupportedGate,
        UnsupportedPrecision,
        ShapeMismatch,
        ValueError,
        OSError,
    ) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
