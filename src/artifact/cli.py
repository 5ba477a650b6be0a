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
``"random"`` (with ``"seed"``/``"positive"``), ``"zero"``, or an object of
nested rationals laid out as ``artifact.mamba.PARAM_SCHEMA`` (the form
``MambaParams.to_json_dict`` writes).  Every command is a deterministic
function of its arguments and seeds: JSON is printed with sorted keys, no
timestamps are embedded, and reruns are byte-identical.

Exit codes: 0 on success, 1 when a check fails or arithmetic leaves the
model's domain (division by zero, overflow), 2 for usage or input-syntax
errors.  No environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from decimal import MAX_EMAX, MIN_EMIN, Decimal, Overflow, Underflow, localcontext
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import NoReturn, Sequence

from artifact._text import (
    _ASCII_DIGITS,
    _ASCII_WHITESPACE,
    _ascii_int,
    _ascii_number,
    _token_lines,
)
from artifact.circuits import (
    BLOCK_LANES,
    Circuit,
    evaluate_many,
    is_majority_only,
    parse_netlist,
    serialize_netlist,
    to_majority_only,
)
from artifact.depth import (
    DEFAULT_ASSIGNMENT,
    default_shape_grid,
    depth_report,
    resolve_assignment,
)
from artifact.elementary import NegativeInput, NonPositiveInput
from artifact.elementary import exp_fp, log_fp, sigmoid_fp, silu_fp, softplus_fp, sqrt_fp
from artifact.floats import FpError, FpNumber, fp_add, fp_div, fp_floor, fp_mul, round_p
from artifact.hardness import (
    _corpus_kind,
    barrington_transform,
    eval_instance,
    eval_pbp,
    gen_instances,
    lower_or_gates,
)
from artifact.mamba import (
    MambaParams,
    ShapeConfig,
    _json_int,
    forward_matrix,
    forward_routes,
    random_input,
    random_params,
)
from artifact.matrices import FpMatrix, max_rel_gap
from artifact.synthesis import MAX_PRECISION as SYNTH_MAX_PRECISION
from artifact.synthesis import MAX_SWEEP_LANES, SYNTH_KINDS, check_op, synth_primitive
from artifact.synthesis import _check_indices, _op_key


class CliUsageError(ValueError):
    """Bad arguments or malformed input files (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises :class:`CliUsageError` instead of
    printing usage and exiting, so bad arguments follow the one-line exit-2
    contract.  ``--help`` still prints usage and exits 0."""

    def error(self, message: str) -> NoReturn:
        raise CliUsageError(f"{self.prog}: {message}")


# ------------------------------------------------------------- fp command


# The grammar's function names, each a key of ``eval_expression``'s table.
_FUNCTIONS = ("floor", "exp", "log", "sqrt", "sigmoid", "softplus", "silu")


# ASCII only: ``str.isdigit`` would also take other scripts' digits.
_LITERAL_CHARS = frozenset(_ASCII_DIGITS + ".")


def _tokenize_expr(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in _ASCII_WHITESPACE:
            i += 1
        elif ch in "+-*/()":
            tokens.append(ch)
            i += 1
        elif ch in _LITERAL_CHARS:
            j = i
            while j < len(text) and text[j] in _LITERAL_CHARS:
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


def _literal(tok: str, p: int) -> FpNumber:
    if tok[0] not in _LITERAL_CHARS:
        raise CliUsageError(f"unexpected token {tok!r}")
    try:
        value = Fraction(tok)
    except ValueError:
        raise CliUsageError(f"bad numeric literal {tok!r}") from None
    return round_p(value, p)


def eval_expression(text: str, p: int) -> FpNumber:
    """Evaluate the expression with every operation rounded to p bits.

    Literals are ``round_p``, ``+ - * /`` are ``fp_add``/``fp_mul``/
    ``fp_div`` (``a - b`` adds ``-b``), ``floor`` is ``fp_floor`` and any
    other function ``name`` is ``name_fp``, all on ``FpNumber``.  Unary
    minus binds tightest, then ``* /``, then ``+ -``; binary operators
    associate to the left.  The parse runs on explicit operator and value
    stacks, so nesting depth is unbounded, and it applies each operation
    as soon as its right operand is complete.
    """
    # Built per call from the current bindings, which a profiler may wrap.
    table = {"+": fp_add, "*": fp_mul, "/": fp_div, "floor": fp_floor, "exp": exp_fp,
             "log": log_fp, "sqrt": sqrt_fp, "sigmoid": sigmoid_fp,
             "softplus": softplus_fp, "silu": silu_fp}
    values: list[FpNumber] = []
    ops: list[str] = []  # pending "neg", binary operators, "(" and function names

    def apply(op: str) -> None:
        x = values.pop()
        if op in ("neg", "-"):
            x = FpNumber(-x.m, x.e, x.p)
        if op == "neg":
            values.append(x)
        elif op in _FUNCTIONS:
            values.append(table[op](x))
        else:
            values[-1] = table["+" if op == "-" else op](values[-1], x)

    def operand_done() -> None:
        while ops and ops[-1] == "neg":
            apply(ops.pop())
        if ops and ops[-1] in ("*", "/"):
            apply(ops.pop())

    want_operand = True
    for tok in _tokenize_expr(text):
        if want_operand:
            if ops and ops[-1] in _FUNCTIONS and tok != "(":
                raise CliUsageError(f"{ops[-1]} needs parenthesized argument")
            if tok in ("-", "(") or tok in _FUNCTIONS:
                ops.append("neg" if tok == "-" else tok)
            else:
                values.append(_literal(tok, p))
                want_operand = False
                operand_done()
            continue
        if tok not in ("*", "/") and ops and ops[-1] in ("+", "-"):
            apply(ops.pop())
        if tok in ("+", "-", "*", "/"):
            ops.append(tok)
            want_operand = True
        elif tok == ")" and ops and ops[-1] == "(":
            ops.pop()
            if ops and ops[-1] in _FUNCTIONS:
                apply(ops.pop())
            operand_done()
        else:
            raise CliUsageError(f"unexpected token {tok!r} after an operand")
    if want_operand:
        raise CliUsageError("unexpected end of expression")
    if ops and ops[-1] in ("+", "-"):
        apply(ops.pop())
    if ops:
        raise CliUsageError("missing ')'")
    return values[0]


_APPROX_DIGITS = 12  # significant digits of the decimal that ``fp`` prints


def _decimal_approx(x: FpNumber) -> str:
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = _APPROX_DIGITS, MAX_EMAX, MIN_EMIN
        ctx.traps[Underflow] = True
        try:
            return str(Decimal(x.m) * (Decimal(2) ** x.e))
        except (Overflow, Underflow):
            return "(beyond the decimal exponent range)"


def cmd_fp(args: argparse.Namespace) -> int:
    if args.expr is None:
        raise CliUsageError("artifact fp: the following arguments are required: expr")
    value = eval_expression(args.expr, args.precision)
    print(f"(m={value.m}, e={value.e}, p={value.p}) ~ {_decimal_approx(value)}")
    return 0


# ---------------------------------------------------------- mamba helpers


def _parse_shape(text: str) -> ShapeConfig:
    parts = text.split(",")
    if len(parts) != 5:
        raise CliUsageError("--shape needs five integers L,D,E,n,K")
    dims = [_ascii_int(x) for x in parts]
    if None in dims:
        raise CliUsageError(f"bad --shape {text!r}")
    return ShapeConfig(*dims)


def _read_text(path: str) -> str:
    """The text of an input file; a missing one is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliUsageError(f"no such file: {path}") from None


def _load_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise CliUsageError(f"{path}: JSON nested too deeply") from None


_MODEL_KEYS = ("shape", "params", "seed", "positive")


def _load_model(args: argparse.Namespace) -> tuple[ShapeConfig, MambaParams]:
    if args.model:
        obj = _load_json(args.model)
        if not isinstance(obj, dict):
            raise CliUsageError(f"{args.model}: model must be a JSON object")
        for key in obj:
            if key not in _MODEL_KEYS:
                raise CliUsageError(f"{args.model}: bad model (unknown key {key!r})")
        if "shape" not in obj:
            raise CliUsageError(f"{args.model}: model needs \"shape\"")
        params_field = obj.get("params", "random")
        if params_field != "random":
            for key in ("seed", "positive"):
                if key in obj:
                    raise CliUsageError(
                        f"{args.model}: bad model ({key!r} is read only with "
                        f"\"params\": \"random\")"
                    )
        try:
            shape = ShapeConfig.from_json_dict(obj["shape"])
            if params_field == "random":
                positive = obj.get("positive", False)
                if not isinstance(positive, bool):
                    raise ValueError(f"positive must be true or false, not {positive!r}")
                seed = _json_int(obj.get("seed", args.seed))
                params = random_params(shape, seed, positive)
            elif params_field == "zero":
                params = MambaParams.build(shape, lambda name, count: [Fraction(0)] * count)
            else:
                params = MambaParams.from_json_dict(params_field)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliUsageError(f"{args.model}: bad model ({exc})") from None
        params.validate(shape)
        return shape, params
    if args.shape is not None:
        shape = _parse_shape(args.shape)
        return shape, random_params(shape, args.seed, args.positive)
    raise CliUsageError("provide --model FILE or --shape L,D,E,n,K")


_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?([0-9]+)\s*\Z")


def _entry_fraction(x: object) -> Fraction:
    """An input entry: a JSON integer, or a number or an ASCII string
    without ``_`` that ``Fraction`` reads; a decimal exponent past the
    int-to-string limit is refused before its power of ten is built."""
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float):
        x = str(x)
    if not isinstance(x, str) or not _ascii_number(x):
        raise CliUsageError(f"bad matrix entry {x!r}")
    exponent = _DECIMAL_EXPONENT.search(x)
    if exponent:
        digits = exponent[1].lstrip("0")
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if len(digits) > len(str(limit)) or digits and int(digits) > limit:
            raise CliUsageError(f"matrix entry {x!r} has a decimal exponent past {limit}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise CliUsageError(f"bad matrix entry {x!r}") from None


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


def _exact_text(q: Fraction) -> str:
    """``str(q)``, with numerator and denominator printed through
    ``decimal``: an exact entry may pass the interpreter's 4300-digit
    limit on int-to-string conversion, which ``decimal`` does not have."""
    n = str(Decimal(q.numerator))
    return n if q.denominator == 1 else f"{n}/{Decimal(q.denominator)}"


def _matrix_json(m: FpMatrix) -> dict:
    if m.mode == "pbit":
        entries = [[[x.m, x.e] for x in row] for row in m.data]
    else:
        entries = [[_exact_text(x) for x in row] for row in m.data]
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


def _load_forward(args: argparse.Namespace) -> tuple[ShapeConfig, MambaParams, FpMatrix]:
    """The model of ``--model``/``--shape`` and its input matrix, in the
    mode and precision of ``args``."""
    shape, params = _load_model(args)
    entries = _load_input(args, shape)
    x = FpMatrix.from_fractions(
        entries, args.mode, args.precision if args.mode == "pbit" else None
    )
    return shape, params, x


def cmd_mamba_run(args: argparse.Namespace) -> int:
    y = forward_matrix(*_load_forward(args), form=args.form)
    _dump(_matrix_json(y), args.out)
    if args.out:
        print(f"wrote {y.rows}x{y.cols} activations to {args.out}")
    return 0


def cmd_mamba_compare(args: argparse.Namespace) -> int:
    shape, params, x = _load_forward(args)
    rec, conv = forward_routes(shape, params, x, ("recurrent", "convolution"))
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
        name = name.strip(_ASCII_WHITESPACE)
        value = _ascii_int(raw)
        if value is None:
            raise CliUsageError(f"bad --assign entry {item!r}")
        if name == "all":
            assignment = {key: value for key in assignment}
        elif name in assignment:
            assignment[name] = value
        else:
            raise CliUsageError(f"unknown depth constant {name!r}")
    try:
        return resolve_assignment(assignment)
    except ValueError as exc:
        raise CliUsageError(f"--assign: {exc}") from None


_DEPTH_DEFAULT_SHAPES = (
    ShapeConfig(1, 1, 1, 1, 1),
    ShapeConfig(2, 2, 2, 2, 2),
    ShapeConfig(4, 3, 3, 3, 2),
)


def cmd_mamba_depth(args: argparse.Namespace) -> int:
    if args.shape is not None:
        shapes: Sequence[ShapeConfig] = [_parse_shape(args.shape)]
    elif args.full_grid:
        shapes = default_shape_grid()
    else:
        shapes = _DEPTH_DEFAULT_SHAPES
    assignment = _parse_assignment(args.assign)
    report = depth_report(shapes=shapes, assignment=assignment)
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
    return parse_netlist(_read_text(path))


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


def _draw_indices(rng: random.Random, n: int, count: int) -> list[int]:
    """``count`` draws of ``rng.choice(range(n))``, drawn the way CPython
    3.10-3.13 draws them: ``choice(seq)`` is ``seq[_randbelow(len(seq))]``,
    and ``_randbelow(n)`` calls ``getrandbits(n.bit_length())`` until the
    result is below ``n``.  The tests check the two agree call for call.
    ``hardness._draw_s5`` follows the same rule for ``shuffle``."""
    k = n.bit_length()
    getrandbits = rng.getrandbits
    out: list[int] = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


def cmd_circuit_check(args: argparse.Namespace) -> int:
    if args.kind != "iter_add" and (args.cases, args.seed) != (None, None):
        raise CliUsageError(
            f"--cases and --seed sample iter_add only; {args.kind} is checked exhaustively"
        )
    n_cases = 200 if args.cases is None else args.cases
    seed = 0 if args.seed is None else args.seed
    if n_cases < 1:
        raise CliUsageError(f"--cases must be at least 1, not {n_cases}")
    if n_cases > MAX_SWEEP_LANES:
        raise CliUsageError(f"--cases must be at most {MAX_SWEEP_LANES}, not {n_cases}")
    kind, p, window, m = _op_key(args.kind, args.precision, args.window, args.operands)
    if window > p + 1:
        # Synthesis takes it (compare only), but no p-bit float has such an exponent.
        raise CliUsageError(
            f"--window {window} is wider than p+1 = {p + 1}: check enumerates p={p} "
            f"floats, whose exponents lie in [{-(1 << p)}, {1 << p})"
        )
    op = synth_primitive(kind, p, window, m)
    if kind == "iter_add":
        # Cases as value indices, drawn operand by operand as rng.choice
        # would draw the values themselves, one block of cases at a time.
        pairs = op.input_encoding._pairs()
        rng = random.Random(seed)
        chunks = (
            _draw_indices(rng, len(pairs), min(BLOCK_LANES, n_cases - start) * m)
            for start in range(0, n_cases, BLOCK_LANES)
        )
        report = _check_indices(op, pairs, chunks, n_cases)
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
    for bits in args.bits or ():
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
    _corpus_kind(args.kind)  # an unknown kind is refused before any file is read
    lines = _token_lines(_read_text(args.corpus))[0]
    computed = []
    for line_no, line in lines:
        try:
            computed.append(eval_instance(args.kind, line))
        except ValueError as exc:
            # A refusal names its line in the file, as a netlist's does.
            raise type(exc)(f"line {line_no}: {exc}") from None
    labels_path = args.labels or (
        args.corpus + ".labels"
        if Path(args.corpus + ".labels").exists()
        else None
    )
    if labels_path is None:
        for label in computed:
            print(label)
        return 0
    want = [line for _, line in _token_lines(_read_text(labels_path))[0]]
    if len(want) != len(computed):
        print(f"labels: FAIL (expected {len(computed)} labels, "
              f"file has {len(want)})")
        return 1
    # A mismatch is named by its corpus line in the file, as a refusal is.
    bad = [line_no for (line_no, _), a, b in zip(lines, computed, want) if a != b]
    if bad:
        print(f"labels: FAIL ({len(computed) - len(bad)}/{len(computed)} "
              f"match; first mismatch at line {bad[0]})")
        return 1
    print(f"labels: PASS ({len(computed)}/{len(computed)})")
    return 0


def cmd_hardness_barrington(args: argparse.Namespace) -> int:
    circuit = _read_netlist(args.netlist)
    if args.lower:
        circuit = lower_or_gates(circuit)
    program = barrington_transform(circuit)
    depth = circuit.depth
    bound = 4**depth
    # Past the interpreter's int-to-string limit (4300 digits by default,
    # so depth 7143 on; 0 is no limit), the bound prints as "4**<depth>".
    limit = sys.get_int_max_str_digits()
    report = {
        "instructions": len(program),
        "circuit_depth": depth,
        "length_bound": bound if not limit or bound < 10**limit else f"4**{depth}",
        "length_ok": len(program) <= bound,
    }
    if args.check:
        if circuit.n_inputs > 12:
            report["equivalence"] = "skipped"
        else:
            n = circuit.n_inputs
            assignments = [[(a >> i) & 1 for i in range(n)] for a in range(1 << n)]
            outputs = evaluate_many(circuit, assignments)
            failures = sum(
                eval_pbp(program, bits) != out[0] for bits, out in zip(assignments, outputs)
            )
            report["equivalence"] = "pass" if failures == 0 else "fail"
            report["assignments"] = 1 << n
            report["failures"] = failures
    _dump(report, args.out)
    ok = report["length_ok"] and report.get("equivalence") != "fail"
    return 0 if ok else 1


# ------------------------------------------------------------ arg parsing

#: Largest ``-p``.  A p-bit significand prints in about 0.3*p decimal
#: digits, so every command's output stays far below the interpreter's
#: 4300-digit limit on int-to-string conversion.
MAX_PRECISION = 4096


def _integer(text: str) -> int:
    """The ``type`` of every integer option: an ASCII decimal, read as
    netlist and corpus integers are (``_text._ascii_int``)."""
    value = _ascii_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"not an ASCII decimal integer: {text!r}")
    return value


def _seed(text: str) -> int:
    """The ``type`` of a seed option: a non-negative :func:`_integer`.
    ``random.Random`` seeds with an int's absolute value, so a negative
    seed would draw what its positive draws."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a seed must be at least 0, not {value}")
    return value


def _precision(text: str) -> int:
    p = _ascii_int(text) or 0
    if not 1 <= p <= MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"precision must be an integer from 1 to {MAX_PRECISION}, got {text!r}"
        )
    return p


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built once per process.

    The tests and the benchmark call :func:`main` in process, many times;
    building the tree of parsers took a few milliseconds per call, more
    than most corpus commands spend on their own work.  Reuse holds no
    state from one call to the next: each ``parse_args`` starts a fresh
    ``Namespace`` and takes every default from the tree, and no default is
    a mutable object: ``--bits`` defaults to ``None``, not ``[]``, so a
    call without it is not handed a list that the tree keeps.  Help text
    is formatted when it is printed, at the terminal width of that moment.
    """
    parser = _Parser(
        prog="artifact",
        description="p-bit float workbench: scalar model, state-space block, "
        "depth calculus, circuit synthesis, hardness corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_precision(
        p: argparse.ArgumentParser, default: int = 16, span: str = f"1 to {MAX_PRECISION}"
    ) -> None:
        p.add_argument(
            "-p", "--precision", type=_precision, default=default,
            help=f"significand bits, {span} (default {default})",
        )

    fp = sub.add_parser("fp", help="evaluate an expression in p-bit floats")
    # Optional to argparse, which takes an expression with a leading minus,
    # such as "-(1)", for an unknown option; ``main`` hands that one over.
    fp.add_argument("expr", nargs="?", help="e.g. 'log(2)', '(1+3)*silu(2)' or '-(1)'")
    add_precision(fp)
    fp.set_defaults(func=cmd_fp)

    mamba = sub.add_parser("mamba", help="selective state-space block")
    mamba_sub = mamba.add_subparsers(dest="subcommand", required=True)

    def add_model_args(p: argparse.ArgumentParser) -> None:
        model = p.add_mutually_exclusive_group()
        model.add_argument("--model", help="model JSON file")
        model.add_argument("--shape", help="synthesize a model: L,D,E,n,K")
        p.add_argument("--seed", type=_seed, default=0, help="parameter seed")
        p.add_argument(
            "--positive", action="store_true",
            help="draw positive (cancellation-free) parameters",
        )
        p.add_argument("--input", help="input JSON file (entries L x D)")
        p.add_argument(
            "--input-seed", type=_seed, default=None,
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
    grid = dep.add_mutually_exclusive_group()
    grid.add_argument("--shape", help="single shape L,D,E,n,K")
    grid.add_argument(
        "--full-grid", action="store_true",
        help="use the full L x D x E x n shape grid (slower)",
    )
    dep.add_argument("-o", "--out", help="output file (default stdout)")
    dep.set_defaults(func=cmd_mamba_depth)

    circ = sub.add_parser("circuit", help="threshold-circuit IR and synthesis")
    circ_sub = circ.add_subparsers(dest="subcommand", required=True)

    def add_primitive_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("kind", choices=sorted(SYNTH_KINDS))
        add_precision(p, default=3, span=f"2 to {SYNTH_MAX_PRECISION}")
        p.add_argument(
            "--window", type=_integer, default=None,
            help=f"exponent bits, 1 to p; compare takes 1 to {SYNTH_MAX_PRECISION} "
            "(default: p)",
        )
        p.add_argument(
            "-m", "--operands", type=_integer, default=None,
            help="operand count (iter_add only)",
        )

    synth = circ_sub.add_parser("synth", help="synthesize a float primitive")
    add_primitive_args(synth)
    synth.add_argument("-o", "--out", help="netlist file (default stdout)")
    synth.set_defaults(func=cmd_circuit_synth)

    check = circ_sub.add_parser(
        "check", help="synthesize and compare against scalar semantics"
    )
    add_primitive_args(check)
    check.add_argument(
        "--cases", type=_integer, default=None,
        help="sampled case count, iter_add only (default 200)",
    )
    check.add_argument("--seed", type=_seed, default=None, help="iter_add only (default 0)")
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
        "--bits", action="append",
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
    gen.add_argument("--size", type=_integer, required=True)
    gen.add_argument("--seed", type=_integer, default=0)
    gen.add_argument("-n", "--count", type=_integer, default=100)
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
    try:
        parser = build_parser()
        args, extra = parser.parse_known_args(argv)
        if extra and args.func is cmd_fp and args.expr is None:
            args.expr = extra.pop(0)
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except (FpError, NegativeInput, NonPositiveInput) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # Every usage and input error class of the program is a ValueError.
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
