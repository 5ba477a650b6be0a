"""Tests for the command-line interface: exit codes, output determinism,
and the wiring of each subcommand to its module."""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from functools import cache, reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artifact import cli, synthesis
from artifact.circuits import CircuitError, ParseError, serialize_netlist
from artifact.cli import CliUsageError, build_parser, eval_expression, main
from artifact.elementary import NegativeInput, NonPositiveInput
from artifact.floats import DivisionByZero, FpError, FpNumber, round_p
from artifact.hardness import (
    DomainMismatch,
    FormulaParseError,
    UnsupportedGate,
    enumerate_small_circuits,
)
from artifact.mamba import ShapeConfig, forward_matrix, random_input, random_params
from artifact.matrices import FpMatrix, ShapeMismatch
from artifact.synthesis import MAX_SWEEP_LANES, UnsupportedPrecision, synth_primitive


class TestExpressionParser:
    """The p-bit expression mini-language."""

    def test_integer_addition_is_exact(self):
        assert eval_expression("1+1", 4) == round_p(Fraction(2), 4)

    def test_precedence_and_parentheses(self):
        assert eval_expression("2+3*4", 8) == round_p(Fraction(14), 8)
        assert eval_expression("(2+3)*4", 8) == round_p(Fraction(20), 8)

    def test_unary_minus_and_subtraction(self):
        assert eval_expression("-2", 8) == round_p(Fraction(-2), 8)
        assert eval_expression("5-3", 8) == round_p(Fraction(2), 8)

    def test_decimal_literals_round(self):
        assert eval_expression("0.5", 8) == round_p(Fraction(1, 2), 8)
        got = eval_expression("0.1", 16)
        assert got == round_p(Fraction(1, 10), 16)

    def test_functions_compose(self):
        v = eval_expression("exp(log(2))", 16)
        assert abs(v.to_fraction() - 2) <= Fraction(2, 2**16) * 2

    def test_floor(self):
        assert eval_expression("floor(2.75)", 12) == round_p(Fraction(2), 12)

    def test_division_by_zero_raises(self):
        with pytest.raises(DivisionByZero):
            eval_expression("1/0", 16)

    def test_syntax_errors(self):
        # dup, input, add and guard_small are context methods outside the grammar.
        for bad in ("", "2+", "log 2", "(1+2", "1 2", "sin(1)", "1..2", "@",
                    "dup(1)", "input(1)", "add(1)", "guard_small(1)"):
            with pytest.raises(CliUsageError):
                eval_expression(bad, 8)


class TestFpCommand:
    """fp: printed form and exit codes."""

    def test_exact_sum(self, capsys):
        assert main(["fp", "1+1", "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "(m=8, e=-2, p=4)" in out
        assert "2.0" in out

    def test_log_two_close_to_reference(self, capsys):
        assert main(["fp", "log(2)", "-p", "16"]) == 0
        out = capsys.readouterr().out
        approx = float(out.split("~")[1])
        assert abs(approx - 0.693147) <= 2**-16 + 1e-9

    def test_division_by_zero_exits_one(self, capsys):
        assert main(["fp", "1/0"]) == 1
        assert "DivisionByZero" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, capsys):
        assert main(["fp", "1+"]) == 2
        assert capsys.readouterr().err

    def test_deep_nesting_evaluates(self, capsys):
        """10^4 nested parentheses and a 10^4-long chain of unary minus,
        ten times the default recursion limit, print like their flat forms."""
        assert main(["fp", "1.5"]) == 0
        want = capsys.readouterr().out
        assert main(["fp", "(" * 10_000 + "1.5" + ")" * 10_000]) == 0
        assert capsys.readouterr().out == want
        assert main(["fp", "--", "-" * 10_000 + "1.5"]) == 0
        assert capsys.readouterr().out == want
        assert main(["fp", "--", "-" * 9_999 + "1.5"]) == 0
        assert capsys.readouterr().out == want.replace("m=", "m=-").replace("~ ", "~ -")

    def test_precision_range_exits_two(self, capsys):
        assert main(["fp", "-p", "100000", "1"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith("CliUsageError: ") and len(err.splitlines()) == 1
        assert "from 1 to 4096" in err
        assert main(["fp", "-p", "4096", "1"]) == 0
        assert capsys.readouterr().out.startswith(f"(m={2 ** 4095}, e=-4095, p=4096)")

    def test_decimal_display_at_extreme_exponents(self, capsys):
        """The exponent window grows with p; the trailing decimal is shown
        past the default decimal context and replaced by a note beyond it."""
        assert main(["fp", "-p", "24", "exp(exp(15))"]) == 0
        assert capsys.readouterr().out.endswith("~ 1.42207189947E+1419716\n")
        for expr in ("exp(exp(43))", "1/exp(exp(43))"):
            assert main(["fp", "-p", "70", expr]) == 0
            assert capsys.readouterr().out.endswith("~ (beyond the decimal exponent range)\n")


class TestMambaCommands:
    """mamba run / compare / depth."""

    def test_zero_model_run_writes_all_zero(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "shape": {"seq_len": 3, "d_model": 2, "d_inner": 2,
                      "d_state": 2, "kernel_size": 2},
            "params": "zero",
        }))
        out = tmp_path / "y.json"
        code = main(["mamba", "run", "--model", str(model),
                     "--input-seed", "4", "-o", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["mode"] == "pbit" and obj["p"] == 16
        assert obj["rows"] == 3 and obj["cols"] == 2
        assert all(x == [0, 0] for row in obj["entries"] for x in row)

    def test_exact_compare_gap_is_zero(self, capsys):
        code = main(["mamba", "compare", "--shape", "4,2,2,2,2",
                     "--seed", "11", "--mode", "exact"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_rel_gap"] == "0"
        assert report["within_bound"] is True

    def test_pbit_compare_within_bound(self, capsys):
        code = main(["mamba", "compare", "--shape", "4,2,2,2,2",
                     "--seed", "11", "--positive", "-p", "16"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        gap = Fraction(report["max_rel_gap"])
        assert gap <= Fraction(64 * 4, 2**16)

    def test_run_deterministic_bytes(self, tmp_path):
        args = ["mamba", "run", "--shape", "3,2,2,2,2", "--seed", "8",
                "--positive"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_depth_report_verdicts(self, capsys):
        code = main(["mamba", "depth", "--assign", "all=1",
                     "--shape", "2,2,2,2,2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        comp = report["components"]["ssm_recurrent"]
        assert comp["matches_registry_exactly"] is True
        assert comp["check"]["verdict"] == "within_bound"
        assert isinstance(comp["numeric_depth"], int)
        assert report["mamba"]["compositional"]["verdict"] == "within_bound"
        assert report["assignment"]["d_dup"] == 1  # all=1 covers every knob

    def test_depth_assign_overrides(self, capsys):
        code = main(["mamba", "depth", "--assign", "d_exp=3",
                     "--shape", "1,1,1,1,1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["assignment"]["d_exp"] == 3
        assert report["assignment"]["d_dup"] == 0  # default retained

    def test_missing_model_args_exit_two(self, capsys):
        assert main(["mamba", "run"]) == 2
        assert capsys.readouterr().err

    def test_bad_assign_exits_two(self, capsys):
        assert main(["mamba", "depth", "--assign", "d_bogus=1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("assign", ["d_std=-1", "all=-1", "d_exp=2,d_dup=-3"])
    def test_negative_assign_exits_two(self, capsys, assign):
        assert main(["mamba", "depth", "--shape", "1,1,1,1,1", "--assign", assign]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith("CliUsageError: ") and len(err.splitlines()) == 1
        assert "nonnegative" in err

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "payload",
        [{"rows": [[1, 2]]}, [1, 2], {"entries": [[1, 2], 3]},
         [["1/0", 1], [1, 1]], [[1, 1], [1, "1e999999"]]],
        ids=["object-without-entries", "rows-not-lists", "entries-row-not-list",
             "zero-denominator", "huge-decimal-exponent"],
    )
    def test_malformed_input_exits_two(self, tmp_path, capsys, command, payload):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(payload))
        code = main(["mamba", command, "--shape", "2,2,2,2,2",
                     "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        if "1e999999" in str(payload):
            # Refused by the exponent cap, before Fraction builds 10**999999.
            assert f"past {sys.get_int_max_str_digits()}" in err


# sha256 of the stdout of `mamba run|compare --mode exact --shape L,4,8,4,4`
# (seed 0, default input seed), with signed and with --positive parameters.
# Exact arithmetic makes the recurrent and convolution routes print the
# same activations.
_EXACT_STDOUT_SHA256 = {
    (4, False, "run"): "259827e610c9bf1e90f6ac7130cca4bdc9d9c23ef92a7b728bedd25c44ea4c06",
    (4, True, "run"): "430cc60c3b094e7a2ce199c17212f7cff5d00ac7b0bc6e6a82ca420556bac1ca",
    (16, False, "run"): "2c9eda8db6b8997b9edbf63c4fe40654c9e0154b415ea28d4d73bc665987e413",
    (16, True, "run"): "c3e3ffce3abbf9c5398320db409581b17564c88b1a2be3a65042f7fe56a9b5e5",
    (4, False, "compare"): "d45be799b0b153341723a447437ab873f6d844f8ab3fe3b14c6223da23bd5783",
    (4, True, "compare"): "d45be799b0b153341723a447437ab873f6d844f8ab3fe3b14c6223da23bd5783",
    (16, False, "compare"): "c126a7291e3c3188040aced56f6895655ea71c8143156a2e092b9cb9e1ae23e6",
    (16, True, "compare"): "c126a7291e3c3188040aced56f6895655ea71c8143156a2e092b9cb9e1ae23e6",
}


class TestExactRoutePinned:
    """The exact route's output bytes, pinned: a change to how exact values
    are computed or printed must not change what is printed."""

    @pytest.mark.parametrize("positive", [False, True], ids=["signed", "positive"])
    @pytest.mark.parametrize("L", [4, 16])
    @pytest.mark.parametrize(
        "command", [["run", "--form", "recurrent"], ["run", "--form", "convolution"], ["compare"]],
        ids=["run-recurrent", "run-convolution", "compare"],
    )
    def test_exact_stdout_digest(self, capsys, command, L, positive):
        argv = ["mamba", *command, "--mode", "exact", "--shape", f"{L},4,8,4,4"]
        assert main(argv + ["--positive"] * positive) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == _EXACT_STDOUT_SHA256[L, positive, command[0]]

    def test_positive_recurrent_at_32(self, capsys):
        """Positive parameters at ``32,4,8,8,4`` carry powers of two of
        tens of thousands of bits; digest taken while exact values were
        still integer pairs ``(n, d)``."""
        argv = ["mamba", "run", "--mode", "exact", "--shape", "32,4,8,8,4", "--seed", "0",
                "--positive", "--form", "recurrent"]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "aacf7218a984abe68fdcdda95f7d0085f4f3308e677f2af27412e342edff7edb"


# sha256 of stdout, p-bit mode, ``--shape 8,4,8,4,4`` unless the argv says
# otherwise; taken while ``compare`` still ran each route from its own prefix.
_PBIT_STDOUT_SHA256 = {
    "compare -p 12 --positive": "e7dd099a71ed26d78f725af0722ef2f596fcd68261fb096b21a8a4cbc53918df",
    "compare -p 16 --positive": "603ef6c09b7b232b0b68b1089a6706d2a73d034667d03fab8f51501c1052cf28",
    "compare -p 24 --positive": "021a742de0282b7e548352a9000b85c00f5b03eba888d0ef9f8af92252ce1190",
    "compare -p 16": "7498f149527d5f7bf6bd9b971bd839b372e03bb859e3bfc04ef90f3af16084e6",
    "compare --shape 16,4,8,4,4": "42e7b7ce97d23b2d74585a6c50d6aa05f60ba0063ace6635227a6842dd3f95de",
    "run --form recurrent": "91f707bebba5f6a4e27d75c95603b44b1e3d3a6a9774bb19d13e037410d4e905",
    "run --form recurrent --positive":
        "eda5690c5ee990a8c02e032565e5ec17a1fd8b7c6c4baedcf02164549a670d59",
    "run --form convolution": "a4b5afa24258c8e8de97d2f2a96d6e87378b8433c1bba41c164f2a83942a6d70",
    "run --form convolution --positive":
        "5bd2c2c8993301500b095e7d35c97a718d8d4447aebc34516dbb6505ac739f04",
}


class TestPBitRoutePinned:
    """The p-bit route's output bytes, pinned: sharing the stages before the
    route split must not change what either route prints."""

    @pytest.mark.parametrize("command", list(_PBIT_STDOUT_SHA256))
    def test_pbit_stdout_digest(self, capsys, command):
        argv = ["mamba", *command.split()]
        if "--shape" not in argv:
            argv += ["--shape", "8,4,8,4,4"]
        if "-p" not in argv:
            argv += ["-p", "16"]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == _PBIT_STDOUT_SHA256[command]


class TestExactLongEntries:
    """Exact entries past the interpreter's 4300-digit int-to-string limit
    print in full, and read back with ``decimal`` to the computed values."""

    def test_long_entries_print_and_read_back(self, capsys):
        argv = ["mamba", "run", "--mode", "exact", "--shape", "16,4,8,4,4", "--seed", "2"]
        assert main(argv + ["--positive"]) == 0
        rows = json.loads(capsys.readouterr().out)["entries"]
        assert any(len(text) > 4300 for row in rows for text in row)

        def read(text: str) -> Fraction:
            n, _, d = text.partition("/")
            return Fraction(int(Decimal(n)), int(Decimal(d or "1")))

        shape = ShapeConfig(16, 4, 8, 4, 4)
        x = FpMatrix.exact(random_input(shape, 3))  # the input seed is --seed + 1
        want = forward_matrix(shape, random_params(shape, 2, True), x, form="recurrent")
        assert [[read(t) for t in row] for row in rows] == [list(r) for r in want.data]


class TestUsageErrors:
    """Argument errors follow the exit-2 contract: a returned 2 and one
    stderr line, not argparse's usage dump and ``SystemExit``."""

    @pytest.mark.parametrize(
        "argv",
        [["mamba", "depth", "-p", "8"], ["mamba", "run", "--seed", "x"], ["bogus"], ["mamba"]],
        ids=["unknown-option", "bad-int", "unknown-subcommand", "missing-subcommand"],
    )
    def test_usage_error_returns_two(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith("CliUsageError: artifact") and len(err.splitlines()) == 1

    def test_input_errors_are_value_errors(self):
        """`main` maps ValueError and OSError to exit 2; every error class
        of the exit-2 contract must stay a ValueError, and none of the
        exit-1 classes may be caught by the earlier clause by accident."""
        usage = (CliUsageError, ParseError, CircuitError, FormulaParseError, DomainMismatch,
                 UnsupportedGate, UnsupportedPrecision, ShapeMismatch)
        assert all(issubclass(cls, ValueError) for cls in usage)
        assert not any(issubclass(cls, (FpError, NegativeInput, NonPositiveInput)) for cls in usage)

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mamba", "depth", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: artifact mamba depth")


def _explicit_model() -> dict:
    """A valid 1,1,1,1,1 model file with every parameter spelled out."""
    shape = ShapeConfig(1, 1, 1, 1, 1)
    return {"shape": shape.to_json_dict(), "params": random_params(shape, 0).to_json_dict()}


def _run_model(path, model) -> int:
    path.write_text(json.dumps(model))
    return main(["mamba", "run", "--model", str(path)])


def _paths(obj, path=()):
    """The key path of every value nested in ``obj``, the root excluded."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    else:
        items = ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutate(model: dict, kind: str, where: int, value) -> None:
    if kind == "shape":
        model["shape"] = value
        return
    paths = list(_paths(model))
    if kind == "zero-d":
        paths, value = [p for p in paths if p[-1] == "d"], 0
    if not paths:
        return
    path = paths[where % len(paths)]
    parent = reduce(getitem, path[:-1], model)
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "nest":
        parent[path[-1]] = [parent[path[-1]]]
    elif kind == "unnest" and isinstance(parent[path[-1]], list) and parent[path[-1]]:
        parent[path[-1]] = parent[path[-1]][0]
    elif kind in ("replace", "zero-d"):
        parent[path[-1]] = value


_MUTATION = st.tuples(
    st.sampled_from(["drop", "nest", "unnest", "replace", "zero-d", "shape"]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(
        [1.5, 2.0, True, False, None, 0, "x", "1", "-1", "1/2", "0", [], [1], {}, {"n": "1"}]
    ),
)


class TestModelFiles:
    """--model decoding: the explicit parameter dict and the shape."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m.update(shape=[1, 1, 1, 1, 1]),
            lambda m: m["params"].update(w_delta_scalar={"n": "1", "d": "0"}),
            lambda m: m["params"].update(w_delta_scalar={"n": 1.5, "d": 1}),
            lambda m: m["params"].update(w_delta_scalar={"n": True, "d": 2}),
            lambda m: m["shape"].update(seq_len=1.5),
            lambda m: m["shape"].update(seq_len=True),
            lambda m: m.update(params="random", seed=1.9),
            lambda m: m.update(params="random", seed=True),
            lambda m: m.update(params="random", positive="false"),
        ],
        ids=["shape-list", "zero-denominator", "float-numerator", "bool-numerator",
             "float-shape", "bool-shape", "random-float-seed", "random-bool-seed",
             "random-string-positive"],
    )
    def test_malformed_model_exits_two(self, tmp_path, capsys, mutate):
        model = _explicit_model()
        mutate(model)
        assert _run_model(tmp_path / "m.json", model) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_decimal_integer_strings_accepted(self, tmp_path, capsys):
        model = _explicit_model()
        model["shape"]["seq_len"] = "1"
        model["params"]["w_delta_scalar"] = {"n": "-3", "d": 4}
        assert _run_model(tmp_path / "m.json", model) == 0

    @settings(max_examples=150, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_MUTATION, min_size=1, max_size=3))
    def test_mutated_model_fails_cleanly(self, tmp_path, capsys, mutations):
        """Whatever the mutation, ``main`` returns an exit code, and a
        failure is one stderr line with no traceback."""
        model = _explicit_model()
        for kind, where, value in mutations:
            _mutate(model, kind, where, copy.deepcopy(value))
        code = _run_model(tmp_path / "m.json", model)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code:
            assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--model", "--input"])
    def test_deeply_nested_json_exits_two(self, tmp_path, capsys, flag):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["mamba", "run", "--shape", "2,2,2,2,2", flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith("CliUsageError: ") and len(err.splitlines()) == 1
        assert "nested too deeply" in err


_INPUT_MUTATION = st.tuples(
    st.sampled_from(["drop", "nest", "unnest", "replace"]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(
        [1.5, 2.0, True, False, None, 0, -7, "x", "1", "-1", "1/2", "-3/8", "0", "", " 5 ",
         "1/0", "0/0", "1e999999", "-2.5e-999999", "1e3", "1_000", "1__0", float("nan"),
         1e6, -1e6, 1e11, 1e308, -1e308, "1e308",
         float("inf"), [], [1], {}, {"entries": []}]
    ),
)


class TestMutatedInputFiles:
    """The exit-2 contract for ``--input`` files of ``mamba run`` and
    ``mamba compare``: whatever a mutation does to the JSON, ``main``
    returns an exit code, and a failure is one stderr line with no
    traceback.  An unmutated file succeeds."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(["run", "compare"]),
        st.sampled_from(["pbit", "exact"]),
        st.booleans(),
        st.lists(_INPUT_MUTATION, max_size=3),
    )
    def test_mutated_input_fails_cleanly(self, tmp_path, capsys, command, mode, wrapped,
                                         mutations):
        entries = [["1/2", -3], [0.25, "-7/8"]]
        payload = {"entries": entries} if wrapped else entries
        for kind, where, value in mutations:
            _mutate(payload, kind, where, copy.deepcopy(value))
        path = tmp_path / "x.json"
        path.write_text(json.dumps(payload))
        code = main(["mamba", command, "--shape", "2,2,2,2,2", "--mode", mode,
                     "--input", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code:
            assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        if not mutations:
            assert code == 0

    @pytest.mark.parametrize("entry", [1e6, -1e6, 1e11, 1e308, -1e308])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_large_finite_entries(self, tmp_path, capsys, command, entry):
        """Past the exact route's domain an entry exits 1 with one line that
        names the op and the exponent; the p-bit route takes it."""
        path = tmp_path / "x.json"
        path.write_text(json.dumps([["1/2", entry], [0.25, "-7/8"]]))
        argv = ["mamba", command, "--shape", "2,2,2,2,2", "--input", str(path)]
        assert main(argv + ["--mode", "exact"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert re.match(r"ExactDomainError: exact \w+ result has exponent -?\d+, ", err)
        assert main(argv + ["--mode", "pbit"]) == 0


# Valid inputs of the text commands, mutated below: corpus lines for
# `hardness eval` and expressions for `fp`, each with a way to grow it past
# the default recursion limit that keeps it valid (nesting, or a long word).
_TEXT_TARGETS = {
    "bool": (["(0¬)1∧1∨", "(1¬)01∧∨", "1"], lambda t, k: "(" * k + t + "¬)" * k),
    "arith": (
        ["(+ (* X1 3) (- X2)) ; 4,-2", "(* 2 (+ X3 -7)) ; 1,2,3", "5 ; "],
        lambda t, k: "(- " * k + t.replace(";", ")" * k + " ;", 1),
    ),
    "perm": (["23451 23451", "21345 13245 12354", "54321"], lambda t, k: " ".join([t] * k)),
    "fp": (["(1+3)*silu(2)", "log(2)-exp(0.5)/3", "-floor(2.5)*-.5"], lambda t, k: "(" * k + t + ")" * k),
}
_EDIT = st.tuples(
    st.sampled_from(["drop", "insert", "duplicate"]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(list("()01¬∧∨&|!~+-*/X;,. 5e")),
)


def _edit(text: str, kind: str, where: int, ch: str) -> str:
    i = where % (len(text) + 1)
    if kind == "drop":
        return text[:i] + text[i + 1:]
    if kind == "insert":
        return text[:i] + ch + text[i:]
    return text[:i] + text[i:i + 1] * 2 + text[i + 1:]


class TestMutatedTextInputs:
    """The exit-2 contract for line-oriented text: whatever a mutation does
    to a corpus line or an expression, ``main`` returns an exit code, and a
    failure is one stderr line with no traceback.  An unmutated input
    succeeds however deep it is grown."""

    @pytest.mark.parametrize("target", sorted(_TEXT_TARGETS))
    @settings(max_examples=60, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(min_value=0, max_value=2),
        st.sampled_from([0, 1, 3, 1500, 5000]),
        st.lists(_EDIT, max_size=3),
    )
    def test_mutated_text_fails_cleanly(self, tmp_path, capsys, target, pick, depth, edits):
        valid, nest = _TEXT_TARGETS[target]
        text = nest(valid[pick], depth) if depth else valid[pick]
        for kind, where, ch in edits:
            text = _edit(text, kind, where, ch)
        if target == "fp":
            code = main(["fp", "--", text])
        else:
            path = tmp_path / "corpus.txt"
            path.write_text(text + "\n", encoding="utf-8")
            code = main(["hardness", "eval", target, str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code:
            assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        if not edits:
            assert code == 0


@cache
def _valid_netlists() -> tuple[str, ...]:
    """Small AND/NOT/OR circuits that ``barrington`` takes (after
    ``--lower``), and a synthesized comparator with wide gates."""
    small = enumerate_small_circuits(3, 3, include_or=True)
    picks = [small[i] for i in (0, len(small) // 3, 2 * len(small) // 3, -1)]
    picks.append(synth_primitive("compare", 2, exp_bits=1).circuit)
    return tuple(serialize_netlist(c) for c in picks)


_NETLIST_EDIT = st.tuples(
    st.sampled_from(["drop", "insert", "duplicate"]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["0", "1", "2", "5", "-1", "x", "#", "\n", "INPUT", "CONST0",
                     "CONST1", "NOT", "AND", "OR", "THRESHOLD", "OUTPUTS"]),
)


class TestMutatedNetlists:
    """The exit-2 contract for netlists: whatever token a mutation drops,
    inserts or duplicates, ``circuit eval``, ``circuit depth`` and
    ``hardness barrington --check`` return an exit code, and a failure is
    one stderr line with no traceback."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(min_value=0, max_value=4),
        st.sampled_from(["eval", "depth", "barrington", "barrington --lower"]),
        st.lists(_NETLIST_EDIT, max_size=3),
    )
    def test_mutated_netlist_fails_cleanly(self, tmp_path, capsys, pick, command, edits):
        if command.startswith("barrington"):
            pick %= 4  # the comparator's 4**depth program would not fit
        text = _valid_netlists()[pick]
        n_inputs = text.count("INPUT")
        tokens = re.findall(r"\S+|\n", text)
        for kind, where, token in edits:
            i = where % (len(tokens) + 1)
            if kind == "drop":
                del tokens[i:i + 1]
            elif kind == "insert":
                tokens.insert(i, token)
            else:
                tokens[i:i + 1] = tokens[i:i + 1] * 2
        path = tmp_path / "c.nl"
        path.write_text(" ".join(tokens), encoding="utf-8")
        if command == "eval":
            code = main(["circuit", "eval", str(path), "--bits", "1" * n_inputs])
        elif command == "depth":
            code = main(["circuit", "depth", str(path)])
        else:
            code = main(["hardness", "barrington", str(path), "--check", *command.split()[1:]])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code:
            assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        if not edits and command in ("eval", "depth"):
            assert code == 0


class TestCircuitCommands:
    """circuit synth / check / rewrite / eval / depth."""

    def test_check_compare_exhaustive_pass(self, capsys):
        assert main(["circuit", "check", "compare", "-p", "2"]) == 0
        out = capsys.readouterr().out
        assert "exhaustive: PASS" in out
        assert "289 cases" in out  # (2*4*2 + 1)^2 values at p=2

    def test_check_iter_add_sampled(self, capsys):
        code = main(["circuit", "check", "iter_add", "-p", "2", "-m", "3",
                     "--cases", "40", "--seed", "5"])
        assert code == 0
        assert "sampled: PASS (40 cases" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--cases", "5"], ["--seed", "3"]])
    @pytest.mark.parametrize("kind", ["add", "compare"])
    def test_exhaustive_check_refuses_sampling_flags(self, capsys, kind, flags):
        assert main(["circuit", "check", kind, "-p", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"CliUsageError: --cases and --seed sample iter_add only; "
            f"{kind} is checked exhaustively\n"
        )

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_sampled_check_refuses_cases_below_one(self, capsys, cases):
        code = main(["circuit", "check", "iter_add", "-p", "2", "-m", "2", "--cases", cases])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"CliUsageError: --cases must be at least 1, not {cases}\n"

    def test_sampled_check_refuses_cases_past_the_sweep_cap(self, capsys):
        # Refused before any case is drawn: the list is never built.
        over = MAX_SWEEP_LANES + 1
        code = main(["circuit", "check", "iter_add", "-p", "2", "-m", "2", "--cases", str(over)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"CliUsageError: --cases must be at most {MAX_SWEEP_LANES}, not {over}\n"
        )

    @pytest.mark.parametrize("command", ["synth", "check"])
    def test_compare_window_past_the_cap_is_refused(self, capsys, command):
        # Refused before synthesis: the circuit grows about 4x per window bit.
        code = main(["circuit", command, "compare", "-p", "2", "--window", "7"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "UnsupportedPrecision: window exp_bits=7 outside synthesizable range [1, 6]\n"
        )

    def test_sampled_check_defaults_to_200_cases(self, capsys):
        assert main(["circuit", "check", "iter_add", "-p", "2", "-m", "2"]) == 0
        assert capsys.readouterr().out == "sampled: PASS (200 cases, kind=iter_add, p=2)\n"

    def test_synth_writes_parseable_netlist(self, tmp_path, capsys):
        out = tmp_path / "add.nl"
        assert main(["circuit", "synth", "add", "-p", "2",
                     "-o", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kind"] == "add" and summary["p"] == 2
        assert main(["circuit", "depth", str(out)]) == 0

    def test_iter_add_depth_constant_via_cli(self, tmp_path, capsys):
        depths = {}
        for m in (2, 8):
            path = tmp_path / f"it{m}.nl"
            assert main(["circuit", "synth", "iter_add", "-p", "3",
                         "-m", str(m), "-o", str(path)]) == 0
            capsys.readouterr()
            assert main(["circuit", "depth", str(path)]) == 0
            depths[m] = json.loads(capsys.readouterr().out)["depth"]
        assert depths[2] == depths[8]

    def test_eval_and_rewrite(self, tmp_path, capsys):
        nl = tmp_path / "c.nl"
        nl.write_text(
            "0 INPUT\n1 INPUT\n2 NOT 1\n3 AND 0 2\nOUTPUTS 3\n"
        )
        assert main(["circuit", "eval", str(nl), "--bits", "10",
                     "--bits", "11"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1", "0"]
        out = tmp_path / "maj.nl"
        assert main(["circuit", "rewrite", str(nl), "-o", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["after"]["depth"] == summary["before"]["depth"]
        assert main(["circuit", "depth", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["majority_only"] is True
        assert main(["circuit", "eval", str(out), "--bits", "10"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_bad_bits_exits_two(self, tmp_path, capsys):
        nl = tmp_path / "c.nl"
        nl.write_text("0 INPUT\nOUTPUTS 0\n")
        assert main(["circuit", "eval", str(nl), "--bits", "012"]) == 2
        capsys.readouterr()

    def test_malformed_netlist_exits_two(self, tmp_path, capsys):
        nl = tmp_path / "bad.nl"
        nl.write_text("0 INPUT\n1 AND 0 2\nOUTPUTS 1\n")
        assert main(["circuit", "depth", str(nl)]) == 2
        capsys.readouterr()

    def test_unsupported_precision_exits_two(self, capsys):
        assert main(["circuit", "synth", "add", "-p", "9"]) == 2
        capsys.readouterr()


class TestHardnessCommands:
    """hardness gen / eval / barrington."""

    def test_gen_corpus_reproducible(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["hardness", "gen", "bool", "--size", "15", "--seed", "42",
                "-n", "100"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.txt.labels").read_bytes() == (
            tmp_path / "b.txt.labels"
        ).read_bytes()
        assert len(a.read_text().splitlines()) == 100

    def test_eval_verifies_labels(self, tmp_path, capsys):
        corpus = tmp_path / "perm.txt"
        assert main(["hardness", "gen", "perm", "--size", "6", "--seed", "2",
                     "-n", "40", "-o", str(corpus)]) == 0
        capsys.readouterr()
        assert main(["hardness", "eval", "perm", str(corpus)]) == 0
        assert "labels: PASS (40/40)" in capsys.readouterr().out

    def test_eval_detects_corrupted_label(self, tmp_path, capsys):
        corpus = tmp_path / "bool.txt"
        assert main(["hardness", "gen", "bool", "--size", "9", "--seed", "3",
                     "-n", "10", "-o", str(corpus)]) == 0
        capsys.readouterr()
        labels = corpus.with_suffix(".txt.labels")
        lines = labels.read_text().splitlines()
        lines[0] = "1" if lines[0] == "0" else "0"
        labels.write_text("\n".join(lines) + "\n")
        assert main(["hardness", "eval", "bool", str(corpus)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_eval_without_labels_prints_them(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("01∧\n(0¬)\n")
        assert main(["hardness", "eval", "bool", str(corpus)]) == 0
        assert capsys.readouterr().out.splitlines() == ["0", "1"]

    def test_oversized_arith_label_refused(self, tmp_path, capsys):
        """9^5000 has 4,772 decimal digits, past the interpreter's
        int-to-string limit: the label is refused in one line of the
        program's own, and the limit is left as it is."""
        corpus = tmp_path / "comb.txt"
        corpus.write_text("(* " * 5000 + "X1" + " 9)" * 5000 + " ; 1,2,3\n")
        limit = sys.get_int_max_str_digits()
        assert main(["hardness", "eval", "arith", str(corpus)]) == 2
        out, err = capsys.readouterr()
        assert not out and len(err.splitlines()) == 1
        assert err == f"ValueError: label has more than {limit} decimal digits\n"
        assert "set_int_max_str_digits" not in err
        assert sys.get_int_max_str_digits() == limit

    def test_barrington_check_passes(self, tmp_path, capsys):
        nl = tmp_path / "c.nl"
        nl.write_text("0 INPUT\n1 INPUT\n2 AND 0 1\n3 NOT 2\nOUTPUTS 3\n")
        assert main(["hardness", "barrington", str(nl), "--check"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["equivalence"] == "pass"
        assert report["instructions"] <= report["length_bound"]

    def test_barrington_lowers_or_on_request(self, tmp_path, capsys):
        nl = tmp_path / "or.nl"
        nl.write_text("0 INPUT\n1 INPUT\n2 OR 0 1\nOUTPUTS 2\n")
        assert main(["hardness", "barrington", str(nl)]) == 2
        capsys.readouterr()
        assert main(["hardness", "barrington", str(nl), "--lower",
                     "--check"]) == 0
        assert json.loads(capsys.readouterr().out)["equivalence"] == "pass"

    def test_unknown_kind_exits_two(self, capsys):
        assert main(["hardness", "gen", "nosuch", "--size", "5"]) == 2
        capsys.readouterr()

    @staticmethod
    def _and_chain(tmp_path, n: int) -> str:
        """Netlist of ((x0 AND x1) AND x2) ... AND x(n-1)."""
        lines = [f"{i} INPUT" for i in range(n)]
        lines += [f"{n} AND 0 1"] + [f"{n + i - 1} AND {n + i - 2} {i}" for i in range(2, n)]
        path = tmp_path / f"chain{n}.nl"
        path.write_text("\n".join(lines) + f"\nOUTPUTS {2 * n - 2}\n", encoding="utf-8")
        return str(path)

    def test_barrington_refuses_program_past_the_bound(self, tmp_path, capsys):
        """A 20-input AND chain needs 1,572,862 instructions: refused in
        one line at the first gate past the bound, before any is built."""
        netlist = self._and_chain(tmp_path, 20)
        start = time.perf_counter()
        assert main(["hardness", "barrington", netlist, "--check"]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert (out, err) == (
            "",
            "ValueError: gate 34's program needs 98302 instructions, "
            "more than the 65536 allowed\n",
        )

    def test_barrington_refuses_unused_or_gate(self, tmp_path, capsys):
        """Every gate is held to the AND/NOT basis, also one that no output
        reads."""
        nl = tmp_path / "unused_or.nl"
        nl.write_text("0 INPUT\n1 INPUT\n2 OR 0 1\n3 NOT 0\nOUTPUTS 3\n")
        assert main(["hardness", "barrington", str(nl), "--check"]) == 2
        assert capsys.readouterr() == (
            "", "UnsupportedGate: OR gate 2: lower to the AND/NOT basis first\n"
        )

    def test_barrington_refuses_unused_long_chain(self, tmp_path, capsys):
        """An unused 20-input AND chain is refused by the length bound,
        though the output is one NOT of an input."""
        path = self._and_chain(tmp_path, 20)
        text = open(path, encoding="utf-8").read().replace("OUTPUTS 38", "39 NOT 0\nOUTPUTS 39")
        nl = tmp_path / "unused_chain.nl"
        nl.write_text(text, encoding="utf-8")
        assert main(["hardness", "barrington", str(nl), "--check"]) == 2
        assert capsys.readouterr() == (
            "",
            "ValueError: gate 34's program needs 98302 instructions, "
            "more than the 65536 allowed\n",
        )

    def test_barrington_builds_program_within_the_bound(self, tmp_path, capsys):
        assert main(["hardness", "barrington", self._and_chain(tmp_path, 14)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["instructions"], report["length_ok"]) == (24574, True)


# sha256 of `hardness gen perm --size S --seed N` stdout (the instances)
# and of `hardness eval perm` stdout on those instances (the labels), with
# -n 100, or -n 4 at size 10000.
_PERM_CORPUS_SHA256 = {
    (1, 0): ("ec6f12d993b590e8f27a63af66b9cb9cb91130bb8c8cf2c3e314ded41ad78af2",
             "56cf0eddf3379f6c97214bd16998261aecab2c19765ec2097cad997d4c54cd2b"),
    (1, 5): ("df61aeb3a71c7d07bd5edd0c7e776851a761ab5be79b411cd68e0912954b92aa",
             "f54b312e7e7578b2fb91907bd987bc999aa06af255ef8939fe9008a51fac4abc"),
    (2, 0): ("a68ceba721b5b8df715a43f618f3663c1e25f9463b7ac364d5cea0d574daf6e5",
             "372e491ec5ced843e1d63a34e2eb0f6bef06ae3aad3ccb69d43e3a6723523612"),
    (2, 5): ("e10f9c9376e24810249e6b95fc930e212d16014324fcd94bab54b65221a92141",
             "b4380bc3ed2365ffbff9dfa8b798d044be1c33b405c023f47ad31f37d8bb5237"),
    (100, 0): ("d43b58258a31fbc8cc783bdcbd97e03032d97cefcb33cd526e5c987e7921bdb8",
               "ed1b50f677ac770f95fa71eef550585b7d2b5e567cba1e50e229f3426625abff"),
    (100, 5): ("fde8660f4f1765eddf194509fa3d7f73aae581b74e1c15d37b9c1e43eacdba8c",
               "ff268da8835b841247b9a7e7dee6d12b1fe88ee0ffdd4c26055ae300e5def4b0"),
    (10000, 0): ("16edfd944291bfd59149b21d04fec40906aec0688fd7ca0533f397b61d75a740",
                 "45cbb2f89bd565e482b8b41e336e7ba20e377fea0c3ba84ebde8c6e54206bc3f"),
    (10000, 5): ("8462b813c9d78d6d6fd5e91fb1f74d346f9bf25c86248243426cd92df39b2075",
                 "b692935a446f9a441cdda762e29c12d2d6ab075ee10722609daef6122357a17a"),
}
# sha256 of the concatenated `hardness barrington NETLIST --check` stdout
# over every netlist of `enumerate_small_circuits(3, 3)`, in order.
_BARRINGTON_CHECK_SHA256 = "1dea039476e2edcc4cf1dfa2928958e8b82de107395bbfac575785ccd7f3e9af"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestCorpusPinned:
    """Corpus bytes, pinned: how permutations are composed or parsed must
    not change what `hardness gen|eval|barrington` print."""

    @pytest.mark.parametrize("size,seed", sorted(_PERM_CORPUS_SHA256))
    def test_perm_gen_and_eval_digests(self, tmp_path, capsys, size, seed):
        count = "4" if size == 10000 else "100"
        argv = ["hardness", "gen", "perm", "--size", str(size), "--seed", str(seed)]
        assert main(argv + ["-n", count]) == 0
        instances = capsys.readouterr().out
        corpus = tmp_path / "perm.txt"
        corpus.write_text(instances, encoding="utf-8")
        assert main(["hardness", "eval", "perm", str(corpus)]) == 0
        labels = capsys.readouterr().out
        assert (_sha256(instances), _sha256(labels)) == _PERM_CORPUS_SHA256[size, seed]

    def test_barrington_check_digest(self, tmp_path, capsys):
        outputs = []
        for i, circuit in enumerate(enumerate_small_circuits(3, 3)):
            path = tmp_path / f"{i}.nl"
            path.write_text(serialize_netlist(circuit), encoding="utf-8")
            assert main(["hardness", "barrington", str(path), "--check"]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(outputs) == 96
        assert _sha256("".join(outputs)) == _BARRINGTON_CHECK_SHA256


def _call(argv: list[str], capsys) -> tuple[object, str, str]:
    """Exit code (or ``SystemExit`` code, for ``--help``), stdout and
    stderr of one in-process ``main`` call."""
    try:
        code: object = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


def _all_actions(parser: argparse.ArgumentParser):
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _all_actions(sub)


class TestPrecisionHelp:
    """Each ``-p`` and ``--window`` help states the range its command
    accepts: synthesis's for ``circuit synth|check``, the p-bit cap for
    the rest."""

    @staticmethod
    def _help(path: list[str], dest: str) -> str:
        parser = build_parser()
        for name in path:
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            parser = sub.choices[name]
        return next(a.help for a in parser._actions if a.dest == dest)

    @pytest.mark.parametrize("command", ["synth", "check"])
    def test_synthesis_ranges(self, command, capsys):
        path = ["circuit", command]
        assert self._help(path, "precision") == (
            f"significand bits, 2 to {synthesis.MAX_PRECISION} (default 3)"
        )
        assert self._help(path, "window") == (
            f"exponent bits, 1 to p; compare takes 1 to {synthesis.MAX_PRECISION} (default: p)"
        )
        top = synthesis.MAX_PRECISION
        for p, code in [(1, 2), (2, 0), (top + 1, 2)]:
            assert main([*path, "compare", "-p", str(p), "--window", "1"]) == code
        assert main([*path, "compare", "-p", "2", "--window", str(top + 1)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("path", [["fp"], ["mamba", "run"], ["mamba", "compare"]])
    def test_pbit_range(self, path):
        assert self._help(path, "precision").startswith(f"significand bits, 1 to {cli.MAX_PRECISION} ")


class TestParserReuse:
    """`main` reuses one parser per process; no call may see another's
    arguments, defaults or output through it."""

    def _script(self, tmp_path) -> list[list[str]]:
        netlist = tmp_path / "and.nl"
        netlist.write_text("0 INPUT\n1 INPUT\n2 AND 0 1\nOUTPUTS 2\n", encoding="utf-8")
        corpus = tmp_path / "perm.txt"
        corpus.write_text("21345 21345\n23451 12345\n", encoding="utf-8")
        net = str(netlist)
        return [
            ["mamba", "run", "--seed", "x"],
            ["--help"],
            ["circuit", "eval", "--help"],
            ["circuit", "eval", net, "--bits", "01", "--bits", "11"],
            ["circuit", "eval", net, "--bits", "10"],
            ["circuit", "eval", net],
            ["mamba", "run", "--shape", "2,1,2,1,1", "--input-seed", "7"],
            ["mamba", "run", "--shape", "2,1,2,1,1"],
            ["hardness", "gen", "perm", "--size", "3", "--seed", "4", "-n", "5"],
            ["hardness", "gen", "bool", "--size", "9", "-n", "3"],
            ["hardness", "eval", "perm", str(corpus)],
            ["hardness", "barrington", net, "--check"],
            ["bogus"],
        ]

    def test_calls_match_fresh_parsers(self, tmp_path, capsys):
        script = self._script(tmp_path)
        build_parser.cache_clear()
        reused = [_call(argv, capsys) for argv in script]
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(script) - 1)
        fresh = []
        for argv in script:
            build_parser.cache_clear()
            fresh.append(_call(argv, capsys))
        assert reused == fresh
        codes = [code for code, _, _ in reused]
        assert codes == [2, ("SystemExit", 0), ("SystemExit", 0), 0, 0, 2, 0, 0, 0, 0, 0, 0, 2]
        assert reused[3][1] == "0\n1\n" and reused[4][1] == "0\n"
        assert reused[5][2] == "CliUsageError: provide at least one --bits assignment\n"
        assert reused[6][1] != reused[7][1]  # the input seed did not carry over

    def test_no_default_is_mutable(self):
        defaults = [action.default for action in _all_actions(build_parser())]
        assert defaults and not [d for d in defaults if isinstance(d, (list, dict, set, bytearray))]


class TestMalformedPermCorpus:
    """A bad perm line exits 2 with one stderr line, the same message as
    when every token was parsed and every product step was validated."""

    @pytest.mark.parametrize(
        "line,message",
        [
            ("21345 " * 10_000 + "11345 12345",
             "ValueError: (1, 1, 3, 4, 5) is not a bijection on [5]"),
            ("12345 21345 1234 2134", "DomainMismatch: domain sizes differ: 4 vs 5"),
            ("12345 12a45 1x", "ValueError: invalid literal for int() with base 10: 'a'"),
            ("1234 12345 12a45", "ValueError: invalid literal for int() with base 10: 'a'"),
        ],
        ids=["bad-token-after-10000", "mixed-lengths", "non-digit", "parse-before-compose"],
    )
    def test_exits_two_with_one_line(self, tmp_path, capsys, line, message):
        corpus = tmp_path / "perm.txt"
        corpus.write_text("12345 54321\n" + line + "\n", encoding="utf-8")
        assert main(["hardness", "eval", "perm", str(corpus)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", message + "\n")
