"""Tests for the command-line interface: exit codes, output determinism,
and the wiring of each subcommand to its module."""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from functools import cache, reduce
from operator import getitem
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artifact import cli, hardness, synthesis
from artifact.circuits import BLOCK_LANES, Circuit, CircuitError, ParseError, serialize_netlist
from artifact.cli import CliUsageError, build_parser, eval_expression, main
from artifact.elementary import NegativeInput, NonPositiveInput
from artifact.floats import DivisionByZero, FpError, FpNumber, round_p
from artifact.hardness import (
    DomainMismatch,
    FormulaParseError,
    Semiring,
    UnsupportedGate,
    enumerate_small_circuits,
)
from artifact.mamba import ShapeConfig, forward_matrix, random_input, random_params
from artifact.matrices import FpMatrix, ShapeMismatch
from artifact.synthesis import MAX_SWEEP_LANES, UnsupportedPrecision, check_op, synth_primitive


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

    @pytest.mark.parametrize(
        "tok,value", [("1.", 1), ("2.", 2), ("10.", 10), (".5", Fraction(1, 2))]
    )
    def test_literal_may_omit_either_side_of_the_point(self, tok, value):
        assert eval_expression(tok, 8) == round_p(Fraction(value), 8)

    def test_lone_point_is_refused(self, capsys):
        assert main(["fp", "."]) == 2
        assert capsys.readouterr() == ("", "CliUsageError: bad numeric literal '.'\n")

    def test_literals_match_a_decimal_oracle(self):
        """Every token of up to four ASCII digits and points: one with a
        digit and at most one point is its decimal value rounded to p bits,
        and any other is refused."""
        for n in range(1, 5):
            for chars in itertools.product("0123456789.", repeat=n):
                tok = "".join(chars)
                whole, _, frac = tok.partition(".")
                if "." in frac or not (whole + frac):
                    with pytest.raises(CliUsageError, match="bad numeric literal"):
                        eval_expression(tok, 6)
                    continue
                value = Fraction(int(whole + frac or "0"), 10 ** len(frac))
                assert eval_expression(tok, 6) == round_p(value, 6), tok

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

    def test_leading_minus_needs_no_separator(self, capsys):
        """An expression that starts with '-' is the expression, not an
        unknown option, with ``-p`` before or after it; a second argument
        is still refused, and so is a missing expression."""
        for expr in ("-(1)", "-1.5*2"):
            assert main(["fp", "-p", "12", "--", expr]) == 0
            want = capsys.readouterr().out
            for argv in (["fp", expr, "-p", "12"], ["fp", "-p", "12", expr],
                         ["fp", expr, "--precision", "12"]):
                assert main(argv) == 0
                assert capsys.readouterr().out == want
        assert main(["fp", "-(1)"]) == 0
        assert capsys.readouterr().out.startswith("(m=-32768, e=-15, p=16) ~ -1.0")
        assert main(["fp", "1", "-(2)"]) == 2
        assert capsys.readouterr() == ("", "CliUsageError: artifact: unrecognized arguments: -(2)\n")
        assert main(["fp"]) == 2
        assert capsys.readouterr() == (
            "", "CliUsageError: artifact fp: the following arguments are required: expr\n"
        )

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

    @pytest.mark.parametrize("command", ["depth", "run"])
    def test_empty_shape_exits_two(self, capsys, command):
        assert main(["mamba", command, "--shape", ""]) == 2
        assert capsys.readouterr() == ("", "CliUsageError: --shape needs five integers L,D,E,n,K\n")

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
        [
            ["mamba", "depth", "-p", "8"],
            ["mamba", "run", "--seed", "x"],
            ["bogus"],
            ["mamba"],
            ["mamba", "depth", "--shape", "2,2,2,2,2", "--full-grid"],
            ["mamba", "run", "--model", "m.json", "--shape", "2,2,2,2,2"],
            ["mamba", "compare", "--shape", "2,2,2,2,2", "--model", "m.json"],
        ],
        ids=[
            "unknown-option",
            "bad-int",
            "unknown-subcommand",
            "missing-subcommand",
            "shape-with-full-grid",
            "run-model-with-shape",
            "compare-shape-with-model",
        ],
    )
    def test_usage_error_returns_two(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith("CliUsageError: artifact") and len(err.splitlines()) == 1
        if {"--model", "--full-grid"} & set(argv):
            # Refused for the pair, before any model file is read.
            assert "not allowed with argument" in err

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


def _integer_options(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """(subcommand path, action) of every option in every subparser whose
    ``type`` reads ``"7"`` as the integer 7."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _integer_options(sub, (*path, name))
        elif action.type is not None and action.type("7") == 7:
            yield path, action


_INTEGER_OPTIONS = list(_integer_options(build_parser()))
_INTEGER_IDS = [" ".join((*path, a.option_strings[-1])) for path, a in _INTEGER_OPTIONS]
_ODD_DIGITS = {"underscore": "1_0", "arabic-indic": "\u0661", "fullwidth": "\uff13"}


class TestAsciiIntegers:
    """Every integer the command line reads is an ASCII decimal, read as
    corpus integers are: an optional sign and surrounding whitespace, no
    ``_`` and no other script's digits.  The options are found by walking
    the parser, so one added later is covered too."""

    def test_every_integer_option_is_found(self):
        assert {"fp --precision", "mamba run --seed", "mamba compare --input-seed",
                "circuit check --cases", "hardness gen --count"} <= set(_INTEGER_IDS)
        assert len(_INTEGER_OPTIONS) == 18

    @pytest.mark.parametrize("token", list(_ODD_DIGITS.values()), ids=list(_ODD_DIGITS))
    @pytest.mark.parametrize("path,action", _INTEGER_OPTIONS, ids=_INTEGER_IDS)
    def test_option_refuses_odd_digits(self, capsys, path, action, token):
        assert main([*path, action.option_strings[-1], token]) == 2
        out, err = capsys.readouterr()
        assert not out and len(err.splitlines()) == 1
        assert err.startswith(f"CliUsageError: artifact {' '.join(path)}: argument ")
        assert f"{'/'.join(action.option_strings)}:" in err and repr(token) in err

    @pytest.mark.parametrize("path,action", _INTEGER_OPTIONS, ids=_INTEGER_IDS)
    def test_option_keeps_sign_and_whitespace(self, path, action):
        assert action.type(" +12 ") == 12

    @pytest.mark.parametrize("token", list(_ODD_DIGITS.values()), ids=list(_ODD_DIGITS))
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["mamba", "depth", "--shape", "{},1,1,1,1"], "bad --shape '{},1,1,1,1'"),
            (["mamba", "run", "--shape", "1,1,1,1,{}"], "bad --shape '1,1,1,1,{}'"),
            (["mamba", "depth", "--shape", "1,1,1,1,1", "--assign", "all={}"],
             "bad --assign entry 'all={}'"),
            (["mamba", "depth", "--shape", "1,1,1,1,1", "--assign", "d_exp=2,d_std={}"],
             "bad --assign entry 'd_std={}'"),
        ],
        ids=["depth-shape", "run-shape", "assign-all", "assign-one"],
    )
    def test_shapes_and_weights_refuse_odd_digits(self, capsys, argv, message, token):
        assert main([a.format(token) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert not out and err == f"CliUsageError: {message.format(token)}\n"

    def test_shapes_and_weights_keep_sign_and_whitespace(self, capsys):
        runs = [
            (main(["mamba", "depth", "--shape", shape, "--assign", weights]), capsys.readouterr())
            for shape, weights in [
                ("2,1,1,1,1", "all=2"), (" 2,+1,1 ,1,1", "all= +2"), ("2,1,1,1,1", "\tall\x1f = 2"),
                ("\x1c2,1\x1c,1,1,1", "all=\x1c2\x1f"),
            ]
        ]
        assert runs[0] == runs[1] == runs[2] == runs[3] and runs[0][0] == 0

    # Each netlist field with a token in it, the line that holds it, and
    # the field's name in the refusal.
    _NETLIST_FIELDS = {
        "gate-id": ("0 INPUT\n{} NOT 0\nOUTPUTS 1\n", 2, "gate id"),
        "threshold": ("0 INPUT\n1 THRESHOLD {} 0\nOUTPUTS 1\n", 2, "threshold"),
        "input": ("0 INPUT\n1 NOT {}\nOUTPUTS 1\n", 2, "input id"),
        "outputs": ("0 INPUT\n1 NOT 0\nOUTPUTS {}\n", 3, "output id"),
    }

    @pytest.mark.parametrize("token", list(_ODD_DIGITS.values()), ids=list(_ODD_DIGITS))
    @pytest.mark.parametrize("field", list(_NETLIST_FIELDS))
    @pytest.mark.parametrize(
        "command",
        [["circuit", "depth"], ["circuit", "eval"], ["circuit", "rewrite"],
         ["hardness", "barrington"]],
        ids=lambda c: " ".join(c),
    )
    def test_netlists_refuse_odd_digits(self, tmp_path, capsys, command, field, token):
        template, line, what = self._NETLIST_FIELDS[field]
        path = tmp_path / "c.nl"
        path.write_text(template.format(token), encoding="utf-8")
        extra = ["--bits", "1"] if command[1] == "eval" else []
        assert main([*command, str(path), *extra]) == 2
        out, err = capsys.readouterr()
        assert not out and err == f"ParseError: line {line}: bad {what} {token!r}\n"

    @pytest.mark.parametrize("token", ["\u0661+1", "\uff13"], ids=["arabic-indic", "fullwidth"])
    def test_expression_literals_are_ascii(self, capsys, token):
        assert main(["fp", token]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"CliUsageError: unexpected character {token[0]!r} in expression\n"


# Separators of other scripts, and the ASCII line ends that ``str.split``
# also drops as spaces.
_ODD_SPACES = {"ideographic": "\u3000", "no-break": "\u00a0"}
_ODD_BREAKS = {"line-sep": "\u2028", "next-line": "\u0085"}
_SPACE_BREAKS = {"fs": "\x1c", "gs": "\x1d", "rs": "\x1e", "vt": "\v", "ff": "\f"}


class _Refusal(NamedTuple):
    """A row of :data:`_SEPARATORS`: ``text`` with ``{}`` where a
    character of ``chars`` goes, and the exact stderr line with ``{}``
    where that character goes as ``repr`` escapes it."""

    test: str
    reader: str
    position: str
    chars: dict
    text: str
    stderr: str


# Every separator refusal: each reader, each position, each character.
_SEPARATORS = [
    _Refusal("netlist", "netlist", "after-id", _ODD_SPACES,
             "0{}INPUT\n1 NOT 0\nOUTPUTS 1\n", "ParseError: line 1: bad gate id '0{}INPUT'"),
    _Refusal("netlist", "netlist", "after-kind", _ODD_SPACES,
             "0 INPUT\n1 NOT{}0\nOUTPUTS 1\n", "ParseError: line 2: unknown gate kind 'NOT{}0'"),
    _Refusal("netlist", "netlist", "trailing", _ODD_SPACES,
             "0 INPUT\n1 NOT 0{}\nOUTPUTS 1\n", "ParseError: line 2: bad input id '0{}'"),
    _Refusal("netlist", "netlist", "outputs", _ODD_SPACES,
             "0 INPUT\n1 NOT 0\nOUTPUTS{}1\n", "ParseError: line 3: bad gate id 'OUTPUTS{}1'"),
    _Refusal("netlist", "netlist", "blank", _ODD_SPACES,
             "0 INPUT\n1 NOT 0\n{}\nOUTPUTS 1\n", "ParseError: line 3: bad gate id '{}'"),
    _Refusal("netlist-breaks", "netlist", "", _ODD_BREAKS,
             "0 INPUT\n1 NOT 0{}2 NOT 1\nOUTPUTS 1\n", "ParseError: line 2: bad input id '0{}2'"),
    _Refusal("arith", "arith", "between-atoms", _ODD_SPACES,
             "(+ 1{}2) ; \n", "FormulaParseError: line 1: bad atom '1{}2'"),
    _Refusal("arith", "arith", "after-op", _ODD_SPACES,
             "(+{}1 2) ; \n", "FormulaParseError: line 1: bad atom '+{}1'"),
    _Refusal("arith", "arith", "trailing", _ODD_SPACES,
             "(* X1 2{}) ; 3\n", "FormulaParseError: line 1: bad atom '2{}'"),
    _Refusal("arith-line", "arith", "before-expr", _ODD_SPACES,
             "{}(+ X1 2) ; 1\n", "FormulaParseError: line 1: bad atom '{}'"),
    _Refusal("arith-line", "arith", "before-semicolon", _ODD_SPACES,
             "(+ X1 2){} ; 1\n", "FormulaParseError: line 1: bad atom '{}'"),
    _Refusal("arith-line", "arith", "after-semicolon", _ODD_SPACES,
             "(+ X1 2) ;{}1\n", "FormulaParseError: line 1: bad assignment value '{}1'"),
    _Refusal("arith-line", "arith", "after-value", _ODD_SPACES,
             "(+ X1 2) ; 1{}\n", "FormulaParseError: line 1: bad assignment value '1{}'"),
    _Refusal("arith-line", "arith", "after-comma", _ODD_SPACES,
             "(+ X1 2) ; 1,{}3\n", "FormulaParseError: line 1: bad assignment value '{}3'"),
    _Refusal("arith-line", "arith", "only-space", _ODD_SPACES,
             "(+ 1 2) ;{}\n", "FormulaParseError: line 1: bad assignment value '{}'"),
    _Refusal("fp", "fp", "before", _ODD_SPACES,
             "{}1 + 2", "CliUsageError: unexpected character '{}' in expression"),
    _Refusal("fp", "fp", "after-op", _ODD_SPACES,
             "1 +{}2", "CliUsageError: unexpected character '{}' in expression"),
    _Refusal("fp", "fp", "before-op", _ODD_SPACES,
             "1{}+ 2", "CliUsageError: unexpected character '{}' in expression"),
    _Refusal("fp", "fp", "after", _ODD_SPACES,
             "1 + 2{}", "CliUsageError: unexpected character '{}' in expression"),
    _Refusal("bool", "bool", "before", _ODD_SPACES,
             "{}0 1∧\n", "FormulaParseError: line 1: unexpected symbol '{}' at 0"),
    _Refusal("bool", "bool", "between", _ODD_SPACES,
             "0{}1∧\n", "FormulaParseError: line 1: unexpected symbol '{}' at 1"),
    _Refusal("bool", "bool", "before-op", _ODD_SPACES,
             "0 1{}∧\n", "FormulaParseError: line 1: unexpected symbol '{}' at 2"),
    _Refusal("bool", "bool", "after", _ODD_SPACES,
             "0 1∧{}\n", "FormulaParseError: line 1: unexpected symbol '{}' at 3"),
    _Refusal("perm", "perm", "", _ODD_SPACES, "23451{}12345\n",
             "ValueError: line 1: permutation '23451{}12345' is not a string of decimal digits"),
    _Refusal("perm", "perm", "before", _ODD_SPACES, "{}21345 21345\n",
             "ValueError: line 1: permutation '{}21345' is not a string of decimal digits"),
    _Refusal("assign", "assign", "before", _ODD_SPACES,
             "{}d_exp=2", "CliUsageError: unknown depth constant '{}d_exp'"),
    _Refusal("assign", "assign", "after", _ODD_SPACES,
             "d_exp{}=2", "CliUsageError: unknown depth constant 'd_exp{}'"),
    # A line holding only another script's space is read, not skipped.
    _Refusal("blank-line", "perm", "perm", {"": "\u00a0"}, "{}\n",
             "ValueError: line 1: permutation '{}' is not a string of decimal digits"),
    _Refusal("blank-line", "bool", "bool", {"": "\u00a0"}, "{}\n",
             "FormulaParseError: line 1: unexpected symbol '{}' at 0"),
    _Refusal("blank-line", "arith", "arith", {"": "\u00a0"}, "{}\n",
             "FormulaParseError: line 1: arithmetic instance needs '; assignment'"),
    _Refusal("other-breaks", "perm", "", {"": "\u2028"}, "12345{}12345\n",
             "ValueError: line 1: permutation '12345{}12345' is not a string of decimal digits"),
    # A corpus refusal names its line in the file: blank lines count, and
    # so does each ASCII line end, ``\r\n`` as one.
    _Refusal("line-numbers", "arith", "third-line", _ODD_SPACES,
             "(+ 1 2) ; \n\n(+ 1{}2) ; \n", "FormulaParseError: line 3: bad atom '1{}2'"),
    _Refusal("line-numbers", "arith", "after-crlf", _ODD_SPACES,
             "(+ 1 2) ; \r\n(+ X1 2) ; 1,{}3\r\n",
             "FormulaParseError: line 2: bad assignment value '{}3'"),
    _Refusal("line-numbers", "bool", "after-blank", _ODD_SPACES,
             "0 1∧\n \t\n0{}1∧\n", "FormulaParseError: line 3: unexpected symbol '{}' at 1"),
    _Refusal("line-numbers", "perm", "second-line", _ODD_SPACES, "12345\n23451{}12345\n",
             "ValueError: line 2: permutation '23451{}12345' is not a string of decimal digits"),
    # An ASCII line end that is also a space ends the line, and the refusal
    # names the line it ended.
    _Refusal("line-numbers", "arith", "value-break", _SPACE_BREAKS,
             "(+ X1 X2) ; 1,{}3\n", "FormulaParseError: line 1: bad assignment value ''"),
]


def _run_reader(tmp_path, reader: str, text: str) -> int:
    """Run the command that reads ``text`` with ``reader``: a netlist or a
    corpus from a file, an ``fp`` expression or an ``--assign`` item from
    the command line."""
    if reader == "fp":
        return main(["fp", text, "-p", "8"])
    if reader == "assign":
        return main(["mamba", "depth", "--shape", "1,1,1,1,1", "--assign", text])
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    if reader == "netlist":
        return main(["circuit", "depth", str(path)])
    return main(["hardness", "eval", reader, str(path)])


def _refusals(test: str) -> list:
    """The rows of ``test`` in :data:`_SEPARATORS`, one case per character,
    as ``(reader, text, stderr)`` named ``position-character``."""
    return [
        pytest.param(row.reader, row.text.format(ch), row.stderr.format(repr(ch)[1:-1]) + "\n",
                     id="-".join(filter(None, (row.position, name))))
        for row in _SEPARATORS if row.test == test
        for name, ch in row.chars.items()
    ]


def _assert_refused(tmp_path, capsys, reader: str, text: str, stderr: str) -> None:
    assert _run_reader(tmp_path, reader, text) == 2
    assert capsys.readouterr() == ("", stderr)


_REFUSAL = "reader,text,stderr"


class TestAsciiSeparators:
    """Netlist, arithmetic and permutation lines split at ASCII whitespace
    and break at ASCII line ends only, ``fp`` expressions and bool
    formulas skip ASCII whitespace only, and an ``--assign`` name is
    stripped of ASCII whitespace only.  Another script's space stays in
    its token, which is refused by name with exit 2; a comment keeps any
    text.  The refusals are the rows of :data:`_SEPARATORS`."""

    @pytest.mark.parametrize(_REFUSAL, _refusals("netlist"))
    def test_netlist_refuses_other_spaces(self, tmp_path, capsys, reader, text, stderr):
        _assert_refused(tmp_path, capsys, reader, text, stderr)

    @pytest.mark.parametrize(_REFUSAL, _refusals("netlist-breaks"))
    def test_netlist_breaks_lines_at_ascii_only(self, tmp_path, capsys, reader, text, stderr):
        _assert_refused(tmp_path, capsys, reader, text, stderr)

    def test_netlist_comments_keep_any_text(self, tmp_path, capsys):
        plain = tmp_path / "plain.nl"
        plain.write_text("0 INPUT\n1 NOT 0\nOUTPUTS 1\n", encoding="utf-8")
        commented = tmp_path / "commented.nl"
        commented.write_text(
            "# caf\u00e9\u3000\u2028 \u00a0notes\n0 INPUT\n  # \u0085\n1 NOT 0\nOUTPUTS 1\n",
            encoding="utf-8",
        )
        assert main(["circuit", "depth", str(plain)]) == 0
        want = capsys.readouterr()
        assert main(["circuit", "depth", str(commented)]) == 0
        assert capsys.readouterr() == want

    @pytest.mark.parametrize(_REFUSAL, _refusals("arith"))
    def test_arith_refuses_other_spaces(self, tmp_path, capsys, reader, text, stderr):
        _assert_refused(tmp_path, capsys, reader, text, stderr)

    @pytest.mark.parametrize(_REFUSAL, _refusals("arith-line"))
    def test_arith_line_strips_ascii_only(self, tmp_path, capsys, reader, text, stderr):
        """An arithmetic line is stripped of ASCII whitespace only, around
        its expression and its values: another script's space is refused,
        named in the token as read."""
        _assert_refused(tmp_path, capsys, reader, text, stderr)

    def test_arith_values_strip_every_ascii_space(self, tmp_path, capsys):
        """A value is stripped of any ASCII whitespace, as the line and the
        expression are: ``\\x1c``-``\\x1f``, which ``int`` alone would
        refuse, too.  In a file, ``\\x1c``-``\\x1e``, ``\\v`` and
        ``\\f`` end the line, so only ``\\x1f`` reaches a value there."""
        corpus = tmp_path / "c.txt"
        corpus.write_text("(+ X1 X2) ; 1,\x1f3\x1f\n", encoding="utf-8")
        assert main(["hardness", "eval", "arith", str(corpus)]) == 0
        assert capsys.readouterr().out == "4\n"
        for space in "\x1c\x1d\x1e\x1f\v\f":
            assert hardness.eval_instance("arith", f"(+ X1 X2) ;{space}1,{space}3{space}") == "4"

    @pytest.mark.parametrize(_REFUSAL, _refusals("fp"))
    def test_fp_refuses_other_spaces(self, tmp_path, capsys, reader, text, stderr):
        _assert_refused(tmp_path, capsys, reader, text, stderr)

    @pytest.mark.parametrize(_REFUSAL, _refusals("bool"))
    def test_bool_refuses_other_spaces(self, tmp_path, capsys, reader, text, stderr):
        """A bool formula drops ASCII whitespace only (``\\x1f`` too, as
        ``str.split`` does): another script's space reaches the parser,
        which refuses it by name."""
        _assert_refused(tmp_path, capsys, reader, text, stderr)

    @pytest.mark.parametrize(
        "reader,text,stdout",
        [
            ("fp", "1\x1c+\t2\x1f", "(m=192, e=-6, p=8) ~ 3.000000\n"),
            ("bool", "0\t1\x1f∧\n", "0\n"),
            ("arith", "\t(+ X1\t2)\x1f;\t1\t, 3\t\n", "3\n"),
        ],
        ids=["fp", "bool", "arith"],
    )
    def test_ascii_separators_are_read(self, tmp_path, capsys, reader, text, stdout):
        assert _run_reader(tmp_path, reader, text) == 0
        assert capsys.readouterr() == (stdout, "")

    @pytest.mark.parametrize(_REFUSAL, _refusals("perm"))
    def test_perm_refuses_other_spaces(self, tmp_path, capsys, reader, text, stderr):
        """Inside a token or padding it: a padded token is refused as read."""
        _assert_refused(tmp_path, capsys, reader, text, stderr)

    @pytest.mark.parametrize(_REFUSAL, _refusals("assign"))
    def test_assign_names_refuse_other_spaces(self, tmp_path, capsys, reader, text, stderr):
        """An ``--assign`` name is stripped of ASCII whitespace only, as its
        weight is: another script's space stays in the name, which is then
        unknown."""
        _assert_refused(tmp_path, capsys, reader, text, stderr)


class TestCorpusLines:
    """``hardness eval`` breaks corpus and labels lines at ASCII line ends,
    skips a line as blank only when it holds no token, and names the line
    of a refusal."""

    @pytest.mark.parametrize(_REFUSAL, _refusals("blank-line"))
    def test_no_break_space_line_is_read(self, tmp_path, capsys, reader, text, stderr):
        _assert_refused(tmp_path, capsys, reader, text, stderr)

    @pytest.mark.parametrize("kind,line", [
        ("perm", "23451 51234"), ("bool", "0 1∧"), ("arith", "(+ X1 2) ; 3"),
    ], ids=["perm", "bool", "arith"])
    def test_ascii_blank_lines_are_skipped(self, tmp_path, capsys, kind, line):
        corpus = tmp_path / "c.txt"
        corpus.write_text(f"{line}\n", encoding="utf-8")
        assert main(["hardness", "eval", kind, str(corpus)]) == 0
        want = capsys.readouterr()
        corpus.write_text(f"\n \t\n{line}\r\n\x0c\n\n", encoding="utf-8")
        assert main(["hardness", "eval", kind, str(corpus)]) == 0
        assert capsys.readouterr() == want

    def test_other_line_breaks_stay_in_the_line(self, tmp_path, capsys):
        [case] = _refusals("other-breaks")
        _assert_refused(tmp_path, capsys, *case.values)

    @pytest.mark.parametrize(_REFUSAL, _refusals("line-numbers"))
    def test_corpus_refusals_name_their_line(self, tmp_path, capsys, reader, text, stderr):
        _assert_refused(tmp_path, capsys, reader, text, stderr)

    def test_no_break_space_label_line_is_counted(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("12345\n", encoding="utf-8")
        labels = tmp_path / "c.txt.labels"
        labels.write_text("1\n\n", encoding="utf-8")
        assert main(["hardness", "eval", "perm", str(corpus)]) == 0
        assert capsys.readouterr().out == "labels: PASS (1/1)\n"
        labels.write_text("1\n\u00a0\n", encoding="utf-8")
        assert main(["hardness", "eval", "perm", str(corpus)]) == 1
        assert capsys.readouterr().out == "labels: FAIL (expected 1 labels, file has 2)\n"


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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: "shape", "model must be a JSON object"),
            (lambda m: [m], "model must be a JSON object"),
            (lambda m: {"params": "random"}, 'model needs "shape"'),
            (lambda m: {**m, "shape": {**m["shape"], "foo": 1}},
             "bad model (unknown shape field 'foo')"),
            (lambda m: {**m, "shape": {k: v for k, v in m["shape"].items() if k != "kernel_size"}},
             "bad model (missing shape field 'kernel_size')"),
            (lambda m: {**m, "params": {k: v for k, v in m["params"].items() if k != "a_diag"}},
             "bad model (missing params field 'a_diag')"),
            (lambda m: {"shape": m["shape"], "sead": 5}, "bad model (unknown key 'sead')"),
            (lambda m: {**m, "seed": 1, "Positive": True}, "bad model (unknown key 'Positive')"),
            (lambda m: {"shape": m["shape"], "params": "zero", "seed": 5},
             "bad model ('seed' is read only with \"params\": \"random\")"),
            (lambda m: {**m, "positive": True},
             "bad model ('positive' is read only with \"params\": \"random\")"),
        ],
        ids=["string", "list", "no-shape", "extra-shape-field", "missing-shape-field",
             "missing-params-field", "misspelt-seed", "misspelt-positive",
             "seed-with-zero-params", "positive-with-explicit-params"],
    )
    def test_malformed_model_is_named(self, tmp_path, capsys, edit, message):
        path = tmp_path / "m.json"
        assert _run_model(path, edit(_explicit_model())) == 2
        assert capsys.readouterr().err == f"CliUsageError: {path}: {message}\n"

    def test_every_model_key_is_read(self, tmp_path, capsys):
        """The four keys the README lists are taken together."""
        model = {"shape": ShapeConfig(1, 1, 1, 1, 1).to_json_dict(), "params": "random",
                 "seed": 3, "positive": True}
        assert _run_model(tmp_path / "m.json", model) == 0

    def test_decimal_integer_strings_accepted(self, tmp_path, capsys):
        model = _explicit_model()
        model["shape"]["seq_len"] = "1"
        model["params"]["w_delta_scalar"] = {"n": "-3", "d": 4}
        assert _run_model(tmp_path / "m.json", model) == 0

    def test_integer_strings_keep_sign_and_whitespace(self, tmp_path, capsys):
        """A model file reads an integer string as the command line reads
        ``--shape " 2,+1,1,1,1"``."""
        outputs = []
        for seq_len, n, d in [(1, -3, 4), (" 1", " -3 ", "+4")]:
            model = _explicit_model()
            model["shape"]["seq_len"] = seq_len
            model["params"]["w_delta_scalar"] = {"n": n, "d": d}
            outputs.append((_run_model(tmp_path / "m.json", model), capsys.readouterr()))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    @pytest.mark.parametrize("token", list(_ODD_DIGITS.values()), ids=list(_ODD_DIGITS))
    @pytest.mark.parametrize("where", ["shape", "numerator", "denominator"])
    def test_integer_strings_refuse_odd_digits(self, tmp_path, capsys, where, token):
        model = _explicit_model()
        if where == "shape":
            model["shape"]["seq_len"] = token
        else:
            model["params"]["w_delta_scalar"][where[0]] = token
        path = tmp_path / "m.json"
        assert _run_model(path, model) == 2
        out, err = capsys.readouterr()
        assert not out and len(err.splitlines()) == 1
        assert err.startswith(f"CliUsageError: {path}: ") and repr(token) in err

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
        # A model file gives the shape itself, and --shape may not join it.
        shape = [] if flag == "--model" else ["--shape", "2,2,2,2,2"]
        assert main(["mamba", "run", *shape, flag, str(path)]) == 2
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


class TestNegativeSeeds:
    """``random.Random`` seeds with an int's absolute value, so a negative
    seed would draw what its positive draws.  Every int seed the command
    line takes refuses one, in one line that names it, and still takes 0."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["mamba", "run", "--shape", "4,2,2,2,2", "--seed", "{}"], "--seed"),
            (["mamba", "run", "--shape", "4,2,2,2,2", "--input-seed", "{}"], "--input-seed"),
            (["mamba", "compare", "--shape", "2,2,2,2,2", "--seed", "{}"], "--seed"),
            (["mamba", "compare", "--shape", "2,2,2,2,2", "--input-seed", "{}"], "--input-seed"),
            (["circuit", "check", "iter_add", "-p", "3", "-m", "2", "--cases", "20",
              "--seed", "{}"], "--seed"),
        ],
        ids=["run-seed", "run-input-seed", "compare-seed", "compare-input-seed", "check-seed"],
    )
    def test_negative_seed_refused(self, capsys, argv, option):
        assert main([a.format(-5) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == (
            f"CliUsageError: artifact {argv[0]} {argv[1]}: argument {option}: "
            "a seed must be at least 0, not -5\n"
        )
        assert main([a.format(0) for a in argv]) == 0
        capsys.readouterr()

    def test_negative_model_seed_refused(self, tmp_path, capsys):
        model = {"shape": ShapeConfig(1, 1, 1, 1, 1).to_json_dict(), "params": "random",
                 "seed": -5}
        path = tmp_path / "m.json"
        assert _run_model(path, model) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"CliUsageError: {path}: bad model (seed must be at least 0, not -5)\n"
        model["seed"] = 0
        assert _run_model(path, model) == 0

    def test_hardness_gen_takes_negative_seeds(self, capsys):
        """``hardness gen`` seeds with a string, in which -5 and 5 differ."""
        outputs = []
        for seed in ("-5", "5"):
            assert main(["hardness", "gen", "bool", "--size", "7", "--seed", seed, "-n", "5"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]


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

    @pytest.mark.parametrize("mode", ["pbit", "exact"])
    @pytest.mark.parametrize("entry", ["\u0661", "1_0", "\uff11", "1e1_0"],
                             ids=["arabic-indic", "underscore", "fullwidth", "exponent-underscore"])
    def test_entries_are_ascii(self, tmp_path, capsys, entry, mode):
        """A string entry is ASCII without ``_``; the refusal names it."""
        path = tmp_path / "x.json"
        path.write_text(json.dumps([[entry]]))
        argv = ["mamba", "run", "--shape", "1,1,1,1,1", "--mode", mode, "--input", str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out and err == f"CliUsageError: bad matrix entry {entry!r}\n"

    @pytest.mark.parametrize("mode", ["pbit", "exact"])
    @pytest.mark.parametrize("entry", ["1/3", "-0.25", "1e3", " 5 "])
    def test_ascii_entries_accepted(self, tmp_path, capsys, entry, mode):
        path = tmp_path / "x.json"
        path.write_text(json.dumps([[entry]]))
        argv = ["mamba", "run", "--shape", "1,1,1,1,1", "--mode", mode, "--input", str(path)]
        assert main(argv) == 0
        assert not capsys.readouterr().err

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

    @pytest.mark.parametrize("kind", ["compare", "add"])
    def test_check_window_past_p_plus_one_is_refused(self, capsys, monkeypatch, kind):
        # Refused before synthesis, in terms of the option: no p-bit float
        # has an exponent outside [-2**p, 2**p).
        monkeypatch.setattr(synthesis._MEMO, "get", lambda key: pytest.fail("synthesized"))
        code = main(["circuit", "check", kind, "-p", "3", "--window", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if kind == "compare":
            assert captured.err == (
                "CliUsageError: --window 5 is wider than p+1 = 4: check enumerates "
                "p=3 floats, whose exponents lie in [-8, 8)\n"
            )
        else:  # synthesis's own range check comes first, as before
            assert captured.err.startswith("UnsupportedPrecision: window exp_bits=5 > p=3")
        assert len(captured.err.splitlines()) == 1

    def test_check_window_of_p_plus_one_is_taken(self, tmp_path, capsys):
        assert main(["circuit", "check", "compare", "-p", "2", "--window", "3"]) == 0
        assert capsys.readouterr().out == (
            "exhaustive: PASS (1089 cases, kind=compare, p=2)\n"
        )
        # synth keeps its own range: a window past p+1 still synthesizes.
        out = tmp_path / "wide.nl"
        assert main(["circuit", "synth", "compare", "-p", "3", "--window", "5",
                     "-o", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["n_inputs"] == 2 * (3 + 1 + 5)

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


class TestSampledCheck:
    """``circuit check iter_add`` draws its cases as value indices and
    checks them without a case of ``FpNumber``.  The draw equals
    ``random.Random(seed).choice`` over the value list, and the report
    equals that of ``check_op`` on the same cases as values."""

    # sha256 of the drawn cases as JSON ``[[[m, e], ...], ...]``, taken when
    # the command drew each operand with ``rng.choice(values)``.
    PINS = {
        (2, 0): "7d057d1fe7b3915e1e9dbad4b3f1e4586d3b7d463aa2f75ca398b5049acf9566",
        (2, 1): "8b80d70f5ae19bf32174076526edad0e3f4acb0fff8cd64a861c296cf5602a76",
        (2, 2**31 - 1): "3f01157a2a6235fe808736ca75af6710d4f372be8968674956fe74fcfb539ad4",
        (8, 0): "aed71c25fc22703abdb36994a649087c410f224f0d921ddfd92cdaae9c48ddcf",
        (8, 1): "401ebd382d9fde15633b46153385cda487cf0e74a55e0c80a8fb4c5a065e3e1f",
        (8, 2**31 - 1): "cfd05940e43e8e573f7a513890d3c82dd2a1ddacdf1b446fb58ef50911e8e603",
        (64, 0): "7fe5963c3df34bab70aa71d1d3bc51e4b2f5f5769207736a8aebcb59886f7440",
        (64, 1): "83f0a334fe2df217d9055af1ff25769548ece59972099f347380c272b0f67a17",
        (64, 2**31 - 1): "8b2e83abebc171fe86900a70cb2befc3a896e3a1752a8d8f721429fd35dd93cc",
    }

    @staticmethod
    def _argv(m: int, seed: int) -> list[str]:
        return ["circuit", "check", "iter_add", "-p", "3", "-m", str(m),
                "--cases", "200", "--seed", str(seed)]

    @pytest.mark.parametrize("m,seed", sorted(PINS))
    def test_drawn_cases_pinned(self, monkeypatch, capsys, m, seed):
        drawn = []
        real = cli._check_indices

        def spy(op, pairs, chunks, total):
            chunks = list(chunks)
            drawn.append([list(pairs[i]) for chunk in chunks for i in chunk])
            return real(op, pairs, chunks, total)

        monkeypatch.setattr(cli, "_check_indices", spy)
        assert main(self._argv(m, seed)) == 0
        assert capsys.readouterr().out == "sampled: PASS (200 cases, kind=iter_add, p=3)\n"
        [pairs] = drawn
        cases = [pairs[i : i + m] for i in range(0, len(pairs), m)]
        assert len(cases) == 200
        digest = hashlib.sha256(json.dumps(cases).encode()).hexdigest()
        assert digest == self.PINS[m, seed]

    def test_cases_drawn_one_block_at_a_time(self, monkeypatch, capsys):
        """``--cases BLOCK_LANES + 1`` draws a block of ``BLOCK_LANES``
        cases, checks it, then draws the last case from the same
        generator: the same indices one draw of every case gives, never
        more than a block's in one list."""
        m, seed, n_cases = 2, 11, BLOCK_LANES + 1
        events, flats = [], []
        real_draw = cli._draw_indices
        real_blocks, real_check = synthesis._index_blocks, synthesis._check_blocks

        def draw(rng, n, count):
            events.append(("draw", count))
            return real_draw(rng, n, count)

        def blocks(op, codes, pairs, chunks):
            return real_blocks(op, codes, pairs, (flats.append(c) or c for c in chunks))

        def check(op, total, blocks, reference):
            def counted():
                for block, words in blocks:
                    yield block, words
                    events.append(("checked", len(block)))
            return real_check(op, total, counted(), reference)

        monkeypatch.setattr(cli, "_draw_indices", draw)
        monkeypatch.setattr(synthesis, "_index_blocks", blocks)
        monkeypatch.setattr(synthesis, "_check_blocks", check)
        argv = ["circuit", "check", "iter_add", "-p", "3", "-m", str(m),
                "--cases", str(n_cases), "--seed", str(seed)]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"sampled: PASS ({n_cases} cases, kind=iter_add, p=3)\n"
        assert events == [("draw", BLOCK_LANES * m), ("checked", BLOCK_LANES),
                          ("draw", m), ("checked", 1)]
        n_values = len(synth_primitive("iter_add", 3, m=m).input_encoding.enumerate_values())
        assert sum(flats, []) == real_draw(random.Random(seed), n_values, n_cases * m)

    @pytest.mark.parametrize("n", [9, 64, 65, 257, 4096, 4097])
    def test_index_draw_is_rng_choice(self, n):
        """Call for call, and leaving the generator in the same state."""
        for seed in (0, 1, 12345, 2**31 - 1, 2**64 + 3):
            ours, theirs = random.Random(seed), random.Random(seed)
            got = cli._draw_indices(ours, n, 1000)
            assert got == [theirs.choice(range(n)) for _ in range(1000)]
            assert ours.getstate() == theirs.getstate()
        assert cli._draw_indices(random.Random(0), n, 0) == []

    @pytest.mark.parametrize("m", [2, 8, 64])
    def test_fail_report_equals_check_op(self, monkeypatch, capsys, m):
        """With two output wires swapped, the command's report and
        ``check_op``'s on the same cases as values agree: ten mismatches,
        the same operand lists."""
        op = synth_primitive("iter_add", 3, m=m)
        outputs = list(op.circuit.outputs)
        outputs[0], outputs[1] = outputs[1], outputs[0]
        broken = dataclasses.replace(op, circuit=Circuit(op.circuit.gates, outputs))
        monkeypatch.setattr(cli, "synth_primitive", lambda *args: broken)
        assert main(self._argv(m, 7)) == 1
        head, body = capsys.readouterr().out.split("\n", 1)
        assert head == "sampled: FAIL (200 cases, kind=iter_add, p=3)"
        shown = json.loads(body)["mismatches"]

        values = op.input_encoding.enumerate_values()
        flat = cli._draw_indices(random.Random(7), len(values), 200 * m)
        cases = [tuple(values[i] for i in flat[j : j + m]) for j in range(0, len(flat), m)]
        report = check_op(broken, cases)
        assert report["cases"] == 200 and not report["ok"]
        assert len(shown) == 10
        assert shown == json.loads(json.dumps(report["mismatches"]))


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

    def test_eval_builds_one_semiring_per_file(self, tmp_path, capsys, monkeypatch):
        """Every line of an arithmetic corpus is read over one shared
        ``Semiring``, not a new one per line."""
        corpus = tmp_path / "z7.txt"
        assert main(["hardness", "gen", "arith-z7", "--size", "20", "--seed", "1",
                     "-n", "20", "-o", str(corpus)]) == 0
        capsys.readouterr()
        built = []
        real = Semiring.__post_init__

        def counting(self):
            built.append((self.kind, self.modulus))
            real(self)

        monkeypatch.setattr(Semiring, "__post_init__", counting)
        hardness._arith_semiring.cache_clear()
        assert main(["hardness", "eval", "arith-z7", str(corpus)]) == 0
        assert "labels: PASS (20/20)" in capsys.readouterr().out
        assert built == [("zmod", 7)]

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

    def test_eval_names_a_mismatch_by_its_file_line(self, tmp_path, capsys):
        """A mismatch counts lines as a refusal does: every line of the
        corpus file, blank ones included."""
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n\n12345\n21345\n")
        (tmp_path / "c.txt.labels").write_text("1\n1\n")
        assert main(["hardness", "eval", "perm", str(corpus)]) == 1
        assert capsys.readouterr().out == "labels: FAIL (1/2 match; first mismatch at line 4)\n"

    @pytest.mark.parametrize(
        "kind, message",
        [("nosuch", "unknown corpus kind 'nosuch'"),
         ("arith-zq", "unknown arithmetic corpus kind 'arith-zq'")],
        ids=["kind", "modulus"],
    )
    @pytest.mark.parametrize("text", [None, "", "\n\n12345\n"], ids=["missing", "empty", "line-3"])
    def test_eval_refuses_an_unknown_kind_before_reading(self, tmp_path, capsys, kind, message, text):
        """An unknown kind is an argument fault: it is refused before the
        corpus is opened, so with no line number, even when the corpus is
        empty or missing."""
        corpus = tmp_path / "c.txt"
        if text is not None:
            corpus.write_text(text)
        assert main(["hardness", "eval", kind, str(corpus)]) == 2
        assert capsys.readouterr() == ("", f"ValueError: {message}\n")

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
        assert err == f"ValueError: line 1: label has more than {limit} decimal digits\n"
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

    @pytest.mark.parametrize(
        "modulus",
        ["1_1", "\u0667", "foo", "", "7.0"],
        ids=["underscore", "arabic-indic", "letters", "empty", "decimal-point"],
    )
    def test_modulus_must_be_an_ascii_integer(self, capsys, modulus):
        """``int`` alone reads ``1_1`` as 11 and an Arabic-Indic seven as
        7; the kind is refused instead, by name."""
        kind = f"arith-z{modulus}"
        assert main(["hardness", "gen", kind, "--size", "2", "-n", "2"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"ValueError: unknown arithmetic corpus kind {kind!r}\n"

    @pytest.mark.parametrize("kind", ["arith-z7", "arith-z+7", "arith-z 7"])
    def test_modulus_keeps_sign_and_whitespace(self, tmp_path, capsys, kind):
        corpus = tmp_path / "z.txt"
        corpus.write_text("(+ X1 5) ; 4\n")
        assert main(["hardness", "eval", kind, str(corpus)]) == 0
        assert capsys.readouterr().out == "2\n"

    @pytest.mark.parametrize(
        "kind, line, message",
        [
            ("arith", "(+ 1_0 X1) ; 1", "FormulaParseError: line 1: bad atom '1_0'"),
            ("arith", "(+ X\u0661 1) ; 1", "FormulaParseError: line 1: bad atom 'X\u0661'"),
            ("arith", "(+ X1 1) ; 1_0", "FormulaParseError: line 1: bad assignment value '1_0'"),
            ("arith", "(+ X1 1) ; \uff11", "FormulaParseError: line 1: bad assignment value '\uff11'"),
            ("arith-z7", "(+ X1 1) ; 1, x", "FormulaParseError: line 1: bad assignment value 'x'"),
        ],
        ids=["atom-underscore", "index-arabic-indic", "value-underscore", "value-fullwidth",
             "value-letter"],
    )
    def test_arith_integers_are_ascii(self, tmp_path, capsys, kind, line, message):
        """Arithmetic corpus integers are ASCII decimals: ``int`` alone
        would read non-ASCII digits and ``_`` separators.  A refusal names
        the token."""
        corpus = tmp_path / "c.txt"
        corpus.write_text(line + "\n", encoding="utf-8")
        assert main(["hardness", "eval", kind, str(corpus)]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == message + "\n"

    def test_corpus_integers_keep_signs_and_spaces(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("(+ -1 (* +2 X1)) ; +3 , -4 \n(+ X1 X2) ; 2,\t5\n")
        assert main(["hardness", "eval", "arith", str(corpus)]) == 0
        assert capsys.readouterr().out == "5\n7\n"

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

    def test_barrington_bound_past_the_digit_limit(self, tmp_path, capsys):
        """4**7142 has 4300 digits and prints as an integer; from depth 7143
        the bound prints as the string "4**<depth>"."""
        reports = []
        for n in (7142, 7143):
            assert main(["hardness", "barrington", _not_chain(tmp_path, n)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert [r["length_bound"] for r in reports] == [4**7142, "4**7143"]
        assert [(r["instructions"], r["length_ok"]) for r in reports] == [(7143, True), (7144, True)]

    def test_barrington_bound_under_a_lower_digit_limit(self, tmp_path):
        """The cut-off is the interpreter's limit, not a fixed 4300 digits:
        under a 640-digit limit, 4**2000 (1,205 digits) prints as a string."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        run = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "artifact.cli",
             "hardness", "barrington", _not_chain(tmp_path, 2000)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (run.returncode, run.stderr) == (0, "")
        report = json.loads(run.stdout)
        assert (report["length_bound"], report["instructions"]) == ("4**2000", 2001)


def _not_chain(tmp_path, n: int) -> str:
    """Netlist of n NOT gates in a chain over one input."""
    path = tmp_path / f"not{n}.nl"
    body = "".join(f"{i} NOT {i - 1}\n" for i in range(1, n + 1))
    path.write_text(f"0 INPUT\n{body}OUTPUTS {n}\n", encoding="utf-8")
    return str(path)


class TestDeepInputs:
    """Inputs as deep as the hardness problems: a 10^5-gate NOT chain
    through `circuit depth|eval|rewrite`, NOT chains at, past and far below
    the program cap through `hardness barrington --check`, 50,000 nested
    parentheses through `fp`, and corpus lines 50,000 levels deep through
    `hardness eval`.  Each exits 0, or 2 with one stderr line, and all of
    them together take under 10 s."""

    def test_deep_inputs_within_budget(self, tmp_path, capsys):
        deep, at_cap, long = (_not_chain(tmp_path, n) for n in (100_000, 65_535, 16_000))
        nested = "(" * 50_000 + "1.5" + ")" * 50_000
        # A postfix left comb whose label is its innermost leaf ("0∨" and
        # "1∧" are identities), and a Z_7 comb: (1 + 3 * 50,000) mod 7 = 5.
        bool_comb, z7_comb = tmp_path / "bool.txt", tmp_path / "z7.txt"
        bool_comb.write_text("1" + "0∨1∧" * 25_000 + "\n", encoding="utf-8")
        z7_comb.write_text("(+ " * 50_000 + "X1" + " 3)" * 50_000 + " ; 1,2,3\n", encoding="utf-8")
        start = time.perf_counter()
        results = [_call(argv, capsys) for argv in [
            ["circuit", "depth", deep],
            ["circuit", "eval", deep, "--bits", "1"],
            ["circuit", "rewrite", deep],
            ["hardness", "barrington", at_cap, "--check"],
            ["hardness", "barrington", deep, "--check"],
            ["hardness", "barrington", long, "--check"],
            ["fp", nested],
            ["hardness", "eval", "bool", str(bool_comb)],
            ["hardness", "eval", "arith-z7", str(z7_comb)],
        ]]
        assert time.perf_counter() - start < 10.0
        assert [code for code, _, _ in results] == [0, 0, 0, 0, 2, 0, 0, 0, 0]
        assert all(not err for code, _, err in results if code == 0)
        assert json.loads(results[0][1])["depth"] == 100_000
        assert results[1][1] == "1\n"
        assert results[2][1].count(" NOT ") == 100_000
        assert results[4][1:] == (
            "",
            "ValueError: gate 65536's program needs 65537 instructions, "
            "more than the 65536 allowed\n",
        )
        for (_, out, _), depth in [(results[3], 65_535), (results[5], 16_000)]:
            report = json.loads(out)
            assert report["instructions"] == depth + 1
            assert report["length_bound"] == f"4**{depth}"
            assert (report["length_ok"], report["equivalence"]) == (True, "pass")
        assert results[6][1] == _call(["fp", "1.5"], capsys)[1]
        assert (results[7][1], results[8][1]) == ("1\n", "5\n")


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

    def test_perm_gen_out_files_pinned(self, tmp_path, capsys):
        """The corpus and labels files ``gen perm --out`` writes, at the
        perfbench corpus workload's long op shape; recorded while each
        element was drawn with ``random.shuffle``."""
        out = tmp_path / "perm.txt"
        argv = ["hardness", "gen", "perm", "--size", "10000", "-n", "2", "--seed", "11"]
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 instances to {out} (+ labels sidecar)\n"
        digests = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (out, tmp_path / "perm.txt.labels")
        )
        assert digests == (
            "927155cf4b5541f66584303849299098ba66ded1fea3a3fe317d67c78d6cb514",
            "52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262",
        )

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
             "ValueError: line 2: (1, 1, 3, 4, 5) is not a bijection on [5]"),
            ("12345 21345 1234 2134", "DomainMismatch: line 2: domain sizes differ: 4 vs 5"),
            ("12345 12a45 1x",
             "ValueError: line 2: permutation '12a45' is not a string of decimal digits"),
            ("1234 12345 12a45",
             "ValueError: line 2: permutation '12a45' is not a string of decimal digits"),
            ("\u0661\u0662\u0663\u0664\u0665 12345",
             "ValueError: line 2: permutation '\u0661\u0662\u0663\u0664\u0665' "
             "is not a string of decimal digits"),
            ("12345 +2345",
             "ValueError: line 2: permutation '+2345' is not a string of decimal digits"),
        ],
        ids=["bad-token-after-10000", "mixed-lengths", "non-digit", "parse-before-compose",
             "arabic-indic-digits", "signed-token"],
    )
    def test_exits_two_with_one_line(self, tmp_path, capsys, line, message):
        corpus = tmp_path / "perm.txt"
        corpus.write_text("12345 54321\n" + line + "\n", encoding="utf-8")
        assert main(["hardness", "eval", "perm", str(corpus)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", message + "\n")
