"""Tests for the command-line interface: exit codes, output determinism,
and the wiring of each subcommand to its module."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from artifact.cli import eval_expression, main
from artifact.floats import DivisionByZero, FpNumber, round_p


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
        from artifact.cli import CliUsageError

        for bad in ("", "2+", "log 2", "(1+2", "1 2", "sin(1)", "1..2", "@"):
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

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "payload",
        [{"rows": [[1, 2]]}, [1, 2], {"entries": [[1, 2], 3]}],
        ids=["object-without-entries", "rows-not-lists", "entries-row-not-list"],
    )
    def test_malformed_input_exits_two(self, tmp_path, capsys, command, payload):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(payload))
        code = main(["mamba", command, "--shape", "2,2,2,2,2",
                     "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


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
