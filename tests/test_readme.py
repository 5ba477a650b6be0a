"""README.md as an executed contract.

Every ``$ artifact ...`` line of the README runs through ``cli.main`` in
order, in one directory that holds the README's ``nand.nl``, and must exit
0 and print what the README shows under it: the same lines, or for a
``{ "key": value, ... }`` line a JSON object holding at least the keys
shown.  The library quick start runs as written, and the parameter table
lists exactly the fields of the parameter schema.
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

from artifact.cli import main
from artifact.mamba import GATE_SCHEMA, PARAM_SCHEMA

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# A command line and the output lines under it, up to a blank line, the
# next command or the end of the block.
_RUN = re.compile(r"^\$ artifact (.*)\n((?:(?!\$ |```)[^\n]+\n)*)", re.M)

# The README's letters for the ShapeConfig dimensions.
_DIMS = {"L": "seq_len", "D": "d_model", "E": "d_inner", "n": "d_state", "K": "kernel_size"}


def _shown_json(line: str):
    """A shown ``{ "key": value, ... }`` line as JSON, ``...`` dropped."""
    return json.loads(re.sub(r",?\s*\.\.\.\s*}", "}", line))


def _holds(shown, actual) -> bool:
    """``actual`` equals ``shown``, except that a shown object need only
    hold its keys, each with a value that holds in turn."""
    if isinstance(shown, dict):
        return isinstance(actual, dict) and all(
            key in actual and _holds(value, actual[key]) for key, value in shown.items()
        )
    return shown == actual


def test_commands_print_what_the_readme_shows(tmp_path, capsys, monkeypatch):
    netlist = re.search(r"is `nand\.nl`.*?```\n(.*?)```", README, re.S).group(1)
    assert netlist == "0 INPUT\n1 INPUT\n2 AND 0 1\n3 NOT 2\nOUTPUTS 3\n"
    (tmp_path / "nand.nl").write_text(netlist, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    runs = _RUN.findall(README)

    on_nand = [(line.split()[:2], shown) for line, shown in runs if "nand.nl" in line]
    assert [argv for argv, _ in on_nand] == [["circuit", "eval"], ["hardness", "barrington"]]
    assert on_nand[0][1] == "0\n1\n"
    assert _holds({"circuit_depth": 2, "instructions": 5, "length_bound": 16},
                  _shown_json(on_nand[1][1]))

    for line, shown in runs:
        code = main(shlex.split(line, comments=True))
        out = capsys.readouterr().out
        assert code == 0, line
        if shown.startswith("{"):
            assert _holds(_shown_json(shown), json.loads(out)), line
        else:
            assert out == shown, line


def test_quick_start_runs():
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```", README, re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})


def test_parameter_table_lists_the_schema():
    table = re.search(r"outermost first\):\n\n```text\n(.*?)```", README, re.S).group(1)
    *required, gate = table.splitlines()

    def entries(text: str) -> list[tuple[str, tuple[str, ...]]]:
        return [
            (name, () if dims == "scalar" else tuple(_DIMS[d] for d in dims.split("×")))
            for name, dims in re.findall(r"(\w+)\s+(scalar|[LDEnK](?:×[LDEnK])*)(?=\s|$)", text)
        ]

    assert sorted(entries("\n".join(required))) == sorted(PARAM_SCHEMA)
    assert gate.endswith("(optional)")
    assert entries(gate) == list(GATE_SCHEMA)
