"""Every name a module lists in ``__all__`` is defined, so a star import
of the package or of any of its modules succeeds, and every name a module
imports is used in it.  The package loads nothing outside the standard
library."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import artifact

MODULES = ["artifact"] + [
    f"artifact.{info.name}" for info in pkgutil.iter_modules(artifact.__path__)
]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_every_library_module_declares_its_exports():
    assert set(MODULES) - set(EXPORTING) == {"artifact.cli"}


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_exports_are_the_library_modules_exports():
    """The package's ``__all__`` is the library modules' ``__all__``s
    concatenated in module-name order, so each export is declared once,
    in its own module, and none is missing from the package."""
    library = [importlib.import_module(name) for name in EXPORTING if name.count(".") == 1]
    assert artifact.__all__ == [n for module in library for n in module.__all__]
    for module in library:
        for name in module.__all__:
            assert getattr(artifact, name) is getattr(module, name)


@pytest.mark.parametrize(
    "path", sorted(Path(artifact.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    """A name a module imports is read somewhere in it: as a name, as the
    base of an attribute, or as a string in its ``__all__``.  Star imports
    and ``__future__`` imports bind no name of their own and are skipped."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(f"artifact.{path.stem}" if path.stem != "__init__" else "artifact")
    used.update(getattr(module, "__all__", ()))
    assert sorted(imported - used) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """The private names a module binds at its top level: functions,
    classes and assigned constants whose names start with ``_`` (dunders
    such as ``__all__`` excluded)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _package_trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(artifact.__file__).parent.glob("*.py"))
    }


def _names_read(trees: dict[str, ast.Module]) -> set[str]:
    """Every name the package reads: as a name, as an attribute, or as a
    name a module imports (which that module must then use).  A star
    import reads no name of its own."""
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return read


def test_every_private_definition_is_read():
    """A private module-level function, class or constant is read somewhere
    in the package (:func:`_names_read`).  A helper nothing reads is dead
    code."""
    trees = _package_trees()
    read = _names_read(trees)
    unread = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    ]
    assert unread == []


def test_text_rule_lives_in_one_module():
    """Only ``artifact._text`` reads text by hand.  No other module calls
    ``isascii`` or ``splitlines``, or ``split`` or ``strip`` with no
    argument, which split and strip at other scripts' spaces too; and each
    module imports the names ``_text`` defines from ``_text`` itself."""
    trees = _package_trees()
    rule = set(_private_definitions(trees.pop("_text.py", ast.Module([], []))))
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                bare = not node.args and not node.keywords
                if method in ("isascii", "splitlines") or method in ("split", "strip") and bare:
                    found.append(f"{module}:{node.lineno} calls {method}")
            elif isinstance(node, ast.ImportFrom) and node.module.rpartition(".")[2] != "_text":
                found += [
                    f"{module}:{node.lineno} imports {a.name} from {node.module}"
                    for a in node.names if a.name in rule
                ]
    assert found == []


def test_reports_have_one_writer():
    """No module calls ``json.dump`` or ``json.dumps`` or imports either
    name: every report is written by ``cli._dump``."""
    found = []
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and (node.func.value.id, node.func.attr) in (("json", "dump"), ("json", "dumps"))
            ):
                found.append(f"{module}:{node.lineno} calls json.{node.func.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [f"{module}:{node.lineno} imports {a.name} from json"
                          for a in node.names if a.name in ("dump", "dumps")]
    assert found == []


# The exports that nothing in the package reads and README does not name,
# each with what keeps it.  A new export that nothing reads fails
# ``test_every_export_is_read``; so does an entry here that is read again.
_UNREAD_EXPORTS = {
    "depth:COMPONENT_REGISTRY_KEYS": "which registry formula each traced component is "
                                     "checked against; the depth tests read it",
    "depth:component_names": "the traceable components, the depth tests' parameter list",
    "floats:fp_compare": "the scalar comparison op; perfbench spans it and the "
                         "comparator circuit is checked against it",
    "hardness:enumerate_small_circuits": "the small circuits perfbench's barrington ops "
                                         "and the Barrington tests sweep",
    "hardness:parse_bool_infix": "the infix grammar README says the library parsers "
                                 "accept; perfbench spans it",
    "matrices:hadamard": "the entrywise matrix product; perfbench spans it",
    "matrices:matmul": "the matrix product; perfbench spans it",
}


def test_every_export_is_read():
    """A name in a module's ``__all__`` is read inside the package
    (:func:`_names_read`; the package's own star imports read nothing) or
    named in README as a whole word.  The exceptions are pinned, each with
    its reason, in ``_UNREAD_EXPORTS``."""
    read = _names_read(_package_trees())
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    unread = [
        f"{name.removeprefix('artifact.')}:{export}"
        for name in EXPORTING
        if name != "artifact"
        for export in importlib.import_module(name).__all__
        if export not in read and not re.search(rf"\b{re.escape(export)}\b", readme)
    ]
    assert sorted(unread) == sorted(_UNREAD_EXPORTS)


# One command per group, each exiting 0.
_ONE_COMMAND_PER_GROUP = [
    ["fp", "1+2"],
    ["mamba", "run", "--shape", "1,1,1,1,1"],
    ["circuit", "check", "compare", "-p", "2"],
    ["hardness", "gen", "bool", "--size", "3", "-n", "1"],
]


def test_no_runtime_dependency():
    """Importing the package and running one command of each group loads
    only standard-library modules and the package's own, though installed
    packages stay importable (so an optional import counts too); and
    ``pyproject.toml`` declares no dependency."""
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import contextlib, io, sys",
        "before = set(sys.modules)",
        f"sys.path.insert(0, {str(root / 'src')!r})",
        "import artifact",
        "from artifact import cli",
        f"for argv in {_ONE_COMMAND_PER_GROUP!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.main(argv) == 0, argv",
        "print(*sorted(set(sys.modules) - before))",
    ])
    run = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    loaded = {name.partition(".")[0] for name in run.stdout.split()}
    assert "artifact" in loaded
    assert sorted(loaded - set(sys.stdlib_module_names) - {"artifact"}) == []
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)


def test_isolated_import_writes_no_bytecode(tmp_path):
    """``-I`` ignores ``PYTHONDONTWRITEBYTECODE``, so a test that starts
    ``python -I`` passes ``-B`` too, or it leaves ``__pycache__`` in the
    checkout under test.  Run on a copy of ``src/``: without ``-B`` the
    import writes bytecode there, and with it none."""
    src = tmp_path / "src"
    shutil.copytree(
        Path(__file__).resolve().parents[1] / "src", src,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import artifact.cli"
    for flags, written in ((["-I", "-B"], False), (["-I"], True)):
        run = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert any(src.rglob("__pycache__")) is written, flags
