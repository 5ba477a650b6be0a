"""Every name a module lists in ``__all__`` is defined, so a star import
of the package or of any of its modules succeeds, and every name a module
imports is used in it."""

from __future__ import annotations

import ast
import importlib
import pkgutil
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
