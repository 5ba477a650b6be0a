"""Every name a module lists in ``__all__`` is defined, so a star import
of the package or of any of its modules succeeds."""

from __future__ import annotations

import importlib
import pkgutil

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
