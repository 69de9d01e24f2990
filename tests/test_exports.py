"""Export lists: the package namespace re-exports only public names, and every public name exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sic_forge

PACKAGE_DIR = Path(sic_forge.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)]))


def package_imports() -> dict:
    """Module name -> names that the package __init__ imports from it with ``from .module import ...``."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    return {
        node.module: [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_package_imports_only_exported_names():
    imports = package_imports()
    assert imports, "the package __init__ imports nothing from its modules"
    for module, names in imports.items():
        exported = importlib.import_module(f"sic_forge.{module}").__all__
        assert [n for n in names if n not in exported] == [], f"sic_forge.{module}"


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"sic_forge.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate __all__ entry"
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_the_orbit_reports_are_sic_set_members():
    # K_t, the frame potential and the quasi-ONB certificate read the set's stored overlap grid; no function
    # beside them takes the fiducial again
    for name in ("kt", "frame_potential", "quasi_onb"):
        assert hasattr(sic_forge.SicSet, name)
    for name in ("orbit_kt", "orbit_quasi_onb", "_frame_potential", "_pair_traces"):
        assert not hasattr(sic_forge, name) and not hasattr(sic_forge.verify, name)
