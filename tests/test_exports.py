"""Export lists: the package namespace re-exports only public names, and every public name exists.

Public records: those that hold arrays compare by identity, every record is hashable, and every record takes only
its inputs.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import sic_forge
from conftest import bench_fiducial

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


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE_DIR.glob("*.py") if p.name != "wh.py"))
def test_only_wh_calls_numpy_fft(name):
    # the Z_d transform is wh.PhaseConstants.forward/inverse; a module calling np.fft itself fixes the group to Z_d
    tree = ast.parse((PACKAGE_DIR / name).read_text(encoding="utf-8"))
    chains = [
        f"{node.lineno}: {node.value.id}.fft"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "fft"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    assert chains == []


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


def _sic():
    return sic_forge.build_sic_set(bench_fiducial(5))


def _structure_tensor():
    return sic_forge.structure_coefficients(sic_forge.build_sic_set(np.array([0, 1, -1]) / np.sqrt(2)))


def _reconstructed():
    psi, sic = bench_fiducial(5), _sic()
    return sic_forge.reconstruct_density(sic_forge.sic_probabilities(np.outer(psi, psi.conj()), sic), sic)


# name -> (an independent build of the record, whether two builds compare equal)
RECORDS = {
    "SicSet": (_sic, False),
    "StructureTensor": (_structure_tensor, False),
    "OperatorSet": (lambda: sic_forge.operator_set(_sic().projectors), False),
    "MubSet": (lambda: sic_forge.build_mubs(5), False),
    "UncertaintyProfile": (lambda: sic_forge.uncertainty_profile(bench_fiducial(5), sic_forge.build_mubs(5)), False),
    "ReconstructedDensity": (_reconstructed, False),
    "PhaseConstants": (lambda: sic_forge.wh.phase_constants.__wrapped__(5), False),  # past the cache
    "KtReport": (lambda: _sic().kt(2), True),
    "QuasiOnbReport": (lambda: _sic().quasi_onb(), True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_without_raising_and_hash(name):
    # an array field's generated __eq__ would raise "truth value of an array is ambiguous"; records of arrays
    # compare by identity instead, and records of floats keep value equality
    build, value_equal = RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name and a is not b
    assert (a == b) is value_equal and (a == a) is True
    assert isinstance(hash(a), int) and isinstance(hash(b), int)
    # every array field is read-only
    arrays = {f.name: getattr(a, f.name) for f in dataclasses.fields(a) if isinstance(getattr(a, f.name), np.ndarray)}
    assert [n for n, v in arrays.items() if v.flags.writeable] == [] and (arrays or value_equal)


# name -> the parameters its constructor takes; every other field is derived from them in __post_init__
TAKES = {
    "SicSet": ["fiducial", "tol"],
    "StructureTensor": ["sic"],
    "OperatorSet": ["ops"],
    "MubSet": ["d"],
    "UncertaintyProfile": ["probabilities"],
    "ReconstructedDensity": ["matrix"],
    "PhaseConstants": ["d"],
    "KtReport": ["t", "value", "lower_bound"],
    "QuasiOnbReport": [
        "d", "tol", "projector_deviation", "trace_deviation", "overlap_deviation", "completeness_deviation"
    ],
    "RestartOutcome": [
        "restart", "objective_value", "descent_iterations", "refine_iterations", "evaluations", "stop_reason"
    ],
}


@pytest.mark.parametrize("name", [*RECORDS, "RestartOutcome"])
def test_records_take_only_their_inputs(name):
    # a derived field that a caller could pass is one a caller could forge: pair traces that put K_t below its bound
    assert list(inspect.signature(getattr(sic_forge, name)).parameters) == TAKES[name]
