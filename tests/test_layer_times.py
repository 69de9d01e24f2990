"""tools/layer_times.py: its loader, every row builder on a fresh copy of the package, and the interleaved timing."""

import importlib.util
import sys
from pathlib import Path

import pytest

import sic_forge
from conftest import BENCH_DATA, bench_fiducial

ROOT = Path(__file__).resolve().parents[1]
COPY = "sic_forge_layer_times_copy"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("layer_times", ROOT / "tools" / "layer_times.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def copy(tool):
    """src loaded again under a fresh name; its sys.modules entries are removed afterwards."""
    yield tool.load(ROOT / "src", COPY)
    for name in [name for name in sys.modules if name == COPY or name.startswith(COPY + ".")]:
        del sys.modules[name]
    assert COPY not in sys.modules


def _call_all(calls: dict) -> None:
    assert calls
    for fn in calls.values():
        fn()


def test_a_loaded_copy_has_its_own_module_tree(tool, copy):
    for name in ("wh", "search"):
        assert tool.module(copy, name) is not importlib.import_module(f"sic_forge.{name}")
        assert tool.module(copy, name).__name__ == f"{COPY}.{name}"
    assert copy.SicSet is not sic_forge.SicSet
    assert copy.build_sic_set(bench_fiducial(5)).certified


def test_operator_space_and_tomography_rows_run(tool, copy):
    calls = tool.operator_calls(copy, 8)
    assert list(calls) == ["rank_one", "operator_set", "kt", "frame_potential", "quasi_onb", "build_sic_set",
                           "grid_kt", "grid_frame_potential", "grid_quasi_onb"]
    _call_all(calls)
    _call_all(tool.tomography_calls(copy, bench_fiducial(5)))


def test_search_rows_run_and_counts_restore_the_tail(tool, copy):
    search = tool.module(copy, "search")
    tail = search._gauss_newton_tail
    _call_all(tool.search_calls(copy, 3, 2, 1))
    calls = tool.tick_calls(copy, 3, 1)
    assert list(calls) == ["tick_r1", "tick_r16"]
    _call_all(calls)
    counts = tool.search_counts(copy, 3, 2, 1)
    assert search._gauss_newton_tail is tail
    assert sum(counts[f"stop.{reason}"] for reason in search.STOP_REASONS) == 2
    assert counts["descent_evals"] >= counts["descent_iters"] + 2  # start points included


def test_cli_rows_run(tool, copy):
    calls = tool.cli_calls(copy, ["verify", "--fiducial", str(BENCH_DATA / "fiducial_d5.json"), "--json"])
    assert list(calls) == ["json", "text"]
    assert [fn() for fn in calls.values()] == [0, 0]


def test_interleaved_reports_a_median_and_quartiles_per_label(tool, monkeypatch):
    monkeypatch.setattr(tool, "REPS", 3)
    table = tool.interleaved({"a": {"noop": lambda: None}, "b": {"noop": lambda: None}})
    assert list(table) == ["a", "b"]
    for row in table.values():
        assert list(row) == ["noop", "noop.quartiles"]
        q1, q3 = row["noop.quartiles"]
        assert 0.0 <= q1 <= row["noop"] <= q3
    both = tool.interleaved({"a": {"noop": lambda: None}}, tool.WALL_CPU)
    assert list(both["a"]) == ["noop_wall", "noop_wall.quartiles", "noop_cpu", "noop_cpu.quartiles"]
