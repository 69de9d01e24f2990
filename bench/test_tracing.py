"""Tests of the benchmark's own arithmetic and of tracing's neutrality.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import sic_forge as sf
import run
from run import outermost_cumulative, parse_importtime
from tracing import Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    names = ["a", "b", "c"]
    spans = [
        (0, 0.0, 10.0, -1, "0.0"),  # a: children b [1, 4] and c [5, 9]
        (1, 1.0, 4.0, 0, "0.0"),
        (2, 5.0, 9.0, 0, "0.0"),  # c: child b [6, 7]
        (1, 6.0, 7.0, 2, "0.0"),
        (2, 12.0, 14.5, -1, "0.1"),  # a second root with no children
    ]
    calls, own = self_times(names, spans)
    assert calls == {"a": 1, "b": 2, "c": 2}
    assert own["a"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own["b"] == pytest.approx(3.0 + 1.0)
    assert own["c"] == pytest.approx((4.0 - 1.0) + 2.5)
    assert sum(own.values()) == pytest.approx(10.0 + 2.5)  # self times tile the root spans


def test_operation_costs_fastest_or_median_of_scaled_repeats():
    def record(k, position, latency, cpu, scale, problem=""):
        return run.Record(k, position, "op", latency, cpu, scale, problem, "")

    records = [
        record(0, 0, 4.0, 3.0, 0.5),  # ran while the probe read twice its reference time
        record(0, 1, 0.2, 0.2, 1.0),
        record(1, 0, 1.0, 1.0, 1.0),
        record(1, 1, 0.1, 0.3, 1.0),
        record(2, 0, 3.0, 2.0, 1.0),
        record(2, 1, 0.01, 0.01, 1.0, problem="op: wrong"),  # failed operations do not count
    ]
    assert run.operation_costs(records, probed=False) == (
        pytest.approx([1.0, 0.1]), pytest.approx([1.0, 0.2]))
    assert run.operation_costs(records, probed=True) == (
        pytest.approx([2.0, 0.15]), pytest.approx([1.5, 0.25]))
    assert run.ops_per_s(records, probed=True) == pytest.approx(1.0 / np.sqrt(2.0 * 0.15))


def test_importtime_outermost_entries():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |         scipy._lib",
            "import time:       200 |        300 |       scipy",
            "import time:        50 |        350 |     scipy.linalg",
            "import time:        40 |        390 |   sic_forge.mubs",
            "import time:        70 |         70 |   numpy",
            "import time:        10 |        470 | sic_forge",
        ]
    )
    entries = parse_importtime(text)
    assert [e[0] for e in entries] == [4, 3, 2, 1, 1, 0]
    assert outermost_cumulative(entries, "scipy") == pytest.approx(350e-6)
    assert outermost_cumulative(entries, "numpy") == pytest.approx(70e-6)
    assert outermost_cumulative(entries, "sic_forge") == pytest.approx(470e-6)


def test_tracing_changes_no_result_and_uninstalls_cleanly():
    search_module = importlib.import_module("sic_forge.search")
    before = (sf.search_detailed, search_module.quartic_defects)
    config = sf.SearchConfig(dim=4, restarts=3, seed=11)
    plain, plain_outcomes = sf.search_detailed(config)

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op("0.0"):
            traced, traced_outcomes = sf.search_detailed(config)
    finally:
        tracer.uninstall()

    assert traced.fiducial.tobytes() == plain.fiducial.tobytes()
    assert traced_outcomes == plain_outcomes
    assert (sf.search_detailed, search_module.quartic_defects) == before
    calls, _ = self_times(tracer.names, tracer.spans)
    assert calls["search.search_detailed"] == 1
    assert calls["search.objective"] > 0
    assert calls["verify.quartic_defects"] >= calls["search.objective"] + calls["search.objective_gradient"]
    assert tracer.counters["search.restarts"] == 3
    assert tracer.counters["search.iterations"] == sum(o.iterations for o in plain_outcomes)


def test_calls_outside_an_operation_are_not_recorded():
    tracer = Tracer()
    tracer.install()
    try:
        sf.gram_residual(np.ones(3) / np.sqrt(3))
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_traced_run_refuses_a_threaded_search(monkeypatch, capsys):
    monkeypatch.setenv("SIC_FORGE_THREADS", "2")
    assert run.main(["--workload", "search", "--seconds", "1", "--trace", "1"]) == 2
    assert "SIC_FORGE_THREADS" in capsys.readouterr().err
