"""Lockstep restart batches: every restart's trajectory equals the restart run alone.

The serial descent below is the one-restart-at-a-time loop the search ran
before restarts were batched, its nonmonotone Armijo test and halving ladder
written separately on a deque of accepted objectives.  It is kept here as the
oracle of the batched descent, and the serial Gauss-Newton tail beside it,
written separately too, as the oracle of the search's lockstep tail: outcomes
and final points must agree bit for bit.  The ungated
pipeline, which refines every restart's tail wherever its descent ended, is
kept as the oracle of the refinement gate: the gate may drop only refinements
that certify nothing.  The descent without its plateau exit is the oracle of
that exit: it may stop only restarts that certify nothing.
"""

import collections
import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sic_forge import SearchConfig, search_detailed
from sic_forge.search import (
    _ARMIJO,
    _ARMIJO_MEMORY,
    _MAX_STEP,
    _MIN_STEP,
    _PLATEAU_DROP,
    _PLATEAU_LEVEL,
    _REFINE_MAX_ITERS,
    _REFINE_SWITCH,
    _SHRINK,
    _STEP_TOL,
    _Point,
    _evaluate,
    _gauss_newton_tail,
    _gradient,
    _norms,
    _random_starts,
    _residual_derivative,
)
from sic_forge.wh import phase_constants
from conftest import random_state

search_module = importlib.import_module("sic_forge.search")


def serial_descent(point, max_iters: int, objective_floor: float, plateau: bool = True, ladders: list | None = None):
    """Nonmonotone backtracking descent with Barzilai-Borwein step seeding of one
    restart; returns (point, iterations, evaluations, stop reason).

    A trial passes the Armijo test against the largest of the last
    _ARMIJO_MEMORY accepted objectives, the start included (Grippo, Lampariello
    and Lucidi 1986; Raydan 1997); the step halves until one does, or until it
    falls below _MIN_STEP.  With plateau, after every accepted step the deque of
    the last _ARMIJO_MEMORY accepted f is also a plateau window: the descent
    stops if all of them are above _PLATEAU_LEVEL and lie within the fraction
    _PLATEAU_DROP of each other.  The floor and the budget
    outrank a short last step, and a short last step outranks a plateau: a step
    that ends several reports the first of them.  Into ladders, if given, each
    line search appends its accepted step's length |psi_new - psi|, or None if
    it found none.
    """
    pc = phase_constants(point.psi.shape[-1])
    g = _gradient(pc, point)
    step = 1.0 / max(1.0, float(np.linalg.norm(g)))
    iterations = evaluations = 0
    recent = collections.deque([float(point.f)], maxlen=_ARMIJO_MEMORY)  # the last accepted objectives
    stop = "line_search_stalled"  # a zero gradient or a failed halving ladder
    while iterations < max_iters and point.f > objective_floor:
        gnorm_sq = float(np.vdot(g, g).real)
        if gnorm_sq <= 0.0:
            break
        alpha = min(max(step, _MIN_STEP), _MAX_STEP)
        reference = max(recent)
        while alpha >= _MIN_STEP:
            evaluations += 1
            cand = point.psi + alpha * -g
            trial = _evaluate(pc, cand / np.linalg.norm(cand))
            if trial.f <= reference - _ARMIJO * alpha * gnorm_sq:
                break
            alpha *= _SHRINK
        else:
            trial = None
        if ladders is not None:
            ladders.append(None if trial is None else np.linalg.norm(trial.psi - point.psi))
        if trial is None:
            break  # line search stalled: at the numerical floor of the basin
        iterations += 1
        g_new = _gradient(pc, trial)
        s = trial.psi - point.psi
        y = g_new - g
        sy = float(np.vdot(s, y).real)
        ss = float(np.vdot(s, s).real)
        step = ss / sy if sy > 1e-300 else alpha * 2.0
        point, g = trial, g_new
        recent.append(float(point.f))
        if math.sqrt(ss) <= _STEP_TOL:
            stop = "step_below_tolerance"
            break
        if plateau:
            low = min(recent)
            if low > _PLATEAU_LEVEL and low > (1.0 - _PLATEAU_DROP) * max(recent):
                stop = "objective_plateau"
                break
    if point.f <= objective_floor:
        stop = "objective_floor"
    elif iterations >= max_iters:
        stop = "iteration_budget"
    return point, iterations, evaluations, stop


def serial_refine(point, objective_floor: float, max_iters: int):
    """Gauss-Newton tail of one restart; returns (point, iterations, evaluations, stop reason).

    Each step solves [Re W | Im W] delta = -rho/2 in the least-squares sense (the real Jacobian of rho in
    (Re psi, Im psi) is 2 [Re W | Im W]), moves to psi + delta at full length and renormalises.  The step is kept
    only if the objective falls; otherwise the tail stops with line_search_stalled.  It stops with
    iteration_budget once max_iters steps are kept, and with objective_floor once f is at or below the floor.
    """
    d = point.psi.shape[0]
    pc = phase_constants(d)
    iterations = evaluations = 0
    while point.f > objective_floor:
        if iterations >= max_iters:
            return point, iterations, evaluations, "iteration_budget"
        w = _residual_derivative(pc, point.psi, point.b)
        delta = np.linalg.lstsq(np.concatenate([w.real, w.imag], axis=1), -point.rho / 2, rcond=None)[0]
        moved = point.psi + (delta[:d] + 1j * delta[d:])
        trial = _evaluate(pc, moved / np.linalg.norm(moved))
        evaluations += 1
        if trial.f >= point.f:
            return point, iterations, evaluations, "line_search_stalled"
        point = trial
        iterations += 1
    return point, iterations, evaluations, "objective_floor"


def fresh_start(d: int, seed: int, restart: int) -> np.ndarray:
    """The start point of one restart drawn alone: a fresh Philox stream keyed by (seed, restart), normalised."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, restart], dtype=np.uint64)))
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def serial_restart(config: SearchConfig, restart: int, gated: bool = True, plateau: bool = True):
    """One restart of search_detailed run alone: (final psi, outcome fields as a tuple).

    Gated, as the search runs, only a descent that reached the refinement switch
    is refined; ungated, every descent is.  Without plateau, the descent runs
    on past every plateau.
    """
    floor = config.accept_tol * 1e-4
    switch = max(floor, _REFINE_SWITCH)
    start = _evaluate(phase_constants(config.dim), fresh_start(config.dim, config.seed, restart))
    point, descent, evals, stop = serial_descent(start, config.max_iters, switch, plateau)
    if gated and point.f > switch:
        return point.psi, (restart, float(point.f), descent, descent, 0, 1 + evals, stop)
    budget = min(_REFINE_MAX_ITERS, config.max_iters - descent)
    point, refine, refine_evals, stop = serial_refine(point, floor, budget)
    return point.psi, (restart, float(point.f), descent + refine, descent, refine, 1 + evals + refine_evals, stop)


def fingerprint(result):
    """Everything search_detailed returns, the fiducial and the overlap grid as bytes."""
    candidate, outcomes = result
    fields = {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in dataclasses.asdict(candidate).items()}
    return fields, outcomes


@pytest.mark.parametrize("d", [3, 8, 12])
@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_batched_search_equals_the_serial_oracle(d, seed):
    config = SearchConfig(dim=d, restarts=6, seed=seed)
    candidate, outcomes = search_detailed(config)
    alone = [serial_restart(config, r) for r in range(config.restarts)]
    assert [dataclasses.astuple(o) for o in outcomes] == [fields for _, fields in alone]
    best = min(range(config.restarts), key=lambda r: (alone[r][1][1], r))
    assert candidate.fiducial.tobytes() == alone[best][0].tobytes()


def assert_keeps_every_certified_restart(config, reference):
    """search_detailed certifies the same restarts as the reference, a list of serial_restart
    results, with the same outcomes and the same best fiducial; returns the search's outcomes."""
    candidate, outcomes = search_detailed(config)
    certified = {o.restart for o in outcomes if o.objective_value <= config.accept_tol}
    assert certified and certified == {r for r, (_, f) in enumerate(reference) if f[1] <= config.accept_tol}
    for r in certified:
        assert dataclasses.astuple(outcomes[r]) == reference[r][1]
    best = min(range(config.restarts), key=lambda r: (reference[r][1][1], r))
    assert candidate.fiducial.tobytes() == reference[best][0].tobytes()
    return outcomes


@pytest.mark.parametrize("d", range(2, 13))
@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_the_refinement_gate_keeps_every_certified_restart(d, seed):
    # refining a restart whose descent ran to its end above the switch never certifies it: the ungated tail is the
    # oracle.  Its descent runs past every plateau: refined from a plateau, d=4 seed 2024 restart 3 certifies.
    config = SearchConfig(dim=d, restarts=6, seed=seed)
    assert_keeps_every_certified_restart(
        config, [serial_restart(config, r, gated=False, plateau=False) for r in range(config.restarts)]
    )


@pytest.mark.parametrize("d", range(2, 13))
@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_the_plateau_exit_keeps_every_certified_restart(d, seed):
    # on this grid no restart the exit stops would certify if its descent ran on: the descent without the exit is
    # the oracle.  Nor at the bench searches' seeds 1, 97, 2 and 3, whose 403 plateau stops were checked the same
    # way: a nonmonotone rise widens the window the exit reads (see test_a_nonmonotone_rise_does_not_fake_a_plateau)
    config = SearchConfig(dim=d, restarts=6, seed=seed)
    outcomes = assert_keeps_every_certified_restart(
        config, [serial_restart(config, r, plateau=False) for r in range(config.restarts)]
    )
    assert all(o.objective_value > _PLATEAU_LEVEL for o in outcomes if o.stop_reason == "objective_plateau")


# restarts the descent leaves above the switch: a last step below _STEP_TOL, at d=7 on a local minimum at 0.0153,
# and two plateaus, at d=4 on a local minimum at 1/135 and at d=8.  Both plateau stops fall between multiples of
# _ARMIJO_MEMORY, which a plateau test made only at every _ARMIJO_MEMORY-th accepted step would miss.  No search
# restart's descent stalls: the nonmonotone test accepts the roundoff-level trials that used to fail its last halving
# ladder (see the zero-gradient test below)
SHORT_STEP = (SearchConfig(dim=7, restarts=1, seed=21), 0, "step_below_tolerance")
PLATEAU_D4 = (SearchConfig(dim=4, restarts=1, seed=10), 0, "objective_plateau")
PLATEAU = (SearchConfig(dim=8, restarts=1, seed=5), 0, "objective_plateau")


@pytest.mark.parametrize(
    "config, restart, stop",
    [
        (SearchConfig(dim=5, restarts=2, seed=999, max_iters=3), 0, "iteration_budget"),
        SHORT_STEP,
        PLATEAU_D4,
        PLATEAU,
    ],
)
def test_a_restart_left_above_the_switch_keeps_its_last_descent_point(config, restart, stop):
    outcome = search_detailed(config)[1][restart]
    start = _evaluate(phase_constants(config.dim), fresh_start(config.dim, config.seed, restart))
    point, descent, evals, serial_stop = serial_descent(start, config.max_iters, _REFINE_SWITCH)
    assert point.f > _REFINE_SWITCH
    assert outcome.objective_value == float(point.f)
    assert (outcome.iterations, outcome.descent_iterations, outcome.refine_iterations) == (descent, descent, 0)
    assert (outcome.evaluations, outcome.stop_reason, serial_stop) == (1 + evals, stop, stop)


def test_a_descent_that_reaches_the_switch_on_its_last_iteration_spends_the_budget():
    # the descent hands over after all 40 of its iterations: the tail has a budget of 0 and reports it
    config = SearchConfig(dim=3, restarts=1, seed=0, max_iters=40)
    [outcome] = search_detailed(config)[1]
    assert outcome.objective_value <= _REFINE_SWITCH and outcome.descent_iterations == 40
    assert (outcome.refine_iterations, outcome.stop_reason) == (0, "iteration_budget")
    assert dataclasses.astuple(outcome) == serial_restart(config, 0)[1]


@pytest.mark.parametrize("config, restart, stop", [SHORT_STEP, PLATEAU_D4, PLATEAU])
def test_the_stop_reason_names_the_exit_the_descent_took(config, restart, stop):
    # a short step's and a plateau's last ladder succeeded, a plateau's with a step longer than _STEP_TOL
    assert search_detailed(config)[1][restart].stop_reason == stop
    ladders = []
    start = _evaluate(phase_constants(config.dim), fresh_start(config.dim, config.seed, restart))
    assert serial_descent(start, config.max_iters, _REFINE_SWITCH, ladders=ladders)[3] == stop
    if stop == "step_below_tolerance":
        assert None not in ladders and ladders[-1] <= _STEP_TOL < min(ladders[:-1])
    else:
        assert None not in ladders and _STEP_TOL < min(ladders)


@pytest.mark.parametrize("config, restart, steps", [(PLATEAU_D4[0], 0, 23), (PLATEAU[0], 0, 38)])
def test_a_plateau_stops_the_descent_after_any_accepted_step(config, restart, steps):
    # the plateau window is read after every accepted step, not only at multiples of _ARMIJO_MEMORY
    outcome = search_detailed(config)[1][restart]
    assert (outcome.descent_iterations, outcome.refine_iterations, outcome.stop_reason) == (
        steps, 0, "objective_plateau")
    assert steps % _ARMIJO_MEMORY


@pytest.mark.parametrize("d", [3, 4, 5])
def test_a_descent_from_a_zero_gradient_stalls_at_once(d):
    # a basis state is a critical point of the objective: the descent evaluates its start only and stops
    start = np.zeros(d, dtype=complex)
    start[0] = 1.0
    pc = phase_constants(d)
    ends, descent, refine, evaluations, stops = search_module._descend(pc, start[None], 4000, 1e-22)
    assert np.array_equal(ends.psi[0], start) and ends.f[0] > _REFINE_SWITCH
    assert (descent[0] + refine[0], evaluations[0], stops[0]) == (0, 1, "line_search_stalled")
    assert serial_descent(_evaluate(pc, start), 4000, _REFINE_SWITCH)[1:] == (0, 0, "line_search_stalled")


def traced_tails(monkeypatch, config):
    """search_detailed(config)'s outcomes, and per restart the Gauss-Newton tail gave a budget: (f at the tail's
    start, f at each point the tail evaluated for it, its iterations, evaluations and stop reason).

    The tail refines a batch's end stack in place, so each row's start f is read before the call.  It runs the rows
    in lockstep, each working row evaluating one trial per tick, and a row leaves the working set for good: a row
    that made k evaluations is in the first k ticks' stacks, at its rank among the rows still working, which the
    trace checks by the stack sizes."""
    tails, tail, evaluate = [], search_module._gauss_newton_tail, search_module._evaluate

    def recording(pc, point, objective_floor, budgets):
        ticks, start = [], point.f.tolist()
        monkeypatch.setattr(search_module, "_evaluate", lambda *args: ticks.append(evaluate(*args)) or ticks[-1])
        result = tail(pc, point, objective_floor, budgets)
        monkeypatch.setattr(search_module, "_evaluate", evaluate)
        iterations, evaluations, stops = result
        assert [len(t.f) for t in ticks] == [np.count_nonzero(evaluations > k) for k in range(len(ticks))]
        rows = zip(start, budgets.tolist(), iterations.tolist(), evaluations.tolist(), stops)
        for row, (f, budget, *counts) in enumerate(rows):
            if budget:
                rank = [np.count_nonzero(evaluations[:row] > k) for k in range(counts[1])]
                tails.append((f, [float(t.f[i]) for t, i in zip(ticks, rank)], *counts[:2], str(counts[2])))
        return result

    monkeypatch.setattr(search_module, "_gauss_newton_tail", recording)
    return search_detailed(config)[1], tails


def test_a_refinement_at_its_roundoff_floor_stalls(monkeypatch):
    # below any reachable floor, each restart's Gauss-Newton tail keeps its full steps while they lower the
    # objective and stops at the first that does not, which costs one evaluation
    config = SearchConfig(dim=3, restarts=2, seed=1, accept_tol=1e-40)
    outcomes, tails = traced_tails(monkeypatch, config)
    assert len(tails) == 2
    for o, (start, trials, iterations, evaluations, stop) in zip(outcomes, tails):
        assert stop == o.stop_reason == "line_search_stalled" and iterations == o.refine_iterations > 0
        assert evaluations == len(trials) == iterations + 1
        kept = [start, *trials[:-1]]
        assert all(new < old for old, new in zip(kept, kept[1:])) and trials[-1] >= kept[-1] == o.objective_value
    assert [dataclasses.astuple(o) for o in outcomes] == [serial_restart(config, r)[1] for r in range(2)]


@pytest.mark.parametrize("d", range(2, 13))
@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_every_refined_restart_of_the_grid_reaches_the_floor_in_full_steps(monkeypatch, d, seed):
    # the traffic an undamped tail rests on: each Gauss-Newton step lowers the objective at full length, one
    # evaluation per step, and every refined restart stops at the objective floor
    outcomes, tails = traced_tails(monkeypatch, SearchConfig(dim=d, restarts=6, seed=seed))
    assert all(o.stop_reason == "objective_floor" for o in outcomes if o.refine_iterations > 0)
    assert all((evaluations, stop) == (iterations, "objective_floor") for *_, iterations, evaluations, stop in tails)


def test_one_tail_batch_retires_its_rows_on_different_ticks_for_different_reasons():
    # d=4 seed 11 at a floor of 1e-32, between the roundoff floors the rows stall at: restart 1 spends its budget of
    # one step at tick 1, restarts 0, 3, 4 and 7 reach the floor at tick 2, and restarts 2 and 5, the last rows
    # left, both stall at tick 3, which leaves the stack empty.  Two rows never work: restart 3's descent end with a
    # budget of 0 (row 1) and restart 0's tail end, already at the floor (row 4).  Every row equals its serial tail
    # bit for bit, and those two come back as they went in.  The tail refines the stack it is given in place
    restarts, floor = (0, 1, 2, 3, 4, 5, 7), 1e-32
    pc = phase_constants(4)
    ends = [serial_descent(_evaluate(pc, fresh_start(4, 11, r)), 4000, _REFINE_SWITCH)[0] for r in restarts]
    at_floor = serial_refine(ends[0], floor, 60)[0]
    assert at_floor.f <= floor
    ends[1:1], ends[4:4] = [ends[3]], [at_floor]
    budgets = np.array([60, 0, 1, 60, 60, 60, 60, 60, 60])
    points = _Point(*map(np.array, zip(*ends)))
    iterations, evaluations, stops = _gauss_newton_tail(pc, points, floor, budgets)
    alone = [serial_refine(point, floor, budget) for point, budget in zip(ends, budgets.tolist())]
    assert list(zip(iterations.tolist(), evaluations.tolist(), stops.tolist())) == [a[1:] for a in alone]
    for row, (point, *_) in enumerate(alone):
        assert all(a[row].tobytes() == np.asarray(b).tobytes() for a, b in zip(points, point))
    for row in (1, 4):
        assert all(a[row].tobytes() == np.asarray(b).tobytes() for a, b in zip(points, ends[row]))
    assert list(zip(iterations.tolist(), evaluations.tolist(), stops.tolist())) == [
        (2, 2, "objective_floor"),
        (0, 0, "iteration_budget"),
        (1, 1, "iteration_budget"),
        (2, 3, "line_search_stalled"),
        (0, 0, "objective_floor"),
        (2, 2, "objective_floor"),
        (2, 2, "objective_floor"),
        (2, 3, "line_search_stalled"),
        (2, 2, "objective_floor"),
    ]


STALLS_AND_BUDGETS = {"line_search_stalled", "iteration_budget"}


@pytest.mark.parametrize(
    "config, stops",
    [  # short budgets spend themselves in the tail beside tails that reach the floor, or that stall below 1e-32
        (SearchConfig(dim=3, restarts=8, seed=11, max_iters=50), {"objective_floor", "iteration_budget"}),
        (SearchConfig(dim=3, restarts=8, seed=11, max_iters=50, accept_tol=1e-40), STALLS_AND_BUDGETS),
        (SearchConfig(dim=5, restarts=8, seed=11, max_iters=20, accept_tol=1e-40), STALLS_AND_BUDGETS),
    ],
)
def test_tails_that_end_for_different_reasons_equal_the_serial_oracle(monkeypatch, config, stops):
    outcomes, tails = traced_tails(monkeypatch, config)
    assert {stop for *_, stop in tails} == stops and len({evaluations for *_, evaluations, _ in tails}) > 1
    assert [dataclasses.astuple(o) for o in outcomes] == [serial_restart(config, r)[1] for r in range(8)]


@pytest.mark.parametrize("start", ["random", "near_fiducial"])
def test_polish_runs_the_tail_on_one_row_as_the_serial_oracle(monkeypatch, start):
    psi = fresh_start(3, 5, 0)
    if start == "near_fiducial":
        psi = search_detailed(SearchConfig(dim=3, restarts=1, seed=5, accept_tol=1e-12))[0].fiducial
    rows, tail = [], search_module._gauss_newton_tail

    def recording(pc, point, *args):
        rows.append(len(point.f))
        return tail(pc, point, *args)

    monkeypatch.setattr(search_module, "_gauss_newton_tail", recording)
    polished = search_module.polish(psi)
    point, descent, _, _ = serial_descent(_evaluate(phase_constants(3), psi), 4000, _REFINE_SWITCH)
    point, refine, _, stop = serial_refine(point, 1e-28, min(_REFINE_MAX_ITERS, 4000 - descent))
    assert rows == [1] and refine > 0 and stop == "objective_floor"
    assert polished.fiducial.tobytes() == point.psi.tobytes()


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(dim=3, restarts=7, seed=3),
        SearchConfig(dim=8, restarts=7, seed=5),
        SearchConfig(dim=5, restarts=7, seed=11, max_iters=40),
    ],
)
def test_outcomes_do_not_depend_on_the_batch_size(monkeypatch, config):
    batches = []
    descend = search_module._descend

    def recording(pc, psi, *args):
        batches.append(psi.shape[0])
        return descend(pc, psi, *args)

    monkeypatch.setattr(search_module, "_descend", recording)
    default = fingerprint(search_detailed(config))
    assert batches == [7]  # the default cap holds every restart of these runs in one batch
    for entries, rows in ((1, [1] * 7), (3 * config.dim**2, [3, 3, 1])):
        monkeypatch.setattr(search_module, "_BATCH_ENTRIES", entries)
        batches.clear()
        assert fingerprint(search_detailed(config)) == default
        assert batches == rows


@pytest.mark.parametrize("entries, batches", [(None, [7]), (3 * 9, [3, 3, 1]), (9, [1] * 7)])
@pytest.mark.parametrize(
    "objectives, winner",
    [((2, 1, 1, 0.5, 0.5, 3, 0.5), 3), ((1, 2, 1, 2, 1, 2, 1), 0), ((2, 2, 2, 2, 2, 1, 1), 5), ((4,) * 7, 0)],
)
def test_the_lowest_restart_wins_a_tie(monkeypatch, entries, batches, objectives, winner):
    # no search reaches an exact tie, so each batch's end objectives are overwritten: the winner is the first
    # restart at the lowest objective, whether the tied restarts share a batch or not
    ends, sizes, descend = [], [], search_module._descend

    def tied(pc, psi, *args):
        sizes.append(len(psi))
        result = descend(pc, psi, *args)
        result[0].f[:] = objectives[len(ends) : len(ends) + len(psi)]
        ends.extend(result[0].psi.copy())
        return result

    monkeypatch.setattr(search_module, "_descend", tied)
    if entries is not None:
        monkeypatch.setattr(search_module, "_BATCH_ENTRIES", entries)
    candidate, outcomes = search_detailed(SearchConfig(dim=3, restarts=7, seed=5))
    assert [o.objective_value for o in outcomes] == list(objectives) and len({e.tobytes() for e in ends}) == 7
    assert candidate.fiducial.tobytes() == ends[winner].tobytes()
    assert sizes == batches


@pytest.mark.parametrize("start", ["random", "near_fiducial"])
def test_polish_and_descend_leave_the_callers_array_unchanged(start):
    # the tail refines the descent's end stack in place, never the caller's start
    psi = fresh_start(3, 5, 0)
    if start == "near_fiducial":
        psi = search_detailed(SearchConfig(dim=3, restarts=1, seed=5, accept_tol=1e-12))[0].fiducial.copy()
    before = psi.tobytes()
    search_module.polish(psi)
    assert psi.tobytes() == before
    stack = np.concatenate((psi[None], _random_starts(3, 5, range(1, 4))))
    before = stack.tobytes()
    refine = search_module._descend(phase_constants(3), stack, 4000, 1e-28)[2]
    assert stack.tobytes() == before and np.count_nonzero(refine) == 4


@pytest.mark.parametrize("k", [1, 5, 11])
def test_restart_outcomes_do_not_depend_on_the_restart_count(k):
    _, all16 = search_detailed(SearchConfig(dim=6, restarts=16, seed=77))
    _, first = search_detailed(SearchConfig(dim=6, restarts=k, seed=77))
    assert first == all16[:k]


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(2, 16), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_batched_kernels_equal_row_calls_bit_for_bit(d, rows, seed):
    rng = np.random.default_rng(seed)
    psi = np.array([random_state(rng, d) for _ in range(rows)])
    pc = phase_constants(d)
    batch = _evaluate(pc, psi)
    gradients = _gradient(pc, batch)
    norms = _norms(gradients)
    derivatives = _residual_derivative(pc, batch.psi, batch.b)
    for r in range(rows):
        alone = _evaluate(pc, psi[r])
        assert batch.f[r].tobytes() == alone.f.tobytes()
        assert batch.rho[r].tobytes() == alone.rho.tobytes()
        assert batch.b[r].tobytes() == alone.b.tobytes()
        assert gradients[r].tobytes() == _gradient(pc, alone).tobytes()
        assert norms[r] == np.linalg.norm(gradients[r])
        assert derivatives[r].tobytes() == _residual_derivative(pc, alone.psi, alone.b).tobytes()


@pytest.mark.parametrize("d, seed", [(2, 0), (7, 2**64 - 1), (24, 97)])
def test_one_rekeyed_stream_draws_the_start_of_each_restart_alone(d, seed):
    starts = _random_starts(d, seed, range(50))
    assert all(starts[r].tobytes() == fresh_start(d, seed, r).tobytes() for r in range(50))
    assert _random_starts(d, seed, range(17, 20)).tobytes() == starts[17:20].tobytes()
