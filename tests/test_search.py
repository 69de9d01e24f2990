"""Search objective, gradient, descent, and reproducibility."""

import dataclasses
import importlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import sic_forge
from sic_forge import (
    RestartOutcome,
    SearchConfig,
    SicSet,
    build_sic_set,
    displace_state,
    gram_residual,
    objective,
    objective_gradient,
    polish,
    quartic_residual,
    search,
    search_detailed,
)
from sic_forge.search import STOP_REASONS
from sic_forge.wh import phase_constants
from conftest import random_state


def brute_force_objective(psi: np.ndarray) -> float:
    """Hand-enumerated sum of squared quartic violations."""
    d = psi.shape[0]
    total = 0.0
    for k in range(d):
        for l in range(d):
            term = 0.0 + 0.0j
            for j in range(d):
                term += (
                    psi[j]
                    * psi[(j + k) % d].conjugate()
                    * psi[(j + l) % d].conjugate()
                    * psi[(j + k + l) % d]
                )
            target = ((k == 0) + (l == 0)) / (d + 1.0)
            total += abs(term - target) ** 2
    return total


def test_objective_vanishes_at_fiducial(fiducial_d3):
    assert objective(fiducial_d3) <= 1e-20


def test_objective_basis_state_frozen_value():
    # at d=2: (1 - 2/3)^2 + 2*(0 - 1/3)^2 + 0 = 1/3, enumerated by hand
    e0 = np.array([1.0, 0.0])
    assert objective(e0) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert objective(e0) == pytest.approx(brute_force_objective(e0), abs=1e-14)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 12, 16])
def test_objective_matches_brute_force(d):
    rng = np.random.default_rng(700 + d)
    for _ in range(10):
        psi = random_state(rng, d)
        assert objective(psi) == pytest.approx(brute_force_objective(psi), abs=1e-12)


def test_objective_invariances():
    rng = np.random.default_rng(14)
    for d in (2, 3, 5):
        psi = random_state(rng, d)
        base = objective(psi)
        assert objective(np.exp(0.71j) * psi) == pytest.approx(base, abs=1e-14)
        for r in ((1, 0), (0, 1), (1, 1)):
            assert objective(displace_state(psi, r)) == pytest.approx(base, abs=1e-14)


def test_objective_nonnegative_and_links_to_gram():
    rng = np.random.default_rng(15)
    for d in (2, 3, 4):
        for _ in range(20):
            psi = random_state(rng, d)
            assert objective(psi) >= 0.0
            if objective(psi) <= 1e-16:
                assert gram_residual(psi) <= 1e-6


def test_gradient_vanishes_at_fiducial(fiducial_d3):
    assert np.linalg.norm(objective_gradient(fiducial_d3)) <= 1e-8


def test_gradient_is_tangent():
    rng = np.random.default_rng(16)
    for d in (2, 3, 5, 7):
        psi = random_state(rng, d)
        grad = objective_gradient(psi)
        assert abs(np.vdot(psi, grad)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 7, 12, 16])
def test_gradient_matches_finite_differences(d):
    rng = np.random.default_rng(800 + d)
    h = 1e-6
    for _ in range(10):
        psi = random_state(rng, d)
        eta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        grad = objective_gradient(psi)

        def along(t: float) -> float:
            v = psi + t * eta
            return objective(v / np.linalg.norm(v))

        fd = (along(h) - along(-h)) / (2.0 * h)
        analytic = np.vdot(grad, eta).real
        assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("d", [2, 3, 5, 12, 16])
def test_residual_derivative_matches_finite_differences(d):
    # 2 [Re W | Im W] is the real Jacobian of the overlap residual in (Re psi, Im psi)
    from sic_forge.search import _evaluate, _residual_derivative

    rng = np.random.default_rng(900 + d)
    h = 1e-6
    pc = phase_constants(d)
    for _ in range(5):
        psi = random_state(rng, d)
        w = _residual_derivative(pc, psi, _evaluate(pc, psi).b)
        jac = 2.0 * np.hstack([w.real, w.imag])
        for _ in range(3):
            x = rng.standard_normal(2 * d)
            eta = x[:d] + 1j * x[d:]
            fd = (_evaluate(pc, psi + h * eta).rho - _evaluate(pc, psi - h * eta).rho) / (2.0 * h)
            np.testing.assert_allclose(jac @ x, fd, atol=1e-7)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 12, 16, 24, 32])
def test_gradient_is_adjoint_of_residual_derivative(d):
    # oracle: the FFT gradient equals the projected (4/d) rho W of the full d^2 x d derivative
    from sic_forge.search import _evaluate, _gradient, _residual_derivative

    rng = np.random.default_rng(1000 + d)
    pc = phase_constants(d)
    for _ in range(3):
        point = _evaluate(pc, random_state(rng, d))
        psi = point.psi
        ambient = (4.0 / d) * (point.rho @ _residual_derivative(pc, psi, point.b))
        expected = ambient - np.vdot(psi, ambient) * psi
        np.testing.assert_allclose(_gradient(pc, point), expected, rtol=0.0, atol=1e-13)


def test_gradient_tables_are_cached_read_only():
    # the gradient gathers through the phase constants' sub, add and flat lead index
    for d in (3, 8):
        pc = phase_constants(d)
        assert phase_constants(d) is pc
        r1, m = np.divmod(np.arange(d * d), d)
        assert np.array_equal(pc.sub.reshape(-1), (m - r1) % d)
        assert np.array_equal(pc.add.reshape(-1), (m + r1) % d)
        assert np.array_equal(pc.lead.reshape(-1), r1 * d + (m - r1) % d)
        assert not any(t.flags.writeable for t in (pc.sub, pc.add, pc.lead))


def test_only_gauss_newton_builds_the_residual_derivative(monkeypatch):
    # the d^3 derivative is built once per Gauss-Newton step attempt and never by the descent; the tail builds it
    # for its working rows together, so each call counts its rows
    module = importlib.import_module("sic_forge.search")
    calls = []
    original = module._residual_derivative

    def counting(pc, psi, b):
        calls.append(math.prod(psi.shape[:-1]))
        return original(pc, psi, b)

    monkeypatch.setattr(module, "_residual_derivative", counting)
    for d in (3, 8, 24):
        pc = phase_constants(d)
        module._gradient_descent(pc, module._evaluate(pc, module._random_starts(d, 7, range(1))), 400, 1e-10)
    assert calls == []
    _, outcomes = search_detailed(SearchConfig(dim=8, restarts=4, seed=5))
    # restarts 1 to 3 refine to the floor, one W per step; the stopped restart 0 never reaches the switch, builds none
    assert [(o.refine_iterations, o.stop_reason) for o in outcomes] == [
        (0, "objective_plateau"),
        (2, "objective_floor"),
        (1, "objective_floor"),
        (2, "objective_floor"),
    ]
    assert sum(calls) == 5


def accepted_points(monkeypatch, d: int, seed: int, budget: int = 4000) -> list:
    """(psi, f, gradient) at the start and at every accepted step of restart 0's descent, run alone."""
    module = importlib.import_module("sic_forge.search")
    points, gradient = [], module._gradient

    def recording(pc, point):  # one row: the descent takes a gradient at its start and at each accepted trial only
        g = gradient(pc, point)
        points.append((point.psi[0], float(point.f[0]), g[0]))
        return g

    monkeypatch.setattr(module, "_gradient", recording)
    pc = phase_constants(d)
    start = module._evaluate(pc, module._random_starts(d, seed, range(1)))
    module._gradient_descent(pc, start, budget, module._REFINE_SWITCH)
    monkeypatch.setattr(module, "_gradient", gradient)
    return points


@pytest.mark.parametrize("d", [3, 4, 8])
def test_descent_meets_the_nonmonotone_armijo_rule(monkeypatch, d):
    # each accepted f is below the largest of the last _ARMIJO_MEMORY accepted ones, the start included, by the
    # Armijo term; the step s*g is read back from the renormalized trial psi_new = (psi - s*g) / |psi - s*g|
    from sic_forge.search import _ARMIJO, _ARMIJO_MEMORY

    rises = 0
    for seed in range(3):
        points = accepted_points(monkeypatch, d, seed)
        f = [value for _, value, _ in points]
        for k in range(1, len(points)):
            (psi, _, g), psi_new = points[k - 1], points[k][0]
            step = np.linalg.norm(psi_new / np.vdot(psi, psi_new).real - psi)  # s |g|, as g is orthogonal to psi
            assert f[k] <= max(f[max(0, k - _ARMIJO_MEMORY) : k]) - _ARMIJO * step * np.linalg.norm(g)
        assert max(f[1:]) <= f[0]
        rises += sum(b > a for a, b in zip(f, f[1:]))
    assert rises  # the objective does rise between accepted steps: the rule is not the monotone one


def test_a_budget_of_b_steps_ends_at_the_bth_accepted_point(monkeypatch):
    # same start, growing budget: each run is a prefix of the longer ones, so the lowest objective reached, which
    # the plateau checkpoints read, never rises with the budget, though the last one may
    from sic_forge.search import _evaluate, _gradient_descent, _random_starts

    f = [value for _, value, _ in accepted_points(monkeypatch, 4, 42, 12)]
    psi0 = _random_starts(4, 42, range(1))
    pc = phase_constants(4)
    ends = [_gradient_descent(pc, _evaluate(pc, psi0.copy()), b, 0.0)[0].f[0] for b in range(1, 12)]
    assert ends == f[1:12] and min(ends) < f[0]
    assert any(b > a for a, b in zip(ends, ends[1:]))  # the last objective rises once, from b = 5 to 6


def test_the_plateau_exit_reads_the_running_minimum():
    # the bench search's d=3 restarts at workload seed 97: restart 7 rises between two checkpoints while
    # still high, and a checkpoint that read its current objective would stop it at f = 4.1e-4
    _, outcomes = search_detailed(SearchConfig(dim=3, restarts=16, seed=9967195434050003237))
    assert outcomes[7].objective_value <= 1e-18 and outcomes[7].stop_reason == "objective_floor"


PINNED = [
    # Gauss-Newton heavy: every restart ends in the least-squares tail
    (
        SearchConfig(dim=3, restarts=4, seed=3),
        (49, 51, 52, 58),
        (3.557155277137187e-23, 8.630339977668046e-23, 4.303471622288046e-23, 2.1023878029732608e-23),
    ),
    (
        SearchConfig(dim=8, restarts=4, seed=5),
        (40, 20, 22, 43),
        (0.007023414317760856, 8.137054015036071e-33, 1.114442344675156e-23, 9.557427349021658e-33),
    ),
]


@pytest.mark.parametrize("config, iterations, objectives", PINNED)
def test_search_trajectory_is_pinned(config, iterations, objectives):
    # exact per-restart trajectory: reorganizing how points are evaluated must not move it;
    # a change to the order of floating-point sums does, and is re-recorded on purpose
    _, outcomes = search_detailed(config)
    assert [(o.restart, o.iterations) for o in outcomes] == list(enumerate(iterations))
    for outcome, expected in zip(outcomes, objectives):
        assert abs(outcome.objective_value - expected) <= 1e-20


@pytest.mark.parametrize(
    "config, iterations, objectives",
    [
        (
            SearchConfig(dim=3, restarts=4, seed=3),
            (127, 156, 212, 211),
            (2.7240492000665774e-23, 3.911475159119527e-23, 1.949952069456666e-23, 8.15370745533219e-23),
        ),
        (
            SearchConfig(dim=8, restarts=4, seed=5),
            (50, 21, 60, 48),
            (0.007023414309721586, 9.051870738620009e-32, 0.007023414309721504, 1.659429388332652e-31),
        ),
    ],
)
def test_a_memory_of_one_is_the_monotone_descent(monkeypatch, config, iterations, objectives):
    # with one remembered objective the test is the monotone Armijo test: the pinned trajectories of the
    # monotone descent come back bit for bit
    monkeypatch.setattr(importlib.import_module("sic_forge.search"), "_ARMIJO_MEMORY", 1)
    _, outcomes = search_detailed(config)
    assert [(o.restart, o.iterations, o.objective_value) for o in outcomes] == list(
        zip(range(config.restarts), iterations, objectives)
    )


def test_restart_trace_is_deterministic_and_consistent(monkeypatch):
    kernel_runs = []
    original = importlib.import_module("sic_forge.verify")._residual

    def counting(pc, psi):
        kernel_runs.append(math.prod(psi.shape[:-1]))  # the points in one call: its leading-axis size
        return original(pc, psi)

    for name in ("sic_forge.verify", "sic_forge.search"):  # every binding of the kernel
        monkeypatch.setattr(importlib.import_module(name), "_residual", counting)
    config = SearchConfig(dim=8, restarts=4, seed=5)
    _, outcomes = search_detailed(config)
    # every point the overlap kernel evaluated for the restarts is counted, plus one for the candidate's objective,
    # gram and quartic residuals together
    assert sum(kernel_runs) == sum(o.evaluations for o in outcomes) + 1
    assert search_detailed(config)[1] == outcomes
    for o in outcomes:
        assert o.descent_iterations + o.refine_iterations == o.iterations
        assert o.evaluations >= 1 + o.iterations  # the start point, then one trial per accepted step at least
        assert o.stop_reason in STOP_REASONS
    # restarts 1 to 3 certify; 0 ends at a local minimum, on a plateau checkpoint
    assert [o.stop_reason for o in outcomes] == [
        "objective_plateau",
        "objective_floor",
        "objective_floor",
        "objective_floor",
    ]


def test_certified_restarts_report_the_objective_floor():
    config = SearchConfig(dim=3, restarts=6, seed=3)
    _, outcomes = search_detailed(config)
    assert all(o.objective_value <= config.accept_tol for o in outcomes)
    assert {o.stop_reason for o in outcomes} == {"objective_floor"}


def test_spent_budget_is_reported():
    _, outcomes = search_detailed(SearchConfig(dim=5, restarts=2, seed=999, max_iters=3))
    for o in outcomes:
        assert (o.iterations, o.refine_iterations, o.stop_reason) == (3, 0, "iteration_budget")


def test_the_gauss_newton_tail_reports_its_spent_budget():
    # the descent hands over after 40 of the 41 iterations, and the tail stops on the budget after one kept step
    config = SearchConfig(dim=3, restarts=1, seed=0, max_iters=41)
    [o] = search_detailed(config)[1]
    assert (o.stop_reason, o.descent_iterations, o.refine_iterations, o.iterations) == ("iteration_budget", 40, 1, 41)
    assert o.objective_value > config.accept_tol


def test_search_validates_input_once(monkeypatch, fiducial_d3):
    # the inner loop reuses evaluated points and never calls the validating public functions
    module = importlib.import_module("sic_forge.search")
    calls = []
    original = module.as_state_vector

    def counting(psi, *args, **kwargs):
        calls.append(1)
        return original(psi, *args, **kwargs)

    monkeypatch.setattr(module, "as_state_vector", counting)
    for config in (SearchConfig(dim=3, restarts=4, seed=3), SearchConfig(dim=8, restarts=2, seed=5)):
        calls.clear()
        search_detailed(config)
        assert len(calls) <= 1
    calls.clear()
    polish(fiducial_d3)
    assert len(calls) == 1


def test_search_d2_certifies():
    cand = search(SearchConfig(dim=2, restarts=20, seed=7, accept_tol=1e-18))
    assert cand.certified
    assert cand.quartic_residual <= 1e-9
    assert build_sic_set(cand.fiducial, tol=1e-9).certified


def test_search_d5_certifies():
    cand = search(SearchConfig(dim=5, restarts=20, seed=7))
    assert cand.certified and cand.quartic_residual <= 1e-9


def test_search_monotone_restart_outcomes():
    cand, outcomes = search_detailed(SearchConfig(dim=3, restarts=6, seed=3))
    assert len(outcomes) == 6
    assert cand.objective_value <= min(o.objective_value for o in outcomes) + 1e-15


def test_search_failure_path_reports_honest_residuals():
    # one restart with almost no iteration budget cannot converge
    cand = search(SearchConfig(dim=5, restarts=1, seed=999, max_iters=1, accept_tol=1e-30))
    assert not cand.certified
    assert cand.objective_value > 1e-30
    assert cand.quartic_residual > 0.0


def test_search_rejects_bad_config():
    with pytest.raises(ValueError):
        search(SearchConfig(dim=1, restarts=5, seed=0))
    with pytest.raises(ValueError):
        search(SearchConfig(dim=3, restarts=0, seed=0))
    with pytest.raises(ValueError):
        search(SearchConfig(dim=3, restarts=5, seed=0, accept_tol=0.0))
    for bad in (float("inf"), float("nan"), True, np.True_, "1e-18", None, "abc", 1e-18 + 0j):
        with pytest.raises(ValueError, match="accept_tol"):
            search(SearchConfig(dim=3, restarts=1, seed=0, accept_tol=bad))
    for bad in (3.9, 3.0, "3"):
        with pytest.raises(ValueError, match=repr(bad)):
            search(SearchConfig(dim=bad, restarts=1, seed=0))


@pytest.mark.parametrize(
    "field, bad",
    [
        ("restarts", 2.5),
        ("restarts", float("nan")),
        ("restarts", "4"),
        ("restarts", True),
        ("max_iters", True),
        ("seed", False),
        ("max_iters", float("nan")),
        ("max_iters", 2.5),
        ("max_iters", float("inf")),
        ("max_iters", 0),
        ("max_iters", 2**63),  # the refinement budgets are int64
        ("seed", 1.5),
        ("seed", float("nan")),
        ("seed", -1),
        ("seed", 2**64),
    ],
)
def test_search_config_counts_must_be_integers(field, bad):
    # integer fields are never truncated or compared as floats; the message names the field and the value
    with pytest.raises(ValueError, match=rf"^{field} .*{re.escape(repr(bad))}$"):
        search(SearchConfig(**{"dim": 3, "restarts": 1, "seed": 0, "max_iters": 5, field: bad}))


@pytest.mark.parametrize("good", [np.int64(3), np.uint64(7)])
def test_search_config_accepts_numpy_integers(good):
    # numpy integers pass, as for the dimension
    assert len(search_detailed(SearchConfig(dim=3, restarts=good, seed=good, max_iters=good))[1]) == int(good)


def test_search_is_deterministic():
    config = SearchConfig(dim=3, restarts=5, seed=21)
    first = search(config)
    second = search(config)
    assert np.array_equal(first.fiducial, second.fiducial)
    assert first.quartic_residual == second.quartic_residual
    assert first.gram_residual == second.gram_residual


FRESH_SEARCH = """
import dataclasses, sys
sys.path.insert(0, {src!r})
import sic_forge
for d, restarts in {runs!r}:
    candidate, outcomes = sic_forge.search_detailed(sic_forge.SearchConfig(dim=d, restarts=restarts, seed={seed}))
    print([dataclasses.astuple(o) for o in outcomes], candidate.fiducial.tobytes().hex(), candidate.certified)
"""


def test_search_is_deterministic_across_fresh_interpreters():
    # two new interpreters, run side by side, print the same outcomes and fiducial bytes as this process, and
    # each candidate passes the bench search check: all restarts reported, certified exactly when its recomputed
    # gram and quartic residuals are both within sqrt(accept_tol), and a certified candidate's residuals agree
    runs, seed = ((3, 4), (8, 4), (12, 4), (20, 2)), 11
    src = os.path.dirname(os.path.dirname(sic_forge.__file__))
    code = FRESH_SEARCH.format(src=src, runs=runs, seed=seed)
    children = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) for _ in range(2)]
    try:
        printed = [child.communicate(timeout=300)[0] for child in children]
    finally:
        for child in children:
            child.kill()
    assert [child.returncode for child in children] == [0, 0] and printed[0] == printed[1]
    lines = printed[0].splitlines()
    assert len(lines) == len(runs)
    for (d, restarts), line in zip(runs, lines):
        config = SearchConfig(dim=d, restarts=restarts, seed=seed)
        candidate, outcomes = search_detailed(config)
        fiducial = candidate.fiducial.tobytes().hex()
        assert line == f"{[dataclasses.astuple(o) for o in outcomes]} {fiducial} {candidate.certified}"
        quartic, gram = quartic_residual(candidate.fiducial), gram_residual(candidate.fiducial)
        assert len(outcomes) == restarts
        assert candidate.certified == (max(gram, quartic) <= math.sqrt(config.accept_tol))
        assert not candidate.certified or abs(quartic - gram) <= 1e-8


@pytest.mark.parametrize(
    "dim, restarts, seed, max_iters, accept_tol",
    [(4, 1, 0, 8, 1e-10), (4, 4, 0, 4000, 1e-18), (3, 1, 2, 30, 1e-12), (5, 1, 1, 60, 1e-14), (2, 1, 7, 5, 1e-6),
     (8, 4, 5, 4000, 1e-18)],
)
def test_the_search_verdict_is_build_sic_set_at_sqrt_accept_tol(dim, restarts, seed, max_iters, accept_tol):
    # one certification rule: the returned set is the one verify builds from its fiducial at tol = sqrt(accept_tol);
    # the first run ends with quartic 9.3e-6 within its tol of 1e-5 but gram 2.6e-5 outside it: not certified
    found = search(SearchConfig(dim=dim, restarts=restarts, seed=seed, max_iters=max_iters, accept_tol=accept_tol))
    assert isinstance(found, SicSet) and found.tol == math.sqrt(accept_tol)
    rebuilt = build_sic_set(found.fiducial, tol=math.sqrt(accept_tol))
    assert found.certified == rebuilt.certified
    assert (found.gram_residual, found.quartic_residual) == (rebuilt.gram_residual, rebuilt.quartic_residual)


@pytest.mark.parametrize("d", range(2, 13))
def test_the_record_objective_is_the_frame_potential_excess(d):
    # the search minimizes the orbit's frame potential over its SIC minimum: f = (FP/d^2 - 2d/(d+1)) / d
    rng = np.random.default_rng(1300 + d)
    for _ in range(5):
        psi = random_state(rng, d)
        sic = build_sic_set(psi)
        assert sic.objective_value == objective(psi)
        excess = (sic.frame_potential / d**2 - 2.0 * d / (d + 1)) / d
        assert abs(sic.objective_value - excess) <= 1e-15


def test_polish_recovers_perturbed_fiducial(fiducial_d3):
    rng = np.random.default_rng(17)
    noisy = fiducial_d3 + 1e-3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    noisy /= np.linalg.norm(noisy)
    cand = polish(noisy)
    assert cand.quartic_residual <= 1e-11 and cand.certified


def test_polish_fixed_point(fiducial_d3):
    cand = polish(fiducial_d3)
    assert np.abs(cand.fiducial - fiducial_d3).max() <= 1e-13


def test_polish_far_input_returns_best_found():
    e0 = np.array([1.0, 0.0, 0.0])
    cand = polish(e0)
    assert cand.objective_value <= objective(e0)
    assert cand.quartic_residual > 0.0 and not cand.certified


def test_restart_outcome_derives_its_iterations():
    counts = dict(restart=0, objective_value=0.5, descent_iterations=40, refine_iterations=1, evaluations=60)
    outcome = RestartOutcome(**counts, stop_reason="iteration_budget")
    assert outcome.iterations == 41
    assert list(dataclasses.asdict(outcome)) == [
        "restart", "objective_value", "iterations", "descent_iterations", "refine_iterations", "evaluations",
        "stop_reason",
    ]
    with pytest.raises(TypeError):
        RestartOutcome(**counts, iterations=41, stop_reason="iteration_budget")


class ThreeQubitGroup:
    """The group Z_2^3 of order 8 in the shape of a PhaseConstants record: a and m are 3-bit words, a + m is a XOR m,
    and the character table dft[a, m] = (-1)**popcount(a & m) is real and its own inverse up to 1/8."""

    d = 8
    a, m = np.divmod(np.arange(64), 8)
    add = sub = (a ^ m).reshape(8, 8)
    lead = a.reshape(8, 8) * 8 + sub
    dft = (-1.0) ** np.bitwise_count(a & m).reshape(8, 8)

    def forward(self, x):
        return x @ self.dft.conj()

    def inverse(self, x):
        return x @ self.dft / 8


def three_qubit_paulis() -> np.ndarray:
    """The 64 dense matrices X^a Z^m, r = a*8 + m: Kronecker products of one-qubit powers, most significant bit first,
    so X^a |j> = |j XOR a> and Z^m |j> = (-1)**popcount(j & m) |j>."""
    x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    bits = lambda n: [(n >> k) & 1 for k in (2, 1, 0)]
    paulis = []
    for a, m in np.ndindex(8, 8):
        factors = [np.linalg.matrix_power(x, i) @ np.linalg.matrix_power(z, j) for i, j in zip(bits(a), bits(m))]
        paulis.append(np.kron(np.kron(factors[0], factors[1]), factors[2]))
    return np.array(paulis)


def test_the_kernel_reads_another_group_from_its_record_alone():
    # the overlap kernel's residual for Z_2^3 equals the dense |<psi|X^a Z^m|psi>|^2 - t_r
    search_module = importlib.import_module("sic_forge.search")
    from sic_forge.verify import _residual

    group, paulis = ThreeQubitGroup(), three_qubit_paulis()
    psi = random_state(np.random.default_rng(8), 8)
    dense = np.abs(np.einsum("j,rjk,k->r", psi.conj(), paulis, psi)) ** 2 - np.where(np.arange(64) == 0, 1.0, 1 / 9)
    np.testing.assert_allclose(_residual(group, psi)[0], dense, rtol=0.0, atol=1e-14)
    # the search's descent and tail, given only this record, find Z_2^3-covariant SICs in C^8: 64 vectors
    # X^a Z^m psi with pairwise |<.,.>|^2 = 1/9 (whether these are Hoggar's lines is not checked here)
    ends, *_, stops = search_module._descend(group, search_module._random_starts(8, 1, range(32)), 4000, 1e-22)
    assert np.count_nonzero(stops == "objective_floor") >= 30
    vectors = paulis @ ends.psi[np.argmin(ends.f)]
    overlaps = np.abs(vectors.conj() @ vectors.T) ** 2
    assert np.abs(overlaps - np.where(np.eye(64, dtype=bool), 1.0, 1 / 9)).max() <= 1e-12
