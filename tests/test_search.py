"""Search objective, gradient, descent, and reproducibility."""

import importlib

import numpy as np
import pytest

from sic_forge import (
    SearchConfig,
    build_sic_set,
    displace_state,
    gram_residual,
    objective,
    objective_gradient,
    polish,
    search,
    search_detailed,
)
from sic_forge.search import STOP_REASONS
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
    for _ in range(5):
        psi = random_state(rng, d)
        w = _residual_derivative(psi, _evaluate(psi).b)
        jac = 2.0 * np.hstack([w.real, w.imag])
        for _ in range(3):
            x = rng.standard_normal(2 * d)
            eta = x[:d] + 1j * x[d:]
            fd = (_evaluate(psi + h * eta).rho - _evaluate(psi - h * eta).rho) / (2.0 * h)
            np.testing.assert_allclose(jac @ x, fd, atol=1e-7)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 12, 16, 24, 32])
def test_gradient_is_adjoint_of_residual_derivative(d):
    # oracle: the FFT gradient equals the projected (4/d) rho W of the full d^2 x d derivative
    from sic_forge.search import _evaluate, _gradient, _residual_derivative

    rng = np.random.default_rng(1000 + d)
    for _ in range(3):
        point = _evaluate(random_state(rng, d))
        psi = point.psi
        ambient = (4.0 / d) * (point.rho @ _residual_derivative(psi, point.b))
        expected = ambient - np.vdot(psi, ambient) * psi
        np.testing.assert_allclose(_gradient(point), expected, rtol=0.0, atol=1e-13)


def test_gradient_tables_are_cached_read_only():
    from sic_forge.search import _gradient_tables

    for d in (3, 8):
        tables = _gradient_tables(d)
        assert _gradient_tables(d) is tables
        lead, sub, add = tables
        r1, m = np.divmod(np.arange(d * d), d)
        assert np.array_equal(lead.reshape(-1), r1 * d + (m - r1) % d)
        assert np.array_equal(sub.reshape(-1), (m - r1) % d)
        assert np.array_equal(add.reshape(-1), (m + r1) % d)
        assert not any(t.flags.writeable for t in tables)


def test_only_gauss_newton_builds_the_residual_derivative(monkeypatch):
    # the d^3 derivative is built once per Gauss-Newton step attempt and never by the descent
    module = importlib.import_module("sic_forge.search")
    calls = []
    original = module._residual_derivative

    def counting(psi, b):
        calls.append(1)
        return original(psi, b)

    monkeypatch.setattr(module, "_residual_derivative", counting)
    for d in (3, 8, 24):
        module._gradient_descent(module._evaluate(module._random_start(d, 7, 0)), 400, 1e-10, 0.0)
    assert calls == []
    _, outcomes = search_detailed(SearchConfig(dim=8, restarts=4, seed=5))
    attempts = sum(o.refine_iterations + (o.stop_reason == "line_search_stalled") for o in outcomes)
    assert len(calls) == attempts > 0


def test_descent_is_monotone():
    # same start, growing budget: the best objective can only go down
    from sic_forge.search import _evaluate, _gradient_descent, _random_start

    psi0 = _random_start(4, 42, 0)
    values = [
        _gradient_descent(_evaluate(psi0.copy()), budget, 0.0, 0.0)[0].f for budget in range(1, 12)
    ]
    assert all(b <= a + 1e-18 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "config, iterations, objectives",
    [
        # Gauss-Newton heavy: every restart ends in the least-squares tail
        (
            SearchConfig(dim=3, restarts=4, seed=3),
            (127, 156, 212, 211),
            (2.7240492000665774e-23, 3.911475159119527e-23, 1.949952069456666e-23, 8.15370745533219e-23),
        ),
        (
            SearchConfig(dim=8, restarts=4, seed=5),
            (58, 21, 72, 48),
            (0.007023414309721492, 9.051870738620009e-32, 0.0070234143097214876, 1.659429388332652e-31),
        ),
    ],
)
def test_search_trajectory_is_pinned(config, iterations, objectives):
    # exact per-restart trajectory: reorganizing how points are evaluated must not move it;
    # a change to the order of floating-point sums does, and is re-recorded on purpose
    _, outcomes = search_detailed(config)
    assert [(o.restart, o.iterations) for o in outcomes] == list(enumerate(iterations))
    for outcome, expected in zip(outcomes, objectives):
        assert abs(outcome.objective_value - expected) <= 1e-20


def test_restart_trace_is_deterministic_and_consistent(monkeypatch):
    module = importlib.import_module("sic_forge.search")
    kernel_runs = []
    original = module._overlaps

    def counting(psi):
        kernel_runs.append(1)
        return original(psi)

    monkeypatch.setattr(module, "_overlaps", counting)
    config = SearchConfig(dim=8, restarts=4, seed=5)
    _, outcomes = search_detailed(config)
    # every overlap-kernel run of the restarts is counted, plus one for the candidate's objective
    assert len(kernel_runs) == sum(o.evaluations for o in outcomes) + 1
    assert search_detailed(config)[1] == outcomes
    for o in outcomes:
        assert o.descent_iterations + o.refine_iterations == o.iterations
        assert o.evaluations >= 1 + o.iterations  # the start point, then one trial per accepted step at least
        assert o.stop_reason in STOP_REASONS
    # restarts 1 and 3 certify; 0 and 2 end at the same local minimum
    assert [o.stop_reason for o in outcomes] == [
        "line_search_stalled",
        "objective_floor",
        "line_search_stalled",
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
    polish(fiducial_d3, max_iters=50)
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
    assert cand.restarts_used == 6


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
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="accept_tol"):
            search(SearchConfig(dim=3, restarts=1, seed=0, accept_tol=bad))
    for bad in (3.9, 3.0, "3"):
        with pytest.raises(ValueError, match=repr(bad)):
            search(SearchConfig(dim=bad, restarts=1, seed=0))


def test_search_is_deterministic():
    config = SearchConfig(dim=3, restarts=5, seed=21)
    first = search(config)
    second = search(config)
    assert np.array_equal(first.fiducial, second.fiducial)
    assert first.quartic_residual == second.quartic_residual
    assert first.gram_residual == second.gram_residual


def test_polish_recovers_perturbed_fiducial(fiducial_d3):
    rng = np.random.default_rng(17)
    noisy = fiducial_d3 + 1e-3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    noisy /= np.linalg.norm(noisy)
    cand = polish(noisy)
    assert cand.quartic_residual <= 1e-11


def test_polish_fixed_point(fiducial_d3):
    cand = polish(fiducial_d3)
    assert np.abs(cand.fiducial - fiducial_d3).max() <= 1e-13


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1e-9])
def test_polish_rejects_bad_residual_tol(bad, fiducial_d3):
    with pytest.raises(ValueError, match="residual_tol"):
        polish(fiducial_d3, residual_tol=bad)


def test_polish_far_input_returns_best_found():
    e0 = np.array([1.0, 0.0, 0.0])
    cand = polish(e0, max_iters=5)
    assert cand.objective_value <= objective(e0)
    assert cand.quartic_residual > 0.0
