"""Fiducial certification: overlaps, residual forms, and orbit construction."""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sic_forge import (
    SicSet,
    build_sic_set,
    displace_state,
    files,
    frame_potential,
    gram_residual,
    kt_measure,
    operator_set,
    phase_constants,
    quartic_defects,
    quartic_residual,
    quasi_onb_certify,
)
from sic_forge.verify import _residual
from sic_forge.wh import STATE_NORM_TOL, _displaced
from conftest import bench_fiducial, brute_force_quartic_terms, oracle_displacement, quartic_rhs, random_state

GOLDENS = Path(__file__).resolve().parents[1] / "goldens"


def kernel_overlaps(psi: np.ndarray) -> np.ndarray:
    """The overlap kernel's B as [r1, r2]."""
    d = psi.shape[0]
    return _residual(phase_constants(d), psi)[1].reshape(d, d)


def displacement_overlaps(psi: np.ndarray) -> np.ndarray:
    """<psi|D_(r1,r2)|psi> as [r1, r2]: the overlap kernel's B times the tau**(r1*r2) phase it leaves out."""
    idx = np.arange(psi.shape[0])
    return phase_constants(psi.shape[0]).tau_power(np.outer(idx, idx)) * kernel_overlaps(psi)


def test_overlaps_of_basis_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    values = displacement_overlaps(psi)
    for r2 in range(4):
        assert abs(values[0, r2] - 1.0) <= 1e-14  # clock eigenstate
    assert abs(values[1, 0]) <= 1e-14  # shifted basis states are orthogonal


@pytest.mark.parametrize("d", range(2, 9))
def test_overlaps_match_dense_oracle(d):
    rng = np.random.default_rng(300 + d)
    for _ in range(10):
        psi = random_state(rng, d)
        values = displacement_overlaps(psi)
        rho = _residual(phase_constants(d), psi)[0].reshape(d, d)
        assert abs(values[0, 0] - 1.0) <= 1e-12
        for r1 in range(d):
            for r2 in range(d):
                dense = np.vdot(psi, oracle_displacement(d, r1, r2) @ psi)
                assert abs(values[r1, r2] - dense) <= 1e-13
                target = 1.0 if r1 == r2 == 0 else 1.0 / (d + 1)
                assert abs(rho[r1, r2] - (abs(dense) ** 2 - target)) <= 1e-13


def test_gram_residual_frozen_cases(fiducial_d2, fiducial_d3):
    e0 = np.array([1.0, 0.0])
    assert gram_residual(e0) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert gram_residual(fiducial_d3) <= 1e-12
    assert gram_residual(fiducial_d2) <= 1e-12


def test_d3_fiducial_overlap_moduli(fiducial_d3):
    moduli = np.abs(displacement_overlaps(fiducial_d3)) ** 2
    assert moduli[0, 0] == pytest.approx(1.0, abs=1e-14)
    off = np.delete(moduli.reshape(-1), 0)
    np.testing.assert_allclose(off, 0.25, atol=1e-13)


def test_quartic_terms_match_brute_force(fiducial_d3):
    # the Fourier identity: the inverse DFT of the overlap power spectrum equals the quartic component sums
    rng = np.random.default_rng(11)
    states = [random_state(rng, d) for d in (2, 3, 5, 7, 12, 16)]
    for d in range(2, 9):
        rng = np.random.default_rng(400 + d)
        states += [random_state(rng, d) for _ in range(20)]
    states += [np.array([1.0, 0.0]), fiducial_d3]
    for psi in states:
        terms = quartic_defects(psi) + quartic_rhs(psi.shape[0])
        np.testing.assert_allclose(terms, brute_force_quartic_terms(psi), atol=1e-13)


def test_quartic_residual_frozen_cases(fiducial_d3):
    assert quartic_residual(fiducial_d3) <= 1e-12
    for d in (2, 3, 5):
        e0 = np.zeros(d, dtype=complex)
        e0[0] = 1.0
        assert quartic_residual(e0) == pytest.approx(1.0 - 2.0 / (d + 1), abs=1e-14)


def test_quartic_origin_term_is_fourth_moment():
    rng = np.random.default_rng(12)
    psi = random_state(rng, 4)
    t = quartic_defects(psi) + quartic_rhs(4)
    assert abs(t[0, 0] - np.sum(np.abs(psi) ** 4)) <= 1e-13
    assert quartic_rhs(4)[0, 0] == pytest.approx(2.0 / 5.0, abs=1e-15)


def fourier_identity_sides(psi: np.ndarray, k: int, r1: int) -> tuple[complex, complex]:
    """Both sides of the power-spectrum identity at one (k, r1).

    lhs = (1/d) sum_{r2} omega**(k*r2) |<psi|D_(r1,r2)|psi>|^2 from the overlap
    kernel; rhs = sum_j psi_j conj(psi_{j+k}) conj(psi_{j+r1}) psi_{j+k+r1}.
    """
    d = psi.shape[0]
    lhs = complex(np.sum(phase_constants(d).dft[k] * np.abs(kernel_overlaps(psi)[r1]) ** 2) / d)
    j = np.arange(d)
    rhs = complex(np.sum(psi * psi[(j + k) % d].conj() * psi[(j + r1) % d].conj() * psi[(j + k + r1) % d]))
    return lhs, rhs


def test_fourier_identity_basis_state():
    lhs, rhs = fourier_identity_sides(np.array([1.0, 0.0]), 0, 0)
    assert abs(lhs - 1.0) <= 1e-14
    assert abs(rhs - 1.0) <= 1e-14


@pytest.mark.parametrize("d", range(2, 9))
def test_fourier_identity_holds_for_random_states(d):
    rng = np.random.default_rng(400 + d)
    for _ in range(20):
        psi = random_state(rng, d)
        for k in range(d):
            for r1 in range(d):
                lhs, rhs = fourier_identity_sides(psi, k, r1)
                assert abs(lhs - rhs) <= 1e-12


def test_fourier_rhs_hits_sic_targets(fiducial_d3):
    for k in range(3):
        for r1 in range(3):
            _, rhs = fourier_identity_sides(fiducial_d3, k, r1)
            assert abs(rhs - quartic_rhs(3)[k, r1]) <= 1e-10


def test_build_sic_set_certifies_exact_fiducial(fiducial_d3):
    sic = build_sic_set(fiducial_d3, tol=1e-10)
    assert sic.certified
    assert np.abs(sic.projectors.sum(axis=0) - 3.0 * np.eye(3)).max() <= 1e-9
    assert quasi_onb_certify(operator_set(sic.projectors), tol=1e-8).passed


def test_build_sic_set_validates_once_and_runs_the_kernel_once(monkeypatch, fiducial_d3):
    module = importlib.import_module("sic_forge.verify")
    calls = []
    for name in ("as_state_vector", "_residual"):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    assert build_sic_set(fiducial_d3).certified
    assert calls == ["as_state_vector", "_residual"]


def test_build_sic_set_reports_uncertified_candidate():
    e0 = np.array([1.0, 0.0, 0.0])
    sic = build_sic_set(e0, tol=1e-10)
    assert not sic.certified
    assert sic.gram_residual == pytest.approx(0.75, abs=1e-13)
    assert sic.quartic_residual == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1e-9, True, "1e-3", None, "abc", 1e-3 + 0j])
def test_build_sic_set_rejects_bad_tol(bad):
    # an infinite tolerance would certify any unit vector
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        build_sic_set(np.array([1.0, 0.0, 0.0]), tol=bad)


def test_sic_set_takes_only_its_fiducial_and_tol():
    names = ["fiducial", "overlap_grid", "gram_residual", "quartic_residual", "objective_value", "tol", "certified"]
    assert [f.name for f in dataclasses.fields(SicSet)] == names
    assert [f.name for f in dataclasses.fields(SicSet) if f.init] == ["fiducial", "tol"]
    for derived in names[1:5] + ["certified"]:
        with pytest.raises(TypeError, match=derived):
            SicSet(fiducial=np.array([1.0, 0.0, 0.0]), tol=1e-10, **{derived: 0.0 if derived != "certified" else True})


def test_sic_set_derives_honest_residuals_from_any_unit_state():
    psi = random_state(np.random.default_rng(260), 7)
    sic = SicSet(fiducial=psi, tol=1e-10)
    assert sic.certified is False
    assert sic.gram_residual == gram_residual(psi) and sic.quartic_residual == quartic_residual(psi)
    assert sic.gram_residual > 1e-3
    # the fiducial is a read-only complex copy: writing to the input afterwards changes nothing
    real = np.array([1.0, 0.0, 0.0])
    basis = SicSet(fiducial=real, tol=1e-10)
    real[:] = [0.0, 1.0, 0.0]
    assert basis.fiducial.dtype == complex and not basis.fiducial.flags.writeable and basis.fiducial[0] == 1.0
    assert not basis.overlap_grid.flags.writeable


def test_sic_set_verdict_is_recomputed_and_never_replaced(fiducial_d3):
    psi = random_state(np.random.default_rng(261), 5)
    sic = SicSet(fiducial=psi, tol=1e-10)
    with pytest.raises(ValueError, match="certified"):
        dataclasses.replace(sic, certified=True)
    loose = dataclasses.replace(sic, tol=2.0)
    assert loose.certified and loose.tol == 2.0
    assert (loose.gram_residual, loose.quartic_residual) == (sic.gram_residual, sic.quartic_residual)
    exact = SicSet(fiducial=fiducial_d3, tol=1e-10)
    assert exact.certified and not dataclasses.replace(exact, tol=1e-20).certified
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        dataclasses.replace(exact, tol=float("inf"))


def test_sic_set_orbit_matches_displacements(fiducial_d3):
    # the fiducial orbit, then a generic state in an even dimension, where tau has order 2d
    for psi in (fiducial_d3, random_state(np.random.default_rng(140), 12)):
        d = psi.shape[0]
        sic = build_sic_set(psi)
        for r1 in range(d):
            for r2 in range(d):
                expected = displace_state(psi, (r1, r2))
                np.testing.assert_allclose(sic.vectors[r1 * d + r2], expected, atol=1e-14)
                np.testing.assert_allclose(expected, oracle_displacement(d, r1, r2) @ psi, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_residuals_are_displacement_covariant(d, fiducial_d2, fiducial_d3):
    rng = np.random.default_rng(500 + d)
    states = [random_state(rng, d) for _ in range(3)]
    if d == 2:
        states.append(fiducial_d2)
    if d == 3:
        states.append(fiducial_d3)
    for psi in states:
        base_g = gram_residual(psi)
        base_q = quartic_residual(psi)
        for r1 in range(d):
            for r2 in range(d):
                moved = displace_state(psi, (r1, r2))
                assert abs(gram_residual(moved) - base_g) <= 1e-12
                assert abs(quartic_residual(moved) - base_q) <= 1e-12


def test_residuals_are_phase_invariant():
    rng = np.random.default_rng(13)
    for d in (2, 4, 6):
        psi = random_state(rng, d)
        base_g, base_q = gram_residual(psi), quartic_residual(psi)
        for phase in (0.3, 1.7, np.pi):
            rotated = np.exp(1j * phase) * psi
            assert abs(gram_residual(rotated) - base_g) <= 1e-13
            assert abs(quartic_residual(rotated) - base_q) <= 1e-13


@pytest.mark.parametrize("d", range(2, 9))
def test_gram_and_quartic_forms_agree(d, fiducial_d2, fiducial_d3):
    # The two residual forms vanish together; away from fiducials they stay
    # within a factor d of each other at the thresholds used downstream.
    rng = np.random.default_rng(600 + d)
    states = [random_state(rng, d) for _ in range(100)]
    states += {2: [fiducial_d2], 3: [fiducial_d3]}.get(d, [])
    for psi in states:
        g, q = gram_residual(psi), quartic_residual(psi)
        for eps in (1e-6, 1e-10):
            if g <= eps:
                assert q <= d * eps
            if q <= eps:
                assert g <= d * eps


STORED = {3: files.load_fiducial(GOLDENS / "fiducial_d3.json"), **{d: bench_fiducial(d) for d in (5, 7, 8, 11, 12)}}


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.integers(2, 12), st.sampled_from(["random", "basis", "stored"]), st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0)
)
def test_residual_forms_bound_each_other_off_unit_norm(d, kind, seed, stretch):
    # the unit-norm check passes |norm^2 - 1| <= STATE_NORM_TOL, and the origin entry rho_0 = norm^4 - 1 of the
    # residual enters the quartic defects' l = 0 row, so quartic <= gram holds only up to |rho_0| / d
    psi = random_state(np.random.default_rng(seed), d)
    if kind == "basis":
        psi = np.eye(d)[0]
    if kind == "stored" and d in STORED:
        psi = STORED[d]
    psi = psi * np.sqrt(1.0 + 0.99 * STATE_NORM_TOL * stretch)
    g, q, origin = gram_residual(psi), quartic_residual(psi), abs(_residual(phase_constants(d), psi)[0][0])
    ulps = 1.0 + 4.0 * np.finfo(float).eps  # the basis state at d = 2 meets g = 2q exactly
    assert q <= (g + origin / d) * ulps
    assert g <= d * q * ulps


def test_projectors_are_built_from_the_vectors_when_read(fiducial_d3):
    sic = build_sic_set(fiducial_d3)
    assert [f.name for f in dataclasses.fields(sic)] == [
        "fiducial", "overlap_grid", "gram_residual", "quartic_residual", "objective_value", "tol", "certified"
    ]
    assert sic.overlap_grid.shape == (9,) and not sic.overlap_grid.flags.writeable
    assert "vectors" not in vars(sic) and "projectors" not in vars(sic)
    vectors = sic.vectors
    r1, r2 = np.divmod(np.arange(9), 3)
    np.testing.assert_array_equal(vectors, _displaced(fiducial_d3, r1[:, None], r2[:, None]))  # the eager orbit
    assert vectors.shape == (9, 3) and not vectors.flags.writeable
    assert sic.vectors is vectors  # built once, on first read
    stack = sic.projectors
    assert stack.shape == (9, 3, 3) and not stack.flags.writeable
    np.testing.assert_array_equal(stack, vectors[:, :, None] * vectors.conj()[:, None, :])
    assert sic.projectors is stack
    for name, value in (("vectors", vectors), ("projectors", stack), ("overlap_grid", sic.overlap_grid)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sic, name, value)


DEVIATIONS = ("projector_deviation", "trace_deviation", "overlap_deviation", "completeness_deviation")


def assert_orbit_forms_match_the_dense_oracle(psi: np.ndarray) -> None:
    """The SicSet members against operator_space on the projector stack: K_t, frame potential and quasi-ONB to 1e-10."""
    sic = build_sic_set(psi)
    opset = operator_set(sic.projectors)
    for t in (1.0, 2.0, 1.5, 2.75, 400.0):
        dense, grid = kt_measure(opset, t), sic.kt(t)
        assert (grid.t, grid.lower_bound) == (dense.t, dense.lower_bound)
        assert abs(grid.value - dense.value) <= 1e-10 and abs(grid.gap - dense.gap) <= 1e-10
    assert abs(sic.frame_potential - frame_potential(sic.vectors)) <= 1e-10
    # off unit norm, n = ||psi||^2 - 1 alone sets the projector, trace and completeness deviations; the dense
    # values carry a roundoff of about d^2 eps, so these three are also compared at the size of n itself
    n = abs(float(np.vdot(psi, psi).real) - 1.0)
    for tol in (1e-10, 1e-3):
        dense, grid = quasi_onb_certify(opset, tol), build_sic_set(psi, tol).quasi_onb()
        assert (grid.d, grid.tol, grid.passed) == (dense.d, dense.tol, dense.passed)
        for field in DEVIATIONS:
            error = abs(getattr(grid, field) - getattr(dense, field))
            assert error <= 1e-10, field
            if n > 1e-13 and field != "overlap_deviation":
                assert error <= 0.05 * getattr(grid, field), field


@pytest.mark.parametrize("stretch", [0.0, 0.99, -0.99])
@pytest.mark.parametrize("d", range(2, 25))
def test_orbit_forms_match_the_dense_oracle_on_random_states(d, stretch):
    psi = random_state(np.random.default_rng(2100 + d), d) * np.sqrt(1.0 + stretch * STATE_NORM_TOL)
    assert_orbit_forms_match_the_dense_oracle(psi)


@pytest.mark.parametrize("d", [5, 7, 8, 11, 12, 16, 20, 24])
def test_orbit_forms_match_the_dense_oracle_on_bench_fiducials(d):
    assert_orbit_forms_match_the_dense_oracle(bench_fiducial(d))


def test_orbit_forms_validate_their_input():
    e0 = np.eye(3)[0]
    sic = build_sic_set(e0)
    for bad_t in (0.5, float("nan"), True, "2"):
        with pytest.raises(ValueError, match="t must be finite and >= 1"):
            sic.kt(bad_t)
    with pytest.raises(ValueError, match="not unit-norm"):
        build_sic_set(2.0 * e0)
