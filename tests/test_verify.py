"""Fiducial certification: overlaps, residual forms, and orbit construction."""

import numpy as np
import pytest

from sic_forge import (
    build_sic_set,
    displace_state,
    fourier_identity_check,
    gram_overlaps,
    gram_residual,
    operator_set,
    quartic_residual,
    quasi_onb_certify,
)
from sic_forge.verify import quartic_target, _quartic_terms
from conftest import oracle_displacement, random_state


def brute_force_quartic_terms(psi: np.ndarray) -> np.ndarray:
    """Explicit triple loop over (k, l, j), straight off the component formula."""
    d = psi.shape[0]
    t = np.zeros((d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            for j in range(d):
                t[k, l] += (
                    psi[j]
                    * psi[(j + k) % d].conjugate()
                    * psi[(j + l) % d].conjugate()
                    * psi[(j + k + l) % d]
                )
    return t


def test_overlaps_of_basis_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    g = gram_overlaps(psi)
    for r2 in range(4):
        assert abs(g.values[0, r2] - 1.0) <= 1e-14  # clock eigenstate
    assert abs(g.values[1, 0]) <= 1e-14  # shifted basis states are orthogonal


@pytest.mark.parametrize("d", range(2, 9))
def test_overlaps_match_dense_oracle(d):
    rng = np.random.default_rng(300 + d)
    for _ in range(10):
        psi = random_state(rng, d)
        g = gram_overlaps(psi)
        assert abs(g.values[0, 0] - 1.0) <= 1e-12
        for r1 in range(d):
            for r2 in range(d):
                dense = np.vdot(psi, oracle_displacement(d, r1, r2) @ psi)
                assert abs(g.values[r1, r2] - dense) <= 1e-13
                if (r1, r2) != (0, 0) and abs(dense) > 1e-12:
                    # compare on the circle to dodge the branch cut at +-pi
                    assert abs(np.exp(1j * g.phases[r1, r2]) - dense / abs(dense)) <= 1e-10


def test_gram_residual_frozen_cases(fiducial_d2, fiducial_d3):
    e0 = np.array([1.0, 0.0])
    assert gram_residual(e0) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert gram_residual(fiducial_d3) <= 1e-12
    assert gram_residual(fiducial_d2) <= 1e-12


def test_d3_fiducial_overlap_moduli(fiducial_d3):
    g = gram_overlaps(fiducial_d3)
    moduli = np.abs(g.values) ** 2
    assert moduli[0, 0] == pytest.approx(1.0, abs=1e-14)
    off = np.delete(moduli.reshape(-1), 0)
    np.testing.assert_allclose(off, 0.25, atol=1e-13)


def test_quartic_terms_match_brute_force():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5, 7, 12, 16):
        psi = random_state(rng, d)
        np.testing.assert_allclose(
            _quartic_terms(psi), brute_force_quartic_terms(psi), atol=1e-13
        )


def test_quartic_residual_frozen_cases(fiducial_d3):
    assert quartic_residual(fiducial_d3) <= 1e-12
    for d in (2, 3, 5):
        e0 = np.zeros(d, dtype=complex)
        e0[0] = 1.0
        assert quartic_residual(e0) == pytest.approx(1.0 - 2.0 / (d + 1), abs=1e-14)


def test_quartic_origin_term_is_fourth_moment():
    rng = np.random.default_rng(12)
    psi = random_state(rng, 4)
    t = _quartic_terms(psi)
    assert abs(t[0, 0] - np.sum(np.abs(psi) ** 4)) <= 1e-13
    assert quartic_target(4)[0, 0] == pytest.approx(2.0 / 5.0, abs=1e-15)


def test_fourier_identity_basis_state():
    check = fourier_identity_check(np.array([1.0, 0.0]), 0, 0)
    assert abs(check.lhs - 1.0) <= 1e-14
    assert abs(check.rhs - 1.0) <= 1e-14


@pytest.mark.parametrize("d", range(2, 9))
def test_fourier_identity_holds_for_random_states(d):
    rng = np.random.default_rng(400 + d)
    for _ in range(20):
        psi = random_state(rng, d)
        for k in range(d):
            for r1 in range(d):
                assert fourier_identity_check(psi, k, r1).gap <= 1e-12


def test_fourier_rhs_hits_sic_targets(fiducial_d3):
    for k in range(3):
        for r1 in range(3):
            check = fourier_identity_check(fiducial_d3, k, r1)
            expected = ((k == 0) + (r1 == 0)) / 4.0
            assert abs(check.rhs - expected) <= 1e-10


def test_build_sic_set_certifies_exact_fiducial(fiducial_d3):
    sic = build_sic_set(fiducial_d3, tol=1e-10)
    assert sic.certified
    assert np.abs(sic.projectors.sum(axis=0) - 3.0 * np.eye(3)).max() <= 1e-9
    assert quasi_onb_certify(operator_set(sic.projectors), tol=1e-8).passed


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
