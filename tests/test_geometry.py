"""SIC-probability coordinates: conversion, purity conditions, structure tensor."""

import numpy as np
import pytest

from sic_forge import (
    build_sic_set,
    check_density_matrix,
    check_probability_vector,
    is_pure_probability_vector,
    purity_cubic_residual,
    purity_cubic_target,
    purity_quadratic_residual,
    purity_quadratic_target,
    reconstruct_density,
    sic_probabilities,
    structure_coefficients,
)
from conftest import random_density, random_state


def test_probabilities_of_maximally_mixed(sic_d3):
    p = sic_probabilities(np.eye(3) / 3.0, sic_d3)
    np.testing.assert_allclose(p, 1.0 / 9.0, atol=1e-12)


def test_probabilities_of_sic_element(sic_d3):
    p = sic_probabilities(sic_d3.projectors[1], sic_d3)
    assert p[1] == pytest.approx(1.0 / 3.0, abs=1e-10)
    others = np.delete(p, 1)
    np.testing.assert_allclose(others, 1.0 / 12.0, atol=1e-10)


def test_probabilities_normalize(sic_d2, sic_d3):
    rng = np.random.default_rng(18)
    for sic in (sic_d2, sic_d3):
        for _ in range(20):
            p = sic_probabilities(random_density(rng, sic.d), sic)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert p.min() >= -1e-12


def test_probabilities_reject_uncertified_set():
    bad = build_sic_set(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        sic_probabilities(np.eye(3) / 3.0, bad)


def test_probabilities_reject_dimension_mismatch(sic_d3):
    with pytest.raises(ValueError):
        sic_probabilities(np.eye(2) / 2.0, sic_d3)


def test_reconstruct_uniform_gives_maximally_mixed(sic_d3):
    rec = reconstruct_density(np.full(9, 1.0 / 9.0), sic_d3)
    np.testing.assert_allclose(rec.matrix, np.eye(3) / 3.0, atol=1e-12)
    assert rec.physical


@pytest.mark.parametrize("d", [2, 3, 5])
def test_round_trip_on_random_densities(d, fiducial_d2, fiducial_d3):
    from sic_forge import SearchConfig, search

    psi = {2: fiducial_d2, 3: fiducial_d3}.get(d)
    if psi is None:
        psi = search(SearchConfig(dim=d, restarts=12, seed=7)).fiducial
    sic = build_sic_set(psi)
    rng = np.random.default_rng(900 + d)
    for _ in range(100):
        rho = random_density(rng, d)
        p = sic_probabilities(rho, sic)
        rec = reconstruct_density(p, sic)
        assert np.abs(rec.matrix - rho).max() <= 1e-10
        # Hermitian unit trace always holds for reconstructions
        assert abs(np.trace(rec.matrix) - 1.0) <= 1e-10
        round_trip = sic_probabilities(rec.matrix, sic)
        assert np.abs(round_trip - p).max() <= 1e-10


def test_concentrated_probabilities_flagged_unphysical(sic_d2):
    p = np.zeros(4)
    p[0] = 1.0
    rec = reconstruct_density(p, sic_d2)
    assert not rec.physical
    assert rec.min_eigenvalue == pytest.approx(-1.0, abs=1e-10)
    assert abs(np.trace(rec.matrix) - 1.0) <= 1e-12


def test_purity_quadratic_frozen_values(sic_d2, sic_d3):
    # image of a SIC element meets the pure-state target exactly
    p = sic_probabilities(sic_d2.projectors[1], sic_d2)
    assert purity_quadratic_residual(p) <= 1e-12
    assert purity_quadratic_target(2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # maximally mixed misses it by (d-1)/(d^2 (d+1))
    for sic, d in ((sic_d2, 2), (sic_d3, 3)):
        uniform = np.full(d * d, 1.0 / (d * d))
        expected = (d - 1.0) / (d * d * (d + 1.0))
        assert purity_quadratic_residual(uniform) == pytest.approx(expected, abs=1e-12)


def test_structure_tensor_invariants(sic_d2, sic_d3):
    for sic in (sic_d2, sic_d3):
        tensor = structure_coefficients(sic)
        c = tensor.c
        n = sic.d * sic.d
        np.testing.assert_allclose(c, np.transpose(c, (1, 2, 0)), atol=1e-12)
        np.testing.assert_allclose(c, np.transpose(c, (2, 0, 1)), atol=1e-12)
        for i in range(n):
            assert c[i, i, i] == pytest.approx(1.0, abs=1e-10)
            for j in range(n):
                if i != j:
                    assert c[i, i, j] == pytest.approx(1.0 / (sic.d + 1), abs=1e-10)


def test_structure_tensor_matches_dense_triple_products(sic_d2):
    tensor = structure_coefficients(sic_d2)
    proj = sic_d2.projectors
    for i in range(4):
        for j in range(4):
            for k in range(4):
                dense = np.trace(proj[i] @ proj[j] @ proj[k]).real
                assert abs(tensor.c[i, j, k] - dense) <= 1e-12


def test_structure_tensor_guard():
    from sic_forge import STRUCTURE_TENSOR_MAX_DIM, SicSet

    assert STRUCTURE_TENSOR_MAX_DIM == 12
    # fabricate a certified-looking set in a refused dimension (no heavy work done)
    d = 13
    fake = SicSet(
        fiducial=np.zeros(d),
        vectors=np.zeros((d * d, d)),
        projectors=np.zeros((d * d, d, d)),
        gram_residual=0.0,
        quartic_residual=0.0,
        tol=1e-10,
        certified=True,
    )
    with pytest.raises(ValueError):
        structure_coefficients(fake)


def test_purity_cubic_frozen_values(sic_d2):
    assert purity_cubic_target(2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    tensor = structure_coefficients(sic_d2)
    p = sic_probabilities(sic_d2.projectors[2], sic_d2)
    assert purity_cubic_residual(p, tensor) <= 1e-10
    uniform = np.full(4, 0.25)
    assert purity_cubic_residual(uniform, tensor) > 1e-3


@pytest.mark.parametrize("d", [2, 3])
def test_pure_states_meet_both_conditions(d, sic_d2, sic_d3):
    sic = {2: sic_d2, 3: sic_d3}[d]
    tensor = structure_coefficients(sic)
    rng = np.random.default_rng(1000 + d)
    for _ in range(50):
        z = random_state(rng, d)
        p = sic_probabilities(np.outer(z, z.conj()), sic)
        assert purity_quadratic_residual(p) <= 1e-10
        assert purity_cubic_residual(p, tensor) <= 1e-10
        assert is_pure_probability_vector(p, tensor)


@pytest.mark.parametrize("d", [2, 3])
def test_mixed_states_fail_purity(d, sic_d2, sic_d3):
    sic = {2: sic_d2, 3: sic_d3}[d]
    tensor = structure_coefficients(sic)
    rng = np.random.default_rng(1100 + d)
    for _ in range(50):
        p = sic_probabilities(random_density(rng, d), sic)
        assert purity_quadratic_residual(p) >= 1e-4 or purity_cubic_residual(p, tensor) >= 1e-4
        assert not is_pure_probability_vector(p, tensor)


def test_purity_agrees_with_operator_level_test(sic_d3):
    # p passes both conditions exactly when the reconstruction is a projector
    tensor = structure_coefficients(sic_d3)
    rng = np.random.default_rng(19)
    for _ in range(200):
        z = random_state(rng, 3)
        pure = np.outer(z, z.conj())
        mix = 10.0 ** rng.uniform(-6, -3)
        rho = (1 - mix) * pure + mix * np.eye(3) / 3.0
        p = sic_probabilities(rho, sic_d3)
        claimed = is_pure_probability_vector(p, tensor)
        rec = reconstruct_density(p, sic_d3).matrix
        operator_pure = np.abs(rec @ rec - rec).max() <= 1e-8
        assert claimed == operator_pure


def test_quadratic_sum_never_exceeds_pure_value(sic_d2, sic_d3):
    rng = np.random.default_rng(20)
    for sic in (sic_d2, sic_d3):
        d = sic.d
        target = purity_quadratic_target(d)
        for _ in range(1000):
            p = sic_probabilities(random_density(rng, d), sic)
            assert np.sum(p * p) <= target + 1e-10


def test_probability_vector_validation():
    with pytest.raises(ValueError):
        check_probability_vector(np.array([0.5, 0.5, 0.1]))  # not d^2 long
    with pytest.raises(ValueError):
        check_probability_vector(np.array([0.7, 0.5, -0.1, -0.1]))  # negative entry
    with pytest.raises(ValueError):
        check_probability_vector(np.full(4, 0.3))  # sums to 1.2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_probability_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match=r"probability vector p has a non-finite entry"):
        check_probability_vector(np.array([bad, 0.25, 0.25, 0.5]))


@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite(bad, where):
    rho = np.eye(3, dtype=complex) / 3.0
    rho[where] = bad
    with pytest.raises(ValueError, match=r"density matrix rho has a non-finite entry"):
        check_density_matrix(rho)
