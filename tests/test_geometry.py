"""SIC-probability coordinates: conversion, purity conditions, structure tensor."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sic_forge import (
    ReconstructedDensity,
    SearchConfig,
    StructureTensor,
    build_sic_set,
    check_density_matrix,
    check_probability_vector,
    is_pure_probability_vector,
    minimum_uncertainty_target,
    purity_cubic_residual,
    purity_cubic_target,
    purity_quadratic_residual,
    purity_quadratic_target,
    reconstruct_density,
    search,
    sic_probabilities,
    structure_coefficients,
)
from sic_forge.mubs import UncertaintyProfile
from conftest import bench_fiducial, random_density, random_state


def dense_triple_products(sic) -> np.ndarray:
    """Re tr(Pi_i Pi_j Pi_k) from explicit products of the projector stack."""
    proj = sic.projectors
    return np.einsum("iab,jbc,kca->ijk", proj, proj, proj).real


def dense_cubic_residual(p, tensor) -> float:
    """The cubic purity residual as the d^6 contraction of p against the stored tensor c."""
    value = float(p @ np.tensordot(tensor.c, p, axes=([2], [0])) @ p)
    return abs(value - purity_cubic_target(tensor.d))


@pytest.fixture(scope="module")
def sics(sic_d2, sic_d3):
    """SIC sets for d = 2..7: exact fiducials for d = 2, 3, searched ones above."""
    found = {2: sic_d2, 3: sic_d3}
    for d in range(4, 8):
        found[d] = build_sic_set(search(SearchConfig(dim=d, restarts=12, seed=7)).fiducial)
    assert all(sic.certified for sic in found.values())
    return found


@pytest.fixture(scope="module")
def tensors(sics):
    return {d: structure_coefficients(sic) for d, sic in sics.items()}


@settings(max_examples=40, deadline=None, database=None)
@given(st.data(), st.integers(2, 7))
def test_conversions_equal_the_projector_stack(sics, data, d):
    sic = sics[d]
    g = data.draw(arrays(np.float64, (2, d, d), elements=st.floats(-1.0, 1.0)))
    g = g[0] + 1j * g[1]
    rho = g @ g.conj().T
    assume(np.trace(rho).real > 1e-3)
    rho /= np.trace(rho).real
    dense = np.trace(sic.projectors @ rho, axis1=1, axis2=2).real / d
    np.testing.assert_allclose(sic_probabilities(rho, sic), dense, rtol=0, atol=1e-13)
    weights = data.draw(arrays(np.float64, (d * d,), elements=st.floats(0.0, 1.0)))
    assume(weights.sum() > 0.0)
    p = weights / weights.sum()
    dense = np.tensordot((d + 1) * p - 1.0 / d, sic.projectors, axes=1)
    np.testing.assert_allclose(reconstruct_density(p, sic).matrix, dense, rtol=0, atol=1e-13)


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
    # every function that takes a SIC set refuses an uncertified one with the same message; a random state too,
    # whose residuals are honest but far from a fiducial's
    states = (np.array([1.0, 0.0, 0.0]), random_state(np.random.default_rng(2700), 3))
    uniform = np.full(9, 1.0 / 9.0)
    for bad in (build_sic_set(psi) for psi in states):
        assert not bad.certified
        for call in (
            lambda: sic_probabilities(np.eye(3) / 3.0, bad),
            lambda: reconstruct_density(uniform, bad),
            lambda: structure_coefficients(bad),
            lambda: purity_cubic_residual(uniform, bad),
            lambda: is_pure_probability_vector(uniform, bad),
        ):
            with pytest.raises(ValueError, match="SIC set is not certified"):
                call()


def test_probabilities_reject_dimension_mismatch(sic_d3):
    with pytest.raises(ValueError):
        sic_probabilities(np.eye(2) / 2.0, sic_d3)


@pytest.mark.parametrize(
    "refuse",
    [
        lambda sic: check_probability_vector(np.full(4, 0.25) + 3j),
        lambda sic: check_probability_vector(np.full(9, 1.0 / 9.0) + 1j, 3),
        lambda sic: purity_quadratic_residual(np.full(9, 1.0 / 9.0) + 2j),
        lambda sic: reconstruct_density(np.full(9, 1.0 / 9.0) + 1j, sic),
        lambda sic: UncertaintyProfile(np.full((4, 3), 1.0 / 3.0) + 1j),
    ],
    ids=["check_probability_vector", "check_probability_vector_d", "purity_quadratic_residual",
         "reconstruct_density", "UncertaintyProfile"],
)
def test_complex_probabilities_are_refused(refuse, sic_d3):
    with pytest.raises(ValueError, match="must be real"):
        refuse(sic_d3)


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


def test_reconstructed_density_takes_only_its_matrix():
    with pytest.raises(TypeError):
        ReconstructedDensity(matrix=np.eye(2) / 2.0, min_eigenvalue=0.5, physical=True)
    m = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # Hermitian part [[1, 1/2], [1/2, 0]]
    rec = ReconstructedDensity(m)
    assert m.flags.writeable and not rec.matrix.flags.writeable
    np.testing.assert_array_equal(rec.matrix, [[1.0, 0.5], [0.5, 0.0]])
    assert rec.min_eigenvalue == pytest.approx(0.5 - np.sqrt(0.5), abs=1e-15) and rec.physical is False
    with pytest.raises(ValueError, match="physical"):
        dataclasses.replace(rec, physical=True)
    assert dataclasses.replace(rec, matrix=np.eye(2) / 2.0).physical is True


def _nan_at_origin(d):
    m = np.eye(d, dtype=complex) / d
    m[0, 0] = np.nan
    return m


@pytest.mark.parametrize(
    "matrix, message",
    [
        pytest.param(np.ones(3), "square", id="one_dimensional"),
        pytest.param(np.ones((2, 3)), "square", id="not_square"),
        pytest.param(np.ones((1, 1)), "d >= 2", id="one_by_one"),
        pytest.param(_nan_at_origin(3), "non-finite", id="nan_on_the_diagonal"),
        pytest.param(np.full((2, 2), np.inf), "non-finite", id="inf"),
    ],
)
def test_reconstructed_density_refuses_malformed_matrix(matrix, message):
    # unchecked, the NaN case reads min_eigenvalue 0.0 and physical (eigvalsh ignores a NaN at [0, 0]), and 1 x 1 physical
    with pytest.raises(ValueError, match=f"matrix.*{message}"):
        ReconstructedDensity(matrix)


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


@pytest.mark.parametrize("d", [2, 3, 5])
def test_structure_tensor_is_contiguous_and_owns_its_data(d, sics):
    sic = sics[d]
    tensor = structure_coefficients(sic)
    c = tensor.c
    assert c.dtype == np.float64 and c.flags.c_contiguous and c.flags.owndata and not c.flags.writeable
    np.testing.assert_allclose(c, dense_triple_products(sic), rtol=0, atol=1e-12)
    assert tensor.vectors is sic.vectors and not tensor.vectors.flags.writeable


# The cubic residual reads only d and the SIC vectors of a certified set, so each cubic test runs on the SicSet (as
# convert passes it) and on the StructureTensor built from that set (as the bench passes it).
@settings(max_examples=40, deadline=None, database=None)
@given(st.data(), st.integers(2, 7))
def test_cubic_residual_equals_the_dense_contraction_on_the_simplex(sics, tensors, data, d):
    # any point of the simplex, unphysical ones included: vertices, faces and interior
    weights = data.draw(arrays(np.float64, (d * d,), elements=st.floats(0.0, 1.0)))
    assume(weights.sum() > 0.0)
    p = weights / weights.sum()
    dense = dense_cubic_residual(p, tensors[d])
    for operand in (sics[d], tensors[d]):
        assert purity_cubic_residual(p, operand) == pytest.approx(dense, rel=0, abs=1e-12)


@pytest.mark.parametrize("d", [11, 12])
def test_cubic_residual_equals_the_dense_contraction_on_bench_fiducials(d):
    sic = build_sic_set(bench_fiducial(d))
    tensor = structure_coefficients(sic)
    rng = np.random.default_rng(2100 + d)
    points = [sic_probabilities(random_density(rng, d), sic) for _ in range(3)]
    points += [sic_probabilities(np.outer(z, z.conj()), sic) for z in (random_state(rng, d) for _ in range(3))]
    points += [rng.dirichlet(np.full(d * d, 0.2)) for _ in range(3)]
    for p in points:
        dense = dense_cubic_residual(p, tensor)
        for operand in (sic, tensor):
            assert purity_cubic_residual(p, operand) == pytest.approx(dense, rel=0, abs=1e-12)


def test_structure_tensor_takes_only_its_sic_set(sic_d3):
    # zero vectors would read a cubic purity residual of 0.156 for any p
    with pytest.raises(TypeError):
        StructureTensor(d=3, c=np.zeros((9, 9, 9)), vectors=np.zeros((9, 3)))
    tensor = StructureTensor(sic_d3)
    assert tensor.d == 3 and tensor.vectors is sic_d3.vectors
    assert tensor.c.tobytes() == structure_coefficients(sic_d3).c.tobytes()
    with pytest.raises(ValueError, match="vectors"):
        dataclasses.replace(tensor, sic=sic_d3, vectors=np.zeros((9, 3)))


def test_structure_tensor_guard():
    from sic_forge import STRUCTURE_TENSOR_MAX_DIM

    assert STRUCTURE_TENSOR_MAX_DIM == 12
    # a certified set in a refused dimension (no heavy work done)
    sic = build_sic_set(bench_fiducial(16))
    assert sic.certified and sic.d > STRUCTURE_TENSOR_MAX_DIM
    with pytest.raises(ValueError, match="dimensions above 12 are refused"):
        structure_coefficients(sic)


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
        for operand in (sic, tensor):
            assert purity_cubic_residual(p, operand) <= 1e-10
            assert is_pure_probability_vector(p, operand)


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


@pytest.mark.parametrize("d", [0, 1, -1, 1.5, True, "3", np.nan])
@pytest.mark.parametrize(
    "takes_d",
    [purity_quadratic_target, purity_cubic_target, minimum_uncertainty_target,
     lambda d: check_probability_vector([1.0], d)],
    ids=["purity_quadratic_target", "purity_cubic_target", "minimum_uncertainty_target", "check_probability_vector"],
)
def test_a_function_of_the_dimension_refuses_a_bad_one_by_name(takes_d, d):
    # [1.0] is a valid probability vector of length d^2 for d = 1, so only the dimension check refuses it
    with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
        takes_d(d)


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
