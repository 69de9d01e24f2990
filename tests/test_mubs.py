"""MUB construction, unbiasedness, and uncertainty profiles."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import sic_forge
from sic_forge import (
    MubSet,
    build_mubs,
    build_sic_set,
    displace_state,
    gram_residual,
    is_minimum_uncertainty,
    is_prime,
    minimum_uncertainty_target,
    unbiasedness_residual,
    uncertainty_profile,
)
from conftest import oracle_clock, oracle_shift, random_state


def schur_eigenbasis(u: np.ndarray) -> np.ndarray:
    """Rows: eigenvectors of a unitary with distinct eigenvalues, canonically fixed.

    Schur vectors of a normal matrix give an orthonormal eigenbasis to machine
    precision.  Rows are sorted by eigenvalue phase in [0, 2*pi) (a small
    negative band guards angles that should be exactly zero) and each row is
    rotated so its first nonvanishing component is real positive.
    """
    t, q = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diag(t))
    phases = np.where(phases < -1e-9, phases + 2.0 * np.pi, phases)
    vecs = q[:, np.argsort(phases)].T.copy()
    for row in vecs:
        pivot = row[np.flatnonzero(np.abs(row) > 1e-8)[0]]
        row *= pivot.conj() / abs(pivot)
    return vecs


def schur_mubs(d: int) -> np.ndarray:
    """Oracle: the standard basis plus the numerical eigenbases of X Z^a for a = 0..d-1."""
    shift = oracle_shift(d)
    clock = oracle_clock(d)
    bases = np.empty((d + 1, d, d), dtype=complex)
    bases[0] = np.eye(d)
    power = np.eye(d, dtype=complex)
    for a in range(d):
        bases[a + 1] = schur_eigenbasis(shift @ power)
        power = power @ clock
    return bases


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize("d", [4, 6, 9, 10, 12])
def test_build_mubs_rejects_composite(d):
    with pytest.raises(ValueError, match="prime dimension required"):
        build_mubs(d)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_closed_form_matches_schur_oracle(d):
    # same vectors, phases and row order as the numerical eigenbases
    assert np.abs(build_mubs(d).bases - schur_mubs(d)).max() <= 1e-13


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(sic_forge.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import sic_forge; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_d2_bases_frozen_literals():
    m = build_mubs(2)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(m.bases[0], np.eye(2), atol=1e-14)
    np.testing.assert_allclose(m.bases[1], [[s, s], [s, -s]], atol=1e-12)
    np.testing.assert_allclose(m.bases[2], [[s, -1j * s], [s, 1j * s]], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_bases_orthonormal(d):
    m = build_mubs(d)
    assert m.bases.shape == (d + 1, d, d)
    for b in range(d + 1):
        gram = m.bases[b].conj() @ m.bases[b].T
        assert np.abs(gram - np.eye(d)).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_unbiasedness(d):
    assert unbiasedness_residual(build_mubs(d)) <= 1e-10


def test_unbiasedness_residual_of_repeated_basis():
    d = 3
    bases = np.stack([np.eye(d, dtype=complex), np.eye(d, dtype=complex)])
    assert unbiasedness_residual(MubSet(d=d, bases=bases)) == pytest.approx(1.0 - 1.0 / d, abs=1e-14)


def test_bases_diagonalize_their_unitaries():
    # basis a+1 must consist of eigenvectors of X Z^a
    from sic_forge import build_clock, build_shift

    for d in (2, 3, 5, 7, 11, 13):
        m = build_mubs(d)
        x, z = build_shift(d), build_clock(d)
        for a in range(d):
            u = x @ np.linalg.matrix_power(z, a)
            for vec in m.bases[a + 1]:
                ratio = u @ vec
                lam = np.vdot(vec, ratio)
                assert np.abs(ratio - lam * vec).max() <= 1e-12


def test_profile_of_basis_state():
    m = build_mubs(2)
    profile = uncertainty_profile(np.array([1.0, 0.0]), m)
    np.testing.assert_allclose(profile.per_basis, [1.0, 0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(profile.probabilities.sum(axis=1), 1.0, atol=1e-12)


def test_profile_rows_normalize_and_stay_in_range():
    rng = np.random.default_rng(21)
    for d in (2, 3, 5, 7):
        m = build_mubs(d)
        for _ in range(20):
            profile = uncertainty_profile(random_state(rng, d), m)
            np.testing.assert_allclose(profile.probabilities.sum(axis=1), 1.0, atol=1e-12)
            assert profile.per_basis.min() >= 1.0 / d - 1e-12
            assert profile.per_basis.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_purity_sum_identity(d):
    # complete MUB family: per-basis squared sums of any pure state add to 2
    rng = np.random.default_rng(1200 + d)
    m = build_mubs(d)
    for _ in range(50):
        profile = uncertainty_profile(random_state(rng, d), m)
        assert abs(profile.per_basis.sum() - 2.0) <= 1e-10


def test_fiducials_are_minimum_uncertainty(fiducial_d2, fiducial_d3):
    m2, m3 = build_mubs(2), build_mubs(3)
    assert is_minimum_uncertainty(fiducial_d2, m2, tol=1e-9)
    profile = uncertainty_profile(fiducial_d2, m2)
    np.testing.assert_allclose(profile.per_basis, 2.0 / 3.0, atol=1e-12)
    assert is_minimum_uncertainty(fiducial_d3, m3, tol=1e-9)
    np.testing.assert_allclose(uncertainty_profile(fiducial_d3, m3).per_basis, 0.5, atol=1e-12)


def test_displaced_fiducials_stay_minimum_uncertainty(fiducial_d3):
    m = build_mubs(3)
    for r1 in range(3):
        for r2 in range(3):
            assert is_minimum_uncertainty(displace_state(fiducial_d3, (r1, r2)), m, tol=1e-9)


def test_basis_state_is_not_minimum_uncertainty():
    m = build_mubs(3)
    e0 = np.array([1.0, 0.0, 0.0])
    assert not is_minimum_uncertainty(e0, m, tol=1e-8)
    assert minimum_uncertainty_target(3) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1e-9])
def test_minimum_uncertainty_rejects_bad_tol(bad):
    e0 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        is_minimum_uncertainty(e0, build_mubs(3), tol=bad)


def test_minimum_uncertainty_does_not_imply_fiducial():
    # Documented observation, not a theorem: flatten a d=5 profile by direct
    # optimization from a generic start and look at the overlap residual of
    # the result.  This generically lands far from any fiducial.
    d = 5
    m = build_mubs(d)
    rng = np.random.default_rng(22)
    target = minimum_uncertainty_target(d)

    def evenness(x: np.ndarray) -> float:
        psi = x[:d] + 1j * x[d:]
        psi = psi / np.linalg.norm(psi)
        profile = uncertainty_profile(psi, m)
        return float(np.sum((profile.per_basis - target) ** 2))

    x0 = rng.standard_normal(2 * d)
    result = scipy.optimize.minimize(evenness, x0, method="BFGS", options={"gtol": 1e-12, "maxiter": 2000})
    psi = result.x[:d] + 1j * result.x[d:]
    psi /= np.linalg.norm(psi)
    assert evenness(result.x) <= 1e-16, "optimizer failed to flatten the profile"
    assert is_minimum_uncertainty(psi, m, tol=1e-6)
    print(f"[observation] d=5 flattened-profile state has gram_residual {gram_residual(psi):.3e}")


def test_sic_orbit_minimum_uncertainty_for_searched_dimension():
    from sic_forge import SearchConfig, search

    cand = search(SearchConfig(dim=5, restarts=12, seed=7))
    assert cand.certified
    m = build_mubs(5)
    sic = build_sic_set(cand.fiducial)
    for vec in sic.vectors:
        assert is_minimum_uncertainty(vec, m, tol=1e-8)
