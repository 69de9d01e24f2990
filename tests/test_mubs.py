"""MUB construction, unbiasedness, and uncertainty profiles."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import sic_forge
from sic_forge import (
    MubSet,
    UncertaintyProfile,
    build_mubs,
    build_sic_set,
    displace_state,
    files,
    gram_residual,
    is_minimum_uncertainty,
    is_prime,
    minimum_uncertainty_target,
    unbiasedness_residual,
    uncertainty_profile,
)
from conftest import bench_fiducial, oracle_clock, oracle_shift, random_state

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
PROFILE_PRIMES = PRIMES + (37, 41, 43, 47)  # every prime d <= 47


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


def dense_bases(m: MubSet) -> np.ndarray:
    """Oracle: the (d+1, d, d) expansion of a table; vector m of basis a+1 is omega**(-m*j) * conj(table[a, j])."""
    d = m.d
    j = np.arange(d)
    bases = np.empty((d + 1, d, d), dtype=complex)
    bases[0] = np.eye(d)
    bases[1:] = np.exp(-2j * np.pi * np.outer(j, j) / d) * m.table.conj()[:, None, :]
    return bases


def pairwise_residual(bases: np.ndarray) -> float:
    """Oracle: worst |<e|f>|^2 - 1/d over every pair of dense bases, one d x d product per pair."""
    d = bases.shape[1]
    worst = 0.0
    for b in range(len(bases)):
        for b2 in range(b + 1, len(bases)):
            overlaps = np.abs(bases[b].conj() @ bases[b2].T) ** 2
            worst = max(worst, float(np.max(np.abs(overlaps - 1.0 / d))))
    return worst


def per_basis_residual(m: MubSet) -> float:
    """Oracle: the residual from one FFT batch per basis, the circulant overlaps of basis a+1 with every later basis."""
    d, table = m.d, m.table
    worst = np.max(np.abs(np.abs(table) ** 2 - 1.0 / d))
    for a in range(d - 1):
        overlaps = np.abs(np.fft.fft(table[a] * table[a + 1 :].conj(), axis=1)) ** 2
        worst = max(worst, np.max(np.abs(overlaps - 1.0 / d)))
    return float(worst)


def line_sums(grid: np.ndarray, d: int) -> np.ndarray:
    """(1/d) times the sums of a flat d^2 overlap grid over the d+1 lines through the origin: r1 = 0, then r2 = a*r1."""
    k = np.arange(d)
    lines = [k] + [k * d + (a * k) % d for a in range(d)]
    return np.array([grid[line].sum() for line in lines]) / d


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)
    assert is_prime(np.int64(7)) and not is_prime(np.uint8(9))


@pytest.mark.parametrize(
    "n, prime",
    [
        (1000000000000000003, True),
        (1000000016000000063, False),  # 1000000007 * 1000000009
        (3825123056546413051, False),  # 149491 * 747451 * 34233211, a strong pseudoprime to every base 2..23
        (318665857834031151167461, False),  # 399165290221 * 798330580441, a strong pseudoprime to every base 2..37
        (3317044064679887385961979, False),  # the bound less 2, a multiple of 17
        (2**61 - 1, True),
    ],
)
def test_is_prime_is_exact_on_large_values(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_past_its_proven_bound():
    bound = 3317044064679887385961981
    with pytest.raises(ValueError, match=f"below {bound}"):
        is_prime(bound)


@pytest.mark.parametrize("bad", [7.9, 7.0, np.float64(5.0), True, "7", None])
def test_is_prime_rejects_non_integers(bad):
    # int() used to truncate, so is_prime(7.9) was True
    with pytest.raises(ValueError, match="n must be an integer") as info:
        is_prime(bad)
    assert repr(bad) in str(info.value)


@pytest.mark.parametrize("d", [4, 6, 9, 10, 12])
def test_build_mubs_rejects_composite(d):
    with pytest.raises(ValueError, match="prime dimension required"):
        build_mubs(d)


@pytest.mark.parametrize("d", PRIMES)
def test_closed_form_matches_schur_oracle(d):
    # same vectors, phases and row order as the numerical eigenbases
    m = build_mubs(d)
    assert m.table.shape == (d, d) and not m.table.flags.writeable
    assert np.abs(dense_bases(m) - schur_mubs(d)).max() <= 1e-13


@pytest.mark.parametrize("d", PROFILE_PRIMES)
def test_profile_matches_the_dense_profile_on_schur_bases(d):
    rng = np.random.default_rng(2300 + d)
    m, bases = build_mubs(d), schur_mubs(d)
    for psi in [random_state(rng, d) for _ in range(5)] + [np.eye(d)[d // 2]]:
        profile, probs = uncertainty_profile(psi, m), np.abs(bases.conj() @ psi) ** 2
        assert np.abs(profile.probabilities - probs).max() <= 1e-13
        assert np.abs(profile.per_basis - np.sum(probs**2, axis=1)).max() <= 1e-13


@pytest.mark.parametrize("d", PRIMES + (37, 47, 101))
def test_unbiasedness_residual_matches_the_pairwise_oracle(d):
    m = build_mubs(d)
    assert abs(unbiasedness_residual(m) - pairwise_residual(dense_bases(m))) <= 1e-14


@pytest.mark.parametrize("d", PROFILE_PRIMES + (101, 307))
def test_unbiasedness_residual_matches_the_per_basis_oracle(d):
    m = build_mubs(d)
    assert abs(unbiasedness_residual(m) - per_basis_residual(m)) <= 1e-15


@pytest.mark.parametrize("d", [4, 6, 8, 9, 10, 12, 15, 21, 25])
def test_unbiasedness_residual_at_composite_d_matches_the_pairwise_oracle(d):
    # the chirp bases of a composite d are not unbiased: the residual is of order 1, and the d - 1 FFTs still cover
    # every pair of bases
    m = MubSet(d)
    residual = unbiasedness_residual(m)
    assert residual > 0.1
    assert abs(residual - pairwise_residual(dense_bases(m))) <= 1e-14


def test_mub_set_takes_only_d():
    assert [f.name for f in dataclasses.fields(MubSet) if f.init] == ["d"]
    with pytest.raises(TypeError, match="table"):
        MubSet(d=5, table=np.eye(5))
    with pytest.raises(ValueError, match="table"):
        dataclasses.replace(build_mubs(5), table=np.eye(5))
    m = MubSet(np.int64(7))
    assert type(m.d) is int and not m.table.flags.writeable
    assert m.table.tobytes() == build_mubs(7).table.tobytes()
    with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
        MubSet(1)


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(sic_forge.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import sic_forge; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_d2_bases_frozen_literals():
    bases = dense_bases(build_mubs(2))
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(bases[0], np.eye(2), atol=1e-14)
    np.testing.assert_allclose(bases[1], [[s, s], [s, -s]], atol=1e-12)
    np.testing.assert_allclose(bases[2], [[s, -1j * s], [s, 1j * s]], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_bases_orthonormal(d):
    bases = dense_bases(build_mubs(d))
    for b in range(d + 1):
        gram = bases[b].conj() @ bases[b].T
        assert np.abs(gram - np.eye(d)).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_unbiasedness(d):
    assert unbiasedness_residual(build_mubs(d)) <= 1e-10


def test_bases_diagonalize_their_unitaries():
    # basis a+1 must consist of eigenvectors of X Z^a
    from sic_forge import build_clock, build_shift

    for d in (2, 3, 5, 7, 11, 13):
        bases = dense_bases(build_mubs(d))
        x, z = build_shift(d), build_clock(d)
        for a in range(d):
            u = x @ np.linalg.matrix_power(z, a)
            for vec in bases[a + 1]:
                ratio = u @ vec
                lam = np.vdot(vec, ratio)
                assert np.abs(ratio - lam * vec).max() <= 1e-12


def test_profile_of_basis_state():
    m = build_mubs(2)
    profile = uncertainty_profile(np.array([1.0, 0.0]), m)
    np.testing.assert_allclose(profile.per_basis, [1.0, 0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(profile.probabilities.sum(axis=1), 1.0, atol=1e-12)


def test_uncertainty_profile_takes_only_its_probabilities():
    with pytest.raises(TypeError):
        UncertaintyProfile(probabilities=np.full((3, 2), 0.5), per_basis=np.full(3, 2.0 / 3.0))
    probs = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
    profile = UncertaintyProfile(probs)
    np.testing.assert_array_equal(profile.per_basis, [1.0, 0.5, 0.5])
    assert probs.flags.writeable and not profile.probabilities.flags.writeable and not profile.per_basis.flags.writeable
    probs[0] = 0.5  # the profile holds its own copy
    assert profile.probabilities[0, 0] == 1.0
    with pytest.raises(ValueError, match="per_basis"):
        dataclasses.replace(profile, per_basis=np.zeros(3))


def _with(entry, value):
    probs = np.full((3, 2), 0.5)
    probs[entry] = value
    return probs


@pytest.mark.parametrize(
    "probs, message",
    [
        pytest.param(np.ones(3), "shape", id="one_dimensional"),
        pytest.param(np.full((3, 3), 1.0 / 3.0), "shape", id="square"),
        pytest.param(np.ones((2, 1)), "shape", id="d_below_2"),
        pytest.param(_with((1, 0), np.nan), "non-finite", id="nan"),
        pytest.param(_with((2, 1), np.inf), "non-finite", id="inf"),
        pytest.param(_with((0, 0), -np.inf), "non-finite", id="minus_inf"),
        pytest.param(-np.ones((3, 2)), "below the floor", id="negative"),
    ],
)
def test_uncertainty_profile_refuses_malformed_probabilities(probs, message):
    with pytest.raises(ValueError, match=f"probabilities.*{message}"):
        UncertaintyProfile(probs)


def test_uncertainty_profile_takes_probabilities_at_the_floor():
    assert UncertaintyProfile(_with((0, 0), -1e-12)).per_basis[0] == pytest.approx(0.25)


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


@pytest.mark.parametrize(
    "bad",
    [float("inf"), float("nan"), 0.0, -1e-9, True, pytest.param(np.True_, id="np.True_")]
    + ["1e-3", None, "abc", 1e-3 + 0j],
)
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


@pytest.mark.parametrize("d", [7, 11])
def test_sic_orbit_minimum_uncertainty_on_stored_fiducials(d):
    # the paper's second result past d = 5: every vector of a stored fiducial's orbit meets 2/(d+1) in every basis
    sic = build_sic_set(bench_fiducial(d))
    assert sic.certified
    m = build_mubs(d)
    for vec in sic.vectors:
        np.testing.assert_allclose(uncertainty_profile(vec, m).per_basis, 2.0 / (d + 1), rtol=0, atol=1e-12)
        assert is_minimum_uncertainty(vec, m, tol=1e-8)


@pytest.mark.parametrize("d", PROFILE_PRIMES)
def test_profile_is_the_line_sums_of_the_overlap_grid(d):
    # per_basis[0] = (1/d) sum_r2 |B_(0, r2)|^2 and per_basis[a+1] = (1/d) sum_k |B_(k, a*k)|^2: the displacements
    # on the line r2 = a*r1 are the powers of X Z^a up to phase, whose eigenbasis is basis a+1
    rng = np.random.default_rng(2600 + d)
    m = build_mubs(d)
    for psi in [random_state(rng, d) for _ in range(3)]:
        grid = build_sic_set(psi).overlap_grid
        assert np.abs(line_sums(grid, d) - uncertainty_profile(psi, m).per_basis).max() <= 1e-14


@pytest.mark.parametrize("path", ["goldens/fiducial_d3.json"] + [f"bench/data/fiducial_d{d}.json" for d in (5, 7, 11)])
def test_fiducial_line_sums_are_the_minimum_uncertainty_target(path):
    # the paper's second result on the grid: every line sum of a fiducial's overlaps is 2/(d+1)
    sic = build_sic_set(files.load_fiducial(Path(__file__).resolve().parents[1] / path))
    d = sic.d
    assert np.abs(line_sums(sic.overlap_grid, d) - 2.0 / (d + 1)).max() <= 1e-12
