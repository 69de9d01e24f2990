"""Clock/shift/displacement operators against dense matrix-power oracles."""

import numpy as np
import pytest

from sic_forge import (
    as_state_vector,
    build_clock,
    build_shift,
    canonical_index,
    check_dim,
    displace_state,
    displacement,
    phase_constants,
)
from conftest import displacement_table, oracle_displacement, random_state


def test_clock_d2_literal():
    np.testing.assert_allclose(build_clock(2), np.diag([1.0, -1.0]), atol=1e-14)


def test_clock_d3_entry():
    assert abs(build_clock(3)[1, 1] - np.exp(2j * np.pi / 3)) <= 1e-14


def test_clock_power_cycles():
    z = build_clock(4)
    np.testing.assert_allclose(np.linalg.matrix_power(z, 4), np.eye(4), atol=1e-14)


def test_shift_d2_literal():
    np.testing.assert_allclose(build_shift(2), np.array([[0, 1], [1, 0]]), atol=1e-14)


def test_shift_d3_rotates_components():
    x = build_shift(3)
    np.testing.assert_allclose(x @ np.array([1.0, 2.0, 3.0]), [3.0, 1.0, 2.0], atol=1e-14)


@pytest.mark.parametrize("d", range(2, 10))
def test_shift_power_cycles(d):
    x = build_shift(d)
    np.testing.assert_allclose(np.linalg.matrix_power(x, d), np.eye(d), atol=1e-14)


def test_rejects_small_dimension():
    with pytest.raises(ValueError):
        build_clock(1)
    with pytest.raises(ValueError):
        build_shift(0)


def test_check_dim_accepts_python_and_numpy_integers():
    for d in (2, 7, np.int64(5), np.uint8(3)):
        assert check_dim(d) == d and type(check_dim(d)) is int


@pytest.mark.parametrize("bad", [3.9, 3.0, np.float64(4.0), "3", True, None, 1, -2])
def test_check_dim_rejects_non_integral_or_small(bad):
    with pytest.raises(ValueError, match="dimension must be an integer >= 2") as info:
        check_dim(bad)
    assert repr(bad) in str(info.value)


def test_clock_shift_commutation():
    for d in range(2, 10):
        z, x = build_clock(d), build_shift(d)
        omega = phase_constants(d).omega
        assert np.abs(z @ x - omega * x @ z).max() <= 1e-14


def test_phase_constants_invariants():
    for d in range(2, 13):
        pc = phase_constants(d)
        assert abs(pc.omega**d - 1.0) <= 1e-13
        assert abs(pc.tau**2 - pc.omega) <= 1e-14
        assert abs(abs(pc.omega) - 1.0) <= 1e-14
        assert abs(abs(pc.tau) - 1.0) <= 1e-14


def test_displacement_identity_at_origin():
    for d in (2, 3, 7):
        assert np.abs(displacement(d, (0, 0)) - np.eye(d)).max() <= 1e-14


def test_displacement_d2_literal():
    expected = np.array([[0.0, 1j], [-1j, 0.0]])
    np.testing.assert_allclose(displacement(2, (1, 1)), expected, atol=1e-14)


def test_displacement_d3_plain_shift():
    np.testing.assert_allclose(displacement(3, (1, 0)), build_shift(3), atol=1e-14)


@pytest.mark.parametrize("d", range(2, 10))
def test_displacement_matches_matrix_power_oracle(d):
    for r1 in range(d):
        for r2 in range(d):
            dense = oracle_displacement(d, r1, r2)
            assert np.abs(displacement(d, (r1, r2)) - dense).max() <= 1e-12


@pytest.mark.parametrize("d", range(2, 13))
def test_displacement_table_unitary(d):
    table = displacement_table(d)
    assert len(table) == d * d
    for r1 in range(d):
        for r2 in range(d):
            m = table[(r1, r2)]
            assert np.abs(m.conj().T @ m - np.eye(d)).max() <= 1e-12
    assert np.abs(table[(0, 0)] - np.eye(d)).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_projective_closure(d):
    table = displacement_table(d)
    for r1 in range(d):
        for r2 in range(d):
            for s1 in range(d):
                for s2 in range(d):
                    product = table[(r1, r2)] @ table[(s1, s2)]
                    target = table[((r1 + s1) % d, (r2 + s2) % d)]
                    idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
                    scalar = product[idx] / target[idx]
                    assert abs(abs(scalar) - 1.0) <= 1e-12
                    assert np.abs(product - scalar * target).max() <= 1e-12


def test_displace_state_identity_and_shift():
    psi = np.array([0.2 + 0.1j, 0.5, 0.3 - 0.4j, 0.1j])
    psi /= np.linalg.norm(psi)
    np.testing.assert_allclose(displace_state(psi, (0, 0)), psi, atol=1e-14)
    np.testing.assert_allclose(displace_state(np.array([1.0, 0.0]), (1, 0)), [0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("d", range(2, 13))
def test_displace_state_matches_dense(d):
    rng = np.random.default_rng(1000 + d)
    for _ in range(100):
        psi = random_state(rng, d)
        r = (int(rng.integers(d)), int(rng.integers(d)))
        dense = displacement(d, r) @ psi
        assert np.abs(displace_state(psi, r) - dense).max() <= 1e-13


def test_canonical_index_reduces_mod_d():
    assert canonical_index(3, (4, -1)) == (1, 2)
    assert canonical_index(5, (0, 5)) == (0, 0)


def test_as_state_vector_validation():
    with pytest.raises(ValueError):
        as_state_vector(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        as_state_vector(np.ones((2, 2)))
    v = as_state_vector([1.0, 0.0])
    assert v.dtype == complex


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_as_state_vector_rejects_non_finite(bad):
    # NaN compares false with every tolerance, so it must be caught explicitly
    with pytest.raises(ValueError, match="state vector has a non-finite component"):
        as_state_vector(np.array([bad, 0.0]))
