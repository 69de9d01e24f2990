"""Clock/shift/displacement operators against dense matrix-power oracles."""

import dataclasses

import numpy as np
import pytest

from sic_forge import (
    PhaseConstants,
    as_state_vector,
    build_clock,
    build_shift,
    canonical_index,
    check_dim,
    displace_state,
    displacement,
    phase_constants,
)
from sic_forge.mubs import MubSet
from sic_forge.wh import check_tolerance
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


def test_check_tolerance_accepts_python_and_numpy_reals():
    for tol in (1e-3, 2, np.float64(1e-3), np.float32(0.5), np.int64(3)):
        assert check_tolerance(tol, "tol") == float(tol) and type(check_tolerance(tol, "tol")) is float


@pytest.mark.parametrize(
    "bad", ["1e-3", None, "abc", b"1", 1e-3 + 0j, np.complex128(1e-3), np.array(1e-3), [1e-3], True, np.True_, 10**400]
)
def test_check_tolerance_rejects_what_is_not_a_real_number(bad):
    # text that float() would parse is rejected too, and every rejection names the parameter
    with pytest.raises(ValueError, match="my_tol must be positive and finite") as info:
        check_tolerance(bad, "my_tol")
    assert repr(bad) in str(info.value)


def test_clock_shift_commutation():
    for d in range(2, 10):
        z, x = build_clock(d), build_shift(d)
        omega = phase_constants(d).tau_power(2)
        assert np.abs(z @ x - omega * x @ z).max() <= 1e-14


def test_phase_constants_invariants():
    for d in range(2, 13):
        pc = phase_constants(d)
        assert pc.tau_powers.shape == (2 * d,) and pc.tau_power(2 * d) == pc.tau_power(0) == 1.0
        assert abs(pc.tau_power(2 * d - 1) * pc.tau_power(1) - 1.0) <= 1e-15
        assert abs(pc.tau_power(1) + np.exp(1j * np.pi / d)) <= 1e-15
        assert pc.tau_power(2) == pc.dft[1, 1]
        assert np.abs(np.abs(pc.tau_powers) - 1.0).max() <= 1e-15
        a, m = np.divmod(np.arange(d * d), d)
        np.testing.assert_allclose(pc.dft.reshape(-1), np.exp(2j * np.pi * a * m / d), rtol=0.0, atol=1e-13)
        assert not any(t.flags.writeable for t in (pc.tau_powers, pc.add, pc.sub, pc.lead, pc.dft))
        rng = np.random.default_rng(d)
        stack = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        assert pc.forward(stack).tobytes() == np.fft.fft(stack).tobytes()
        assert pc.inverse(stack).tobytes() == np.fft.ifft(stack).tobytes()


def test_phase_constants_take_only_d():
    assert [f.name for f in dataclasses.fields(PhaseConstants)] == ["d", "tau_powers", "add", "sub", "lead", "dft"]
    with pytest.raises(TypeError):
        PhaseConstants(d=3, tau_powers=np.ones(6))
    pc = PhaseConstants(np.int64(5))
    assert type(pc.d) is int and pc.dft.tobytes() == phase_constants(5).dft.tobytes()
    with pytest.raises(ValueError, match="tau_powers"):
        dataclasses.replace(pc, tau_powers=np.ones(10))
    with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
        PhaseConstants(1)


def exact_tau_phase(d: int, n) -> np.ndarray:
    """Oracle: tau**n = exp(i*pi*m/d) from the exponent m = (d+1)*n reduced mod 2d in Python integers.

    The phase is evaluated as ``PhaseConstants`` evaluates ``dft``, so the comparison isolates the exponent's reduction.
    """
    m = np.array([(d + 1) * int(k) % (2 * d) for k in np.ravel(n)]).reshape(np.shape(n))
    return np.exp(1j * np.pi * m / d)


@pytest.mark.parametrize("d", [*range(2, 41), 101])
def test_tau_power_is_the_exactly_reduced_phase(d):
    # an exp of the raw exponent loses accuracy as the exponent grows: 5e-12 at d = 101 over these n
    n = np.arange(d * d)
    assert np.abs(phase_constants(d).tau_power(n) - exact_tau_phase(d, n)).max() <= 4.5e-16
    pc = phase_constants(d)
    for k in (-1, -2 * d - 3, 10**30, np.int64(d * d - 1)):  # any integer exponent, reduced mod 2d
        assert pc.tau_power(k) == pc.tau_powers[int(k) % (2 * d)]


@pytest.mark.parametrize("d", [24, 101, 1009])
def test_displace_state_carries_the_exactly_reduced_phase(d):
    # component j of D_r psi is tau**(r1*r2) * omega**((j - r1)*r2) * psi[j - r1], at the largest exponents
    psi = random_state(np.random.default_rng(d), d)
    r1, r2 = d - 1, d - 2
    j = np.arange(d)
    expected = exact_tau_phase(d, r1 * r2 + 2 * (j - r1) * r2) * psi[(j - r1) % d]
    assert np.abs(displace_state(psi, (r1, r2)) - expected).max() <= 1e-15


@pytest.mark.parametrize("d", [3037000500, 2**63])
@pytest.mark.parametrize(
    "build",
    [phase_constants, lambda d: displacement(d, (0, 0)), build_clock, build_shift, MubSet],
    ids=["phase_constants", "displacement", "build_clock", "build_shift", "MubSet"],
)
def test_a_dimension_whose_tables_cannot_be_indexed_is_refused_by_name(build, d):
    # 3037000500 is the least d with d*d >= 2**63: a flat index r1*d + r2 of its (d, d) tables overflows int64
    with pytest.raises(ValueError, match=rf"dimension must be an integer in \[2, 3037000500\), got {d}"):
        build(d)


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
    assert canonical_index(5, (np.int64(-7), np.uint8(9))) == (3, 4)
    assert all(type(i) is int for i in canonical_index(5, (np.int64(-7), np.uint8(9))))
    assert canonical_index(3, [4, -1]) == canonical_index(3, np.array([4, -1])) == (1, 2)  # any pair


@pytest.mark.parametrize("r, name", [((1.5, 2), "r1"), ((0, 2.9), "r2"), ((True, 2), "r1"), ((1, "2"), "r2"),
                                     ((np.float64(1.0), 0), "r1"), ((0, np.bool_(True)), "r2"), ((None, 0), "r1")])
def test_index_helpers_reject_non_integers(r, name):
    # int() used to truncate: (1.5, 2.9) read as (1, 2), and a displacement by (0.5, 0) was the identity
    psi = np.array([1.0, 0.0, 0.0])
    for call in (lambda: canonical_index(3, r), lambda: displacement(3, r), lambda: displace_state(psi, r)):
        with pytest.raises(ValueError, match=f"index {name} must be an integer") as info:
            call()
        assert repr(r[0] if name == "r1" else r[1]) in str(info.value)


@pytest.mark.parametrize("r", [(1, 2, 3), (1,), (), 5, None, np.array([1, 2, 3])])
def test_index_helpers_reject_what_is_not_a_pair(r):
    psi = np.array([1.0, 0.0, 0.0])
    for call in (lambda: canonical_index(3, r), lambda: displacement(3, r), lambda: displace_state(psi, r)):
        with pytest.raises(ValueError, match="index r must be a pair of integers") as info:
            call()
        assert repr(r) in str(info.value)


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
