"""Orthonormality defect, its lower bound, frame potential, and certification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sic_forge import (
    SearchConfig,
    build_clock,
    build_shift,
    build_sic_set,
    frame_potential,
    hs_inner,
    kt_lower_bound,
    kt_measure,
    operator_set,
    projectors_from_vectors,
    quasi_onb_certify,
    search,
)
from sic_forge.operator_space import _pair_traces
from sic_forge.wh import HERMITIAN_TOL, PSD_FLOOR
from conftest import random_state


def brute_force_kt(ops: np.ndarray, t: float) -> float:
    """Triple-loop defect sum over ordered pairs, straight off the definition."""
    total = 0.0
    n = ops.shape[0]
    for i in range(n):
        for j in range(n):
            if i != j:
                total += max(np.trace(ops[i] @ ops[j]).real, 0.0) ** t
    return total


def brute_force_frame_potential(vectors: np.ndarray) -> float:
    total = 0.0
    for v in vectors:
        for w in vectors:
            total += abs(np.vdot(v, w)) ** 4
    return total


def eigvalsh_rule(ops: np.ndarray):
    """One eigendecomposition per operator: the first operator below the floor and its eigenvalue, or None."""
    for i, a in enumerate(ops):
        low = np.linalg.eigvalsh(a)[0]
        if low < PSD_FLOOR:
            return i, low
    return None


def complex_pair_traces(ops: np.ndarray) -> np.ndarray:
    """Re tr(A_i A_j) as the complex product of the flattened operators with their flattened transposes."""
    n = ops.shape[0]
    return (ops.reshape(n, -1) @ ops.transpose(0, 2, 1).reshape(n, -1).T).real


def planted_hermitian(rng: np.random.Generator, d: int, low: float) -> np.ndarray:
    """Exactly Hermitian unit-HS-norm operator whose smallest eigenvalue is ``low``."""
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rest = rng.uniform(0.1, 1.0, d - 1)
    rest *= np.sqrt((1.0 - low**2) / np.sum(rest**2))
    a = (u * np.concatenate([[low], rest])) @ u.conj().T
    return (a + a.conj().T) / 2


def random_psd_unit_norm(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = g @ g.conj().T
    return a / np.sqrt(np.trace(a @ a).real)


def test_hs_inner_identity_and_projector():
    for d in (2, 3, 5):
        assert abs(hs_inner(np.eye(d), np.eye(d)) - d) <= 1e-14
    v = np.array([0.6, 0.8j])
    proj = np.outer(v, v.conj())
    assert abs(hs_inner(proj, proj) - 1.0) <= 1e-14


def test_hs_inner_clock_shift_orthogonal():
    assert abs(hs_inner(build_clock(2), build_shift(2))) <= 1e-14


def test_hs_inner_shape_mismatch():
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))


@pytest.mark.parametrize(
    "d,t,expected",
    [(2, 1.0, 4.0), (2, 2.0, 4.0 / 3.0), (3, 2.0, 4.5), (2, 3.0, 4.0 / 9.0)],
)
def test_kt_lower_bound_values(d, t, expected):
    assert kt_lower_bound(d, t) == pytest.approx(expected, abs=1e-14)


def test_kt_lower_bound_rejects_small_t():
    with pytest.raises(ValueError):
        kt_lower_bound(3, 0.5)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_kt_rejects_non_finite_t(t, fiducial_d2):
    with pytest.raises(ValueError, match="t must be finite"):
        kt_lower_bound(3, t)
    with pytest.raises(ValueError, match="t must be finite"):
        kt_measure(projectors_from_vectors(build_sic_set(fiducial_d2).vectors), t)


def test_kt_on_sic_set_frozen_values(fiducial_d2):
    # 12 ordered pairs, each overlap 1/3: K_1 = 4, K_2 = 4/3
    opset = projectors_from_vectors(build_sic_set(fiducial_d2).vectors)
    assert kt_measure(opset, 1.0).value == pytest.approx(4.0, abs=1e-10)
    assert kt_measure(opset, 2.0).value == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_kt_on_repeated_projector():
    proj = np.zeros((2, 2), dtype=complex)
    proj[0, 0] = 1.0
    opset = operator_set(np.stack([proj] * 4))
    report = kt_measure(opset, 1.0)
    assert report.value == pytest.approx(12.0, abs=1e-12)
    assert report.gap == pytest.approx(8.0, abs=1e-12)


def test_kt_matches_brute_force():
    rng = np.random.default_rng(77)
    for d in (2, 3):
        ops = np.stack([random_psd_unit_norm(rng, d) for _ in range(d * d)])
        opset = operator_set(ops)
        for t in (1.0, 1.5, 2.0):
            assert kt_measure(opset, t).value == pytest.approx(brute_force_kt(ops, t), abs=1e-10)


def test_kt_rejects_bad_inputs(fiducial_d2):
    opset = projectors_from_vectors(build_sic_set(fiducial_d2).vectors)
    with pytest.raises(ValueError):
        kt_measure(opset, 0.9)
    with pytest.raises(ValueError):
        operator_set(np.zeros((0, 2, 2)))


def test_kt_bound_not_applicable_off_square():
    rng = np.random.default_rng(5)
    opset = operator_set(np.stack([random_psd_unit_norm(rng, 3) for _ in range(5)]))
    report = kt_measure(opset, 2.0)
    assert report.lower_bound is None and report.gap is None


@pytest.mark.parametrize("d", [2, 3, 4])
def test_kt_bound_property(d):
    # PSD families of size d^2 can never beat the bound, whatever t >= 1.
    rng = np.random.default_rng(100 + d)
    for _ in range(200):
        opset = operator_set(np.stack([random_psd_unit_norm(rng, d) for _ in range(d * d)]))
        for t in (1.0, 1.5, 2.0, 3.0):
            assert kt_measure(opset, t).value >= kt_lower_bound(d, t) - 1e-9


def test_frame_potential_single_vector():
    assert frame_potential(np.array([[1.0, 0.0]])) == pytest.approx(1.0, abs=1e-14)


def test_frame_potential_sic_saturates_bound(fiducial_d2, fiducial_d3):
    for d, psi in ((2, fiducial_d2), (3, fiducial_d3)):
        phi = frame_potential(build_sic_set(psi).vectors)
        assert phi == pytest.approx(2.0 * d**3 / (d + 1), abs=1e-10)


def test_frame_potential_matches_brute_force():
    rng = np.random.default_rng(8)
    vectors = np.stack([random_state(rng, 3) for _ in range(9)])
    assert frame_potential(vectors) == pytest.approx(brute_force_frame_potential(vectors), abs=1e-11)


def test_frame_potential_rejects_non_unit():
    with pytest.raises(ValueError):
        frame_potential(np.array([[1.0, 1.0]]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_frame_potential_identity_with_kt(d):
    # Phi = K_2 + n for the rank-1 projectors of any n = d^2 unit vectors.
    rng = np.random.default_rng(200 + d)
    for _ in range(30):
        vectors = np.stack([random_state(rng, d) for _ in range(d * d)])
        phi = frame_potential(vectors)
        k2 = kt_measure(projectors_from_vectors(vectors), 2.0).value
        assert abs(phi - (k2 + d * d)) <= 1e-10


def test_quasi_onb_certifies_exact_sic(fiducial_d3):
    opset = projectors_from_vectors(build_sic_set(fiducial_d3).vectors)
    report = quasi_onb_certify(opset, tol=1e-10)
    assert report.passed
    # a passing family resolves the identity within 10x the tolerance
    assert report.completeness_deviation <= 10 * report.tol


def test_quasi_onb_fails_repeated_projector():
    d = 3
    proj = np.zeros((d, d), dtype=complex)
    proj[0, 0] = 1.0
    report = quasi_onb_certify(operator_set(np.stack([proj] * (d * d))), tol=1e-10)
    assert not report.passed
    assert report.overlap_deviation == pytest.approx(1.0 - 1.0 / (d + 1), abs=1e-12)


def test_quasi_onb_fails_random_projectors():
    rng = np.random.default_rng(9)
    vectors = np.stack([random_state(rng, 2) for _ in range(4)])
    report = quasi_onb_certify(projectors_from_vectors(vectors), tol=1e-10)
    assert not report.passed
    assert report.overlap_deviation > 0.0


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1e-9])
def test_quasi_onb_rejects_bad_tol(bad):
    # random projectors fail every condition, yet an infinite tolerance would pass them
    rng = np.random.default_rng(9)
    opset = projectors_from_vectors(np.stack([random_state(rng, 2) for _ in range(4)]))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        quasi_onb_certify(opset, tol=bad)


def test_quasi_onb_requires_square_count():
    rng = np.random.default_rng(10)
    opset = operator_set(np.stack([random_psd_unit_norm(rng, 2) for _ in range(3)]))
    with pytest.raises(ValueError):
        quasi_onb_certify(opset, tol=1e-10)


def test_equality_aligns_with_certification(fiducial_d2, fiducial_d3):
    # Certified sets sit on the bound for t in {1, 2}; a t=2 gap at the
    # 1e-10 level conversely passes certification at 1e-4.
    for psi in (fiducial_d2, fiducial_d3):
        opset = projectors_from_vectors(build_sic_set(psi).vectors)
        assert quasi_onb_certify(opset, tol=1e-10).passed
        for t in (1.0, 2.0):
            assert abs(kt_measure(opset, t).gap) <= 1e-8
        assert abs(kt_measure(opset, 2.0).gap) <= 1e-10
        assert quasi_onb_certify(opset, tol=1e-4).passed


def test_operator_set_validation_rejections(fiducial_d2):
    with pytest.raises(ValueError):
        operator_set(np.stack([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]))  # not Hermitian
    with pytest.raises(ValueError):
        operator_set(np.stack([np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2.0)]))  # not PSD
    sic_ops = build_sic_set(fiducial_d2).projectors
    with pytest.raises(ValueError, match=r"operator 1 has eigenvalue"):  # the batched check names the operator
        operator_set(np.stack([sic_ops[0], np.diag([1.0, -1.0]) / np.sqrt(2.0), sic_ops[2]]))
    with pytest.raises(ValueError):
        operator_set(np.stack([np.eye(2, dtype=complex)]))  # tr(A^2) = 2
    for bad in (np.nan, np.inf):
        ops = np.array(build_sic_set(fiducial_d2).projectors)
        ops[1, 0, 1] = bad
        with pytest.raises(ValueError, match=r"operator 1 has a non-finite entry"):
            operator_set(ops)


def test_pair_traces_are_stored_read_only(fiducial_d3):
    ops = build_sic_set(fiducial_d3).projectors
    opset = operator_set(ops)
    expected = np.array([[hs_inner(a, b).real for b in ops] for a in ops])
    np.testing.assert_allclose(opset.pair_traces, expected, atol=1e-14)
    assert not opset.pair_traces.flags.writeable
    kt_measure(opset, 2.0)
    quasi_onb_certify(opset, tol=1e-10)
    np.testing.assert_allclose(np.diagonal(opset.pair_traces), 1.0, atol=1e-14)  # readers leave it intact


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.integers(2, 8),
    st.lists(st.sampled_from([-2e-10, -0.5e-10, 0.0, 1e-3]), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_psd_check_and_pair_traces_match_oracles(d, lows, seed):
    # lambda_min planted on, just inside and just outside the floor, where Cholesky alone would
    # accept operators that the eigenvalue rule rejects
    rng = np.random.default_rng(seed)
    ops = np.stack([planted_hermitian(rng, d, low) for low in lows])
    np.testing.assert_allclose(_pair_traces(ops), complex_pair_traces(ops), rtol=0, atol=1e-13)
    for family in [ops] + [ops[i : i + 1] for i in range(len(ops))]:
        verdict = eigvalsh_rule(family)
        if verdict is None:
            opset = operator_set(family)
            np.testing.assert_allclose(opset.pair_traces, complex_pair_traces(family), rtol=0, atol=1e-13)
        else:
            i, low = verdict
            with pytest.raises(ValueError) as err:
                operator_set(family)
            assert str(err.value) == f"operator {i} has eigenvalue {low:.3e} below the PSD floor {PSD_FLOOR:.1e}"


@pytest.mark.parametrize("d", [2, 5, 8])
def test_pair_traces_of_near_hermitian_operators(d):
    # within HERMITIAN_TOL of Hermitian, the real Gram differs from Re tr(A_i A_j) by at most d * HERMITIAN_TOL
    rng = np.random.default_rng(d)
    ops = np.stack([planted_hermitian(rng, d, 0.0) for _ in range(d * d)])
    ops += 3e-13 * (rng.uniform(-1, 1, ops.shape) + 1j * rng.uniform(-1, 1, ops.shape))
    opset = operator_set(ops)
    assert np.max(np.abs(opset.pair_traces - complex_pair_traces(ops))) <= d * HERMITIAN_TOL


@pytest.fixture(scope="module")
def fiducial_d8():
    cand = search(SearchConfig(dim=8, restarts=2, seed=5))
    assert cand.certified
    return cand.fiducial


def test_psd_check_runs_eigvalsh_only_on_failure(monkeypatch, fiducial_d3, fiducial_d8):
    valid = [build_sic_set(psi).projectors for psi in (fiducial_d3, fiducial_d8)]
    invalid = np.array(valid[1])
    invalid[5] = np.diag([1.0, -1.0, 0, 0, 0, 0, 0, 0]) / np.sqrt(2.0)
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for ops in valid:
        operator_set(ops)
    assert calls == []
    with pytest.raises(ValueError, match=r"operator 5 has eigenvalue -7.071e-01 below the PSD floor"):
        operator_set(invalid)
    assert calls == [(64, 8, 8)]


def test_operator_set_accepts_operator_axis_innermost(fiducial_d3):
    # np.array keeps this layout, whose flattened operators are not contiguous float rows
    ops = build_sic_set(fiducial_d3).projectors
    transposed = np.moveaxis(np.ascontiguousarray(np.moveaxis(ops, 0, -1)), -1, 0)
    np.testing.assert_array_equal(operator_set(transposed).pair_traces, operator_set(ops).pair_traces)
