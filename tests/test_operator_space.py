"""Orthonormality defect, its lower bound, frame potential, and certification."""

import collections
import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sic_forge import (
    KtReport,
    OperatorSet,
    QuasiOnbReport,
    SearchConfig,
    build_sic_set,
    frame_potential,
    kt_lower_bound,
    kt_measure,
    operator_set,
    quasi_onb_certify,
    search,
)
from sic_forge import operator_space
from sic_forge.operator_space import _pair_traces
from sic_forge.wh import HERMITIAN_TOL, PSD_FLOOR
from conftest import bench_fiducial, projector_set, random_state


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


@pytest.mark.parametrize(
    "d,t,expected",
    [(2, 1.0, 4.0), (2, 2.0, 4.0 / 3.0), (3, 2.0, 4.5), (2, 3.0, 4.0 / 9.0)],
)
def test_kt_lower_bound_values(d, t, expected):
    assert kt_lower_bound(d, t) == pytest.approx(expected, abs=1e-14)


def test_kt_lower_bound_rejects_small_t():
    with pytest.raises(ValueError):
        kt_lower_bound(3, 0.5)


def test_kt_lower_bound_past_the_float_range_of_its_power():
    # (d+1)**(t-1) = 8**342 = 2**1026 overflows a float; the bound 294 * 2**-1026 does not
    assert kt_lower_bound(7, 343.0) == pytest.approx(math.ldexp(294.0, -1026), rel=1e-12)
    for t in (400.0, 1e308):
        bound = kt_lower_bound(7, t)
        assert math.isfinite(bound) and bound >= 0.0


@pytest.mark.parametrize("t", [1.0, 2.0])
def test_kt_lower_bound_past_the_float_range_is_refused(t):
    # d^2 (d-1) / (d+1)^(t-1) is about 1e600 / 1e200^(t-1): past the float range at t = 1 and 2, about 1e200 at t = 3
    with pytest.raises(ValueError, match=rf"^the K_t lower bound at dimension {10**200} and t = {t!r} is past the"):
        kt_lower_bound(10**200, t)
    assert kt_lower_bound(10**200, 3.0) == pytest.approx(1e200, rel=1e-12)


def test_kt_measure_at_large_t():
    opset = operator_set(build_sic_set(bench_fiducial(7)).projectors)
    report = kt_measure(opset, 400.0)
    assert math.isfinite(report.lower_bound) and math.isfinite(report.gap)
    assert report.value >= 0.0 and report.lower_bound >= 0.0


@pytest.mark.parametrize(
    "t",
    [float("nan"), float("inf"), True, False, np.True_, "2", " 3 ", None, 2 + 0j, np.array([2.0]),
     pytest.param(10**400, id="10**400")],
)
def test_kt_rejects_non_finite_t(t, fiducial_d2):
    # an order is a finite real number: text, None, complex values and arrays are refused, not converted
    with pytest.raises(ValueError, match="t must be finite"):
        kt_lower_bound(3, t)
    with pytest.raises(ValueError, match="t must be finite"):
        kt_measure(operator_set(build_sic_set(fiducial_d2).projectors), t)


def test_kt_on_sic_set_frozen_values(fiducial_d2):
    # 12 ordered pairs, each overlap 1/3: K_1 = 4, K_2 = 4/3
    opset = operator_set(build_sic_set(fiducial_d2).projectors)
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
    opset = operator_set(build_sic_set(fiducial_d2).projectors)
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
        k2 = kt_measure(projector_set(vectors), 2.0).value
        assert abs(phi - (k2 + d * d)) <= 1e-10


def test_quasi_onb_certifies_exact_sic(fiducial_d3):
    opset = operator_set(build_sic_set(fiducial_d3).projectors)
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
    report = quasi_onb_certify(projector_set(vectors), tol=1e-10)
    assert not report.passed
    assert report.overlap_deviation > 0.0


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1e-9, True, "1e-3", None, "abc", 1e-3 + 0j])
def test_quasi_onb_rejects_bad_tol(bad):
    # random projectors fail every condition, yet an infinite tolerance would pass them
    rng = np.random.default_rng(9)
    opset = projector_set(np.stack([random_state(rng, 2) for _ in range(4)]))
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
        opset = operator_set(build_sic_set(psi).projectors)
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


def test_operator_set_takes_only_its_operators(fiducial_d3):
    # zero operators with an identity Gram matrix would read K_2 = 0, below the bound 4.5 that no valid family reaches
    zeros = np.zeros((9, 3, 3))
    with pytest.raises(TypeError):
        OperatorSet(d=3, ops=zeros, pair_traces=np.eye(9))
    ops = np.array(build_sic_set(fiducial_d3).projectors)
    opset = OperatorSet(ops)
    assert ops.flags.writeable and not opset.ops.flags.writeable
    ops[0] = 0.0  # the set holds its own copy
    assert np.trace(opset.ops[0]).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="pair_traces"):
        dataclasses.replace(opset, pair_traces=np.eye(9))
    with pytest.raises(ValueError) as direct:
        operator_set(zeros)
    with pytest.raises(ValueError, match=re.escape(str(direct.value))):
        dataclasses.replace(opset, ops=zeros)


@pytest.mark.parametrize("bound, gap", [(None, None), (4.5, 1.5), (6.0, 0.0)])
def test_kt_report_derives_its_gap(bound, gap):
    report = KtReport(t=2.0, value=6.0, lower_bound=bound)
    assert report.gap == gap and (report.gap is None) == (bound is None)
    with pytest.raises(TypeError):
        KtReport(t=2.0, value=6.0, lower_bound=bound, gap=0.0)


@pytest.mark.parametrize("worst, passed", [(1e-10, True), (1.5e-10, False)])
def test_quasi_onb_report_derives_its_verdict(worst, passed):
    # the worst deviation, in each of the four places, decides; one equal to tol passes
    for place in range(4):
        deviations = [0.0] * 4
        deviations[place] = worst
        assert QuasiOnbReport(3, 1e-10, *deviations).passed is passed
    with pytest.raises(TypeError):
        QuasiOnbReport(3, 1e-10, worst, worst, worst, worst, passed=True)


def test_pair_traces_are_stored_read_only(fiducial_d3):
    ops = build_sic_set(fiducial_d3).projectors
    opset = operator_set(ops)
    expected = np.array([[np.vdot(a, b).real for b in ops] for a in ops])
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
    # lambda_min planted on, just inside and just outside the floor, where a verdict off by roundoff
    # would show against the per-operator eigenvalue rule
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


def test_psd_check_runs_one_batched_eigvalsh_on_the_general_route(monkeypatch, fiducial_d3, fiducial_d8):
    # rank-one stacks never reach the general route; any other family, valid or not, makes one batched call
    valid = [build_sic_set(psi).projectors for psi in (fiducial_d3, fiducial_d8)]
    rng = np.random.default_rng(4)
    full_rank = np.stack([random_psd_unit_norm(rng, 4) for _ in range(16)])
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
    operator_set(full_rank)
    assert calls == [(16, 4, 4)]
    calls.clear()
    with pytest.raises(ValueError, match=r"operator 5 has eigenvalue -7.071e-01 below the PSD floor"):
        operator_set(invalid)
    assert calls == [(64, 8, 8)]


def test_operator_set_accepts_operator_axis_innermost(fiducial_d3):
    # np.array keeps this layout, whose flattened operators are not contiguous float rows
    ops = build_sic_set(fiducial_d3).projectors
    transposed = np.moveaxis(np.ascontiguousarray(np.moveaxis(ops, 0, -1)), -1, 0)
    np.testing.assert_array_equal(operator_set(transposed).pair_traces, operator_set(ops).pair_traces)


def outcome(ops):
    """The pair traces of ``OperatorSet(ops)``, or the text of its refusal."""
    try:
        return operator_set(ops).pair_traces
    except ValueError as err:
        return str(err)


def general_path(ops):
    """``outcome(ops)`` with the rank-one route switched off."""
    with mock.patch.object(operator_space, "_rank_one_pair_traces", return_value=None):
        return outcome(ops)


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.integers(2, 8),
    st.lists(st.tuples(st.sampled_from([0.0, 0.5, 0.9, 1.1, 2.0, 4.0]), st.booleans()), min_size=1, max_size=6),
    st.sampled_from([1.0, 2.0]),
    st.integers(0, 2**32 - 1),
)
def test_rank_one_route_matches_the_general_path(d, members, last_norm, seed):
    # A_i = u_i u_i^dagger + G_i, u_i random unit vectors (the last of squared norm last_norm), G_i random, Hermitian
    # or not, of Frobenius norm scale * HERMITIAN_TOL / 2: both sides of the rank-one route's threshold
    rng = np.random.default_rng(seed)
    u = np.stack([random_state(rng, d) for _ in members])
    u[-1] *= math.sqrt(last_norm)
    ops = u[:, :, None] * u.conj()[:, None, :]
    for a, (scale, hermitian) in zip(ops, members):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = (g + g.conj().T) if hermitian else g
        a += scale * HERMITIAN_TOL / 2 * g / np.linalg.norm(g)
    route = operator_space._rank_one_pair_traces(ops.copy())
    general, direct = general_path(ops), outcome(ops)
    if isinstance(general, str) or isinstance(direct, str):
        assert direct == general
    else:
        np.testing.assert_array_equal(direct, general if route is None else route)
    if route is not None:
        # exact rank-one members read within 1e-13 of the dense oracles; a residual E_i = A_i - v_i v_i^dagger moves
        # a pair trace by at most ||E_i||_F ||v_j||^2 + ||E_j||_F ||v_i||^2 <= last_norm * HERMITIAN_TOL
        atol = 1e-13 + (last_norm * HERMITIAN_TOL if any(scale for scale, _ in members) else 0.0)
        for oracle in (complex_pair_traces(ops), _pair_traces(ops)):
            np.testing.assert_allclose(route, oracle, rtol=0, atol=atol)


def test_rank_one_route_skips_the_general_checks(monkeypatch, fiducial_d3, fiducial_d8):
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(operator_space, "_pair_traces", counting("_pair_traces", _pair_traces))
    for psi in (fiducial_d3, fiducial_d8):
        operator_set(build_sic_set(psi).projectors)
    assert calls == {}
    rank_two = np.array(build_sic_set(fiducial_d3).projectors)
    rank_two[4] = np.diag([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    operator_set(rank_two)
    assert calls == {"eigvalsh": 1, "_pair_traces": 1}


@pytest.mark.parametrize(
    "member, message",
    [
        ("nan pivot", r"operator 2 has a non-finite entry"),
        ("inf off diagonal", r"operator 2 has a non-finite entry"),
        ("zero", r"operators are not unit HS-norm: max \|tr\(A\^2\) - 1\| = 1\.000e\+00"),
        ("negative", r"operator 2 has eigenvalue -1\.000e\+00 below the PSD floor -1\.0e-10"),
        ("u w^dagger", r"operator set is not Hermitian: max deviation"),
    ],
)
def test_rank_one_misfits_raise_the_general_messages(fiducial_d3, member, message):
    ops = np.array(build_sic_set(fiducial_d3).projectors)
    u, w = np.eye(3)[0], np.array([0.6, 0.8j, 0.0])
    ops[2] = {"nan pivot": np.where(np.eye(3), np.nan, ops[2]), "inf off diagonal": np.where(np.eye(3), ops[2], np.inf),
              "zero": 0.0, "negative": -np.outer(u, u), "u w^dagger": np.outer(u, w.conj())}[member]
    with pytest.raises(ValueError, match=message) as err:
        operator_set(ops)
    assert operator_space._rank_one_pair_traces(ops) is None
    assert str(err.value) == general_path(ops)
