"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sic_forge import (
    SearchConfig,
    build_mubs,
    build_sic_set,
    frame_potential,
    gram_residual,
    is_minimum_uncertainty,
    kt_lower_bound,
    kt_measure,
    minimum_uncertainty_target,
    operator_set,
    purity_cubic_residual,
    purity_cubic_target,
    purity_quadratic_residual,
    purity_quadratic_target,
    quartic_defects,
    quartic_residual,
    reconstruct_density,
    search,
    sic_probabilities,
    structure_coefficients,
    unbiasedness_residual,
    uncertainty_profile,
)
from sic_forge.cli import main
from conftest import brute_force_quartic_terms, projector_set, quartic_rhs, random_density, random_state

SEARCH_SEED = 7
SEARCH_RESTARTS = {2: 12, 3: 12, 4: 16, 5: 16, 6: 24, 7: 24}


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def searched():
    """Certified candidates for d = 2..7 with their wall times, found once."""
    results = {}
    for d in range(2, 8):
        started = time.perf_counter()
        candidate = search(SearchConfig(dim=d, restarts=SEARCH_RESTARTS[d], seed=SEARCH_SEED))
        results[d] = (candidate, time.perf_counter() - started)
    return results


def test_criterion_1_bound_reproduction(fiducial_d2, fiducial_d3):
    started = time.perf_counter()
    ok = True
    for d in range(2, 11):
        for t in (1, 2, 3):
            exact = float(Fraction(d * d * (d - 1), (d + 1) ** (t - 1)))
            ok = ok and kt_lower_bound(d, t) == exact
    for d, psi in ((2, fiducial_d2), (3, fiducial_d3)):
        opset = operator_set(build_sic_set(psi).projectors)
        ok = ok and abs(kt_measure(opset, 1.0).value - (d**3 - d**2)) <= 1e-8
        ok = ok and abs(kt_measure(opset, 2.0).value - d * d * (d - 1) / (d + 1)) <= 1e-8
    elapsed = time.perf_counter() - started
    _report(1, "bound reproduction", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_frame_potential_identity(fiducial_d2, fiducial_d3):
    started = time.perf_counter()
    worst_gap = 0.0
    for d in (2, 3, 4):
        rng = np.random.default_rng(2000 + d)
        for _ in range(100):
            vectors = np.stack([random_state(rng, d) for _ in range(d * d)])
            phi = frame_potential(vectors)
            k2 = kt_measure(projector_set(vectors), 2.0).value
            worst_gap = max(worst_gap, abs(phi - (k2 + d * d)))
    ok = worst_gap <= 1e-10
    for d, psi in ((2, fiducial_d2), (3, fiducial_d3)):
        phi = frame_potential(build_sic_set(psi).vectors)
        ok = ok and abs(phi - 2.0 * d**3 / (d + 1)) <= 1e-8
    elapsed = time.perf_counter() - started
    _report(2, "frame-potential identity", ok and elapsed < 5.0, f"worst gap {worst_gap:.2e}, {elapsed:.2f}s")


def test_criterion_3_fiducial_discovery(searched, fiducial_d3):
    ok = True
    details = []
    for d in range(2, 8):
        candidate, elapsed = searched[d]
        ok = ok and candidate.certified and candidate.quartic_residual <= 1e-9 and elapsed < 120.0
        details.append(f"d={d}: {candidate.quartic_residual:.1e} in {elapsed:.2f}s")
    exact = build_sic_set(fiducial_d3, tol=1e-12)
    ok = ok and exact.certified
    _report(3, "fiducial discovery", ok, "; ".join(details))


def test_criterion_4_condition_form_equivalence(searched):
    worst = 0.0
    for d in range(2, 9):
        rng = np.random.default_rng(3000 + d)
        for _ in range(100):
            psi = random_state(rng, d)
            gap = quartic_defects(psi) + quartic_rhs(d) - brute_force_quartic_terms(psi)
            worst = max(worst, float(np.max(np.abs(gap))))
    ok = worst <= 1e-12

    outputs = [candidate for candidate, _ in searched.values()]
    # add deliberately unconverged outputs to exercise the failing side
    for d in (3, 5):
        outputs.append(search(SearchConfig(dim=d, restarts=1, seed=123, max_iters=2, accept_tol=1e-30)))
    agree = all(
        (gram_residual(c.fiducial) <= 1e-8) == (quartic_residual(c.fiducial) <= 1e-8) for c in outputs
    )
    _report(4, "condition-form equivalence", ok and agree, f"worst identity gap {worst:.2e}")


def test_criterion_5_state_geometry_round_trip(searched, fiducial_d2, fiducial_d3):
    ok = True
    worst_trip = 0.0
    for d in (2, 3, 5):
        if d == 2:
            psi = fiducial_d2
        elif d == 3:
            psi = fiducial_d3
        else:
            psi = searched[5][0].fiducial
        sic = build_sic_set(psi)
        tensor = structure_coefficients(sic)
        rng = np.random.default_rng(4000 + d)
        for _ in range(100):
            rho = random_density(rng, d)
            p = sic_probabilities(rho, sic)
            rec = reconstruct_density(p, sic)
            worst_trip = max(worst_trip, float(np.abs(rec.matrix - rho).max()))
        ok = ok and worst_trip <= 1e-10
        for _ in range(50):
            z = random_state(rng, d)
            p = sic_probabilities(np.outer(z, z.conj()), sic)
            ok = ok and purity_quadratic_residual(p) <= 1e-9
            ok = ok and purity_cubic_residual(p, tensor) <= 1e-9
        for _ in range(50):
            p = sic_probabilities(random_density(rng, d), sic)
            violation = max(purity_quadratic_residual(p), purity_cubic_residual(p, tensor))
            ok = ok and violation >= 1e-4
    ok = ok and purity_quadratic_target(2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    ok = ok and purity_cubic_target(2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    _report(5, "state-geometry round trip", ok, f"worst round trip {worst_trip:.2e}")


def test_criterion_6_mub_construction():
    started = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 5, 7, 11):
        worst = max(worst, unbiasedness_residual(build_mubs(d)))
    ok = worst <= 1e-10
    for d in (4, 6, 9):
        try:
            build_mubs(d)
            ok = False
        except ValueError:
            pass
    elapsed = time.perf_counter() - started
    _report(6, "MUB construction", ok and elapsed < 1.0, f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_7_minimum_uncertainty(searched):
    ok = True
    worst_profile = 0.0
    worst_sum = 0.0
    for d in (2, 3, 5, 7):
        candidate, _ = searched[d]
        assert candidate.certified
        mubset = build_mubs(d)
        target = minimum_uncertainty_target(d)
        orbit = build_sic_set(candidate.fiducial).vectors
        for vec in orbit:
            profile = uncertainty_profile(vec, mubset)
            worst_profile = max(worst_profile, float(np.abs(profile.per_basis - target).max()))
            worst_sum = max(worst_sum, abs(float(profile.per_basis.sum()) - 2.0))
            ok = ok and is_minimum_uncertainty(vec, mubset, tol=1e-8)
        rng = np.random.default_rng(5000 + d)
        for _ in range(50):
            profile = uncertainty_profile(random_state(rng, d), mubset)
            worst_sum = max(worst_sum, abs(float(profile.per_basis.sum()) - 2.0))
    ok = ok and worst_profile <= 1e-8 and worst_sum <= 1e-10
    _report(7, "minimum-uncertainty claim", ok, f"worst profile dev {worst_profile:.2e}, worst sum dev {worst_sum:.2e}")


def test_criterion_8_determinism(tmp_path):
    config = SearchConfig(dim=4, restarts=6, seed=99)
    first = search(config)
    second = search(config)
    residuals_agree = (
        abs(first.quartic_residual - second.quartic_residual) <= 1e-12
        and abs(first.gram_residual - second.gram_residual) <= 1e-12
    )

    out = str(tmp_path / "det")
    argv = ["search", "--dim", "3", "--restarts", "4", "--seed", "5", "--out", out]
    assert main(argv) == 0
    fid_path = Path(out, "fiducial_d3_s5.json")
    rep_path = Path(out, "report_d3_s5.json")
    first_bytes = (fid_path.read_bytes(), rep_path.read_bytes())
    assert main(argv) == 0
    second_bytes = (fid_path.read_bytes(), rep_path.read_bytes())
    ok = residuals_agree and first_bytes == second_bytes
    _report(8, "determinism", ok)
