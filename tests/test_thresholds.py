"""The fixed validator thresholds of ``wh``: just inside passes and just outside fails, in every validator."""

import math

import numpy as np
import pytest

from sic_forge import (
    as_state_vector,
    check_density_matrix,
    check_probability_vector,
    frame_potential,
    is_pure_probability_vector,
    operator_set,
    purity_cubic_residual,
    purity_quadratic_residual,
    reconstruct_density,
    structure_coefficients,
)
from sic_forge.wh import (
    HERMITIAN_TOL,
    PROBABILITY_FLOOR,
    PROBABILITY_SUM_TOL,
    PSD_FLOOR,
    PURITY_TOL,
    STATE_NORM_TOL,
    TRACE_TOL,
    UNIT_NORM_TOL,
)


def accepted(flag: bool) -> None:
    """Turn a diagnostic verdict into the validators' accept-or-raise form."""
    if not flag:
        raise ValueError("rejected")


def physical(low: float, sic) -> bool:
    """Reconstruct diag(low, 1 - low) from SIC probabilities taken as traces, not through sic_probabilities."""
    rho = np.diag([low, 1.0 - low])
    p = np.trace(sic.projectors @ rho, axis1=1, axis2=2).real / sic.d
    return reconstruct_density(p, sic).physical


def pure(residual: float, sic, grow: str) -> bool:
    """Verdict on rho = U diag(lam) U^dagger in d = 3, with the ``grow`` purity residual at ``residual``, the other 0.

    With p_n = tr rho^n, the SIC frame identity gives sum_i p(i)^2 = (p_2 + 1)/(d(d+1)) and a cubic contraction
    (p_3 + 3 p_2 + 3 + d)/(d+1)^3.  The eigenvalues lam are the roots of x^3 - x^2 + e2 x - e3, so p_1 = 1; growing
    the quadratic residual sets p_2 = 1 + a, p_3 = 1 - 3a, growing the cubic one sets p_2 = 1, p_3 = 1 + 3 e3.
    """
    d = sic.d
    if grow == "quadratic":
        a = residual * d * (d + 1)
        e2, e3 = -a / 2, -3 * a / 2
    else:
        e2, e3 = 0.0, -residual * (d + 1) ** 3 / 3
    lam = np.roots([1.0, -1.0, e2, -e3]).real
    rng = np.random.default_rng(7)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    p = np.trace(sic.projectors @ ((u * lam) @ u.conj().T), axis1=1, axis2=2).real / sic.d
    tensor = structure_coefficients(sic)
    residuals = {"quadratic": purity_quadratic_residual(p), "cubic": purity_cubic_residual(p, tensor)}
    assert residuals.pop(grow) == pytest.approx(residual, rel=1e-6)
    assert max(residuals.values()) <= 1e-14
    return is_pure_probability_vector(p, tensor)


CASES = [
    pytest.param(
        STATE_NORM_TOL,
        lambda x, sics: as_state_vector([math.sqrt(1.0 + x), 0.0]),
        "state vector is not unit-norm",
        id="STATE_NORM_TOL-as_state_vector",
    ),
    pytest.param(
        HERMITIAN_TOL,
        lambda x, sics: operator_set([[[1.0, x], [0.0, 0.0]]]),
        "operator set is not Hermitian",
        id="HERMITIAN_TOL-operator_set",
    ),
    pytest.param(
        HERMITIAN_TOL,
        lambda x, sics: check_density_matrix([[0.5, x], [0.0, 0.5]]),
        "density matrix is not Hermitian",
        id="HERMITIAN_TOL-check_density_matrix",
    ),
    pytest.param(
        PSD_FLOOR,
        lambda x, sics: operator_set([np.diag([x, math.sqrt(1.0 - x * x)])]),
        r"operator 0 has eigenvalue -1\.100e-10 below the PSD floor -1\.0e-10",
        id="PSD_FLOOR-operator_set",
    ),
    pytest.param(
        PSD_FLOOR,
        lambda x, sics: check_density_matrix(np.diag([x, 1.0 - x])),
        r"density matrix has eigenvalue -1\.100e-10 below the PSD floor -1\.0e-10",
        id="PSD_FLOOR-check_density_matrix",
    ),
    pytest.param(
        PSD_FLOOR,
        lambda x, sics: accepted(physical(x, sics[2])),
        "rejected",
        id="PSD_FLOOR-reconstruct_density",
    ),
    pytest.param(
        TRACE_TOL,
        lambda x, sics: check_density_matrix(np.diag([0.5, 0.5 + x])),
        "density matrix trace differs from 1",
        id="TRACE_TOL-check_density_matrix",
    ),
    pytest.param(
        UNIT_NORM_TOL,
        lambda x, sics: operator_set([np.diag([math.sqrt(1.0 + x), 0.0])]),
        "operators are not unit HS-norm",
        id="UNIT_NORM_TOL-operator_set",
    ),
    pytest.param(
        UNIT_NORM_TOL,
        lambda x, sics: frame_potential([[math.sqrt(1.0 + x), 0.0]]),
        "vectors are not unit-norm",
        id="UNIT_NORM_TOL-frame_potential",
    ),
    pytest.param(
        PROBABILITY_FLOOR,
        lambda x, sics: check_probability_vector([x, 0.5, 0.5 - x, 0.0]),
        r"probability vector has entry -1\.100e-12 below the floor -1\.0e-12",
        id="PROBABILITY_FLOOR-check_probability_vector",
    ),
    pytest.param(
        PROBABILITY_SUM_TOL,
        lambda x, sics: check_probability_vector([0.25, 0.25, 0.25, 0.25 + x]),
        "probabilities sum differs from 1",
        id="PROBABILITY_SUM_TOL-check_probability_vector",
    ),
    pytest.param(
        PURITY_TOL,
        lambda x, sics: accepted(pure(x, sics[3], "quadratic")),
        "rejected",
        id="PURITY_TOL-is_pure_probability_vector-quadratic",
    ),
    pytest.param(
        PURITY_TOL,
        lambda x, sics: accepted(pure(x, sics[3], "cubic")),
        "rejected",
        id="PURITY_TOL-is_pure_probability_vector-cubic",
    ),
]


@pytest.mark.parametrize("bound, check, message", CASES)
def test_threshold_accepts_inside_and_rejects_outside(bound, check, message, sic_d2, sic_d3):
    sics = {2: sic_d2, 3: sic_d3}
    # 0.9 and 1.1 times the bound sit on either side of it for floors (negative) and tolerances alike
    check(0.9 * bound, sics)
    with pytest.raises(ValueError, match=message):
        check(1.1 * bound, sics)


def test_thresholds_keep_their_documented_values():
    # the README's "Numerical conventions" lists these numbers
    assert (STATE_NORM_TOL, HERMITIAN_TOL, PSD_FLOOR, UNIT_NORM_TOL) == (1e-12, 1e-12, -1e-10, 1e-10)
    assert (TRACE_TOL, PROBABILITY_FLOOR, PROBABILITY_SUM_TOL, PURITY_TOL) == (1e-12, -1e-12, 1e-10, 1e-9)
