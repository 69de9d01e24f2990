"""Quantum states in SIC-probability coordinates.

With a certified SIC set in hand, the measurement E_i = Pi_i / d maps states
linearly and invertibly to probability vectors:

    p(i) = tr(rho Pi_i) / d          rho = sum_i ((d+1) p(i) - 1/d) Pi_i

The inverse accepts any probability vector but does not guarantee positivity;
physicality is diagnosed through the smallest eigenvalue rather than enforced.
Pure states are exactly the probability vectors meeting two trace conditions:
a quadratic one, sum_i p(i)^2 = 2/(d(d+1)), and a cubic one contracted against
the triple-overlap tensor c_ijk = Re tr(Pi_i Pi_j Pi_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .verify import SicSet
from .wh import HERMITIAN_TOL, PROBABILITY_FLOOR, PROBABILITY_SUM_TOL, PSD_FLOOR, PURITY_TOL, TRACE_TOL, check_dim

__all__ = [
    "STRUCTURE_TENSOR_MAX_DIM",
    "ReconstructedDensity",
    "StructureTensor",
    "check_density_matrix",
    "check_probability_vector",
    "is_pure_probability_vector",
    "purity_cubic_residual",
    "purity_cubic_target",
    "purity_quadratic_residual",
    "purity_quadratic_target",
    "reconstruct_density",
    "sic_probabilities",
    "structure_coefficients",
]

STRUCTURE_TENSOR_MAX_DIM = 12


def check_density_matrix(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD, within ``HERMITIAN_TOL``, ``TRACE_TOL``, ``PSD_FLOOR``."""
    arr = np.asarray(rho, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {arr.shape}")
    check_dim(arr.shape[0])
    if not np.isfinite(arr).all():
        raise ValueError("density matrix rho has a non-finite entry")
    herm_dev = float(np.max(np.abs(arr - arr.conj().T)))
    if herm_dev > HERMITIAN_TOL:
        raise ValueError(f"density matrix is not Hermitian: deviation {herm_dev:.3e}")
    trace_dev = abs(complex(np.trace(arr)) - 1.0)
    if trace_dev > TRACE_TOL:
        raise ValueError(f"density matrix trace differs from 1 by {trace_dev:.3e}")
    low = float(np.linalg.eigvalsh(arr)[0])
    if low < PSD_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {low:.3e} below the PSD floor {PSD_FLOOR:.1e}")
    return arr


def check_probability_vector(p, d: Optional[int] = None) -> np.ndarray:
    """Validate SIC-outcome probabilities: length d^2, entries >= ``PROBABILITY_FLOOR``, summing to 1."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"probability vector must be 1-D, got shape {arr.shape}")
    if d is None:
        d = math.isqrt(arr.shape[0])
        if d < 2 or d * d != arr.shape[0]:
            raise ValueError(f"probability vector length {arr.shape[0]} is not d^2 for any d >= 2")
    elif arr.shape[0] != d * d:
        raise ValueError(f"probability vector has length {arr.shape[0]}, expected d^2 = {d * d}")
    if not np.isfinite(arr).all():
        raise ValueError("probability vector p has a non-finite entry")
    low = float(arr.min())
    if low < PROBABILITY_FLOOR:
        raise ValueError(f"probability vector has entry {low:.3e} below the floor {PROBABILITY_FLOOR:.1e}")
    total_dev = abs(float(arr.sum()) - 1.0)
    if total_dev > PROBABILITY_SUM_TOL:
        raise ValueError(f"probabilities sum differs from 1 by {total_dev:.3e}")
    return arr


def _require_certified(sic: SicSet) -> None:
    if not sic.certified:
        raise ValueError(
            f"SIC set is not certified (gram={sic.gram_residual:.3e}, "
            f"quartic={sic.quartic_residual:.3e}, tol={sic.tol:.1e})"
        )


def sic_probabilities(rho, sic: SicSet) -> np.ndarray:
    """Outcome probabilities p(i) = tr(rho Pi_i) / d of the SIC measurement."""
    _require_certified(sic)
    rho = check_density_matrix(rho)
    if rho.shape[0] != sic.d:
        raise ValueError(f"dimension mismatch: state has d={rho.shape[0]}, SIC set has d={sic.d}")
    return (sic.projectors.reshape(sic.d**2, -1) @ rho.T.reshape(-1)).real / sic.d


@dataclass(frozen=True)
class ReconstructedDensity:
    """Operator rebuilt from probabilities; physicality is diagnosed, not enforced."""

    matrix: np.ndarray
    min_eigenvalue: float
    physical: bool


def reconstruct_density(p, sic: SicSet) -> ReconstructedDensity:
    """Invert the SIC measurement map: rho = sum_i ((d+1) p(i) - 1/d) Pi_i.

    Every probability vector yields a Hermitian unit-trace operator; whether
    it is an actual state is reported through the smallest eigenvalue (physical when >= ``PSD_FLOOR``).
    """
    _require_certified(sic)
    d = sic.d
    p = check_probability_vector(p, d)
    coeff = (d + 1) * p - 1.0 / d
    matrix = np.tensordot(coeff, sic.projectors, axes=1)
    matrix = 0.5 * (matrix + matrix.conj().T)  # scrub roundoff asymmetry
    matrix.setflags(write=False)
    min_eig = float(np.linalg.eigvalsh(matrix)[0])
    return ReconstructedDensity(matrix=matrix, min_eigenvalue=min_eig, physical=bool(min_eig >= PSD_FLOOR))


def purity_quadratic_target(d: int) -> float:
    """2/(d(d+1)): the squared-probability sum attained exactly by pure states."""
    return 2.0 / (d * (d + 1))


def purity_quadratic_residual(p) -> float:
    """|sum_i p(i)^2 - 2/(d(d+1))|."""
    p = check_probability_vector(p)
    d = math.isqrt(p.shape[0])
    return abs(float(np.sum(p * p)) - purity_quadratic_target(d))


@dataclass(frozen=True)
class StructureTensor:
    """Triple-overlap coefficients c[i, j, k] = Re tr(Pi_i Pi_j Pi_k)."""

    d: int
    c: np.ndarray


def structure_coefficients(sic: SicSet) -> StructureTensor:
    """Dense tensor of triple projector overlaps.

    The tensor has d^6 entries, so dimensions above
    ``STRUCTURE_TENSOR_MAX_DIM`` are refused.
    Each entry reduces to a product of pairwise vector overlaps,
    c_ijk = Re(<i|j><j|k><k|i>), which avoids d^6 explicit matrix products.
    """
    _require_certified(sic)
    d = sic.d
    if d > STRUCTURE_TENSOR_MAX_DIM:
        raise ValueError(
            f"structure tensor has d^6 = {d**6} entries at d={d}; dimensions above {STRUCTURE_TENSOR_MAX_DIM} are refused"
        )
    s = sic.vectors.conj() @ sic.vectors.T
    c = (s[:, :, None] * s[None, :, :] * s.T[:, None, :]).real  # s_ij s_jk s_ki
    c.setflags(write=False)
    return StructureTensor(d=d, c=c)


def purity_cubic_target(d: int) -> float:
    """(d+7)/(d+1)^3: the triple-overlap contraction attained by pure states."""
    return (d + 7.0) / (d + 1.0) ** 3


def purity_cubic_residual(p, tensor: StructureTensor) -> float:
    """|sum_{ijk} c_ijk p(i) p(j) p(k) - (d+7)/(d+1)^3|."""
    p = check_probability_vector(p, tensor.d)
    contracted = np.tensordot(tensor.c, p, axes=([2], [0]))
    value = float(p @ contracted @ p)
    return abs(value - purity_cubic_target(tensor.d))


def is_pure_probability_vector(p, tensor: StructureTensor) -> bool:
    """True when both purity residuals are within ``PURITY_TOL``."""
    p = check_probability_vector(p, tensor.d)
    return purity_quadratic_residual(p) <= PURITY_TOL and purity_cubic_residual(p, tensor) <= PURITY_TOL
