"""Hilbert-Schmidt geometry of operator sets.

The central quantity is the order-t orthonormality defect of a family of
positive semi-definite, unit-HS-norm operators: the sum of tr(A_i A_j)**t over
ordered pairs i != j.  For families of exactly d^2 operators the defect is
bounded below by d^2 (d-1) / (d+1)**(t-1), and the bound is attained exactly
by SIC sets (rank-1 projectors with constant pairwise overlap 1/(d+1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .wh import HERMITIAN_TOL, PSD_FLOOR, UNIT_NORM_TOL, check_dim, check_tolerance

__all__ = [
    "KtReport",
    "OperatorSet",
    "QuasiOnbReport",
    "frame_potential",
    "hs_inner",
    "kt_lower_bound",
    "kt_measure",
    "operator_set",
    "projectors_from_vectors",
    "quasi_onb_certify",
]


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(A^dagger B)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"operands must be square matrices of equal shape, got {a.shape} and {b.shape}")
    return complex(np.vdot(a, b))


def _pair_traces(ops: np.ndarray) -> np.ndarray:
    """tr(A_i A_j) = Re<A_i, A_j> of Hermitian operators: one real Gram matrix (a syrk) of their float views."""
    x = ops.reshape(ops.shape[0], -1).view(float)
    return x @ x.T


@dataclass(frozen=True)
class OperatorSet:
    """A validated family of PSD operators with unit Hilbert-Schmidt norm.

    ``pair_traces[i, j]`` is Re<A_i, A_j> = tr(A_i A_j) within d * HERMITIAN_TOL,
    computed once at validation; its diagonal holds the squared norms.
    """

    d: int
    ops: np.ndarray
    pair_traces: np.ndarray

    @property
    def size(self) -> int:
        return self.ops.shape[0]


def operator_set(ops) -> OperatorSet:
    """Validate and package operators: Hermitian, PSD within a floor, tr(A^2) = 1.

    The thresholds are ``HERMITIAN_TOL``, ``PSD_FLOOR`` and ``UNIT_NORM_TOL``; the
    eigenvalue floor accepts numerically rounded projectors coming out of
    floating-point searches.  One batched Cholesky factorization clears them all;
    only when it fails do eigenvalues decide and name the first operator below it.
    """
    arr = np.array(ops, dtype=complex, order="C")
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected an array of square matrices, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("operator set is empty")
    d = check_dim(arr.shape[1])
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"operator {bad[0]} has a non-finite entry")

    adj = np.conjugate(arr.transpose(0, 2, 1), order="C")
    adj -= arr
    herm_dev = float(np.max(np.abs(adj)))
    if herm_dev > HERMITIAN_TOL:
        raise ValueError(f"operator set is not Hermitian: max deviation {herm_dev:.3e}")
    pair_traces = _pair_traces(arr)
    # The margin, 2 d^2 eps times (largest norm + |floor|), covers the roundoff of Cholesky and eigvalsh,
    # so a factorization that succeeds never accepts an operator that eigvalsh would put below the floor.
    margin = 2 * d * d * np.finfo(float).eps * (math.sqrt(np.max(np.diagonal(pair_traces))) + abs(PSD_FLOOR))
    try:
        np.linalg.cholesky(np.subtract(arr, (PSD_FLOOR + margin) * np.eye(d), out=adj))
    except np.linalg.LinAlgError:
        lows = np.linalg.eigvalsh(arr)[:, 0]
        bad = np.flatnonzero(lows < PSD_FLOOR)
        if bad.size:
            i = bad[0]
            raise ValueError(f"operator {i} has eigenvalue {lows[i]:.3e} below the PSD floor {PSD_FLOOR:.1e}")
    norm_dev = float(np.max(np.abs(np.diagonal(pair_traces) - 1.0)))
    if norm_dev > UNIT_NORM_TOL:
        raise ValueError(f"operators are not unit HS-norm: max |tr(A^2) - 1| = {norm_dev:.3e}")

    for table in (arr, pair_traces):
        table.setflags(write=False)
    return OperatorSet(d=d, ops=arr, pair_traces=pair_traces)


def projectors_from_vectors(vectors) -> OperatorSet:
    """Rank-1 projectors |v><v| of a family of unit vectors, as an OperatorSet."""
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-D array of row vectors, got shape {v.shape}")
    return operator_set(v[:, :, None] * v.conj()[:, None, :])


@dataclass(frozen=True)
class KtReport:
    """Value of the order-t orthonormality defect next to its PSD lower bound.

    The bound applies only to families of exactly d^2 operators; for any other
    size ``lower_bound`` and ``gap`` are None.
    """

    t: float
    value: float
    lower_bound: Optional[float]
    gap: Optional[float]


def _check_order(t) -> float:
    """Validate a defect order t (finite and >= 1) and return it as float."""
    t = float(t)
    if not 1.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 1, got {t}")
    return t


def kt_lower_bound(d: int, t: float) -> float:
    """Least possible order-t defect of d^2 PSD unit-norm operators: d^2(d-1)/(d+1)^(t-1)."""
    d = check_dim(d)
    t = _check_order(t)
    return d * d * (d - 1) / (d + 1) ** (t - 1)


def kt_measure(opset: OperatorSet, t: float) -> KtReport:
    """Sum of tr(A_i A_j)**t over ordered pairs i != j.

    Overlaps are clamped at zero before exponentiation so that fractional t
    stays well defined under roundoff (exact overlaps of PSD operators are
    nonnegative).
    """
    t = _check_order(t)
    overlaps = np.clip(opset.pair_traces, 0.0, None)
    np.fill_diagonal(overlaps, 0.0)
    value = float(np.sum(overlaps**t))
    if opset.size == opset.d**2:
        bound = kt_lower_bound(opset.d, t)
        return KtReport(t=t, value=value, lower_bound=bound, gap=value - bound)
    return KtReport(t=t, value=value, lower_bound=None, gap=None)


def frame_potential(vectors) -> float:
    """Fourth-power overlap sum over all ordered unit vector pairs (within ``UNIT_NORM_TOL``), diagonal included."""
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[0] == 0:
        raise ValueError(f"expected a nonempty 2-D array of row vectors, got shape {v.shape}")
    bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
    if bad.size:
        raise ValueError(f"vectors has a non-finite entry in row {bad[0]}")
    norms = np.sum(np.abs(v) ** 2, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > UNIT_NORM_TOL:
        raise ValueError(f"vectors are not unit-norm: max |norm^2 - 1| = {worst:.3e}")
    gram = v @ v.conj().T
    return float(np.sum((gram.real**2 + gram.imag**2) ** 2))


@dataclass(frozen=True)
class QuasiOnbReport:
    """Residuals of the rank-1, equal-overlap, and completeness conditions."""

    d: int
    tol: float
    projector_deviation: float
    trace_deviation: float
    overlap_deviation: float
    completeness_deviation: float
    passed: bool


def quasi_onb_certify(opset: OperatorSet, tol: float) -> QuasiOnbReport:
    """Certify that d^2 operators are rank-1 projectors with constant overlap 1/(d+1).

    Reports the worst deviation of each condition; a passing family also
    resolves the identity, sum_i A_i = d*I, which is checked directly rather
    than inferred.
    """
    tol = check_tolerance(tol, "tol")
    d = opset.d
    if opset.size != d * d:
        raise ValueError(f"certification needs exactly d^2 = {d * d} operators, got {opset.size}")
    ops = opset.ops

    squares = ops @ ops
    projector_dev = float(np.max(np.abs(np.subtract(squares, ops, out=squares))))
    traces = np.trace(ops, axis1=1, axis2=2)
    trace_dev = float(np.max(np.abs(traces - 1.0)))

    off = opset.pair_traces - 1.0 / (d + 1)
    np.fill_diagonal(off, 0.0)
    overlap_dev = float(np.max(np.abs(off)))

    completeness_dev = float(np.max(np.abs(ops.sum(axis=0) - d * np.eye(d))))

    passed = max(projector_dev, trace_dev, overlap_dev, completeness_dev) <= tol
    return QuasiOnbReport(
        d=d,
        tol=tol,
        projector_deviation=projector_dev,
        trace_deviation=trace_dev,
        overlap_deviation=overlap_dev,
        completeness_deviation=completeness_dev,
        passed=passed,
    )
