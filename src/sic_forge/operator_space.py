"""Hilbert-Schmidt geometry of operator sets.

The central quantity is the order-t orthonormality defect of a family of
positive semi-definite, unit-HS-norm operators: the sum of tr(A_i A_j)**t over
ordered pairs i != j.  For families of exactly d^2 operators the defect is
bounded below by d^2 (d-1) / (d+1)**(t-1), and the bound is attained exactly
by SIC sets (rank-1 projectors with constant pairwise overlap 1/(d+1)).

Validation lives in ``OperatorSet(ops)``, which takes only the operators, so
``kt_measure`` and ``quasi_onb_certify`` read only validated pair traces: from one
vector per operator for rank-one families (SIC sets, MUB bases), in O(n^2 d).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .wh import HERMITIAN_TOL, PSD_FLOOR, UNIT_NORM_TOL, _real, _settle, check_dim, check_tolerance

__all__ = [
    "KtReport",
    "OperatorSet",
    "QuasiOnbReport",
    "frame_potential",
    "kt_lower_bound",
    "kt_measure",
    "operator_set",
    "quasi_onb_certify",
]


def _squared_moduli(z: np.ndarray) -> np.ndarray:
    """|z|^2 of a complex array whose last axis is contiguous, as a new real array; squares z in place."""
    x = z.view(float)
    np.square(x, out=x)
    return x[..., ::2] + x[..., 1::2]


def _rank_one_pair_traces(arr: np.ndarray) -> Optional[np.ndarray]:
    """|<v_i, v_j>|^2 if every A_i = v_i v_i^dagger + E_i with ||E_i||_F <= HERMITIAN_TOL / 2, else None.

    v_i is A_i's column k at its largest diagonal entry over sqrt(A_i[k, k]).  A zero, negative or non-finite pivot,
    or any entry that is not finite, makes a residual norm NaN or too large.
    """
    rows = np.arange(arr.shape[0])
    pivots = np.diagonal(arr, axis1=1, axis2=2).real
    k = np.argmax(pivots, axis=1)
    with np.errstate(all="ignore"):
        v = arr[rows, :, k] / np.sqrt(pivots[rows, k])[:, None]
        residual = v[:, :, None] * v.conj()[:, None, :]
        residual -= arr
        x = residual.reshape(len(v), -1).view(float)
        sq_norms = np.einsum("ij,ij->i", x, x)
    return _squared_moduli(v.conj() @ v.T) if np.all(sq_norms <= (HERMITIAN_TOL / 2) ** 2) else None


def _pair_traces(ops: np.ndarray) -> np.ndarray:
    """tr(A_i A_j) = Re<A_i, A_j> of Hermitian operators: one real Gram matrix (a syrk) of their float views."""
    x = ops.reshape(ops.shape[0], -1).view(float)
    return x @ x.T


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """A validated family of PSD operators with unit Hilbert-Schmidt norm, made from the operators alone.

    ``OperatorSet(ops)`` checks them Hermitian, PSD within a floor and tr(A^2) = 1, at the thresholds
    ``HERMITIAN_TOL``, ``PSD_FLOOR`` and ``UNIT_NORM_TOL``; the eigenvalue floor accepts numerically rounded
    projectors coming out of floating-point searches.  Rank one (O(n^2 d)): if every A_i = v_i v_i^dagger + E_i with
    ||E_i||_F <= HERMITIAN_TOL / 2, that bound makes A_i finite, Hermitian (max |A_i - A_i^dagger| <= 2 ||E_i||_F) and
    PSD (least eigenvalue >= -2 ||E_i||_F), and pair_traces[i, j] = |<v_i, v_j>|^2.  Otherwise (O(n^2 d^2 + n d^3)),
    on a route that no workload or CLI command reaches, the finite and Hermitian checks run, pair_traces is the real
    Gram matrix Re<A_i, A_j>, and one batched eigvalsh decides PSD and names the first operator below the floor.
    Verdicts and messages are the same on both routes, save that rank one reads tr(A_i^2) as ||v_i||^4 (within
    2 ||E_i||_F).  ``ops`` is a read-only complex copy of the input; ``pair_traces[i, j]``, tr(A_i A_j) within
    d * HERMITIAN_TOL, is computed once here.  ``d`` and ``pair_traces`` can be neither passed nor replaced.
    """

    d: int = field(init=False)
    ops: np.ndarray
    pair_traces: np.ndarray = field(init=False)

    def __post_init__(self):
        arr = np.array(self.ops, dtype=complex, order="C")
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected an array of square matrices, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("operator set is empty")
        d = check_dim(arr.shape[1])
        pair_traces = _rank_one_pair_traces(arr)
        if pair_traces is None:  # the general path
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=(1, 2)))
            if bad.size:
                raise ValueError(f"operator {bad[0]} has a non-finite entry")

            herm_dev = float(np.max(np.abs(arr - arr.conj().transpose(0, 2, 1))))
            if herm_dev > HERMITIAN_TOL:
                raise ValueError(f"operator set is not Hermitian: max deviation {herm_dev:.3e}")
            pair_traces = _pair_traces(arr)
            lows = np.linalg.eigvalsh(arr)[:, 0]
            bad = np.flatnonzero(lows < PSD_FLOOR)
            if bad.size:
                i = bad[0]
                raise ValueError(f"operator {i} has eigenvalue {lows[i]:.3e} below the PSD floor {PSD_FLOOR:.1e}")
        norm_dev = float(np.max(np.abs(np.diagonal(pair_traces) - 1.0)))
        if norm_dev > UNIT_NORM_TOL:
            raise ValueError(f"operators are not unit HS-norm: max |tr(A^2) - 1| = {norm_dev:.3e}")

        _settle(self, d=d, ops=arr, pair_traces=pair_traces)

    @property
    def size(self) -> int:
        return self.ops.shape[0]


def operator_set(ops) -> OperatorSet:
    """``OperatorSet(ops)``: validate and package operators."""
    return OperatorSet(ops=ops)


@dataclass(frozen=True)
class KtReport:
    """Value of the order-t orthonormality defect next to its PSD lower bound.

    The bound applies only to families of exactly d^2 operators; for any other
    size ``lower_bound`` is None.  ``gap`` is ``value - lower_bound``, derived
    here, and None exactly when the bound is.
    """

    t: float
    value: float
    lower_bound: Optional[float]
    gap: Optional[float] = field(init=False)

    def __post_init__(self):
        _settle(self, gap=None if self.lower_bound is None else self.value - self.lower_bound)


def _check_order(t) -> float:
    """Validate a defect order t (a finite Python or numpy real >= 1, not a bool) and return it as float."""
    if 1.0 <= (value := _real(t)) < math.inf:
        return value
    raise ValueError(f"t must be finite and >= 1 (a real number), got {t!r}")


def kt_lower_bound(d: int, t: float) -> float:
    """Least possible order-t defect of d^2 PSD unit-norm operators: d^2(d-1)/(d+1)^(t-1).

    Where (d+1)^(t-1) overflows a float, the bound is taken through logs, and underflows to 0.0 at the largest t.
    A bound past the float range is refused.
    """
    d = check_dim(d)
    t = _check_order(t)
    try:
        return d * d * (d - 1) / (d + 1) ** (t - 1)
    except OverflowError:
        with contextlib.suppress(OverflowError):
            return math.exp(math.log(d * d * (d - 1)) - (t - 1) * math.log(d + 1))
    raise ValueError(f"the K_t lower bound at dimension {d} and t = {t!r} is past the float range")


def kt_measure(opset: OperatorSet, t: float) -> KtReport:
    """Sum of tr(A_i A_j)**t over ordered pairs i != j.

    Overlaps are clamped at zero before exponentiation so that fractional t
    stays well defined under roundoff (exact overlaps of PSD operators are
    nonnegative).
    """
    t = _check_order(t)
    overlaps = np.maximum(opset.pair_traces, 0.0)
    np.fill_diagonal(overlaps, 0.0)
    if t != 1.0:
        np.power(overlaps, t, out=overlaps)
    bound = kt_lower_bound(opset.d, t) if opset.size == opset.d**2 else None
    return KtReport(t=t, value=float(np.sum(overlaps)), lower_bound=bound)


def frame_potential(vectors) -> float:
    """Fourth-power overlap sum over all ordered unit vector pairs (within ``UNIT_NORM_TOL``), diagonal included."""
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[0] == 0:
        raise ValueError(f"expected a nonempty 2-D array of row vectors, got shape {v.shape}")
    bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
    if bad.size:
        raise ValueError(f"vectors has a non-finite entry in row {bad[0]}")
    check_dim(v.shape[1])
    norms = np.sum(np.abs(v) ** 2, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > UNIT_NORM_TOL:
        raise ValueError(f"vectors are not unit-norm: max |norm^2 - 1| = {worst:.3e}")
    moduli = _squared_moduli(v @ v.conj().T).ravel()
    return float(moduli @ moduli)


@dataclass(frozen=True)
class QuasiOnbReport:
    """Residuals of the rank-1, equal-overlap, and completeness conditions.

    ``passed``, derived here, is True when the worst of the four deviations is within ``tol``.
    """

    d: int
    tol: float
    projector_deviation: float
    trace_deviation: float
    overlap_deviation: float
    completeness_deviation: float
    passed: bool = field(init=False)

    def __post_init__(self):
        deviations = (self.projector_deviation, self.trace_deviation, self.overlap_deviation,
                      self.completeness_deviation)
        _settle(self, passed=max(deviations) <= self.tol)


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
    projector_dev = math.sqrt(np.max(_squared_moduli(np.subtract(squares, ops, out=squares))))
    traces = np.trace(ops, axis1=1, axis2=2)
    trace_dev = float(np.max(np.abs(traces - 1.0)))

    off = opset.pair_traces - 1.0 / (d + 1)
    np.fill_diagonal(off, 0.0)
    overlap_dev = float(np.max(np.abs(off, out=off)))

    completeness_dev = float(np.max(np.abs(ops.sum(axis=0) - d * np.eye(d))))

    return QuasiOnbReport(
        d=d,
        tol=tol,
        projector_deviation=projector_dev,
        trace_deviation=trace_dev,
        overlap_deviation=overlap_dev,
        completeness_deviation=completeness_dev,
    )
