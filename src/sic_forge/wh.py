"""Weyl-Heisenberg clock, shift, and displacement operators on C^d."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "HERMITIAN_TOL",
    "PROBABILITY_FLOOR",
    "PROBABILITY_SUM_TOL",
    "PSD_FLOOR",
    "PURITY_TOL",
    "STATE_NORM_TOL",
    "TRACE_TOL",
    "UNIT_NORM_TOL",
    "PhaseConstants",
    "as_state_vector",
    "build_clock",
    "build_shift",
    "canonical_index",
    "check_dim",
    "check_tolerance",
    "displace_state",
    "displacement",
    "phase_constants",
]

# Acceptance thresholds of the input validators here and in operator_space and geometry: fixed, not parameters.
STATE_NORM_TOL = 1e-12  # |sum |psi_j|^2 - 1| of a state vector
HERMITIAN_TOL = 1e-12  # max |A^dagger - A| of an operator or density matrix
PSD_FLOOR = -1e-10  # least eigenvalue of a PSD operator, density matrix or physical reconstruction
UNIT_NORM_TOL = 1e-10  # |tr(A^2) - 1| of an operator, |norm^2 - 1| of a frame vector
TRACE_TOL = 1e-12  # |tr(rho) - 1| of a density matrix
PROBABILITY_FLOOR = -1e-12  # least entry of a probability vector
PROBABILITY_SUM_TOL = 1e-10  # |sum_i p(i) - 1| of a probability vector
PURITY_TOL = 1e-9  # both purity residuals of a pure probability vector
_TABLE_DIM_BOUND = 3037000500  # the least d with d*d >= 2**63: below it, a flat index r1*d + r2 fits in int64


def _check_integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """Validate an integer in [low, high) (a Python or numpy integer, not a bool) and return it as int."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integer and (low is None or low <= value) and (high is None or value < high):
        return int(value)
    rule = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high})"
    raise ValueError(f"{name} must be an integer{rule}, got {value!r}")


def check_dim(d: int) -> int:
    """Validate a Hilbert-space dimension (a Python or numpy integer >= 2) and return it as int."""
    return _check_integer(d, "dimension", 2)


def _real(x) -> float:
    """x as a float if it is a Python or numpy real (not a bool, text, complex or array) in float range, else NaN."""
    if isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool):
        with contextlib.suppress(OverflowError):  # an int past the float range
            return float(x)
    return math.nan


def check_tolerance(tol: float, name: str) -> float:
    """Validate a certification tolerance (a positive finite Python or numpy real, not a bool); return it as float."""
    if 0.0 < (value := _real(tol)) < math.inf:
        return value
    raise ValueError(f"{name} must be positive and finite (a real number), got {tol!r}")


def _settle(record, **fields) -> None:
    """Set a frozen record's fields from its __post_init__, making every array among them read-only.

    Pass only arrays the record owns (copies, or arrays it built) or another record's read-only arrays: a caller's
    writable array would be frozen too.
    """
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(record, name, value)


def canonical_index(d: int, r) -> tuple[int, int]:
    """Reduce an index pair of integers (negative ones too) to its canonical representative in [0, d) x [0, d)."""
    try:
        r1, r2 = r
    except (TypeError, ValueError):
        raise ValueError(f"index r must be a pair of integers, got {r!r}") from None
    return _check_integer(r1, "index r1") % d, _check_integer(r2, "index r2") % d


def as_state_vector(psi) -> np.ndarray:
    """Coerce ``psi`` to a complex 1-D array and check unit norm.

    The squared norm sum |psi_j|^2 must equal 1 within ``STATE_NORM_TOL``.
    """
    v = np.ascontiguousarray(psi, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"state vector must be 1-D, got shape {v.shape}")
    if v.shape[0] < 2:
        raise ValueError("state vector must have dimension >= 2")
    norm_sq = float(np.vdot(v, v).real)
    # NaN passes every tolerance test; a NaN or infinite component leaves the
    # squared norm non-finite, so the components are scanned only then.
    if not math.isfinite(norm_sq) and not np.isfinite(v).all():
        raise ValueError("state vector has a non-finite component")
    if abs(norm_sq - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state vector is not unit-norm: sum |psi_j|^2 = {norm_sq!r}")
    return v


@dataclass(frozen=True, eq=False)
class PhaseConstants:
    """The group Z_d of one dimension as one record, made from d alone: its unit phases, tables and transforms.

    ``omega = exp(2*pi*i/d)`` generates the clock spectrum and ``tau = -exp(i*pi/d)`` satisfies ``tau**2 == omega``.
    tau has multiplicative order 2d when d is even, so tau exponents must never be reduced mod d; :meth:`tau_power`
    takes the raw integer exponent.  The read-only (d, d) tables are ``add[a, m] = (a + m) % d``, ``sub[a, m] =
    (m - a) % d``, the flat gather index ``lead[a, m] = a*d + sub[a, m]`` and ``dft[a, m] = omega**(a*m)``.
    ``forward(x)`` (``np.fft.fft``) sums x[..., n] conj(dft[n, m]) over x's last axis, and ``inverse(x)``
    (``np.fft.ifft``) undoes it.  ``phase_constants(d)`` returns the cached instance; d is below 3037000500.
    """

    d: int
    omega: complex = field(init=False)
    tau: complex = field(init=False)
    omega_powers: np.ndarray = field(init=False)
    add: np.ndarray = field(init=False)
    sub: np.ndarray = field(init=False)
    lead: np.ndarray = field(init=False)
    dft: np.ndarray = field(init=False)

    def __post_init__(self):
        d = _check_integer(check_dim(self.d), "dimension", 2, _TABLE_DIM_BOUND)
        idx = np.arange(d)
        powers = np.exp(2j * np.pi * idx / d)
        add = (idx[:, None] + idx[None, :]) % d
        sub = (idx[None, :] - idx[:, None]) % d
        dft = powers[np.outer(idx, idx) % d]
        _settle(self, d=d, omega=complex(powers[1]), tau=-complex(np.exp(1j * np.pi / d)), omega_powers=powers,
                add=add, sub=sub, lead=idx[:, None] * d + sub, dft=dft)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.fft.fft(x, axis=-1)

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return np.fft.ifft(x, axis=-1)

    def tau_power(self, n):
        """tau**n = exp(i*pi*(d+1)*n/d) from the plain integer (or integer array) n."""
        return np.exp(1j * (np.pi * ((self.d + 1) * n) / self.d))


@lru_cache(maxsize=None)
def phase_constants(d: int) -> PhaseConstants:
    """Return the cached ``PhaseConstants(d)`` for dimension ``d``."""
    return PhaseConstants(d)


def build_clock(d: int) -> np.ndarray:
    """Diagonal clock operator Z: entry (j, j) equals omega**j."""
    return displacement(d, (0, 1))


def build_shift(d: int) -> np.ndarray:
    """Cyclic shift operator X: column j has a single 1 in row (j + 1) mod d."""
    return displacement(d, (1, 0))


def displacement(d: int, r) -> np.ndarray:
    """Displacement operator tau**(r1*r2) X**r1 Z**r2 as a (d, d) matrix.

    ``_displaced`` maps row k of the identity, e_k, to D_r e_k, column k of D_r, so the matrix is that stack
    transposed and one phase rule serves operators and states: column j carries tau**(r1*r2) * omega**(j*r2) in row
    (j + r1) mod d.
    """
    d = phase_constants(check_dim(d)).d  # refuses an untable d before r is read or anything is allocated
    r1, r2 = canonical_index(d, r)
    return _displaced(np.eye(d, dtype=complex), r1, r2).T


def _displaced(psi: np.ndarray, r1, r2) -> np.ndarray:
    """D_r on the last axis of psi[..., d]: components tau**(r1*r2) * omega**((j - r1)*r2) * psi[..., (j - r1) % d].

    Canonical indices r1, r2 may be integer arrays that broadcast against j.  This is the one formula for D_r: the
    clock, the shift, ``displacement``, ``displace_state`` and the orbit vectors of a ``SicSet`` all come from it.
    """
    d = psi.shape[-1]
    pc = phase_constants(d)
    src = (np.arange(d) - r1) % d
    return pc.tau_power(r1 * r2) * pc.omega_powers[(src * r2) % d] * psi[..., src]


def displace_state(psi, r) -> np.ndarray:
    """Apply a displacement operator to a state in O(d) component operations."""
    psi = as_state_vector(psi)
    return _displaced(psi, *canonical_index(psi.shape[0], r))
