"""Weyl-Heisenberg clock, shift, and displacement operators on C^d."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DisplacementTable",
    "PhaseConstants",
    "as_state_vector",
    "build_clock",
    "build_shift",
    "canonical_index",
    "check_dim",
    "displace_state",
    "displacement",
    "displacement_table",
    "phase_constants",
]


def check_dim(d: int) -> int:
    """Validate a Hilbert-space dimension (an integer >= 2) and return it."""
    d = int(d)
    if d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")
    return d


def canonical_index(d: int, r) -> tuple[int, int]:
    """Reduce an index pair to its canonical representative in [0, d) x [0, d)."""
    r1, r2 = r
    return int(r1) % d, int(r2) % d


def as_state_vector(psi, norm_tol: float = 1e-12) -> np.ndarray:
    """Coerce ``psi`` to a complex 1-D array and check unit norm.

    The squared norm sum |psi_j|^2 must equal 1 within ``norm_tol``.
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
    if abs(norm_sq - 1.0) > norm_tol:
        raise ValueError(f"state vector is not unit-norm: sum |psi_j|^2 = {norm_sq!r}")
    return v


@dataclass(frozen=True)
class PhaseConstants:
    """Unit phases of one dimension, computed once and cached.

    ``omega = exp(2*pi*i/d)`` generates the clock spectrum and
    ``tau = -exp(i*pi/d)`` satisfies ``tau**2 == omega``.  tau has
    multiplicative order 2d when d is even, so tau exponents must never be
    reduced mod d; :meth:`tau_power` takes the raw integer exponent.
    """

    d: int
    omega: complex
    tau: complex
    omega_powers: np.ndarray

    def omega_power(self, n: int) -> complex:
        """omega**n for any integer n (reduction mod d is exact here)."""
        return complex(self.omega_powers[n % self.d])

    def tau_power(self, n):
        """tau**n = exp(i*pi*(d+1)*n/d) from the plain integer (or integer array) n."""
        return np.exp(1j * (np.pi * ((self.d + 1) * n) / self.d))


@lru_cache(maxsize=None)
def phase_constants(d: int) -> PhaseConstants:
    """Return the cached phase constants for dimension ``d``."""
    d = check_dim(d)
    powers = np.exp(2j * np.pi * np.arange(d) / d)
    powers.setflags(write=False)
    return PhaseConstants(
        d=d,
        omega=complex(powers[1]),
        tau=-complex(np.exp(1j * np.pi / d)),
        omega_powers=powers,
    )


def build_clock(d: int) -> np.ndarray:
    """Diagonal clock operator: entry (j, j) equals omega**j."""
    d = check_dim(d)
    return np.diag(phase_constants(d).omega_powers)


def build_shift(d: int) -> np.ndarray:
    """Cyclic shift operator: column j has a single 1 in row (j + 1) mod d."""
    d = check_dim(d)
    out = np.zeros((d, d), dtype=complex)
    j = np.arange(d)
    out[(j + 1) % d, j] = 1.0
    return out


def displacement(d: int, r) -> np.ndarray:
    """Displacement operator tau**(r1*r2) X**r1 Z**r2.

    Assembled entrywise: column j carries tau**(r1*r2) * omega**(j*r2) in row
    (j + r1) mod d, which equals the product of operator powers without the
    repeated matrix multiplications.
    """
    d = check_dim(d)
    pc = phase_constants(d)
    r1, r2 = canonical_index(d, r)
    j = np.arange(d)
    out = np.zeros((d, d), dtype=complex)
    out[(j + r1) % d, j] = pc.tau_power(r1 * r2) * pc.omega_powers[(j * r2) % d]
    return out


@dataclass(frozen=True)
class DisplacementTable:
    """All d^2 displacement operators of one dimension, keyed by (r1, r2)."""

    d: int
    entries: dict

    def __getitem__(self, r) -> np.ndarray:
        return self.entries[canonical_index(self.d, r)]


def displacement_table(d: int) -> DisplacementTable:
    """Build the full table of d^2 displacement operators."""
    d = check_dim(d)
    entries = {}
    for r1 in range(d):
        for r2 in range(d):
            m = displacement(d, (r1, r2))
            m.setflags(write=False)
            entries[(r1, r2)] = m
    return DisplacementTable(d=d, entries=entries)


def _displaced(psi: np.ndarray, r1, r2) -> np.ndarray:
    """Components tau**(r1*r2) * omega**((j - r1)*r2) * psi[(j - r1) % d].

    Canonical indices r1, r2 may be integer arrays that broadcast against j.
    """
    d = psi.shape[0]
    pc = phase_constants(d)
    src = (np.arange(d) - r1) % d
    return pc.tau_power(r1 * r2) * pc.omega_powers[(src * r2) % d] * psi[src]


def displace_state(psi, r) -> np.ndarray:
    """Apply a displacement operator to a state in O(d) component operations."""
    psi = as_state_vector(psi)
    return _displaced(psi, *canonical_index(psi.shape[0], r))
