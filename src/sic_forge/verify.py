"""Fiducial certification and SIC-set construction.

A unit vector is a fiducial exactly when every nonzero displacement overlap
<psi|D_r|psi> has squared modulus 1/(d+1).  Fourier transforming the overlap
power spectrum turns that family of conditions into quartic component
equations with no phase factors left in them:

    sum_j psi_j conj(psi_{j+k}) conj(psi_{j+l}) psi_{j+k+l}
        = (delta_{k0} + delta_{l0}) / (d+1)      for all k, l in Z_d.

Both forms, and the search residual, come from one overlap kernel: a single
FFT over the d cyclic products conj(psi_{j+r1}) psi_j.  Dense-matrix
evaluation is kept to the test-suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .wh import _displaced, as_state_vector, check_tolerance, phase_constants

__all__ = [
    "FourierIdentityCheck",
    "GramOverlaps",
    "SicSet",
    "build_sic_set",
    "fourier_identity_check",
    "gram_overlaps",
    "gram_residual",
    "quartic_defects",
    "quartic_residual",
    "quartic_target",
]


@lru_cache(maxsize=None)
def _cyclic_add(d: int) -> np.ndarray:
    """Read-only index table add[a, m] = (a + m) % d."""
    idx = np.arange(d)
    add = (idx[:, None] + idx[None, :]) % d
    add.setflags(write=False)
    return add


def _overlaps(psi: np.ndarray) -> np.ndarray:
    """B[r1, r2] = sum_j omega**(j*r2) conj(psi_{j+r1}) psi_j: one inverse FFT over j.

    B is the overlap <psi|D_(r1,r2)|psi> without its tau**(r1*r2) phase, which
    drops out of every modulus.
    """
    d = psi.shape[0]
    return d * np.fft.ifft(psi.conj()[_cyclic_add(d)] * psi, axis=1)


def _overlap_grid(psi: np.ndarray) -> np.ndarray:
    """All d^2 overlaps <psi|D_(r1,r2)|psi>, indexed [r1, r2]: tau**(r1*r2) * B."""
    idx = np.arange(psi.shape[0])
    return phase_constants(psi.shape[0]).tau_power(np.outer(idx, idx)) * _overlaps(psi)


@dataclass(frozen=True)
class GramOverlaps:
    """Displacement overlaps of a state and their phase angles, indexed [r1, r2].

    ``phases[r]`` is the argument of the overlap at r != (0, 0); the origin
    entry is fixed to 0.0.
    """

    d: int
    values: np.ndarray
    phases: np.ndarray


def gram_overlaps(psi) -> GramOverlaps:
    """Compute all d^2 displacement overlaps via the componentwise formula."""
    psi = as_state_vector(psi)
    values = _overlap_grid(psi)
    phases = np.angle(values)
    phases[0, 0] = 0.0
    values.setflags(write=False)
    phases.setflags(write=False)
    return GramOverlaps(d=psi.shape[0], values=values, phases=phases)


def gram_residual(psi) -> float:
    """Largest deviation of |<psi|D_r|psi>|^2 from 1/(d+1) over r != 0."""
    psi = as_state_vector(psi)
    d = psi.shape[0]
    dev = np.abs(np.abs(_overlaps(psi)) ** 2 - 1.0 / (d + 1))
    dev[0, 0] = 0.0
    return float(dev.max())


def quartic_target(d: int) -> np.ndarray:
    """Right-hand side (delta_{k0} + delta_{l0}) / (d+1) as a (k, l) matrix."""
    target = np.zeros((d, d))
    target[0, :] += 1.0 / (d + 1)
    target[:, 0] += 1.0 / (d + 1)
    return target


def _quartic_terms(psi: np.ndarray) -> np.ndarray:
    """T[k, l] = sum_j psi_j conj(psi_{j+k}) conj(psi_{j+l}) psi_{j+k+l}, indices mod d.

    By the Fourier identity T[k, r1] is the inverse DFT over r2 of |B[r1, r2]|^2.
    """
    return np.fft.ifft(np.abs(_overlaps(psi)) ** 2, axis=1).T


def quartic_defects(psi) -> np.ndarray:
    """Complex defect matrix of the quartic fiducial equations, entry per (k, l)."""
    psi = as_state_vector(psi)
    return _quartic_terms(psi) - quartic_target(psi.shape[0])


def quartic_residual(psi) -> float:
    """Largest modulus among the quartic equation defects."""
    return float(np.max(np.abs(quartic_defects(psi))))


@dataclass(frozen=True)
class FourierIdentityCheck:
    """Both sides of the overlap power-spectrum identity at one index pair."""

    lhs: complex
    rhs: complex

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def fourier_identity_check(psi, k: int, r1: int) -> FourierIdentityCheck:
    """Evaluate both sides of the power-spectrum identity at one (k, r1).

    lhs = (1/d) sum_{r2} omega**(k*r2) |<psi|D_(r1,r2)|psi>|^2 and rhs is the
    matching quartic component sum.  The two agree for every unit vector,
    fiducial or not; the identity is what makes the quartic equations
    equivalent to the overlap conditions.
    """
    psi = as_state_vector(psi)
    d = psi.shape[0]
    k, r1 = int(k) % d, int(r1) % d
    pc = phase_constants(d)
    idx = np.arange(d)
    row = _overlap_grid(psi)[r1, :]
    lhs = complex(np.sum(pc.omega_powers[(k * idx) % d] * np.abs(row) ** 2) / d)
    rhs = complex(
        np.sum(psi[idx] * psi.conj()[(idx + k) % d] * psi.conj()[(idx + r1) % d] * psi[(idx + k + r1) % d])
    )
    return FourierIdentityCheck(lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class SicSet:
    """A fiducial's displacement orbit with certification residuals.

    Vector and projector i correspond to the displacement index
    ``(i // d, i % d)``.  ``certified`` is True when both residuals are within
    ``tol``; an uncertified set is still returned with honest residuals.
    """

    fiducial: np.ndarray
    vectors: np.ndarray
    projectors: np.ndarray
    gram_residual: float
    quartic_residual: float
    tol: float
    certified: bool

    @property
    def d(self) -> int:
        return self.fiducial.shape[0]


def build_sic_set(psi, tol: float = 1e-10) -> SicSet:
    """Displace a candidate through the whole index grid and certify the orbit."""
    psi = as_state_vector(psi)
    tol = check_tolerance(tol, "tol")
    d = psi.shape[0]
    r1, r2 = np.divmod(np.arange(d * d), d)
    vectors = _displaced(psi, r1[:, None], r2[:, None])
    projectors = vectors[:, :, None] * vectors.conj()[:, None, :]
    g = gram_residual(psi)
    q = quartic_residual(psi)
    fiducial = psi.copy()
    for arr in (fiducial, vectors, projectors):
        arr.setflags(write=False)
    return SicSet(
        fiducial=fiducial,
        vectors=vectors,
        projectors=projectors,
        gram_residual=g,
        quartic_residual=q,
        tol=tol,
        certified=bool(g <= tol and q <= tol),
    )
