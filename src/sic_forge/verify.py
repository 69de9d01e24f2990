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

import numpy as np

from .wh import _displaced, as_state_vector, check_tolerance, phase_constants

__all__ = [
    "SicSet",
    "build_sic_set",
    "gram_residual",
    "quartic_defects",
    "quartic_residual",
    "quartic_target",
]


def _overlaps(psi: np.ndarray) -> np.ndarray:
    """B[r1, r2] = sum_j omega**(j*r2) conj(psi_{j+r1}) psi_j: one inverse FFT over j.

    B is the overlap <psi|D_(r1,r2)|psi> without its tau**(r1*r2) phase, which
    drops out of every modulus.  A stack of states psi[..., d] gives B[..., r1, r2],
    each row equal bit for bit to the row's own call.
    """
    d = psi.shape[-1]
    return d * np.fft.ifft(psi.conj()[..., phase_constants(d).add] * psi[..., None, :], axis=-1)


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


def quartic_defects(psi) -> np.ndarray:
    """Complex defect matrix of the quartic fiducial equations, entry per (k, l).

    The component sum sum_j psi_j conj(psi_{j+k}) conj(psi_{j+l}) psi_{j+k+l}
    is, by the Fourier identity, the inverse DFT over r2 of |B[l, r2]|^2 taken at k.
    """
    psi = as_state_vector(psi)
    return np.fft.ifft(np.abs(_overlaps(psi)) ** 2, axis=1).T - quartic_target(psi.shape[0])


def quartic_residual(psi) -> float:
    """Largest modulus among the quartic equation defects."""
    return float(np.max(np.abs(quartic_defects(psi))))


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
