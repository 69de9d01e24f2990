"""Fiducial certification and SIC-set construction.

A unit vector is a fiducial exactly when every nonzero displacement overlap
<psi|D_r|psi> has squared modulus 1/(d+1).  Fourier transforming the overlap
power spectrum turns that family of conditions into quartic component
equations with no phase factors left in them:

    sum_j psi_j conj(psi_{j+k}) conj(psi_{j+l}) psi_{j+k+l}
        = (delta_{k0} + delta_{l0}) / (d+1)      for all k, l in Z_d.

Every check reads one residual rho_r = |<psi|D_r|psi>|^2 - t_r from one overlap kernel, a single FFT over the d
cyclic products conj(psi_{j+r1}) psi_j: the gram residual, the quartic defects (a row-wise inverse DFT of rho, as
that of t is the right-hand side above) and the search objective sum rho_r^2 / d.  The kernel knows the group only
as the ``wh.PhaseConstants`` record it is passed (tables and transforms), which each public entry point looks up.

A SIC set is its fiducial and its d^2 overlaps: a ``SicSet`` runs the kernel once when it is made and keeps the
grid |B_r|^2, the gram and quartic residuals and the objective, and ``gram_residual``, ``quartic_residual`` and
``search.objective`` read theirs from it.  The projectors Pi_i = |D_i psi><D_i psi| have pair traces
tr(Pi_i Pi_j) = |B_{j-i}|^2, so the order-t defect, the frame potential and the quasi-ONB certificate are sums and
maxima over that grid, and neither the d^3 orbit vectors nor the d^4 projector stack is built for them.
Dense-matrix evaluation is kept to the test-suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .operator_space import KtReport, QuasiOnbReport, _check_order, kt_lower_bound
from .wh import PhaseConstants, _displaced, _settle, as_state_vector, check_tolerance, phase_constants

__all__ = [
    "SicSet",
    "build_sic_set",
    "gram_residual",
    "quartic_defects",
    "quartic_residual",
]


def _residual(pc: PhaseConstants, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho_r = |<psi|D_r|psi>|^2 - t_r (t = 1 at r = 0, else 1/(d+1)) and the overlaps B_r, flat over r1*d + r2.

    B[r1, r2] = sum_j omega**(j*r2) conj(psi_{j+r1}) psi_j is <psi|D_r|psi> without its tau**(r1*r2) phase, which
    drops out of every modulus.  The SIC target t is written here only.  A stack of states psi[..., d] gives
    rho[..., d^2] and B[..., d^2], each row equal bit for bit to the row's own call.
    """
    d = psi.shape[-1]
    b = d * pc.inverse(psi.conj().take(pc.add, axis=-1) * psi[..., None, :])
    b = b.reshape(*psi.shape[:-1], d * d)
    rho = b.real**2 + b.imag**2 - 1.0 / (d + 1)
    rho[..., 0] -= d / (d + 1)  # t = 1 at the origin
    return rho, b


def _defects(pc: PhaseConstants, rho: np.ndarray) -> np.ndarray:
    """Quartic defects of one rho[d^2]: the inverse DFT over r2 of rho[l, r2] at k, as a (k, l) matrix."""
    return pc.inverse(rho.reshape(pc.d, pc.d)).T


def gram_residual(psi) -> float:
    """Largest deviation of |<psi|D_r|psi>|^2 from 1/(d+1) over r != 0: ``build_sic_set(psi).gram_residual``."""
    return build_sic_set(psi).gram_residual


def quartic_defects(psi) -> np.ndarray:
    """Complex defect matrix of the quartic fiducial equations, entry per (k, l).

    The component sum sum_j psi_j conj(psi_{j+k}) conj(psi_{j+l}) psi_{j+k+l}
    is, by the Fourier identity, the inverse DFT over r2 of |B[l, r2]|^2 taken at k.
    """
    psi = as_state_vector(psi)
    pc = phase_constants(psi.shape[0])
    return _defects(pc, _residual(pc, psi)[0])


def quartic_residual(psi) -> float:
    """Largest modulus among the quartic equation defects: ``build_sic_set(psi).quartic_residual``."""
    return build_sic_set(psi).quartic_residual


@dataclass(frozen=True, eq=False)
class SicSet:
    """A fiducial's displacement orbit, made from the fiducial and ``tol`` alone; one kernel run derives the rest.

    ``overlap_grid[r]`` is |B_r|^2 = tr(Pi_0 Pi_r), read-only and flat over r = r1*d + r2; entry 0 is ||psi||^4.
    Every pair trace tr(Pi_i Pi_j) of the orbit is the entry at the displacement from i to j, so ``kt``,
    ``frame_potential`` and ``quasi_onb`` read it and no orbit vector.  Vector i is D_r psi at the displacement
    index ``r = (i // d, i % d)``.  ``certified`` is True when both residuals are within ``tol``; an uncertified
    set still carries honest residuals.  ``objective_value`` is the search objective sum rho_r^2 / d, the
    excess (frame_potential / d^2 - 2d/(d+1)) / d of the orbit's frame potential over its SIC minimum.
    ``dataclasses.replace(sic, tol=t)`` recomputes the verdict; no residual or verdict can be passed or replaced.
    """

    fiducial: np.ndarray
    overlap_grid: np.ndarray = field(init=False)
    gram_residual: float = field(init=False)
    quartic_residual: float = field(init=False)
    objective_value: float = field(init=False)
    tol: float
    certified: bool = field(init=False)

    def __post_init__(self):
        psi, tol = as_state_vector(self.fiducial).copy(), check_tolerance(self.tol, "tol")
        pc = phase_constants(psi.shape[0])
        rho, b = _residual(pc, psi)
        g, q = float(np.abs(rho[1:]).max()), float(np.abs(_defects(pc, rho)).max())  # the gram residual skips r = 0
        grid, f = b.real**2 + b.imag**2, float(np.vecdot(rho, rho) / psi.shape[0])
        _settle(self, fiducial=psi, overlap_grid=grid, gram_residual=g, quartic_residual=q, objective_value=f, tol=tol,
                certified=g <= tol and q <= tol)

    @property
    def d(self) -> int:
        return self.fiducial.shape[0]

    @cached_property
    def vectors(self) -> np.ndarray:
        """The d^2 orbit vectors D_r psi, a read-only (d^2, d) array built on first read and kept."""
        d = self.d
        r1, r2 = np.divmod(np.arange(d * d), d)
        vectors = _displaced(self.fiducial, r1[:, None], r2[:, None])
        vectors.setflags(write=False)
        return vectors

    @cached_property
    def projectors(self) -> np.ndarray:
        """The d^2 projectors |v_i><v_i| of ``vectors``, a read-only (d^2, d, d) stack built on first read and kept.

        The stack has d^4 entries (23.8 GiB at d = 200) and no caller in the package, which reads the orbit's
        operator-space quantities from ``overlap_grid``; it is the dense oracle.
        """
        projectors = self.vectors[:, :, None] * self.vectors.conj()[:, None, :]
        projectors.setflags(write=False)
        return projectors

    def kt(self, t: float) -> KtReport:
        """Order-t defect of the orbit's d^2 projectors, d^2 * sum over r != 0 of |B_r|^(2t), with its PSD lower bound.

        Equal, up to roundoff, to ``kt_measure(operator_set(self.projectors), t)``.
        """
        t = _check_order(t)
        d = self.d
        return KtReport(t=t, value=d * d * float(np.sum(self.overlap_grid[1:] ** t)), lower_bound=kt_lower_bound(d, t))

    @property
    def frame_potential(self) -> float:
        """Frame potential of the orbit's vectors, d^2 * sum over all r of |B_r|^4 (``frame_potential`` of them)."""
        s = self.overlap_grid
        return s.shape[0] * float(np.sum(s**2))

    def quasi_onb(self) -> QuasiOnbReport:
        """Quasi-ONB certificate of the orbit's d^2 projectors at ``tol``, read from the fiducial and the residuals.

        With n = ||psi||^2 - 1: Pi^2 - Pi = n Pi gives the projector deviation |n| max_j |psi_j|^2, tr(Pi) = 1 + n the
        trace deviation |n|, and sum_r D_r Pi D_r^dagger = d tr(Pi) I the completeness deviation d |n|; the overlap
        deviation is the gram residual.  Equal, up to roundoff, to ``quasi_onb_certify`` on the projector stack.
        """
        psi = self.fiducial
        n = abs(float(np.vdot(psi, psi).real) - 1.0)
        return QuasiOnbReport(
            d=self.d,
            tol=self.tol,
            projector_deviation=n * float(np.max(psi.real**2 + psi.imag**2)),
            trace_deviation=n,
            overlap_deviation=self.gram_residual,
            completeness_deviation=self.d * n,
        )


def build_sic_set(psi, tol: float = 1e-10) -> SicSet:
    """``SicSet(psi, tol)``, at the verification tolerance 1e-10 by default; orbit vectors are built only when read."""
    return SicSet(fiducial=psi, tol=tol)
