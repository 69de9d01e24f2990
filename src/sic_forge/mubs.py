"""Complete mutually unbiased bases for prime dimensions, plus uncertainty profiles.

In prime dimension d the standard basis together with the eigenbases of
X Z^a, a = 0..d-1, forms d+1 pairwise unbiased orthonormal bases (Ivanovic
1981; Wootters & Fields 1989).  The eigenbases have a closed form: row m of
basis a+1 is omega**(-m*j + a*j*(j-1)/2) / sqrt(d) for odd d, and
omega**(-m*j) * tau**(a*j*j) / sqrt(2) for d = 2.  A state's uncertainty
profile collects, per basis, the sum of squared outcome probabilities; for
every pure state those d+1 numbers add up to 2, so the evenest possible
profile is the constant 2/(d+1), which defines minimum uncertainty here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wh import as_state_vector, check_dim, check_tolerance, phase_constants

__all__ = [
    "MubSet",
    "UncertaintyProfile",
    "build_mubs",
    "is_minimum_uncertainty",
    "is_prime",
    "minimum_uncertainty_target",
    "unbiasedness_residual",
    "uncertainty_profile",
]


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (desk-scale n)."""
    n = int(n)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class MubSet:
    """d+1 orthonormal bases, pairwise unbiased; ``bases[b, k]`` is vector k of basis b."""

    d: int
    bases: np.ndarray


def build_mubs(d: int) -> MubSet:
    """Standard basis plus the eigenbases of X Z^a for a = 0..d-1 (prime d only)."""
    d = check_dim(d)
    if not is_prime(d):
        raise ValueError(f"prime dimension required, got {d}")
    pc = phase_constants(d)
    j = np.arange(d)
    a = j[:, None]
    # chirp[a, j] = omega**(a*j*(j-1)/2), or tau**(a*j*j) when d = 2
    chirp = pc.tau ** (a * j * j) if d == 2 else pc.omega_powers[(a * (j * (j - 1) // 2)) % d]
    bases = np.empty((d + 1, d, d), dtype=complex)
    bases[0] = np.eye(d)
    bases[1:] = pc.omega_powers[(-a * j) % d] * chirp[:, None, :] / np.sqrt(d)
    bases.setflags(write=False)
    return MubSet(d=d, bases=bases)


def unbiasedness_residual(mubs: MubSet) -> float:
    """Worst deviation of cross-basis |<e|f>|^2 from 1/d over all basis pairs."""
    d = mubs.d
    n_bases = mubs.bases.shape[0]
    worst = 0.0
    for b in range(n_bases):
        for b2 in range(b + 1, n_bases):
            overlaps = np.abs(mubs.bases[b].conj() @ mubs.bases[b2].T) ** 2
            worst = max(worst, float(np.max(np.abs(overlaps - 1.0 / d))))
    return worst


@dataclass(frozen=True)
class UncertaintyProfile:
    """Per-basis outcome distributions and their squared-probability sums."""

    probabilities: np.ndarray
    per_basis: np.ndarray


def uncertainty_profile(psi, mubs: MubSet) -> UncertaintyProfile:
    """Measure psi in every basis; ``per_basis[b] = sum_k p(b, k)**2``."""
    psi = as_state_vector(psi)
    if psi.shape[0] != mubs.d:
        raise ValueError(f"dimension mismatch: state has d={psi.shape[0]}, bases have d={mubs.d}")
    amps = mubs.bases.conj() @ psi
    probs = amps.real**2 + amps.imag**2
    per_basis = np.sum(probs**2, axis=1)
    probs.setflags(write=False)
    per_basis.setflags(write=False)
    return UncertaintyProfile(probabilities=probs, per_basis=per_basis)


def minimum_uncertainty_target(d: int) -> float:
    """2/(d+1): the even split of the pure-state purity budget across d+1 bases."""
    return 2.0 / (d + 1)


def is_minimum_uncertainty(psi, mubs: MubSet, tol: float = 1e-8) -> bool:
    """True when every per-basis squared-probability sum equals 2/(d+1) within tol."""
    tol = check_tolerance(tol, "tol")
    profile = uncertainty_profile(psi, mubs)
    return bool(np.max(np.abs(profile.per_basis - minimum_uncertainty_target(mubs.d))) <= tol)
