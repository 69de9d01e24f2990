"""Complete mutually unbiased bases for prime dimensions, plus uncertainty profiles.

In prime dimension d the standard basis together with the eigenbases of X Z^a, a = 0..d-1, forms
d+1 pairwise unbiased orthonormal bases (Ivanovic 1981; Wootters & Fields 1989).  Row m of basis
a+1 is omega**(-m*j) * chirp[a, j] / sqrt(d), with chirp omega**(a*j*(j-1)/2) for odd d and
tau**(a*j*j) for d = 2, so a MubSet, made from d alone, holds only table[a, j] = conj(chirp[a, j]) / sqrt(d).
Row a of chirp is row 1 to the power a, so the unbiasedness residual needs only d - 1 FFTs.  A state's
uncertainty profile collects, per basis, the sum of squared outcome probabilities; for every pure
state those d+1 numbers add up to 2, so the evenest possible profile is the constant 2/(d+1), which
defines minimum uncertainty here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .wh import PROBABILITY_FLOOR, _check_integer, _settle, as_state_vector, check_dim, check_tolerance, phase_constants

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


# The first 13 primes, and the least strong pseudoprime to all of them (Sorenson and Webster 2017).  The first 12
# are not enough below this bound: 318665857834031151167461 is a strong pseudoprime to each of 2..37.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality of an integer n below 3317044064679887385961981 (about 3.3e24), in microseconds.

    Deterministic Miller-Rabin over the first 13 primes, which no composite below that bound passes; a larger n is
    refused with a ValueError rather than guessed.
    """
    n = _check_integer(n, "n")
    if n >= _WITNESS_BOUND:
        raise ValueError(f"n must be below {_WITNESS_BOUND} for an exact primality test, got {n}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _WITNESSES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, eq=False)
class MubSet:
    """The chirp bases of dimension d, built from d alone, as a read-only (d, d) table: vector m of basis a+1 is
    omega**(-m*j) * conj(table[a, j]).  They are d+1 mutually unbiased bases when d is prime (``build_mubs``)."""

    d: int
    table: np.ndarray = field(init=False)

    def __post_init__(self):
        d = check_dim(self.d)
        pc = phase_constants(d)
        j = np.arange(d)
        a = j[:, None]
        # chirp[a, j] = omega**(a*j*(j-1)/2), or tau**(a*j*j) when d = 2
        chirp = pc.tau ** (a * j * j) if d == 2 else pc.omega_powers[(a * (j * (j - 1) // 2)) % d]
        _settle(self, d=d, table=chirp.conj() / np.sqrt(d))


def build_mubs(d: int) -> MubSet:
    """Standard basis plus the eigenbases of X Z^a for a = 0..d-1 (prime d only, below is_prime's exact bound)."""
    d = _check_integer(check_dim(d), "dimension", 2, _WITNESS_BOUND)
    if not is_prime(d):
        raise ValueError(f"prime dimension required, got {d}")
    return MubSet(d=d)


def unbiasedness_residual(mubs: MubSet) -> float:
    """Worst deviation of cross-basis |<e|f>|^2 from 1/d over all basis pairs, from d - 1 FFTs in one batch.

    Against the standard basis it is |table|^2.  Row a of the table is chirp_a = c**a elementwise, so
    table[a] * conj(table[b]) = table[0] * conj(table[b-a]) and bases a+1, b+1 overlap as bases 1, b-a+1 do: the
    circulant sums sum_j omega**((m-n)*j) * table[0, j] * conj(table[c, j]) for c = 1..d-1 cover every pair.
    """
    d, table = mubs.d, mubs.table
    overlaps = np.abs(phase_constants(d).forward(table[0] * table[1:].conj())) ** 2
    return float(max(np.max(np.abs(np.abs(table) ** 2 - 1.0 / d)), np.max(np.abs(overlaps - 1.0 / d))))


@dataclass(frozen=True, eq=False)
class UncertaintyProfile:
    """Per-basis outcome distributions and their squared-probability sums ``per_basis[b] = sum_k p(b, k)**2``.

    Made from the (d+1, d) real probabilities alone, d >= 2, each finite and at least ``PROBABILITY_FLOOR``: both arrays
    are read-only, the first a copy of the input.
    """

    probabilities: np.ndarray
    per_basis: np.ndarray = field(init=False)

    def __post_init__(self):
        if np.iscomplexobj(self.probabilities):  # the float conversion would drop the imaginary parts
            raise ValueError(f"probabilities must be real, got {np.asarray(self.probabilities).dtype}")
        probs = np.array(self.probabilities, dtype=float)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1] + 1 or probs.shape[1] < 2:
            raise ValueError(f"probabilities must have shape (d+1, d) with d >= 2, got {probs.shape}")
        low, high = float(probs.min()), float(probs.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("probabilities has a non-finite entry")
        if low < PROBABILITY_FLOOR:
            raise ValueError(f"probabilities has entry {low:.3e} below the floor {PROBABILITY_FLOOR:.1e}")
        _settle(self, probabilities=probs, per_basis=(probs**2).sum(axis=1))


def uncertainty_profile(psi, mubs: MubSet) -> UncertaintyProfile:
    """Measure psi in every basis; ``per_basis[b] = sum_k p(b, k)**2``, from amplitudes psi and (table * psi) @ dft."""
    psi = as_state_vector(psi)
    d = mubs.d
    if psi.shape[0] != d:
        raise ValueError(f"dimension mismatch: state has d={psi.shape[0]}, bases have d={d}")
    amps = np.empty((d + 1, d), dtype=complex)
    amps[0] = psi
    np.dot(mubs.table * psi, phase_constants(d).dft, out=amps[1:])
    return UncertaintyProfile(probabilities=np.abs(amps) ** 2)


def minimum_uncertainty_target(d: int) -> float:
    """2/(d+1): the even split of the pure-state purity budget across d+1 bases."""
    d = check_dim(d)
    return 2.0 / (d + 1)


def _is_minimum(per_basis: np.ndarray, d: int, tol: float) -> bool:
    """The minimum-uncertainty verdict from a profile's per-basis sums: each within tol of 2/(d+1)."""
    return bool(np.max(np.abs(per_basis - minimum_uncertainty_target(d))) <= tol)


def is_minimum_uncertainty(psi, mubs: MubSet, tol: float = 1e-8) -> bool:
    """True when every per-basis squared-probability sum equals 2/(d+1) within tol."""
    tol = check_tolerance(tol, "tol")
    return _is_minimum(uncertainty_profile(psi, mubs).per_basis, mubs.d, tol)
