"""Fiducial search: seeded random restarts of Riemannian descent on the unit sphere.

The residual is rho_r = |<psi|D_r|psi>|^2 - t_r over the d^2 displacement
indices, with t = 1 at r = 0 and 1/(d+1) elsewhere.  The objective sum
rho_r^2 / d equals, by Parseval, the summed squared violation of the quartic
fiducial equations.  Its global minimum value is exactly zero at fiducials,
and it is invariant under global phase and under every displacement.  One
derivative of rho in conjugate coordinates serves both the gradient descent
and the Gauss-Newton refinement.  Each trial point runs the overlap kernel
once; its residual and overlaps then feed the next gradient or Gauss-Newton
step.  Input is validated at the public entry points only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .verify import _cyclic_add, _overlaps, gram_residual, quartic_residual
from .wh import as_state_vector, check_dim, phase_constants

__all__ = [
    "RestartOutcome",
    "SearchConfig",
    "SicCandidate",
    "objective",
    "objective_gradient",
    "polish",
    "search",
    "search_detailed",
]

_ARMIJO = 1e-4
_SHRINK = 0.5
_MIN_STEP = 1e-14
_MAX_STEP = 1e6
_REFINE_SWITCH = 1e-10  # objective level where the least-squares refinement takes over
_REFINE_MAX_ITERS = 60
_REFINE_MIN_SCALE = _SHRINK**19  # the Gauss-Newton step is halved at most 19 times
_STEP_TOL = 1e-13  # a restart stops once its accepted step is shorter than this


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one search run.

    ``accept_tol`` is an objective value: a candidate counts as certified when
    its recomputed quartic residual is within sqrt(accept_tol).  Each restart
    draws its start from a counter-based stream keyed by (seed, restart), so
    a restart's start point does not depend on the restart count.
    """

    dim: int
    restarts: int = 32
    seed: int = 0
    max_iters: int = 4000
    accept_tol: float = 1e-18


@dataclass(frozen=True)
class SicCandidate:
    """Best vector found by a search; residuals are recomputed from scratch."""

    fiducial: np.ndarray
    objective_value: float
    gram_residual: float
    quartic_residual: float
    restarts_used: int
    iterations: int
    certified: bool


@dataclass(frozen=True)
class RestartOutcome:
    """Final objective and iteration count of one restart."""

    restart: int
    objective_value: float
    iterations: int


@lru_cache(maxsize=None)
def _derivative_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sub[a, m] = (m - a) % d and dft[a, m] = omega**(a*m)."""
    idx = np.arange(d)
    sub = (idx[None, :] - idx[:, None]) % d
    dft = phase_constants(d).omega_powers[np.outer(idx, idx) % d]
    for table in (sub, dft):
        table.setflags(write=False)
    return sub, dft


def _residual_derivative(psi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W[r, m] = d rho_r / d conj(psi_m), rows r = r1*d + r2.

    W = conj(B_r) omega**((m-r1)*r2) psi_{m-r1} + B_r omega**(-m*r2) psi_{m+r1};
    the tau phase of the overlaps cancels in |B|^2, so even d needs no sign care.
    """
    d = psi.shape[0]
    sub, dft = _derivative_tables(d)
    b = b.reshape(d, d)
    lead = (b.conj() * dft.conj())[:, :, None] * dft[None, :, :] * psi[sub][:, None, :]
    trail = b[:, :, None] * dft.conj()[None, :, :] * psi[_cyclic_add(d)][:, None, :]
    return (lead + trail).reshape(d * d, d)


class _Point(NamedTuple):
    """A search point with its objective f, overlap residual rho and overlaps B, flattened over r = r1*d + r2."""

    psi: np.ndarray
    f: float
    rho: np.ndarray
    b: np.ndarray


def _evaluate(psi: np.ndarray) -> _Point:
    """Run the overlap kernel once at psi: rho = |B|^2 - t and f = sum rho^2 / d."""
    d = psi.shape[0]
    b = _overlaps(psi).reshape(-1)
    rho = b.real**2 + b.imag**2 - 1.0 / (d + 1)
    rho[0] -= d / (d + 1)  # t = 1 at the origin
    return _Point(psi, float(rho @ rho) / d, rho, b)


def _gradient(point: _Point) -> np.ndarray:
    """Riemannian gradient at an evaluated point (see ``objective_gradient``)."""
    psi = point.psi
    g = (4.0 / psi.shape[0]) * (point.rho @ _residual_derivative(psi, point.b))
    return g - np.vdot(psi, g) * psi


def objective(psi) -> float:
    """Sum of squared overlap residuals over d; equals the summed squared quartic defects."""
    return _evaluate(as_state_vector(psi)).f


def objective_gradient(psi) -> np.ndarray:
    """Riemannian gradient of the objective on the unit sphere.

    The ambient gradient 2 d(objective)/d conj(psi) = (4/d) rho W is projected
    orthogonal to psi; phase invariance of the objective makes the projection
    coefficient real, so the result is orthogonal to psi in the full complex
    inner product.
    """
    return _gradient(_evaluate(as_state_vector(psi)))


def _backtrack(psi: np.ndarray, direction: np.ndarray, scale: float, min_scale: float, accept) -> tuple:
    """First trial psi + s*direction, renormalized, for s = scale, scale/2, ... >= min_scale
    whose objective f passes accept(s, f); returns (point, s), or (None, s) if none does."""
    while scale >= min_scale:
        cand = psi + scale * direction
        trial = _evaluate(cand / np.linalg.norm(cand))
        if accept(scale, trial.f):
            return trial, scale
        scale *= _SHRINK
    return None, scale


def _gradient_descent(point: _Point, max_iters: int, objective_floor: float, step_tol: float) -> tuple[_Point, int]:
    """Backtracking descent with Barzilai-Borwein step seeding.

    Each accepted step renormalizes back onto the sphere and satisfies an
    Armijo decrease, so the objective is nonincreasing along the trajectory.
    """
    g = _gradient(point)
    step = 1.0 / max(1.0, float(np.linalg.norm(g)))
    iterations = 0
    while iterations < max_iters and point.f > objective_floor:
        gnorm_sq = float(np.vdot(g, g).real)
        if gnorm_sq <= 0.0:
            break
        alpha = min(max(step, _MIN_STEP), _MAX_STEP)
        trial, alpha = _backtrack(
            point.psi, -g, alpha, _MIN_STEP, lambda a, f_new: f_new <= point.f - _ARMIJO * a * gnorm_sq
        )
        if trial is None:
            break  # line search stalled: at the numerical floor of the basin
        iterations += 1
        g_new = _gradient(trial)
        s = trial.psi - point.psi
        y = g_new - g
        sy = float(np.vdot(s, y).real)
        ss = float(np.vdot(s, s).real)
        step = ss / sy if sy > 1e-300 else alpha * 2.0
        point, g = trial, g_new
        if math.sqrt(ss) <= step_tol:
            break
    return point, iterations


def _least_squares_refine(point: _Point, objective_floor: float, max_iters: int) -> tuple[_Point, int]:
    """Gauss-Newton refinement of the overlap residual system.

    Solves the linearized residual in the least-squares sense (the minimal-norm
    solution ignores the flat directions along fiducial orbits), retracts onto
    the sphere, and keeps a step only if the objective decreases, damping the
    step by halves otherwise.  Quadratic tail convergence where the plain
    descent turns algebraic, e.g. on the continuous fiducial family at d=3.

    The real Jacobian of rho in (Re psi, Im psi) is 2 [Re W | Im W].  The
    quartic defects are a row-wise DFT of rho, an isometry up to 1/sqrt(d), so
    this step is the least-squares step of the quartic system with half the rows.
    """
    d = point.psi.shape[0]
    iterations = 0
    while iterations < max_iters and point.f > objective_floor:
        w = _residual_derivative(point.psi, point.b)
        delta, *_ = np.linalg.lstsq(np.hstack([w.real, w.imag]), -0.5 * point.rho, rcond=None)
        direction = delta[:d] + 1j * delta[d:]
        trial, _ = _backtrack(point.psi, direction, 1.0, _REFINE_MIN_SCALE, lambda s, f_new: f_new < point.f)
        if trial is None:
            break
        point = trial
        iterations += 1
    return point, iterations


def _descend(psi: np.ndarray, max_iters: int, objective_floor: float, step_tol: float) -> tuple[_Point, int]:
    """Two-phase minimization, sharing the max_iters budget across both phases:
    global descent first, then least-squares refinement of the tail, which
    starts from the descent's last evaluated point."""
    switch = max(objective_floor, _REFINE_SWITCH)
    point, iters = _gradient_descent(_evaluate(psi), max_iters, switch, step_tol)
    budget = min(_REFINE_MAX_ITERS, max_iters - iters)
    point, extra = _least_squares_refine(point, objective_floor, budget)
    return point, iters + extra


def _random_start(d: int, seed: int, restart: int) -> np.ndarray:
    """Uniform point on the unit sphere from the (seed, restart) Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, restart], dtype=np.uint64)))
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _candidate(psi: np.ndarray, restarts_used: int, iterations: int, residual_tol: float) -> SicCandidate:
    # Residuals come from the certification module, never from optimizer state.
    psi = psi.copy()
    psi.setflags(write=False)
    quartic = quartic_residual(psi)
    return SicCandidate(
        fiducial=psi,
        objective_value=_evaluate(psi).f,
        gram_residual=gram_residual(psi),
        quartic_residual=quartic,
        restarts_used=restarts_used,
        iterations=iterations,
        certified=bool(quartic <= residual_tol),
    )


def search_detailed(config: SearchConfig) -> tuple[SicCandidate, tuple[RestartOutcome, ...]]:
    """Run all restarts and return the best candidate plus per-restart outcomes.

    Restarts run one after another.  Every restart is explored regardless of
    earlier successes and the winner is the lowest objective value, ties
    broken by lowest restart index.
    """
    d = check_dim(config.dim)
    if config.restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {config.restarts}")
    if config.max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {config.max_iters}")
    if not 0.0 < config.accept_tol < math.inf:
        raise ValueError(f"accept_tol must be positive and finite, got {config.accept_tol}")
    if not 0 <= int(config.seed) < 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {config.seed}")

    floor = config.accept_tol * 1e-4  # converge comfortably past acceptance
    results = []
    for restart in range(config.restarts):
        start = _random_start(d, int(config.seed), restart)
        point, iters = _descend(start, config.max_iters, floor, _STEP_TOL)
        results.append((point.f, restart, point.psi, iters))

    _, _, best_psi, best_iters = min(results, key=lambda r: (r[0], r[1]))
    candidate = _candidate(
        best_psi,
        restarts_used=config.restarts,
        iterations=best_iters,
        residual_tol=math.sqrt(config.accept_tol),
    )
    outcomes = tuple(
        RestartOutcome(restart=i, objective_value=f, iterations=n)
        for f, i, _, n in results
    )
    return candidate, outcomes


def search(config: SearchConfig) -> SicCandidate:
    """Run seeded random-restart descents and return the best candidate found.

    Failure is reported, not raised: an unconverged run comes back with its
    honest objective value and ``certified=False``.
    """
    return search_detailed(config)[0]


def polish(psi, max_iters: int = 4000, residual_tol: float = 1e-9) -> SicCandidate:
    """Refine a near-minimum candidate with the same descent and a tighter floor.

    Inputs already at a minimum are returned unchanged (the objective floor is
    hit immediately); far-from-minimum inputs still come back with the best
    point found and honest residuals.
    """
    psi = as_state_vector(psi)
    refined, iterations = _descend(psi, max_iters, 1e-28, 0.0)
    return _candidate(refined.psi, restarts_used=0, iterations=iterations, residual_tol=residual_tol)
