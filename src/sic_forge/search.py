"""Fiducial search: seeded random restarts of Riemannian descent on the unit sphere.

The residual is rho_r = |<psi|D_r|psi>|^2 - t_r over the d^2 displacement
indices, with t = 1 at r = 0 and 1/(d+1) elsewhere.  The objective sum
rho_r^2 / d equals, by Parseval, the summed squared violation of the quartic
fiducial equations.  Its global minimum value is exactly zero at fiducials,
and it is invariant under global phase and under every displacement.  One
derivative W of rho in conjugate coordinates serves both phases: the descent
gradient is W's adjoint applied to rho, computed through one FFT of rho*B in
O(d^2 log d) without forming W, and W itself is built only for the
Gauss-Newton refinement.  Each trial point runs the overlap kernel once; its
residual and overlaps then feed the next gradient or Gauss-Newton step.
The descent takes Barzilai-Borwein steps under a nonmonotone Armijo test
(Grippo, Lampariello and Lucidi 1986; Raydan 1997): a trial passes against the
largest of the restart's last 10 accepted objectives, so the objective may rise
between accepted steps but never above the start's.
The restarts of one run descend together in lockstep batches along a leading
row axis, one trial point per restart per step of the batch; each restart keeps
its own line search and exits, so its trajectory equals the restart run alone,
and leaves the batch at its exit with its stop reason picked then.
A restart also leaves the descent on a plateau: at every 10th accepted step,
if its lowest objective so far is above 1e-4 and fell by no more than a
fraction 1e-6 since the last such checkpoint.  Certified restarts fall far
faster while that high, so the exit cuts only the descent of restarts sitting
on a local minimum.
The Gauss-Newton tail then refines the descent's end stack in place, again in lockstep over an index set of
working rows; a restart left above the refinement switch passes through with budget 0.  W is built for the working
rows and one kernel run evaluates their trials, while each restart solves its own least-squares step and leaves the
set at its own exit.  Near an exact zero of the residual it converges fast, and at a local minimum with nonzero
residual its step vanishes with the gradient.  Each batch comes back as one stack with its per-row counts; the
search builds its outcomes from them and picks the winner once.  Input is validated at the public entry points
only, and each looks up the group's ``wh.PhaseConstants`` record once: every function below takes it as its first
argument and reads the group's tables and transforms from it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .verify import SicSet, _residual, build_sic_set
from .wh import PhaseConstants, _check_integer, _settle, as_state_vector, check_dim, check_tolerance, phase_constants

__all__ = [
    "RestartOutcome",
    "SearchConfig",
    "objective",
    "objective_gradient",
    "polish",
    "search",
    "search_detailed",
]

_ARMIJO = 1e-4
_ARMIJO_MEMORY = 10  # a trial is tested against the largest of its row's last 10 accepted objectives
_SHRINK = 0.5
_MIN_STEP = 1e-14
_MAX_STEP = 1e6
_REFINE_SWITCH = 1e-10  # objective level where the least-squares refinement takes over
_REFINE_MAX_ITERS = 60
_STEP_TOL = 1e-13  # a restart stops once its accepted step is shorter than this
_PLATEAU_ITERS = 10  # every 10th accepted descent step is a plateau checkpoint, where a restart stops if
_PLATEAU_LEVEL = 1e-4  # its lowest objective is above this level, far above the refinement switch,
_PLATEAU_DROP = 1e-6  # and fell by no more than this fraction since its previous checkpoint
_BATCH_ENTRIES = 2**16  # overlap entries (restarts x d^2) descending together: bounds a batch's memory


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one search run.

    ``accept_tol`` is an objective value: the run returns the winner's
    ``build_sic_set`` at tol = sqrt(accept_tol), certified when its recomputed
    gram and quartic residuals are both within that tol.  Each restart
    draws its start from a counter-based stream keyed by (seed, restart), so
    a restart's start point does not depend on the restart count.
    """

    dim: int
    restarts: int = 32
    seed: int = 0
    max_iters: int = 4000
    accept_tol: float = 1e-18


@dataclass(frozen=True)
class RestartOutcome:
    """Final objective and trace of one restart.

    ``iterations`` is ``descent_iterations + refine_iterations``, derived here;
    ``evaluations`` counts the points the overlap kernel evaluated for this
    restart, the start point included.  Restarts descend together in lockstep
    batches, and each restart's trajectory and counts equal those of the
    restart run alone.
    ``stop_reason`` is one of ``STOP_REASONS``: the run reached the
    objective floor, it found no step that lowers the objective (a zero
    descent gradient, or one full Gauss-Newton step at the roundoff floor),
    it spent its iteration budget, its last accepted descent step was shorter
    than the step tolerance, or its descent stopped at a plateau checkpoint
    (lowest objective so far above 1e-4, and fallen by no more than a
    fraction 1e-6 over its last 10 accepted steps).  A restart whose descent
    ended above the refinement switch is not refined (``refine_iterations``
    is 0) and reports the descent's exit; a refined restart reports the
    refinement's.
    Every field is deterministic for a given config.
    """

    restart: int
    objective_value: float
    iterations: int = field(init=False)
    descent_iterations: int
    refine_iterations: int
    evaluations: int
    stop_reason: str

    def __post_init__(self):
        _settle(self, iterations=self.descent_iterations + self.refine_iterations)


STOP_REASONS = (
    "objective_floor",
    "line_search_stalled",
    "iteration_budget",
    "step_below_tolerance",
    "objective_plateau",
)


def _residual_derivative(pc: PhaseConstants, psi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W[..., r, m] = d rho_r / d conj(psi_m) of each row psi[..., d] with overlaps b[..., d^2], rows r = r1*d + r2.

    W = conj(B_r) omega**((m-r1)*r2) psi_{m-r1} + B_r omega**(-m*r2) psi_{m+r1};
    the tau phase of the overlaps cancels in |B|^2, so even d needs no sign care.
    A stack of rows gives W[..., d^2, d], each row equal bit for bit to the row's own call.
    """
    *rows, d = psi.shape
    b = b.reshape(*rows, d, d)
    lead = (b.conj() * pc.dft.conj())[..., None] * pc.dft * psi.take(pc.sub, axis=-1)[..., None, :]
    trail = b[..., None] * pc.dft.conj() * psi.take(pc.add, axis=-1)[..., None, :]
    return (lead + trail).reshape(*rows, d * d, d)


class _Point(NamedTuple):
    """A search point with its objective f, overlap residual rho and overlaps B, flattened over r = r1*d + r2.

    A stack of points psi[R, d] carries f[R], rho[R, d^2] and B[R, d^2].
    """

    psi: np.ndarray
    f: float | np.ndarray
    rho: np.ndarray
    b: np.ndarray


def _evaluate(pc: PhaseConstants, psi: np.ndarray) -> _Point:
    """Run the overlap kernel once at psi[..., d]: the residual rho and overlaps B, and f = sum rho^2 / d, per row."""
    rho, b = _residual(pc, psi)
    return _Point(psi, np.vecdot(rho, rho) / psi.shape[-1], rho, b)


def _norms(x: np.ndarray) -> np.ndarray:
    """Norms of the rows of x[..., d], each equal bit for bit to np.linalg.norm of the row."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _gradient(pc: PhaseConstants, point: _Point) -> np.ndarray:
    """Riemannian gradient at an evaluated point (see ``objective_gradient``).

    The ambient part (4/d) rho W is summed in closed form: with
    F[r1, n] = sum_r2 rho_r B_r omega**(-n*r2), one FFT over r2,
    (rho W)[m] = sum_r1 conj(F[r1, m-r1]) psi_{m-r1} + F[r1, m] psi_{m+r1};
    rho is real, so the conj(B) half of W needs only the conjugate of F, gathered flat through ``pc.lead``.
    """
    psi = point.psi
    *rows, d = psi.shape
    f = pc.forward((point.rho * point.b).reshape(*rows, d, d))
    lead = (f.conj() * psi[..., None, :]).reshape(*rows, d * d).take(pc.lead, axis=-1)
    g = (4.0 / d) * (lead + f * psi.take(pc.add, axis=-1)).sum(axis=-2)
    return g - np.vecdot(psi, g)[..., None] * psi


def objective(psi) -> float:
    """Sum of squared overlap residuals over d (the summed squared quartic defects), read from its ``SicSet``."""
    return build_sic_set(psi).objective_value


def objective_gradient(psi) -> np.ndarray:
    """Riemannian gradient of the objective on the unit sphere.

    The ambient gradient 2 d(objective)/d conj(psi) = (4/d) rho W is projected
    orthogonal to psi; phase invariance of the objective makes the projection
    coefficient real, so the result is orthogonal to psi in the full complex
    inner product.
    """
    psi = as_state_vector(psi)
    pc = phase_constants(psi.shape[0])
    return _gradient(pc, _evaluate(pc, psi))


def _gradient_descent(
    pc: PhaseConstants, point: _Point, max_iters: int, objective_floor: float
) -> tuple[_Point, np.ndarray, np.ndarray, np.ndarray]:
    """Nonmonotone backtracking descent with Barzilai-Borwein step seeding of the
    rows psi[R, d]; returns (points, iterations, evaluations, stop reasons), all
    per row.

    The rows advance in lockstep, one trial point per active row per tick.  Each
    row keeps its own Armijo test, step halving, BB step and exits, so it makes
    exactly the evaluations it makes alone.  Each accepted step renormalizes back
    onto the sphere and passes the Armijo test against the largest of the row's
    last _ARMIJO_MEMORY accepted objectives, its start included (Grippo et al.
    1986): a BB step may raise the objective, never above that largest one, so
    never above the start's.  With a memory of 1 this is the monotone test.
    Finished rows leave the working arrays, which hold the active rows only and
    end at their last accepted points.  Every _PLATEAU_ITERS-th accepted step of
    a row is a checkpoint: the row stops there if its lowest objective so far is
    above _PLATEAU_LEVEL and fell by no more than the fraction _PLATEAU_DROP
    since its previous checkpoint (its start first).  A row's stop reason is
    picked as it leaves, from its own flags: the first of the floor, the budget,
    an accepted step no longer than _STEP_TOL and a plateau that holds, else a
    stalled line search or a zero gradient.
    """
    final = _Point(*(np.empty_like(a) for a in point))
    iterations, evaluations = np.zeros((2, len(point.f)), dtype=int)
    stops = np.empty(len(point.f), dtype=np.array(STOP_REASONS).dtype)  # wide enough for every reason
    rows = np.arange(len(point.f))  # the original index of each working row
    g = _gradient(pc, point)
    gnorm_sq = np.vecdot(g, g).real
    scale = np.minimum(np.maximum(1.0 / np.maximum(1.0, _norms(g)), _MIN_STEP), _MAX_STEP)
    iters, ticks = np.zeros(len(rows), dtype=int), 0  # every working row evaluates one trial per tick
    recent = np.repeat(point.f[:, None], _ARMIJO_MEMORY, axis=1)  # per row: its accepted objectives, a ring on iters
    ring = rows * _ARMIJO_MEMORY  # the flat offset in recent of working row i's ring: i * _ARMIJO_MEMORY
    low = mark = point.f  # per row: its lowest objective, and that at its last plateau checkpoint
    go = (max_iters > 0) & (point.f > objective_floor) & (gnorm_sq > 0.0)
    ok = long_step = flat = np.zeros(len(rows), dtype=bool)  # the last tick's accepted rows, long steps, plateaus
    while True:
        if np.count_nonzero(go) < len(go):  # retire the finished rows with their last accepted points and reasons
            done = ~go
            gone = rows[done]
            evaluations[gone] = ticks
            stops[gone] = "line_search_stalled"
            exits = {"objective_plateau": ok & flat, "step_below_tolerance": ok & ~long_step,
                     "iteration_budget": iters >= max_iters, "objective_floor": point.f <= objective_floor}
            for reason, flag in exits.items():  # in rising precedence: a later exit overwrites an earlier one
                stops[gone[flag[done]]] = reason
            for out, a in zip((*final, iterations), (*point, iters)):
                out[gone] = a[done]
            point = _Point(*(a[go] for a in point))
            rows, g, gnorm_sq, scale, iters, recent, low, mark, long_step, flat = (
                a[go] for a in (rows, g, gnorm_sq, scale, iters, recent, low, mark, long_step, flat)
            )
            if not len(rows):
                return final, iterations, evaluations, stops
            ring = ring[: len(rows)]
        cand = point.psi - scale[:, None] * g
        trial = _evaluate(pc, cand / _norms(cand)[:, None])
        ticks += 1
        ok = trial.f <= recent.max(axis=1) - _ARMIJO * scale * gnorm_sq
        accepted, halved = np.count_nonzero(ok), scale * _SHRINK
        if not accepted:  # every row halves its step; a row whose halving runs out stalled
            scale, go = halved, halved >= _MIN_STEP
            continue
        g_new = _gradient(pc, trial)  # at every trial of the tick; a failed row keeps its gradient below
        s, y = trial.psi - point.psi, g_new - g
        sy, ss = np.vecdot(s, y).real, np.vecdot(s, s).real
        step = np.where(sy > 1e-300, ss / np.maximum(sy, 1e-300), scale * 2.0)
        step = np.minimum(np.maximum(step, _MIN_STEP), _MAX_STEP)
        gn = np.vecdot(g_new, g_new).real
        if accepted < len(ok):  # a row whose trial failed keeps its point and gradient and halves its step
            failed = ~ok
            failed_rows = failed[:, None]
            for new, old in zip((*trial, g_new, gn, step), (*point, g, gnorm_sq, halved)):
                np.copyto(new, old, where=failed_rows if new.ndim > 1 else failed)
        point, g, gnorm_sq, scale = trial, g_new, gn, step
        iters += ok
        recent.put(ring + iters % _ARMIJO_MEMORY, point.f)  # a failed row rewrites its last accepted objective
        low = np.minimum(low, point.f)
        long_step = np.sqrt(ss) > _STEP_TOL
        going = long_step & (iters < max_iters) & (point.f > objective_floor) & (gnorm_sq > 0.0)
        check = ok & (iters % _PLATEAU_ITERS == 0)
        if np.count_nonzero(check):  # some row is at a plateau checkpoint
            flat = check & (low > _PLATEAU_LEVEL) & (low > (1.0 - _PLATEAU_DROP) * mark)
            mark = np.where(check, low, mark)
            going &= ~flat
        else:
            flat = check
        go = np.where(ok, going, scale >= _MIN_STEP)


def _gauss_newton_tail(
    pc: PhaseConstants, point: _Point, objective_floor: float, budgets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Newton refinement, in place, of the overlap residual system of the
    rows psi[R, d], each with its own iteration budget; returns (iterations,
    evaluations, stop reasons), all per row.

    Each step solves the linearized residual in the least-squares sense (the
    minimal-norm solution ignores the flat directions along fiducial orbits),
    takes the full step psi + delta, retracts onto the sphere, and keeps the
    step only if the objective decreases; otherwise the row stops there, one
    evaluation later, with line_search_stalled.  Near an exact zero of the
    redundant SIC system the undamped step converges on its own (Dedieu and
    Shub 2000): quadratic tail convergence where the plain descent turns
    algebraic, e.g. on the continuous fiducial family at d=3.  A step fails
    only at the objective's roundoff floor, near 1e-32, which a floor set below
    it reaches (accept_tol 1e-40).

    The real Jacobian of rho in (Re psi, Im psi) is 2 [Re W | Im W].  The
    quartic defects are a row-wise DFT of rho, an isometry up to 1/sqrt(d), so
    this step is the least-squares step of the quartic system with half the rows.
    The rows advance in lockstep over an index set of working rows, in row
    order: the rows above the floor with budget left enter it, and each tick
    builds W and evaluates one trial for the working rows only, runs lstsq on
    each row's own [Re W | Im W], so every row steps as it does alone, and
    writes the kept trials into the stack.  A row leaves the set for good once
    it stalls, reaches the floor or spends its budget; a row that never enters
    it comes back untouched, with 0 steps, and reports the floor if it is at
    the floor, else the budget.
    """
    d = point.psi.shape[-1]
    iterations = np.zeros(len(point.f), dtype=int)
    stalled = np.zeros(len(point.f), dtype=bool)
    work = np.flatnonzero((point.f > objective_floor) & (budgets > 0))  # the working rows, ascending
    while len(work):
        w = _residual_derivative(pc, point.psi[work], point.b[work])
        jacobians, rhs = np.concatenate((w.real, w.imag), axis=-1), -0.5 * point.rho[work]
        delta = np.array([np.linalg.lstsq(a, r, rcond=None)[0] for a, r in zip(jacobians, rhs)])
        cand = point.psi[work] + (delta[:, :d] + 1j * delta[:, d:])
        trial = _evaluate(pc, cand / _norms(cand)[:, None])
        kept = trial.f < point.f[work]
        for out, a in zip(point, trial):
            out[work[kept]] = a[kept]
        iterations[work] += kept
        stalled[work] = ~kept
        work = work[kept & (trial.f > objective_floor) & (iterations[work] < budgets[work])]
    stops = np.full(len(point.f), "iteration_budget", dtype=np.array(STOP_REASONS).dtype)
    stops[stalled] = "line_search_stalled"
    stops[point.f <= objective_floor] = "objective_floor"  # a stalled row is above the floor
    return iterations, iterations + stalled, stops


def _descend(
    pc: PhaseConstants, psi: np.ndarray, max_iters: int, objective_floor: float
) -> tuple[_Point, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two-phase minimization of the rows of psi[R, d], sharing the max_iters
    budget across both phases: global descent of all rows in lockstep first,
    then least-squares refinement, again in lockstep, of the descent's end
    stack, in place; returns (points, descent iterations, refine iterations,
    evaluations with the start point's, stop reasons), all per row.

    The Gauss-Newton step -J^+ rho converges fast only near an exact zero of the
    residual: at a local minimum with nonzero residual, J^T rho is the vanishing
    gradient, so the step vanishes too.  So only a row the descent brought down
    to the refinement switch gets a refinement budget, what is left of max_iters
    up to _REFINE_MAX_ITERS, and reports the refinement's stop reason.  A row
    the descent left above the switch passes through with budget 0: it keeps
    its last descent point and the descent's stop reason.
    """
    switch = max(objective_floor, _REFINE_SWITCH)
    ends, descent, evaluations, stops = _gradient_descent(pc, _evaluate(pc, psi), max_iters, switch)
    tail = stops == "objective_floor"  # the descent reached the switch
    budgets = np.where(tail, np.minimum(_REFINE_MAX_ITERS, max_iters - descent), 0)
    refine, refine_evals, refine_stops = _gauss_newton_tail(pc, ends, objective_floor, budgets)
    return ends, descent, refine, 1 + evaluations + refine_evals, np.where(tail, refine_stops, stops)


def _random_starts(d: int, seed: int, restarts: range) -> np.ndarray:
    """Uniform points on the unit sphere, one per restart, each from the (seed, restart) Philox stream.

    One generator is re-keyed per restart: its state is set to the fresh state of the restart's key, and the
    restart's 2d normal draws give the real then the imaginary parts.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    state = rng.bit_generator.state  # counter 0 and an empty buffer: a fresh stream, whatever its key
    key, draws = state["state"]["key"], np.empty((len(restarts), 2 * d))
    for row, restart in enumerate(restarts):
        key[1] = restart
        rng.bit_generator.state = state
        rng.standard_normal(out=draws[row])
    z = draws[:, :d] + 1j * draws[:, d:]
    return z / _norms(z)[:, None]


def search_detailed(config: SearchConfig) -> tuple[SicSet, tuple[RestartOutcome, ...]]:
    """Run all restarts; return the winner's SIC set plus the per-restart outcomes.

    Restarts descend together, in lockstep batches of at most 2**16 overlap
    entries (restarts x d^2); each restart's outcome equals that of the restart
    run alone, so it depends neither on the batch size nor on the restart count.
    Every restart is explored regardless of earlier successes and the winner is
    the lowest objective value, ties broken by lowest restart index.  The
    winner is certified by ``build_sic_set`` at tol = sqrt(accept_tol), from
    residuals recomputed off its vector, never from optimizer state.
    """
    d = check_dim(config.dim)
    restarts = _check_integer(config.restarts, "restarts", 1)
    max_iters = _check_integer(config.max_iters, "max_iters", 1, 2**63)  # the budgets max_iters - descent are int64
    check_tolerance(config.accept_tol, "accept_tol")
    seed = _check_integer(config.seed, "seed", 0, 2**64)
    pc = phase_constants(d)

    floor = config.accept_tol * 1e-4  # converge comfortably past acceptance
    batch = max(1, _BATCH_ENTRIES // (d * d))
    outcomes, fiducials = [], []
    for first in range(0, restarts, batch):
        ends, *counts = _descend(pc, _random_starts(d, seed, range(restarts)[first : first + batch]), max_iters, floor)
        outcomes += map(RestartOutcome, range(first, restarts), ends.f.tolist(), *(a.tolist() for a in counts))
        fiducials.append(ends.psi)
    best = min(outcomes, key=lambda outcome: outcome.objective_value)  # the first minimum: the lowest restart
    return build_sic_set(np.concatenate(fiducials)[best.restart], tol=math.sqrt(config.accept_tol)), tuple(outcomes)


def search(config: SearchConfig) -> SicSet:
    """Run seeded random-restart descents and return the SIC set of the best vector found.

    Failure is reported, not raised: an unconverged run comes back with its
    honest residuals and objective value and ``certified=False``.
    """
    return search_detailed(config)[0]


def polish(psi) -> SicSet:
    """Refine a near-minimum candidate with the same descent and a tighter floor; return its SIC set.

    The run spends at most 4000 iterations, with the search's step tolerance
    and Gauss-Newton tail, and the result is ``build_sic_set`` at tol = 1e-9:
    certified when its gram and quartic residuals are both within 1e-9.
    Inputs already at a minimum are returned unchanged (the objective floor is
    hit immediately); far-from-minimum inputs still come back with the best
    point found and honest residuals.  The descent's plateau exit can stop
    only a run whose objective is above 1e-4.
    """
    psi = as_state_vector(psi)
    return build_sic_set(_descend(phase_constants(psi.shape[0]), psi[None], 4000, 1e-28)[0].psi[0], tol=1e-9)
