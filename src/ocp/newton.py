"""Damped Newton with relaxed backtracking and eps-continuation.

The core takes a residual and a direction function (lu_direction,
refined_direction or gmres_direction makes one), so it serves the monolithic
coupled system, state solves, local subdomain solves and RASPEN's outer
iteration.  The smoothing parameter follows eps_{k+1} = max(gamma * eps_k,
eps_min); convergence is declared only once eps has reached eps_min AND the
residual test holds, since a small residual of a smoother intermediate
system is not a solution of the target one.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .krylov import SolverFault, gmres


class LineSearchError(SolverFault):
    """No admissible step length within the halving budget."""


class LinearSolveError(SolverFault):
    """The Newton direction solve failed or did not converge."""


# bound on the relative residual of the probe that accepts an unpivoted factor,
# and of the refinement that accepts a single-precision direction
LU_PROBE_TOL = 1e-10
# single-precision solves one refined direction may take: a fresh factor
# reaches the roundoff floor in about 4, an earlier step's in up to about 19
MAX_REFINEMENTS = 20
# a held factor whose kept direction took more single-precision solves than
# this is dropped after that direction, as a fresh one costs about 29
REFRESH_SOLVES = 16
# halvings of the step length the line search may try before giving up
MAX_HALVINGS = 30


@dataclass(frozen=True)
class ContinuationSchedule:
    """eps path: start at eps0, decay by gamma per iteration, floor at eps_min."""

    eps0: float = 1.0
    gamma: float = 0.2
    eps_min: float = 1e-10

    def __post_init__(self):
        if not self.eps0 >= self.eps_min > 0:
            raise ValueError("need eps0 >= eps_min > 0")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.gamma == 1.0 and self.eps0 > self.eps_min:
            raise ValueError("gamma = 1 never decays eps0 to eps_min")

    @classmethod
    def fixed(cls, eps):
        """Degenerate schedule: plain Newton at a single eps."""
        return cls(eps, 1.0, eps)

    def next_eps(self, eps):
        return max(self.gamma * eps, self.eps_min)


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-10
    max_outer: int = 200
    sigma: float = 1.1

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.sigma < 1.0:
            raise ValueError("sigma must be at least 1")
        if self.max_outer < 0:
            raise ValueError("max_outer must be nonnegative")


@dataclass
class SolveReport:
    converged: bool = False
    outer_iters: int = 0
    residual_norms: list = field(default_factory=list)
    eps_values: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    gmres_iters: list = field(default_factory=list)
    inner_iters: list = field(default_factory=list)
    threshold: float = 0.0
    wall_time: float = 0.0
    failure: str | None = None
    lu_fallbacks: int = 0

    @property
    def avg_gmres_iters(self):
        counted = [k for k in self.gmres_iters if k is not None]
        return sum(counted) / len(counted) if counted else None

    @property
    def avg_inner_iters(self):
        return sum(self.inner_iters) / len(self.inner_iters) if self.inner_iters else None


def backtrack(x, d, residual_fn, sigma, current_norm):
    """Largest alpha in {1, 1/2, 1/4, ...} with ||F(x + alpha d)|| <= sigma ||F(x)||.

    current_norm is ||F(x)||, which the caller already holds.  Returns alpha
    and the accepted trial's residual F(x + alpha d).  Nonfinite trial norms
    reject the step, so overflowing trial iterates simply halve alpha instead
    of aborting or warning.
    """
    alpha = 1.0
    for _ in range(MAX_HALVINGS + 1):
        r_trial = residual_fn(x + alpha * d)
        with np.errstate(over="ignore", invalid="ignore"):
            trial = float(np.linalg.norm(r_trial))
        if np.isfinite(trial) and trial <= sigma * current_norm:
            return alpha, r_trial
        alpha *= 0.5
    raise LineSearchError(
        f"no admissible step within {MAX_HALVINGS} halvings "
        f"(residual {current_norm:.3e})")


@dataclass(frozen=True)
class Ordered:
    """A matrix, or its LU factor, stored as M[order][:, order] (position
    inverts order); its products (GMRES's operator) and solves take and
    return natural-order vectors."""

    stored: object
    order: np.ndarray
    position: np.ndarray

    def __matmul__(self, v):
        return (self.stored @ v[self.order])[self.position]

    def solve(self, b):
        return self.stored.solve(b[self.order])[self.position]


def sparse_lu(jac, splu):
    """Ordered SuperLU factor of the Ordered jac; returns (factor, fallbacks).

    It makes every double-precision Jacobian factor: the state solve's, the
    local factors of RAS and RASPEN, and the fallback of a refined_direction
    that refinement rejects.  Each of them is stored in its pattern's
    fill-reducing order, so it is factored as stored, in SuperLU's
    symmetric mode with diagonal pivots, which fills far less than COLAMD
    with partial pivoting.  Without pivoting the factor may be inaccurate,
    so it is kept only if it solves jac z = jac @ ones to a relative
    residual of LU_PROBE_TOL.  Otherwise, or if that factorization raises,
    the stored matrix is refactored with splu's defaults and fallbacks is
    1; a singular jac raises from there.
    """
    matrix = jac.stored
    try:
        lu = splu(matrix, permc_spec="NATURAL", diag_pivot_thresh=0,
                  options=dict(SymmetricMode=True))
        b = matrix @ np.ones(matrix.shape[0])
        with np.errstate(all="ignore"):
            probe = np.linalg.norm(matrix @ lu.solve(b) - b) / np.linalg.norm(b)
        fallbacks = 0 if probe <= LU_PROBE_TOL else 1
    except RuntimeError:
        fallbacks = 1
    if fallbacks:
        lu = None  # free the rejected factor before making its replacement
        lu = splu(matrix)
    return Ordered(lu, jac.order, jac.position), fallbacks


def float32_lu(jac):
    """Single-precision SuperLU factor of the Ordered jac's stored matrix,
    made like sparse_lu's first try, or None if the factorization raises or
    an entry lies outside the float32 range (without a warning)."""
    with np.errstate(over="ignore"):
        single = jac.stored.astype(np.float32)
    if not np.isfinite(single.data).all():
        return None
    try:
        return spla.splu(single, permc_spec="NATURAL", diag_pivot_thresh=0,
                         options=dict(SymmetricMode=True))
    except RuntimeError:
        return None


def refined_solve(jac, rhs, lu):
    """Solution of the Ordered jac d = rhs refined on a float32 factor, and
    the number of float32 solves taken; the solution is None if it misses.

    lu is a float32_lu factor of jac or of an earlier Jacobian with the same
    stored order, and d is refined in double: d += LU32^-1 (rhs - jac d).
    Refinement stops once the relative residual no longer halves, or after
    MAX_REFINEMENTS solves, and keeps the d of smallest residual.  d is
    returned only at the roundoff floor: refinement stopped because the
    residual no longer halved, and that residual is at most LU_PROBE_TOL.
    """
    matrix, b = jac.stored, rhs[jac.order]
    b_norm = np.linalg.norm(b)
    d, r, rel = np.zeros_like(b), b, 1.0
    with np.errstate(all="ignore"):
        for solves in range(1, MAX_REFINEMENTS + 1):
            trial = d + lu.solve(r.astype(np.float32))
            r_trial = b - matrix @ trial
            rel_trial = np.linalg.norm(r_trial) / b_norm
            halved = rel_trial <= 0.5 * rel
            if rel_trial < rel:
                d, r, rel = trial, r_trial, rel_trial
            if not halved:
                break
    return (d[jac.position] if not halved and rel <= LU_PROBE_TOL else None), solves


def _guarded(fn, *args):
    """fn(*args), a RuntimeError of which ends the solve as a LinearSolveError."""
    try:
        return fn(*args)
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse factorization failed: {exc}") from exc


def _lu_solve(jac, rhs, report):
    """Solution of jac d = rhs by the guarded sparse LU, its fallback counted."""
    lu, fallbacks = _guarded(sparse_lu, jac, spla.splu)
    report.lu_fallbacks += fallbacks
    return lu.solve(rhs)


def lu_direction(jacobian_fn):
    """Direction function of the guarded sparse LU of jacobian_fn(x, eps)."""
    return lambda x, eps, rhs, report: (_lu_solve(jacobian_fn(x, eps), rhs, report), None)


def refined_direction(jacobian_fn):
    """Direction function of refined_solve on the Ordered jacobian_fn(x, eps).

    It refines on the float32 factor it holds, if any, and drops it if it
    misses before a fresh factor is made; the fresh factor is held only if
    its direction is kept, so at most one is alive.  A held factor whose
    kept direction took more than REFRESH_SOLVES solves is stale: that
    direction is returned and the next step makes a fresh factor (the rule
    counts solves, so reruns make the same factors).  A direction that no
    fresh factor gives is counted in the report and solved by the guarded
    sparse LU, whose fallback counts too.
    """
    held = None

    def refine(jac, rhs):
        nonlocal held
        if held is not None:
            d, solves = refined_solve(jac, rhs, held)
            if d is None or solves > REFRESH_SOLVES:
                held = None
            if d is not None:
                return d
        held = float32_lu(jac)
        d = refined_solve(jac, rhs, held)[0] if held is not None else None
        if d is None:
            held = None
        return d

    def direction(x, eps, rhs, report):
        if not rhs.any():  # refinement's relative residual would divide by 0
            return np.zeros_like(rhs), None
        jac = jacobian_fn(x, eps)
        d = _guarded(refine, jac, rhs)
        if d is None:
            report.lu_fallbacks += 1
            d = _lu_solve(jac, rhs, report)
        return d, None

    return direction


def gmres_direction(operator_fn, krylov, precond_fn=None):
    """Direction function of GMRES, within the KrylovConfig krylov, on the
    operator v -> J v that operator_fn(x, eps) returns, left-preconditioned
    by precond_fn(x, eps), if given, which is rebuilt every step."""
    def direction(x, eps, rhs, report):
        apply_op = operator_fn(x, eps)
        precond = precond_fn(x, eps) if precond_fn is not None else None
        result = gmres(apply_op, rhs, krylov, precond=precond)
        if not result.converged:
            raise LinearSolveError(
                f"GMRES stalled at residual {result.residual:.3e} "
                f"after {result.iters} iterations")
        return result.x, result.iters

    return direction


def newton_continuation(x0, residual_fn, direction_fn, sched, cfg, report=None):
    """Damped Newton on F_eps with the eps-continuation schedule.

    residual_fn(x, eps) -> vector; direction_fn(x, eps, rhs, report) -> (d,
    GMRES iterations or None) with J(x, eps) d = rhs.  The solve fills report
    (a new SolveReport by default), to which callbacks may add counts.
    Stopping threshold is max(tol, tol * ||F_eps0(x0)||), frozen at the
    initial residual.  While eps stays put the accepted line-search trial's
    residual is the next residual; a new eps needs one more evaluation.  A
    SolverFault ends the solve as a failed report that keeps the iterate and
    history reached (x0 and an empty history if the initial evaluation fails).
    """
    t0 = time.perf_counter()
    x = np.array(x0, dtype=float, copy=True)
    eps = sched.eps0
    report = report if report is not None else SolveReport()
    try:
        r = residual_fn(x, eps)
        with np.errstate(over="ignore", invalid="ignore"):
            nrm = float(np.linalg.norm(r))
        if not np.isfinite(nrm):
            raise SolverFault("nonfinite residual at the initial guess")
        report.threshold = max(cfg.tol, cfg.tol * nrm)
        report.residual_norms.append(nrm)
        report.eps_values.append(eps)
        while not (nrm <= report.threshold and eps == sched.eps_min):
            if report.outer_iters >= cfg.max_outer:
                report.failure = f"no convergence within {cfg.max_outer} outer iterations"
                break
            d, lin_iters = direction_fn(x, eps, -r, report)
            alpha, r = backtrack(x, d, lambda z: residual_fn(z, eps), cfg.sigma, nrm)
            nrm = float(np.linalg.norm(r))
            x_next = x + alpha * d
            eps_next = sched.next_eps(eps)
            if eps_next != eps:
                r = residual_fn(x_next, eps_next)
                nrm = float(np.linalg.norm(r))
            x, eps = x_next, eps_next
            report.outer_iters += 1
            report.alphas.append(alpha)
            report.gmres_iters.append(lin_iters)
            report.residual_norms.append(nrm)
            report.eps_values.append(eps)
    except SolverFault as exc:
        report.failure = str(exc)

    report.converged = report.failure is None
    report.wall_time = time.perf_counter() - t0
    return x, report
