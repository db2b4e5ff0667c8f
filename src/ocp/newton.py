"""Damped Newton with relaxed backtracking and eps-continuation.

The solver is generic over the residual/Jacobian pair, so the same core serves
the monolithic coupled system, plain semilinear state solves, and the local
subdomain solves inside the nonlinear preconditioner.  The smoothing parameter
follows eps_{k+1} = max(gamma * eps_k, eps_min); convergence is declared only
once eps has reached eps_min AND the residual test holds, since a small
residual of a smoother intermediate system is not a solution of the target one.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .krylov import KrylovConfig, SolverFault, gmres


class LineSearchError(SolverFault):
    """No admissible step length within the halving budget."""


class LinearSolveError(SolverFault):
    """The Newton direction solve failed or did not converge."""


# bound on the relative residual of the probe that accepts an unpivoted factor
LU_PROBE_TOL = 1e-10
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
    # the GMRES budget, used when the Jacobian is an operator
    linear_solver: KrylovConfig = KrylovConfig()

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.sigma < 1.0:
            raise ValueError("sigma must be at least 1")


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
    inverts order); products and solves take natural-order vectors."""

    stored: object
    order: np.ndarray
    position: np.ndarray

    def __matmul__(self, v):
        return (self.stored @ v[self.order])[self.position]

    def solve(self, b):
        return self.stored.solve(b[self.order])[self.position]


def sparse_lu(jac, splu):
    """SuperLU factor of a sparse or Ordered jac; returns (factor, fallbacks).

    The coupled Jacobians have a symmetric pattern, so the first try is
    SuperLU's symmetric mode with diagonal pivots, which fills far less than
    COLAMD with partial pivoting.  An Ordered matrix is factored as stored;
    any other is ordered by minimum degree on the pattern of A^T + A.
    Without pivoting the factor may be inaccurate, so it is kept only if it
    solves jac z = jac @ ones to a relative residual of LU_PROBE_TOL.
    Otherwise, or if that factorization raises, jac is refactored with
    splu's defaults and fallbacks is 1; a singular jac raises from there.
    """
    ordered = isinstance(jac, Ordered)
    matrix = jac.stored if ordered else jac.tocsc()
    try:
        lu = splu(matrix, permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
                  diag_pivot_thresh=0, options=dict(SymmetricMode=True))
        b = matrix @ np.ones(matrix.shape[0])
        with np.errstate(all="ignore"):
            probe = np.linalg.norm(matrix @ lu.solve(b) - b) / np.linalg.norm(b)
        fallbacks = 0 if probe <= LU_PROBE_TOL else 1
    except RuntimeError:
        fallbacks = 1
    if fallbacks:
        lu = None  # free the rejected factor before making its replacement
        lu = splu(matrix)
    return (Ordered(lu, jac.order, jac.position) if ordered else lu), fallbacks


def _solve_direction(jac, rhs, krylov, precond, report):
    """Newton direction and GMRES iterations: GMRES on a callable jac, else the
    guarded sparse LU (iterations None), its fallback counted in report."""
    if callable(jac):
        result = gmres(jac, rhs, krylov, precond=precond)
        if not result.converged:
            raise LinearSolveError(
                f"GMRES stalled at residual {result.residual:.3e} "
                f"after {result.iters} iterations")
        return result.x, result.iters
    try:
        lu, fallbacks = sparse_lu(jac, spla.splu)
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse factorization failed: {exc}") from exc
    report.lu_fallbacks += fallbacks
    return lu.solve(rhs), None


def newton_continuation(x0, residual_fn, jacobian_fn, sched, cfg, precond_builder=None,
                        report=None):
    """Damped Newton on F_eps with the eps-continuation schedule.

    residual_fn(x, eps) -> vector; jacobian_fn(x, eps) -> sparse matrix (LU)
    or callable v -> J v (GMRES); precond_builder(x, eps) -> left
    preconditioner callable, rebuilt every outer iteration.  The solve fills
    report (a new SolveReport by default), to which callbacks may add counts.
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
            jac = jacobian_fn(x, eps)
            precond = precond_builder(x, eps) if precond_builder is not None else None
            d, lin_iters = _solve_direction(jac, -r, cfg.linear_solver, precond, report)
            # this step's Jacobian and preconditioner factors go before the
            # line search and the next step make their own
            del jac, precond
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
