"""Discrete smoothed optimality system for the L1-regularized control problem.

The reduced unknown is the pair x = (y, p) of state and adjoint on a shared
grid.  The residual rows are

    A y + phi(y) - f + (1/nu) (p + mu P_eps(-p/mu)) = 0,
    A p + phi'(y) p - y + y_d                        = 0,

and the control never appears explicitly: it is recovered from the adjoint
through the stationarity identity p + nu u + mu P_eps(-p/mu) = 0.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import Grid, build_laplacian, check_finite
from .newton import ContinuationSchedule, NewtonConfig, newton_continuation
from .smoothing import (penalty_antiderivative, smoothed_projection,
                        smoothed_projection_derivative)

# exp(700) is near the double-precision ceiling; larger arguments only occur
# on diverging line-search trials, which the caller rejects anyway
EXP_ARG_MAX = 700.0


@dataclass(frozen=True)
class Nonlinearity:
    """The semilinear term phi(s) = kappa (s^3 + exp(kappa s)) and derivatives.

    kappa = 0 gives the linear problem (phi identically zero).  With
    check=True an argument that would overflow the exponential raises
    NonfiniteFieldError through check_finite; with check=False the exponent
    is clamped so line-search trial evaluations stay finite.
    """

    kappa: float = 0.1

    def _exp(self, s: np.ndarray) -> np.ndarray:
        return np.exp(np.minimum(self.kappa * s, EXP_ARG_MAX))

    def value(self, s: np.ndarray, check: bool = True) -> np.ndarray:
        if self.kappa == 0.0:
            return np.zeros_like(s)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.kappa * (s ** 3 + self._exp(s))
        if check:
            check_finite(np.where(self.kappa * s > EXP_ARG_MAX, np.inf, out),
                         "phi(y)")
        return out

    def derivative(self, s: np.ndarray, check: bool = True) -> np.ndarray:
        if self.kappa == 0.0:
            return np.zeros_like(s)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.kappa * (3.0 * s ** 2 + self.kappa * self._exp(s))
        if check:
            check_finite(np.where(self.kappa * s > EXP_ARG_MAX, np.inf, out),
                         "phi'(y)")
        return out

    def second_derivative(self, s: np.ndarray, check: bool = True) -> np.ndarray:
        if self.kappa == 0.0:
            return np.zeros_like(s)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.kappa * (6.0 * s + self.kappa ** 2 * self._exp(s))
        if check:
            check_finite(np.where(self.kappa * s > EXP_ARG_MAX, np.inf, out),
                         "phi''(y)")
        return out


@dataclass(frozen=True)
class ProblemSpec:
    """Data of one discrete problem: operator, nonlinearity, weights, data."""

    grid: Grid
    a: sp.csr_matrix
    phi: Nonlinearity
    nu: float
    mu: float
    f: np.ndarray
    y_d: np.ndarray

    def __post_init__(self):
        if self.nu <= 0.0 or self.mu <= 0.0:
            raise ValueError("nu and mu must be positive")
        n2 = self.grid.size
        if self.a.shape != (n2, n2) or self.f.shape != (n2,) or self.y_d.shape != (n2,):
            raise ValueError("operator and data shapes do not match the grid")


@dataclass(frozen=True)
class StatePair:
    """State/adjoint pair on a shared grid."""

    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if self.y.shape != self.p.shape:
            raise ValueError("state and adjoint must have the same shape")


def merge_pair(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.concatenate([y, p])


def split_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n2 = x.shape[0] // 2
    return x[:n2], x[n2:]


def residual_rows(ay, ap, y, p, f, y_d, phi, nu, mu, eps, check=True):
    """Residual rows given precomputed operator actions ay = A y, ap = A p.

    Factored out so local subdomain systems can reuse the exact formulas
    with their own operator actions and boundary couplings folded into
    ay and ap.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        control_term = (p + mu * smoothed_projection(-p / mu, eps)) / nu
        r1 = ay + phi.value(y, check=check) - f + control_term
        r2 = ap + phi.derivative(y, check=check) * p - y + y_d
    if check:
        check_finite(r1, "residual row 1")
        check_finite(r2, "residual row 2")
    return r1, r2


def jacobian_diagonals(y, p, phi, nu, mu, eps):
    """Diagonal entries of the three non-operator Jacobian blocks.

    Returns (dphi_y, b12, b21) where the Jacobian is
    [[A + diag(dphi_y), diag(b12)], [diag(b21), A + diag(dphi_y)]].
    """
    dphi_y = phi.derivative(y)
    b12 = (1.0 - smoothed_projection_derivative(-p / mu, eps)) / nu
    b21 = phi.second_derivative(y) * p - 1.0
    return dphi_y, b12, b21


def residual(x: np.ndarray, spec: ProblemSpec, eps: float,
             check: bool = True) -> np.ndarray:
    y, p = split_pair(x)
    r1, r2 = residual_rows(spec.a @ y, spec.a @ p, y, p, spec.f, spec.y_d,
                           spec.phi, spec.nu, spec.mu, eps, check=check)
    return merge_pair(r1, r2)


def pair_jacobian(a, y: np.ndarray, p: np.ndarray, spec: ProblemSpec,
                  eps: float) -> sp.csr_matrix:
    """Assembled Jacobian [[a + D1, D12], [D21, a + D1]] at the pair (y, p).

    The operator comes from the caller, as in residual_rows, so the global
    system (a = spec.a) and each local subdomain system (its a_loc) share
    this one assembly.
    """
    dphi_y, b12, b21 = jacobian_diagonals(y, p, spec.phi, spec.nu, spec.mu, eps)
    a11 = a + sp.diags(dphi_y)
    return sp.bmat([[a11, sp.diags(b12)], [sp.diags(b21), a11]], format="csr")


def jacobian(x: np.ndarray, spec: ProblemSpec, eps: float) -> sp.csr_matrix:
    return pair_jacobian(spec.a, *split_pair(x), spec, eps)


def jacobian_apply(x: np.ndarray, d: np.ndarray, spec: ProblemSpec,
                   eps: float) -> np.ndarray:
    """Directional derivative of the residual at x, applied matrix-free."""
    y, p = split_pair(x)
    dy, dp = split_pair(d)
    dphi_y, b12, b21 = jacobian_diagonals(y, p, spec.phi, spec.nu, spec.mu, eps)
    out1 = spec.a @ dy + dphi_y * dy + b12 * dp
    out2 = b21 * dy + spec.a @ dp + dphi_y * dp
    return merge_pair(out1, out2)


def recover_control(p: np.ndarray, spec: ProblemSpec, eps: float) -> np.ndarray:
    return -(p + spec.mu * smoothed_projection(-p / spec.mu, eps)) / spec.nu


def recover_multiplier(p: np.ndarray, spec: ProblemSpec, eps: float) -> np.ndarray:
    return smoothed_projection(-p / spec.mu, eps)


def solve_state(u: np.ndarray, spec: ProblemSpec, tol: float = 1e-12) -> np.ndarray:
    """Solve the semilinear state equation A y + phi(y) = f + u."""
    rhs = spec.f + u

    # check=False: diverging line-search trials must yield nonfinite norms,
    # not exceptions; the convergence test guards the accepted iterate
    def state_residual(y, eps):
        return spec.a @ y + spec.phi.value(y, check=False) - rhs

    def state_jacobian(y, eps):
        return (spec.a + sp.diags(spec.phi.derivative(y))).tocsr()

    y, report = newton_continuation(
        np.zeros(spec.grid.size), state_residual, state_jacobian,
        ContinuationSchedule.fixed(1.0), NewtonConfig(tol=tol))
    if not report.converged:
        raise RuntimeError(f"state solve failed: {report.failure}")
    return y


def objective(u: np.ndarray, spec: ProblemSpec, eps: float,
              quad_tol: float = 1e-10) -> float:
    """Regularized reduced objective with h^2 cell weights.

    J_eps(u) = 1/2 ||S(u) - y_d||^2 + nu/2 ||u||^2 + mu * sum h^2 D_eps(u_i),
    where D_eps is the penalty antiderivative with ratio nu/mu.
    """
    y = solve_state(u, spec)
    h2 = spec.grid.h ** 2
    tracking = 0.5 * h2 * float(np.sum((y - spec.y_d) ** 2))
    tikhonov = 0.5 * spec.nu * h2 * float(np.sum(u ** 2))
    ratio = spec.nu / spec.mu
    penalty = h2 * sum(penalty_antiderivative(float(ui), eps, ratio,
                                              quad_tol=quad_tol)
                       for ui in u)
    return tracking + tikhonov + spec.mu * penalty


def construct_test_problem(grid: Grid, kappa: float = 0.1, nu: float = 1e-6,
                           mu: float = 1.0, k_tilde: int = 5,
                           eps_construct: float = 1e-15
                           ) -> tuple[ProblemSpec, StatePair]:
    """Manufactured oscillatory problem with a known solution pair.

    Prescribes the adjoint p(x1,x2) = 1.3 mu sin(2 pi k x1) sin(2 pi k x2),
    recovers the control at eps_construct, solves the state equation, then
    chooses y_d so the adjoint row vanishes at the prescribed pair.
    """
    x1, x2 = grid.points()
    p_bar = 1.3 * mu * np.sin(2.0 * np.pi * k_tilde * x1) * \
        np.sin(2.0 * np.pi * k_tilde * x2)
    return _manufacture(grid, p_bar, kappa, nu, mu, eps_construct)


def plateau_profile(x: np.ndarray) -> np.ndarray:
    """One-dimensional factor s(x) of the plateau adjoint.

    s(x) = max{1, 2|sin(2 pi x)|} on [0.25, 0.75] and 2|sin(2 pi x)|
    elsewhere, so s = 1 exactly on [5/12, 7/12]: the product adjoint sits
    on the kink of the projection on a square of positive area.
    """
    base = 2.0 * np.abs(np.sin(2.0 * np.pi * x))
    inside = (x >= 0.25) & (x <= 0.75)
    return np.where(inside, np.maximum(1.0, base), base)


def construct_plateau_problem(grid: Grid, kappa: float = 0.1, nu: float = 1e-6,
                              mu: float = 1.0, eps_construct: float = 1e-15
                              ) -> tuple[ProblemSpec, StatePair]:
    """Manufactured problem whose adjoint has |p| = mu on a square."""
    x1, x2 = grid.points()
    p_bar = mu * plateau_profile(x1) * plateau_profile(x2)
    return _manufacture(grid, p_bar, kappa, nu, mu, eps_construct)


def _manufacture(grid, p_bar, kappa, nu, mu, eps_construct):
    a = build_laplacian(grid)
    phi = Nonlinearity(kappa)
    spec = ProblemSpec(grid=grid, a=a, phi=phi, nu=nu, mu=mu,
                       f=np.zeros(grid.size), y_d=np.zeros(grid.size))
    u_bar = recover_control(p_bar, spec, eps_construct)
    y_bar = solve_state(u_bar, spec)
    y_d = y_bar - a @ p_bar - phi.derivative(y_bar) * p_bar
    spec = dataclasses.replace(spec, y_d=y_d)
    return spec, StatePair(y=y_bar, p=p_bar)


def sparsity_target_problem(grid: Grid, mu: float, kappa: float = 0.1,
                            nu: float = 1e-6) -> ProblemSpec:
    """Tracking problem with a smooth anisotropic target and zero source.

    Used for the sparsity study: as mu grows the recovered control must
    vanish on a growing region.
    """
    x1, x2 = grid.points()
    y_d = np.sin(2.0 * np.pi * x1) * np.sin(2.0 * np.pi * x2) * \
        np.exp(2.0 * x1) / 6.0
    return ProblemSpec(grid=grid, a=build_laplacian(grid), phi=Nonlinearity(kappa),
                       nu=nu, mu=mu, f=np.zeros(grid.size), y_d=y_d)
