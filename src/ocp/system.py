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
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid, build_laplacian, check_finite
from .krylov import SolverFault
from .newton import ContinuationSchedule, NewtonConfig, Ordered, newton_continuation
from .smoothing import smoothed_projection, smoothed_projection_derivative

# exp(700) is near the double-precision ceiling; larger arguments only occur
# on diverging line-search trials, which the caller rejects anyway
EXP_ARG_MAX = 700.0
STATE_TOL = 1e-12  # Newton tolerance of solve_state
EPS_CONSTRUCT = 1e-15  # eps of the control the manufactured problems recover


# phi's polynomial part s^3 and its first two derivatives
_POLY = (lambda s: s ** 3, lambda s: 3.0 * s ** 2, lambda s: 6.0 * s)


@dataclass(frozen=True)
class Nonlinearity:
    """The semilinear term phi(s) = kappa (s^3 + exp(kappa s)) and derivatives.

    kappa = 0 gives the linear problem (phi identically zero).  The exponent
    is clamped at EXP_ARG_MAX, so an evaluation never raises and line-search
    trials stay usable; only the Jacobian assembly, through _checked, treats
    a clamped or nonfinite entry as a fault.
    """

    kappa: float = 0.1

    def _term(self, s: np.ndarray, order: int) -> np.ndarray:
        """phi's order-th derivative: kappa (poly(s) + kappa^order exp(kappa s))."""
        if self.kappa == 0.0:
            return np.zeros_like(s)
        with np.errstate(over="ignore", invalid="ignore"):
            return self.kappa * (_POLY[order](s) + self.kappa ** order
                                 * np.exp(np.minimum(self.kappa * s, EXP_ARG_MAX)))

    def value(self, s: np.ndarray) -> np.ndarray:
        return self._term(s, 0)

    def derivative(self, s: np.ndarray) -> np.ndarray:
        return self._term(s, 1)

    def second_derivative(self, s: np.ndarray) -> np.ndarray:
        return self._term(s, 2)


def _checked(phi: Nonlinearity, s: np.ndarray, values: np.ndarray,
             where: str) -> np.ndarray:
    """values (a derivative of phi at s) for a Jacobian: the first entry that
    is nonfinite or had its exponent clamped raises NonfiniteFieldError."""
    with np.errstate(over="ignore", invalid="ignore"):
        clamped = phi.kappa * s > EXP_ARG_MAX
    check_finite(np.where(clamped, np.inf, values), where)
    return values


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

    @cached_property
    def pattern(self):  # built on the first assembly
        return PairPattern(self.a)


def merge_pair(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.concatenate([y, p])


def split_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n2 = x.shape[0] // 2
    return x[:n2], x[n2:]


def residual_rows(ay, ap, y, p, f, y_d, spec, eps):
    """Residual rows given precomputed operator actions ay = A y, ap = A p.

    Factored out so local subdomain systems can reuse the exact formulas
    with their own operator actions and boundary couplings folded into
    ay and ap, and their own data f and y_d; spec gives phi, nu and mu.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        control_term = (p + spec.mu * smoothed_projection(-p / spec.mu, eps)) / spec.nu
        r1 = ay + spec.phi.value(y) - f + control_term
        r2 = ap + spec.phi.derivative(y) * p - y + y_d
    return r1, r2


def jacobian_diagonals(y, p, spec, eps):
    """Diagonal entries of the three non-operator Jacobian blocks.

    Returns (dphi_y, b12, b21) where the Jacobian is
    [[A + diag(dphi_y), diag(b12)], [diag(b21), A + diag(dphi_y)]].
    An overflow in phi' or phi'' raises NonfiniteFieldError.
    """
    dphi_y = _checked(spec.phi, y, spec.phi.derivative(y), "phi'(y)")
    b12 = (1.0 - smoothed_projection_derivative(-p / spec.mu, eps)) / spec.nu
    b21 = _checked(spec.phi, y, spec.phi.second_derivative(y), "phi''(y)") * p - 1.0
    return dphi_y, b12, b21


def residual(x: np.ndarray, spec: ProblemSpec, eps: float,
             check: bool = False) -> np.ndarray:
    """F_eps(x).  Nonfinite entries are returned, since the line search
    rejects such trials; check=True raises NonfiniteFieldError instead."""
    y, p = split_pair(x)
    out = merge_pair(*residual_rows(spec.a @ y, spec.a @ p, y, p, spec.f,
                                    spec.y_d, spec, eps))
    return check_finite(out, "residual") if check else out


class PairPattern:
    """Fixed pattern of the Jacobian [[a + D1, D12], [D21, a + D1]] of one operator.

    Ordered once by SuperLU's symmetric-mode minimum degree on a + I, with
    each grid point's (y_k, p_k) kept adjacent; only the diagonals change.
    """

    def __init__(self, a):
        n = a.shape[0]
        lu = spla.splu((a + sp.identity(n)).tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0, options=dict(SymmetricMode=True))
        points = np.argsort(lu.perm_c)  # perm_c[k] is the position of point k
        self.order = np.column_stack([points, points + n]).ravel()
        self.position = np.argsort(self.order)
        coo, k = a.tocoo(), np.arange(n)
        # a in both diagonal blocks, then the diagonals of a + D1 (twice), D12, D21
        rows = self.position[np.r_[coo.row, coo.row + n, k, k + n, k, k + n]]
        cols = self.position[np.r_[coo.col, coo.col + n, k, k + n, k + n, k]]
        # column-major keys of the ordered entries sort like a canonical CSC
        stored, slots = np.unique(cols * (2 * n) + rows, return_inverse=True)
        values = np.zeros(stored.size)
        values[slots[:2 * coo.nnz]] = np.tile(coo.data, 2)
        self.template = sp.csc_matrix(
            (values, stored % (2 * n), np.searchsorted(stored, np.arange(2 * n + 1) * (2 * n))),
            shape=(2 * n, 2 * n))
        self.diag_slots = slots[2 * coo.nnz:]
        self.a_diag = values[self.diag_slots[:n]]


def pair_jacobian(pattern, y: np.ndarray, p: np.ndarray, spec: ProblemSpec,
                  eps: float) -> Ordered:
    """Jacobian at the pair (y, p): the pattern's operator values with the
    diagonals written into their slots.  The global system (spec.pattern)
    and each local subdomain system (its own pattern) share this assembly.
    """
    dphi_y, b12, b21 = jacobian_diagonals(y, p, spec, eps)
    jac = pattern.template.copy()
    a11 = pattern.a_diag + dphi_y
    jac.data[pattern.diag_slots] = np.concatenate([a11, a11, b12, b21])
    return Ordered(jac, pattern.order, pattern.position)


def jacobian(x: np.ndarray, spec: ProblemSpec, eps: float) -> Ordered:
    return pair_jacobian(spec.pattern, *split_pair(x), spec, eps)


def jacobian_operator(x: np.ndarray, spec: ProblemSpec, eps: float):
    """d -> F_eps'(x) d without assembly; the diagonals are checked once, here."""
    dphi_y, b12, b21 = jacobian_diagonals(*split_pair(x), spec, eps)

    def apply(d):
        dy, dp = split_pair(d)
        return merge_pair(spec.a @ dy + dphi_y * dy + b12 * dp,
                          b21 * dy + spec.a @ dp + dphi_y * dp)
    return apply


def jacobian_apply(x: np.ndarray, d: np.ndarray, spec: ProblemSpec,
                   eps: float) -> np.ndarray:
    """Directional derivative of the residual at x, applied matrix-free."""
    return jacobian_operator(x, spec, eps)(d)


def recover_control(p: np.ndarray, spec: ProblemSpec, eps: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # extreme mu / nu
        return -(p + spec.mu * smoothed_projection(-p / spec.mu, eps)) / spec.nu


def solve_state(u: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Solve the semilinear state equation A y + phi(y) = f + u."""
    rhs = spec.f + u

    def state_residual(y, eps):
        return spec.a @ y + spec.phi.value(y) - rhs

    def state_jacobian(y, eps):
        dphi = _checked(spec.phi, y, spec.phi.derivative(y), "phi'(y)")
        return (spec.a + sp.diags(dphi)).tocsr()

    y, report = newton_continuation(
        np.zeros(spec.grid.size), state_residual, state_jacobian,
        ContinuationSchedule.fixed(1.0), NewtonConfig(tol=STATE_TOL))
    if not report.converged:
        raise SolverFault(f"state solve failed: {report.failure}")
    return y


def construct_test_problem(grid: Grid, kappa: float = 0.1, nu: float = 1e-6,
                           mu: float = 1.0, k_tilde: int = 5
                           ) -> tuple[ProblemSpec, tuple[np.ndarray, np.ndarray]]:
    """Manufactured oscillatory problem and its known solution pair (y, p).

    Prescribes the adjoint p(x1,x2) = 1.3 mu sin(2 pi k x1) sin(2 pi k x2),
    recovers the control at EPS_CONSTRUCT, solves the state equation, then
    chooses y_d so the adjoint row vanishes at the prescribed pair.
    """
    x1, x2 = grid.points()
    p_bar = 1.3 * mu * np.sin(2.0 * np.pi * k_tilde * x1) * \
        np.sin(2.0 * np.pi * k_tilde * x2)
    return _manufacture(grid, p_bar, kappa, nu, mu)


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
                              mu: float = 1.0
                              ) -> tuple[ProblemSpec, tuple[np.ndarray, np.ndarray]]:
    """Manufactured problem whose adjoint has |p| = mu on a square."""
    x1, x2 = grid.points()
    p_bar = mu * plateau_profile(x1) * plateau_profile(x2)
    return _manufacture(grid, p_bar, kappa, nu, mu)


def _manufacture(grid, p_bar, kappa, nu, mu):
    a = build_laplacian(grid)
    phi = Nonlinearity(kappa)
    spec = ProblemSpec(grid=grid, a=a, phi=phi, nu=nu, mu=mu,
                       f=np.zeros(grid.size), y_d=np.zeros(grid.size))
    u_bar = recover_control(p_bar, spec, EPS_CONSTRUCT)
    y_bar = solve_state(u_bar, spec)
    y_d = y_bar - a @ p_bar - phi.derivative(y_bar) * p_bar
    spec = dataclasses.replace(spec, y_d=y_d)
    return spec, (y_bar, p_bar)


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
