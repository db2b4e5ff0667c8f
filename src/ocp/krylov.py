"""Matrix-free GMRES with CGS2 Arnoldi and optional left preconditioning.

The operator and preconditioner are plain callables on vectors.  Preconditioning
is applied on the left, so the convergence test and the reported residual
live in the preconditioned norm; iteration counts must be read with that
convention in mind.  One Arnoldi cycle without restart, so the residual is
non-increasing in the iteration cap and directly comparable across runs.  The
basis is the rows of a (cap + 1, n) array, orthogonalized by classical
Gram-Schmidt run twice (CGS2: two BLAS-2 passes h = Q w, w -= Q^T h; Giraud,
Langou, Rozloznik 2005).
"""

from dataclasses import dataclass

import numpy as np


class SolverFault(RuntimeError):
    """A solve that cannot go on; the Newton core records it as the failure."""


class GmresBreakdownError(SolverFault):
    """Nonfinite Arnoldi entries or a singular Hessenberg column."""


@dataclass(frozen=True)
class KrylovConfig:
    rel_tol: float = 1e-12
    max_iters: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class GmresResult:
    x: np.ndarray
    iters: int
    residual: float
    converged: bool


def gmres(apply_op, b, cfg=None, precond=None, x0=None):
    """Solve apply_op(x) = b; returns GmresResult with the final residual.

    Convergence: ||M(A x - b)|| <= rel_tol * ||M b|| with M the (optional)
    left preconditioner, within one cycle of at most max_iters steps.  A
    vanishing Arnoldi subdiagonal (happy breakdown) means the solution lies in
    the current subspace and counts as convergence.
    """
    cfg = cfg or KrylovConfig()
    apply_m = precond if precond is not None else (lambda v: v)
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=float).copy()

    mb = apply_m(b)
    threshold = cfg.rel_tol * float(np.linalg.norm(mb))
    r = mb if x0 is None else apply_m(b - apply_op(x))
    beta = float(np.linalg.norm(r))
    if not np.isfinite(beta):
        raise GmresBreakdownError("nonfinite initial residual")
    if beta <= threshold:
        return GmresResult(x, 0, beta, True)

    max_steps, n = cfg.max_iters, r.shape[0]
    cap = min(32, max_steps)
    q = np.empty((cap + 1, n))
    q[0] = r / beta
    # Hessenberg columns after Givens rotations, the rotations, and the rhs
    h_cols, cs, sn = [], [], []
    g = np.zeros(max_steps + 1)
    g[0] = beta

    residual = beta
    converged = False
    j = 0
    for j in range(max_steps):
        if j + 1 > cap:
            cap = min(2 * cap, max_steps)
            grown = np.empty((cap + 1, n))
            grown[:j + 1] = q[:j + 1]
            q = grown
        # copy: identity-like operators may hand back a view of the basis
        # row, and the in-place orthogonalization must not touch q
        w = np.array(apply_m(apply_op(q[j])), dtype=float, copy=True)
        basis, h = q[:j + 1], np.zeros(j + 2)
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(2):
                coeffs = basis @ w
                w -= coeffs @ basis
                h[:j + 1] += coeffs
            h[j + 1] = float(np.linalg.norm(w))
        if not np.all(np.isfinite(h)):
            raise GmresBreakdownError(f"nonfinite Arnoldi entries at iteration {j + 1}")

        happy = h[j + 1] <= 1e-14 * max(1.0, float(np.max(np.abs(h[:j + 1]))))
        if not happy:
            q[j + 1] = w / h[j + 1]

        for i in range(j):
            hi = cs[i] * h[i] + sn[i] * h[i + 1]
            h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1]
            h[i] = hi
        rad = float(np.hypot(h[j], h[j + 1]))
        if rad == 0.0:  # the operator is singular on the invariant Krylov space
            raise GmresBreakdownError(f"singular Hessenberg at iteration {j + 1}")
        c, s = h[j] / rad, h[j + 1] / rad
        cs.append(c)
        sn.append(s)
        h[j] = rad
        g[j + 1] = -s * g[j]
        g[j] = c * g[j]
        h_cols.append(h[:j + 1].copy())

        residual = abs(float(g[j + 1]))
        if residual <= threshold or happy:
            converged = True
            break

    steps = j + 1
    # back substitution on the triangular system accumulated by the rotations
    rmat = np.zeros((steps, steps))
    for col, colvals in enumerate(h_cols):
        rmat[:col + 1, col] = colvals
    y = np.zeros(steps)
    for i in range(steps - 1, -1, -1):
        y[i] = (g[i] - float(np.dot(rmat[i, i + 1:], y[i + 1:]))) / rmat[i, i]
    return GmresResult(x + y @ q[:steps], steps, residual, converged)
