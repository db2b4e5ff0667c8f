"""Structured interior grid of the unit square and the discrete 5-point Laplacian."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .krylov import SolverFault


class NonfiniteFieldError(ValueError, SolverFault):
    """A field operation produced a NaN or Inf entry; inside a solve, a fault."""

    def __init__(self, where, index):
        self.where = where
        self.index = index
        super().__init__(f"nonfinite value in {where} at flat index {index}")


def check_finite(v, where):
    """Return v unchanged, raising NonfiniteFieldError at the first bad entry."""
    if not np.all(np.isfinite(v)):
        index = int(np.flatnonzero(~np.isfinite(v))[0])
        raise NonfiniteFieldError(where, index)
    return v


@dataclass(frozen=True)
class Grid:
    """Interior points of (0,1)^2, n per dimension, mesh width h = 1/(n+1).

    n counts interior points per dimension; boundary points carry homogeneous
    Dirichlet data and are eliminated from all vectors.  Flat (row-major)
    index k = i*n + j addresses the point (x1, x2) = ((i+1)h, (j+1)h).
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("grid needs at least one interior point per dimension")

    @property
    def h(self):
        return 1.0 / (self.n + 1)

    @property
    def size(self):
        return self.n * self.n

    def index(self, i, j):
        """Flat index of interior point (i, j)."""
        return i * self.n + j

    def coords(self, k):
        """Inverse of index: (i, j) of flat index k."""
        return divmod(int(k), self.n)

    def points(self):
        """Interior coordinates as flat arrays (x1, x2) matching field indexing."""
        t = self.h * np.arange(1, self.n + 1)
        x1, x2 = np.meshgrid(t, t, indexing="ij")
        return x1.ravel(), x2.ravel()

    def inner(self, u, v):
        """Mass-lumped L2 inner product with cell weight h^2."""
        return self.h ** 2 * float(np.dot(u, v))

    def norm(self, u):
        return float(np.sqrt(self.inner(u, u)))

    def h1_norm(self, v):
        """Discrete H1 norm: h^2 cell weight on values and forward differences.

        The field is extended by its homogeneous Dirichlet boundary (zeros), so
        differences across the boundary are included.
        """
        ext = np.zeros((self.n + 2, self.n + 2))
        ext[1:-1, 1:-1] = np.asarray(v).reshape(self.n, self.n)
        g1 = np.diff(ext, axis=0) / self.h
        g2 = np.diff(ext, axis=1) / self.h
        return float(np.sqrt(self.h ** 2 * (np.sum(ext ** 2) + np.sum(g1 ** 2) + np.sum(g2 ** 2))))


def build_laplacian(grid):
    """Discrete -Laplace operator: 5-point stencil scaled by 1/h^2, Dirichlet rows eliminated.

    Exactly symmetric by construction (kron of symmetric factors).
    """
    n = grid.n
    t = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")
    eye = sp.identity(n, format="csr")
    return ((sp.kron(eye, t) + sp.kron(t, eye)) / grid.h ** 2).tocsr()


def apply_nemytskii(f, v):
    """Apply a scalar function pointwise to a field, rejecting nonfinite output."""
    out = np.asarray(f(np.asarray(v, dtype=float)), dtype=float)
    return check_finite(out, "nemytskii evaluation")


def write_field_csv(path, grid, v):
    """Serialize a field: one CSV row per grid row, row-major, full precision."""
    np.savetxt(path, np.asarray(v).reshape(grid.n, grid.n), delimiter=",", fmt="%.17g")


def read_field_csv(path, grid):
    """Inverse of write_field_csv."""
    vals = np.loadtxt(path, delimiter=",", ndmin=2)
    if vals.shape != (grid.n, grid.n):
        raise ValueError(f"field file {path} has shape {vals.shape}, expected {(grid.n, grid.n)}")
    return vals.ravel()
