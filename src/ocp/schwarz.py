"""Overlapping domain decomposition on the interior grid.

Three layers on top of a rectangular tiling with m-cell overlap:

  * a linear one-level RAS preconditioner for the monolithic Newton's GMRES,
  * nonlinear local corrections (frozen-exterior subdomain solves) and the
    RAS fixed-point recombination,
  * the nonlinearly preconditioned outer solver: Newton on the fixed-point
    residual, with the Jacobian action assembled from frozen local
    factorizations and applied matrix-free inside GMRES.

Each subdomain's local correction and the factorization at its result run as
one task of a parallel map over subdomains; recombination writes are disjoint
by the ownership partition, so the result is independent of thread
scheduling.  The map runs on owner lanes, one single-thread executor each:
subdomain i always runs on lane i mod their number, and its frozen factor is
released on that same lane, because SuperLU frees a factor's storage only on
the thread that made it (dropped on another thread, the storage leaks).  The
per-matvec local triangular solves inside the outer GMRES stay sequential; at
n=128 on 2x2 each takes about 1.3 ms on a 2-core host.
"""

from concurrent.futures import ThreadPoolExecutor
import contextlib
from dataclasses import dataclass, field, replace
from functools import cached_property
import os

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid
from .newton import (ContinuationSchedule, NewtonConfig, SolverFault,
                     newton_continuation, sparse_lu)
from .system import PairPattern, pair_jacobian, residual_rows, split_pair


class LocalSolveError(SolverFault):
    """A subdomain correction solve failed; carries the subdomain id."""

    def __init__(self, subdomain, message):
        self.subdomain = subdomain
        super().__init__(f"subdomain {subdomain}: {message}")


@dataclass(frozen=True)
class Subdomain:
    """Index sets of one overlapping subdomain and its ownership block.

    idx holds the sorted global flat indices of the overlap rectangle;
    pair_idx repeats it for the (y, p) block layout of length 2N, pair_own
    holds the owned entries in that layout and pair_own_in_local locates
    them inside the local vector.
    """

    idx: np.ndarray
    pair_idx: np.ndarray
    pair_own: np.ndarray
    pair_own_in_local: np.ndarray

    @property
    def size(self):
        return self.idx.shape[0]


@dataclass(frozen=True)
class Decomposition:
    grid: Grid
    subdomains: tuple

    def __len__(self):
        return len(self.subdomains)


def _tile_edges(n, parts):
    """Near-equal split of range(n); remainder cells go to the last tile."""
    base, rem = divmod(n, parts)
    if base == 0:
        raise ValueError(f"cannot tile {n} points into {parts} nonempty parts")
    sizes = [base] * (parts - 1) + [base + rem]
    edges = np.concatenate([[0], np.cumsum(sizes)])
    return [(int(edges[k]), int(edges[k + 1])) for k in range(parts)]


def _rect_indices(n, rows, cols):
    r = np.arange(rows[0], rows[1])
    c = np.arange(cols[0], cols[1])
    return (r[:, None] * n + c[None, :]).ravel()


def decompose(grid, s1, s2, m):
    """Tile the interior into s1 x s2 ownership blocks, dilated by m cells."""
    if s1 < 1 or s2 < 1:
        raise ValueError("need at least one tile per dimension")
    if m < 0:
        raise ValueError("overlap must be nonnegative")
    row_tiles = _tile_edges(grid.n, s1)
    col_tiles = _tile_edges(grid.n, s2)
    if s1 > 1 and m > min(b - a for a, b in row_tiles):
        raise ValueError("overlap exceeds neighbor tile in the row direction")
    if s2 > 1 and m > min(b - a for a, b in col_tiles):
        raise ValueError("overlap exceeds neighbor tile in the column direction")

    n2 = grid.size
    subdomains = []
    for r0, r1 in row_tiles:
        for c0, c1 in col_tiles:
            rows = (max(0, r0 - m), min(grid.n, r1 + m))
            cols = (max(0, c0 - m), min(grid.n, c1 + m))
            idx = _rect_indices(grid.n, rows, cols)
            own = _rect_indices(grid.n, (r0, r1), (c0, c1))
            own_in_local = np.searchsorted(idx, own)
            pair_idx = np.concatenate([idx, idx + n2])
            pair_own = np.concatenate([own, own + n2])
            pair_own_in_local = np.concatenate(
                [own_in_local, own_in_local + idx.shape[0]])
            subdomains.append(Subdomain(
                idx=idx, pair_idx=pair_idx, pair_own=pair_own,
                pair_own_in_local=pair_own_in_local))
    return Decomposition(grid=grid, subdomains=tuple(subdomains))


@dataclass(frozen=True)
class LocalSystem:
    """Restriction of the discrete operator to one subdomain.

    a_loc couples local points among themselves; a_ext holds the same stencil
    rows with local columns zeroed, so a_ext @ global_field yields exactly the
    frozen-exterior Dirichlet coupling of the transmission conditions.
    """

    a_loc: sp.csr_matrix
    a_ext: sp.csr_matrix
    f_loc: np.ndarray
    yd_loc: np.ndarray

    @cached_property
    def pattern(self):  # built on the first local assembly
        return PairPattern(self.a_loc)


def build_local_systems(dec, spec):
    n2 = dec.grid.size
    in_local = np.zeros(n2, dtype=bool)
    systems = []
    for sub in dec.subdomains:
        in_local[sub.idx] = True
        rows = spec.a[sub.idx, :].tocoo()
        mask = in_local[rows.col]
        size = sub.size
        a_loc = sp.coo_matrix(
            (rows.data[mask],
             (rows.row[mask], np.searchsorted(sub.idx, rows.col[mask]))),
            shape=(size, size)).tocsr()
        a_ext = sp.coo_matrix(
            (rows.data[~mask], (rows.row[~mask], rows.col[~mask])),
            shape=(size, n2)).tocsr()
        systems.append(LocalSystem(a_loc=a_loc, a_ext=a_ext,
                                   f_loc=spec.f[sub.idx], yd_loc=spec.y_d[sub.idx]))
        in_local[sub.idx] = False
    return systems


def _local_problem(loc, spec, x):
    """Residual/Jacobian closures of the frozen-exterior local system."""
    size = loc.f_loc.shape[0]
    y_glob, p_glob = split_pair(x)
    e_y = loc.a_ext @ y_glob
    e_p = loc.a_ext @ p_glob

    def local_residual(v, eps):
        y, p = v[:size], v[size:]
        r1, r2 = residual_rows(loc.a_loc @ y + e_y, loc.a_loc @ p + e_p, y, p,
                               loc.f_loc, loc.yd_loc, spec.phi, spec.nu,
                               spec.mu, eps)
        return np.concatenate([r1, r2])

    def local_jacobian(v, eps):
        return pair_jacobian(loc.pattern, *split_pair(v), spec, eps)

    return local_residual, local_jacobian


def _factor_local(i, loc, v, spec, eps):
    """Local block Jacobian of subdomain i at local values v, its LU and the
    LU's fallback count."""
    jac_loc = pair_jacobian(loc.pattern, *split_pair(v), spec, eps)
    try:
        return jac_loc, *sparse_lu(jac_loc, spla.splu)
    except RuntimeError as exc:
        raise LocalSolveError(i, f"singular local Jacobian: {exc}") from exc


def _solve_and_factor(i, sub, loc, spec, x, eps, sched, cfg):
    """Frozen-exterior Newton solve on subdomain i, then the LU at its result."""
    res, jac = _local_problem(loc, spec, x)
    v, report = newton_continuation(x[sub.pair_idx], res, jac, sched, cfg)
    if not report.converged:
        raise LocalSolveError(i, report.failure)
    jac_loc, lu, fallbacks = _factor_local(i, loc, v, spec, eps)
    return v, report.outer_iters, jac_loc, lu, report.lu_fallbacks + fallbacks


@contextlib.contextmanager
def _subdomain_pool(threads, tasks):
    """Owner lanes for a map over tasks subdomains, or None to map inline.

    The lanes are min(workers, tasks) single-thread executors.  threads=0
    uses one worker per subdomain, up to cpu_count; a single worker maps on
    the calling thread.
    """
    workers = min(threads if threads else os.cpu_count() or 1, tasks)
    if workers == 1:
        yield None
        return
    lanes = [ThreadPoolExecutor(max_workers=1) for _ in range(workers)]
    try:
        yield lanes
    finally:
        for lane in lanes:
            lane.shutdown()


def _release(items, lanes):
    """Empty the list items, dropping items[i] on lane i % len(lanes).

    SuperLU frees a factor's storage only on the thread that made it, so a
    factor made by subdomain i's task must lose its last reference there.
    """
    if lanes is None:
        items.clear()
        return
    shares = [items[k::len(lanes)] for k in range(len(lanes))]
    items.clear()
    for future in [lane.submit(share.clear) for lane, share in zip(lanes, shares)]:
        future.result()


def _parallel_map(fn, items, lanes):
    """[fn(*item) for item in items], item i on lane i % len(lanes).

    If a task raises, the results of the others are released on their own
    lanes and the exception of the first failing item is raised.
    """
    if lanes is None:
        return [fn(*item) for item in items]
    futures = [lanes[i % len(lanes)].submit(fn, *item)
               for i, item in enumerate(items)]
    errors = [f.exception() for f in futures]  # waits for every task
    if not any(errors):
        return [f.result() for f in futures]
    results = [None if e else f.result() for f, e in zip(futures, errors)]
    del futures  # they hold the results too, and would drop them on this thread
    _release(results, lanes)
    raise next(e for e in errors if e)


def _scatter_own(dec, values):
    """Global pair vector made of each local vector's owned entries."""
    out = np.zeros(2 * dec.grid.size)
    for sub, v in zip(dec.subdomains, values):
        out[sub.pair_own] = v[sub.pair_own_in_local]
    return out


def ras_preconditioner(x, dec, spec, eps, systems, lu_fallbacks):
    """One-level RAS on the current Jacobian as a left-preconditioner callable.

    The number of local factors that needed the pivoted fallback is appended
    to the list lu_fallbacks.
    """
    factors = [_factor_local(i, loc, x[sub.pair_idx], spec, eps)
               for i, (sub, loc) in enumerate(zip(dec.subdomains, systems))]
    lus = [lu for _, lu, _ in factors]
    lu_fallbacks.append(sum(fallbacks for _, _, fallbacks in factors))

    def apply(v):
        return _scatter_own(dec, (lu.solve(v[sub.pair_idx])
                                  for sub, lu in zip(dec.subdomains, lus)))

    return apply


@dataclass
class CorrectionSet:
    """Cached subdomain solves for one iterate, reused by the Jacobian action."""

    x: np.ndarray
    eps: float
    values: list
    jac_locs: list
    lus: list
    inner_iters: list
    lu_fallbacks: int
    systems: list = field(repr=False, default=None)


def raspen_residual(x, dec, spec, eps, inner_cfg=None, inner_sched=None,
                    systems=None, lanes=None):
    """Fixed-point residual sum_i P~_i C_i(x) and the frozen local solves.

    Each subdomain task solves its frozen-exterior system and factors its
    local Jacobian at the result, so one parallel pass yields both the
    residual and everything the Jacobian action needs.  The returned
    residual is scatter_own(local values) - x, which equals the ownership
    recombination of the local displacements since the ownership sets
    partition the index set; corrections.values[i] is subdomain i's local
    correction and f_val + x one nonlinear RAS sweep.  The tasks run on
    lanes from _subdomain_pool, or inline when lanes is None; the caller
    releases corrections.lus on the same lanes (_release).
    """
    systems = systems if systems is not None else build_local_systems(dec, spec)
    cfg = inner_cfg if inner_cfg is not None else NewtonConfig(tol=1e-8)
    sched = inner_sched if inner_sched is not None else ContinuationSchedule.fixed(eps)

    tasks = [(i, sub, loc, spec, x, eps, sched, cfg)
             for i, (sub, loc) in enumerate(zip(dec.subdomains, systems))]
    results = _parallel_map(_solve_and_factor, tasks, lanes)
    values, inner_iters, jac_locs, lus, fallbacks = (
        list(column) for column in zip(*results))

    f_val = _scatter_own(dec, values) - x
    corrections = CorrectionSet(
        x=x.copy(), eps=eps, values=values, jac_locs=jac_locs, lus=lus,
        inner_iters=inner_iters, lu_fallbacks=sum(fallbacks), systems=systems)
    return f_val, corrections


def raspen_jacobian_apply(x, d, dec, spec, eps, corrections):
    """Action of the fixed-point residual's Jacobian using frozen local solves.

    Each local contribution is -(R_i F' P_i)^{-1} R_i F' d evaluated at the
    corrected point x^(i) (local values inside the subdomain, x outside); the
    diagonal coupling blocks are local, so the only exterior reach of R_i F' d
    is through the operator stencil, supplied by a_ext.
    """
    if corrections.eps != eps or not np.array_equal(corrections.x, x):
        raise RuntimeError("stale corrections: recompute raspen_residual at this iterate")
    dy, dp = split_pair(d)
    solves = (lu.solve(jac_loc @ d[sub.pair_idx]
                       + np.concatenate([loc.a_ext @ dy, loc.a_ext @ dp]))
              for sub, loc, jac_loc, lu in zip(dec.subdomains, corrections.systems,
                                               corrections.jac_locs, corrections.lus,
                                               strict=True))
    # the ownership sets partition the index set, so negating the whole
    # scatter negates every local contribution
    return -_scatter_own(dec, solves)


def raspen_solve(x0, dec, spec, sched, cfg, inner_tol, threads, continuation):
    """Outer Newton on the fixed-point residual at eps_min, full steps.

    cfg.linear_solver is the outer GMRES's KrylovConfig.  The
    eps-continuation schedule applies only inside the first evaluation's
    subdomain solves (the only ones that start far from their solutions);
    every later evaluation solves the local systems directly at eps_min.
    The outer line search accepts every step (sigma = inf).  All evaluations
    share one set of lanes from _subdomain_pool(threads); each evaluation's
    frozen factors are released on their lanes before the next evaluation
    and the last before the lanes shut down, so one set is alive at a time.
    """
    systems = build_local_systems(dec, spec)
    inner_cfg = NewtonConfig(tol=inner_tol)
    eps_min = sched.eps_min

    state = {"corr": None, "inner_hist": [], "lu_fallbacks": 0}

    def release_factors():
        if state["corr"] is not None:
            _release(state["corr"].lus, lanes)

    def residual_fn(x, eps):
        release_factors()
        # only the first evaluation starts far from the local solutions
        if continuation and not state["inner_hist"]:
            inner_sched = ContinuationSchedule(sched.eps0, sched.gamma, eps)
        else:
            inner_sched = ContinuationSchedule.fixed(eps)
        f_val, state["corr"] = raspen_residual(x, dec, spec, eps, inner_cfg,
                                               inner_sched, systems, lanes)
        state["inner_hist"].append(max(state["corr"].inner_iters))
        state["lu_fallbacks"] += state["corr"].lu_fallbacks
        return f_val

    def jacobian_fn(x, eps):
        corr = state["corr"]
        return lambda d: raspen_jacobian_apply(x, d, dec, spec, eps, corr)

    with _subdomain_pool(threads, len(dec)) as lanes:
        try:
            x, report = newton_continuation(
                x0, residual_fn, jacobian_fn, ContinuationSchedule.fixed(eps_min),
                replace(cfg, sigma=float("inf")))
        finally:
            release_factors()
    report.inner_iters = state["inner_hist"]
    report.lu_fallbacks += state["lu_fallbacks"]
    return x, report
