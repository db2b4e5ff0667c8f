"""Overlapping domain decomposition on the interior grid.

Three layers on top of a rectangular tiling with m-cell overlap:

  * a linear one-level RAS preconditioner for the monolithic Newton's GMRES,
  * nonlinear local corrections (frozen-exterior subdomain solves) and the
    RAS fixed-point recombination,
  * the nonlinearly preconditioned outer solver: Newton on the fixed-point
    residual, with the Jacobian action assembled from frozen local
    factorizations and applied matrix-free inside GMRES.

Each Schwarz solve opens one set of owner lanes (Lanes), single-thread
executors through which every subdomain map of the solve runs: the RAS
build's local factors and RASPEN's local corrections with their frozen
factors.  Subdomain i always runs on lane i mod their number.  SuperLU frees
a factor's storage only on the thread that made it (dropped on another
thread, the storage leaks), so the lanes own what their tasks return: a
map's results stay on the lanes until the next map or the close of the
lanes, which drop them there, and callers only borrow them.  A caller drops
its own references before the next map.  Recombination writes are disjoint
by the ownership partition, so results do not depend on thread scheduling.

The RAS apply and the RASPEN matvec run their local triangular solves
sequentially on the calling thread.  On a 2-core host, 100 applies with the
four local factors of the n=100, 2x2 stiff RAS benchmark (400 solves) ran
0.85-1.10x as fast (median 0.91x) on 2 lanes as sequentially, and an empty
map of 4 tasks costs about 0.13 ms.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
import os

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid
from .newton import (ContinuationSchedule, NewtonConfig, SolveReport,
                     SolverFault, newton_continuation, sparse_lu)
from .system import (PAIR_DIAGONALS, JacobianPattern, pair_jacobian,
                     residual_rows, split_pair)


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
        return JacobianPattern(self.a_loc, PAIR_DIAGONALS)


def build_local_systems(dec, spec):
    outside = np.ones(dec.grid.size)
    systems = []
    for sub in dec.subdomains:
        rows = spec.a[sub.idx]
        outside[sub.idx] = 0.0
        a_ext = (rows @ sp.diags(outside)).sorted_indices()
        outside[sub.idx] = 1.0
        systems.append(LocalSystem(a_loc=rows[:, sub.idx], a_ext=a_ext,
                                   f_loc=spec.f[sub.idx], yd_loc=spec.y_d[sub.idx]))
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
                               loc.f_loc, loc.yd_loc, spec, eps)
        return np.concatenate([r1, r2])

    def local_jacobian(v, eps):
        return pair_jacobian(loc.pattern, *split_pair(v), spec, eps)

    return local_residual, local_jacobian


def _factor_at(i, loc, v, spec, eps):
    """(Jacobian, LU, LU fallbacks) of subdomain i at v, assembled right before the LU."""
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
    jac_loc, lu, fallbacks = _factor_at(i, loc, v, spec, eps)
    report.lu_fallbacks += fallbacks
    return v, jac_loc, lu, report


def usable_cpus():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Lanes:
    """Owner lanes of one Schwarz solve (see above), closed at the end of a
    with block: min(workers, tasks) single-thread executors, where threads=0
    means one worker per subdomain, up to usable_cpus(), and a single worker
    maps on the calling thread.
    """

    def __init__(self, threads, tasks):
        workers = min(threads or usable_cpus(), tasks)
        self._lanes = [] if workers == 1 else [ThreadPoolExecutor(max_workers=1)
                                               for _ in range(workers)]
        self._held = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._drop()
        for lane in self._lanes:
            lane.shutdown()

    def _drop(self):
        shares, self._held = self._held, []
        for future in [lane.submit(share.clear)
                       for lane, share in zip(self._lanes, shares)]:
            future.result()

    def map(self, fn, items):
        """[fn(*item) for item in items], item i on lane i % len(lanes).

        The previous map's results are dropped first.  If a task raises,
        the others' results are kept all the same and the exception of the
        first failing item is raised.
        """
        self._drop()
        if not self._lanes:
            self._held = [[fn(*item) for item in items]]
            return self._held[0][:]
        n = len(self._lanes)
        futures = [self._lanes[i % n].submit(fn, *item)
                   for i, item in enumerate(items)]
        errors = [f.exception() for f in futures]  # waits for every task
        results = [None if e else f.result() for f, e in zip(futures, errors)]
        self._held = [results[k::n] for k in range(n)]
        if any(errors):
            # the traceback keeps this frame alive, maybe past the next map,
            # so it must not hold the results
            del futures, results
            raise next(e for e in errors if e)
        return results


def _scatter_own(dec, values):
    """Global pair vector made of each local vector's owned entries."""
    out = np.zeros(2 * dec.grid.size)
    for sub, v in zip(dec.subdomains, values):
        out[sub.pair_own] = v[sub.pair_own_in_local]
    return out


def ras_preconditioner(x, dec, spec, eps, systems, report, lanes):
    """One-level RAS on the current Jacobian as a left-preconditioner callable.

    Subdomain i's local Jacobian is assembled on its lane right before its
    factor (assembling all blocks first let the allocator return the
    factors' pages: 15x the page faults).  Local LU fallbacks go to report.
    """
    _, lus, fallbacks = zip(*lanes.map(_factor_at, [
        (i, loc, x[sub.pair_idx], spec, eps)
        for i, (sub, loc) in enumerate(zip(dec.subdomains, systems))]))
    report.lu_fallbacks += sum(fallbacks)

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
    reports: list  # each subdomain's local SolveReport, its factor counted
    systems: list = field(repr=False, default=None)


def raspen_residual(x, dec, spec, eps, inner_cfg, inner_sched=None,
                    systems=None, lanes=None):
    """Fixed-point residual sum_i P~_i C_i(x) and the frozen local solves.

    Each subdomain task solves its frozen-exterior system and factors its
    local Jacobian at the result, so one parallel pass yields both the
    residual and everything the Jacobian action needs.  The returned
    residual is scatter_own(local values) - x, which equals the ownership
    recombination of the local displacements since the ownership sets
    partition the index set; corrections.values[i] is subdomain i's local
    correction and f_val + x one nonlinear RAS sweep.  The tasks run on
    lanes, which keep the frozen factors until their next map or close, or
    inline when lanes is None.
    """
    systems = systems if systems is not None else build_local_systems(dec, spec)
    lanes = lanes if lanes is not None else Lanes(1, len(dec))
    sched = inner_sched if inner_sched is not None else ContinuationSchedule.fixed(eps)

    tasks = [(i, sub, loc, spec, x, eps, sched, inner_cfg)
             for i, (sub, loc) in enumerate(zip(dec.subdomains, systems))]
    values, jac_locs, lus, reports = (
        list(column) for column in zip(*lanes.map(_solve_and_factor, tasks)))

    f_val = _scatter_own(dec, values) - x
    corrections = CorrectionSet(
        x=x.copy(), eps=eps, values=values, jac_locs=jac_locs, lus=lus,
        reports=reports, systems=systems)
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


def raspen_solve(x0, dec, spec, sched, cfg, inner_tol, systems, lanes):
    """Outer Newton on the fixed-point residual at eps_min, full steps.

    cfg.linear_solver is the outer GMRES's KrylovConfig.  The inner schedule
    comes from sched alone: the first evaluation's subdomain solves (the
    only ones that start far from their solutions) follow sched, and every
    later evaluation solves them directly at eps_min (raspen_residual's
    default schedule), so a fixed sched gives no continuation.
    The outer line search accepts every step (sigma = inf).  Every
    evaluation maps its subdomain solves through lanes, whose next map
    drops the frozen factors of the last one, so one set is alive at a time.
    """
    inner_cfg = NewtonConfig(tol=inner_tol)
    report = SolveReport()
    state = {"corr": None}

    def residual_fn(x, eps):
        # the lanes drop the last factors on their own threads only if
        # they hold the last reference
        state["corr"] = None
        # only the first evaluation starts far from the local solutions
        inner_sched = None if report.inner_iters else sched
        f_val, state["corr"] = raspen_residual(x, dec, spec, eps, inner_cfg,
                                               inner_sched, systems, lanes)
        report.inner_iters.append(max(r.outer_iters for r in state["corr"].reports))
        report.lu_fallbacks += sum(r.lu_fallbacks for r in state["corr"].reports)
        return f_val

    def jacobian_fn(x, eps):
        corr = state["corr"]
        return lambda d: raspen_jacobian_apply(x, d, dec, spec, eps, corr)

    return newton_continuation(
        x0, residual_fn, jacobian_fn, ContinuationSchedule.fixed(sched.eps_min),
        replace(cfg, sigma=float("inf")), report=report)
