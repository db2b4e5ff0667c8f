"""Overlapping domain decomposition on the interior grid.

Three layers on top of a rectangular tiling with m-cell overlap:

  * a linear one-level RAS preconditioner for the monolithic Newton's GMRES,
  * nonlinear local corrections (frozen-exterior subdomain solves) and the
    RAS fixed-point recombination,
  * the nonlinearly preconditioned outer solver: Newton on the fixed-point
    residual, with the Jacobian action assembled from frozen local
    factorizations and applied matrix-free inside GMRES.

decompose returns the tuple of Subdomains; each LocalSystem carries its own
as sub.  Each Schwarz solve opens one set of owner lanes (Lanes):
single-thread executors that hold the solve's local systems beside their
factors, and through which every subdomain map of the solve runs (the RAS
build's local factors, RASPEN's local corrections with their frozen
factors).  Callers hand the lanes iterates and vectors only and get vectors
back.  Subdomain i always runs on lane i mod their number.  SuperLU frees a
factor's storage only on the thread that made it (dropped on another
thread, the storage leaks), so only the lanes hold factors: a map's tasks
store them on their lanes until the next map or the close, and a use of the
store after either raises.  Recombination writes are disjoint by the
ownership partition, so results do not depend on thread scheduling.  The
RAS apply and the RASPEN matvec run their local triangular solves on the
calling thread: on 2 lanes the ras-stiff benchmark's 400 local solves ran
at a median 0.91x of that speed.
"""

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import cached_property
import os

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .newton import (ContinuationSchedule, NewtonConfig, SolveReport,
                     SolverFault, gmres_direction, lu_direction,
                     newton_continuation, sparse_lu)
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


class Tiling(tuple):
    """decompose's Subdomains; subdomains, the tuple itself, serves
    tests/test_acceptance.py, written for a tuple held in a field."""
    subdomains = property(lambda self: self)


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
    """Subdomains of s1 x s2 ownership blocks of the interior, dilated by m cells."""
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
    return Tiling(subdomains)


@dataclass(frozen=True)
class LocalSystem:
    """Restriction of the discrete operator to one subdomain, sub.

    a_loc couples local points among themselves; a_ext holds the same stencil
    rows with local columns zeroed, so a_ext @ global_field yields exactly the
    frozen-exterior Dirichlet coupling of the transmission conditions.
    """

    sub: Subdomain
    a_loc: sp.csr_matrix
    a_ext: sp.csr_matrix
    f_loc: np.ndarray
    yd_loc: np.ndarray

    @cached_property
    def pattern(self):  # built on the first local assembly
        return JacobianPattern(self.a_loc, PAIR_DIAGONALS)


def build_local_systems(dec, spec):
    outside = np.ones(spec.grid.size)
    systems = []
    for sub in dec:
        rows = spec.a[sub.idx]
        outside[sub.idx] = 0.0
        a_ext = (rows @ sp.diags(outside)).sorted_indices()
        outside[sub.idx] = 1.0
        systems.append(LocalSystem(sub=sub, a_loc=rows[:, sub.idx], a_ext=a_ext,
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


def _factor(i, jac_loc):
    """Subdomain i's LU fallbacks and its (Jacobian, LU) entry."""
    try:
        lu, fallbacks, _ = sparse_lu(jac_loc, spla.splu)
    except RuntimeError as exc:
        raise LocalSolveError(i, f"singular local Jacobian: {exc}") from exc
    return fallbacks, (jac_loc, lu)


def _factor_at(i, loc, x, spec, eps):
    """Map task: subdomain i's LU fallbacks and (Jacobian, LU) at the global x."""
    return _factor(i, pair_jacobian(loc.pattern, *split_pair(x[loc.sub.pair_idx]), spec, eps))


def _solve_and_factor(i, loc, spec, x, eps, sched, cfg):
    """Map task: frozen-exterior Newton solve on subdomain i, then the LU at its result."""
    res, jac = _local_problem(loc, spec, x)
    v, report = newton_continuation(x[loc.sub.pair_idx], res, lu_direction(jac), sched, cfg)
    if not report.converged:
        raise LocalSolveError(i, report.failure)
    fallbacks, entry = _factor(i, jac(v, eps))
    report.lu_fallbacks += fallbacks
    return (v, report), entry


def usable_cpus():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _store(share, i, fn, loc, args):
    result, share[i] = fn(i, loc, *args)
    return result


class Lanes:
    """Owner lanes of one Schwarz solve (see above) over its local systems,
    closed at the end of a with block: min(workers, len(systems)) executors
    of one thread, where threads=0 means one worker per subdomain, up to
    usable_cpus(); one worker maps on the calling thread.  generation counts
    the store's drops.
    """

    def __init__(self, threads, systems):
        self.systems = systems
        workers = min(threads or usable_cpus(), len(systems))
        self._lanes = [] if workers == 1 else [ThreadPoolExecutor(max_workers=1)
                                               for _ in range(workers)]
        self._shares = [{} for _ in range(workers)]
        self.generation = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._drop()
        for lane in self._lanes:
            lane.shutdown()

    def _drop(self):
        self.generation += 1
        if not self._lanes:
            self._shares[0].clear()
        wait([lane.submit(share.clear) for lane, share in zip(self._lanes, self._shares)])

    def map(self, fn, *args):
        """Results of fn(i, loc, *args) for every subdomain i of local system
        loc, on lane i % len(lanes).  fn returns (result, entry); subdomain
        i's task stores entry as its own in its lane's share, once the last
        map's entries are dropped.  The first failing subdomain's exception
        is raised, on lanes once all end.
        """
        self._drop()
        n = len(self._shares)
        tasks = [(self._shares[i % n], i, fn, loc, args) for i, loc in enumerate(self.systems)]
        if not self._lanes:
            return [_store(*task) for task in tasks]
        futures = [self._lanes[i % n].submit(_store, *task) for i, task in enumerate(tasks)]
        wait(futures)
        return [f.result() for f in futures]

    def apply(self, generation, fn):
        """[fn(loc, *entry)] over the local systems on the calling thread,
        where subdomain i's entry is its own from the map of that generation."""
        if generation != self.generation:
            raise RuntimeError("stale subdomain factors: a later map or the close dropped them")
        n = len(self._shares)
        return [fn(loc, *self._shares[i % n][i]) for i, loc in enumerate(self.systems)]

    def scatter(self, values, like):
        """Global pair vector, zeros like `like`, of each subdomain's owned
        entries of its local vector in values."""
        out = np.zeros_like(like)
        for loc, v in zip(self.systems, values):
            out[loc.sub.pair_own] = v[loc.sub.pair_own_in_local]
        return out


def ras_preconditioner(x, spec, eps, report, lanes):
    """One-level RAS on the current Jacobian as a left-preconditioner callable.

    Each lane restricts x and assembles a local Jacobian right before its
    factor (assembling all blocks first let the allocator return the
    factors' pages: 15x the page faults).  Local LU fallbacks go to report.
    """
    report.lu_fallbacks += sum(lanes.map(_factor_at, x, spec, eps))
    generation = lanes.generation

    def apply(v):
        return lanes.scatter(lanes.apply(
            generation, lambda loc, _, lu: lu.solve(v[loc.sub.pair_idx])), v)

    return apply


@dataclass
class CorrectionSet:
    """Subdomain solves at one iterate; lanes store their frozen factors."""

    x: np.ndarray
    eps: float
    reports: list  # each subdomain's local SolveReport, its factor counted
    lanes: Lanes = field(repr=False)
    generation: int


def raspen_residual(x, dec, spec, eps, inner_cfg, inner_sched=None, lanes=None):
    """Fixed-point residual sum_i P~_i C_i(x) and the frozen local solves.

    Each subdomain task solves its frozen-exterior system and factors its
    local Jacobian at the result, so one parallel pass yields both the
    residual and everything the Jacobian action needs.  The residual, the
    corrections' owned entries scattered minus x, equals the ownership
    recombination of the local displacements (the ownership sets partition
    the index set), and f_val + x is one nonlinear RAS sweep.  The tasks run
    on lanes, or inline on lanes of their own over dec's systems if lanes is None.
    """
    lanes = lanes if lanes is not None else Lanes(1, build_local_systems(dec, spec))
    sched = inner_sched if inner_sched is not None else ContinuationSchedule.fixed(eps)
    values, reports = zip(*lanes.map(_solve_and_factor, spec, x, eps, sched, inner_cfg))
    return lanes.scatter(values, x) - x, CorrectionSet(
        x=x.copy(), eps=eps, reports=list(reports), lanes=lanes, generation=lanes.generation)


def raspen_jacobian_apply(x, d, dec, spec, eps, corrections):
    """Action of the fixed-point residual's Jacobian using frozen local solves.

    Each local contribution is -(R_i F' P_i)^{-1} R_i F' d evaluated at the
    corrected point x^(i) (local values inside the subdomain, x outside); the
    diagonal coupling blocks are local, so the only exterior reach of R_i F' d
    is through the operator stencil, supplied by a_ext.  dec and spec are
    unused: corrections' lanes hold the local systems and their factors.
    """
    if corrections.eps != eps or not np.array_equal(corrections.x, x):
        raise RuntimeError("stale corrections: recompute raspen_residual at this iterate")
    dy, dp = split_pair(d)

    def local(loc, jac_loc, lu):
        return lu.solve(jac_loc @ d[loc.sub.pair_idx]
                        + np.concatenate([loc.a_ext @ dy, loc.a_ext @ dp]))

    lanes = corrections.lanes
    # the ownership sets partition the index set, so negating the whole
    # scatter negates every local contribution
    return -lanes.scatter(lanes.apply(corrections.generation, local), d)


def raspen_solve(x0, spec, sched, cfg, krylov, inner_tol, lanes):
    """Outer Newton on the fixed-point residual at eps_min, full steps.

    krylov is the outer GMRES's KrylovConfig.  The inner schedule comes from
    sched alone: the first evaluation's subdomain solves (the only ones that
    start far from their solutions) follow sched, and every later evaluation
    solves them directly at eps_min (raspen_residual's default schedule), so
    a fixed sched gives no continuation.  A local Newton keeps NewtonConfig's
    cap of 200 whatever cfg.max_outer says: each first-evaluation local solve
    of the raspen-2t benchmark takes 16 steps, so a small cap would fail it.
    The outer line search accepts every step (sigma = inf).  Every evaluation
    maps its subdomain solves through lanes, whose next map drops the frozen
    factors of the last one, so one set is alive at a time.
    """
    inner_cfg = NewtonConfig(tol=inner_tol)
    report = SolveReport()
    state = {}

    def residual_fn(x, eps):
        # the last corrections go before the map: kept across it, their
        # lane-built reports pin the lanes' heaps (+4.6 MB raspen-2t peak RSS
        # on a 2-core host, with the local values still in the record)
        state.clear()
        inner_sched = None if report.inner_iters else sched
        f_val, state["corr"] = raspen_residual(x, None, spec, eps, inner_cfg,
                                               inner_sched, lanes)
        report.inner_iters.append(max(r.outer_iters for r in state["corr"].reports))
        report.lu_fallbacks += sum(r.lu_fallbacks for r in state["corr"].reports)
        return f_val

    def operator_fn(x, eps):
        return lambda d: raspen_jacobian_apply(x, d, None, spec, eps, state["corr"])

    return newton_continuation(x0, residual_fn, gmres_direction(operator_fn, krylov),
                               ContinuationSchedule.fixed(sched.eps_min),
                               replace(cfg, sigma=float("inf")), report=report)
