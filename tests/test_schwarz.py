"""Decomposition index machinery, RAS preconditioning, and the RASPEN solver."""

from dataclasses import replace
from functools import partial
import os
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ocp.grid import Grid, build_laplacian
from ocp.harness.config import build_config
import ocp.harness.experiments as experiments
from ocp.harness.experiments import solve_single
from ocp.krylov import KrylovConfig, gmres
import ocp.newton as newton
from ocp.newton import (ContinuationSchedule, NewtonConfig, SolveReport,
                        gmres_direction, lu_direction, newton_continuation)
import ocp.schwarz as schwarz
from ocp.schwarz import (Lanes, LocalSolveError, _local_problem, _tile_edges,
                         build_local_systems, decompose, ras_preconditioner,
                         raspen_jacobian_apply, raspen_residual, raspen_solve)
import ocp.system as system
from ocp.system import (PAIR_DIAGONALS, STATE_DIAGONALS, JacobianPattern, Nonlinearity,
                        ProblemSpec, construct_test_problem, jacobian, pair_jacobian,
                        residual, split_pair)

from support import block_jacobian


def mild_problem(n):
    """Well-conditioned variant of the manufactured problem for fast tests."""
    grid = Grid(n)
    spec, _ = construct_test_problem(grid, kappa=0.1, nu=1e-2, mu=1.0, k_tilde=2)
    return grid, spec


def solve_monolithic(spec, eps, tol=1e-12):
    x0 = np.zeros(2 * spec.grid.size)
    x, report = newton_continuation(
        x0, lambda z, e: residual(z, spec, e, check=False),
        lu_direction(lambda z, e: jacobian(z, spec, e)),
        ContinuationSchedule.fixed(eps), NewtonConfig(tol=tol))
    assert report.converged, report.failure
    return x


def ras(x, dec, spec, eps):
    """RAS preconditioner at x on freshly built local systems, built inline on
    lanes of its own; they stay open, as closing them makes the apply stale."""
    return ras_preconditioner(x, spec, eps, build_local_systems(dec, spec),
                              SolveReport(), Lanes(1, len(dec)))


# the outer configuration of the RASPEN tests and its GMRES budget
RASPEN_CFG = NewtonConfig()
RASPEN_KRYLOV = KrylovConfig(rel_tol=1e-8, max_iters=400)
# the local solves' configuration at raspen_solve's inner_tol of 1e-8
INNER_CFG = NewtonConfig(tol=1e-8)


def raspen(x0, dec, spec, sched, cfg=RASPEN_CFG, threads=0):
    with Lanes(threads, len(dec)) as lanes:
        return raspen_solve(x0, dec, spec, sched, cfg, RASPEN_KRYLOV, 1e-8,
                            build_local_systems(dec, spec), lanes)


def mild16_config(method, threads):
    """The solve_single config of the mild16 problem and decomposition."""
    return build_config(overrides=dict(
        method=method, n=16, kappa=0.1, nu=1e-2, mu=1.0, k_tilde=2,
        eps_min=1e-3, s1=2, s2=2, overlap=2, threads=threads))


def owned(sub):
    """Global flat indices of the subdomain's ownership block."""
    return sub.pair_own[:sub.pair_own.size // 2]


def rect(idx, n):
    """(rows, cols) half-open ranges of the rectangle that flat indices idx cover."""
    return ((idx.min() // n, idx.max() // n + 1), (idx.min() % n, idx.max() % n + 1))


def to_natural(jac):
    """The natural-order CSR matrix of an ordered Jacobian."""
    position = np.argsort(jac.order)
    return jac.stored[position][:, position].tocsr()


class LoggedFactor:
    """A SuperLU factor that logs the thread that made it and the one that
    dropped its last reference (SuperLU frees storage only on the former)."""

    def __init__(self, lu, log):
        self._lu = lu
        self._record = {"made": threading.current_thread(), "freed": None}
        log.append(self._record)

    def solve(self, b):
        return self._lu.solve(b)

    def __del__(self):
        self._record["freed"] = threading.current_thread()


class LoggingSpla:
    """Stand-in for scipy.sparse.linalg whose splu returns LoggedFactors."""

    def __init__(self, module, log):
        self._module = module
        self._log = log

    def splu(self, matrix, **kwargs):
        return LoggedFactor(self._module.splu(matrix, **kwargs), self._log)

    def __getattr__(self, key):
        return getattr(self._module, key)


@pytest.fixture
def factor_log(monkeypatch):
    """Records of every factor the Newton core and the Schwarz layer make."""
    log = []
    for module in (newton, schwarz):
        monkeypatch.setattr(module, "spla", LoggingSpla(module.spla, log))
    return log


def assert_freed_where_made(log):
    alive = [r for r in log if r["freed"] is None]
    assert not alive, f"{len(alive)} of {len(log)} factors still alive"
    moved = [r for r in log if r["freed"] is not r["made"]]
    assert not moved, (f"{len(moved)} of {len(log)} factors freed on another "
                       f"thread, e.g. made on {moved[0]['made'].name}, freed "
                       f"on {moved[0]['freed'].name}")


@pytest.fixture(scope="module")
def mild16():
    grid, spec = mild_problem(16)
    dec = decompose(grid, 2, 2, 2)
    x_sol = solve_monolithic(spec, 1e-2)
    return grid, spec, dec, x_sol


class TestTiling:
    def test_even_split(self):
        assert _tile_edges(8, 2) == [(0, 4), (4, 8)]
        assert _tile_edges(8, 1) == [(0, 8)]

    def test_remainder_goes_to_last_tile(self):
        assert _tile_edges(9, 2) == [(0, 4), (4, 9)]
        assert _tile_edges(17, 3) == [(0, 5), (5, 10), (10, 17)]

    def test_too_many_tiles(self):
        with pytest.raises(ValueError, match="nonempty"):
            _tile_edges(3, 4)
        with pytest.raises(ValueError, match="nonempty"):
            decompose(Grid(3), 4, 1, 0)

    def test_overlap_exceeding_neighbor_tile(self):
        with pytest.raises(ValueError, match="row direction"):
            decompose(Grid(8), 2, 1, 5)
        with pytest.raises(ValueError, match="column direction"):
            decompose(Grid(8), 1, 2, 5)
        # a single tile has no neighbor to reach into, any m is fine
        decompose(Grid(8), 1, 1, 99)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="at least one tile"):
            decompose(Grid(8), 0, 2, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            decompose(Grid(8), 2, 2, -1)


class TestDecompose:
    def test_zero_overlap_blocks(self):
        dec = decompose(Grid(8), 2, 2, 0)
        assert len(dec) == 4
        for sub in dec:
            assert sub.idx.size == 16
            np.testing.assert_array_equal(sub.pair_idx, sub.pair_own)
            np.testing.assert_array_equal(sub.pair_own_in_local, np.arange(32))

    def test_corner_block_with_overlap(self):
        dec = decompose(Grid(8), 2, 2, 2)
        sub = dec[0]
        assert rect(sub.idx, 8) == ((0, 6), (0, 6))
        assert rect(owned(sub), 8) == ((0, 4), (0, 4))
        assert sub.idx.size == 36 and owned(sub).size == 16
        # flat indices walk the 6x6 corner rectangle row by row
        assert sub.idx[0] == 0 and sub.idx[5] == 5 and sub.idx[6] == 8
        np.testing.assert_array_equal(sub.pair_idx[sub.pair_own_in_local], sub.pair_own)
        last = dec[3]
        assert rect(last.idx, 8)[0] == (2, 8) and rect(owned(last), 8)[0] == (4, 8)

    def test_overlap_clipped_at_boundary(self):
        dec = decompose(Grid(8), 2, 2, 3)
        assert rect(dec[0].idx, 8)[0] == (0, 7)
        assert rect(dec[3].idx, 8)[0] == (1, 8)

    def test_pair_indexing_consistency(self):
        dec = decompose(Grid(9), 2, 3, 1)
        n2 = 81
        for sub in dec:
            np.testing.assert_array_equal(sub.pair_idx[:sub.idx.size], sub.idx)
            np.testing.assert_array_equal(sub.pair_idx[sub.idx.size:], sub.idx + n2)
            np.testing.assert_array_equal(
                sub.pair_idx[sub.pair_own_in_local], sub.pair_own)

    @pytest.mark.parametrize("s1,s2", [(1, 1), (2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("n", [8, 9, 17])
    def test_ownership_partitions_index_set(self, s1, s2, n):
        dec = decompose(Grid(n), s1, s2, 2)
        pair_owned = np.concatenate([sub.pair_own for sub in dec])
        np.testing.assert_array_equal(np.sort(pair_owned), np.arange(2 * n * n))

    @pytest.mark.parametrize("s1,s2", [(1, 1), (2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("n", [8, 9, 17])
    def test_scatter_own_restores_any_field(self, s1, s2, n):
        # recombining restrictions of x by ownership must reproduce x bitwise
        dec = decompose(Grid(n), s1, s2, 2)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2 * n * n)
        out = np.zeros_like(x)
        for sub in dec:
            v = x[sub.pair_idx]
            out[sub.pair_own] = v[sub.pair_own_in_local]
        np.testing.assert_array_equal(out, x)


class TestLocalSystems:
    def test_stencil_rows_recompose(self):
        grid, spec = mild_problem(10)
        dec = decompose(grid, 2, 3, 1)
        systems = build_local_systems(dec, spec)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(grid.size)
        full = spec.a @ v
        for sub, loc in zip(dec, systems):
            recomposed = loc.a_loc @ v[sub.idx] + loc.a_ext @ v
            np.testing.assert_allclose(recomposed, full[sub.idx],
                                       rtol=0, atol=1e-10 * np.abs(full).max())

    def test_exterior_part_has_no_local_columns(self):
        grid, spec = mild_problem(10)
        dec = decompose(grid, 2, 2, 2)
        for sub, loc in zip(dec, build_local_systems(dec, spec)):
            assert loc.a_ext[:, sub.idx].nnz == 0
            assert loc.a_loc.shape == (sub.idx.size, sub.idx.size)
            assert loc.a_ext.shape == (sub.idx.size, grid.size)
            np.testing.assert_array_equal(loc.f_loc, spec.f[sub.idx])
            np.testing.assert_array_equal(loc.yd_loc, spec.y_d[sub.idx])

    def test_each_system_carries_its_subdomain(self):
        grid, spec = mild_problem(10)
        dec = decompose(grid, 2, 3, 1)
        systems = build_local_systems(dec, spec)
        assert isinstance(dec, tuple) and len(systems) == len(dec) == 6
        assert all(loc.sub is sub for sub, loc in zip(dec, systems))

    def test_local_jacobian_is_global_restriction(self):
        grid, spec = mild_problem(8)
        dec = decompose(grid, 2, 2, 2)
        systems = build_local_systems(dec, spec)
        rng = np.random.default_rng(11)
        x = 0.3 * rng.standard_normal(2 * grid.size)
        jac_glob = to_natural(jacobian(x, spec, 1e-2))
        for sub, loc in zip(dec, systems):
            restricted = jac_glob[sub.pair_idx, :][:, sub.pair_idx]
            local = to_natural(pair_jacobian(loc.pattern, *split_pair(x[sub.pair_idx]),
                                             spec, 1e-2))
            diff = (restricted - local).tocoo()
            assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


class TestJacobianPattern:
    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-10])
    def test_ordered_assembly_equals_block_assembly(self, eps):
        # bitwise, for the global operator and each 2x2 local operator, at
        # two points assembled one after the other on the same pattern
        grid, spec = mild_problem(10)
        dec = decompose(grid, 2, 2, 2)
        rng = np.random.default_rng(17)
        cases = [(spec.pattern, spec.a, None)] + [
            (loc.pattern, loc.a_loc, sub.pair_idx)
            for sub, loc in zip(dec, build_local_systems(dec, spec))]
        for pattern, a, idx in cases:
            assembled = []
            for scale in (0.3, 3.0):
                x = scale * rng.standard_normal(2 * grid.size)
                v = x if idx is None else x[idx]
                assembled.append((pair_jacobian(pattern, *split_pair(v), spec, eps),
                                  block_jacobian(a, *split_pair(v), spec, eps)))
            for jac, expected in assembled:
                np.testing.assert_array_equal(to_natural(jac).toarray(),
                                              expected.toarray())

    def test_order_keeps_each_point_pair_adjacent(self):
        grid, spec = mild_problem(10)
        order = spec.pattern.order
        np.testing.assert_array_equal(np.sort(order), np.arange(2 * grid.size))
        np.testing.assert_array_equal(order[1::2], order[0::2] + grid.size)

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 100, 128])
    def test_incomplete_factor_orders_like_a_complete_one(self, n):
        # the incomplete factor's order is the complete factor's, for the
        # global operator and every subdomain operator
        grid = Grid(n)
        zeros = np.zeros(grid.size)
        spec = ProblemSpec(grid, build_laplacian(grid), Nonlinearity(), 1.0, 1.0,
                           zeros, zeros)
        operators = [spec.a] + [
            loc.a_loc for s1, s2, m in [(2, 2, 1), (2, 2, 2), (3, 2, 1)]
            for loc in build_local_systems(decompose(grid, s1, s2, m), spec)]
        for a in operators:
            size = a.shape[0]
            lu = spla.splu((a + sp.identity(size)).tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0, options=dict(SymmetricMode=True))
            points = np.argsort(lu.perm_c)
            pattern = JacobianPattern(a, PAIR_DIAGONALS)
            np.testing.assert_array_equal(
                pattern.order, np.column_stack([points, points + size]).ravel())

    @pytest.mark.parametrize("n", [16, 100])
    def test_state_and_pair_patterns_share_the_point_order(self, n):
        # the manufactured y_d comes from a state solve on the state pattern
        # and is then read against pair Jacobians: both orders must agree
        grid = Grid(n)
        zeros = np.zeros(grid.size)
        spec = ProblemSpec(grid, build_laplacian(grid), Nonlinearity(), 1.0, 1.0,
                           zeros, zeros)
        local = build_local_systems(decompose(grid, 2, 2, 1), spec)[0].a_loc
        for a in (spec.a, local):
            np.testing.assert_array_equal(
                JacobianPattern(a, STATE_DIAGONALS).order,
                JacobianPattern(a, PAIR_DIAGONALS).order[0::2])

    def test_build_local_systems_factors_nothing(self, monkeypatch):
        def no_splu(matrix, **kwargs):
            raise AssertionError("splu called")

        grid, spec = mild_problem(10)
        for module in (system, newton, schwarz):
            monkeypatch.setattr(module, "spla", SimpleNamespace(splu=no_splu))
        systems = build_local_systems(decompose(grid, 2, 2, 2), spec)
        # the patterns are left to the first assembly
        assert all("pattern" not in vars(loc) for loc in systems)

    @pytest.mark.parametrize("method,patterns", [
        ("newton-eps", 2), ("newton-ras-eps", 6), ("raspen-eps", 5)])
    def test_one_ordering_per_pattern_per_solve(self, monkeypatch, method, patterns):
        # every pattern is ordered once, however many Jacobians the solve
        # assembles on it: the global state pattern of the state solve that
        # builds the problem, the global pair pattern on the first global
        # assembly (direct and RAS paths; RASPEN assembles none), and each of
        # the 4 local pair patterns on its first assembly
        ordered = []
        real = system.spla

        def counting(factor):
            def make(matrix, **kwargs):
                ordered.append(matrix.shape)
                return factor(matrix, **kwargs)
            return make

        monkeypatch.setattr(system, "spla", SimpleNamespace(
            splu=counting(real.splu), spilu=counting(real.spilu)))
        cfg = build_config(overrides=dict(method=method, n=16, nu=1e-2, k_tilde=2,
                                          eps_min=1e-3, s1=2, s2=2, overlap=1))
        _, report, _ = solve_single(cfg)
        assert report.converged and report.outer_iters > 1
        assert len(ordered) == patterns

    @pytest.mark.parametrize("method,linear_solver", [
        ("newton-ras-eps", "auto"), ("newton-eps", "gmres")])
    def test_gmres_paths_assemble_the_global_jacobian_once(
            self, monkeypatch, method, linear_solver):
        assembled = []

        def spy(x, spec, eps):
            assembled.append(eps)
            return jacobian(x, spec, eps)

        monkeypatch.setattr(experiments, "jacobian", spy)
        cfg = build_config(overrides=dict(method=method, n=16, nu=1e-2, k_tilde=2,
                                          eps_min=1e-3, s1=2, s2=2, overlap=1,
                                          linear_solver=linear_solver))
        _, report, _ = solve_single(cfg)
        assert report.converged and report.outer_iters > 1
        assert all(k is not None for k in report.gmres_iters)
        # one assembly per Newton step, at that step's eps
        assert len(assembled) == report.outer_iters
        assert assembled == report.eps_values[:-1]


class TestRasPreconditioner:
    def test_single_domain_inverts_jacobian(self):
        grid, spec = mild_problem(8)
        dec = decompose(grid, 1, 1, 0)
        rng = np.random.default_rng(3)
        x = 0.2 * rng.standard_normal(2 * grid.size)
        jac = jacobian(x, spec, 1e-2)
        apply_m = ras(x, dec, spec, 1e-2)
        v = rng.standard_normal(2 * grid.size)
        np.testing.assert_allclose(apply_m(jac @ v), v, rtol=1e-9, atol=1e-11)

    def test_single_domain_gmres_converges_immediately(self):
        grid, spec = mild_problem(8)
        dec = decompose(grid, 1, 1, 0)
        x = np.zeros(2 * grid.size)
        jac = jacobian(x, spec, 1e-2)
        apply_m = ras(x, dec, spec, 1e-2)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(2 * grid.size)
        result = gmres(lambda v: jac @ v, b, KrylovConfig(rel_tol=1e-10),
                       precond=apply_m)
        assert result.converged and result.iters == 1

    def test_application_is_linear(self):
        grid, spec = mild_problem(8)
        dec = decompose(grid, 2, 2, 2)
        rng = np.random.default_rng(13)
        x = 0.1 * rng.standard_normal(2 * grid.size)
        apply_m = ras(x, dec, spec, 1e-2)
        v, w = rng.standard_normal((2, 2 * grid.size))
        np.testing.assert_allclose(apply_m(2.0 * v + w),
                                   2.0 * apply_m(v) + apply_m(w),
                                   rtol=1e-12, atol=1e-12)

    def test_preconditioned_newton_matches_direct(self, mild16):
        grid, spec, dec, x_sol = mild16
        systems = build_local_systems(dec, spec)
        x0 = np.zeros(2 * grid.size)
        with Lanes(2, len(dec)) as lanes:
            x, report = newton_continuation(
                x0, lambda z, e: residual(z, spec, e, check=False),
                gmres_direction(lambda z, e: jacobian(z, spec, e).__matmul__,
                                KrylovConfig(rel_tol=1e-10),
                                lambda z, e: ras_preconditioner(
                                    z, spec, e, systems, SolveReport(), lanes)),
                ContinuationSchedule.fixed(1e-2), NewtonConfig(tol=1e-12))
        assert report.converged
        assert all(k is not None and k >= 1 for k in report.gmres_iters)
        assert np.abs(x - x_sol).max() <= 1e-8 * max(1.0, np.abs(x_sol).max())


class TestLocalCorrection:
    # raspen_residual is the one local-solve path: corr.values[i] is the
    # local correction of subdomain i and f_val + x one nonlinear RAS sweep

    def test_values_restrict_global_solution(self, mild16):
        grid, spec, dec, x_sol = mild16
        systems = build_local_systems(dec, spec)
        _, corr = raspen_residual(x_sol, dec, spec, 1e-2,
                                  inner_cfg=NewtonConfig(tol=1e-12),
                                  systems=systems)
        for sub, v in zip(dec, corr.values):
            assert np.abs(v - x_sol[sub.pair_idx]).max() <= 1e-8

    def test_solves_frozen_exterior_system(self, mild16):
        grid, spec, dec, x_sol = mild16
        systems = build_local_systems(dec, spec)
        rng = np.random.default_rng(21)
        x = x_sol + 0.5 * rng.standard_normal(x_sol.shape)
        _, corr = raspen_residual(x, dec, spec, 1e-2, INNER_CFG, systems=systems)
        for i, sub in enumerate(dec):
            res, _ = _local_problem(systems[i], spec, x)
            before = np.linalg.norm(res(x[sub.pair_idx], 1e-2))
            after = np.linalg.norm(res(corr.values[i], 1e-2))
            assert after <= 1.1e-8 * max(1.0, before)

    def test_solution_is_sweep_fixed_point(self, mild16):
        grid, spec, dec, x_sol = mild16
        f_val, _ = raspen_residual(x_sol, dec, spec, 1e-2,
                                   inner_cfg=NewtonConfig(tol=1e-12))
        x_next = f_val + x_sol
        assert np.abs(x_next - x_sol).max() <= 1e-8

    def test_sweeps_contract_toward_solution(self, mild16):
        grid, spec, dec, x_sol = mild16
        systems = build_local_systems(dec, spec)
        x = np.zeros_like(x_sol)
        err0 = np.abs(x - x_sol).max()
        errs = []
        for _ in range(60):
            f_val, _ = raspen_residual(x, dec, spec, 1e-2, INNER_CFG,
                                       systems=systems)
            x = f_val + x
            errs.append(np.abs(x - x_sol).max())
            if errs[-1] <= 1e-8 * err0:
                break
        assert errs[-1] <= 1e-4 * err0
        assert errs[min(9, len(errs) - 1)] < err0


class TestLocalFactorFailure:
    # Grid(11) in 1x3 tiles with overlap 1 gives subdomains of 4, 5 and 6
    # columns, so the size of a local block names its subdomain
    @pytest.fixture
    def failing_splu(self, monkeypatch):
        grid, spec = mild_problem(11)
        dec = decompose(grid, 1, 3, 1)
        sizes = [2 * sub.idx.size for sub in dec]
        assert len(set(sizes)) == 3

        def patch(bad):
            real = schwarz.spla

            class FailingSpla:
                def __getattr__(self, key):
                    return getattr(real, key)

                @staticmethod
                def splu(matrix, **kwargs):
                    if matrix.shape[0] == sizes[bad]:
                        raise RuntimeError("Factor is exactly singular")
                    return real.splu(matrix, **kwargs)

            monkeypatch.setattr(schwarz, "spla", FailingSpla())
        return grid, spec, dec, patch

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_ras_preconditioner_names_subdomain(self, failing_splu, bad):
        grid, spec, dec, patch = failing_splu
        patch(bad)
        with pytest.raises(LocalSolveError, match="singular") as info:
            ras(np.zeros(2 * grid.size), dec, spec, 1e-2)
        assert info.value.subdomain == bad

    def test_newton_records_ras_failure(self, failing_splu):
        grid, spec, dec, patch = failing_splu
        patch(1)
        x0 = np.zeros(2 * grid.size)
        x, report = newton_continuation(
            x0, lambda z, e: residual(z, spec, e, check=False),
            gmres_direction(lambda z, e: jacobian(z, spec, e).__matmul__, KrylovConfig(),
                            lambda z, e: ras(z, dec, spec, e)),
            ContinuationSchedule.fixed(1e-2), NewtonConfig())
        assert not report.converged
        assert report.failure.startswith("subdomain 1: singular")
        assert len(report.residual_norms) == 1
        np.testing.assert_array_equal(x, x0)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_raspen_residual_names_subdomain(self, factor_log, failing_splu, bad,
                                             threads):
        grid, spec, dec, patch = failing_splu
        patch(bad)
        with Lanes(threads, len(dec)) as lanes:
            with pytest.raises(LocalSolveError, match="singular") as info:
                raspen_residual(np.zeros(2 * grid.size), dec, spec, 1e-2, INNER_CFG,
                                lanes=lanes)
        # the other subdomains' frozen factors stayed on their lanes until
        # the close, which dropped them there
        assert_freed_where_made(factor_log)
        assert info.value.subdomain == bad
        assert factor_log

    def test_raspen_residual_names_first_failing_subdomain(self, factor_log,
                                                            failing_splu):
        grid, spec, dec, patch = failing_splu
        for bad in (2, 1):
            patch(bad)
        # subdomains 1 and 2 fail on different lanes; 1 comes first in order
        with Lanes(2, len(dec)) as lanes:
            with pytest.raises(LocalSolveError) as info:
                raspen_residual(np.zeros(2 * grid.size), dec, spec, 1e-2, INNER_CFG,
                                lanes=lanes)
        assert_freed_where_made(factor_log)
        assert info.value.subdomain == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_ras_build_frees_factors_where_made(self, factor_log,
                                                        failing_splu, threads):
        # at threads=2, subdomain 2 fails on lane 0 after subdomains 0 and 1
        # factored on lanes 0 and 1; their factors stay there until the close
        grid, spec, dec, patch = failing_splu
        patch(2)
        state_solve = len(factor_log)  # made while building spec
        cfg = build_config(overrides=dict(
            method="newton-ras-eps", n=11, kappa=0.1, nu=1e-2, mu=1.0,
            k_tilde=2, s1=1, s2=3, overlap=1, threads=threads))
        x, report, _ = solve_single(cfg, spec)
        assert report.failure.startswith("subdomain 2: singular")
        assert report.outer_iters == 0
        np.testing.assert_array_equal(x, np.zeros(2 * grid.size))
        assert len(factor_log) == state_solve + 2
        assert_freed_where_made(factor_log)
        makers = {r["made"] for r in factor_log[state_solve:]}
        assert (makers == {threading.current_thread()}) == (threads == 1)


class TestStaleFactors:
    # callers get vectors and run their local solves through the lanes; a
    # use of the lanes' store after a later map or the close raises

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ras_apply_after_a_later_map_or_the_close(self, mild16, factor_log,
                                                      threads):
        grid, spec, dec, x_sol = mild16
        systems = build_local_systems(dec, spec)
        v = np.linspace(-1.0, 1.0, x_sol.size)
        with Lanes(threads, len(dec)) as lanes:
            first = ras_preconditioner(x_sol, spec, 1e-2, systems,
                                       SolveReport(), lanes)
            expected = first(v)
            second = ras_preconditioner(x_sol, spec, 1e-2, systems,
                                        SolveReport(), lanes)
            with pytest.raises(RuntimeError, match="stale"):
                first(v)
            np.testing.assert_array_equal(second(v), expected)
        with pytest.raises(RuntimeError, match="stale"):
            second(v)
        assert len(factor_log) == 2 * len(dec)
        assert_freed_where_made(factor_log)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_raspen_matvec_after_a_later_map_or_the_close(self, mild16, factor_log,
                                                          threads):
        grid, spec, dec, x_sol = mild16
        systems = build_local_systems(dec, spec)
        d = np.linspace(-1.0, 1.0, x_sol.size)
        with Lanes(threads, len(dec)) as lanes:
            _, first = raspen_residual(x_sol, dec, spec, 1e-2, INNER_CFG,
                                       systems=systems, lanes=lanes)
            expected = raspen_jacobian_apply(x_sol, d, dec, spec, 1e-2, first)
            _, second = raspen_residual(x_sol, dec, spec, 1e-2, INNER_CFG,
                                        systems=systems, lanes=lanes)
            with pytest.raises(RuntimeError, match="stale"):
                raspen_jacobian_apply(x_sol, d, dec, spec, 1e-2, first)
            np.testing.assert_array_equal(
                raspen_jacobian_apply(x_sol, d, dec, spec, 1e-2, second), expected)
        with pytest.raises(RuntimeError, match="stale"):
            raspen_jacobian_apply(x_sol, d, dec, spec, 1e-2, second)
        assert_freed_where_made(factor_log)


class TestRaspen:
    def test_residual_vanishes_at_solution(self, mild16):
        grid, spec, dec, x_sol = mild16
        f_val, corr = raspen_residual(x_sol, dec, spec, 1e-2, INNER_CFG)
        assert np.abs(f_val).max() <= 1e-8
        assert len(corr.values) == 4

    def test_residual_equals_displacement_recombination(self, mild16):
        grid, spec, dec, x_sol = mild16
        rng = np.random.default_rng(31)
        x = x_sol + 0.3 * rng.standard_normal(x_sol.shape)
        f_val, corr = raspen_residual(x, dec, spec, 1e-2, INNER_CFG)
        scatter = np.zeros_like(x)
        for sub, v in zip(dec, corr.values):
            scatter[sub.pair_own] = (v - x[sub.pair_idx])[sub.pair_own_in_local]
        np.testing.assert_array_equal(f_val, scatter)

    def test_jacobian_action_is_linear(self, mild16):
        grid, spec, dec, x_sol = mild16
        rng = np.random.default_rng(33)
        x = x_sol + 0.2 * rng.standard_normal(x_sol.shape)
        _, corr = raspen_residual(x, dec, spec, 1e-2,
                                  inner_cfg=NewtonConfig(tol=1e-12))
        apply = lambda d: raspen_jacobian_apply(x, d, dec, spec, 1e-2, corr)
        zero = apply(np.zeros_like(x))
        np.testing.assert_array_equal(zero, np.zeros_like(x))
        d1, d2 = rng.standard_normal((2, x.shape[0]))
        np.testing.assert_allclose(apply(3.0 * d1 + d2),
                                   3.0 * apply(d1) + apply(d2),
                                   rtol=1e-11, atol=1e-11)

    def test_single_domain_jacobian_is_negative_identity(self):
        grid, spec = mild_problem(8)
        dec = decompose(grid, 1, 1, 0)
        rng = np.random.default_rng(35)
        x = 0.2 * rng.standard_normal(2 * grid.size)
        _, corr = raspen_residual(x, dec, spec, 1e-2,
                                  inner_cfg=NewtonConfig(tol=1e-13))
        d = rng.standard_normal(x.shape)
        out = raspen_jacobian_apply(x, d, dec, spec, 1e-2, corr)
        np.testing.assert_allclose(out, -d, rtol=1e-9, atol=1e-9)

    def test_jacobian_matches_finite_differences(self, mild16):
        grid, spec, dec, x_sol = mild16
        tight = NewtonConfig(tol=1e-12)
        rng = np.random.default_rng(37)
        x = x_sol + 0.1 * rng.standard_normal(x_sol.shape)
        f0, corr = raspen_residual(x, dec, spec, 1e-2, inner_cfg=tight)
        tau = 1e-5
        for _ in range(5):
            d = rng.standard_normal(x.shape)
            d /= np.linalg.norm(d)
            f1, _ = raspen_residual(x + tau * d, dec, spec, 1e-2, inner_cfg=tight)
            fd = (f1 - f0) / tau
            jd = raspen_jacobian_apply(x, d, dec, spec, 1e-2, corr)
            assert np.linalg.norm(fd - jd) <= 1e-4 * max(1.0, np.linalg.norm(jd))

    def test_stale_corrections_rejected(self, mild16):
        grid, spec, dec, x_sol = mild16
        _, corr = raspen_residual(x_sol, dec, spec, 1e-2, INNER_CFG)
        with pytest.raises(RuntimeError, match="stale"):
            raspen_jacobian_apply(x_sol + 1.0, np.ones_like(x_sol), dec, spec,
                                  1e-2, corr)
        with pytest.raises(RuntimeError, match="stale"):
            raspen_jacobian_apply(x_sol, np.ones_like(x_sol), dec, spec,
                                  1e-3, corr)

    def test_solve_matches_monolithic(self, mild16):
        grid, spec, dec, _ = mild16
        sched = ContinuationSchedule(1.0, 0.2, 1e-3)
        x_mono = solve_monolithic(spec, 1e-3)
        x0 = np.zeros(2 * grid.size)
        x, report = raspen(x0, dec, spec, sched)
        assert report.converged, report.failure
        assert report.outer_iters <= 12
        # full steps only, and one fresh evaluation per iteration plus the start
        assert set(report.alphas) == {1.0}
        assert len(report.inner_iters) == report.outer_iters + 1
        assert all(k >= 0 for k in report.inner_iters)
        scale = max(1.0, np.abs(x_mono).max())
        assert np.abs(x - x_mono).max() <= 1e-6 * scale

    def test_solve_without_continuation_agrees(self, mild16):
        grid, spec, dec, _ = mild16
        sched = ContinuationSchedule(1.0, 0.2, 1e-3)
        x0 = np.zeros(2 * grid.size)
        x_c, rep_c = raspen(x0, dec, spec, sched)
        x_p, rep_p = raspen(x0, dec, spec, ContinuationSchedule.fixed(1e-3))
        assert rep_c.converged and rep_p.converged
        scale = max(1.0, np.abs(x_c).max())
        assert np.abs(x_c - x_p).max() <= 1e-6 * scale

    def test_solve_is_deterministic_across_threads(self, mild16):
        grid, spec, dec, _ = mild16
        sched = ContinuationSchedule(1.0, 0.2, 1e-3)
        x0 = np.zeros(2 * grid.size)
        x1, _ = raspen(x0, dec, spec, sched, threads=1)
        x2, _ = raspen(x0, dec, spec, sched, threads=2)
        np.testing.assert_array_equal(x1, x2)

    @pytest.mark.parametrize("threads", [1, 2, 0])
    def test_factors_freed_on_the_thread_that_made_them(self, mild16, factor_log,
                                                        threads):
        grid, spec, dec, _ = mild16
        for method in ("raspen-eps", "newton-ras-eps"):
            factor_log.clear()
            _, report, _ = solve_single(mild16_config(method, threads), spec)
            assert report.converged, method
            assert report.outer_iters >= 2, method
            assert_freed_where_made(factor_log)
            makers = {r["made"] for r in factor_log}
            assert (makers == {threading.current_thread()}) == (threads == 1), method

    def test_local_failure_becomes_failed_report(self, mild16, monkeypatch,
                                                 factor_log):
        grid, spec, dec, _ = mild16
        sched = ContinuationSchedule(1.0, 0.2, 1e-3)
        x0 = np.zeros(2 * grid.size)
        # local solves get no Newton iteration, so the first one fails
        monkeypatch.setattr(schwarz, "NewtonConfig", partial(NewtonConfig, max_outer=0))
        x, report = raspen(x0, dec, spec, sched)
        assert not report.converged
        assert "subdomain" in report.failure
        np.testing.assert_array_equal(x, x0)
        assert_freed_where_made(factor_log)

    @pytest.mark.parametrize("failing_eval", [2, 3])
    def test_later_local_failure_keeps_iterates(self, mild16, monkeypatch,
                                                factor_log, failing_eval):
        # evaluation 1 is at x0, evaluation k >= 2 tries step k - 1
        grid, spec, dec, _ = mild16
        sched = ContinuationSchedule(1.0, 0.2, 1e-3)
        x0 = np.zeros(2 * grid.size)
        x_one, ref = raspen(x0, dec, spec, sched, cfg=replace(RASPEN_CFG, max_outer=1))
        assert ref.outer_iters == 1
        real = schwarz.raspen_residual
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == failing_eval:
                raise LocalSolveError(1, "injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(schwarz, "raspen_residual", failing)
        x, report = raspen(x0, dec, spec, sched)
        steps = failing_eval - 2
        assert not report.converged
        assert report.failure == "subdomain 1: injected"
        assert report.outer_iters == steps
        assert report.residual_norms == ref.residual_norms[:steps + 1]
        assert report.inner_iters == ref.inner_iters[:failing_eval - 1]
        np.testing.assert_array_equal(x, x_one if steps else x0)
        assert_freed_where_made(factor_log)

    @staticmethod
    def count_lanes(monkeypatch):
        """The keyword arguments of every executor the Schwarz layer builds."""
        built = []
        real = schwarz.ThreadPoolExecutor

        def counting(*args, **kwargs):
            built.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(schwarz, "ThreadPoolExecutor", counting)
        return built

    @pytest.mark.parametrize("threads,pools", [(1, 0), (2, 1), (0, 1)])
    def test_one_pool_per_solve(self, mild16, monkeypatch, threads, pools):
        # one decomposition, one set of local systems and one set of lanes
        # serve every subdomain map of a solve; a lane is a single-thread
        # executor, and threads=0 runs one lane per subdomain, up to the CPU
        # count
        grid, spec, dec, _ = mild16
        setups = []
        for module in (experiments, schwarz):
            for name in ("decompose", "build_local_systems", "Lanes"):
                def counting(*args, _name=name, _real=getattr(module, name)):
                    setups.append(_name)
                    return _real(*args)
                monkeypatch.setattr(module, name, counting)
        built = self.count_lanes(monkeypatch)
        lanes = threads or min(len(dec), schwarz.usable_cpus())
        for method in ("raspen-eps", "newton-ras-eps"):
            setups.clear()
            built.clear()
            _, report, _ = solve_single(mild16_config(method, threads), spec)
            assert report.converged, method
            assert report.outer_iters >= 2, method
            assert sorted(setups) == ["Lanes", "build_local_systems", "decompose"]
            # a single lane maps on the calling thread and builds no executor
            assert built == [{"max_workers": 1}] * (lanes * pools if lanes > 1 else 0)

    def test_lanes_never_outnumber_subdomains(self, monkeypatch):
        grid, spec = mild_problem(12)
        dec = decompose(grid, 2, 1, 2)
        built = self.count_lanes(monkeypatch)
        _, report = raspen(np.zeros(2 * grid.size), dec, spec,
                           ContinuationSchedule(1.0, 0.2, 1e-3), threads=4)
        assert report.converged
        assert built == [{"max_workers": 1}] * 2

    def test_all_threads_follow_the_affinity_mask(self, monkeypatch):
        # threads=0 counts the CPUs this process may run on, not the host's
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert schwarz.usable_cpus() == 1
        built = self.count_lanes(monkeypatch)
        with Lanes(0, 4) as lanes:
            ran_on = lanes.map(lambda i: (threading.current_thread(), None),
                               [(i,) for i in range(4)])
        assert ran_on == [threading.current_thread()] * 4
        assert built == []
        monkeypatch.delattr(os, "sched_getaffinity")
        assert schwarz.usable_cpus() == 8

    def test_subdomain_owns_its_lane(self):
        # item i runs on lane i % len(lanes) in every map of a set of lanes
        with Lanes(2, 5) as lanes:
            maps = [lanes.map(lambda i: (threading.current_thread(), None),
                              [(i,) for i in range(5)])
                    for _ in range(2)]
        assert maps[0] == maps[1]
        assert maps[0][0] is maps[0][2] is maps[0][4]
        assert maps[0][1] is maps[0][3]
        assert maps[0][0] is not maps[0][1]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lanes_keep_results_until_next_map_or_close(self, threads):
        log = []

        def make(i):
            if i == 3:
                raise LocalSolveError(i, "injected")
            return i, (None, LoggedFactor(None, log))

        def alive():
            return [r["freed"] is None for r in log]

        with Lanes(threads, 5) as lanes:
            # the map returns the results, and the store keeps the entries
            assert lanes.map(make, [(i,) for i in range(3)]) == [0, 1, 2]
            assert alive() == [True] * 3
            with pytest.raises(LocalSolveError):
                lanes.map(make, [(i,) for i in range(5)])
            # a failed map keeps what its other tasks stored: inline, the
            # tasks before the failing item; on lanes, all the others
            kept = [True] * (4 if threads > 1 else 3)
            assert alive() == [False] * 3 + kept
        assert not any(alive())
        assert_freed_where_made(log)

    def test_store_keeps_every_entry_under_thread_switching(self):
        # more lanes than cores and a short switch interval: each map's
        # entries all land in their own subdomain's slot
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Lanes(4, 64) as lanes:
                for k in range(20):
                    items = [(i,) for i in range(64)]
                    assert lanes.map(lambda i: (i, (i, k)), items) == list(range(64))
                    assert (lanes.apply(lanes.generation, lambda *ids: ids, items)
                            == [(i, i, k) for i in range(64)])
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_apply_runs_on_the_calling_thread(self, threads):
        # item i meets subdomain i's entry, whichever lane stored it
        with Lanes(threads, 3) as lanes:
            lanes.map(lambda i: (None, (threading.current_thread(), 10 * i)),
                      [(i,) for i in range(3)])
            out = lanes.apply(lanes.generation,
                              lambda i, made, value: (i, value, threading.current_thread()),
                              [(i,) for i in range(3)])
        assert out == [(i, 10 * i, threading.current_thread()) for i in range(3)]
