from types import SimpleNamespace
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ocp.grid import Grid, NonfiniteFieldError, build_laplacian
from ocp.harness.config import build_config
import ocp.harness.experiments as experiments
from ocp.harness.experiments import solve_single
import ocp.krylov as krylov
from ocp.krylov import GmresBreakdownError, KrylovConfig
import ocp.newton as newton
from ocp.newton import (ContinuationSchedule, LinearSolveError, LineSearchError,
                        NewtonConfig, Ordered, SolveReport, SolverFault,
                        backtrack, float32_lu, gmres_direction, lu_direction,
                        newton_continuation, refined_direction, refined_solve,
                        sparse_lu)
import ocp.schwarz as schwarz
from ocp.schwarz import (Lanes, LocalSolveError, build_local_systems,
                         decompose, ras_preconditioner, raspen_residual)
from ocp.system import (Nonlinearity, ProblemSpec, construct_test_problem, jacobian,
                        pair_jacobian, residual, split_pair)

from support import block_jacobian, natural


def test_schedule_validation():
    with pytest.raises(ValueError):
        ContinuationSchedule(eps0=1e-12, eps_min=1e-10)
    with pytest.raises(ValueError):
        ContinuationSchedule(gamma=0.0)
    with pytest.raises(ValueError):
        ContinuationSchedule(gamma=1.5)
    with pytest.raises(ValueError):
        ContinuationSchedule(eps_min=0.0)
    with pytest.raises(ValueError, match="gamma = 1"):
        ContinuationSchedule(eps0=1.0, gamma=1.0, eps_min=1e-5)


def test_fixed_schedule_is_constant():
    sched = ContinuationSchedule.fixed(1e-3)
    assert sched.eps0 == sched.eps_min == 1e-3
    assert sched.next_eps(1e-3) == 1e-3


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(sigma=0.5)
    with pytest.raises(ValueError, match="max_outer must be nonnegative"):
        NewtonConfig(max_outer=-1)
    assert NewtonConfig(max_outer=0).max_outer == 0


def test_linear_problem_converges_in_one_step():
    rng = np.random.default_rng(0)
    a = sp.csr_matrix(np.eye(8) + 0.1 * rng.standard_normal((8, 8)))
    b = rng.standard_normal(8)
    x, report = newton_continuation(
        np.zeros(8), lambda x, eps: a @ x - b, lu_direction(lambda x, eps: natural(a)),
        ContinuationSchedule.fixed(1.0), NewtonConfig())
    assert report.converged
    assert report.outer_iters == 1
    assert report.alphas == [1.0]
    assert report.gmres_iters == [None]
    assert np.allclose(a @ x, b, rtol=0, atol=1e-10)


def test_gmres_direction_matches_direct():
    rng = np.random.default_rng(1)
    a = sp.csr_matrix(np.eye(8) + 0.1 * rng.standard_normal((8, 8)))
    b = rng.standard_normal(8)
    x, report = newton_continuation(
        np.zeros(8), lambda x, eps: a @ x - b,
        gmres_direction(lambda x, eps: a.dot, KrylovConfig(rel_tol=1e-13)),
        ContinuationSchedule.fixed(1.0), NewtonConfig())
    assert report.converged
    assert report.gmres_iters[0] >= 1
    assert report.avg_gmres_iters == report.gmres_iters[0]
    assert np.allclose(a @ x, b, rtol=0, atol=1e-9)


def test_eps_path_follows_schedule_to_floor():
    # residual independent of eps, solved exactly in one step; the loop then
    # has to walk eps down to the floor before it may declare convergence
    sched = ContinuationSchedule(eps0=1.0, gamma=0.2, eps_min=1e-10)
    x, report = newton_continuation(
        np.ones(3), lambda x, eps: x.copy(), lu_direction(lambda x, eps: natural(sp.identity(3))),
        sched, NewtonConfig())
    assert report.converged
    expected = [max(0.2 ** k, 1e-10) for k in range(16)]
    assert report.eps_values == pytest.approx(expected, rel=1e-12)
    assert report.outer_iters == 15
    assert np.allclose(x, 0.0)


def test_no_early_convergence_above_eps_floor():
    sched = ContinuationSchedule(eps0=1.0, gamma=0.5, eps_min=0.25)
    x, report = newton_continuation(
        np.ones(2), lambda x, eps: x.copy(), lu_direction(lambda x, eps: natural(sp.identity(2))),
        sched, NewtonConfig())
    assert report.converged
    assert report.eps_values == [1.0, 0.5, 0.25]
    assert report.outer_iters == 2


def test_backtrack_halves_until_acceptable():
    table = {0.0: 1.0, 1.0: 2.2, 0.5: 0.99}
    residual = lambda z: np.array([table[float(z[0])]])
    alpha, r_trial = backtrack(np.zeros(1), np.ones(1), residual, 1.1, 1.0)
    assert alpha == 0.5
    np.testing.assert_array_equal(r_trial, [0.99])


def test_backtrack_accepts_growth_under_loose_sigma():
    table = {0.0: 1.0, 1.0: 2.2}
    residual = lambda z: np.array([table[float(z[0])]])
    alpha, r_trial = backtrack(np.zeros(1), np.ones(1), residual, 1e9, 1.0)
    assert alpha == 1.0
    np.testing.assert_array_equal(r_trial, [2.2])


def test_backtrack_rejects_nonfinite_trials():
    def residual(z):
        v = float(z[0])
        return np.array([np.inf if v > 0.3 else 0.5])

    alpha, r_trial = backtrack(np.zeros(1), np.ones(1), residual, 1.1, 1.0)
    assert alpha == 0.25
    np.testing.assert_array_equal(r_trial, [0.5])


def test_backtrack_exhausts_budget():
    residual = lambda z: np.array([np.nan if float(z[0]) != 0.0 else 1.0])
    with pytest.raises(LineSearchError, match="within 30 halvings"):
        backtrack(np.zeros(1), np.ones(1), residual, 1.1, 1.0)


def test_damping_engages_on_arctan():
    # undamped Newton diverges on arctan from |x0| > ~1.39; the relaxed line
    # search has to cut at least one step to converge
    def residual(x, eps):
        return np.arctan(x)

    def jac(x, eps):
        return natural(np.array([[1.0 / (1.0 + float(x[0]) ** 2)]]))

    x, report = newton_continuation(
        np.array([2.0]), residual, lu_direction(jac), ContinuationSchedule.fixed(1e-10),
        NewtonConfig())
    assert report.converged
    assert min(report.alphas) < 1.0
    assert abs(float(x[0])) <= 1e-9


def test_accepted_norms_respect_sigma():
    def residual(x, eps):
        return np.arctan(x)

    def jac(x, eps):
        return natural(np.array([[1.0 / (1.0 + float(x[0]) ** 2)]]))

    _, report = newton_continuation(
        np.array([2.0]), residual, lu_direction(jac), ContinuationSchedule.fixed(1e-10),
        NewtonConfig())
    # at a fixed eps each residual norm after x0 is an accepted trial's
    norms = report.residual_norms
    for before, accepted in zip(norms, norms[1:]):
        assert accepted <= 1.1 * before * (1.0 + 1e-12)


def test_threshold_frozen_at_initial_residual():
    rng = np.random.default_rng(2)
    a = sp.csr_matrix(np.eye(4) + 0.05 * rng.standard_normal((4, 4)))
    b = 100.0 * rng.standard_normal(4)
    _, report = newton_continuation(
        np.zeros(4), lambda x, eps: a @ x - b, lu_direction(lambda x, eps: natural(a)),
        ContinuationSchedule.fixed(1.0), NewtonConfig(tol=1e-10))
    assert report.threshold == pytest.approx(1e-10 * np.linalg.norm(b), rel=1e-12)


def test_max_outer_reports_failure():
    # gradient flow that never reaches tol within the allowed iterations
    x, report = newton_continuation(
        np.ones(1), lambda x, eps: x ** 3 + 1e-3,
        lu_direction(lambda x, eps: natural(np.array([[3.0 * float(x[0]) ** 2]]))),
        ContinuationSchedule.fixed(1.0), NewtonConfig(max_outer=2))
    assert not report.converged
    assert "outer iterations" in report.failure


def test_singular_jacobian_reports_linear_failure():
    x, report = newton_continuation(
        np.ones(1), lambda x, eps: x.copy(),
        lu_direction(lambda x, eps: natural(np.zeros((1, 1)))),
        ContinuationSchedule.fixed(1.0), NewtonConfig())
    assert not report.converged
    assert report.failure.startswith("sparse factorization failed")
    assert report.outer_iters == 0


def test_run_is_deterministic():
    def residual(x, eps):
        return np.arctan(x) + eps * x

    def jac(x, eps):
        return natural(np.array([[1.0 / (1.0 + float(x[0]) ** 2) + eps]]))

    sched = ContinuationSchedule(1.0, 0.2, 1e-8)
    runs = [newton_continuation(np.array([2.0]), residual, lu_direction(jac), sched,
                                NewtonConfig())
            for _ in range(2)]
    (x1, r1), (x2, r2) = runs
    assert np.array_equal(x1, x2)
    assert r1.residual_norms == r2.residual_norms
    assert r1.eps_values == r2.eps_values
    assert r1.alphas == r2.alphas


def test_nonfinite_initial_guess_rejected():
    for x0, residual_fn in ((np.array([np.nan]), lambda x, eps: x.copy()),
                            # the norm of a finite residual may still overflow
                            (np.zeros(2), lambda x, eps: np.full(2, 1e300))):
        x, report = newton_continuation(
            x0, residual_fn, lu_direction(lambda x, eps: natural(sp.identity(x.size))),
            ContinuationSchedule.fixed(1.0), NewtonConfig())
        assert not report.converged
        assert report.failure == "nonfinite residual at the initial guess"
        assert report.residual_norms == [] and report.outer_iters == 0
        np.testing.assert_array_equal(x, x0)


def test_solver_faults_share_one_base():
    for fault in (LineSearchError, LinearSolveError, LocalSolveError,
                  GmresBreakdownError, NonfiniteFieldError):
        assert issubclass(fault, SolverFault)
    assert issubclass(SolverFault, RuntimeError)
    assert SolverFault is krylov.SolverFault


def counted_arctan(calls, fail_at=None):
    """arctan residual that records every point it is called at and raises a
    SolverFault on call number fail_at."""
    def residual_fn(x, eps):
        calls.append((x.copy(), eps))
        if len(calls) == fail_at:
            raise SolverFault("local failure")
        return np.arctan(x)
    return residual_fn


def arctan_jacobian(x, eps):
    return natural(np.array([[1.0 / (1.0 + float(x[0]) ** 2)]]))


def test_fixed_eps_reuses_accepted_trial():
    # from x0 = 2 the first step needs halvings; at a fixed eps every call
    # after the one at x0 is a line-search trial
    calls = []
    x, report = newton_continuation(
        np.array([2.0]), counted_arctan(calls), lu_direction(arctan_jacobian),
        ContinuationSchedule.fixed(1.0), NewtonConfig())
    assert report.converged
    trials = sum(round(-np.log2(alpha)) + 1 for alpha in report.alphas)
    assert trials > report.outer_iters
    assert len(calls) == 1 + trials
    # step k's accepted trial is its last call, and its norm is recorded as is
    accepted = np.cumsum([round(-np.log2(alpha)) + 1 for alpha in report.alphas])
    assert report.residual_norms[1:] == [float(np.linalg.norm(np.arctan(calls[k][0])))
                                         for k in accepted]
    np.testing.assert_array_equal(calls[-1][0], x)


def test_continuation_step_evaluates_at_new_eps():
    # arctan steps are all full here, so each step is one trial at the old
    # eps plus one evaluation at the new eps, until eps reaches its floor
    calls = []
    sched = ContinuationSchedule(1.0, 0.5, 0.25)
    x, report = newton_continuation(
        np.array([1.0]), counted_arctan(calls), lu_direction(arctan_jacobian), sched,
        NewtonConfig())
    assert report.converged
    assert set(report.alphas) == {1.0}
    assert [eps for _, eps in calls[:5]] == [1.0, 1.0, 0.5, 0.5, 0.25]
    assert len(calls) == 1 + report.outer_iters + 2
    np.testing.assert_array_equal(calls[2][0], calls[1][0])


def test_fault_in_initial_evaluation_keeps_x0():
    calls = []
    x0 = np.array([1.0])
    x, report = newton_continuation(
        x0, counted_arctan(calls, fail_at=1), lu_direction(arctan_jacobian),
        ContinuationSchedule.fixed(1.0), NewtonConfig())
    assert not report.converged
    assert report.failure == "local failure"
    assert report.outer_iters == 0
    assert report.residual_norms == []
    np.testing.assert_array_equal(x, x0)


def test_gmres_breakdown_ends_as_failed_report():
    # the first step runs unpreconditioned; from step 2 on the
    # preconditioner returns NaN, so GMRES breaks down there
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    builds = []

    def precond_builder(x, eps):
        builds.append(x.copy())
        if len(builds) == 1:
            return lambda v: v
        return lambda v: np.full_like(v, np.nan)

    x, report = newton_continuation(
        np.array([3.0, -1.0]), lambda x, eps: np.arctan(a @ x),
        gmres_direction(lambda x, eps: sp.csr_matrix(a / (1.0 + (a @ x)[:, None] ** 2)).dot,
                        KrylovConfig(rel_tol=1e-12), precond_builder),
        ContinuationSchedule.fixed(1.0), NewtonConfig())
    assert not report.converged
    assert report.failure.startswith("nonfinite")
    assert report.outer_iters == 1
    assert len(report.residual_norms) == 2
    np.testing.assert_array_equal(x, builds[1])


def test_singular_gmres_operator_ends_as_breakdown():
    # the GMRES breakdown ends the solve at its first direction; it must not
    # pass a nonfinite direction on to the line search
    a = np.diag([1.0, 0.0])
    b = np.array([0.0, 1.0])
    calls = []

    def residual_fn(x, eps):
        calls.append(x.copy())
        return a @ x - b

    x, report = newton_continuation(
        np.zeros(2), residual_fn, gmres_direction(lambda x, eps: lambda v: a @ v, KrylovConfig()),
        ContinuationSchedule.fixed(1.0), NewtonConfig())
    assert not report.converged
    assert report.failure == "singular Hessenberg at iteration 1"
    assert report.outer_iters == 0
    assert len(calls) == 1
    np.testing.assert_array_equal(x, np.zeros(2))


def test_stalled_gmres_ends_as_failed_report():
    # three distinct eigenvalues need three GMRES iterations; one is allowed
    a = np.diag([1.0, 2.0, 3.0])
    b = np.ones(3)
    x, report = newton_continuation(
        np.zeros(3), lambda x, eps: a @ x - b,
        gmres_direction(lambda x, eps: lambda v: a @ v, KrylovConfig(max_iters=1)),
        ContinuationSchedule.fixed(1.0), NewtonConfig())
    assert not report.converged
    assert report.failure.startswith("GMRES stalled at residual")
    assert report.failure.endswith("after 1 iterations")
    assert report.outer_iters == 0
    np.testing.assert_array_equal(x, np.zeros(3))


@pytest.mark.parametrize("failing_call,steps", [(2, 0), (3, 1)])
def test_fault_keeps_iterate_and_history(failing_call, steps):
    # call 1 is at x0, call 2 the accepted trial of step 1, which at a fixed
    # eps is also the residual at the new iterate, and call 3 the first
    # trial of step 2
    calls = []
    x, report = newton_continuation(
        np.array([1.0]), counted_arctan(calls, fail_at=failing_call),
        lu_direction(arctan_jacobian), ContinuationSchedule.fixed(1.0), NewtonConfig())
    assert not report.converged
    assert report.failure == "local failure"
    assert report.outer_iters == steps
    assert len(report.residual_norms) == steps + 1
    np.testing.assert_array_equal(x, calls[steps][0])
    assert report.residual_norms[-1] == abs(float(np.arctan(x[0])))


@pytest.mark.parametrize("mu", [1.0, 1e-4])
def test_stiff_block_solves_without_warnings(mu):
    # the state solve inside the construction and the coupled solve both
    # reject overflowing line-search trials by design, silently
    grid = Grid(16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spec, _ = construct_test_problem(grid, nu=1e-8, mu=mu)
        _, report = newton_continuation(
            np.zeros(2 * grid.size),
            lambda x, eps: residual(x, spec, eps, check=False),
            lu_direction(lambda x, eps: jacobian(x, spec, eps)),
            ContinuationSchedule(1.0, 0.2, 1e-10), NewtonConfig())
    assert report.converged
    assert min(report.alphas) < 1.0


def stiff_jacobians(n, mu):
    """Monolithic and 2x2 local Jacobians along a continuation solve of the
    stiff sweep block nu=1e-8, each with its natural-order reference and the
    residual at the same iterate."""
    grid = Grid(n)
    iterates = []

    def jac(x, eps):
        iterates.append((x.copy(), eps))
        return jacobian(x, spec, eps)

    spec, _ = construct_test_problem(grid, nu=1e-8, mu=mu)
    newton_continuation(
        np.zeros(2 * grid.size),
        lambda x, eps: residual(x, spec, eps, check=False),
        lu_direction(jac), ContinuationSchedule(1.0, 0.2, 1e-10), NewtonConfig())
    assert len(iterates) >= 10
    dec = decompose(grid, 2, 2, 2)
    systems = build_local_systems(dec, spec)
    for x, eps in iterates[::3]:
        yield (jacobian(x, spec, eps),
               block_jacobian(spec.a, *split_pair(x), spec, eps),
               -residual(x, spec, eps, check=False))
        for sub, loc in zip(dec, systems):
            v = x[sub.pair_idx]
            rhs = -residual(x, spec, eps, check=False)[sub.pair_idx]
            yield (pair_jacobian(loc.pattern, *split_pair(v), spec, eps),
                   block_jacobian(loc.a_loc, *split_pair(v), spec, eps), rhs)


class TestSparseLU:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("mu", [1.0, 1e-4])
    def test_matches_pivoted_lu_on_stiff_block(self, n, mu):
        # the ordered symmetric-mode factor against splu's defaults on the
        # natural-order matrix
        for jac, reference, rhs in stiff_jacobians(n, mu):
            assert isinstance(jac, Ordered)
            lu, fallbacks = sparse_lu(jac, spla.splu)
            assert fallbacks == 0
            d = lu.solve(rhs)
            d_ref = spla.splu(reference).solve(rhs)
            assert np.linalg.norm(d - d_ref) <= 1e-10 * np.linalg.norm(d_ref)

    @staticmethod
    def spoiled_splu(spoil):
        """splu whose symmetric-mode factors are spoiled; records every call."""
        calls = []

        class Spoiled:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return spoil(self.lu.solve(b))

        def splu(matrix, **kwargs):
            calls.append(kwargs)
            if kwargs:
                if spoil is None:
                    raise RuntimeError("Factor is exactly singular")
                return Spoiled(spla.splu(matrix, **kwargs))
            return spla.splu(matrix)

        return splu, calls

    @pytest.mark.parametrize("spoil", [
        lambda z: z * (1.0 + 1e-8),
        lambda z: np.full_like(z, np.nan),
        None,
    ], ids=["inaccurate", "nonfinite", "raises"])
    def test_failed_probe_falls_back_to_default(self, spoil):
        rng = np.random.default_rng(3)
        jac = natural(np.eye(6) + 0.2 * rng.standard_normal((6, 6)))
        rhs = rng.standard_normal(6)
        splu, calls = self.spoiled_splu(spoil)
        lu, fallbacks = sparse_lu(jac, splu)
        assert fallbacks == 1
        assert len(calls) == 2 and calls[1] == {}
        np.testing.assert_array_equal(lu.solve(rhs), spla.splu(jac.stored).solve(rhs))

    def test_fallback_is_counted_and_changes_nothing(self, monkeypatch):
        rng = np.random.default_rng(4)
        a = sp.csr_matrix(np.eye(8) + 0.1 * rng.standard_normal((8, 8)))
        b = rng.standard_normal(8)

        def solve(splu):
            monkeypatch.setattr(newton, "spla", SimpleNamespace(splu=splu))
            return newton_continuation(
                np.zeros(8), lambda x, eps: a @ x - b, lu_direction(lambda x, eps: natural(a)),
                ContinuationSchedule.fixed(1.0), NewtonConfig())

        # the default path: splu's own ordering and pivoting on every call
        x_ref, report_ref = solve(lambda matrix, **kwargs: spla.splu(matrix))
        assert report_ref.lu_fallbacks == 0
        x, report = solve(self.spoiled_splu(lambda z: z * (1.0 + 1e-8))[0])
        assert report.outer_iters == 1
        assert report.lu_fallbacks == 1
        np.testing.assert_array_equal(x, x_ref)

    def test_spoiled_ordered_factor_falls_back_once(self):
        grid = Grid(6)
        spec, _ = construct_test_problem(grid, nu=1e-2, k_tilde=1)
        rng = np.random.default_rng(6)
        x = 0.3 * rng.standard_normal(2 * grid.size)
        jac = jacobian(x, spec, 1e-2)
        rhs = rng.standard_normal(2 * grid.size)
        splu, calls = self.spoiled_splu(lambda z: z * (1.0 + 1e-8))
        lu, fallbacks = sparse_lu(jac, splu)
        assert fallbacks == 1
        # the ordered matrix is factored as stored, then with the defaults
        assert [call.get("permc_spec") for call in calls] == ["NATURAL", None]
        expected = np.empty_like(rhs)
        expected[jac.order] = spla.splu(jac.stored).solve(rhs[jac.order])
        np.testing.assert_array_equal(lu.solve(rhs), expected)

    def test_singular_matrix_raises_like_splu(self):
        jac = natural(np.diag([1.0, 0.0, 2.0]))
        with pytest.raises(RuntimeError) as expected:
            spla.splu(jac.stored)
        with pytest.raises(RuntimeError) as got:
            sparse_lu(jac, spla.splu)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_singular_local_jacobian_names_subdomain(self, monkeypatch, bad):
        # Grid(11) in 1x3 tiles with overlap 1 gives subdomains of 4, 5 and 6
        # columns, so the size of a local block names its subdomain
        grid = Grid(11)
        spec, _ = construct_test_problem(grid, nu=1e-2, k_tilde=2)
        dec = decompose(grid, 1, 3, 1)
        bad_size = dec[bad].idx.size

        def singular_pair_jacobian(pattern, y, p, spec, eps):
            jac = pair_jacobian(pattern, y, p, spec, eps)
            if y.shape[0] == bad_size:
                first_row_zero = sp.diags(np.r_[0.0, np.ones(jac.order.size - 1)])
                jac = Ordered((first_row_zero @ jac.stored).tocsc(), jac.order,
                              jac.position)
            return jac

        monkeypatch.setattr(schwarz, "pair_jacobian", singular_pair_jacobian)
        x = np.zeros(2 * grid.size)
        with pytest.raises(LocalSolveError, match="singular") as info:
            with Lanes(2, build_local_systems(dec, spec)) as lanes:
                ras_preconditioner(x, spec, 1e-2, SolveReport(), lanes)
        assert info.value.subdomain == bad
        with pytest.raises(LocalSolveError, match="factorization failed") as info:
            raspen_residual(x, dec, spec, 1e-2, NewtonConfig(tol=1e-8))
        assert info.value.subdomain == bad


class TestRefinedSolve:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("mu", [1.0, 1e-4])
    def test_matches_pivoted_lu_on_stiff_jacobians(self, n, mu, monkeypatch):
        solves = []

        def counting_splu(matrix, **kwargs):
            lu = spla.splu(matrix, **kwargs)
            return SimpleNamespace(solve=lambda b: solves.append(b) or lu.solve(b))

        for jac, reference, rhs in stiff_jacobians(n, mu):
            if jac.stored.shape[0] < 2 * n * n:
                continue  # a subdomain's local Jacobian keeps the double factor
            solves.clear()
            with monkeypatch.context() as patch:
                patch.setattr(newton, "spla", SimpleNamespace(splu=counting_splu))
                lu = float32_lu(jac)
            d, taken = refined_solve(jac, rhs, lu)
            # refinement ends when the residual stops halving, not at the cap
            assert taken == len(solves) < newton.MAX_REFINEMENTS
            d_ref = spla.splu(reference).solve(rhs)
            assert np.linalg.norm(d - d_ref) <= 1e-12 * np.linalg.norm(d_ref)
            # as accurate as the double-precision factor it replaces
            d_double = sparse_lu(jac, spla.splu)[0].solve(rhs)
            residuals = [np.linalg.norm(reference @ v - rhs) for v in (d, d_double)]
            assert residuals[0] <= 2 * residuals[1]

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("mu", [1.0, 1e-4])
    def test_earlier_factor_is_as_accurate_or_rejected(self, n, mu):
        # each monolithic Jacobian refined on the float32 factor of the one
        # before it: a kept direction sits at the roundoff floor of the
        # double-precision factor it replaces
        mono = [(jac, reference, rhs) for jac, reference, rhs in stiff_jacobians(n, mu)
                if jac.stored.shape[0] == 2 * n * n]
        for (earlier, _, _), (jac, reference, rhs) in zip(mono, mono[1:]):
            lu, solves = float32_lu(earlier), []
            counting = SimpleNamespace(solve=lambda b: solves.append(b) or lu.solve(b))
            d, taken = refined_solve(jac, rhs, counting)
            assert taken == len(solves)
            if d is None:
                continue
            # refinement ended when the residual stopped halving
            assert len(solves) < newton.MAX_REFINEMENTS
            d_double = sparse_lu(jac, spla.splu)[0].solve(rhs)
            residuals = [np.linalg.norm(reference @ v - rhs) for v in (d, d_double)]
            assert residuals[0] <= 2 * residuals[1]

    @staticmethod
    def default_solve(monkeypatch, splu, events=None):
        """The newton-eps solve of the default problem at n=32 with its
        monolithic Jacobian refined, factored by splu; each step appends
        "J" to events, if given."""
        grid = Grid(32)
        spec, _ = construct_test_problem(grid)
        monkeypatch.setattr(newton, "spla", SimpleNamespace(splu=splu))

        def jacobian_fn(x, eps):
            if events is not None:
                events.append("J")
            return jacobian(x, spec, eps)

        return newton_continuation(
            np.zeros(2 * grid.size), lambda x, eps: residual(x, spec, eps),
            refined_direction(jacobian_fn), ContinuationSchedule(), NewtonConfig())

    def test_held_factor_is_reused_without_changing_the_result(self, monkeypatch):
        dtypes = []

        def counting_splu(matrix, **kwargs):
            dtypes.append(matrix.dtype)
            return spla.splu(matrix, **kwargs)

        def double_splu(matrix, **kwargs):
            if matrix.dtype == np.float32:
                raise RuntimeError("no single-precision factor")
            return spla.splu(matrix, **kwargs)

        x_ref, report_ref = self.default_solve(monkeypatch, double_splu)
        assert report_ref.converged and report_ref.lu_fallbacks == report_ref.outer_iters
        x, report = self.default_solve(monkeypatch, counting_splu)
        assert report.converged and report.outer_iters == report_ref.outer_iters
        # some directions come from an earlier step's factor, and a factor
        # that misses is replaced without counting a fallback
        assert all(dtype == np.float32 for dtype in dtypes)
        assert 1 < len(dtypes) < report.outer_iters
        assert report.lu_fallbacks == 0
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    def test_stale_held_factor_is_refreshed_on_the_next_step(self, monkeypatch):
        # the solve as a string: "J" per step, "F" per float32 factor and
        # "s" per float32 solve
        def traced_solve():
            events = []

            def tracing_splu(matrix, **kwargs):
                lu = spla.splu(matrix, **kwargs)
                if matrix.dtype != np.float32:
                    return lu
                events.append("F")
                return SimpleNamespace(solve=lambda b: events.append("s") or lu.solve(b))

            x, report = self.default_solve(monkeypatch, tracing_splu, events)
            assert report.converged and report.lu_fallbacks == 0
            return x, "".join(events)

        x, events = traced_solve()
        steps = events.split("J")[1:]
        # per step: the solves on the held factor, if its direction was kept
        kept = [len(step) if "F" not in step else None for step in steps]
        stale = kept_fresh = 0
        for solves, following in zip(kept, steps[1:]):
            if solves is None:
                continue
            if solves > newton.REFRESH_SOLVES:
                # kept, then dropped: the next step starts on a fresh factor
                stale += 1
                assert following.startswith("F")
            else:
                kept_fresh += 1
                assert following.startswith("s")
        assert stale and kept_fresh
        # the rule counts solves, so a rerun makes the same factors
        x_again, events_again = traced_solve()
        assert events_again == events
        np.testing.assert_array_equal(x_again, x)

    def test_one_float32_factor_is_alive_at_a_time(self, monkeypatch):
        class Factor:
            def __init__(self, lu):
                self.solve = lu.solve

        made = []

        def tracking_splu(matrix, **kwargs):
            # no float32 factor is alive when a factor is made: a held one
            # that missed is released before its replacement
            assert all(ref() is None for ref in made)
            lu = spla.splu(matrix, **kwargs)
            if matrix.dtype != np.float32:
                return lu
            factor = Factor(lu)
            made.append(weakref.ref(factor))
            return factor

        _, report = self.default_solve(monkeypatch, tracking_splu)
        assert report.converged and len(made) > 1
        # the solve lets go of the factor it held
        assert all(ref() is None for ref in made)

    def test_held_factor_that_reaches_the_cap_is_replaced(self, monkeypatch):
        # steps 6 and 7 of the default n=32 newton-eps solve: a fresh factor
        # of either Jacobian refines in 4 solves, step 6's factor takes 19 to
        # refine step 7's direction, so a cap of 5 stops it still halving
        grid = Grid(32)
        spec, _ = construct_test_problem(grid)
        iterates = []

        def jac(x, eps):
            iterates.append((x.copy(), eps))
            return jacobian(x, spec, eps)

        newton_continuation(np.zeros(2 * grid.size), lambda x, eps: residual(x, spec, eps),
                            lu_direction(jac), ContinuationSchedule(), NewtonConfig())
        (x6, eps6), (x7, eps7) = iterates[6:8]
        jac7, rhs7 = jacobian(x7, spec, eps7), -residual(x7, spec, eps7)
        monkeypatch.setattr(newton, "MAX_REFINEMENTS", 5)
        assert refined_solve(jac7, rhs7, float32_lu(jacobian(x6, spec, eps6))) == (None, 5)

        factors = []

        def counting_splu(matrix, **kwargs):
            factors.append(matrix.dtype)
            return spla.splu(matrix, **kwargs)

        monkeypatch.setattr(newton, "spla", SimpleNamespace(splu=counting_splu))
        direction = refined_direction(lambda x, eps: jacobian(x, spec, eps))
        report = SolveReport()
        direction(x6, eps6, -residual(x6, spec, eps6), report)
        d, _ = direction(x7, eps7, rhs7, report)
        # the held factor missed, so step 7 made a fresh float32 factor
        assert factors == [np.float32, np.float32]
        assert report.lu_fallbacks == 0
        d_ref = sparse_lu(jac7, spla.splu)[0].solve(rhs7)
        assert np.linalg.norm(d - d_ref) <= 1e-12 * np.linalg.norm(d_ref)

    def test_zero_right_hand_side_is_no_fallback(self, monkeypatch):
        # kappa = 0 and f = y_d = 0: x = 0 solves every eps, so each
        # continuation step asks for the direction of a zero right-hand side
        grid = Grid(8)
        spec = ProblemSpec(grid=grid, a=build_laplacian(grid), phi=Nonlinearity(0.0),
                           nu=1e-2, mu=1.0, f=np.zeros(grid.size), y_d=np.zeros(grid.size))
        factors = []

        def counting_splu(matrix, **kwargs):
            factors.append(matrix.dtype)
            return spla.splu(matrix, **kwargs)

        monkeypatch.setattr(newton, "spla", SimpleNamespace(splu=counting_splu))
        cfg = build_config(overrides=dict(method="newton-eps", n=8, kappa=0.0, nu=1e-2,
                                          eps_min=1e-4, linear_solver="direct"))
        x, report, _ = solve_single(cfg, spec)
        assert report.converged and report.outer_iters == 6
        assert report.lu_fallbacks == 0
        np.testing.assert_array_equal(x, np.zeros(2 * grid.size))
        assert factors == []

    @staticmethod
    def spoiled_splu(spoil, spoil_double):
        """splu whose float32 factors are spoiled by spoil (None: they raise),
        and with spoil_double its symmetric-mode double factors by 1e-8."""

        class Spoiled:
            def __init__(self, lu, scale):
                self.solve = lambda b: scale(lu.solve(b))

        def splu(matrix, **kwargs):
            if matrix.dtype == np.float32:
                if spoil is None:
                    raise RuntimeError("Factor is exactly singular")
                return Spoiled(spla.splu(matrix, **kwargs), spoil)
            if kwargs and spoil_double:
                return Spoiled(spla.splu(matrix, **kwargs), lambda z: z * (1.0 + 1e-8))
            return spla.splu(matrix, **kwargs)

        return splu

    @pytest.mark.parametrize("spoil_double", [False, True],
                             ids=["symmetric", "pivoted"])
    @pytest.mark.parametrize("spoil", [
        lambda z: 2.0 * z,
        lambda z: np.full_like(z, np.nan),
        None,
    ], ids=["stalled", "nonfinite", "raises"])
    def test_rejected_factor_falls_back_to_double(self, monkeypatch, spoil,
                                                  spoil_double):
        # a rejected single-precision direction is counted and leaves exactly
        # the double-precision path, symmetric or, past its probe, pivoted
        grid = Grid(8)
        spec, _ = construct_test_problem(grid, nu=1e-2, k_tilde=1)

        def solve(refined, splu):
            monkeypatch.setattr(newton, "spla", SimpleNamespace(splu=splu))
            direction = refined_direction if refined else lu_direction
            return newton_continuation(
                np.zeros(2 * grid.size), lambda x, eps: residual(x, spec, eps),
                direction(lambda x, eps: jacobian(x, spec, eps)),
                ContinuationSchedule(1.0, 0.2, 1e-3), NewtonConfig())

        spoiled = self.spoiled_splu(spoil, spoil_double)
        x_ref, report_ref = solve(False, spoiled)
        assert report_ref.lu_fallbacks == (report_ref.outer_iters if spoil_double else 0)
        x, report = solve(True, spoiled)
        assert report.converged and report.outer_iters == report_ref.outer_iters > 0
        assert report.lu_fallbacks == report_ref.lu_fallbacks + report.outer_iters
        np.testing.assert_array_equal(x, x_ref)

    def test_entries_beyond_float32_fall_back_silently(self):
        # the float32 copy of 1e39 overflows; pyproject.toml turns any
        # RuntimeWarning into an error
        matrix = sp.csc_matrix(np.diag([1e39, 1.0, 2.0]) + np.diag([0.1, 0.1], 1))
        order = np.array([2, 0, 1])
        jac = Ordered(matrix[order][:, order].tocsc(), order, np.argsort(order))
        b = np.array([1e39, 1.0, 1.0])
        assert float32_lu(jac) is None

        def solve(direction):
            return newton_continuation(
                np.zeros(3), lambda x, eps: jac @ x - b, direction(lambda x, eps: jac),
                ContinuationSchedule.fixed(1.0), NewtonConfig())

        x_ref, report_ref = solve(lu_direction)
        x, report = solve(refined_direction)
        assert report.converged and report.outer_iters == report_ref.outer_iters == 1
        assert (report_ref.lu_fallbacks, report.lu_fallbacks) == (0, 1)
        np.testing.assert_array_equal(x, x_ref)


class TestStepLifetimes:
    """Nothing a step makes for its direction is alive in its line search:
    not its Ordered Jacobian, its double-precision factor or its RAS
    preconditioner.  Only the held float32 factor and the lanes' local
    factors may outlive a step, and neither is watched here."""

    @staticmethod
    def watch(monkeypatch, float32=True):
        """Weak references to every watched object, by kind, and the number
        of line searches; each line search asserts that all are dead."""
        refs = {"jacobian": [], "factor": [], "preconditioner": []}
        searches = []
        real_backtrack, real_splu = newton.backtrack, newton.spla.splu
        real_sparse_lu, real_jacobian = newton.sparse_lu, experiments.jacobian
        real_ras = experiments.ras_preconditioner

        class Factor:
            def __init__(self, lu):
                self.solve = lu.solve

        class Preconditioner:
            def __init__(self, apply):
                self.apply = apply

            def __call__(self, v):
                return self.apply(v)

        def watched(kind, obj):
            refs[kind].append(weakref.ref(obj))
            return obj

        def splu(matrix, **kwargs):
            if matrix.dtype == np.float32:
                if not float32:
                    raise RuntimeError("no single-precision factor")
                return real_splu(matrix, **kwargs)
            return watched("factor", Factor(real_splu(matrix, **kwargs)))

        def backtrack(*args):
            searches.append(True)
            alive = [kind for kind, kind_refs in refs.items()
                     if any(ref() is not None for ref in kind_refs)]
            assert not alive, f"alive in the line search: {alive}"
            return real_backtrack(*args)

        monkeypatch.setattr(newton, "backtrack", backtrack)
        monkeypatch.setattr(newton, "spla", SimpleNamespace(splu=splu))
        monkeypatch.setattr(newton, "sparse_lu", lambda jac, splu: real_sparse_lu(
            watched("jacobian", jac), splu))
        monkeypatch.setattr(experiments, "jacobian", lambda x, spec, eps: watched(
            "jacobian", real_jacobian(x, spec, eps)))
        monkeypatch.setattr(experiments, "ras_preconditioner", lambda *args: watched(
            "preconditioner", Preconditioner(real_ras(*args))))
        return refs, searches

    def test_direct_state_solve(self, monkeypatch):
        refs, searches = self.watch(monkeypatch)
        construct_test_problem(Grid(16), nu=1e-2, k_tilde=2)
        assert searches and len(refs["jacobian"]) == len(refs["factor"]) == len(searches)

    @pytest.mark.parametrize("method,linear_solver,float32,kinds", [
        ("newton-eps", "auto", True, ["jacobian"]),
        ("newton-eps", "auto", False, ["jacobian", "factor"]),
        ("newton-eps", "gmres", True, ["jacobian"]),
        ("newton-ras-eps", "auto", True, ["jacobian", "preconditioner"]),
    ], ids=["refined", "refined-fallback", "gmres", "ras-gmres"])
    def test_coupled_solve(self, monkeypatch, method, linear_solver, float32, kinds):
        cfg = build_config(overrides=dict(method=method, n=16, nu=1e-2, k_tilde=2,
                                          eps_min=1e-3, s1=2, s2=2, overlap=1,
                                          linear_solver=linear_solver))
        spec = experiments.build_problem(cfg)[1]
        refs, searches = self.watch(monkeypatch, float32)
        _, report, _ = solve_single(cfg, spec)
        assert report.converged and len(searches) == report.outer_iters > 1
        # one watched object of each kind per step
        assert all(len(refs[kind]) >= report.outer_iters for kind in kinds)
