from types import SimpleNamespace
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ocp.grid import Grid, NonfiniteFieldError
import ocp.krylov as krylov
from ocp.krylov import GmresBreakdownError, KrylovConfig
import ocp.newton as newton
from ocp.newton import (ContinuationSchedule, LinearSolveError, LineSearchError,
                        NewtonConfig, Ordered, SolveReport, SolverFault,
                        backtrack, newton_continuation, sparse_lu)
import ocp.schwarz as schwarz
from ocp.schwarz import (Lanes, LocalSolveError, build_local_systems,
                         decompose, ras_preconditioner, raspen_residual)
from ocp.system import (construct_test_problem, jacobian, jacobian_diagonals,
                        pair_jacobian, residual, split_pair)


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


def test_linear_problem_converges_in_one_step():
    rng = np.random.default_rng(0)
    a = sp.csr_matrix(np.eye(8) + 0.1 * rng.standard_normal((8, 8)))
    b = rng.standard_normal(8)
    x, report = newton_continuation(
        np.zeros(8), lambda x, eps: a @ x - b, lambda x, eps: a,
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
    cfg = NewtonConfig(linear_solver=KrylovConfig(rel_tol=1e-13))
    x, report = newton_continuation(
        np.zeros(8), lambda x, eps: a @ x - b, lambda x, eps: a.dot,
        ContinuationSchedule.fixed(1.0), cfg)
    assert report.converged
    assert report.gmres_iters[0] >= 1
    assert report.avg_gmres_iters == report.gmres_iters[0]
    assert np.allclose(a @ x, b, rtol=0, atol=1e-9)


def test_eps_path_follows_schedule_to_floor():
    # residual independent of eps, solved exactly in one step; the loop then
    # has to walk eps down to the floor before it may declare convergence
    sched = ContinuationSchedule(eps0=1.0, gamma=0.2, eps_min=1e-10)
    x, report = newton_continuation(
        np.ones(3), lambda x, eps: x.copy(), lambda x, eps: sp.identity(3, format="csr"),
        sched, NewtonConfig())
    assert report.converged
    expected = [max(0.2 ** k, 1e-10) for k in range(16)]
    assert report.eps_values == pytest.approx(expected, rel=1e-12)
    assert report.outer_iters == 15
    assert np.allclose(x, 0.0)


def test_no_early_convergence_above_eps_floor():
    sched = ContinuationSchedule(eps0=1.0, gamma=0.5, eps_min=0.25)
    x, report = newton_continuation(
        np.ones(2), lambda x, eps: x.copy(), lambda x, eps: sp.identity(2, format="csr"),
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
        return sp.csr_matrix(np.array([[1.0 / (1.0 + float(x[0]) ** 2)]]))

    x, report = newton_continuation(
        np.array([2.0]), residual, jac, ContinuationSchedule.fixed(1e-10),
        NewtonConfig())
    assert report.converged
    assert min(report.alphas) < 1.0
    assert abs(float(x[0])) <= 1e-9


def test_accepted_norms_respect_sigma():
    def residual(x, eps):
        return np.arctan(x)

    def jac(x, eps):
        return sp.csr_matrix(np.array([[1.0 / (1.0 + float(x[0]) ** 2)]]))

    _, report = newton_continuation(
        np.array([2.0]), residual, jac, ContinuationSchedule.fixed(1e-10),
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
        np.zeros(4), lambda x, eps: a @ x - b, lambda x, eps: a,
        ContinuationSchedule.fixed(1.0), NewtonConfig(tol=1e-10))
    assert report.threshold == pytest.approx(1e-10 * np.linalg.norm(b), rel=1e-12)


def test_max_outer_reports_failure():
    # gradient flow that never reaches tol within the allowed iterations
    x, report = newton_continuation(
        np.ones(1), lambda x, eps: x ** 3 + 1e-3, lambda x, eps: sp.csr_matrix([[3.0 * float(x[0]) ** 2]]),
        ContinuationSchedule.fixed(1.0), NewtonConfig(max_outer=2))
    assert not report.converged
    assert "outer iterations" in report.failure


def test_singular_jacobian_reports_linear_failure():
    x, report = newton_continuation(
        np.ones(1), lambda x, eps: x.copy(), lambda x, eps: sp.csr_matrix((1, 1)),
        ContinuationSchedule.fixed(1.0), NewtonConfig())
    assert not report.converged
    assert report.failure.startswith("sparse factorization failed")
    assert report.outer_iters == 0


def test_run_is_deterministic():
    def residual(x, eps):
        return np.arctan(x) + eps * x

    def jac(x, eps):
        return sp.csr_matrix(np.array([[1.0 / (1.0 + float(x[0]) ** 2) + eps]]))

    sched = ContinuationSchedule(1.0, 0.2, 1e-8)
    runs = [newton_continuation(np.array([2.0]), residual, jac, sched, NewtonConfig())
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
            x0, residual_fn, lambda x, eps: sp.identity(x.size, format="csr"),
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
    return sp.csr_matrix(np.array([[1.0 / (1.0 + float(x[0]) ** 2)]]))


def test_fixed_eps_reuses_accepted_trial():
    # from x0 = 2 the first step needs halvings; at a fixed eps every call
    # after the one at x0 is a line-search trial
    calls = []
    x, report = newton_continuation(
        np.array([2.0]), counted_arctan(calls), arctan_jacobian,
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
        np.array([1.0]), counted_arctan(calls), arctan_jacobian, sched,
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
        x0, counted_arctan(calls, fail_at=1), arctan_jacobian,
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
        lambda x, eps: sp.csr_matrix(a / (1.0 + (a @ x)[:, None] ** 2)).dot,
        ContinuationSchedule.fixed(1.0),
        NewtonConfig(linear_solver=KrylovConfig(rel_tol=1e-12)),
        precond_builder=precond_builder)
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
        np.zeros(2), residual_fn, lambda x, eps: lambda v: a @ v,
        ContinuationSchedule.fixed(1.0), NewtonConfig(linear_solver=KrylovConfig()))
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
        np.zeros(3), lambda x, eps: a @ x - b, lambda x, eps: lambda v: a @ v,
        ContinuationSchedule.fixed(1.0),
        NewtonConfig(linear_solver=KrylovConfig(max_iters=1)))
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
        arctan_jacobian, ContinuationSchedule.fixed(1.0), NewtonConfig())
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
            lambda x, eps: jacobian(x, spec, eps),
            ContinuationSchedule(1.0, 0.2, 1e-10), NewtonConfig())
    assert report.converged
    assert min(report.alphas) < 1.0


def block_jacobian(a, y, p, spec, eps):
    """Reference assembly of the pair Jacobian, block by block in natural order."""
    dphi_y, b12, b21 = jacobian_diagonals(y, p, spec, eps)
    a11 = a + sp.diags(dphi_y)
    return sp.bmat([[a11, sp.diags(b12)], [sp.diags(b21), a11]], format="csc")


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
        jac, ContinuationSchedule(1.0, 0.2, 1e-10), NewtonConfig())
    assert len(iterates) >= 10
    dec = decompose(grid, 2, 2, 2)
    systems = build_local_systems(dec, spec)
    for x, eps in iterates[::3]:
        yield (jacobian(x, spec, eps),
               block_jacobian(spec.a, *split_pair(x), spec, eps),
               -residual(x, spec, eps, check=False))
        for sub, loc in zip(dec.subdomains, systems):
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
        jac = sp.csc_matrix(np.eye(6) + 0.2 * rng.standard_normal((6, 6)))
        rhs = rng.standard_normal(6)
        splu, calls = self.spoiled_splu(spoil)
        lu, fallbacks = sparse_lu(jac, splu)
        assert fallbacks == 1
        assert len(calls) == 2 and calls[1] == {}
        np.testing.assert_array_equal(lu.solve(rhs), spla.splu(jac).solve(rhs))

    def test_fallback_is_counted_and_changes_nothing(self, monkeypatch):
        rng = np.random.default_rng(4)
        a = sp.csr_matrix(np.eye(8) + 0.1 * rng.standard_normal((8, 8)))
        b = rng.standard_normal(8)

        def solve(splu):
            monkeypatch.setattr(newton, "spla", SimpleNamespace(splu=splu))
            return newton_continuation(
                np.zeros(8), lambda x, eps: a @ x - b, lambda x, eps: a,
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
        jac = sp.csc_matrix(np.diag([1.0, 0.0, 2.0]))
        with pytest.raises(RuntimeError) as expected:
            spla.splu(jac)
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
        bad_size = dec.subdomains[bad].idx.size

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
            with Lanes(2, len(dec)) as lanes:
                ras_preconditioner(x, dec, spec, 1e-2, build_local_systems(dec, spec),
                                   SolveReport(), lanes)
        assert info.value.subdomain == bad
        with pytest.raises(LocalSolveError, match="factorization failed") as info:
            raspen_residual(x, dec, spec, 1e-2, NewtonConfig(tol=1e-8))
        assert info.value.subdomain == bad
