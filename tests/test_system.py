import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ocp.grid import Grid, NonfiniteFieldError, build_laplacian
from ocp.krylov import SolverFault
import ocp.newton as newton
from ocp.newton import (ContinuationSchedule, NewtonConfig, Ordered, lu_direction,
                        newton_continuation)
from ocp.smoothing import smoothed_projection
from ocp.system import (EPS_CONSTRUCT, EXP_ARG_MAX, PAIR_DIAGONALS, STATE_DIAGONALS,
                        STATE_TOL, JacobianPattern, Nonlinearity, ProblemSpec,
                        _checked, construct_plateau_problem, construct_test_problem,
                        jacobian, jacobian_apply, jacobian_diagonals, merge_pair,
                        plateau_profile, recover_control, residual, solve_state,
                        sparsity_target_problem, split_pair)
from support import natural, objective, penalty_antiderivative


def make_spec(n=4, kappa=0.1, nu=1e-6, mu=1.0, f=None, y_d=None):
    grid = Grid(n)
    zero = np.zeros(grid.size)
    return ProblemSpec(grid=grid, a=build_laplacian(grid), phi=Nonlinearity(kappa),
                       nu=nu, mu=mu,
                       f=zero if f is None else f,
                       y_d=zero if y_d is None else y_d)


class TestNonlinearity:
    def test_values_at_zero(self):
        phi = Nonlinearity(0.1)
        z = np.zeros(3)
        assert np.allclose(phi.value(z), 0.1)
        assert np.allclose(phi.derivative(z), 0.01)
        assert np.allclose(phi.second_derivative(z), 0.001)

    def test_linear_case_vanishes(self):
        phi = Nonlinearity(0.0)
        s = np.array([-3.0, 0.0, 7.0])
        assert np.array_equal(phi.value(s), np.zeros(3))
        assert np.array_equal(phi.derivative(s), np.zeros(3))
        assert np.array_equal(phi.second_derivative(s), np.zeros(3))

    def test_derivative_chain_is_consistent(self):
        phi = Nonlinearity(0.1)
        s = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
        h = 1e-6
        fd1 = (phi.value(s + h) - phi.value(s - h)) / (2 * h)
        fd2 = (phi.derivative(s + h) - phi.derivative(s - h)) / (2 * h)
        assert np.allclose(phi.derivative(s), fd1, rtol=1e-8)
        assert np.allclose(phi.second_derivative(s), fd2, rtol=1e-7)

    def test_derivative_is_nonnegative(self):
        phi = Nonlinearity(0.1)
        s = np.random.default_rng(0).uniform(-100, 100, 1000)
        assert np.all(phi.derivative(s) > 0.0)

    def test_overflow_checked_mode_raises_with_index(self):
        # phi is checked where the Jacobian is assembled; kappa * y just above
        # EXP_ARG_MAX stays finite through the clamp and still counts
        spec = make_spec(n=2, kappa=0.1)
        for y_over in (1e5, EXP_ARG_MAX / 0.1 + 1.0):
            y = np.zeros(spec.grid.size)
            y[1] = y_over
            x = merge_pair(y, np.ones(spec.grid.size))
            with pytest.raises(NonfiniteFieldError, match=r"phi'\(y\)") as info:
                jacobian(x, spec, 1e-2)
            assert info.value.index == 1

    def test_overflow_unchecked_mode_stays_usable(self):
        phi = Nonlinearity(0.1)
        s = np.array([0.0, 1e5])
        for term in (phi.value, phi.derivative, phi.second_derivative):
            assert np.all(np.isfinite(term(s)))

    def test_value_matches_pow_within_two_ulp(self):
        # the cube is a product, not pow: within 2 ulp of the reference,
        # relative to the size of its terms (they cancel near phi's root),
        # and the same inf or nan where the reference has one: s^3
        # overflows beyond |s| = 5.65e102, and the exponent is clamped
        phi = Nonlinearity(0.1)
        magnitudes = np.logspace(-100, 150, 2001)
        s = np.concatenate([magnitudes, -magnitudes, [
            0.0, -0.0, np.nan, np.inf, -np.inf, 5.6e102, -5.6e102, 5.7e102,
            -5.7e102, EXP_ARG_MAX / 0.1, EXP_ARG_MAX / 0.1 + 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            exp = np.exp(np.minimum(0.1 * s, EXP_ARG_MAX))
            expected = 0.1 * (s ** 3 + exp)
            scale = 0.1 * (np.abs(s) ** 3 + exp)
        got = phi.value(s)
        finite = np.isfinite(expected)
        np.testing.assert_array_equal(got[~finite], expected[~finite])
        with np.errstate(invalid="ignore"):
            overflows = np.abs(s) > np.cbrt(np.finfo(float).max)
        np.testing.assert_array_equal(np.isinf(got), overflows)
        assert np.all(np.abs(got[finite] - expected[finite])
                      <= 2 * np.spacing(scale[finite]))
        assert np.array_equal(phi.value(np.array([-0.0, 0.0])), [0.1, 0.1])

    def test_checked_flags_clamped_and_nonfinite_entries(self):
        phi = Nonlinearity(0.1)
        ok = np.array([-3.0, 0.0, 2.0])
        values = phi.derivative(ok)
        assert _checked(phi, ok, values, "phi'(y)") is values
        for s, bad in [([1.0, EXP_ARG_MAX / 0.1 + 1.0], 1),  # finite, but clamped
                       ([1.0, -1e200], 1),  # phi' overflows
                       ([np.nan, 1.0], 0)]:
            s = np.array(s)
            with pytest.raises(NonfiniteFieldError, match=r"phi'\(y\)") as info:
                _checked(phi, s, phi.derivative(s), "phi'(y)")
            assert info.value.index == bad


class TestPairLayout:
    def test_merge_split_roundtrip(self):
        y = np.arange(4.0)
        p = np.arange(4.0, 8.0)
        y2, p2 = split_pair(merge_pair(y, p))
        assert np.array_equal(y, y2)
        assert np.array_equal(p, p2)

    def test_spec_validation(self):
        grid = Grid(2)
        a = build_laplacian(grid)
        z = np.zeros(grid.size)
        with pytest.raises(ValueError):
            ProblemSpec(grid=grid, a=a, phi=Nonlinearity(), nu=0.0, mu=1.0, f=z, y_d=z)
        with pytest.raises(ValueError):
            ProblemSpec(grid=grid, a=a, phi=Nonlinearity(), nu=1.0, mu=1.0,
                        f=np.zeros(3), y_d=z)


class TestResidual:
    def test_zero_adjoint_kills_control_term(self):
        spec = make_spec()
        y = np.random.default_rng(1).standard_normal(spec.grid.size)
        x = merge_pair(y, np.zeros(spec.grid.size))
        r1, r2 = split_pair(residual(x, spec, eps=1e-2))
        assert np.array_equal(r1, spec.a @ y + spec.phi.value(y))

    def test_all_zero_state(self):
        spec = make_spec(kappa=0.1)
        x = np.zeros(2 * spec.grid.size)
        r1, r2 = split_pair(residual(x, spec, eps=1e-2))
        assert np.allclose(r1, 0.1)
        assert np.array_equal(r2, np.zeros(spec.grid.size))

    def test_manufactured_pair_is_consistent(self):
        spec, (y_bar, p_bar) = construct_test_problem(Grid(40))
        x = merge_pair(y_bar, p_bar)
        r1, r2 = split_pair(residual(x, spec, eps=1e-15))
        u_scale = np.max(np.abs(recover_control(p_bar, spec, 1e-15)))
        assert np.max(np.abs(r1)) <= 1e-10 * u_scale
        assert np.max(np.abs(r2)) <= 1e-10 * max(1.0, np.max(np.abs(spec.a @ p_bar)))

    def test_unchecked_mode_returns_nonfinite_instead_of_raising(self):
        # the default: the line search, not the residual, rejects such trials
        spec = make_spec()
        x = np.full(2 * spec.grid.size, 1e160)
        out = residual(x, spec, eps=1e-2)
        assert not np.all(np.isfinite(out))
        with pytest.raises(NonfiniteFieldError):
            residual(x, spec, eps=1e-2, check=True)


class TestJacobian:
    def test_zero_direction(self):
        spec = make_spec()
        x = np.random.default_rng(2).standard_normal(2 * spec.grid.size)
        out = jacobian_apply(x, np.zeros_like(x), spec, 1e-2)
        assert np.array_equal(out, np.zeros_like(x))

    def test_apply_matches_assembled_matrix(self):
        spec = make_spec(n=5)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2 * spec.grid.size)
        d = rng.standard_normal(2 * spec.grid.size)
        # the block formula [[A + D1, D12], [D21, A + D1]] in natural order
        dphi_y, b12, b21 = jacobian_diagonals(*split_pair(x), spec, 1e-2)
        a11 = spec.a + sp.diags(dphi_y)
        assembled = sp.bmat([[a11, sp.diags(b12)], [sp.diags(b21), a11]]) @ d
        assert np.allclose(jacobian_apply(x, d, spec, 1e-2), assembled,
                           rtol=1e-13, atol=1e-10)

    def test_linearity(self):
        spec = make_spec(n=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(2 * spec.grid.size)
        d1 = rng.standard_normal(2 * spec.grid.size)
        d2 = rng.standard_normal(2 * spec.grid.size)
        lhs = jacobian_apply(x, 2.0 * d1 - 3.0 * d2, spec, 1e-2)
        rhs = 2.0 * jacobian_apply(x, d1, spec, 1e-2) - 3.0 * jacobian_apply(x, d2, spec, 1e-2)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_matches_directional_finite_differences(self):
        spec = make_spec(n=16)
        rng = np.random.default_rng(5)
        x = 0.5 * rng.standard_normal(2 * spec.grid.size)
        tau = 1e-6
        for _ in range(5):
            d = rng.standard_normal(2 * spec.grid.size)
            d /= np.linalg.norm(d)
            fd = (residual(x + tau * d, spec, 1e-2) - residual(x, spec, 1e-2)) / tau
            jd = jacobian_apply(x, d, spec, 1e-2)
            assert np.linalg.norm(fd - jd) <= 1e-5 * np.linalg.norm(jd)

    def test_linear_phi_second_row_is_operator_row(self):
        spec = make_spec(n=4, kappa=0.0)
        x = np.zeros(2 * spec.grid.size)
        e = np.zeros(spec.grid.size)
        e[7] = 1.0
        d = merge_pair(np.zeros(spec.grid.size), e)
        out1, out2 = split_pair(jacobian_apply(x, d, spec, 1e-2))
        assert np.array_equal(out2, (spec.a @ e))


class TestRecovery:
    def test_zero_adjoint(self):
        spec = make_spec()
        z = np.zeros(spec.grid.size)
        assert np.array_equal(recover_control(z, spec, 1e-2), z)
        assert np.array_equal(smoothed_projection(-z / spec.mu, 1e-2), z)

    def test_inactive_band_gives_exact_zero_control(self):
        spec = make_spec(mu=1.0)
        p = np.random.default_rng(6).uniform(-1.0, 1.0, spec.grid.size)
        assert np.array_equal(recover_control(p, spec, eps=0.0), np.zeros(spec.grid.size))

    def test_saturated_multiplier(self):
        spec = make_spec(mu=0.5)
        p = np.full(spec.grid.size, -1.0)  # -2 mu
        assert np.allclose(smoothed_projection(-p / spec.mu, 0.0), 1.0)

    def test_stationarity_identity(self):
        spec = make_spec(nu=1e-6, mu=1.0)
        p = 3.0 * np.random.default_rng(7).standard_normal(spec.grid.size)
        u = recover_control(p, spec, 1e-3)
        lam = smoothed_projection(-p / spec.mu, 1e-3)
        drift = spec.nu * u + p + spec.mu * lam
        assert np.max(np.abs(drift)) <= 1e-12 * max(1.0, np.max(np.abs(p)))

    def test_multiplier_range(self):
        spec = make_spec()
        p = 100.0 * np.random.default_rng(8).standard_normal(spec.grid.size)
        lam = smoothed_projection(-p / spec.mu, 1e-4)
        assert np.all(np.abs(lam) <= 1.0)


class TestSolveState:
    def test_manufactured_inverse(self):
        spec = make_spec(n=8)
        rng = np.random.default_rng(9)
        w = rng.standard_normal(spec.grid.size)
        u = spec.a @ w + spec.phi.value(w) - spec.f
        y = solve_state(u, spec)
        assert np.max(np.abs(y - w)) <= 1e-10

    def test_linear_case_matches_direct_solve(self):
        spec = make_spec(n=8, kappa=0.0)
        u = np.random.default_rng(10).standard_normal(spec.grid.size)
        y = solve_state(u, spec)
        assert np.allclose(y, spla.spsolve(spec.a.tocsc(), u), rtol=1e-10, atol=1e-12)

    def test_balanced_source_gives_zero_state(self):
        grid = Grid(4)
        spec = make_spec(n=4, f=np.full(grid.size, 0.1))
        y = solve_state(np.zeros(grid.size), spec)
        assert np.array_equal(y, np.zeros(grid.size))

    @pytest.mark.parametrize("nu", [1e-2, 1e-8])
    def test_factors_the_jacobian_in_the_operator_order(self, monkeypatch, nu):
        # every state Jacobian is an Ordered matrix in the operator's point
        # order, factored as stored; y is the one Newton gives on the
        # Jacobian stored and factored in natural order
        spec, (_, p_bar) = construct_test_problem(Grid(16), nu=nu, k_tilde=2)
        u = recover_control(p_bar, spec, EPS_CONSTRUCT)
        jacobians, factors = [], []
        real_lu, real_splu = newton.sparse_lu, newton.spla.splu

        def sparse_lu(jac, splu, rhs=None):
            jacobians.append(jac)
            return real_lu(jac, splu, rhs)

        def splu(matrix, **kwargs):
            factors.append(kwargs.get("permc_spec"))
            return real_splu(matrix, **kwargs)

        monkeypatch.setattr(newton, "sparse_lu", sparse_lu)
        monkeypatch.setattr(newton, "spla", SimpleNamespace(splu=splu))
        y = solve_state(u, spec)
        assert jacobians and factors == ["NATURAL"] * len(jacobians)
        order = JacobianPattern(spec.a, STATE_DIAGONALS).order
        for jac in jacobians:
            assert isinstance(jac, Ordered)
            np.testing.assert_array_equal(jac.order, order)
        monkeypatch.undo()

        def natural_jacobian(y, eps):
            return natural(spec.a + sp.diags(spec.phi.derivative(y)))

        rhs = spec.f + u
        y_ref, report = newton_continuation(
            np.zeros(spec.grid.size), lambda y, eps: spec.a @ y + spec.phi.value(y) - rhs,
            lu_direction(natural_jacobian), ContinuationSchedule.fixed(1.0),
            NewtonConfig(tol=STATE_TOL))
        assert report.converged and report.outer_iters == len(jacobians)
        assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)

    def test_replaced_operator_gets_its_own_order(self):
        spec = make_spec(n=6)
        spec.pattern  # cache the pair pattern of spec.a
        # the same operator with its grid points renumbered orders differently
        perm = np.random.default_rng(12).permutation(spec.grid.size)
        other = spec.a[perm][:, perm].tocsr()
        moved = dataclasses.replace(spec, a=other)
        order = JacobianPattern(other, PAIR_DIAGONALS).order
        np.testing.assert_array_equal(moved.pattern.order, order)
        assert not np.array_equal(order, spec.pattern.order)
        u = np.random.default_rng(13).standard_normal(spec.grid.size)
        y = solve_state(u, moved)
        assert np.linalg.norm(other @ y + moved.phi.value(y) - u) <= 1e-10

    def test_failure_is_a_solver_fault(self):
        # the initial residual overflows; a SolverFault lets the caller
        # classify the failed set-up
        spec = make_spec(n=4)
        u = np.full(spec.grid.size, 1e300)
        with pytest.raises(SolverFault, match="state solve failed"):
            solve_state(u, spec)


class TestObjective:
    def test_reachable_target_costs_nothing(self):
        spec = make_spec(n=4)
        y0 = solve_state(np.zeros(spec.grid.size), spec)
        import dataclasses
        spec2 = dataclasses.replace(spec, y_d=y0)
        assert objective(np.zeros(spec.grid.size), spec2, eps=1e-2) == 0.0

    def test_linear_case_matches_manual_formula(self):
        spec = make_spec(n=3, kappa=0.0, nu=0.5, mu=2.0)
        rng = np.random.default_rng(11)
        u = rng.standard_normal(spec.grid.size)
        y = spla.spsolve(spec.a.tocsc(), u)
        h2 = spec.grid.h ** 2
        expected = (0.5 * h2 * np.sum((y - spec.y_d) ** 2)
                    + 0.5 * spec.nu * h2 * np.sum(u ** 2)
                    + spec.mu * h2 * sum(penalty_antiderivative(float(v), 1e-2, 0.25)
                                         for v in u))
        assert objective(u, spec, eps=1e-2) == pytest.approx(expected, rel=1e-9)

    def test_solver_output_beats_zero_control(self):
        spec, _ = construct_test_problem(Grid(16), k_tilde=2)
        eps = 1e-2
        x, report = newton_continuation(
            np.zeros(2 * spec.grid.size),
            lambda z, e: residual(z, spec, e, check=False),
            lu_direction(lambda z, e: jacobian(z, spec, e)),
            ContinuationSchedule(1.0, 0.2, eps), NewtonConfig())
        assert report.converged
        _, p = split_pair(x)
        u = recover_control(p, spec, eps)
        assert objective(u, spec, eps) < objective(np.zeros(spec.grid.size), spec, eps)


class TestConstructions:
    def test_prescribed_adjoint_value(self):
        spec, (_, p_bar) = construct_test_problem(Grid(15), k_tilde=5)
        k = 3 * spec.grid.n + 3  # (x1, x2) = (0.25, 0.25)
        assert p_bar[k] == pytest.approx(1.3, rel=1e-12)

    def test_construction_residual_self_consistency(self):
        spec, (y_bar, p_bar) = construct_test_problem(Grid(15))
        r = residual(merge_pair(y_bar, p_bar), spec, 1e-15)
        scale = max(1.0, np.max(np.abs(recover_control(p_bar, spec, 1e-15))))
        assert np.max(np.abs(r)) <= 1e-9 * scale

    def test_manufactured_control_is_banded_sparse(self):
        spec, (_, p_bar) = construct_test_problem(Grid(40))
        u = recover_control(p_bar, spec, 1e-15)
        fraction = np.mean(np.abs(u) < 1e-8 * np.max(np.abs(u)))
        assert fraction > 0.0

    def test_plateau_profile_values(self):
        assert plateau_profile(np.array([0.25]))[0] == 2.0
        assert plateau_profile(np.array([0.5]))[0] == 1.0
        x = np.array([0.1])
        assert plateau_profile(x)[0] == pytest.approx(2.0 * np.sin(0.2 * np.pi), rel=1e-14)

    def test_plateau_adjoint_sits_on_kink(self):
        spec, (_, p_bar) = construct_plateau_problem(Grid(11), mu=0.7)
        # at (0.5, 0.5) both factors are 1, so p = mu there
        k = 5 * spec.grid.n + 5
        assert p_bar[k] == pytest.approx(0.7, rel=1e-14)

    def test_plateau_construction_is_consistent(self):
        spec, (y_bar, p_bar) = construct_plateau_problem(Grid(12))
        r = residual(merge_pair(y_bar, p_bar), spec, 1e-15)
        scale = max(1.0, np.max(np.abs(recover_control(p_bar, spec, 1e-15))))
        assert np.max(np.abs(r)) <= 1e-9 * scale

    def test_sparsity_target_spec_shape(self):
        spec = sparsity_target_problem(Grid(6), mu=1e-4)
        assert spec.mu == 1e-4
        assert np.array_equal(spec.f, np.zeros(36))
        assert spec.y_d.shape == (36,)
        assert np.max(np.abs(spec.y_d)) > 0.1
