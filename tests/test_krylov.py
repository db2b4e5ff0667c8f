import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocp.grid import Grid
from ocp.krylov import GmresBreakdownError, KrylovConfig, gmres
from ocp.system import construct_test_problem, jacobian, merge_pair


def matvec(a):
    return lambda v: a @ v


def test_identity_converges_in_one_iteration():
    b = np.random.default_rng(0).standard_normal(20)
    result = gmres(lambda v: v, b)
    assert result.converged
    assert result.iters == 1
    assert np.allclose(result.x, b, rtol=0, atol=1e-14)


def test_warm_start_at_solution_returns_immediately():
    b = np.random.default_rng(1).standard_normal(10)
    result = gmres(lambda v: v, b, x0=b)
    assert result.converged
    assert result.iters == 0
    assert result.residual == 0.0


def test_diagonal_system_matches_direct_inverse():
    d = np.arange(1.0, 51.0)
    b = np.random.default_rng(2).standard_normal(50)
    result = gmres(lambda v: d * v, b, KrylovConfig(rel_tol=1e-13))
    assert result.converged
    assert result.iters <= 50
    assert np.allclose(result.x, b / d, rtol=1e-10, atol=0)


def test_history_non_increasing_without_restart():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((30, 30))
    a = m.T @ m + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    result = gmres(matvec(a), b, KrylovConfig(rel_tol=1e-12))
    assert result.converged
    # capped at k, the same Arnoldi process stops at its k-th residual
    hist = np.array([
        gmres(matvec(a), b, KrylovConfig(rel_tol=1e-12, max_iters=k)).residual
        for k in range(1, result.iters + 1)])
    assert np.all(hist[1:] <= hist[:-1] * (1.0 + 1e-12))
    assert hist[-1] == result.residual


def test_exact_convergence_within_dimension():
    rng = np.random.default_rng(4)
    a = np.eye(30) + 0.1 * rng.standard_normal((30, 30))
    b = rng.standard_normal(30)
    result = gmres(matvec(a), b, KrylovConfig(rel_tol=1e-12))
    assert result.converged
    assert result.iters <= 30
    assert np.linalg.norm(a @ result.x - b) <= 1e-10 * np.linalg.norm(b)


def test_preconditioned_and_plain_agree_on_solution():
    rng = np.random.default_rng(5)
    d = np.linspace(1.0, 100.0, 40)
    a = np.diag(d) + 0.1 * rng.standard_normal((40, 40))
    b = rng.standard_normal(40)
    plain = gmres(matvec(a), b, KrylovConfig(rel_tol=1e-12))
    precond = gmres(matvec(a), b, KrylovConfig(rel_tol=1e-12), precond=lambda v: v / d)
    assert plain.converged and precond.converged
    assert np.allclose(plain.x, precond.x, rtol=1e-8, atol=1e-10)


def test_happy_breakdown_on_eigenvector_rhs():
    a = np.diag([2.0, 3.0, 4.0])
    b = np.array([1.0, 0.0, 0.0])
    result = gmres(matvec(a), b, KrylovConfig(rel_tol=1e-15))
    assert result.converged
    assert result.iters == 1
    assert np.allclose(result.x, b / 2.0, rtol=0, atol=1e-15)


def test_singular_hessenberg_raises():
    # A b = 0: the Krylov space is invariant after one step, but its
    # Hessenberg column is zero, so no back substitution exists
    a = np.diag([1.0, 0.0])
    with pytest.raises(GmresBreakdownError, match="singular Hessenberg at iteration 1"):
        gmres(matvec(a), np.array([0.0, 1.0]))


def test_iteration_cap_reports_no_convergence():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((40, 40))
    a = m.T @ m + np.eye(40)
    b = rng.standard_normal(40)
    result = gmres(matvec(a), b, KrylovConfig(rel_tol=1e-14, max_iters=5))
    assert not result.converged
    assert result.iters == 5


@pytest.mark.parametrize("point", ["zero", "solution"])
def test_basis_stays_orthogonal_on_a_hard_operator(point):
    # the unpreconditioned n=32, nu=1e-8 pair Jacobian takes 150-400 steps;
    # without a preconditioner apply_op receives exactly the basis vectors
    spec, (y, p) = construct_test_problem(Grid(32), nu=1e-8, k_tilde=2)
    x = merge_pair(y, p) if point == "solution" else np.zeros(2 * spec.grid.size)
    jac = jacobian(x, spec, 1e-10).__matmul__
    basis = []

    def apply_op(v):
        basis.append(v.copy())
        return jac(v)

    b = np.random.default_rng(8).standard_normal(x.size)
    result = gmres(apply_op, b, KrylovConfig(rel_tol=1e-10, max_iters=1000))
    assert result.converged and result.iters >= 100
    q = np.array(basis)
    assert np.linalg.norm(np.eye(len(q)) - q @ q.T, 2) <= 1e-12
    true_residual = np.linalg.norm(b - jac(result.x))
    assert abs(true_residual - result.residual) <= 1e-11 * np.linalg.norm(b)


def test_nonfinite_operator_raises():
    b = np.ones(4)
    with pytest.raises(GmresBreakdownError):
        gmres(lambda v: v * np.inf, b)


def test_config_validation():
    with pytest.raises(ValueError):
        KrylovConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        KrylovConfig(max_iters=0)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_spd_diagonal_solutions_match_direct(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 10.0, n)
    b = rng.standard_normal(n)
    result = gmres(lambda v: d * v, b, KrylovConfig(rel_tol=1e-13, max_iters=4 * n))
    assert result.converged
    assert np.allclose(result.x, b / d, rtol=1e-9, atol=1e-12)
