import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocp.smoothing import (penalty_derivative, projection, smoothed_projection,
                           smoothed_projection_derivative)
from support import penalty_antiderivative


def bisect_fixed_point(x, eps, ratio, iters=120):
    """Slow, independent solver for d = P_eps(d + ratio*x) on [-1, 1].

    g(d) = d - P_eps(d + ratio*x) is strictly increasing with g(-1) <= 0 <= g(1),
    so plain bisection brackets the root; used as the oracle for the fast solver.
    """
    lo, hi = -1.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid - float(smoothed_projection(mid + ratio * x, eps)) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_projection_is_clamp():
    x = np.array([-3.0, -1.0, 0.2, 1.0, 9.0])
    assert np.array_equal(projection(x), np.array([-1.0, -1.0, 0.2, 1.0, 1.0]))


def test_smoothed_projection_at_zero():
    for eps in (0.0, 1e-6, 1e-2, 1.0, 3.0):
        assert smoothed_projection(0.0, eps) == 0.0


def test_smoothed_projection_eps_zero_is_exact():
    x = np.linspace(-5, 5, 101)
    assert np.array_equal(smoothed_projection(x, 0.0), projection(x))
    assert smoothed_projection(2.0, 0.0) == 1.0


def test_smoothed_projection_hand_value():
    # x=1, eps=3: (sqrt(4+3) - sqrt(0+3))/2
    assert smoothed_projection(1.0, 3.0) == pytest.approx(0.5 * (np.sqrt(7) - np.sqrt(3)), rel=1e-15)


def test_smoothed_projection_rejects_negative_eps():
    with pytest.raises(ValueError):
        smoothed_projection(0.0, -1e-3)


def test_derivative_hand_values():
    assert smoothed_projection_derivative(0.0, 3.0) == pytest.approx(0.5, rel=1e-15)
    assert smoothed_projection_derivative(0.0, 1.0) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
    assert smoothed_projection_derivative(1e6, 1.0) < 1e-6


def test_derivative_peak_and_range():
    x = np.linspace(-20, 20, 2001)
    for eps in (1e-6, 1e-2, 1.0):
        d = smoothed_projection_derivative(x, eps)
        assert np.all(d > 0.0)
        assert np.all(d <= 1.0 / np.sqrt(1.0 + eps) + 1e-15)
        assert np.argmax(d) == 1000  # maximum at x = 0


def test_derivative_matches_finite_differences():
    x = np.array([-4.0, -1.0, -0.3, 0.0, 0.7, 1.0, 6.0])
    h = 1e-6
    for eps in (1e-2, 1.0):
        fd = (smoothed_projection(x + h, eps) - smoothed_projection(x - h, eps)) / (2 * h)
        assert np.allclose(smoothed_projection_derivative(x, eps), fd, rtol=1e-8, atol=1e-10)


def test_derivative_rejects_eps_zero():
    with pytest.raises(ValueError):
        smoothed_projection_derivative(0.0, 0.0)


def test_projection_gap_bound_sweep():
    x = np.linspace(-10, 10, 20001)
    for eps in (1.0, 1e-3, 1e-6, 1e-12):
        gap = np.abs(projection(x) - smoothed_projection(x, eps))
        assert np.all(gap <= np.sqrt(eps))


def test_penalty_derivative_at_zero():
    for eps in (1.0, 1e-2, 1e-6):
        for ratio in (1e-6, 0.5, 2.0):
            assert penalty_derivative(0.0, eps, ratio) == pytest.approx(0.0, abs=1e-13)


def test_penalty_derivative_saturates():
    assert penalty_derivative(1e8, 1.0, 1.0) == pytest.approx(1.0, abs=1e-6)
    assert penalty_derivative(-1e8, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-6)


def test_penalty_derivative_fixed_point_residual():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-5, 5, 200)
    for eps in (1.0, 1e-2):
        for ratio in (1e-6, 0.5):
            for x in xs[:50]:
                d = penalty_derivative(float(x), eps, ratio)
                res = abs(d - float(smoothed_projection(d + ratio * x, eps)))
                assert res <= 1e-12


def test_penalty_derivative_agrees_with_bisection():
    # brentq stops within tol = 1e-13 of the root and the bisection oracle
    # within an ulp of it, so 1e-10 leaves room; the bound still widens for
    # small eps to 2 tol / (1 - q), the error of any d with |g(d)| <= tol,
    # since g' >= 1 - q for the contraction factor q = 1/sqrt(1+eps)
    rng = np.random.default_rng(19)
    xs = rng.uniform(-5, 5, 40)
    for eps in (1.0, 1e-2, 1e-4):
        bound = max(1e-10, 2.0 * 1e-13 / (1.0 - 1.0 / np.sqrt(1.0 + eps)))
        for ratio in (1e-6, 1.0):
            for x in xs:
                fast = penalty_derivative(float(x), eps, ratio)
                slow = bisect_fixed_point(float(x), eps, ratio)
                assert abs(fast - slow) <= bound


def test_penalty_derivative_validation():
    with pytest.raises(ValueError):
        penalty_derivative(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        penalty_derivative(1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        penalty_derivative(1.0, 1.0, 1.0, tol=0.0)


def test_solvers_leave_scipy_optimize_unloaded():
    # scipy.optimize adds about 17 MB to a process's resident memory, so only
    # penalty_derivative, which no solver path calls, imports it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ocp.harness.cli; sys.exit('scipy.optimize' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_slope_matches_finite_differences():
    # implicit differentiation of d = P_eps(d + ratio*x) at z = d + ratio*x
    # gives d' = ratio * P'_eps(z) / (1 - P'_eps(z))
    h = 1e-6
    for eps in (1.0, 1e-2):
        for ratio in (0.3, 1.0):
            for x in (-2.0, -0.3, 0.0, 0.7, 5.0):
                fd = (penalty_derivative(x + h, eps, ratio)
                      - penalty_derivative(x - h, eps, ratio)) / (2 * h)
                pe = float(smoothed_projection_derivative(
                    penalty_derivative(x, eps, ratio) + ratio * x, eps))
                slope = ratio * pe / (1.0 - pe)
                assert slope == pytest.approx(fd, rel=1e-5)


def test_antiderivative_basics():
    assert penalty_antiderivative(0.0, 1e-2, 1.0) == 0.0
    for x in (0.5, 2.0, 10.0):
        val = penalty_antiderivative(x, 1e-2, 1.0)
        assert val > 0.0
        assert val == pytest.approx(penalty_antiderivative(-x, 1e-2, 1.0), rel=1e-9, abs=1e-12)


def test_antiderivative_nonexpansive():
    pts = [-3.0, -1.0, -0.2, 0.0, 0.4, 1.5, 4.0]
    vals = [penalty_antiderivative(x, 1e-1, 0.8) for x in pts]
    for a, va in zip(pts, vals):
        for b, vb in zip(pts, vals):
            assert abs(va - vb) <= abs(a - b) * (1.0 + 1e-9) + 1e-12


def test_antiderivative_validation():
    with pytest.raises(ValueError):
        penalty_antiderivative(1.0, 1e-2, 1.0, quad_tol=0.0)


@settings(deadline=None, max_examples=100)
@given(st.floats(min_value=-100, max_value=100),
       st.sampled_from([1.0, 1e-2, 1e-4]))
def test_property_smoothed_projection_bounded_and_within_gap(x, eps):
    p = float(smoothed_projection(x, eps))
    assert -1.0 <= p <= 1.0
    assert abs(p - float(projection(x))) <= np.sqrt(eps) + 1e-15


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=-50, max_value=50),
       st.floats(min_value=-50, max_value=50),
       st.sampled_from([1.0, 1e-2]))
def test_property_smoothed_projection_monotone(x1, x2, eps):
    lo, hi = sorted((x1, x2))
    assert smoothed_projection(lo, eps) <= smoothed_projection(hi, eps) + 1e-15


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=-20, max_value=20),
       st.sampled_from([1.0, 1e-2]),
       st.sampled_from([1e-6, 0.3, 1.0]))
def test_property_penalty_derivative_range_and_oddness(x, eps, ratio):
    d = penalty_derivative(x, eps, ratio)
    assert -1.0 <= d <= 1.0
    assert d == pytest.approx(-penalty_derivative(-x, eps, ratio), abs=1e-10)


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=-20, max_value=20),
       st.floats(min_value=-20, max_value=20),
       st.sampled_from([1.0, 1e-2]))
def test_property_penalty_derivative_monotone(x1, x2, eps):
    lo, hi = sorted((x1, x2))
    assert penalty_derivative(lo, eps, 0.5) <= penalty_derivative(hi, eps, 0.5) + 1e-11


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=1e-3, max_value=20))
def test_property_penalty_derivative_decreases_with_eps(x):
    # more smoothing pulls the saturation level down for x > 0
    d_sharp = penalty_derivative(x, 1e-3, 0.5)
    d_smooth = penalty_derivative(x, 1.0, 0.5)
    assert d_sharp >= d_smooth - 1e-11
