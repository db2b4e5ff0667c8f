"""Smoothed projection onto [-1,1] and the implicit L1-penalty derivative d_eps.

P_eps is the square-root-shifted smoothing of the pointwise projection; d_eps is
the derivative of the smooth penalty that replaces the L1 norm, defined as the
unique fixed point of d = P_eps(d + ratio*x) with ratio = nu/mu.  All functions
are pure; everything vectorizes over x except the fixed-point solver, which is
scalar: the solvers work on P_eps alone, and d_eps serves checks of the
smoothing only.
"""

import numpy as np


def projection(x):
    """Exact pointwise projection onto [-1, 1]."""
    return np.clip(x, -1.0, 1.0)


def smoothed_projection(x, eps):
    """P_eps(x) = (sqrt((x+1)^2 + eps) - sqrt((x-1)^2 + eps)) / 2.

    eps = 0 reproduces the exact projection; the formula is odd and strictly
    increasing in x for eps > 0, with values in [-1, 1].
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    x = np.asarray(x, dtype=float)
    if eps == 0.0:
        # sqrt of a square is off by an ulp; the exact projection keeps the
        # eps = 0 identities (band of exactly zero recovered control) exact
        return projection(x)
    return 0.5 * (np.sqrt((x + 1.0) ** 2 + eps) - np.sqrt((x - 1.0) ** 2 + eps))


def smoothed_projection_derivative(x, eps):
    """P'_eps(x), values in (0, 1/sqrt(1+eps)] with the maximum at x = 0.

    The smooth family only: eps = 0 is rejected (the projection has kinks).
    """
    if eps <= 0:
        raise ValueError("derivative of the smoothed projection needs eps > 0")
    x = np.asarray(x, dtype=float)
    return 0.5 * ((x + 1.0) / np.sqrt((x + 1.0) ** 2 + eps)
                  - (x - 1.0) / np.sqrt((x - 1.0) ** 2 + eps))


def penalty_derivative(x, eps, ratio, tol=1e-13, max_sweeps=100):
    """Solve d = P_eps(d + ratio*x) for d in [-1, 1].

    Fixed-point iteration with Aitken extrapolation; the map is a contraction
    with factor 1/sqrt(1+eps), which nears 1 for small eps, so an unconditional
    bisection fallback on g(d) = d - P_eps(d + ratio*x) covers that regime
    (g is strictly increasing with 0 < g' <= 1 and changes sign on [-1, 1],
    hence |g(midpoint)| is bounded by the interval width).
    """
    if eps <= 0:
        raise ValueError("penalty derivative needs eps > 0")
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    shift = ratio * float(x)

    def step(d):
        return float(smoothed_projection(d + shift, eps))

    d = 0.0
    for _ in range(max_sweeps):
        d1 = step(d)
        d2 = step(d1)
        denom = d2 - 2.0 * d1 + d
        d_next = d2 if denom == 0.0 else d - (d1 - d) ** 2 / denom
        if not -1.0 <= d_next <= 1.0:
            d_next = d2
        d = d_next
        if abs(step(d) - d) <= tol:
            return d
    lo, hi = -1.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid - step(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    d = 0.5 * (lo + hi)
    if abs(step(d) - d) > tol:
        raise RuntimeError(f"penalty derivative did not reach tol={tol} at eps={eps}")
    return d
