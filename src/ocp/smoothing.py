"""Smoothed projection onto [-1,1] and the implicit L1-penalty derivative d_eps.

P_eps is the square-root-shifted smoothing of the pointwise projection; d_eps is
the derivative of the smooth penalty that replaces the L1 norm, defined as the
unique solution of d = P_eps(d + ratio*x) with ratio = nu/mu, found by Brent's
method.  All functions are pure; everything vectorizes over x except d_eps,
which is scalar: the solvers work on P_eps alone, and d_eps serves checks of
the smoothing only.
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


def penalty_derivative(x, eps, ratio, tol=1e-13):
    """Solve d = P_eps(d + ratio*x) for d in [-1, 1] by Brent's method.

    g(d) = d - P_eps(d + ratio*x) is strictly increasing with 0 < g' <= 1 and
    changes sign on [-1, 1], so brentq brackets the unique root d* and returns
    a d with |g(d)| <= |d - d*| <= tol + 4 machine epsilons * |d|.  brentq
    raises RuntimeError if it does not converge.
    """
    if eps <= 0:
        raise ValueError("penalty derivative needs eps > 0")
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    # imported here: scipy.optimize adds about 17 MB to a process's resident
    # memory, and no solver path calls this function
    from scipy.optimize import brentq

    shift = ratio * float(x)
    return brentq(lambda d: d - float(smoothed_projection(d + shift, eps)),
                  -1.0, 1.0, xtol=tol)
