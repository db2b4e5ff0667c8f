"""Solvers for L1-regularized semilinear elliptic optimal control.

The reduced first-order optimality system in the state/adjoint pair x = (y, p)
is smoothed with parameter eps and solved by damped Newton with optional
eps-continuation, either monolithically (direct or RAS-preconditioned GMRES) or
through the nonlinearly preconditioned one-level RASPEN iteration.
"""

__version__ = "0.1.0"
