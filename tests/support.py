"""Reference helpers that only the tests need.

The solvers never evaluate the L1 cost functional, so its smoothed
antiderivative and the objective live here, as does the inverse of each
artifact writer that the round-trip tests read back.
"""

import csv
from dataclasses import fields
import json
from pathlib import Path
from typing import get_args

import numpy as np
from scipy import integrate

from ocp.harness.config import FLAT_KEYS
from ocp.harness.reports import BenchmarkRow
from ocp.smoothing import penalty_derivative
from ocp.system import solve_state


def penalty_antiderivative(x, eps, ratio, quad_tol=1e-10):
    """D_eps(x) = integral of d_eps from 0 to x, by adaptive quadrature.

    Nonnegative, even, non-expansive; no closed form exists.
    """
    if quad_tol <= 0:
        raise ValueError("quad_tol must be positive")
    x = float(x)
    if x == 0.0:
        return 0.0
    inner_tol = min(0.01 * quad_tol, 1e-13)
    val, err = integrate.quad(
        lambda s: penalty_derivative(s, eps, ratio, tol=inner_tol),
        0.0, x, epsabs=0.5 * quad_tol, epsrel=1e-12, limit=200)
    # absolute-or-relative acceptance: large |x| gives large integrals whose
    # absolute quadrature estimate cannot reach quad_tol in double precision
    if err > max(quad_tol, quad_tol * abs(val)):
        raise RuntimeError(f"quadrature error estimate {err} above quad_tol={quad_tol}")
    # the integrand has the sign of s, so the result is nonnegative up to quadrature noise
    return val if val > 0.0 else 0.0


def objective(u, spec, eps, quad_tol=1e-10):
    """Regularized reduced objective with h^2 cell weights.

    J_eps(u) = 1/2 ||S(u) - y_d||^2 + nu/2 ||u||^2 + mu * sum h^2 D_eps(u_i),
    where D_eps is the penalty antiderivative with ratio nu/mu.
    """
    y = solve_state(u, spec)
    h2 = spec.grid.h ** 2
    tracking = 0.5 * h2 * float(np.sum((y - spec.y_d) ** 2))
    tikhonov = 0.5 * spec.nu * h2 * float(np.sum(u ** 2))
    ratio = spec.nu / spec.mu
    penalty = h2 * sum(penalty_antiderivative(float(ui), eps, ratio,
                                              quad_tol=quad_tol)
                       for ui in u)
    return tracking + tikhonov + spec.mu * penalty


def read_field_csv(path, grid):
    """Inverse of ocp.grid.write_field_csv."""
    vals = np.loadtxt(path, delimiter=",", ndmin=2)
    if vals.shape != (grid.n, grid.n):
        raise ValueError(f"field file {path} has shape {vals.shape}, expected {(grid.n, grid.n)}")
    return vals.ravel()


def config_to_text(cfg):
    """Flat key=value rendering that load_config_file parses back exactly."""
    # str of a float is its shortest round-trip repr
    return "".join(f"{key} = {getattr(cfg, key)}\n" for key in FLAT_KEYS)


def read_report_json(path):
    """Inverse of ocp.harness.reports.write_report_json."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_residual_history_csv(path):
    """Inverse of ocp.harness.reports.write_residual_history_csv."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            rows.append({
                "iteration": int(record["iteration"]),
                "eps": float(record["eps"]),
                "residual": float(record["residual"]),
                "alpha": float(record["alpha"]) if record["alpha"] else None,
                "gmres_iters": int(record["gmres_iters"]) if record["gmres_iters"] else None,
            })
    return rows


_BENCHMARK_TYPES = {f.name: f.type for f in fields(BenchmarkRow)}


def _parse_cell(kind, text):
    """Inverse of the writers' cell format for a value of the annotated type kind."""
    options = get_args(kind)
    if type(None) in options:
        if text == "":
            return None
        kind = options[0]
    return text == "True" if kind is bool else kind(text)


def read_benchmark_csv(path):
    """Inverse of ocp.harness.reports.write_benchmark_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [BenchmarkRow(**{col: _parse_cell(_BENCHMARK_TYPES[col], text)
                                for col, text in record.items()})
                for record in csv.DictReader(fh)]


def read_pairs_csv(path):
    """Inverse of ocp.harness.reports.write_pairs_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader]
