"""Benchmark workloads: solver configs, seeded problems and the correctness gate.

Each workload is one `ExperimentConfig` driven through
`ocp.harness.experiments.solve_single`.  Seed 0 is the unperturbed
manufactured problem, whose iteration counts are recorded in
`reference.json`; any other seed adds a smooth seeded perturbation to the
tracking target y_d, so the solver only ever sees a different `ProblemSpec`.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

from ocp.harness.config import ExperimentConfig
from ocp.harness.experiments import build_problem
from ocp.schwarz import build_local_systems, decompose
from ocp.system import residual

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())

WORKLOADS = {
    # monolithic Newton with eps-continuation and sparse LU on the coupled
    # Jacobian: factorization dominates, no Krylov or Schwarz code runs
    "mono-direct": ExperimentConfig(method="newton-eps", n=128,
                                    linear_solver="direct"),
    # RAS-preconditioned GMRES on the stiffest sweep block (b12 ~ 1/nu):
    # heavy line search and local LU on badly scaled blocks
    "ras-stiff": ExperimentConfig(method="newton-ras-eps", n=100, s1=2, s2=2,
                                  overlap=2, nu=1e-8, mu=1.0),
    # RASPEN with the local nonlinear solves on two threads
    "raspen-2t": ExperimentConfig(method="raspen-eps", n=128, s1=2, s2=2,
                                  threads=2),
}

# Perturbation amplitude as a share of max|y_d| at nu = 1e-6, scaled
# linearly with nu.  Probes kept every method converging up to 1e-2 at
# nu = 1e-6 and 1e-4 at nu = 1e-8, but at 1e-3 some seeds already added an
# outer iteration; at 1e-4 the counts stay those of seed 0, so a seed moves
# the data without moving the solver into another regime.
PERTURBATION_AT_NU_1E6 = 1e-4
PERTURBATION_MODES = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]

# Relative residual of the smoothed system at eps_min that a solve must reach.
GATE_REL_RESIDUAL = 1e-8


def perturbation_share(nu):
    """Perturbation amplitude as a share of max|y_d|."""
    return PERTURBATION_AT_NU_1E6 * nu / 1e-6


def seeded_spec(spec, seed):
    """The problem of one seed: y_d plus a few seeded low sine modes."""
    if seed == 0:
        return spec
    rng = np.random.default_rng(seed)
    x1, x2 = spec.grid.points()
    field = sum(c * np.sin(np.pi * a * x1) * np.sin(np.pi * b * x2)
                for c, (a, b) in zip(rng.standard_normal(len(PERTURBATION_MODES)),
                                     PERTURBATION_MODES))
    field /= np.abs(field).max()
    amplitude = perturbation_share(spec.nu) * np.abs(spec.y_d).max()
    return dataclasses.replace(spec, y_d=spec.y_d + amplitude * field)


def setup(cfg, seed, span):
    """Everything a run does before the solve; returns the seeded spec.

    `span(name)` is a context manager around each setup layer call.  The
    decomposition and local systems built here are timed but not reused:
    `solve_single` builds its own from the spec.
    """
    with span("harness.build_problem"):
        grid, spec = build_problem(cfg)
        spec = seeded_spec(spec, seed)
    if cfg.uses_ras or cfg.is_raspen:
        with span("schwarz.decompose"):
            dec = decompose(grid, cfg.s1, cfg.s2, cfg.overlap)
        with span("schwarz.build_local_systems"):
            build_local_systems(dec, spec)
    return spec


def relative_residual(x, spec, eps):
    r0 = np.linalg.norm(residual(np.zeros_like(x), spec, eps, check=False))
    return float(np.linalg.norm(residual(x, spec, eps, check=False)) / r0)


def gate(x, report, spec, cfg):
    """(passed, relative residual) of one finished solve."""
    rel = relative_residual(x, spec, cfg.eps_min)
    return bool(report.converged and rel <= GATE_REL_RESIDUAL), rel


def report_counts(report):
    """The paper's iteration counts of one solve, None where a layer is absent."""
    return {"outer_iters": report.outer_iters,
            "gmres_iters_avg": report.avg_gmres_iters,
            "inner_iters_avg": report.avg_inner_iters}


def count_deviations(workload, counts):
    """Mismatches against the recorded seed-0 counts, as printable strings."""
    expected = REFERENCE["expected_seed0"][workload]
    out = []
    for key, want in expected.items():
        got = counts.get(key)
        if got is None or round(got, 3) != want:
            out.append(f"{key}: expected {want}, got {got}")
    return out
