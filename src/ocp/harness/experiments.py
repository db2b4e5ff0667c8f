"""Experiment orchestration: single runs, benchmark tables, and studies.

Every solve goes through solve_single, from x = 0 unless the caller hands
it a start (the rate study's warm starts), with the stopping rule
max(tol, tol * ||F(x0)||) of the Newton core.  Table protocols mirror the
benchmark layout of the method-comparison experiments at a caller-chosen
grid size; wall times are reported but never asserted anywhere, iteration
counts are the quantities of interest.
"""

from dataclasses import asdict, astuple, replace
from pathlib import Path

import numpy as np

from ..grid import Grid
from ..krylov import SolverFault
from ..newton import SolveReport, gmres_direction, newton_continuation, refined_direction
from ..schwarz import (Lanes, build_local_systems, decompose,
                       ras_preconditioner, raspen_solve)
from ..system import (construct_plateau_problem, construct_test_problem,
                      jacobian, recover_control, residual, split_pair,
                      sparsity_target_problem)
from .config import ExperimentConfig, solver_settings
from .reports import (BENCHMARK_COLUMNS, HISTORY_COLUMNS, BenchmarkRow,
                      history_rows, report_to_dict, write_csv,
                      write_report_json)

EPS_TABLE_MONO = (1.0, 1e-3, 1e-5, 1e-10, 1e-13, 1e-15)
EPS_TABLE_RASPEN = (1.0, 1e-5, 1e-10, 1e-15)
SWEEP_BLOCKS = ((1e-8, 1.0), (1e-8, 1e-4), (1e-4, 1.0))
SWEEP_GAMMAS = (0.5, 0.2, 0.1)
SWEEP_EPS0 = (1.0, 1e-3, 1e-5)
SPARSITY_THRESHOLD = 1e-8


def build_problem(cfg):
    grid = Grid(cfg.n)
    spec, _ = construct_test_problem(grid, kappa=cfg.kappa, nu=cfg.nu,
                                     mu=cfg.mu, k_tilde=cfg.k_tilde)
    return grid, spec


def solve_single(cfg, spec=None, x0=None):
    """Dispatch one solve per the configured method; returns (x, report, spec).

    spec defaults to the configured test problem and x0 to zero.  A Schwarz
    method decomposes the grid, builds the local systems and opens the
    subdomain lanes once per solve.
    """
    if spec is None:
        _, spec = build_problem(cfg)
    sched, newton_cfg, krylov = solver_settings(cfg)
    x0 = np.zeros(2 * spec.grid.size) if x0 is None else x0
    residual_fn = lambda x, eps: residual(x, spec, eps)
    # one assembly per step: refined on a float32 factor, or GMRES's product
    operator_fn = lambda x, eps: jacobian(x, spec, eps).__matmul__
    if not (cfg.uses_ras or cfg.is_raspen):
        direction_fn = (gmres_direction(operator_fn, krylov) if cfg.linear_solver == "gmres"
                        else refined_direction(lambda x, eps: jacobian(x, spec, eps)))
        return (*newton_continuation(x0, residual_fn, direction_fn, sched,
                                     newton_cfg), spec)

    dec = decompose(spec.grid, cfg.s1, cfg.s2, cfg.overlap)
    with Lanes(cfg.threads, build_local_systems(dec, spec)) as lanes:
        if cfg.is_raspen:
            x, report = raspen_solve(x0, spec, sched, newton_cfg, krylov,
                                     cfg.inner_tol, lanes)
        else:
            report = SolveReport()
            x, _ = newton_continuation(
                x0, residual_fn,
                gmres_direction(operator_fn, krylov, lambda x, eps: ras_preconditioner(
                    x, spec, eps, report, lanes)),
                sched, newton_cfg, report=report)
    return x, report, spec


def sparsity_fraction(u):
    """Share of entries below SPARSITY_THRESHOLD * ||u||_inf (1.0 for the zero field)."""
    scale = np.abs(u).max()
    if scale == 0.0:
        return 1.0
    return float(np.mean(np.abs(u) < SPARSITY_THRESHOLD * scale))


def run_single(cfg, out_dir):
    """One configured solve plus its artifact set; returns (exit_code, report).

    A fault in the problem set-up (the manufactured state solve) fails the
    run before any iterate exists; the artifacts then hold x0 = 0.  Any
    other error (a config the solver rejects) leaves out_dir untouched.
    """
    grid = Grid(cfg.n)
    try:
        x, report, spec = solve_single(cfg)
    except SolverFault as exc:
        report = SolveReport(failure=str(exc))
        y = p = u = np.zeros(grid.size)
    else:
        y, p = split_pair(x)
        u = recover_control(p, spec, cfg.eps_min)

    data = report_to_dict(asdict(cfg), report,
                          sparsity_fraction=sparsity_fraction(u))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(out / "report.json", data)
    write_csv(out / "residual_history.csv", HISTORY_COLUMNS, history_rows(report))
    for name, v in (("y", y), ("p", p), ("u", u)):
        write_csv(out / f"{name}.csv", None, np.reshape(v, (grid.n, grid.n)))
    return (0 if report.converged else 3), data


def _benchmark_row(cfg, report):
    return BenchmarkRow(
        method=cfg.method, n=cfg.n, subdomains=cfg.subdomains,
        eps_min=cfg.eps_min, nu=cfg.nu, mu=cfg.mu, gamma=cfg.gamma,
        eps0=cfg.eps0, outer_iters=report.outer_iters,
        avg_inner_iters=report.avg_inner_iters,
        avg_gmres_iters=report.avg_gmres_iters,
        wall_time_s=report.wall_time, converged=report.converged,
        failure=report.failure)


def _run_cell(cfg):
    try:
        _, report, _ = solve_single(cfg)
    except (SolverFault, ValueError) as exc:
        # set-up faults and bad cell configs; a programming error propagates
        report = SolveReport(failure=str(exc))
    return _benchmark_row(cfg, report)


def _cell_config(base, method, eps_min, **extra):
    # plain methods carry a degenerate schedule so the table rows are
    # self-describing; continuation methods keep the configured eps0/gamma
    eps0 = max(base.eps0, eps_min) if method.endswith("-eps") else eps_min
    return replace(base, method=method, eps_min=eps_min, eps0=eps0,
                   linear_solver="auto", **extra)


def _ras_shape(base):
    if base.s1 * base.s2 == 1:
        return {"s1": 2, "s2": 2}
    return {}


def table_cells(table_id, base):
    """Cell configs of one benchmark table, in row-major emission order."""
    if table_id == "mono":
        return [_cell_config(base, method, eps, s1=1, s2=1)
                for method in ("newton", "newton-eps")
                for eps in EPS_TABLE_MONO]
    if table_id == "gmres":
        shape = _ras_shape(base)
        cells = [replace(_cell_config(base, method, eps, s1=1, s2=1),
                         linear_solver="gmres")
                 for method in ("newton", "newton-eps")
                 for eps in EPS_TABLE_MONO]
        cells += [_cell_config(base, method, eps, **shape)
                  for method in ("newton-ras", "newton-ras-eps")
                  for eps in EPS_TABLE_MONO]
        return cells
    if table_id == "raspen":
        shape = _ras_shape(base)
        return [_cell_config(base, method, eps, **shape)
                for method in ("raspen", "raspen-eps")
                for eps in EPS_TABLE_RASPEN]
    if table_id == "scaling":
        # weak scaling: the configured n is the per-subdomain resolution
        return [_cell_config(base, "raspen-eps", base.eps_min,
                             n=base.n * s, s1=s, s2=s)
                for s in (1, 2, 3)]
    if table_id == "sweep":
        shape = _ras_shape(base)
        cells = []
        for nu, mu in SWEEP_BLOCKS:
            for method in ("raspen", "newton-ras"):
                cells.append(_cell_config(base, method, base.eps_min,
                                          nu=nu, mu=mu, **shape))
            for method in ("raspen-eps", "newton-ras-eps"):
                for gamma in SWEEP_GAMMAS:
                    for eps0 in SWEEP_EPS0:
                        cells.append(replace(
                            _cell_config(base, method, base.eps_min,
                                         nu=nu, mu=mu, **shape),
                            gamma=gamma, eps0=max(eps0, base.eps_min)))
        return cells
    raise ValueError(f"unknown table id {table_id!r}")


def run_table(table_id, base_cfg, out_dir):
    """All cells of one table; per-cell failures land in rows, not exceptions."""
    cells = table_cells(table_id, base_cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [_run_cell(cfg) for cfg in cells]
    write_csv(out / f"table_{table_id}.csv", BENCHMARK_COLUMNS, map(astuple, rows))
    code = 0 if all(row.converged for row in rows) else 4
    return code, rows


def _study_solve(cfg, spec, eps, x0=None, eps0=1.0):
    """solve_single at eps from x0 (default 0), eps running from eps0."""
    x, report, _ = solve_single(replace(cfg, eps0=max(eps0, eps), eps_min=eps), spec, x0)
    if not report.converged:
        raise SolverFault(f"study solve at eps={eps:g} failed: {report.failure}")
    return x, report


def _check_study(**lists):
    """Reject bad eps/mu lists before any file is written."""
    for name, values in lists.items():
        if not all(0.0 < v < np.inf for v in np.atleast_1d(values)):
            raise ValueError(f"{name} must be positive and finite, got {values!r}")


def rate_study(n, eps_list, out_dir, nu=1e-6, mu=1.0, kappa=0.1,
               eps_ref=1e-12, tol=1e-10):
    """Distance of smoothed solutions to a near-limit reference, per eps.

    Each eps, in descending order and then eps_ref, is solved from the
    previous solution with eps running from the previous eps.  Errors use
    the discrete H1 norm (zero-extended forward differences, h^2 cell
    weight) on the combined state/adjoint pair; the fitted slope is the
    least-squares line of log error against log eps.  A SolverFault still
    writes rate.json, with the failure and a null slope, then propagates.
    """
    _check_study(eps_list=eps_list, eps_ref=eps_ref)
    eps_list = sorted(eps_list, reverse=True)
    if eps_ref >= min(eps_list):
        raise ValueError("eps_ref must lie below every eps in the study")
    if len(set(eps_list)) < 2:
        raise ValueError("the rate fit needs at least two distinct eps values")
    cfg = ExperimentConfig(method="newton-eps", n=n, nu=nu, mu=mu, kappa=kappa, tol=tol)
    grid = Grid(n)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows, slope, failure = [], None, None
    try:
        spec, _ = construct_plateau_problem(grid, kappa=kappa, nu=nu, mu=mu)
        x, report = _study_solve(cfg, spec, eps_list[0])
        # from a warm start the core's threshold max(tol, tol * ||F(x0)||) is
        # tol, so warm starts get the first solve's threshold, from x0 = 0
        warm = replace(cfg, tol=report.threshold)
        xs = [x]
        for eps_prev, eps in zip(eps_list, [*eps_list[1:], eps_ref]):
            xs.append(_study_solve(warm, spec, eps, xs[-1], eps_prev)[0])
        y_ref, p_ref = split_pair(xs.pop())
        rows = [(eps, float(np.hypot(grid.h1_norm(y - y_ref), grid.h1_norm(p - p_ref))))
                for eps, (y, p) in zip(eps_list, map(split_pair, xs))]
        slope = float(np.polyfit(np.log([e for e, _ in rows]),
                                 np.log([max(r, 1e-300) for _, r in rows]), 1)[0])
    except SolverFault as exc:
        failure = str(exc)
        raise
    finally:
        write_csv(out / "rate.csv", ["eps", "h1_error"], rows)
        write_report_json(out / "rate.json",
                          {"schema": 1, "n": n, "eps_ref": eps_ref, "slope": slope,
                           "failure": failure, "nu": nu, "mu": mu, "kappa": kappa})
    return rows, slope


def sparsity_study(mu_list, eps_list, n, out_dir, nu=1e-6, kappa=0.1,
                   tol=1e-10, dump_fields=True):
    """Sparsity fraction of the recovered control over a (mu, eps) grid; a
    SolverFault still writes the cells completed before it, then propagates."""
    _check_study(mu_list=mu_list, eps_list=eps_list)
    cfg = ExperimentConfig(method="newton-eps", n=n, nu=nu, kappa=kappa, tol=tol)
    grid = Grid(n)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    try:
        for mu in mu_list:
            spec = sparsity_target_problem(grid, mu=mu, kappa=kappa, nu=nu)
            for eps in eps_list:
                x, _ = _study_solve(replace(cfg, mu=mu), spec, eps)
                _, p = split_pair(x)
                u = recover_control(p, spec, eps)
                rows.append((mu, eps, sparsity_fraction(u)))
                if dump_fields:
                    write_csv(out / f"u_mu{mu:g}_eps{eps:g}.csv", None,
                              np.reshape(u, (n, n)))
    finally:
        write_csv(out / "sparsity.csv", ["mu", "eps", "fraction"], rows)
    return rows
