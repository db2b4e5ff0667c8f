"""Configuration, artifact round trips, table protocols, and CLI exit codes."""

import json
import os
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ocp.grid import Grid, NonfiniteFieldError
from ocp.harness.cli import _config_from_args, build_parser, main
from ocp.harness.config import (LINEAR_SOLVERS, METHODS, ConfigError,
                                ExperimentConfig, build_config,
                                load_config_file, parse_subdomains,
                                solver_settings)
import ocp.harness.experiments as experiments
from ocp.harness.experiments import (EPS_TABLE_MONO, build_problem,
                                     rate_study, run_single, run_table,
                                     solve_single, sparsity_fraction,
                                     sparsity_study, table_cells)
from ocp.harness.reports import (BENCHMARK_COLUMNS, HISTORY_COLUMNS,
                                 BenchmarkRow, history_rows, report_to_dict,
                                 write_csv)
from ocp.krylov import KrylovConfig, SolverFault
import ocp.newton as newton
from ocp.newton import ContinuationSchedule, SolveReport
import ocp.schwarz as schwarz
from ocp.system import Nonlinearity, recover_control, split_pair
from support import (config_to_text, read_benchmark_csv, read_field_csv,
                     read_pairs_csv, read_report_json, read_residual_history_csv)

# mild, fast configuration reused by most orchestration tests
MILD = dict(n=12, nu=1e-2, k_tilde=2, eps_min=1e-3)


def mild_config(**kwargs):
    merged = {**MILD, **kwargs}
    return build_config(overrides=merged)


@pytest.fixture
def overflow_from_second_jacobian(monkeypatch):
    """phi''(y) overflows from the second Jacobian assembly on."""
    real = Nonlinearity.second_derivative
    calls = []

    def second_derivative(self, s):
        calls.append(s)
        return real(self, s if len(calls) == 1 else np.full_like(s, np.inf))

    monkeypatch.setattr(Nonlinearity, "second_derivative", second_derivative)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.method == "newton-eps" and cfg.subdomains == "1x1"

    def test_text_round_trip(self, tmp_path):
        cfg = mild_config(method="raspen-eps", s1=2, s2=3, overlap=1,
                          eps_min=1e-7, gmres_tol=1e-9)
        path = tmp_path / "run.cfg"
        path.write_text(config_to_text(cfg))
        assert build_config(load_config_file(path)) == cfg

    def test_every_field_reaches_every_front_end(self, tmp_path):
        # the file format, the CLI flags and the report echo are all derived
        # from the dataclass fields; a non-default value of each field must
        # pass through all three, so a new field cannot be left out
        defaults = ExperimentConfig()
        choices = {"method": METHODS, "linear_solver": LINEAR_SOLVERS}
        path = tmp_path / "run.cfg"
        for f in fields(ExperimentConfig):
            default = getattr(defaults, f.name)
            if f.name in choices:
                value = next(c for c in choices[f.name] if c != default)
            elif isinstance(default, int):
                value = default + 1
            else:
                value = default * 1.5
            cfg = replace(defaults, **{f.name: value})

            path.write_text(config_to_text(cfg))
            assert build_config(load_config_file(path)) == cfg, f.name

            if f.name in ("s1", "s2"):
                argv = ["--subdomains", cfg.subdomains]
            else:
                argv = ["--" + f.name.replace("_", "-"), str(value)]
            args = build_parser().parse_args(["solve", *argv])
            assert _config_from_args(args) == cfg, f.name

            assert asdict(cfg)[f.name] == value

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# run setup\n\nn = 20  # grid\nmethod = newton\n")
        values = load_config_file(path)
        assert values == {"n": 20, "method": "newton"}

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 20\ngamma = 0.5\n")
        cfg = build_config(load_config_file(path), {"n": 40})
        assert cfg.n == 40 and cfg.gamma == 0.5

    def test_malformed_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n 20\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config_file(path)
        path.write_text("n = twenty\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config_file(path)
        path.write_text("gamme = 0.5\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config_file(path)

    def test_subdomain_parsing(self):
        assert parse_subdomains("2x3") == (2, 3)
        assert parse_subdomains("4X4") == (4, 4)
        with pytest.raises(ConfigError):
            parse_subdomains("4")
        with pytest.raises(ConfigError):
            parse_subdomains("axb")

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown method"):
            build_config(overrides={"method": "sor"})
        with pytest.raises(ConfigError, match="eps0 >= eps_min"):
            build_config(overrides={"eps0": 1e-12, "eps_min": 1e-3})
        with pytest.raises(ConfigError, match="incompatible"):
            build_config(overrides={"method": "newton-ras",
                                    "linear_solver": "direct"})
        with pytest.raises(ConfigError, match="incompatible"):
            build_config(overrides={"method": "raspen",
                                    "linear_solver": "direct"})
        with pytest.raises(ConfigError, match="unknown config fields"):
            build_config(overrides={"verbosity": 3})
        for tol in (0.0, -1.0):
            with pytest.raises(ConfigError, match="tolerances must be positive"):
                build_config(overrides={"gmres_tol": tol})

    @pytest.mark.parametrize("overrides,match", [
        ({"linear_solver": "lu"}, "unknown linear solver 'lu'"),
        ({"n": 0}, "grid needs at least one interior point"),
        ({"s1": 0}, "subdomain counts must be at least 1"),
        ({"s2": 0}, "subdomain counts must be at least 1"),
        ({"overlap": -1}, "overlap must be nonnegative"),
        ({"gamma": 0.0}, r"gamma must lie in \(0, 1\]"),
        ({"gamma": 1.5}, r"gamma must lie in \(0, 1\]"),
        ({"sigma": 0.9}, "sigma must be at least 1"),
        ({"nu": 0.0}, "nu and mu must be positive"),
        ({"mu": -1.0}, "nu and mu must be positive"),
        ({"threads": -1}, "threads must be nonnegative"),
        ({"max_outer": -1}, "max_outer must be nonnegative"),
    ], ids=["linear-solver", "n", "s1", "s2", "overlap", "gamma-zero",
            "gamma-above-one", "sigma", "nu", "mu", "threads", "max-outer"])
    def test_rejection(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            build_config(overrides=overrides)

    def test_eps_rules_of_plain_methods(self):
        with pytest.raises(ConfigError, match="need eps0 >= eps_min > 0"):
            build_config(overrides={"eps_min": 0.0})
        # a plain method's schedule never sees eps0, yet the config still
        # rejects an eps0 below eps_min
        with pytest.raises(ConfigError, match="need eps0 >= eps_min > 0"):
            build_config(overrides={"method": "newton", "eps0": 1e-12,
                                    "eps_min": 1e-3})
        # gamma = 1 stops only a continuation method
        cfg = build_config(overrides={"method": "newton", "gamma": 1.0})
        assert (cfg.method, cfg.gamma, cfg.eps0, cfg.eps_min) == ("newton", 1.0, 1.0, 1e-10)
        assert solver_settings(cfg)[0] == ContinuationSchedule(1e-10, 1.0, 1e-10)

    @pytest.mark.parametrize("method,budget", [
        ("newton", 5000), ("newton-eps", 5000), ("newton-ras", 2000),
        ("newton-ras-eps", 2000), ("raspen", 1000), ("raspen-eps", 1000)])
    def test_solver_settings(self, method, budget):
        cfg = mild_config(method=method, s1=2, s2=2, eps0=0.5, gamma=0.3,
                          tol=1e-9, sigma=1.5, max_outer=7, gmres_tol=1e-7)
        sched, newton_cfg, krylov = solver_settings(cfg)
        eps0 = 0.5 if method.endswith("-eps") else 1e-3
        assert sched == ContinuationSchedule(eps0, 0.3, 1e-3)
        assert (newton_cfg.tol, newton_cfg.max_outer, newton_cfg.sigma) == (1e-9, 7, 1.5)
        assert krylov == KrylovConfig(rel_tol=1e-7, max_iters=budget)

    def test_method_properties(self):
        assert mild_config(method="newton-ras-eps", s1=2, s2=2).uses_ras
        assert mild_config(method="raspen", s1=2, s2=2).is_raspen
        assert mild_config(method="raspen-eps").uses_continuation
        assert not mild_config(method="newton").uses_continuation


class TestReports:
    def _report(self):
        return SolveReport(
            converged=True, outer_iters=3,
            residual_norms=[1.5, 0.3, 1e-4, 3.33e-11],
            eps_values=[1.0, 0.2, 0.04, 0.04], alphas=[1.0, 0.5, 1.0],
            gmres_iters=[None, 7, 9],
            inner_iters=[4, 2, 1], threshold=1e-10, wall_time=0.123)

    def test_residual_history_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "residual_history.csv"
        write_csv(path, HISTORY_COLUMNS, history_rows(report))
        rows = read_residual_history_csv(path)
        assert [r["iteration"] for r in rows] == [0, 1, 2, 3]
        assert [r["residual"] for r in rows] == report.residual_norms
        assert [r["eps"] for r in rows] == report.eps_values
        assert rows[0]["alpha"] is None and rows[0]["gmres_iters"] is None
        assert [r["alpha"] for r in rows[1:]] == report.alphas
        assert [r["gmres_iters"] for r in rows[1:]] == report.gmres_iters

    def test_benchmark_csv_round_trip(self, tmp_path):
        rows = [
            BenchmarkRow("raspen-eps", 64, "2x2", 1e-10, 1e-6, 1.0, 0.2, 1.0,
                         4, 10.25, 27.5, 1.25, True, None),
            BenchmarkRow("newton", 64, "1x1", 1e-15, 1e-6, 1.0, 1.0, 1e-15,
                         0, None, None, 0.0, False, "did not converge"),
        ]
        path = tmp_path / "table.csv"
        write_csv(path, BENCHMARK_COLUMNS, map(astuple, rows))
        assert read_benchmark_csv(path) == rows

    def test_pairs_csv_round_trip(self, tmp_path):
        pairs = [(0.1, 223.0356005135898), (0.01, 68.2868458519769)]
        path = tmp_path / "rate.csv"
        write_csv(path, ["eps", "h1_error"], pairs)
        header, parsed = read_pairs_csv(path)
        assert header == ["eps", "h1_error"]
        assert [tuple(row) for row in parsed] == pairs


class TestRunSingle:
    def test_artifacts_and_fidelity(self, tmp_path):
        cfg = mild_config()
        code, data = run_single(cfg, tmp_path)
        assert code == 0 and data["converged"]
        on_disk = read_report_json(tmp_path / "report.json")
        assert on_disk == data
        assert on_disk["schema"] == 1
        assert on_disk["config"] == asdict(cfg)
        assert on_disk["eps_history"][-1] == cfg.eps_min
        assert on_disk["lu_fallbacks"] == 0

        history = read_residual_history_csv(tmp_path / "residual_history.csv")
        assert [r["residual"] for r in history] == on_disk["residual_history"]
        assert [r["eps"] for r in history] == on_disk["eps_history"]

        grid = Grid(cfg.n)
        u = read_field_csv(tmp_path / "u.csv", grid)
        for name in ("y.csv", "p.csv"):
            read_field_csv(tmp_path / name, grid)
        assert sparsity_fraction(u) == on_disk["sparsity_fraction"]

    def test_fields_parse_to_the_solve_bitwise(self, tmp_path):
        cfg = mild_config()
        x, _, spec = solve_single(cfg)
        run_single(cfg, tmp_path)
        y, p = split_pair(x)
        u = recover_control(p, spec, cfg.eps_min)
        for name, v in (("y", y), ("p", p), ("u", u)):
            parsed = read_field_csv(tmp_path / f"{name}.csv", Grid(cfg.n))
            assert parsed.tobytes() == v.tobytes(), name

    @pytest.mark.parametrize("method", ["newton-eps", "newton-ras-eps",
                                        "raspen-eps"])
    def test_every_lu_fallback_is_counted(self, monkeypatch, method):
        # stalled single-precision factors, and symmetric-mode factors that
        # fail their probe, in the monolithic, RAS-local and RASPEN-local
        # paths, leave exactly the default path
        cfg = mild_config(method=method, s1=2, s2=2, overlap=1, threads=2)
        _, spec = build_problem(cfg)
        x_sym, report_sym, _ = solve_single(cfg, spec)
        assert report_sym.lu_fallbacks == 0
        attempts, rejected = [], []

        class Inaccurate:
            def __init__(self, lu, scale):
                self.solve = lambda b: lu.solve(b) * scale

        def default_splu(matrix, **kwargs):
            # the reference takes the pivoted double-precision path throughout
            if matrix.dtype == np.float32:
                rejected.append(matrix.shape)
                raise RuntimeError("no single-precision factor")
            return spla.splu(matrix)

        def spoiled_splu(matrix, **kwargs):
            if not kwargs:
                return spla.splu(matrix)
            attempts.append(matrix.shape)
            # twice the solution never lowers a refinement residual, so a
            # single-precision factor stalls; 1e-8 fails the double probe
            scale = 2.0 if matrix.dtype == np.float32 else 1.0 + 1e-8
            return Inaccurate(spla.splu(matrix, **kwargs), scale)

        def solve(splu, run_cfg=cfg):
            stand_in = SimpleNamespace(splu=splu)
            monkeypatch.setattr(newton, "spla", stand_in)
            monkeypatch.setattr(schwarz, "spla", stand_in)
            return solve_single(run_cfg, spec)

        x_ref, report_ref, _ = solve(default_splu)
        assert report_ref.lu_fallbacks == len(rejected)
        x, report, _ = solve(spoiled_splu)
        assert report.converged
        assert report.lu_fallbacks == len(attempts) > 0
        assert report_to_dict({}, report, 1.0)["lu_fallbacks"] == len(attempts)
        np.testing.assert_array_equal(x, x_ref)
        assert np.linalg.norm(x - x_sym) <= 1e-10 * np.linalg.norm(x_sym)
        # a run cut short by max_outer ends as a failed report that still
        # counts every fallback made
        attempts.clear()
        _, cut, _ = solve(spoiled_splu, replace(cfg, max_outer=1))
        assert not cut.converged and cut.outer_iters == 1
        assert cut.lu_fallbacks == len(attempts) > 0
        assert report_to_dict({}, cut, 1.0)["lu_fallbacks"] == len(attempts)

    def test_degenerate_schedule_has_constant_eps(self, tmp_path):
        cfg = mild_config(method="newton", eps0=1.0, eps_min=1.0)
        code, data = run_single(cfg, tmp_path)
        assert code == 0
        assert set(data["eps_history"]) == {1.0}

    def test_deterministic_modulo_timing(self, tmp_path):
        cfg = mild_config(method="raspen-eps", s1=2, s2=2, overlap=2, threads=2)
        _, first = run_single(cfg, tmp_path / "a")
        _, second = run_single(cfg, tmp_path / "b")
        first.pop("timing")
        second.pop("timing")
        assert first == second
        text_a = (tmp_path / "a" / "u.csv").read_text()
        text_b = (tmp_path / "b" / "u.csv").read_text()
        assert text_a == text_b

    def test_solver_failure_exit_code(self, tmp_path):
        cfg = mild_config(max_outer=1, eps_min=1e-10)
        code, data = run_single(cfg, tmp_path)
        assert code == 3
        assert not data["converged"] and data["failure"]

    def test_gmres_breakdown_writes_artifacts(self, tmp_path, monkeypatch):
        # a NaN preconditioner breaks GMRES down in the first direction solve
        monkeypatch.setattr(
            experiments, "ras_preconditioner",
            lambda *args, **kwargs: lambda v: np.full_like(v, np.nan))
        cfg = mild_config(method="newton-ras-eps", s1=2, s2=2, overlap=1)
        code, data = run_single(cfg, tmp_path)
        assert code == 3
        assert not data["converged"]
        assert data["failure"].startswith("nonfinite")
        assert read_report_json(tmp_path / "report.json") == data
        assert len(data["residual_history"]) == 1
        for name in ("y.csv", "p.csv", "u.csv"):
            read_field_csv(tmp_path / name, Grid(cfg.n))

    def test_nonfinite_jacobian_writes_artifacts(self, tmp_path,
                                                 overflow_from_second_jacobian):
        code, data = run_single(mild_config(method="newton-eps"), tmp_path)
        assert code == 3
        assert not data["converged"]
        assert data["failure"].startswith("nonfinite value in phi''(y)")
        assert data["outer_iters"] == 1
        assert len(data["residual_history"]) == 2
        assert read_report_json(tmp_path / "report.json") == data
        for name in ("y.csv", "p.csv", "u.csv"):
            read_field_csv(tmp_path / name, Grid(12))

    @pytest.mark.parametrize("method,shape", [
        ("newton-eps", {}),
        ("newton-ras-eps", {"s1": 2, "s2": 2}),
        ("raspen-eps", {"s1": 2, "s2": 2}),
    ], ids=["monolithic", "ras", "raspen"])
    def test_solve_single_starts_from_x0(self, method, shape):
        # a start at the solution begins the history at its residual, not
        # at the residual of 0
        cfg = mild_config(method=method, eps0=MILD["eps_min"], **shape)
        x_star, cold, spec = solve_single(cfg)
        assert cold.converged
        x0 = x_star.copy()
        _, warm, _ = solve_single(cfg, spec, x0)
        np.testing.assert_array_equal(x0, x_star)
        assert warm.converged and warm.outer_iters < cold.outer_iters
        assert warm.residual_norms[0] < 1e-6 * cold.residual_norms[0]


class TestRunTable:
    def test_mono_protocol_layout(self, tmp_path):
        base = mild_config()
        code, rows = run_table("mono", base, tmp_path)
        assert code == 0 and len(rows) == 12
        assert [row.method for row in rows[:6]] == ["newton"] * 6
        assert [row.method for row in rows[6:]] == ["newton-eps"] * 6
        assert [row.eps_min for row in rows[:6]] == list(EPS_TABLE_MONO)
        assert read_benchmark_csv(tmp_path / "table_mono.csv") == rows
        # plain rows carry a degenerate schedule
        assert all(row.eps0 == row.eps_min for row in rows[:6])

    def test_mono_degenerate_cell_matches_run_single(self, tmp_path):
        base = mild_config()
        _, rows = run_table("mono", base, tmp_path / "table")
        cell = rows[0]
        cfg = replace(base, method="newton", eps_min=1.0, eps0=1.0,
                      linear_solver="auto")
        _, data = run_single(cfg, tmp_path / "single")
        assert cell.outer_iters == data["outer_iters"]
        assert cell.converged == data["converged"]

    def test_cell_failures_recorded_not_raised(self, tmp_path):
        base = mild_config(max_outer=2, eps_min=1e-10)
        code, rows = run_table("mono", base, tmp_path)
        assert code == 4
        bad = [row for row in rows if not row.converged]
        assert bad and all(row.failure for row in bad)
        assert (tmp_path / "table_mono.csv").exists()

    def test_failed_cell_leaves_averages_empty(self, tmp_path):
        # two outer iterations end a raspen-eps cell early: its averages
        # stay empty in the CSV, its outer count and failure are kept
        base = mild_config(s1=2, s2=2, overlap=2, max_outer=2, eps_min=1e-10)
        code, rows = run_table("raspen", base, tmp_path)
        assert code == 4
        bad = [row for row in rows if not row.converged]
        assert bad and all(row.outer_iters == 2 and row.failure for row in bad)
        assert all(row.avg_inner_iters is None and row.avg_gmres_iters is None
                   for row in bad)
        assert read_benchmark_csv(tmp_path / "table_raspen.csv") == rows

    def test_raspen_table_runs(self, tmp_path):
        base = mild_config(s1=2, s2=2, overlap=2)
        code, rows = run_table("raspen", base, tmp_path)
        assert code == 0 and len(rows) == 8
        assert all(row.subdomains == "2x2" for row in rows)
        assert all(row.avg_inner_iters is not None for row in rows)
        assert all(row.avg_gmres_iters is not None for row in rows)

    def test_gmres_cells_cover_four_methods(self):
        cells = table_cells("gmres", mild_config())
        assert len(cells) == 24
        methods = [cfg.method for cfg in cells]
        assert methods.count("newton") == 6 and methods.count("newton-ras") == 6
        unprec = [cfg for cfg in cells if not cfg.uses_ras]
        assert all(cfg.linear_solver == "gmres" for cfg in unprec)
        ras = [cfg for cfg in cells if cfg.uses_ras]
        # default decomposition fills in when the base config has none
        assert all(cfg.subdomains == "2x2" for cfg in ras)

    def test_scaling_cells_fix_per_subdomain_size(self):
        cells = table_cells("scaling", mild_config(n=8))
        assert [(cfg.n, cfg.s1, cfg.s2) for cfg in cells] == [
            (8, 1, 1), (16, 2, 2), (24, 3, 3)]

    def test_sweep_cells_cover_parameter_grid(self):
        cells = table_cells("sweep", mild_config(eps_min=1e-10))
        assert len(cells) == 3 * (2 + 2 * 9)
        nus = {cfg.nu for cfg in cells}
        assert nus == {1e-8, 1e-4}
        eps_variants = [cfg for cfg in cells if cfg.uses_continuation]
        assert {cfg.gamma for cfg in eps_variants} == {0.5, 0.2, 0.1}
        assert {cfg.eps0 for cfg in eps_variants} == {1.0, 1e-3, 1e-5}

    def test_programming_error_in_a_cell_propagates(self, tmp_path,
                                                    monkeypatch):
        def broken(cfg):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(experiments, "solve_single", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            run_table("mono", mild_config(), tmp_path)

    def test_unknown_table_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown table"):
            run_table("weekly", mild_config(), tmp_path)


class TestStudies:
    def test_rate_study_outputs(self, tmp_path):
        rows, slope = rate_study(16, [1e-1, 1e-2, 1e-3], tmp_path)
        assert [eps for eps, _ in rows] == [1e-1, 1e-2, 1e-3]
        errors = [err for _, err in rows]
        assert all(a >= b for a, b in zip(errors, errors[1:]))
        assert np.isfinite(slope)
        header, parsed = read_pairs_csv(tmp_path / "rate.csv")
        assert header == ["eps", "h1_error"]
        assert [tuple(row) for row in parsed] == [tuple(row) for row in rows]
        summary = read_report_json(tmp_path / "rate.json")
        assert summary["slope"] == slope and summary["failure"] is None

    def test_rate_study_warm_starts_match_cold_solves(self, tmp_path,
                                                      monkeypatch):
        from ocp.system import construct_plateau_problem
        assemblies = []
        real = experiments.jacobian

        def counted(x, spec, eps):
            assemblies.append(eps)
            return real(x, spec, eps)

        monkeypatch.setattr(experiments, "jacobian", counted)
        rows, _ = rate_study(16, [1e-1, 1e-2, 1e-3], tmp_path)
        warm = len(assemblies)
        grid = Grid(16)
        spec, _ = construct_plateau_problem(grid)
        cfg = ExperimentConfig(n=16)

        def cold_solve(eps):
            x, report, _ = solve_single(replace(cfg, eps_min=eps), spec)
            assert report.converged
            return split_pair(x)

        y_ref, p_ref = cold_solve(1e-12)
        for eps, err in rows:
            y, p = cold_solve(eps)
            cold = np.hypot(grid.h1_norm(y - y_ref), grid.h1_norm(p - p_ref))
            assert err == pytest.approx(cold, rel=1e-6)
        assert warm < len(assemblies) - warm

    @pytest.mark.parametrize("eps_list,eps_ref,match", [
        ([1e-1, 1e-2], 1e-2, "eps_ref"),
        # one point fixes no slope
        ([1e-1, 1e-1], 1e-12, "two distinct eps"),
    ], ids=["eps-ref-above-list", "one-distinct-eps"])
    def test_rate_study_rejects_bad_reference(self, tmp_path, eps_list, eps_ref,
                                              match):
        with pytest.raises(ValueError, match=match):
            rate_study(16, eps_list, tmp_path / "out", eps_ref=eps_ref)
        assert not (tmp_path / "out").exists()

    def test_identical_solves_have_zero_distance(self):
        # the reference comparison degenerates to zero for the same field
        from ocp.system import construct_plateau_problem
        spec, _ = construct_plateau_problem(Grid(12))
        cfg = ExperimentConfig(n=12, eps_min=1e-2)
        x1, _, _ = solve_single(cfg, spec)
        x2, _, _ = solve_single(cfg, spec)
        np.testing.assert_array_equal(x1, x2)

    def test_continuation_solve_failure_is_a_solver_fault(
            self, tmp_path, overflow_from_second_jacobian):
        with pytest.raises(SolverFault, match="study solve at eps=0.01 failed"):
            rate_study(12, [1e-2, 1e-3], tmp_path)
        summary = read_report_json(tmp_path / "rate.json")
        assert summary["failure"].startswith("study solve at eps=0.01 failed")
        assert summary["slope"] is None

    def test_sparsity_fault_keeps_the_completed_cells(self, tmp_path,
                                                      monkeypatch):
        real = experiments.solve_single
        calls = []

        def fail_third(cfg, spec=None, x0=None):
            calls.append(cfg.eps_min)
            if len(calls) == 3:
                raise SolverFault("injected")
            return real(cfg, spec, x0)

        monkeypatch.setattr(experiments, "solve_single", fail_third)
        with pytest.raises(SolverFault, match="injected"):
            sparsity_study([1e-4, 1e-3], [1.0, 1e-11], 12, tmp_path)
        header, parsed = read_pairs_csv(tmp_path / "sparsity.csv")
        assert header == ["mu", "eps", "fraction"]
        assert [tuple(row[:2]) for row in parsed] == [(1e-4, 1.0), (1e-4, 1e-11)]

    def test_sparsity_study_outputs(self, tmp_path):
        rows = sparsity_study([1e-4, 1e-3], [1.0, 1e-11], 16, tmp_path)
        assert len(rows) == 4
        header, parsed = read_pairs_csv(tmp_path / "sparsity.csv")
        assert header == ["mu", "eps", "fraction"]
        assert [tuple(row) for row in parsed] == [tuple(row) for row in rows]
        assert (tmp_path / "u_mu0.0001_eps1.csv").exists()
        fractions = {(mu, eps): frac for mu, eps, frac in rows}
        assert all(0.0 <= frac <= 1.0 for frac in fractions.values())

    def test_sparsity_fraction_conventions(self):
        assert sparsity_fraction(np.zeros(5)) == 1.0
        u = np.array([1.0, 1e-9, -1e-9, 0.5, 0.0])
        assert sparsity_fraction(u) == pytest.approx(3 / 5)


class TestCli:
    def test_solve_exit_zero(self, tmp_path):
        code = main(["solve", "--method", "newton-eps", "--n", "12",
                     "--nu", "1e-2", "--k-tilde", "2", "--eps-min", "1e-3",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report.json").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("method = newton-eps\nn = 10\nnu = 1e-2\n"
                            "k_tilde = 2\neps_min = 1e-3\n")
        code = main(["solve", "--config", str(cfg_path), "--n", "12",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        data = read_report_json(tmp_path / "out" / "report.json")
        assert data["config"]["n"] == 12 and data["config"]["nu"] == 1e-2

    def test_config_error_exit_two(self, tmp_path, capsys):
        code = main(["solve", "--method", "newton-ras",
                     "--linear-solver", "direct", "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        # a bad config stops every subcommand before it writes anything
        for argv in (["table", "mono", "--gmres-tol", "-1"],
                     ["table", "gmres", "--gmres-tol", "-1"],
                     ["solve", "--gmres-tol", "0"]):
            assert main(argv + ["--out", str(tmp_path / "out")]) == 2
            assert "tolerances must be positive" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        # so does an empty grid, with the grid's own message (the studies'
        # --n 0 cases are in the next test)
        for argv in (["solve"], ["table", "mono"]):
            assert main(argv + ["--n", "0", "--out", str(tmp_path / "out")]) == 2
            assert "grid needs at least one interior point" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        # so does a decomposition that the grid cannot hold, which only the
        # solve finds
        for argv in (["--method", "raspen", "--n", "8", "--subdomains", "4x4",
                      "--overlap", "3"],
                     ["--method", "newton-ras", "--n", "3", "--subdomains", "4x4"]):
            assert main(["solve", *argv, "--out", str(tmp_path / "out")]) == 2
            assert "config error" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        # a non-finite number is a config error, not a solver failure
        for flag, value in (("--nu", "nan"), ("--mu", "inf"), ("--kappa", "nan"),
                            ("--sigma", "nan"), ("--tol", "nan")):
            argv = ["solve", "--method", "newton-eps", "--n", "8", "--k-tilde", "1",
                    flag, value, "--out", str(tmp_path / "out")]
            assert main(argv) == 2
            assert "must be finite" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        # a tolerance below roundoff would spend every outer iteration
        for flag in ("--tol", "--inner-tol"):
            argv = ["solve", "--method", "newton-eps", "--n", "8", "--k-tilde", "1",
                    flag, "1e-20", "--out", str(tmp_path / "out")]
            assert main(argv) == 2
            assert "at least machine epsilon" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        # gamma = 1 never takes a continuation method's eps0 to eps_min; a
        # plain base config lets the table find it in its newton-eps cells
        gamma_one = ["--n", "8", "--k-tilde", "1", "--gamma", "1"]
        for argv in (["solve", "--method", "newton-eps", "--eps0", "1",
                      "--eps-min", "1e-5", "--max-outer", "40", *gamma_one],
                     ["solve", "--method", "raspen-eps", "--subdomains", "2x2",
                      "--eps0", "1", "--eps-min", "1e-5", *gamma_one],
                     ["table", "mono", *gamma_one],
                     ["table", "mono", "--method", "newton", *gamma_one]):
            assert main(argv + ["--out", str(tmp_path / "out")]) == 2
            assert "gamma = 1 never decays eps0" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_module_entry_point_config_error(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "ocp.harness.cli", "solve", "--n", "0",
             "--out", str(out)], env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert "config error" in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv,match", [
        (["rate", "--eps-list", "nan,1e-2"], "eps_list"),
        (["rate", "--eps-list", "1e-2,1e-3", "--eps-ref", "nan"], "eps_ref"),
        (["sparsity", "--eps-list", "0", "--mu-list", "1e-4"], "eps_list"),
        (["sparsity", "--eps-list", "1e-2", "--mu-list", "-1"], "mu_list"),
        (["rate", "--n", "0"], "interior point"),
        (["sparsity", "--n", "0"], "interior point"),
        (["rate", "--eps-list", "1e-2,abc"], "bad numeric list"),
        (["sparsity", "--eps-list", ","], "empty numeric list"),
        (["rate", "--tol", "1e-20"], "at least machine epsilon"),
        (["sparsity", "--tol", "1e-20"], "at least machine epsilon"),
        (["rate", "--kappa", "nan"], "kappa must be finite"),
        (["sparsity", "--nu", "0"], "nu and mu must be positive"),
    ], ids=["rate-nan-eps", "rate-nan-eps-ref", "sparsity-zero-eps",
            "sparsity-negative-mu", "rate-zero-n", "sparsity-zero-n",
            "rate-bad-eps-list", "sparsity-empty-eps-list",
            "rate-tol-below-roundoff", "sparsity-tol-below-roundoff",
            "rate-nan-kappa", "sparsity-zero-nu"])
    def test_study_config_error_writes_nothing(self, tmp_path, capsys, argv, match):
        out = tmp_path / "out"
        # an --n in argv comes later, so it overrides the 8
        assert main([argv[0], "--n", "8", *argv[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err
        assert not out.exists()

    def test_solver_failure_exit_three(self, tmp_path):
        code = main(["solve", "--method", "newton", "--n", "12",
                     "--max-outer", "1", "--out", str(tmp_path)])
        assert code == 3

    def test_nonfinite_field_is_solver_failure(self, tmp_path, monkeypatch,
                                               capsys):
        # an overflow in the numerics is a SolverFault only: a solver
        # failure, not a usage error
        def overflow(cfg, out_dir):
            raise NonfiniteFieldError("phi'(y)", 7)

        monkeypatch.setattr("ocp.harness.cli.run_single", overflow)
        code = main(["solve", "--out", str(tmp_path)])
        assert code == 3
        assert "solver failure" in capsys.readouterr().err

    def test_bare_runtime_error_propagates(self, tmp_path, monkeypatch):
        # a RuntimeError that is no SolverFault, such as the guard against
        # stale subdomain factors, flags a programming error: it is no solver
        # failure and gets no exit code
        def stale(cfg, out_dir):
            raise RuntimeError("stale subdomain factors")

        monkeypatch.setattr("ocp.harness.cli.run_single", stale)
        with pytest.raises(RuntimeError, match="stale"):
            main(["solve", "--out", str(tmp_path)])

    def test_nonfinite_jacobian_exit_three(self, tmp_path, capsys,
                                           overflow_from_second_jacobian):
        code = main(["solve", "--method", "newton-eps", "--n", "12",
                     "--nu", "1e-2", "--k-tilde", "2", "--eps-min", "1e-3",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "FAILED (nonfinite value in phi''(y)" in capsys.readouterr().out
        assert read_report_json(tmp_path / "report.json")["outer_iters"] == 1

    def test_nonfinite_jacobian_on_the_gmres_path_exit_three(self, tmp_path,
                                                             capsys, monkeypatch):
        # newton-ras-eps at 2x2 evaluates phi'' once per step for the
        # assembled global Jacobian, then once per local factor; only the
        # second step's global evaluation overflows
        real = Nonlinearity.second_derivative
        calls = []

        def second_derivative(self, s):
            calls.append(s)
            return real(self, np.full_like(s, np.inf) if len(calls) == 6 else s)

        monkeypatch.setattr(Nonlinearity, "second_derivative", second_derivative)
        code = main(["solve", "--method", "newton-ras-eps", "--n", "12",
                     "--nu", "1e-2", "--k-tilde", "2", "--eps-min", "1e-3",
                     "--subdomains", "2x2", "--out", str(tmp_path)])
        assert code == 3
        assert "FAILED (nonfinite value in phi''(y)" in capsys.readouterr().out
        data = read_report_json(tmp_path / "report.json")
        assert data["outer_iters"] == 1 and len(data["residual_history"]) == 2
        assert len(read_residual_history_csv(tmp_path / "residual_history.csv")) == 2
        # the fields hold the iterate after the one step taken
        assert np.any(read_field_csv(tmp_path / "y.csv", Grid(12)))
        for name in ("p.csv", "u.csv"):
            read_field_csv(tmp_path / name, Grid(12))

    @pytest.mark.parametrize("flag, value, failure", [
        # the manufactured state solve: its initial residual overflows
        ("--mu", "1e300", "nonfinite residual at the initial guess"),
        # the manufactured state solve: its line search gives up
        ("--nu", "1e-30", "no admissible step"),
    ])
    def test_setup_failure_exit_three(self, tmp_path, capsys, flag, value,
                                      failure):
        code = main(["solve", "--n", "12", flag, value, "--out", str(tmp_path)])
        assert code == 3
        assert "FAILED (state solve failed" in capsys.readouterr().out
        data = read_report_json(tmp_path / "report.json")
        assert failure in data["failure"] and not data["converged"]
        assert data["config"][flag[2:]] == float(value)
        assert data["outer_iters"] == 0 and data["residual_history"] == []
        assert read_residual_history_csv(tmp_path / "residual_history.csv") == []
        for name in ("y.csv", "p.csv", "u.csv"):
            assert not np.any(read_field_csv(tmp_path / name, Grid(12)))

    def test_table_exit_codes(self, tmp_path):
        code = main(["table", "raspen", "--n", "12", "--nu", "1e-2",
                     "--k-tilde", "2", "--subdomains", "2x2",
                     "--out", str(tmp_path)])
        assert code == 0
        code = main(["table", "mono", "--n", "12", "--nu", "1e-2",
                     "--k-tilde", "2", "--max-outer", "2",
                     "--out", str(tmp_path / "partial")])
        assert code == 4

    def test_table_cell_setup_failure_becomes_row(self, tmp_path):
        code = main(["table", "mono", "--n", "8", "--k-tilde", "1",
                     "--mu", "1e300", "--out", str(tmp_path)])
        assert code == 4
        rows = read_benchmark_csv(tmp_path / "table_mono.csv")
        assert len(rows) == 12
        for row in rows:
            assert not row.converged and row.outer_iters == 0
            assert row.failure == ("state solve failed: nonfinite residual "
                                   "at the initial guess")

    def test_rate_subcommand(self, tmp_path, capsys):
        code = main(["rate", "--n", "12", "--eps-list", "1e-1,1e-2",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "slope" in capsys.readouterr().out
        code = main(["rate", "--n", "12", "--eps-list", "1e-1",
                     "--eps-ref", "0.5", "--out", str(tmp_path)])
        assert code == 2

    def test_rate_setup_failure_exit_three(self, tmp_path, capsys):
        code = main(["rate", "--n", "12", "--mu", "1e300", "--eps-list",
                     "1e-1,1e-2", "--out", str(tmp_path)])
        assert code == 3
        assert "state solve failed" in capsys.readouterr().err
        summary = read_report_json(tmp_path / "rate.json")
        assert summary["slope"] is None and summary["mu"] == 1e300
        assert "nonfinite residual at the initial guess" in summary["failure"]
        assert read_pairs_csv(tmp_path / "rate.csv") == (["eps", "h1_error"], [])

    def test_sparsity_subcommand(self, tmp_path):
        code = main(["sparsity", "--n", "12", "--mu-list", "1e-3",
                     "--eps-list", "1,1e-11", "--no-fields",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sparsity.csv").exists()
