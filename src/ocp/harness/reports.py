"""Artifact emission: report.json, residual history, and benchmark tables.

Floats are written with repr (shortest round-trip), so every CSV re-parses to
exactly the values recorded in report.json.  Timing lives in its own report
key; everything outside "timing" is deterministic for a fixed config.
"""

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

SCHEMA_VERSION = 1


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_dict(cfg_dict, report, sparsity_fraction):
    return {
        "schema": SCHEMA_VERSION,
        "config": dict(cfg_dict),
        "converged": bool(report.converged),
        "outer_iters": int(report.outer_iters),
        "threshold": float(report.threshold),
        "eps_history": [float(e) for e in report.eps_values],
        "residual_history": [float(r) for r in report.residual_norms],
        "alphas": [float(a) for a in report.alphas],
        "gmres_iters": [None if k is None else int(k) for k in report.gmres_iters],
        "inner_iters": [int(k) for k in report.inner_iters],
        "avg_gmres_iters": report.avg_gmres_iters,
        "avg_inner_iters": report.avg_inner_iters,
        "failure": report.failure,
        "lu_fallbacks": int(report.lu_fallbacks),
        "sparsity_fraction": float(sparsity_fraction),
        "timing": {"wall_time_s": float(report.wall_time)},
    }


def write_report_json(path, data):
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_residual_history_csv(path, report):
    """One row per outer iterate; iterate 0 has no step, so alpha/gmres are empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "eps", "residual", "alpha", "gmres_iters"])
        for k, (eps, res) in enumerate(zip(report.eps_values, report.residual_norms)):
            alpha = report.alphas[k - 1] if 1 <= k <= len(report.alphas) else None
            gmres = report.gmres_iters[k - 1] if 1 <= k <= len(report.gmres_iters) else None
            writer.writerow([k, _fmt(eps), _fmt(res), _fmt(alpha), _fmt(gmres)])


@dataclass
class BenchmarkRow:
    method: str
    n: int
    subdomains: str
    eps_min: float
    nu: float
    mu: float
    gamma: float
    eps0: float
    outer_iters: int
    avg_inner_iters: float | None
    avg_gmres_iters: float | None
    wall_time_s: float
    converged: bool
    failure: str | None = None


BENCHMARK_COLUMNS = [f.name for f in fields(BenchmarkRow)]


def write_benchmark_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCHMARK_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in BENCHMARK_COLUMNS])


def write_pairs_csv(path, header, pairs):
    """Small two-or-more column numeric CSV (rate and sparsity studies)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in pairs:
            writer.writerow([_fmt(v) for v in row])
