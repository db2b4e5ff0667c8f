"""Artifact emission: report.json and every CSV (history, tables, studies, fields).

Floats are written with repr (shortest round-trip), so every CSV re-parses to
exactly the values recorded in report.json and the solve's arrays.  Timing
lives in its own report key; everything outside "timing" is deterministic for
a fixed config.
"""

import csv
from itertools import chain, repeat
import json
from dataclasses import dataclass, fields
from pathlib import Path

SCHEMA_VERSION = 1


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr names its type
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


def write_csv(path, header, rows):
    """One CSV artifact: the header row unless it is None, then the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


HISTORY_COLUMNS = ["iteration", "eps", "residual", "alpha", "gmres_iters"]


def history_rows(report):
    """One row per outer iterate; iterate 0 has no step, so alpha/gmres are empty."""
    step = lambda values: chain([None], values, repeat(None))
    return [[k, *cells] for k, cells in enumerate(zip(
        report.eps_values, report.residual_norms, step(report.alphas),
        step(report.gmres_iters)))]


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
