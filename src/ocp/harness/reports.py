"""Artifact emission: report.json, residual history, and benchmark tables.

Floats are written with repr (shortest round-trip), so every CSV re-parses to
exactly the values recorded in report.json.  Timing lives in its own report
key; everything outside "timing" is deterministic for a fixed config.
"""

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args

SCHEMA_VERSION = 1


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_dict(cfg_dict, report, sparsity_fraction=None):
    data = {
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
        "timing": {"wall_time_s": float(report.wall_time)},
    }
    if sparsity_fraction is not None:
        data["sparsity_fraction"] = float(sparsity_fraction)
    return data


def write_report_json(path, data):
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def read_report_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_residual_history_csv(path, report):
    """One row per outer iterate; iterate 0 has no step, so alpha/gmres are empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "eps", "residual", "alpha", "gmres_iters"])
        for k, (eps, res) in enumerate(zip(report.eps_values, report.residual_norms)):
            alpha = report.alphas[k - 1] if 1 <= k <= len(report.alphas) else None
            gmres = report.gmres_iters[k - 1] if 1 <= k <= len(report.gmres_iters) else None
            writer.writerow([k, _fmt(eps), _fmt(res), _fmt(alpha), _fmt(gmres)])


def read_residual_history_csv(path):
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
_BENCHMARK_TYPES = {f.name: f.type for f in fields(BenchmarkRow)}


def _parse_cell(kind, text):
    """Inverse of _fmt for a value of the annotated type kind."""
    options = get_args(kind)
    if type(None) in options:
        if text == "":
            return None
        kind = options[0]
    return text == "True" if kind is bool else kind(text)


def write_benchmark_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCHMARK_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in BENCHMARK_COLUMNS])


def read_benchmark_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [BenchmarkRow(**{col: _parse_cell(_BENCHMARK_TYPES[col], text)
                                for col, text in record.items()})
                for record in csv.DictReader(fh)]


def write_pairs_csv(path, header, pairs):
    """Small two-or-more column numeric CSV (rate and sparsity studies)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in pairs:
            writer.writerow([_fmt(v) for v in row])


def read_pairs_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader]
