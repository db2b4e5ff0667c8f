#!/usr/bin/env python3
"""Rewrite tests/counts.json, the iteration-count contract of the six methods.

Solves every method once at one small config (n=32, k_tilde=2, 2x2
subdomains, overlap 2, eps_min=1e-5) and records its counts, residual
history and solution.  tests/test_counts.py solves the same runs again,
the Schwarz methods at every thread count in THREADS, and compares.  A
change that rewrites the file must say why its counts moved.

    PYTHONPATH=src python scripts/write_counts.py
"""

import json
import sys
from pathlib import Path

from ocp.harness.config import METHODS, build_config
from ocp.harness.experiments import solve_single

COUNTS = Path(__file__).resolve().parent.parent / "tests" / "counts.json"
CONFIG = dict(n=32, k_tilde=2, s1=2, s2=2, overlap=2, eps_min=1e-5)
SCHWARZ = ("newton-ras", "newton-ras-eps", "raspen", "raspen-eps")
# thread counts each method runs at; the file records the first
THREADS = {method: (1, 2, 0) if method in SCHWARZ else (1,) for method in METHODS}


def solve(method, threads):
    x, report, _ = solve_single(build_config(
        overrides=dict(CONFIG, method=method, threads=threads)))
    return x, report


def record(x, report):
    """The contract fields of one solve, as JSON values."""
    return {"outer_iters": report.outer_iters,
            "gmres_iters": report.gmres_iters,
            "inner_iters": report.inner_iters,
            "lu_fallbacks": report.lu_fallbacks,
            "failure": report.failure,
            "residual_norms": report.residual_norms,
            "x": x.tolist()}


def main():
    contract = {"config": CONFIG,
                "methods": {method: record(*solve(method, 1)) for method in METHODS}}
    COUNTS.write_text(json.dumps(contract, indent=1) + "\n", encoding="utf-8")
    for method, rec in contract["methods"].items():
        print(f"{method}: outer={rec['outer_iters']} "
              f"failure={rec['failure']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
