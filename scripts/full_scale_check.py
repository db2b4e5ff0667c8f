#!/usr/bin/env python3
"""Full-scale reference check, deliberately not part of the test suite.

Runs the 2x2 RAS-preconditioned configurations at n=450 and eps_min=1e-15
and compares outer Newton iterations against the reference counts for this
setup: about 40 without continuation, about 23 with, both +-3 (tie-breaking
in the line search and the GMRES tolerance move individual counts by a few).
Expect an hour or more of single-core time and a few GB of memory.
"""

import argparse
import sys
import time
from pathlib import Path

from ocp.harness.config import build_config, parse_subdomains
from ocp.harness.experiments import run_single

REFERENCE = {"newton-ras": 40, "newton-ras-eps": 23}
BAND = 3


def reference_applies(args):
    return (args.n == 450 and args.eps_min == 1e-15
            and args.subdomains == "2x2")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=450)
    ap.add_argument("--eps-min", type=float, default=1e-15)
    ap.add_argument("--subdomains", default="2x2")
    ap.add_argument("--overlap", type=int, default=2)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default="full_scale")
    args = ap.parse_args(argv)

    checked = reference_applies(args)
    if not checked:
        print("non-reference configuration: counts reported, no bands checked")

    failures = 0
    for method in ("newton-ras", "newton-ras-eps"):
        s1, s2 = parse_subdomains(args.subdomains)
        cfg = build_config(overrides={
            "method": method, "n": args.n, "s1": s1, "s2": s2,
            "overlap": args.overlap, "eps_min": args.eps_min,
            "threads": args.threads,
        })
        t0 = time.perf_counter()
        code, data = run_single(cfg, Path(args.out) / method)
        elapsed = time.perf_counter() - t0
        outer = data["outer_iters"]
        # None when the run failed before its first Newton step
        gmres = data["avg_gmres_iters"]
        avg_gmres = "n/a" if gmres is None else f"{gmres:.1f}"
        print(f"{method}: converged={data['converged']} outer={outer} "
              f"avg_gmres={avg_gmres} [{elapsed:.0f}s]", flush=True)
        if code != 0:
            print(f"  solver failure: {data['failure']}")
            failures += 1
        elif checked:
            lo, hi = REFERENCE[method] - BAND, REFERENCE[method] + BAND
            ok = lo <= outer <= hi
            print(f"  [{'PASS' if ok else 'FAIL'}] outer {outer} in [{lo}, {hi}]")
            failures += 0 if ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
