"""Solver benchmark: time to solution, iteration counts and memory.

One client drives `ocp.harness.experiments.solve_single` in a closed loop:
each iteration runs worker.py in a fresh process, which sets the problem up,
solves it from x = 0 to convergence and gates the solution; the next
iteration starts only after that process has ended.  The loop stops starting
iterations once the run's seconds have passed.

With trace 0 every solve runs untraced and the end-to-end metrics are
printed.  With trace 1 untraced and traced iterations alternate; the
per-layer metrics are medians over the traced ones, and the difference of
the two solve-time medians is the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from workloads import (REFERENCE, WORKLOADS, count_deviations,
                       perturbation_share)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

E2E_UNITS = {"solve_s": "s", "setup_s": "s", "outer_iters": "count",
             "peak_rss_mb": "MB"}
PER_LAYER = list(REFERENCE["layer_map"])

# a solve takes 5-10 s on a 2-core x86 host; a worker past this is killed and
# counts as failed, which keeps a traced run (two workers) under 180 s
WORKER_TIMEOUT_S = 70


def unit_of(name):
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_eff", "imbalance", "_frac")):
        return "ratio"
    return "count"


def timing_summary(values):
    """Median, sample count and the highest percentile with 10 samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} s over {n} samples"
    if n <= 10:
        return text + "; no percentile has 10 samples beyond it"
    pct = (n - 10) * 100 // n
    rank = max(1, -(-pct * n // 100))
    return text + f", p{pct} {sorted(values)[rank - 1]:.6g} s"


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def run_worker(args, traced, index):
    """One iteration in a fresh process; returns its result dict or None."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), str(int(traced))]
    if traced:
        OUT.mkdir(exist_ok=True)
        cmd.append(str(OUT / f"spans-{args.workload}-seed{args.seed}-{index}.json"))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"solve {index}: killed after {WORKER_TIMEOUT_S} s", flush=True)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"solve {index}: worker exited with {proc.returncode}", flush=True)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = ", ".join(f"{k} {v}" for k, v in result["counts"].items())
    print(f"solve {index}{' traced' if traced else ''}: "
          f"setup {' '.join(f'{t:.4f}' for t in result['setup_s'])} s, "
          f"solve {result['solve_s']:.4f} s, {counts}, "
          f"converged {result['converged']}, "
          f"rel_residual {result['rel_residual']:.3e}, "
          f"peak_rss {result['peak_rss_mb']:.1f} MB"
          + ("" if result["passed"] else ", FAILED gate"), flush=True)
    return result


def run(args):
    cfg = WORKLOADS[args.workload]
    print("meta " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "closed_loop_clients": 1,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": cfg.threads, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "method": cfg.method, "n": cfg.n, "subdomains": cfg.subdomains,
        "nu": cfg.nu, "mu": cfg.mu}), flush=True)

    results = {False: [], True: []}
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    # a traced run needs at least one untraced and one traced solve
    while attempted < 1 + args.trace or time.perf_counter() < deadline:
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        result = run_worker(args, traced, attempted)
        if result is None or not result["passed"]:
            failed += 1
        if result is not None:
            results[traced].append(result)

    if args.seed:
        print(f"seed perturbation of y_d: {perturbation_share(cfg.nu):.6g} "
              "of max|y_d|")
    print(f"failed_frac: {failed / attempted:.6g} "
          f"(base: {attempted} attempted solves, {failed} failed)")
    finished = results[False] + results[True]
    if finished:
        print("counts " + json.dumps(finished[0]["counts"]))
    if args.seed == 0:
        deviations = sorted({d for r in finished
                             for d in count_deviations(args.workload, r["counts"])})
        print("seed-0 counts: " + ("; ".join(deviations) or
                                   f"all {len(finished)} solves match "
                                   "perfbench/reference.json"))

    if args.trace:
        metrics = per_layer_metrics(results)
    else:
        metrics = e2e_metrics(results[False])
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(finished),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def e2e_metrics(results):
    solves = [r["solve_s"] for r in results]
    setups = [t for r in results for t in r["setup_s"]]
    if solves:
        print("solve_s: " + timing_summary(solves))
        print("setup_s: " + timing_summary(setups))
    # the largest ru_maxrss of the run's solve processes: the same solve's
    # peak RSS varies between processes on some hosts, its top much less
    print("peak_rss_mb: max of ru_maxrss over the solve processes")
    values = {"solve_s": _median(solves), "setup_s": _median(setups),
              "outer_iters": _median(r["counts"]["outer_iters"] for r in results),
              "peak_rss_mb": max((r["peak_rss_mb"] for r in results),
                                 default=float("nan"))}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(results):
    traced = results[True]
    values = {name: _median(r["layers"][name] for r in traced)
              for name in PER_LAYER if traced and name in traced[0]["layers"]}
    for name in ("gmres_iters_avg", "inner_iters_avg"):
        values[name] = _median(r["counts"][name] or 0.0 for r in traced)
    untraced = _median(r["solve_s"] for r in results[False])
    values["trace.overhead_frac"] = (
        _median(r["solve_s"] for r in traced) - untraced) / untraced
    if traced:
        print("ratio bases (first traced solve): " + json.dumps(traced[0]["bases"]))
    print(f"trace.overhead_frac: base untraced solve_s median {untraced:.6g} s "
          f"over {len(results[False])} solves")
    return {name: {"value": values.get(name, float("nan")), "unit": unit_of(name)}
            for name in PER_LAYER}
