"""One benchmark iteration in a fresh process: set up, solve, gate.

    python3 perfbench/worker.py WORKLOAD SEED TRACE [SPANS_PATH]

Sets the seeded problem up SETUPS times, solves the last one from x = 0 with
`ocp.harness.experiments.solve_single`, gates the solution, and prints one
JSON object with the timings, the paper's iteration counts and the peak RSS
of this process.  With TRACE 1 the solver's layer calls are traced and the
per-layer metrics of the solve are added; the spans go to SPANS_PATH.

A fresh process per solve makes peak RSS a per-solve figure: ru_maxrss
never decreases within a process.
"""

import json
import resource
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ocp.harness.experiments import solve_single  # noqa: E402
from spans import (Tracer, instrument, layer_metrics, setup_metrics,  # noqa: E402
                   spans_under)
from workloads import WORKLOADS, gate, report_counts, setup  # noqa: E402

# setup_s is short and noisy, so each process sets up more than once
SETUPS = 2


def _no_span(name):
    return nullcontext()


def iterate(workload, seed, tracer=None):
    """Setups, one solve and its gate; returns the result dict."""
    cfg = WORKLOADS[workload]
    span = tracer.span if tracer else _no_span
    setup_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        with span("setup"):
            spec = setup(cfg, seed, span)
        setup_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    with span("solve") as solve_span:
        x, report, _ = solve_single(cfg, spec)
    solve_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passed, rel = gate(x, report, spec, cfg)
    result = {"setup_s": setup_s, "solve_s": solve_s, "passed": passed,
              "converged": report.converged, "rel_residual": rel,
              "counts": report_counts(report), "peak_rss_mb": peak_rss_mb}
    if tracer:
        layers, bases = layer_metrics(spans_under(tracer.spans, solve_span),
                                      cfg.threads)
        roots = [s for s in tracer.spans if s["name"] == "setup"]
        below = [c for root in roots for c in spans_under(tracer.spans, root)]
        layers.update({name: value / len(roots)
                       for name, value in setup_metrics(below).items()})
        result["layers"] = layers
        result["bases"] = bases
    return result


def main(argv):
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    # stiff line-search trials overflow by design and are rejected by the
    # solver; the gate judges the final iterate, not these warnings
    warnings.simplefilter("ignore", RuntimeWarning)
    if not trace:
        result = iterate(workload, seed)
    else:
        tracer = Tracer()
        with instrument(tracer):
            result = iterate(workload, seed, tracer)
        Path(argv[3]).write_text(json.dumps(tracer.spans))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
