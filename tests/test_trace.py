"""The benchmark's span tracer still sees every solver layer.

perfbench/spans.py traces the solver by swapping module attributes that the
solver looks up at call time.  These solves check that the sparse LU layers
stay attributed, also when the subdomain lanes make the local factors: a
shared factor helper that bypassed a module's `spla.splu` would silently
empty a layer of the benchmark's trace.
"""

import importlib.util
from pathlib import Path

import pytest

from ocp.harness.config import build_config
from ocp.harness.experiments import solve_single

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names(spans, method, threads=1):
    cfg = build_config(overrides=dict(method=method, n=16, nu=1e-2, k_tilde=2,
                                      eps_min=1e-3, s1=2, s2=2, overlap=1,
                                      threads=threads))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        _, report, _ = solve_single(cfg)
    assert report.converged, report.failure
    return [s["name"] for s in tracer.spans]


# the layers around the local factors of each Schwarz method
AROUND = {"newton-eps": (),
          "newton-ras-eps": ("schwarz.ras_build", "schwarz.ras_apply"),
          "raspen-eps": ("schwarz.raspen_residual", "schwarz.local_newton",
                         "schwarz.raspen_matvec")}


@pytest.mark.parametrize("method,layer", [
    ("newton-eps", "newton"),
    ("newton-ras-eps", "schwarz"),
    ("raspen-eps", "schwarz"),
])
def test_lu_layers_are_attributed(spans, method, layer):
    # at threads=2 the lanes make the local factors
    for threads in (1, 2) if layer == "schwarz" else (1,):
        names = traced_names(spans, method, threads)
        factors = names.count(f"{layer}.lu_factor")
        assert factors > 0, threads
        # every factor is probed once through its traced solve
        assert names.count(f"{layer}.lu_solve") >= factors, threads
        for around in AROUND[method]:
            assert around in names, (around, threads)
