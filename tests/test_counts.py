"""The count contract: every method's counts and solution at one small config.

tests/counts.json is written by scripts/write_counts.py.  Counts and the
failure text must match it exactly; the solution and the residual history
to a relative 1e-12, since their last bits depend on the host's BLAS.  Within
one run, the Schwarz methods must give bitwise equal results at every
thread count.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "write_counts.py"
_spec = importlib.util.spec_from_file_location("write_counts", SCRIPT)
write_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(write_counts)

EXACT = ("outer_iters", "gmres_iters", "inner_iters", "lu_fallbacks", "failure")
REL_TOL = 1e-12


@pytest.fixture(scope="module")
def contract():
    return json.loads(write_counts.COUNTS.read_text(encoding="utf-8"))


def test_contract_covers_every_method(contract):
    assert contract["config"] == write_counts.CONFIG
    assert list(contract["methods"]) == list(write_counts.METHODS)


@pytest.mark.parametrize("method", write_counts.METHODS)
def test_counts_match_contract(contract, method):
    expected = contract["methods"][method]
    runs = [write_counts.solve(method, threads)
            for threads in write_counts.THREADS[method]]
    x, report = runs[0]
    got = write_counts.record(x, report)
    for key in EXACT:
        assert got[key] == expected[key], key
    for key in ("residual_norms", "x"):
        ref = np.array(expected[key])
        assert len(got[key]) == ref.size, key
        err = np.linalg.norm(np.array(got[key]) - ref)
        assert err <= REL_TOL * np.linalg.norm(ref), (key, err)
    for threads, (x_t, report_t) in zip(write_counts.THREADS[method][1:], runs[1:]):
        assert x_t.tobytes() == x.tobytes(), threads
        assert write_counts.record(x_t, report_t) == got, threads
