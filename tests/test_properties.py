"""Property test over the config space: every solve ends classified.

Each draw goes through `ocp solve`.  Whatever the parameters, the run must
exit 0 (converged) or 3 (classified solver failure), never 2 (a valid config
rejected) and never with an unhandled exception, and either way leave the
full artifact set.
"""

import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from ocp.harness.cli import main
from ocp.harness.config import METHODS
from ocp.harness.reports import read_report_json

ARTIFACTS = ("report.json", "residual_history.csv", "y.csv", "p.csv", "u.csv")


def _powers_of_ten(lo, hi, extreme):
    """10^e for e in [lo, hi], or the extreme exponent itself."""
    return st.one_of(st.floats(lo, hi), st.just(extreme)).map(lambda e: 10.0 ** e)


@st.composite
def solve_args(draw):
    n = draw(st.integers(4, 16))
    # tiles split n with the remainder in the last one; overlap reaches the
    # narrowest tile
    s1, s2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    overlap = draw(st.integers(0, min(n // s1, n // s2)))
    method = draw(st.sampled_from(METHODS))
    args = ["--method", method, "--n", str(n),
            "--k-tilde", str(draw(st.integers(1, n // 4))),
            "--kappa", repr(draw(st.floats(0.0, 1.0))),
            "--nu", repr(draw(_powers_of_ten(-8, 0, -30))),
            "--mu", repr(draw(_powers_of_ten(-6, 2, 300))),
            "--subdomains", f"{s1}x{s2}", "--overlap", str(overlap),
            # bounds the time of draws that never converge; exit 3 either way
            "--max-outer", "25"]
    if method in ("newton", "newton-eps"):
        args += ["--linear-solver", draw(st.sampled_from(["direct", "gmres"]))]
    return args


@given(solve_args())
def test_every_solve_exits_zero_or_three_with_artifacts(args):
    with tempfile.TemporaryDirectory() as out:
        code = main(["solve", *args, "--out", out])
        assert code in (0, 3), args
        assert all((Path(out) / name).exists() for name in ARTIFACTS), args
        assert read_report_json(Path(out) / "report.json")["converged"] == (code == 0)
