"""The scripts under scripts/, driven with their solves stubbed out."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_runs(monkeypatch, script, data_for):
    methods = []

    def run_single(cfg, out_dir):
        methods.append(cfg.method)
        data = data_for(cfg.method)
        return (0 if data["converged"] else 3), data

    monkeypatch.setattr(script, "run_single", run_single)
    return methods


def test_full_scale_check_failure_before_first_step(monkeypatch, capsys,
                                                    tmp_path):
    # a run that fails before its first Newton step has no GMRES average
    script = load_script("full_scale_check")
    methods = stub_runs(monkeypatch, script, lambda method: {
        "converged": False, "outer_iters": 0, "avg_gmres_iters": None,
        "failure": "nonfinite residual at the initial guess"})
    assert script.main(["--n", "12", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert methods == ["newton-ras", "newton-ras-eps"]
    assert out.count("avg_gmres=n/a") == 2
    assert out.count("solver failure: nonfinite residual") == 2


def test_full_scale_check_reference_bands(monkeypatch, capsys, tmp_path):
    script = load_script("full_scale_check")
    stub_runs(monkeypatch, script, lambda method: {
        "converged": True, "outer_iters": script.REFERENCE[method],
        "avg_gmres_iters": 10.25, "failure": None})
    assert script.main(["--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("avg_gmres=10.2") == 2
    assert out.count("[PASS]") == 2


def stub_ocp_main(monkeypatch, script, codes, argv):
    """Record each planned run; a run's exit code comes from codes by name."""
    runs = []

    def ocp_main(run_argv):
        name = run_argv[1] if run_argv[0] == "table" else run_argv[0]
        runs.append((name, run_argv))
        return codes.get(name, 0)

    monkeypatch.setattr(script, "ocp_main", ocp_main)
    monkeypatch.setattr(sys, "argv", ["run_tables.py", *argv])
    return runs


def test_run_tables_quick_plan_accepts_sweep_exit_four(monkeypatch, capsys,
                                                       tmp_path):
    script = load_script("run_tables")
    runs = stub_ocp_main(monkeypatch, script, {"sweep": 4},
                         ["--quick", "--threads", "1", "--out", str(tmp_path)])
    assert script.main() == 0
    assert [name for name, _ in runs] == [
        "mono", "gmres", "raspen", "scaling", "sweep", "rate", "sparsity"]
    sizes = {name: argv[argv.index("--n") + 1] for name, argv in runs}
    assert sizes == {"mono": "24", "gmres": "24", "raspen": "24",
                     "scaling": "20", "sweep": "12", "rate": "64",
                     "sparsity": "32"}
    assert all(argv[argv.index("--out") + 1] == f"{tmp_path}/{name}"
               for name, argv in runs)
    out = capsys.readouterr().out
    assert "[ok] sweep (exit 4)" in out and "FAIL" not in out


@pytest.mark.parametrize("name,code", [
    ("sweep", 3), ("mono", 4), ("rate", 3), ("sparsity", 2)])
def test_run_tables_other_failures_return_one(monkeypatch, capsys, tmp_path,
                                              name, code):
    script = load_script("run_tables")
    runs = stub_ocp_main(monkeypatch, script, {name: code},
                         ["--quick", "--out", str(tmp_path)])
    assert script.main() == 1
    # a failed run does not stop the ones after it
    assert len(runs) == 7
    out = capsys.readouterr().out
    assert f"[FAIL] {name} (exit {code})" in out and out.count("FAIL") == 1
