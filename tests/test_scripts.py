"""The scripts under scripts/, driven with their solves stubbed out."""

import importlib.util
from pathlib import Path

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
