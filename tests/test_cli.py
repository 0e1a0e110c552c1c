"""Command line interface: exit codes, report format, determinism."""

import os

import pytest

from nehari_fpl.cli import main

FAST = ["--set", "grid.n=48", "--set", "solver.max_iters=400"]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_constants_writes_report(tmp_path):
    code = main(["constants", "--out", str(tmp_path), "--set", "grid.n=48"])
    assert code == 0
    report = _read(tmp_path / "constants.report.txt").decode()
    lines = report.splitlines()
    assert lines[0].startswith("# command constants")
    assert lines[1].startswith("# config_hash ")
    assert any(ln.startswith("const.mu_tilde\t") for ln in lines)
    assert any(ln.startswith("sobolev.estimate\t") for ln in lines)
    # three tab-separated fields per data row
    for ln in lines:
        if not ln.startswith("#"):
            assert len(ln.split("\t")) == 3


def test_energy_check_passes(tmp_path):
    code = main(["energy-check", "--out", str(tmp_path), "--set", "checks.n=32"])
    assert code == 0
    assert (tmp_path / "energy-check.report.txt").exists()


def test_verify_reports_known_failures(tmp_path, capsys):
    # this test pins the whole battery: every check but the six below
    # passes.  The concentration-ladder checks measure slopes short of the
    # asymptotic rates, so the battery exits nonzero by design
    code = main(["verify", "--out", str(tmp_path), "--set", "checks.n=32"])
    assert code == 3
    err = capsys.readouterr().err
    assert "bubble.fit-a1" in err
    assert "bubble.quotient-trend" in err
    report = _read(tmp_path / "verify.report.txt").decode()
    assert "check.energy.gradient-fd\t" in report
    assert "checks.failed" in report
    failed = {
        ln.split("\t")[0][len("check."):]
        for ln in report.splitlines()
        if ln.startswith("check.") and ln.endswith("\tfail")
    }
    assert failed == {"bubble.quotient-trend", "bubble.fit-mass"} | {
        f"bubble.fit-a{i}" for i in range(1, 5)
    }
    assert "checks.total\tchecks run\t54\n" in report


def test_unknown_config_key_exits_2(tmp_path):
    assert main(["constants", "--out", str(tmp_path), "--set", "nope.key=1"]) == 2


def test_malformed_override_exits_2(tmp_path):
    assert main(["constants", "--out", str(tmp_path), "--set", "grid.n"]) == 2


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nparams.mu = 0.1\ngrid.n = 48\n")
    code = main(["constants", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.m = 48\n")
    assert main(["constants", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "grid.m" in capsys.readouterr().err


def test_solve_positive_outputs(tmp_path):
    code = main(["solve-positive", "--out", str(tmp_path)] + FAST)
    assert code == 0
    report = _read(tmp_path / "solve-positive.report.txt").decode()
    assert "solve.converged\t" in report
    assert (tmp_path / "solution.csv").exists()
    head = _read(tmp_path / "solution.csv").decode().splitlines()
    assert head[0] == "node,value"
    assert len(head) == 1 + 48


def test_fiber_requires_input(tmp_path):
    assert main(["fiber", "--out", str(tmp_path)] + FAST) == 2


def test_fiber_reads_solution_csv(tmp_path):
    assert main(["solve-positive", "--out", str(tmp_path)] + FAST) == 0
    csv = tmp_path / "solution.csv"
    code = main(["fiber", "--out", str(tmp_path), "--set", f"fiber.input={csv}"] + FAST)
    assert code == 0
    report = _read(tmp_path / "fiber.report.txt").decode()
    assert "fiber.t0\t" in report
    assert "minus.tag\t" in report and "plus.tag\t" in report


def test_fiber_grid_mismatch_exits_2(tmp_path):
    assert main(["solve-positive", "--out", str(tmp_path)] + FAST) == 0
    csv = tmp_path / "solution.csv"
    code = main(
        ["fiber", "--out", str(tmp_path), "--set", f"fiber.input={csv}", "--set", "grid.n=64"]
    )
    assert code == 2


def test_bubble_scaling_reports_fits(tmp_path):
    code = main(["bubble-scaling", "--out", str(tmp_path), "--set", "grid.n=96"])
    assert code == 0
    report = _read(tmp_path / "bubble-scaling.report.txt").decode()
    assert "scaling.a1.slope\t" in report
    assert "scaling.a4.theory\t" in report
    assert "scaling.mass.slope\t" in report


def test_sign_changing_reports_cross_terms(tmp_path):
    code = main(["solve-sign-changing", "--out", str(tmp_path)] + FAST)
    # unconverged by design: the full gradient floors at the nonlocal
    # pairing between the parts
    assert code == 1
    report = _read(tmp_path / "solve-sign-changing.report.txt").decode()
    assert "solve.converged\tresidual below tolerance\t0" in report
    assert "solve.cross_plus\t" in report
    assert "solve.cross_minus\t" in report
    assert "solve.plus_class.tag\tpositive part manifold tag\tminus" in report
    assert "solve.minus_class.tag\tnegative part manifold tag\tminus" in report
    assert (tmp_path / "solution.csv").exists()
    assert (tmp_path / "w1.csv").exists()


def test_sup_scan_runs(tmp_path):
    code = main(["sup-scan", "--out", str(tmp_path)] + FAST + ["--set", "scan.grid_counts=12"])
    assert code == 0
    report = _read(tmp_path / "sup-scan.report.txt").decode()
    assert "scan.value\t" in report


def test_solution_csv_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["solve-positive", "--out", str(d)] + FAST) == 0
    assert _read(d1 / "solution.csv") == _read(d2 / "solution.csv")
    assert _read(d1 / "solve-positive.report.txt") == _read(d2 / "solve-positive.report.txt")
