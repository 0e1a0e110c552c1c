"""Command line interface: exit codes, report format, determinism."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from nehari_fpl import DegenerateInputError, NehariError, NoRootsError, ParameterError, SolverError, cli
from nehari_fpl.cli import main
from nehari_fpl.config import load_config, params_from

FAST = ["--set", "grid.n=48", "--set", "solver.max_iters=400"]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _values(path):
    """name -> value text of a report's rows"""
    rows = [ln.split("\t") for ln in _read(path).decode().splitlines() if not ln.startswith("#")]
    return {name: value for name, _, value in rows}


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


@pytest.mark.parametrize("p, s", [(2.0, 0.4), (3.0, 0.3)])
def test_constants_reports_exact_sobolev_at_p2_only(tmp_path, p, s):
    argv = ["constants", "--out", str(tmp_path), "--set", "grid.n=48"]
    code = main(argv + ["--set", f"params.p={p}", "--set", f"params.s={s}"])
    assert code == 0
    tags = [ln.split("\t")[0] for ln in _read(tmp_path / "constants.report.txt").decode().splitlines()]
    start = tags.index("sobolev.estimate")
    if p == 2.0:
        assert tags[start + 1] == "sobolev.exact"
    else:
        assert "sobolev.exact" not in tags


def test_energy_check_passes(tmp_path):
    code = main(["energy-check", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "energy-check.report.txt").exists()


def test_verify_reports_known_failures(tmp_path, capsys):
    # this test pins the whole battery: every check but the six below
    # passes.  The concentration-ladder checks measure slopes short of the
    # asymptotic rates, so the battery exits nonzero by design
    code = main(["verify", "--out", str(tmp_path)])
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
    assert "checks.total\tchecks run\t53\n" in report


@pytest.mark.parametrize(
    "command, setting",
    [
        ("solve-positive", "solver.max_restarts=-1"),
        ("solve-positive", "solver.max_iters=0"),
        ("solve-positive", "solver.max_iters=-3"),
        ("solve-positive", "solver.tol_res=-1"),
        ("solve-positive", "solver.tol_manifold=-1"),
        ("solve-sign-changing", "solver.tol_cross=0"),
        ("solve-positive", "solver.tol_res=inf"),
        ("solve-positive", "solver.tol_manifold=inf"),
        ("solve-sign-changing", "solver.tol_cross=inf"),
    ],
)
def test_out_of_range_solver_setting_exits_2(tmp_path, capsys, command, setting):
    # a budget or tolerance no solve can honour is a parameter error, not a
    # failed or unconverged solve
    code = main([command, "--out", str(tmp_path), *FAST, "--set", setting])
    assert code == 2
    assert setting.split("=")[0].split(".")[1] in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [("solve-positive", "solver.seed"), ("constants", "solver.seed")],
)
def test_negative_seed_exits_2(tmp_path, capsys, command, key):
    # numpy refuses a negative seed; the config rejects it first, by name
    assert main([command, "--out", str(tmp_path), *FAST, "--set", f"{key}=-1"]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("nope.key=1", "unknown key 'nope.key'"),
        ("scan.a_max=1", "unknown key 'scan.a_max'"),
        ("scan.b_max=1", "unknown key 'scan.b_max'"),
        ("scan.grid_counts=1", "unknown key 'scan.grid_counts'"),
        ("bubble.eps_ladder=0.1,0.05,0.025,0.0125", "unknown key 'bubble.eps_ladder'"),
        ("grid.n=4.5", "grid.n expects an integer, got '4.5'"),
        ("params.mu=abc", "params.mu expects a number, got 'abc'"),
    ],
    ids=[
        "nope.key", "scan.a_max", "scan.b_max", "scan.grid_counts", "bubble.eps_ladder",
        "not-an-integer", "not-a-number",
    ],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, setting, message):
    # a config that still sets one of the removed scan.* keys or the removed
    # bubble.eps_ladder fails loudly, as does a value of the wrong type
    assert main(["constants", "--out", str(tmp_path), "--set", setting]) == 2
    assert message in capsys.readouterr().err


def test_bubble_scaling_halves_the_configured_bubble(tmp_path):
    # the ladder starts at bubble.eps_frac (half-width 1) and halves it three times
    assert main(["bubble-scaling", "--out", str(tmp_path), "--set", "bubble.eps_frac=0.05"]) == 0
    report = _read(tmp_path / "bubble-scaling.report.txt").decode()
    assert "scaling.eps_ladder\tconcentration scales\t" + ",".join(
        "%.17g" % (0.05 * 0.5 ** k) for k in range(4)
    ) + "\n" in report


def test_bubble_scaling_refuses_a_first_rung_above_half_the_collar(tmp_path, capsys):
    # delta/2 = 0.125 of the half-width at the default collar
    assert main(["bubble-scaling", "--out", str(tmp_path), "--set", "bubble.eps_frac=0.2"]) == 2
    assert "delta/2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_malformed_override_exits_2(tmp_path, capsys):
    assert main(["constants", "--out", str(tmp_path), "--set", "grid.n"]) == 2
    assert capsys.readouterr().err == "error: --set: expected 'key = value', got 'grid.n'\n"


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nparams.mu = 0.1\ngrid.n = 48\n")
    code = main(["constants", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0


@pytest.mark.parametrize(
    "command, flag, message",
    [("constants", "--config={}", "cannot read config"), ("fiber", "--set=fiber.input={}", "cannot read")],
    ids=["config", "fiber-input"],
)
def test_unreadable_file_exits_2(tmp_path, capsys, command, flag, message):
    missing = tmp_path / "missing.txt"
    assert main([command, "--out", str(tmp_path), flag.format(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message} {missing}: ")


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
    # restarts counts the bumps passed over, not the starts used: the first bump projects
    assert "solve.restarts\tfresh bumps passed over, no fiber maximum\t0\n" in report
    assert (tmp_path / "solution.csv").exists()
    head = _read(tmp_path / "solution.csv").decode().splitlines()
    assert head[0] == "node,value"
    assert len(head) == 1 + 48


def test_solve_positive_reports_cg_steps(tmp_path):
    assert main(["solve-positive", "--out", str(tmp_path)] + FAST) == 0
    rows = [ln.split("\t") for ln in _read(tmp_path / "solve-positive.report.txt").decode().splitlines()]
    tags = [row[0] for row in rows]
    at = tags.index("solve.cg_steps")
    assert tags[at - 1] == "solve.armijo_trials"
    # one CG step at least per descent iteration
    assert int(rows[at][2]) >= int(rows[tags.index("solve.iterations")][2]) >= 1
    # the pair actions hold the CG matvecs
    assert tags[at + 1] == "solve.pair_actions"
    assert int(rows[at + 1][2]) > int(rows[at][2])


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


def test_fiber_reads_the_manifold_tolerance(tmp_path):
    # |phi'(1)| and |phi''(1)| are at most (p* - 1) = 9 times the fiber scale,
    # so at 1e3 both projections read zero, whatever the rounding; at the
    # default tolerance they read plus and minus
    assert main(["solve-positive", "--out", str(tmp_path)] + FAST) == 0
    csv = tmp_path / "solution.csv"
    argv = ["fiber", "--out", str(tmp_path), "--set", f"fiber.input={csv}", "--set", "solver.tol_manifold=1e3"]
    assert main(argv + FAST) == 0
    rows = [ln.split("\t") for ln in _read(tmp_path / "fiber.report.txt").decode().splitlines()]
    tags = {row[0]: row[2] for row in rows if row[0].endswith(".tag")}
    assert tags == {"fiber.minus.tag": "zero", "fiber.plus.tag": "zero"}


@pytest.mark.parametrize("tol", ["-1", "0", "inf", "nan"])
def test_fiber_refuses_a_manifold_tolerance_the_solves_refuse(tmp_path, capsys, tol):
    # one rule for solver.tol_manifold, whichever command reads it
    assert main(["solve-positive", "--out", str(tmp_path)] + FAST) == 0
    csv = tmp_path / "solution.csv"
    argv = ["fiber", "--out", str(tmp_path), "--set", f"fiber.input={csv}", "--set", f"solver.tol_manifold={tol}"]
    assert main(argv + FAST) == 2
    assert "tol_manifold" in capsys.readouterr().err
    assert not (tmp_path / "fiber.report.txt").exists()


def test_fiber_grid_mismatch_exits_2(tmp_path):
    assert main(["solve-positive", "--out", str(tmp_path)] + FAST) == 0
    csv = tmp_path / "solution.csv"
    code = main(
        ["fiber", "--out", str(tmp_path), "--set", f"fiber.input={csv}", "--set", "grid.n=64"]
    )
    assert code == 2


def _fiber_rows(tmp_path, csv):
    code = main(["fiber", "--out", str(tmp_path), "--set", f"fiber.input={csv}"] + FAST)
    assert code == 0
    return [ln for ln in _read(tmp_path / "fiber.report.txt").decode().splitlines() if not ln.startswith("#")]


def test_fiber_reads_csv_without_header(tmp_path):
    assert main(["solve-positive", "--out", str(tmp_path)] + FAST) == 0
    csv = tmp_path / "solution.csv"
    bare = tmp_path / "bare.csv"
    bare.write_text("".join(csv.read_text().splitlines(keepends=True)[1:]))
    assert _fiber_rows(tmp_path, bare) == _fiber_rows(tmp_path, csv)


@pytest.mark.parametrize(
    "edit, rows, message",
    [
        (lambda row: row.split(",")[0] + ",abc", slice(5, 6), "'node,value' rows"),
        (lambda row: row + ",1.0", slice(5, 6), "'node,value' rows"),
        (lambda row: row.split(",")[0], slice(5, 6), "'node,value' rows"),
        (lambda row: row.split(",")[0], slice(1, None), "'node,value' rows"),
        (lambda row: "0.5," + row.split(",")[1], slice(5, 6), "node column does not match"),
    ],
    ids=["non-numeric", "three-columns", "one-column", "every-row-one-column", "moved-node"],
)
def test_fiber_malformed_csv_exits_2(tmp_path, capsys, edit, rows, message):
    assert main(["solve-positive", "--out", str(tmp_path)] + FAST) == 0
    csv = tmp_path / "solution.csv"
    lines = csv.read_text().splitlines()
    lines[rows] = [edit(row) for row in lines[rows]]
    csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["fiber", "--out", str(tmp_path), "--set", f"fiber.input={csv}"] + FAST) == 2
    assert message in capsys.readouterr().err


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
    # the compactness bound is the one-sign level plus (s/N) S^(N/(sp)),
    # computed once for both commands
    assert main(["sup-scan", "--out", str(tmp_path)] + FAST) == 0
    solve = _values(tmp_path / "solve-sign-changing.report.txt")
    scan = _values(tmp_path / "sup-scan.report.txt")
    assert solve["solve.gap_bound"] == scan["scan.bound"]
    params = params_from(load_config())
    gap = (params.s / params.N) * float(scan["scan.sobolev"]) ** (params.N / params.ps)
    assert float(scan["scan.bound"]) == pytest.approx(float(solve["solve.positive_level"]) + gap, rel=1e-12)
    assert solve["solve.gap_ok"] == ("1" if float(solve["solve.energy"]) < float(solve["solve.gap_bound"]) else "0")


def test_sup_scan_runs(tmp_path):
    code = main(["sup-scan", "--out", str(tmp_path)] + FAST)
    assert code == 0
    report = _read(tmp_path / "sup-scan.report.txt").decode()
    assert "scan.value\t" in report


def test_solution_csv_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["solve-positive", "--out", str(d)] + FAST) == 0
    assert _read(d1 / "solution.csv") == _read(d2 / "solution.csv")
    assert _read(d1 / "solve-positive.report.txt") == _read(d2 / "solve-positive.report.txt")


# the exit code of each subcommand at small sizes: the two-part descent
# stalls by design, and the battery's six ladder checks fail by design
SMALL = ["--set", "grid.n=32"]
EXIT_AT_SMALL = {
    "constants": 0,
    "energy-check": 0,
    "fiber": 0,
    "bubble-scaling": 0,
    "solve-positive": 0,
    "solve-sign-changing": 1,
    "sup-scan": 0,
    "verify": 3,
}


@pytest.mark.parametrize("command", sorted(EXIT_AT_SMALL))
def test_every_subcommand_writes_its_own_report(tmp_path, command):
    # two runs into two directories write the same files, byte for byte
    argv = [command, *SMALL]
    if command == "fiber":
        assert main(["solve-positive", "--out", str(tmp_path / "input"), *SMALL]) == 0
        argv += ["--set", f"fiber.input={tmp_path / 'input' / 'solution.csv'}"]
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(argv + ["--out", str(out)]) == EXIT_AT_SMALL[command]
    first = _read(runs[0] / f"{command}.report.txt").decode().splitlines()[0]
    assert first.split(" --set ")[0] == f"# command {command}"
    names = sorted(path.name for path in runs[0].iterdir())
    assert names == sorted(path.name for path in runs[1].iterdir())
    for name in names:
        assert _read(runs[0] / name) == _read(runs[1] / name), name


@pytest.mark.parametrize(
    "settings, message",
    [
        (["bubble.eps_frac=-1"], "eps must be positive"),
        (["bubble.delta_frac=1.0"], "must be smaller than the half-width"),
    ],
    ids=["eps", "delta"],
)
@pytest.mark.parametrize("command", ["solve-sign-changing", "sup-scan"])
def test_bad_bubble_setting_exits_2_before_any_solve(tmp_path, capsys, monkeypatch, command, settings, message):
    calls = []
    monkeypatch.setattr(cli, "solve_positive", lambda *args, **kwargs: calls.append("solve_positive"))
    monkeypatch.setattr(cli, "estimate_sobolev", lambda *args, **kwargs: calls.append("estimate_sobolev"))
    overrides = [arg for setting in settings for arg in ("--set", setting)]
    assert main([command, "--out", str(tmp_path), *SMALL, *overrides]) == 2
    assert calls == []
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve-sign-changing", "sup-scan"])
def test_unconverged_first_stage_exits_1_without_report(tmp_path, capsys, command):
    code = main([command, "--out", str(tmp_path), *SMALL, "--set", "solver.max_iters=1"])
    assert code == 1
    assert capsys.readouterr().err == "numeric failure: positive-solution stage did not converge\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (ParameterError, 2, "error"),
        (DegenerateInputError, 2, "error"),
        (NoRootsError, 1, "numeric failure"),
        (SolverError, 1, "numeric failure"),
        (NehariError, 1, "numeric failure"),
    ],
)
def test_each_error_type_exits_with_its_code(tmp_path, capsys, monkeypatch, error, code, prefix):
    def raising(cfg, out_dir):
        raise error("forced")

    monkeypatch.setitem(cli._COMMANDS, "constants", raising)
    assert main(["constants", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"{prefix}: forced\n"


def test_infinite_fiber_maximum_energy_exits_1_without_warning_or_report(tmp_path, capsys):
    # at s = 3e-3 every start's fiber maximum lies near t+ ~ 1e234, where
    # phi(t+) overflows to inf; no start is taken, so no stop rule compares
    # a residual against an infinite level and nothing overflows later
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve-positive", "--out", str(tmp_path), "--set", "params.s=3e-3"])
    assert code == 1
    assert capsys.readouterr().err == (
        "numeric failure: no start projects onto the fiber maximum in 6 tries;"
        " the last: the fiber maximum's energy inf is not finite\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_tiny_s_exits_1_naming_the_overflow(tmp_path, capsys):
    # p* - p = 0.004, so every start's ray peak t0 = ratio^250 overflows a float
    code = main(["solve-positive", "--out", str(tmp_path), "--set", "params.s=1e-3", "--set", "grid.n=32"])
    assert code == 1
    assert capsys.readouterr().err == (
        "numeric failure: no start projects onto the fiber maximum in 6 tries;"
        " the last: the ray peak 1986.81^249.5 overflows a float\n"
    )


def test_verify_peak_rss_stays_near_a_solve(tmp_path):
    # the benchmark's cli-defaults peak_rss_mb is the largest maxrss among
    # the subcommands; verify led solve-positive by 6.5 MiB while its
    # ray-root scan built full-length arrays, and by about 1.1 MiB more
    # while the ladder slope called LAPACK, whose first least-squares solve
    # maps its workspace.  Each command runs under a fresh wrapper
    # interpreter, so RUSAGE_CHILDREN sees that command alone and no other
    # child of this process (ru_maxrss is in KiB on Linux).  Where the
    # loader places the libraries moves one run's maxrss by up to ~120 KiB
    # either way, so each command's median of three runs is compared
    wrapper = (
        "import resource, subprocess, sys; "
        "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode; "
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    codes, kib = {"verify": set(), "solve-positive": set()}, {"verify": [], "solve-positive": []}
    for _ in range(3):
        for step in kib:
            argv = [sys.executable, "-c", wrapper, sys.executable, "-m", "nehari_fpl.cli", step, "--out", "."]
            out = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
            code, maxrss = out.stdout.split()
            codes[step].add(int(code))
            kib[step].append(int(maxrss))
    assert codes == {"verify": {3}, "solve-positive": {0}}
    assert sorted(kib["verify"])[1] - sorted(kib["solve-positive"])[1] < 512
