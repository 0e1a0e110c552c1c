"""The perfbench tracer still finds every function it spans, and the workloads still run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import nehari_fpl
from nehari_fpl import build_grid
from nehari_fpl.cli import main
from nehari_fpl.verification import run_battery

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    # loaded from its file without writing bytecode next to it
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_spans_every_traced_function(params):
    # a rename or signature change under src/ that drops a span shows up in
    # missing; each ray projection the descent makes counts as a trial
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        res = nehari_fpl.solve_positive(build_grid(-1.0, 1.0, 48, params), params, seed=0)
    finally:
        tracer.uninstall()
    assert tracer.counts["solver.armijo_trials"] == res.armijo_trials
    assert tracer.counts["solver.iterations"] == res.iterations


def test_tracer_counts_sobolev_iterations(params):
    # the estimate is a mu = 0 one-sign solve; the observer still reads its
    # iteration count off the returned estimate
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        est = nehari_fpl.estimate_sobolev(build_grid(-1.0, 1.0, 48, params), params, 600, 0)
    finally:
        tracer.uninstall()
    assert tracer.counts["constants.sobolev.iterations"] == est.iterations


def test_tracer_counts_one_bubble_per_rung(tmp_path):
    # four rungs, in bubble-scaling and in the battery's bubble group: each
    # bubble is built once and serves the interaction integrals and the
    # concave-mass fit, and its A1-A4 come from one call
    for measure in (
        lambda: main(["bubble-scaling", "--out", str(tmp_path), "--set", "grid.n=48"]) == 0,
        lambda: len(run_battery(("bubble",))) > 0,
    ):
        tracer = _load("tracer").Tracer()
        tracer.install()
        try:
            assert tracer.missing == []
            assert measure()
        finally:
            tracer.uninstall()
        assert tracer.counts["bubble.make_u_eps.calls"] == 4
        assert tracer.counts["bubble.interaction_integrals.calls"] == 4


def test_tracer_two_part_solve_makes_no_seminorm_call(params):
    # every projection and the final numbers read their seminorms off
    # gradient pieces, never off seminorm_p
    grid = build_grid(-1.0, 1.0, 48, params)
    w1 = nehari_fpl.solve_positive(grid, params, seed=0).u
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        res = nehari_fpl.solve_sign_changing(grid, params, w1=w1, bubble=nehari_fpl.default_bubble(grid))
    finally:
        tracer.uninstall()
    assert tracer.counts["solver.solve_sign_changing.calls"] == 1
    assert tracer.counts["energy.seminorm_p.calls"] == 0
    # the shared finish reports the counts the tracer makes on its own
    assert tracer.counts["solver.armijo_trials"] == res.armijo_trials
    assert tracer.counts["solver.iterations"] == res.iterations


@pytest.mark.parametrize("name", ["positive-p2-n384", "positive-p3-n256", "sign-changing-p2-n128"])
def test_in_process_workload_runs_one_clean_op(name):
    # the workloads call the solvers with keyword sets of their own (seed,
    # max_restarts and s_est on the two-part solve); a signature change
    # that breaks one shows up here, not only when the benchmark runs
    work = _load("workloads").make(name, PERFBENCH.parent, PERFBENCH.parent)
    work.setup(nehari_fpl)
    _, problems = work.op(0, lambda fn, *args, **kwargs: fn(*args, **kwargs))
    assert problems == []
