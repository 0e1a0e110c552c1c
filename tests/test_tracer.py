"""The perfbench tracer still finds every function it spans."""

import importlib.util
import sys
from pathlib import Path

import nehari_fpl
from nehari_fpl import build_grid

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # loaded from its file without writing bytecode next to it
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
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
    tracer = _load_tracer().Tracer()
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
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        est = nehari_fpl.estimate_sobolev(build_grid(-1.0, 1.0, 48, params), params, 600, 0)
    finally:
        tracer.uninstall()
    assert tracer.counts["constants.sobolev.iterations"] == est.iterations
