"""The verify battery at the verify defaults, one test id per check.

run_battery() runs once, when this module is collected, at its own
defaults, which are the verify subcommand's at the config defaults.  Each
check then passes or fails under its own id, so a property the battery
checks needs no unit test of its own.  The tests after test_check feed a
check an input that must fail it, and the last bounds one group's memory.
"""

import tracemalloc

import numpy as np
import pytest

from nehari_fpl import solve_positive, verification
from nehari_fpl.verification import run_battery

# the concentration-ladder checks measure slopes short of the asymptotic
# rates at reachable scales, so verify reports them failed by design
KNOWN_FAILURES = {"bubble.quotient-trend", "bubble.fit-mass"} | {f"bubble.fit-a{i}" for i in range(1, 5)}

RESULTS = {res.name: res for res in run_battery()}


@pytest.mark.parametrize("name", list(RESULTS))
def test_check(name):
    res = RESULTS[name]
    shown = f"measured {res.value}, target {res.target}; {res.detail}"
    if name in KNOWN_FAILURES:
        assert not res.passed, shown
    else:
        assert res.passed, shown


def test_positive_nonneg_measures_the_solution(monkeypatch):
    # a one-sign result whose u has one negative node; minus_part_norm stays
    # the solver's 0.0, so only a check that measures u itself can fail
    def with_negative_node(*args, **kwargs):
        res = solve_positive(*args, **kwargs)
        values = res.u.values.copy()
        values[len(values) // 2] = -0.1 * float(np.max(values))
        return res._replace(u=res.u.with_values(values))

    monkeypatch.setattr(verification, "solve_positive", with_negative_node)
    res = {r.name: r for r in verification.check_solver()}["solver.positive-nonneg"]
    assert not res.passed, f"measured {res.value}"


def test_a_crashing_check_fails_and_reads_raised():
    res = verification._run("demo.crash", "no exception", lambda: 1 / 0)
    assert (res.passed, res.value, res.detail) == (False, "raised", "ZeroDivisionError('division by zero')")


def test_unknown_check_group_is_refused():
    with pytest.raises(ValueError, match=r"unknown check groups \['nope'\]"):
        run_battery(("grid", "nope"))


def test_fibering_group_builds_no_full_length_scan():
    # roots-vs-scan walks its 200001-point scan in blocks: the group's
    # traced peak is about 0.3 MiB, against 6.1 MiB with full-length arrays
    # (RESULTS above ran the battery once, so numpy's lazily imported
    # submodules do not enter the peak)
    tracemalloc.start()
    try:
        run_battery(("fibering",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
