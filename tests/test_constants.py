"""Closed-form thresholds, exponent windows, and the Sobolev estimate."""

import math
from dataclasses import replace

import pytest

from nehari_fpl import (
    P_BRANCH,
    ParameterError,
    Params,
    build_grid,
    compactness_gap,
    estimate_sobolev,
    lebesgue_mass,
    regime_report,
    seminorm_p,
    sobolev_exact,
    solve_positive,
)


def test_branch_identity_at_golden_p():
    # p/(p-1) - (p-1)/p = 1 at the branch point; the q2 - q3 gap there is
    # the constants.branch-identity check
    assert P_BRANCH == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)


def test_ps_level_at_mu_reads_ps_level():
    # the level falling in mu is the constants.ps-level-decreasing check
    p = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
    rep = regime_report(p, 1.0, 1.0)
    assert rep.ps_level_at_mu == pytest.approx(rep.ps_level(p.mu), rel=1e-15)


def test_regime_branches():
    small = regime_report(Params(s=0.5, p=2.0, q=0.4, mu=0.05, N=4), 1.0, 1.0)
    assert small.regime == "small-p"
    assert small.n0 == small.n0_small_p
    large = regime_report(Params(s=0.5, p=4.0, q=2.0, mu=0.05, N=16), 1.0, 1.0)
    assert large.regime == "large-p"
    assert large.n0 == large.n0_large_p
    # both branch values are always reported
    assert small.n0_large_p is not None
    assert large.n0_small_p is not None


def test_hypothesis_flag():
    # at p = 2 the small-p branch is active, so the window floor is
    # q0 = max(q1, q3) = q3 = 5/6 here, not q1
    ok = regime_report(Params(s=0.5, p=2.0, q=0.9, mu=0.05, N=4), 1.0, 1.0)
    assert ok.q0 == pytest.approx(5.0 / 6.0, rel=1e-12)
    assert ok.hypothesis_ok
    bad = regime_report(Params(s=0.5, p=2.0, q=0.6, mu=0.05, N=4), 1.0, 1.0)
    assert not bad.hypothesis_ok


def test_sobolev_estimate_converges_and_pins(params, grid64):
    est = estimate_sobolev(grid64, params, iters=600, seed=0)
    assert est.converged
    assert est.value == pytest.approx(4.51850851, rel=1e-6)
    # below what the earlier quotient descent of its own reached here
    assert est.value <= 4.52145331
    # same seed, same descent path
    again = estimate_sobolev(grid64, params, iters=600, seed=0)
    assert again.value == est.value


def test_sobolev_estimate_mesh_stability(params):
    # refining from 128 to 257 nodes (spacing halved) moves the estimate
    # by under five percent
    g1 = build_grid(-1.0, 1.0, 128, params)
    g2 = build_grid(-1.0, 1.0, 257, params)
    e1 = estimate_sobolev(g1, params, iters=600, seed=0)
    e2 = estimate_sobolev(g2, params, iters=600, seed=0)
    assert e1.converged and e2.converged
    assert abs(e2.value - e1.value) / e1.value < 0.05


def test_sobolev_estimate_pins_at_n128(params):
    # the mu = 0 solve converges in a few H^s steps, well inside the cap
    grid = build_grid(-1.0, 1.0, 128, params)
    est = estimate_sobolev(grid, params, iters=600, seed=0)
    assert est.converged
    assert est.iterations <= 25
    assert est.value == pytest.approx(4.3204657620638, rel=1e-13)
    assert est.value <= 4.3737756011015


def test_sobolev_estimate_is_mu_zero_level(params, grid64):
    # the estimate is R(u) of the mu = 0 one-sign solution u, and the
    # compactness gap (s/N) S^(N/(sp)) it gives is that solution's level
    est = estimate_sobolev(grid64, params, iters=600, seed=0)
    res = solve_positive(grid64, replace(params, mu=0.0), seed=0, max_iters=600)
    pstar = params.pstar
    quotient = seminorm_p(res.u, params) / lebesgue_mass(res.u, pstar) ** (params.p / pstar)
    assert quotient == pytest.approx(est.value, rel=1e-12)
    assert compactness_gap(params, est.value) == pytest.approx(res.energy, rel=1e-12)


@pytest.mark.parametrize(
    "prm, spread",
    [(None, 2e-3), (Params(s=0.3, p=3.0, q=0.5, mu=0.05, N=1), 1e-2)],
    ids=["p2", "p3"],
)
def test_sobolev_estimate_seed_spread(params, prm, spread):
    # the starts of seeds 0-5 end on lattice-pinned minima this close together
    prm = prm or params
    grid = build_grid(-1.0, 1.0, 128, prm)
    values = [estimate_sobolev(grid, prm, iters=600, seed=seed).value for seed in range(6)]
    assert (max(values) - min(values)) / min(values) <= spread


def test_sobolev_estimate_rejects_foreign_grid(params):
    # a grid whose kernel was built for another p*s raises instead of
    # rebuilding the kernel
    other = Params(s=0.3, p=params.p, q=params.q, mu=params.mu, N=params.N)
    grid = build_grid(-1.0, 1.0, 32, other)
    with pytest.raises(ParameterError, match="p\\*s"):
        estimate_sobolev(grid, params, iters=10, seed=0)


def test_sobolev_estimate_refuses_an_empty_budget(params):
    with pytest.raises(ParameterError, match="iters must be >= 1"):
        estimate_sobolev(build_grid(-1.0, 1.0, 8, params), params, iters=0)


@pytest.mark.parametrize("s, value", [(0.4, 3.466370116051), (0.1, 21.471825108959)])
def test_sobolev_exact_pins(s, value):
    # 2 S_CT / C(N, s) at N = 1; the lattice estimate at s = 0.4 lies above
    # it and at s = 0.1 below it
    assert sobolev_exact(Params(s=s, p=2.0, q=0.5, mu=0.05, N=1)) == pytest.approx(value, rel=1e-12)
    with pytest.raises(ParameterError, match="p = 2"):
        sobolev_exact(Params(s=0.3, p=3.0, q=0.5, mu=0.05, N=1))


def test_regime_report_rejects_bad_inputs():
    p = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
    with pytest.raises(ParameterError):
        regime_report(p, -1.0, 1.0)
    with pytest.raises(ParameterError):
        regime_report(p, 1.0, 0.0)
