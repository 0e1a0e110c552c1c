"""Closed-form thresholds, exponent windows, and the Sobolev estimate."""

import math

import numpy as np
import pytest

from nehari_fpl import (
    P_BRANCH,
    ParameterError,
    Params,
    build_grid,
    estimate_sobolev,
    lebesgue_mass,
    mu_tilde,
    regime_report,
    seminorm_p,
)
from nehari_fpl import constants as constants_module


def test_branch_identity_at_golden_p():
    # at the branch point p solves p/(p-1) - (p-1)/p = 1, so the N-free
    # parts of q2 and q3 coincide and the gap is exactly sp/(N - sp)
    assert P_BRANCH == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)
    for n_dim, s in ((7, 0.3), (11, 0.5), (23, 0.9)):
        p = Params(s=s, p=P_BRANCH, q=0.5 * (P_BRANCH - 1.0), mu=0.05, N=n_dim)
        rep = regime_report(p, 1.0, 1.0)
        gap = s * P_BRANCH / (n_dim - s * P_BRANCH)
        assert rep.q2 - rep.q3 == pytest.approx(gap, rel=1e-9)


def test_mu_tilde_monotone_in_sobolev_constant():
    p = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
    values = [mu_tilde(p, 2.0, s_const) for s_const in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_mu_tilde_monotone_in_domain_measure():
    p = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
    values = [mu_tilde(p, m, 1.0) for m in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_ps_level_decreasing_in_mu():
    p = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
    rep = regime_report(p, 1.0, 1.0)
    levels = [rep.ps_level(mu) for mu in (0.01, 0.05, 0.25)]
    assert all(b < a for a, b in zip(levels, levels[1:]))
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
    assert est.value == pytest.approx(4.52145331, rel=1e-6)
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


def test_sobolev_estimate_stops_at_rounding_floor(params):
    # at n = 128 the quotient reaches its rounding floor well inside the
    # 600-iteration cap, and the descent stops there
    grid = build_grid(-1.0, 1.0, 128, params)
    est = estimate_sobolev(grid, params, iters=600, seed=0)
    assert est.converged
    assert est.iterations < 600
    assert est.value == pytest.approx(4.3737756011015, rel=1e-13)


def test_sobolev_estimate_returns_minimum_visited(params, grid64, monkeypatch):
    # every quotient the descent evaluates is seminorm_p(v) / (int |v|^p*)^(p/p*);
    # the estimate is the least of them, not the last
    seen = []

    def spy(u, prm):
        value = seminorm_p(u, prm)
        mass = lebesgue_mass(u, prm.pstar)
        seen.append(value / mass ** (prm.p / prm.pstar))
        return value

    monkeypatch.setattr(constants_module, "seminorm_p", spy)
    est = estimate_sobolev(grid64, params, iters=600, seed=0)
    assert len(seen) > est.iterations
    assert est.value == min(seen)


def test_sobolev_estimate_rejects_foreign_grid(params):
    # a grid whose kernel was built for another p*s raises instead of
    # rebuilding the kernel
    other = Params(s=0.3, p=params.p, q=params.q, mu=params.mu, N=params.N)
    grid = build_grid(-1.0, 1.0, 32, other)
    with pytest.raises(ParameterError, match="p\\*s"):
        estimate_sobolev(grid, params, iters=10, seed=0)


def test_regime_report_rejects_bad_inputs():
    p = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
    with pytest.raises(ParameterError):
        regime_report(p, -1.0, 1.0)
    with pytest.raises(ParameterError):
        regime_report(p, 1.0, 0.0)
