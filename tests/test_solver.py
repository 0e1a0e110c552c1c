"""Manifold projection, the two solves, crossing search, and the scan."""

import numpy as np
import pytest

from nehari_fpl import (
    BubbleSpec,
    GridFunction,
    NehariTag,
    ParameterError,
    Params,
    build_grid,
    classify,
    crossing_search,
    energy,
    estimate_sobolev,
    form_a,
    make_u_eps,
    project_minus,
    seminorm_p,
    solve_positive,
    solve_sign_changing,
    split_parts,
    sup_over_fiber,
    sup_scan_ab,
)


def _random_fn(grid, rng):
    return GridFunction(grid, rng.standard_normal(grid.n))


def test_projection_lands_on_unstable_stratum(params, grid48, rng):
    for _ in range(10):
        u = project_minus(_random_fn(grid48, rng), params)
        cls = classify(u, params)
        assert cls.tag is NehariTag.MINUS


def test_projection_idempotent(params, grid48, rng):
    u = project_minus(_random_fn(grid48, rng), params)
    again = project_minus(u, params)
    np.testing.assert_allclose(again.values, u.values, rtol=1e-9)


def test_projection_commutes_with_sign_flip(params, grid48, rng):
    u0 = _random_fn(grid48, rng)
    a = project_minus(u0, params)
    b = project_minus(u0.with_values(-u0.values), params)
    np.testing.assert_allclose(b.values, -a.values, rtol=1e-12)


def test_positive_solve_facts(params, grid48):
    res = solve_positive(grid48, params, seed=0)
    assert res.converged
    assert res.iterations <= 100
    assert res.minus_part_norm == 0.0
    assert np.all(res.u.values >= 0.0)
    assert res.nehari.tag is NehariTag.MINUS
    assert res.energy == pytest.approx(2.6858648751, rel=1e-6)
    scale = 1.0 + abs(res.energy)
    assert res.residual_norm <= 1e-6 * scale


def test_sup_over_fiber_identity(params, grid48):
    res = solve_positive(grid48, params, seed=0)
    sup = sup_over_fiber(res.u, params)
    assert sup.via_roots
    assert sup.t_at == pytest.approx(1.0, abs=1e-6)
    assert sup.value == pytest.approx(res.energy, rel=1e-8)


def test_sup_over_fiber_scale_invariant(params, grid48, rng):
    u = _random_fn(grid48, rng)
    base = sup_over_fiber(u, params)
    scaled = sup_over_fiber(u.with_values(2.5 * u.values), params)
    assert scaled.value == pytest.approx(base.value, rel=1e-10)
    assert scaled.t_at == pytest.approx(base.t_at / 2.5, rel=1e-9)


def test_crossing_search_matches_scales(params, grid48):
    pos = solve_positive(grid48, params, seed=0)
    spec = BubbleSpec(eps=0.1, delta=0.25, center=0.0, profile_kind="exact-p2")
    ue = make_u_eps(grid48, params, spec)
    cr = crossing_search(pos.u, ue, params)
    assert cr.bracket[0] < cr.r < cr.bracket[1]
    assert abs(cr.s_plus - cr.s_minus) <= 1e-4 * cr.s_plus
    # ansatz = a * w1 - b * u_eps with the matched scale a and b = a * r
    assert cr.a == pytest.approx(0.5 * (cr.s_plus + cr.s_minus), rel=1e-12)
    assert cr.b == pytest.approx(cr.a * cr.r, rel=1e-12)
    # both rescaled parts land on the unstable stratum
    assert cr.class_plus_part.tag is NehariTag.MINUS
    assert cr.class_minus_part.tag is NehariTag.MINUS
    parts = split_parts(cr.ansatz)
    assert parts[0].values.any() and parts[1].values.any()


def test_sup_scan_contains_base_point_and_refines(params, grid48):
    pos = solve_positive(grid48, params, seed=0)
    spec = BubbleSpec(eps=0.1, delta=0.25, center=0.0, profile_kind="exact-p2")
    ue = make_u_eps(grid48, params, spec)
    scan = sup_scan_ab(pos.u, ue, params)
    # (a, b) = (1, 0) is always on the coarse grid
    assert scan.value >= pos.energy
    assert scan.value >= scan.coarse_value
    doubled = sup_scan_ab(pos.u, ue, params, grid_counts=48)
    assert abs(doubled.value - scan.value) <= 0.01 * abs(scan.value)


def test_sup_scan_guards(params, grid48, rng):
    u = _random_fn(grid48, rng)
    v = GridFunction(grid48, np.abs(rng.standard_normal(grid48.n)))
    with pytest.raises(ParameterError):
        sup_scan_ab(u, v, params, grid_counts=4)
    with pytest.raises(ParameterError):
        sup_scan_ab(u, v, params, a_max=-1.0)


def test_sign_changing_search_facts(params, grid48):
    # the search drives both rescaled parts onto the unstable stratum; the
    # full gradient keeps a strictly positive floor, the nonlocal pairing
    # between the parts, reported through cross_plus and cross_minus
    res = solve_sign_changing(grid48, params, seed=0, max_iters=800)
    assert not res.converged
    assert res.plus_part_norm > 0.0 and res.minus_part_norm > 0.0
    assert res.plus_class.tag is NehariTag.MINUS
    assert res.minus_class.tag is NehariTag.MINUS
    assert res.cross_plus > 0.0 and res.cross_minus > 0.0
    assert res.residual_norm > 0.0
    pos = solve_positive(grid48, params, seed=0)
    assert res.energy > pos.energy
    assert res.split_ok
    assert res.energy >= res.c2_split_lower
    assert res.crossing is not None


def test_sign_changing_cross_terms_equal_at_p2(params, grid48):
    # for p = 2 the pairing of the state against either part reduces to the
    # same off-diagonal kernel sum
    res = solve_sign_changing(grid48, params, seed=0, max_iters=800)
    assert res.cross_plus == pytest.approx(res.cross_minus, rel=1e-9)
    plus, minus = split_parts(res.u)
    neg = minus.with_values(-minus.values)
    direct = form_a(res.u, plus, params) - seminorm_p(plus, params)
    assert res.cross_plus == pytest.approx(direct, rel=1e-9)
    direct_m = form_a(res.u, neg, params) - seminorm_p(minus, params)
    assert res.cross_minus == pytest.approx(direct_m, rel=1e-9)


def test_sign_changing_parts_superadditivity_gap(params, grid48):
    # the cross terms are exactly the seminorm superadditivity excess
    res = solve_sign_changing(grid48, params, seed=0, max_iters=800)
    plus, minus = split_parts(res.u)
    excess = (
        seminorm_p(res.u, params)
        - seminorm_p(plus, params)
        - seminorm_p(minus, params)
    )
    assert res.cross_plus + res.cross_minus == pytest.approx(excess, rel=1e-9)


def test_sign_changing_seed_determinism(params, grid48):
    a = solve_sign_changing(grid48, params, seed=0, max_iters=400)
    b = solve_sign_changing(grid48, params, seed=0, max_iters=400)
    np.testing.assert_array_equal(a.u.values, b.u.values)
    assert a.energy == b.energy
    assert a.iterations == b.iterations


def test_sign_changing_gap_bound_with_estimate(params, grid48):
    # the compactness ceiling is the positive level plus (s/N) S^(N/(sp))
    pos = solve_positive(grid48, params, seed=0)
    est = estimate_sobolev(grid48, params, iters=600, seed=0)
    res = solve_sign_changing(
        grid48, params, seed=0, max_iters=400, w1=pos.u, s_est=est.value
    )
    expect = pos.energy + (params.s / params.N) * est.value ** (params.N / params.ps)
    assert res.ps_gap_bound == pytest.approx(expect, rel=1e-9)
    assert res.ps_gap_ok == (res.energy < res.ps_gap_bound)


def test_solve_positive_respects_restart_budget(params):
    g = build_grid(-1.0, 1.0, 32, params)
    res = solve_positive(g, params, seed=1, max_iters=2000)
    assert res.converged
    assert res.restarts <= 5


def test_stop_reason_says_why_descent_ended(params, grid48):
    assert solve_positive(grid48, params, seed=0).stop_reason == "converged"
    spent = solve_positive(grid48, params, seed=0, max_iters=3)
    assert spent.stop_reason == "budget"
    # the budget ran out on the first start, so no fresh start was made
    assert spent.restarts == 0
    # the two-part descent ends on a line search that finds no acceptable
    # step, with the cross pairing still in the gradient
    res = solve_sign_changing(grid48, params, seed=0)
    assert not res.converged
    assert res.stop_reason == "stalled"
