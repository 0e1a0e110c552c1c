"""Manifold projection, the two solves, crossing search, and the scan."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nehari_fpl import (
    BubbleSpec,
    DegenerateInputError,
    FiberMap,
    GridFunction,
    NehariTag,
    NoRootsError,
    ParameterError,
    Params,
    SolverError,
    build_grid,
    classify,
    compactness_gap,
    crossing_search,
    default_bubble,
    energy,
    estimate_sobolev,
    form_a,
    gradient,
    lebesgue_mass,
    make_u_eps,
    part_scales,
    project_minus,
    psi_and_t0,
    seminorm_p,
    solve_positive,
    solve_sign_changing,
    split_parts,
    sup_over_fiber,
    sup_scan_ab,
)
from nehari_fpl import solver as solver_module
from nehari_fpl.energy import GradientPieces, stiffness_action
from nehari_fpl.solver import _project_cone, _project_ray, _riesz_direction
from conftest import dense_stiffness


def _random_fn(grid, rng):
    return GridFunction(grid, rng.standard_normal(grid.n))


def _sign_changing(grid, params, **kwargs):
    # the pipeline: the seed-0 one-sign solution and the default bubble
    # seed the two-part descent
    w1 = solve_positive(grid, params, seed=0).u
    return solve_sign_changing(grid, params, w1=w1, bubble=default_bubble(grid), **kwargs)


def test_projection_lands_on_unstable_stratum(params, grid48, rng):
    for _ in range(10):
        u = project_minus(_random_fn(grid48, rng), params)
        cls = classify(u, params)
        assert cls.tag is NehariTag.MINUS


def test_projection_far_below_unit_size(params, grid48, rng):
    # at this size t+ ~ 8e30 puts t+^p* past the float range while m_* is
    # still a normal float: phi(t+) factors t^p out of its sum, so the
    # fiber supremum keeps its scale invariance, and the projected function
    # is unaffected
    u = _random_fn(grid48, rng)
    small = u.with_values(1.2e-31 * u.values)
    fm = FiberMap.of(small, params)
    assert fm.mass_star > np.finfo(float).tiny
    with pytest.raises(OverflowError):
        fm.tplus() ** params.pstar
    base, tiny = sup_over_fiber(u, params), sup_over_fiber(small, params)
    assert tiny.value == pytest.approx(base.value, rel=1e-14)
    assert tiny.t_at * 1.2e-31 == pytest.approx(base.t_at, rel=1e-14)
    np.testing.assert_allclose(project_minus(small, params).values, project_minus(u, params).values, rtol=1e-12)


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


def test_cone_projection_clips_then_projects(params, grid48, rng):
    # the one-sign solve's projection: the ray projection of v+ = max(v, 0)
    # for the trial v = u + step
    base = _random_fn(grid48, rng)
    w = project_minus(base.with_values(np.abs(base.values)), params)
    u = GradientPieces.of(w, params)
    step = 3.0 * _random_fn(grid48, rng).values * np.max(w.values)
    v = w.values + step
    assert np.any(v < 0.0) and np.any(v > 0.0)
    got, e_got = _project_cone(u, step, stiffness_action(grid48, step), params)
    want, e_want = _project_ray(GradientPieces.of(w.with_values(np.maximum(v, 0.0)), params), params)
    assert np.all(got.u.values >= 0.0)
    assert got.u.values.tobytes() == want.u.values.tobytes()
    assert e_got == e_want
    # a trial the clip leaves alone carries G u + A step at p = 2 instead of
    # evaluating G; it lands on the same point, to rounding
    small = 0.1 * w.values * _random_fn(grid48, rng).values
    assert np.all(w.values + small >= 0.0)
    got, e_got = _project_cone(u, small, stiffness_action(grid48, small), params)
    want, e_want = _project_ray(GradientPieces.of(w.with_values(w.values + small), params), params)
    np.testing.assert_allclose(got.u.values, want.u.values, rtol=1e-12)
    assert e_got == pytest.approx(e_want, rel=1e-12)


@pytest.mark.parametrize("bad", [1e300, np.inf])
def test_overlong_trial_halves_the_step(params, grid48, monkeypatch, bad):
    # a trial with a non-finite ray coefficient is a rejected trial, as a
    # ray without roots is: the step halves and the solve goes on
    steps = []

    def overlong_first(state, step, a_step, prm):
        steps.append(step)
        if len(steps) == 1:
            step = step.copy()
            step[grid48.n // 2] = bad
            a_step = stiffness_action(grid48, step)
        return _project_cone(state, step, a_step, prm)

    monkeypatch.setattr(solver_module, "_project_cone", overlong_first)
    # |1e300|^(p*-1) overflows, and an inf entry meets its opposite in u . G u
    with pytest.warns(RuntimeWarning, match="overflow" if bad < np.inf else "invalid"):
        res = solve_positive(grid48, params, seed=0)
    assert steps[1].tobytes() == (0.5 * steps[0]).tobytes()
    assert res.converged
    assert res.armijo_trials > res.iterations


def test_one_sign_solve_validates_only_its_starts_and_result(params, grid48, monkeypatch):
    # trials and accepted steps are wrapped without a copy or a scan, and
    # checked through their ray coefficients instead
    validated = []
    check = GridFunction.__post_init__

    def spy(self):
        validated.append(self)
        check(self)

    monkeypatch.setattr(GridFunction, "__post_init__", spy)
    res = solve_positive(grid48, params, seed=0)
    assert len(validated) == res.restarts + 2
    assert validated[-1] is res.u


@pytest.mark.parametrize("n", [64, 256])
def test_positive_descent_is_mesh_independent(params, n):
    # along the H^s Riesz direction the iteration count does not grow with
    # n (the L2 direction took 52 and 86), and the full step is accepted
    res = solve_positive(build_grid(-1.0, 1.0, n, params), params, seed=0)
    assert res.converged
    assert res.iterations <= 25
    assert res.armijo_trials == res.iterations


@pytest.mark.parametrize(
    "prm", [None, Params(s=0.3, p=3.0, q=0.5, mu=0.05, N=1)], ids=["p2", "p3"]
)
def test_riesz_direction_solves_the_stiffness_system(grid48, rng, prm):
    # the p = 2 seminorm operator A the grid stores, against its dense assembly
    grid = grid48 if prm is None else build_grid(-1.0, 1.0, 48, prm)
    dense = dense_stiffness(grid)
    for _ in range(5):
        g = rng.standard_normal(grid.n)
        x, steps, ax = _riesz_direction(grid, g)
        assert np.linalg.norm(dense @ x - g) <= 0.1 * np.linalg.norm(g)
        # A x read off the CG residual, which the descent carries G along
        assert np.max(np.abs(ax - dense @ x)) <= 1e-12 * np.max(np.abs(g))
        assert float(np.dot(g, x)) > 0.0
        assert 1 <= steps <= grid.n


def test_large_grid_solve_holds_no_square_array(params):
    # at n = 8192 a dense A alone would take 512 MiB; the grid and the whole
    # p = 2 solve stay within a few dozen length-n arrays (2.6 MiB measured)
    tracemalloc.start()
    try:
        res = solve_positive(build_grid(-1.0, 1.0, 8192, params), params, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < 6 * 2 ** 20


@pytest.mark.parametrize("n", [384, 1024])
def test_strang_preconditioned_cg_steps_stay_flat(params, n):
    # the Strang circulant keeps about two CG steps per direction at every
    # n; a diagonal (Jacobi) preconditioner needs 7.3 and 9.3 here, so the
    # bound tells the two apart
    res = solve_positive(build_grid(-1.0, 1.0, n, params), params, seed=0)
    assert res.converged
    assert res.cg_steps <= 3 * res.iterations


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_positive_solve_reports_fresh_residual_and_few_pair_actions(params, seed):
    # the descent carries G u along the ray, so at p = 2 a solve makes its CG
    # matvecs plus one pair action per start and one for the final
    # evaluation, from which the reported residual comes
    res = solve_positive(build_grid(-1.0, 1.0, 384, params), params, seed=seed)
    assert res.residual_norm == float(np.max(np.abs(gradient(res.u, params).values)))
    assert res.pair_actions - res.cg_steps <= 2 * (res.restarts + 1)


def test_positive_solve_pair_actions_at_p3():
    # at p != 2, G v is evaluated once per trial, and the accepted trial's
    # pieces serve the next gradient
    prm = Params(s=0.3, p=3.0, q=0.5, mu=0.05, N=1)
    res = solve_positive(build_grid(-1.0, 1.0, 256, prm), prm, seed=0)
    assert res.pair_actions - res.cg_steps <= res.armijo_trials + 2 * (res.restarts + 1)


def test_sup_over_fiber_scale_invariant(params, grid48, rng):
    # the sup value's scale invariance is the solver.fiber-sup-identity check
    u = _random_fn(grid48, rng)
    base = sup_over_fiber(u, params)
    scaled = sup_over_fiber(u.with_values(2.5 * u.values), params)
    assert scaled.t_at == pytest.approx(base.t_at / 2.5, rel=1e-9)


def test_crossing_search_matches_scales(params, grid48):
    # matched scalings and minus parts are the solver.crossing-matched check
    pos = solve_positive(grid48, params, seed=0)
    spec = BubbleSpec(eps=0.1, delta=0.25)
    ue = make_u_eps(grid48, params, spec)
    cr = crossing_search(pos.u, ue, params)
    assert cr.bracket[0] < cr.r < cr.bracket[1]
    # ansatz = a * w1 - b * u_eps with the matched scale a and b = a * r
    assert cr.a == pytest.approx(0.5 * (cr.s_plus + cr.s_minus), rel=1e-12)
    assert cr.b == pytest.approx(cr.a * cr.r, rel=1e-12)


def _spy_part_scales(monkeypatch):
    """Record (r, refused) for every part_scales call crossing_search makes."""
    calls = []

    def spy(w1, u_eps, params, r):
        try:
            out = part_scales(w1, u_eps, params, r)
        except DegenerateInputError:
            calls.append((r, True))
            raise
        calls.append((r, False))
        return out

    monkeypatch.setattr(solver_module, "part_scales", spy)
    return calls


def test_crossing_search_doubles_a_refused_probe(monkeypatch):
    # at s = 0.48 the ratio 1e-6 of the bracket width inside rbar2 still
    # leaves w1 - r u_eps without a positive part; the probe doubles its
    # offset four times before part_scales accepts it
    params = Params(s=0.48, p=2.0, q=0.5, mu=0.05, N=1)
    grid = build_grid(-1.0, 1.0, 48, params)
    pos = solve_positive(grid, params, seed=0)
    u_eps = make_u_eps(grid, params, default_bubble(grid))
    calls = _spy_part_scales(monkeypatch)
    cr = crossing_search(pos.u, u_eps, params)
    r1, r2 = cr.bracket
    offsets = [r2 - r for r, _ in calls[1:6]]
    assert [refused for _, refused in calls[:6]] == [False, True, True, True, True, False]
    np.testing.assert_allclose(offsets, [1e-6 * (r2 - r1) * 2.0**k for k in range(5)], rtol=1e-6)
    assert not any(refused for _, refused in calls[6:])
    assert cr.r == pytest.approx(0.61242, abs=1e-5)


def test_crossing_search_stops_on_the_bracket_width(params, grid48, monkeypatch):
    # a tolerance no float gap meets: the bisection stops once its bracket
    # is 1e-15 of the ratio bracket wide, 50 halvings after the two probes
    pos = solve_positive(grid48, params, seed=0)
    u_eps = make_u_eps(grid48, params, default_bubble(grid48))
    calls = _spy_part_scales(monkeypatch)
    cr = crossing_search(pos.u, u_eps, params, tol_cross=1e-300)
    assert len(calls) == 2 + 50
    assert 0.0 < abs(cr.s_plus - cr.s_minus) <= 1e-13 * cr.s_plus
    assert cr.bracket[0] < cr.r < cr.bracket[1]


@pytest.mark.parametrize("case", ["single-point", "no-sign-change", "bisection-stalls", "no-valid-probes"])
def test_crossing_search_refuses_a_bracket_without_a_crossing(params, grid48, case):
    # w1 proportional to u_eps leaves a single ratio; a w1 whose mass sits
    # where u_eps vanishes keeps that mass in its positive part at every
    # ratio, so s+ stays small and s+ - s- keeps one sign over the bracket.
    # A bracket 0.2 wide around r ~ 10 stalls the bisection at one ulp of r
    # (1.8e-15), above 1e-15 of the width, before tol_cross = 1e-300 is met.
    # At s = 0.499 (p* ~ 1000) every part's critical mass underflows, so no
    # ratio in the bracket gives a valid probe
    x = grid48.nodes
    left = np.where(x < 0.0, np.sin(np.pi * (x + 1.0)), 0.0)
    bump = np.cos(0.5 * np.pi * x)
    tol_cross = 1e-6
    if case == "single-point":
        u_eps, w1, message = left, 2.0 * left, "single point"
    elif case == "no-sign-change":
        right = np.where(x >= 0.0, 5.0 * np.sin(np.pi * x), 0.0)
        u_eps, w1, message = left, left * (1.5 + 0.5 * x) + right, "no sign change"
    elif case == "bisection-stalls":
        u_eps, w1, message, tol_cross = bump, bump * (10.0 + 0.1 * x), "bisection did not converge", 1e-300
    else:
        params = Params(0.499, params.p, params.q, params.mu, params.N)
        grid48 = build_grid(-1.0, 1.0, 48, params)
        u_eps, w1, message = 0.5 * bump, 0.5 * bump * (1.0 + 0.5 * x), "could not find valid probes"
    with pytest.raises(SolverError, match=message):
        crossing_search(GridFunction(grid48, w1), GridFunction(grid48, u_eps), params, tol_cross)


@pytest.mark.parametrize(
    "scale, message", [(0.0, "vanishes identically"), (-1.0, "no nodes above the mass threshold")],
    ids=["zero", "negative"],
)
def test_crossing_search_refuses_a_bubble_without_mass(params, grid48, scale, message):
    w1 = GridFunction(grid48, np.cos(0.5 * np.pi * grid48.nodes))
    with pytest.raises(DegenerateInputError, match=message):
        crossing_search(w1, w1.with_values(scale * w1.values), params)


def test_part_scales_refuses_a_ratio_without_a_sign_change(params, grid48):
    w1 = GridFunction(grid48, np.cos(0.5 * np.pi * grid48.nodes))
    with pytest.raises(DegenerateInputError, match="no sign change at r = 0"):
        part_scales(w1, w1, params, 0.0)


def test_sup_over_fiber_is_never_negative(params, grid48, rng):
    # with both roots present phi(t+) can fall below I(0) = 0; without
    # them the ray energy falls from 0 on all of (0, inf)
    u = _random_fn(grid48, rng)
    _, psi_t0 = psi_and_t0(u, params)
    mu_crit = psi_t0 / lebesgue_mass(u, params.q + 1.0)
    low, high = replace(params, mu=0.99 * mu_crit), replace(params, mu=1.01 * mu_crit)
    fm = FiberMap.of(u, low)
    assert fm.phi(fm.tplus()) <= 0.0
    with pytest.raises(NoRootsError):
        FiberMap.of(u, high).tplus()
    for prm in (low, high):
        sup = sup_over_fiber(u, prm)
        assert (sup.value, sup.t_at) == (0.0, 0.0)


def test_sup_scan_is_the_half_plane_maximum(params, grid48):
    pos = solve_positive(grid48, params, seed=0)
    spec = BubbleSpec(eps=0.1, delta=0.25)
    ue = make_u_eps(grid48, params, spec)
    scan = sup_scan_ab(pos.u, ue, params)
    assert scan.value >= pos.energy

    def plane_energy(a, b):
        return energy(pos.u.with_values(a * pos.u.values - b * ue.values), params)

    assert plane_energy(scan.a_at, scan.b_at) == pytest.approx(scan.value, rel=1e-12)
    grid_max = max(
        plane_energy(a, b) for a in np.linspace(0.0, 4.0, 81) for b in np.linspace(-4.0, 4.0, 161)
    )
    assert grid_max <= scan.value * (1.0 + 1e-12)


def test_sign_changing_search_facts(params, grid48):
    # the search drives both rescaled parts onto the unstable stratum; the
    # full gradient keeps a strictly positive floor, the nonlocal pairing
    # between the parts, reported through cross_plus and cross_minus
    res = _sign_changing(grid48, params, max_iters=800)
    assert not res.converged
    assert res.plus_part_norm > 0.0 and res.minus_part_norm > 0.0
    assert res.plus_class.tag is NehariTag.MINUS
    assert res.minus_class.tag is NehariTag.MINUS
    assert res.cross_plus > 0.0 and res.cross_minus > 0.0
    # the whole point is off the manifold: each part sits on its own fiber
    # maximum, so phi'_u(1) = <I'(u), u+> + <I'(u), -u-> is the cross pairing
    assert res.nehari.tag is NehariTag.OFF
    assert res.nehari.first_deriv == pytest.approx(res.cross_plus + res.cross_minus, rel=1e-9)
    assert res.residual_norm > 0.0
    pos = solve_positive(grid48, params, seed=0)
    assert res.energy > pos.energy
    assert res.split_ok
    assert res.energy >= res.c2_split_lower
    assert res.crossing is not None


def test_sign_changing_cross_terms_equal_at_p2(params, grid48):
    # for p = 2 the pairing of the state against either part reduces to the
    # same off-diagonal kernel sum
    res = _sign_changing(grid48, params, max_iters=800)
    assert res.cross_plus == pytest.approx(res.cross_minus, rel=1e-9)
    plus, minus = split_parts(res.u)
    neg = minus.with_values(-minus.values)
    direct = form_a(res.u, plus, params) - seminorm_p(plus, params)
    assert res.cross_plus == pytest.approx(direct, rel=1e-9)
    direct_m = form_a(res.u, neg, params) - seminorm_p(minus, params)
    assert res.cross_minus == pytest.approx(direct_m, rel=1e-9)


def test_sign_changing_parts_superadditivity_gap(params, grid48):
    # the cross terms are exactly the seminorm superadditivity excess
    res = _sign_changing(grid48, params, max_iters=800)
    plus, minus = split_parts(res.u)
    excess = (
        seminorm_p(res.u, params)
        - seminorm_p(plus, params)
        - seminorm_p(minus, params)
    )
    assert res.cross_plus + res.cross_minus == pytest.approx(excess, rel=1e-9)


def test_sign_changing_seed_determinism(params, grid48):
    a = _sign_changing(grid48, params, max_iters=400)
    b = _sign_changing(grid48, params, max_iters=400)
    np.testing.assert_array_equal(a.u.values, b.u.values)
    assert a.energy == b.energy
    assert a.iterations == b.iterations


@pytest.mark.parametrize("n", [48, 128])
def test_two_part_line_search_starts_from_the_last_step(params, n):
    # each search starts at twice the last accepted step, capped at 1; from 1
    # the two-part descent halved its step about 15 times per iteration
    # (367 trials for 23 iterations at n = 48, 644 for 42 at n = 128)
    res = _sign_changing(build_grid(-1.0, 1.0, n, params), params)
    assert res.stop_reason == "stalled"
    assert res.armijo_trials < 5 * res.iterations


def test_sign_changing_gap_bound_with_estimate(params, grid48):
    # the compactness ceiling is the positive level plus (s/N) S^(N/(sp)); the
    # two-part solve leaves it to its caller and ignores an s_est it is given
    pos = solve_positive(grid48, params, seed=0)
    est = estimate_sobolev(grid48, params, iters=600, seed=0)
    kw = dict(seed=0, max_iters=400, w1=pos.u, bubble=default_bubble(grid48))
    res = solve_sign_changing(grid48, params, s_est=est.value, **kw)
    plain = solve_sign_changing(grid48, params, **kw)
    np.testing.assert_array_equal(res.u.values, plain.u.values)
    assert res.energy == plain.energy
    bound = pos.energy + compactness_gap(params, est.value)
    expect = pos.energy + (params.s / params.N) * est.value ** (params.N / params.ps)
    assert bound == pytest.approx(expect, rel=1e-9)
    assert pos.energy < res.energy


def test_solve_positive_respects_restart_budget(params):
    g = build_grid(-1.0, 1.0, 32, params)
    res = solve_positive(g, params, seed=1, max_iters=2000)
    assert res.converged
    assert res.restarts <= 5


def test_solve_positive_raises_when_no_start_projects(params, grid48):
    # mu far above the two-root threshold: no start has a fiber maximum, so
    # there is no descent to report
    with pytest.raises(SolverError, match="no start projects"):
        solve_positive(grid48, replace(params, mu=100.0), seed=0)


def test_final_iterate_without_a_fiber_map_is_a_solver_error(params, grid48, monkeypatch):
    # every reported number is read off a fresh fiber map at the returned
    # iterate; a refusal there is the solve's failure, not bad input
    descended = []
    descend = solver_module._descend
    of_pieces = FiberMap.of_pieces.__func__

    def descend_and_mark(*args, **kwargs):
        out = descend(*args, **kwargs)
        descended.append(True)
        return out

    def refuse_after_the_descent(cls, pieces, prm):
        if descended:
            raise DegenerateInputError("forced")
        return of_pieces(cls, pieces, prm)

    monkeypatch.setattr(solver_module, "_descend", descend_and_mark)
    monkeypatch.setattr(FiberMap, "of_pieces", classmethod(refuse_after_the_descent))
    with pytest.raises(SolverError, match="^the final iterate has no fiber map: forced$") as info:
        solve_positive(grid48, params, seed=0)
    assert isinstance(info.value.__cause__, DegenerateInputError)


def test_stalled_one_sign_descent_is_not_restarted(params, grid48, monkeypatch):
    # a line search that finds no acceptable step ends the solve: the first
    # bump has a fiber maximum, so there is one start and one descent
    descents = []
    descend = solver_module._descend

    def counting(*args, **kwargs):
        descents.append(args)
        return descend(*args, **kwargs)

    def no_maximum(state, step, a_step, prm):
        raise NoRootsError("forced")

    monkeypatch.setattr(solver_module, "_descend", counting)
    monkeypatch.setattr(solver_module, "_project_cone", no_maximum)
    res = solve_positive(grid48, params, seed=0, max_restarts=5)
    assert res.stop_reason == "stalled"
    assert (res.restarts, len(descents), res.iterations) == (0, 1, 1)


@pytest.mark.parametrize(
    "cause",
    [SolverError("forced"), NoRootsError("forced"), DegenerateInputError("forced")],
    ids=["no-crossing", "no-roots", "degenerate"],
)
def test_sign_changing_crossing_failure_raises_once(params, grid48, monkeypatch, cause):
    # one crossing search on the configured bubble, whose failure is the
    # solve's, chained to its cause
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise cause

    monkeypatch.setattr(solver_module, "crossing_search", failing)
    w1 = solve_positive(grid48, params, seed=0).u
    with pytest.raises(SolverError, match="crossing search failed") as info:
        solve_sign_changing(grid48, params, w1=w1, bubble=default_bubble(grid48))
    assert len(calls) == 1
    assert info.value.__cause__ is cause


def test_sign_changing_refuses_a_bad_bubble_before_its_first_stage(params, grid48, monkeypatch):
    # the crossing search is the first stage of the two-part solve
    w1 = solve_positive(grid48, params, seed=0).u
    calls = []
    monkeypatch.setattr(solver_module, "crossing_search", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ParameterError, match="must be smaller than the half-width"):
        solve_sign_changing(grid48, params, w1=w1, bubble=BubbleSpec(eps=0.1, delta=grid48.halfwidth))
    assert calls == []


@pytest.mark.parametrize("n", [48, 64], ids=["same-n", "other-n"])
def test_w1_from_another_grid_raises(params, grid48, n):
    # a w1 on (-1, 1) and a bubble on (-3, 3), the grid solve_sign_changing
    # is given, so it fails in its crossing search
    w1 = solve_positive(grid48, params, seed=0).u
    other = build_grid(-3.0, 3.0, n, params)
    u_eps = make_u_eps(other, params, default_bubble(other))
    for call in (
        lambda: crossing_search(w1, u_eps, params),
        lambda: part_scales(w1, u_eps, params, 1.0),
        lambda: sup_scan_ab(w1, u_eps, params),
        lambda: solve_sign_changing(other, params, w1=w1, bubble=default_bubble(other)),
    ):
        with pytest.raises(ParameterError, match="different grids"):
            call()


def test_two_part_trial_without_a_negative_part_halves_the_step(params, grid48, monkeypatch):
    # the first trial keeps only the iterate's positive part; its vanished
    # negative part has no fiber map, so the trial is rejected, as a ray
    # without a fiber maximum is, and the next one takes half the step
    w1 = solve_positive(grid48, params, seed=0).u
    steps, refusals = [], []
    descend = solver_module._descend

    def first_trial_loses_its_negative_part(*args, project, **kwargs):
        def trial(state, step, a_step):
            steps.append(step)
            if len(steps) == 1:
                step = np.where(state.u.values < 0.0, -state.u.values, 0.0)
            try:
                return project(state, step, a_step)
            except DegenerateInputError as exc:
                refusals.append((len(steps), str(exc)))
                raise

        return descend(*args, project=trial, **kwargs)

    monkeypatch.setattr(solver_module, "_descend", first_trial_loses_its_negative_part)
    res = solve_sign_changing(grid48, params, w1=w1, bubble=default_bubble(grid48))
    assert refusals == [(1, "nonzero function required")]
    assert steps[1].tobytes() == (0.5 * steps[0]).tobytes()
    assert res.armijo_trials > res.iterations


def test_stop_reason_says_why_descent_ended(params, grid48):
    assert solve_positive(grid48, params, seed=0).stop_reason == "converged"
    spent = solve_positive(grid48, params, seed=0, max_iters=3)
    assert spent.stop_reason == "budget"
    # the budget ran out on the first start, so no fresh start was made
    assert spent.restarts == 0
    # the two-part descent ends on a line search that finds no acceptable
    # step, with the cross pairing still in the gradient
    res = _sign_changing(grid48, params)
    assert not res.converged
    assert res.stop_reason == "stalled"
