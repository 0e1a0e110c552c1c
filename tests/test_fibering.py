"""Fiber map analysis: roots, classification, and perturbation response."""

import numpy as np
import pytest

from nehari_fpl import (
    DegenerateInputError,
    FiberMap,
    GridFunction,
    NehariTag,
    NoRootsError,
    Params,
    build_grid,
    classify,
    fiber_derivatives,
    fiber_roots,
    perturbation_derivative,
    project_minus,
    psi_and_t0,
    psi_mu,
)


def _random_fn(grid, rng):
    return GridFunction(grid, rng.standard_normal(grid.n))


def test_psi_peak_closed_form_unit_inputs():
    fm = FiberMap(norm_p=1.0, mass_q=1.0, mass_star=1.0, p=2.0, q=0.5, pstar=10.0, mu=0.05)
    t0 = fm.t0()
    assert fm.psi(t0) == pytest.approx(t0 ** 0.5 - t0 ** 8.5, rel=1e-13)


def test_t0_is_the_peak(params, grid48, rng):
    for _ in range(10):
        u = _random_fn(grid48, rng)
        t0, psi_t0 = psi_and_t0(u, params)
        fm = FiberMap.of(u, params)
        for bump in (0.999, 1.001):
            assert fm.psi(bump * t0) < psi_t0


def test_roots_solve_the_scalar_equation(params, grid48, rng):
    for _ in range(25):
        u = _random_fn(grid48, rng)
        rep = fiber_roots(u, params)
        fm = FiberMap.of(u, params)
        target = params.mu * fm.mass_q
        scale = max(abs(rep.psi_t0), abs(target))
        assert abs(fm.psi(rep.tminus) - target) <= 1e-9 * scale
        assert abs(fm.psi(rep.tplus) - target) <= 1e-9 * scale


def test_root_classification_sides(params, grid48, rng):
    # the small root is the stable stratum, the large root the unstable one
    for _ in range(25):
        u = _random_fn(grid48, rng)
        rep = fiber_roots(u, params)
        assert rep.class_minus.tag is NehariTag.PLUS
        assert rep.class_plus.tag is NehariTag.MINUS
        assert rep.class_minus.second_deriv > 0.0
        assert rep.class_plus.second_deriv < 0.0


def test_projected_point_sits_on_manifold(params, grid48, rng):
    for _ in range(10):
        u = _random_fn(grid48, rng)
        rep = fiber_roots(u, params)
        for t in (rep.tminus, rep.tplus):
            v = u.with_values(t * u.values)
            cls = classify(v, params)
            scale = FiberMap.of(v, params).scale
            assert abs(cls.first_deriv) <= 1e-8 * scale


def test_no_roots_when_mu_dominates(params, grid48, rng):
    u = _random_fn(grid48, rng)
    fm = FiberMap.of(u, params)
    mu_crit = fm.psi(fm.t0()) / fm.mass_q
    big = Params(params.s, params.p, params.q, 2.0 * mu_crit, params.N)
    with pytest.raises(NoRootsError):
        fiber_roots(u, big)


def test_psi_mu_sign_tracks_solvability(params, grid48, rng):
    u = _random_fn(grid48, rng)
    fm = FiberMap.of(u, params)
    mu_crit = fm.psi(fm.t0()) / fm.mass_q
    below = Params(params.s, params.p, params.q, 0.5 * mu_crit, params.N)
    above = Params(params.s, params.p, params.q, 1.5 * mu_crit, params.N)
    assert psi_mu(u, below) > 0.0
    assert psi_mu(u, above) < 0.0


def test_small_mu_limit_of_roots(params, grid48, rng):
    # as mu -> 0 the small root collapses and the large root approaches the
    # zero-mass stationary ray (norm/m_*)^(1/(p*-p))
    u = _random_fn(grid48, rng)
    fm = FiberMap.of(u, params)
    tbar = (fm.norm_p / fm.mass_star) ** (1.0 / (params.pstar - params.p))
    last_tminus = np.inf
    for mu in (1e-2, 1e-4, 1e-6, 1e-8):
        small = Params(params.s, params.p, params.q, mu, params.N)
        rep = fiber_roots(u, small)
        assert rep.tminus < last_tminus
        last_tminus = rep.tminus
    assert rep.tplus == pytest.approx(tbar, rel=1e-6)


def test_fiber_derivatives_match_fd(params, grid48, rng):
    u = _random_fn(grid48, rng)
    t = 0.9
    val, d1, d2 = fiber_derivatives(u, t, params)
    eps = 1e-6
    vp = fiber_derivatives(u, t + eps, params)[0]
    vm = fiber_derivatives(u, t - eps, params)[0]
    assert (vp - vm) / (2.0 * eps) == pytest.approx(d1, rel=1e-7)
    assert (vp - 2.0 * val + vm) / eps ** 2 == pytest.approx(d2, rel=1e-4)


def test_perturbation_derivative_matches_fd(params, grid48, rng):
    # implicit derivative of the unstable rescaling under u -> u + eps phi
    for _ in range(10):
        u = project_minus(_random_fn(grid48, rng), params)
        d = _random_fn(grid48, rng)
        scale = float(np.max(np.abs(u.values))) / float(np.max(np.abs(d.values)))
        phi = d.with_values(scale * d.values)
        analytic = perturbation_derivative(u, phi, params)
        eps = 1e-5
        tp = FiberMap.of(u.with_values(u.values + eps * phi.values), params).roots()[1]
        tm = FiberMap.of(u.with_values(u.values - eps * phi.values), params).roots()[1]
        fd = (tp - tm) / (2.0 * eps)
        assert fd == pytest.approx(analytic, rel=1e-3)


def test_rescaling_scale_invariance(params, grid48, rng):
    # fiber roots of c * u are the roots of u divided by c
    u = _random_fn(grid48, rng)
    rep = fiber_roots(u, params)
    c = 3.7
    rep_c = fiber_roots(u.with_values(c * u.values), params)
    assert rep_c.tminus == pytest.approx(rep.tminus / c, rel=1e-9)
    assert rep_c.tplus == pytest.approx(rep.tplus / c, rel=1e-9)


def test_plus_variant_roots_use_positive_part(params, grid48, rng):
    from nehari_fpl import split_parts

    u = _random_fn(grid48, rng)
    plus, _ = split_parts(u)
    rep_var = fiber_roots(u, params, plus_variant=True)
    fm = FiberMap.of(u, params)
    fm_plus = FiberMap.of(plus, params)
    # variant keeps the full seminorm but only the positive-part masses
    target = params.mu * fm_plus.mass_q
    psi_var = (
        lambda t: t ** (params.p - 1.0 - params.q) * fm.norm_p
        - t ** (params.pstar - params.q - 1.0) * fm_plus.mass_star
    )
    scale = max(abs(rep_var.psi_t0), abs(target))
    assert abs(psi_var(rep_var.tminus) - target) <= 1e-8 * scale
    assert abs(psi_var(rep_var.tplus) - target) <= 1e-8 * scale


def test_tplus_is_upper_root_bitwise(params, grid48, rng):
    for _ in range(20):
        fm = FiberMap.of(_random_fn(grid48, rng), params)
        assert fm.tplus() == fm.roots()[1]
    u = _random_fn(grid48, rng)
    fm = FiberMap.of(u, params)
    big = FiberMap.of(u, Params(params.s, params.p, params.q, 2.0 * fm.psi(fm.t0()) / fm.mass_q, params.N))
    flat = FiberMap(norm_p=1.0, mass_q=0.0, mass_star=1.0, p=2.0, q=0.5, pstar=10.0, mu=0.05)
    for bad, error in ((big, NoRootsError), (flat, DegenerateInputError)):
        with pytest.raises(error):
            bad.roots()
        with pytest.raises(error):
            bad.tplus()


def test_tplus_brackets_past_float_overflow():
    # t0^(p*-q-1) m_* is finite but (2 t0)^(p*-q-1) overflows a float: the
    # bracket treats psi there as -inf, as the array form does, and finds
    # the root the array form finds
    fm = FiberMap(norm_p=1.0, mass_q=1e-10, mass_star=6e-292, p=2.0, q=0.5, pstar=10.0, mu=0.05)
    t0 = fm.t0()
    assert t0 ** 8.5 * fm.mass_star < np.inf
    with pytest.raises(OverflowError):
        (2.0 * t0) ** 8.5
    tplus = fm.tplus()
    assert t0 < tplus < 2.0 * t0
    assert tplus == fm.roots()[1]
    assert tplus == pytest.approx(1.8418771244142063e36, rel=1e-11)
