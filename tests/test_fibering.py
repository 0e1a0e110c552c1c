"""Fiber map analysis: peak, roots, their projections and the edge cases."""

import numpy as np
import pytest

from nehari_fpl import (
    DegenerateInputError,
    FiberMap,
    GridFunction,
    NoRootsError,
    ParameterError,
    Params,
    SolverError,
    build_grid,
    classify,
    fiber_derivatives,
    fiber_roots,
    perturbation_derivative,
    psi_and_t0,
    psi_mu,
)
from nehari_fpl.energy import GradientPieces


def _random_fn(grid, rng):
    return GridFunction(grid, rng.standard_normal(grid.n))


def test_psi_peak_closed_form_unit_inputs():
    fm = FiberMap(norm_p=1.0, mass_q=1.0, mass_star=1.0, p=2.0, q=0.5, pstar=10.0, mu=0.05)
    t0 = fm.t0()
    assert fm.psi(t0) == pytest.approx(t0 ** 0.5 - t0 ** 8.5, rel=1e-13)


def test_ray_analysis_refuses_degenerate_inputs(params, grid48, rng):
    unit = dict(norm_p=1.0, mass_q=1.0, mass_star=1.0, p=2.0, q=0.5, pstar=10.0, mu=0.05)
    with pytest.raises(DegenerateInputError, match="critical mass is zero"):
        FiberMap(**{**unit, "mass_star": 0.0}).t0()
    with pytest.raises(DegenerateInputError, match="concave mass must be nonnegative"):
        FiberMap(**{**unit, "mass_q": -1.0}).tplus()
    for t in (0.0, -0.5):
        with pytest.raises(ParameterError, match="ray scaling t must be positive"):
            fiber_derivatives(_random_fn(grid48, rng), t, params)


def test_t0_is_the_peak(params, grid48, rng):
    # psi'(t0) = 0 is the fibering.peak-stationarity check; this is maximality
    for _ in range(10):
        u = _random_fn(grid48, rng)
        t0, psi_t0 = psi_and_t0(u, params)
        fm = FiberMap.of(u, params)
        for bump in (0.999, 1.001):
            assert fm.psi(bump * t0) < psi_t0


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
    with pytest.raises(NoRootsError) as info:
        fiber_roots(u, big)
    fm = FiberMap.of(u, big)
    peak, c = fm.psi(fm.t0()), fm.concave_mass
    assert str(info.value) == "no ray roots: peak %.9g <= concave mass %.9g (gap %.3g)" % (peak, c, c - peak)


def test_psi_mu_sign_tracks_solvability(params, grid48, rng):
    u = _random_fn(grid48, rng)
    fm = FiberMap.of(u, params)
    mu_crit = fm.psi(fm.t0()) / fm.mass_q
    below = Params(params.s, params.p, params.q, 0.5 * mu_crit, params.N)
    above = Params(params.s, params.p, params.q, 1.5 * mu_crit, params.N)
    assert psi_mu(u, below) > 0.0
    assert psi_mu(u, above) < 0.0


def test_perturbation_derivative_refuses_the_stable_projection(params, grid48, rng):
    # at t- u the ray energy has a local minimum: phi''(1) > 0
    w = _random_fn(grid48, rng)
    tminus, _ = FiberMap.of(w, params).roots()
    u = w.with_values(tminus * w.values)
    with pytest.raises(DegenerateInputError, match="is not below"):
        perturbation_derivative(u, w, params)


def test_perturbation_derivative_refuses_merged_roots(params, grid48, rng):
    # the fibering.degenerate-locus point t0 w at the mu that merges the
    # roots, moved 1e-12 outward along the ray: phi''(1) is negative there,
    # but within 1e-10 * scale of zero
    w = _random_fn(grid48, rng)
    fm = FiberMap.of(w, params)
    t0 = fm.t0()
    tuned = Params(params.s, params.p, params.q, fm.psi(t0) / fm.mass_q, params.N)
    u = w.with_values(t0 * (1.0 + 1e-12) * w.values)
    with pytest.raises(DegenerateInputError, match="is not below"):
        perturbation_derivative(u, w, tuned)


def test_fiber_derivatives_match_fd(params, grid48, rng):
    u = _random_fn(grid48, rng)
    t = 0.9
    val, d1, d2 = fiber_derivatives(u, t, params)
    eps = 1e-6
    vp = fiber_derivatives(u, t + eps, params)[0]
    vm = fiber_derivatives(u, t - eps, params)[0]
    assert (vp - vm) / (2.0 * eps) == pytest.approx(d1, rel=1e-7)
    assert (vp - 2.0 * val + vm) / eps ** 2 == pytest.approx(d2, rel=1e-4)


def test_rescaling_scale_invariance(params, grid48, rng):
    # fiber roots of c * u are the roots of u divided by c
    u = _random_fn(grid48, rng)
    rep = fiber_roots(u, params)
    c = 3.7
    rep_c = fiber_roots(u.with_values(c * u.values), params)
    assert rep_c.tminus == pytest.approx(rep.tminus / c, rel=1e-9)
    assert rep_c.tplus == pytest.approx(rep.tplus / c, rel=1e-9)


def test_tplus_is_upper_root_bitwise(params, grid48, rng):
    for _ in range(20):
        fm = FiberMap.of(_random_fn(grid48, rng), params)
        assert fm.tplus() == fm.roots()[1]
    u = _random_fn(grid48, rng)
    fm = FiberMap.of(u, params)
    big = FiberMap.of(u, Params(params.s, params.p, params.q, 2.0 * fm.psi(fm.t0()) / fm.mass_q, params.N))
    with pytest.raises(NoRootsError):
        big.roots()
    with pytest.raises(NoRootsError):
        big.tplus()
    # zero concave mass: no stable root, and t+ = (||u||^p / m_*)^(1/(p*-p)) = 1
    flat = FiberMap(norm_p=1.0, mass_q=0.0, mass_star=1.0, p=2.0, q=0.5, pstar=10.0, mu=0.05)
    with pytest.raises(DegenerateInputError, match="no stable root"):
        flat.roots()
    assert flat.tplus() == pytest.approx(1.0, rel=1e-12)


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


def test_tplus_refuses_a_zero_level_root_past_the_float_range():
    # at s = 1e-3, p* - p = 0.004: t0 = ratio^249.5 still fits a float, but
    # the bracket end (||u||^p / m_*)^249.5, its ratio (p*-1-q)/(p-1-q)
    # times larger, does not; the map refuses it as t0 refuses its own
    prm = Params(s=1e-3, p=2.0, q=0.5, mu=0.05, N=1)
    lift = (prm.pstar - 1.0 - prm.q) / (prm.p - 1.0 - prm.q)
    fm = FiberMap(17.1 * lift, 1e-300, 1.0, prm.p, prm.q, prm.pstar, prm.mu)
    assert fm.t0() == pytest.approx(4.29e307, rel=1e-3)
    with pytest.raises(DegenerateInputError, match="overflows a float"):
        fm.tplus()


def test_tminus_below_the_float_range_raises_solver_error():
    # (c / ||u||^p)^(1/(p-1-q)) = (1e-200)^2 underflows, so the lower
    # bracket end is 0, where psi' has no value to step with; the search
    # bisects toward t- ~ 1e-400 and stops with the package's own error
    fm = FiberMap(norm_p=1.0, mass_q=1e-100, mass_star=1.0, p=2.0, q=0.5, pstar=10.0, mu=1e-100)
    with pytest.raises(SolverError, match="did not converge"):
        fm.roots()


def test_subnormal_critical_mass_is_refused(params, grid48, rng):
    # at this size m_* ~ 2.5e-309 is a subnormal float, which has lost
    # digits to underflow, so the ray analysis refuses it as it refuses a
    # zero or non-finite coefficient
    u = _random_fn(grid48, rng)
    small = u.with_values(8e-32 * u.values)
    assert 0.0 < GradientPieces.of(small, params).ray_coefficients()[2] < np.finfo(float).tiny
    with pytest.raises(DegenerateInputError, match="not subnormal"):
        FiberMap.of(small, params)


def _bisect_reference(f, neg, pos):
    # plain bisection down to adjacent floats; f(neg) < 0 < f(pos)
    while True:
        mid = 0.5 * (neg + pos)
        if mid in (neg, pos):
            return mid
        if f(mid) < 0.0:
            neg = mid
        else:
            pos = mid


@pytest.mark.parametrize(
    "prm",
    [
        Params(s=0.1, p=2.0, q=0.8, mu=20.0, N=1),
        Params(s=0.3, p=3.0, q=0.5, mu=0.05, N=1),
        Params(s=0.2, p=4.0, q=0.5, mu=0.05, N=1),
        Params(s=0.4, p=2.0, q=0.5, mu=0.0, N=1),
    ],
    ids=["window", "p3", "p4", "mu0"],
)
def test_root_search_where_plain_newton_fails(prm, rng):
    # psi - c is concave past t0 only when p* - q - 1 >= 1 (not at the
    # window config, p* = 2.5); at p = 3, 4 plain Newton takes up to ~25
    # steps, and with the level just below the peak it does not settle to
    # a few ulps.  At mu = 0, t+ is the ray's only root.  Draws of every
    # size put t0 on both sides of 1 by orders of magnitude.
    grid = build_grid(-1.0, 1.0, 48, prm)
    for _ in range(100):
        size = 10.0 ** rng.uniform(-2.0, 2.0)
        fm = FiberMap.of(GridFunction(grid, size * rng.standard_normal(grid.n)), prm)
        maps = [fm]
        if prm.mu > 0.0:
            mu_crit = fm.psi(fm.t0()) / fm.mass_q
            maps.append(fm._replace(mu=(1.0 - 10.0 ** -rng.uniform(1.0, 4.0)) * mu_crit))
        for fm in maps:
            t0, c = fm.t0(), fm.concave_mass
            scale = max(abs(fm.psi(t0)), c)
            tplus = fm.tplus()
            hi = 2.0 * t0
            while fm.psi(hi) >= c:
                hi *= 2.0
            found = [(tplus, _bisect_reference(lambda t: c - fm.psi(t), t0, hi))]
            assert t0 < tplus
            if c > 0.0:
                tminus, upper = fm.roots()
                assert tminus < t0 and upper == tplus
                found.append((tminus, _bisect_reference(lambda t: fm.psi(t) - c, 0.0, t0)))
            for got, want in found:
                assert abs(fm.psi(got) - c) <= 1e-13 * scale
                assert got == pytest.approx(want, rel=1e-11)
