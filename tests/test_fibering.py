"""Fiber map analysis: peak, roots, their projections and the edge cases."""

import numpy as np
import pytest

from nehari_fpl import (
    DegenerateInputError,
    FiberMap,
    GridFunction,
    NoRootsError,
    Params,
    classify,
    fiber_derivatives,
    fiber_roots,
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
