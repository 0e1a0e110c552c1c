"""Bubble construction and the concentration scaling ladder."""

import numpy as np
import pytest

from nehari_fpl import (
    DEFAULT_DELTA_FRAC,
    DEFAULT_EPS_FRACS,
    BubbleSpec,
    GridFunction,
    ParameterError,
    Params,
    build_grid,
    cutoff,
    fit_exponent,
    interaction_exponent,
    interaction_integrals,
    ladder,
    lebesgue_mass,
    lq_mass_scaling,
    make_u_eps,
    mass_regime,
    profile_u,
)


def test_exact_profile_closed_form(params):
    r = np.array([0.0, 0.5, 1.0, 3.0])
    expect = (1.0 + r ** 2) ** (-(params.N - 2.0 * params.s) / 2.0)
    np.testing.assert_allclose(profile_u(r, params), expect, rtol=1e-15)
    assert profile_u(0.0, params) == 1.0


def test_exact_profile_requires_p2():
    p3 = Params(s=0.3, p=3.0, q=0.5, mu=0.05, N=2)
    with pytest.raises(ParameterError):
        profile_u(1.0, p3, "exact-p2")


def test_profiles_monotone(params):
    r = np.linspace(0.0, 20.0, 400)
    for kind in ("exact-p2", "model"):
        vals = profile_u(r, params, kind)
        assert np.all(np.diff(vals) <= 0.0)


def test_model_profile_halving_exact(params):
    # pure power tail: doubling the radius divides the value by
    # 2^((N - ps)/(p - 1)) exactly
    decay = (params.N - params.ps) / (params.p - 1.0)
    r = np.array([1.5, 2.0, 7.0, 40.0])
    lhs = profile_u(2.0 * r, params, "model")
    rhs = profile_u(r, params, "model") * 2.0 ** -decay
    np.testing.assert_allclose(lhs, rhs, rtol=1e-15)


def test_cutoff_shape(params):
    x = np.linspace(-1.0, 1.0, 201)
    c = cutoff(x, -1.0, 1.0, 0.25)
    assert c[0] == 0.0 and c[-1] == 0.0
    inside = np.abs(x) <= 0.75
    np.testing.assert_array_equal(c[inside], 1.0)
    assert np.all((c >= 0.0) & (c <= 1.0))


def test_collar_identity_bitwise(params, grid48):
    # the grid sample is exactly cutoff * amplitude * profile, no hidden
    # renormalization
    spec = BubbleSpec(eps=0.1, delta=0.25, center=0.0, profile_kind="exact-p2")
    u = make_u_eps(grid48, params, spec)
    amp = spec.eps ** (-(params.N - params.ps) / params.p)
    r = np.abs(grid48.nodes - 0.0) / spec.eps
    expect = cutoff(grid48.nodes, grid48.a, grid48.b, spec.delta) * amp * profile_u(r, params)
    np.testing.assert_array_equal(u.values, expect)


def test_make_u_eps_guards(params, grid48):
    with pytest.raises(ParameterError):
        make_u_eps(grid48, params, BubbleSpec(eps=0.1, delta=1.5, center=0.0))
    with pytest.raises(ParameterError):
        make_u_eps(grid48, params, BubbleSpec(eps=0.1, delta=0.25, center=0.9))


def test_ladder_builder(params):
    base = BubbleSpec(eps=0.1, delta=0.25, center=0.0)
    specs = ladder(base, (0.1, 0.05, 0.025))
    assert [sp.eps for sp in specs] == [0.1, 0.05, 0.025]
    assert all(sp.delta == base.delta and sp.center == base.center for sp in specs)


def test_default_ladder_clears_collar():
    # every default rung stays below half the collar width
    assert all(f < DEFAULT_DELTA_FRAC / 2.0 for f in DEFAULT_EPS_FRACS)
    assert len(DEFAULT_EPS_FRACS) >= 4


def test_fit_exponent_tolerates_noise(rng):
    eps = (0.1, 0.05, 0.025, 0.0125)
    vals = [3.0 * e ** 0.15 * (1.0 + 0.01 * rng.standard_normal()) for e in eps]
    fit = fit_exponent(eps, vals, theory=0.15)
    assert abs(fit.slope - 0.15) < 0.02


def test_fit_exponent_guards():
    with pytest.raises(ParameterError):
        fit_exponent((0.1, 0.05), (1.0, 2.0, 3.0))
    with pytest.raises(ParameterError):
        fit_exponent((0.1, 0.05), (1.0, -2.0))


def test_interaction_integrals_coincide_for_flat_weight(params):
    # w = 1 makes w^(p*-1) and w^q identical, so A1 = A2 exactly
    g = build_grid(-1.0, 1.0, 128, params)
    w = GridFunction(g, np.ones(g.n))
    spec = BubbleSpec(eps=0.05, delta=0.25, center=0.0)
    a1 = interaction_integrals(w, g, params, spec, "A1")
    a2 = interaction_integrals(w, g, params, spec, "A2")
    assert a1 == a2
    assert a1 > 0.0


def test_interaction_integrals_reject_signed_weight(params, grid48, rng):
    w = GridFunction(grid48, rng.standard_normal(grid48.n))
    spec = BubbleSpec(eps=0.05, delta=0.25, center=0.0)
    with pytest.raises(ParameterError):
        interaction_integrals(w, grid48, params, spec, "A1")
    wpos = GridFunction(grid48, np.ones(grid48.n))
    with pytest.raises(ParameterError):
        interaction_integrals(wpos, grid48, params, spec, "A5")
    with pytest.raises(ParameterError):
        interaction_exponent(params, "A5")


def test_interaction_slopes_fall_short_of_asymptotic_rates(params):
    # at reachable concentration scales the window still carries the slowly
    # decaying remainder of each integrand, so the measured slopes trail the
    # eps -> 0 rates; the values below pin the observed behavior at n = 256
    g = build_grid(-1.0, 1.0, 256, params)
    w = GridFunction(g, np.ones(g.n))
    base = BubbleSpec(eps=0.1, delta=0.25, center=0.0)
    specs = ladder(base, [f * g.halfwidth for f in DEFAULT_EPS_FRACS])
    a1 = fit_exponent(
        [sp.eps for sp in specs],
        [interaction_integrals(w, g, params, sp, "A1") for sp in specs],
        theory=interaction_exponent(params, "A1"),
    )
    a4 = fit_exponent(
        [sp.eps for sp in specs],
        [interaction_integrals(w, g, params, sp, "A4") for sp in specs],
        theory=interaction_exponent(params, "A4"),
    )
    assert a1.theory == pytest.approx(0.1, rel=1e-12)
    assert a4.theory == pytest.approx(0.1, rel=1e-12)
    assert a1.slope == pytest.approx(0.081, abs=0.01)
    assert a4.slope == pytest.approx(0.046, abs=0.01)
    assert a1.slope < a1.theory
    assert a4.slope < a4.theory


def test_concave_mass_trend_and_measured_slope(params):
    g = build_grid(-1.0, 1.0, 256, params)
    base = BubbleSpec(eps=0.1, delta=0.25, center=0.0)
    specs = ladder(base, [f * g.halfwidth for f in DEFAULT_EPS_FRACS])
    fit = lq_mass_scaling(g, params, specs)
    assert fit.theory == pytest.approx(0.15, rel=1e-12)
    # decreasing along the ladder, measured slope short of the limit rate
    assert all(b < a for a, b in zip(fit.values, fit.values[1:]))
    assert fit.slope == pytest.approx(0.117, abs=0.01)


@pytest.mark.parametrize(
    "q, regime, theory",
    [(2.0 / 3.0, 2, 0.5), (0.8, 3, 1.0 - 0.6 * 1.8 / 2.0)],
    ids=["regime-2", "regime-3"],
)
def test_concave_mass_regimes_two_and_three(q, regime, theory):
    # N = 1, p = 2, s = 0.2 puts the threshold (N(p-2) + ps)/(N - ps) at 2/3,
    # inside (0, p - 1): q at the threshold is regime 2 (theory N/p, masses
    # divided by |log eps|), q = 0.8 is regime 3 (theory N - (N-ps)(q+1)/p)
    prm = Params(s=0.2, p=2.0, q=q, mu=0.05, N=1)
    got_regime, threshold = mass_regime(prm)
    assert got_regime == regime
    assert threshold == pytest.approx(2.0 / 3.0, rel=1e-15)
    g = build_grid(-1.0, 1.0, 64, prm)
    base = BubbleSpec(eps=0.1, delta=0.25, center=0.0)
    specs = ladder(base, [f * g.halfwidth for f in DEFAULT_EPS_FRACS])
    fit = lq_mass_scaling(g, prm, specs)
    assert fit.theory == pytest.approx(theory, rel=1e-12)
    assert fit.label.startswith(f"regime-{regime} ")
    masses = [lebesgue_mass(make_u_eps(g, prm, sp), q + 1.0) for sp in specs]
    divisor = np.abs(np.log(fit.eps_ladder)) if regime == 2 else 1.0
    np.testing.assert_allclose(np.multiply(fit.values, divisor), masses, rtol=1e-14)


def test_lq_mass_scaling_rejects_wide_rungs(params):
    g = build_grid(-1.0, 1.0, 64, params)
    base = BubbleSpec(eps=0.2, delta=0.25, center=0.0)
    specs = ladder(base, (0.2, 0.1))
    with pytest.raises(ParameterError):
        lq_mass_scaling(g, params, specs)
