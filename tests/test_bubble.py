"""Bubble construction and the concentration scaling ladder."""

import numpy as np
import pytest

from nehari_fpl import (
    DEFAULT_DELTA_FRAC,
    DEFAULT_EPS_FRAC,
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
    ladder_fits,
    lebesgue_mass,
    lq_mass_scaling,
    make_u_eps,
    mass_regime,
    profile_u,
)
from nehari_fpl.bubble import INTERACTION_NAMES, LADDER_RUNGS


def test_exact_profile_closed_form(params):
    r = np.array([0.0, 0.5, 1.0, 3.0])
    expect = (1.0 + r ** 2) ** (-(params.N - 2.0 * params.s) / 2.0)
    np.testing.assert_allclose(profile_u(r, params), expect, rtol=1e-15)
    assert profile_u(0.0, params) == 1.0


P3 = Params(s=0.3, p=3.0, q=0.5, mu=0.05, N=2)


def test_profile_away_from_p2_is_the_decay_envelope():
    # no closed form at p != 2: one up to r = 1, then r^(-(N - ps)/(p - 1))
    decay = (P3.N - P3.ps) / (P3.p - 1.0)
    r = np.array([0.0, 0.5, 1.0, 1.5, 4.0])
    np.testing.assert_allclose(profile_u(r, P3), [1.0, 1.0, 1.0, 1.5 ** -decay, 4.0 ** -decay], rtol=1e-15)


def test_profile_u_refuses_bad_inputs(params):
    with pytest.raises(ParameterError, match="radius must be nonnegative"):
        profile_u(-0.5, params)


def test_profiles_monotone():
    # the p = 2 profile at the defaults, and the envelope at p = 3, N = 11,
    # are the bubble.profile-monotone check
    r = np.linspace(0.0, 20.0, 400)
    assert np.all(np.diff(profile_u(r, P3)) <= 0.0)


def test_model_profile_halving_exact():
    # pure power tail: doubling the radius divides the value by
    # 2^((N - ps)/(p - 1)) exactly
    decay = (P3.N - P3.ps) / (P3.p - 1.0)
    r = np.array([1.5, 2.0, 7.0, 40.0])
    lhs = profile_u(2.0 * r, P3)
    rhs = profile_u(r, P3) * 2.0 ** -decay
    np.testing.assert_allclose(lhs, rhs, rtol=1e-15)


def test_cutoff_shape(params):
    x = np.linspace(-1.0, 1.0, 201)
    c = cutoff(x, -1.0, 1.0, 0.25)
    assert c[0] == 0.0 and c[-1] == 0.0
    inside = np.abs(x) <= 0.75
    np.testing.assert_array_equal(c[inside], 1.0)
    assert np.all((c >= 0.0) & (c <= 1.0))


def test_collar_identity_bitwise(params, grid48):
    # in the collar the grid sample is exactly cutoff * amplitude * profile,
    # no hidden renormalization; inside it, the bubble.collar-identity check
    spec = BubbleSpec(eps=0.1, delta=0.25)
    u = make_u_eps(grid48, params, spec)
    collar = np.abs(grid48.nodes) > grid48.halfwidth - spec.delta
    x = grid48.nodes[collar]
    amp = spec.eps ** (-(params.N - params.ps) / params.p)
    expect = cutoff(x, grid48.a, grid48.b, spec.delta) * amp * profile_u(np.abs(x) / spec.eps, params)
    np.testing.assert_array_equal(u.values[collar], expect)


def test_make_u_eps_guards(params, grid48):
    # the bubble sits at the midpoint, so the collar must be narrower than the half-width
    for delta in (1.5, grid48.halfwidth):
        with pytest.raises(ParameterError, match="must be smaller than the half-width"):
            make_u_eps(grid48, params, BubbleSpec(eps=0.1, delta=delta))


def test_bubble_spec_refuses_bad_fields():
    with pytest.raises(ParameterError, match="eps must be positive"):
        BubbleSpec(eps=0.0, delta=0.25)
    with pytest.raises(ParameterError, match="delta must be positive"):
        BubbleSpec(eps=0.1, delta=0.0)


def test_ladder_builder(params):
    # the configured bubble, then three halvings of eps; the collar stays
    base = BubbleSpec(eps=0.1, delta=0.25)
    specs = ladder(base)
    assert specs[0] == base
    assert [sp.eps for sp in specs] == [0.1, 0.05, 0.025, 0.0125]
    assert all(sp.delta == base.delta for sp in specs)


def test_default_ladder_clears_collar():
    # the first rung is the largest, so every default rung stays below half
    # the collar width; fit_exponent needs at least four rungs
    assert DEFAULT_EPS_FRAC < DEFAULT_DELTA_FRAC / 2.0
    assert LADDER_RUNGS >= 4


def test_fit_exponent_tolerates_noise(rng):
    eps = (0.1, 0.05, 0.025, 0.0125)
    vals = [3.0 * e ** 0.15 * (1.0 + 0.01 * rng.standard_normal()) for e in eps]
    fit = fit_exponent(eps, vals, theory=0.15)
    assert abs(fit.slope - 0.15) < 0.02


def test_fit_exponent_guards():
    eps = (0.1, 0.05, 0.025, 0.0125)
    for ladder_eps, values, message in (
        ((0.1, 0.05), (1.0, 2.0, 3.0), "ladder too short"),
        (eps, (1.0, 2.0, 3.0), "matching lengths"),
        ((0.1, 0.025, 0.05, 0.0125), (1.0, 2.0, 3.0, 4.0), "strictly decreasing"),
        ((0.1, 0.05, 0.0, -0.1), (1.0, 2.0, 3.0, 4.0), "eps values must be positive"),
        (eps, (1.0, -2.0, 3.0, 4.0), "fit values must be positive"),
    ):
        with pytest.raises(ParameterError, match=message):
            fit_exponent(ladder_eps, values)


def test_interaction_integrals_coincide_for_flat_weight(params):
    # w = 1 makes w^(p*-1) and w^q identical, so A1 = A2 exactly
    g = build_grid(-1.0, 1.0, 128, params)
    w = GridFunction(g, np.ones(g.n))
    u_eps = make_u_eps(g, params, BubbleSpec(eps=0.05, delta=0.25))
    vals = interaction_integrals(w, u_eps, params)
    assert tuple(vals) == INTERACTION_NAMES
    assert vals["A1"] == vals["A2"]
    assert vals["A1"] > 0.0


def test_interaction_integrals_reject_signed_weight(params, grid48, rng):
    w = GridFunction(grid48, rng.standard_normal(grid48.n))
    u_eps = make_u_eps(grid48, params, BubbleSpec(eps=0.05, delta=0.25))
    with pytest.raises(ParameterError):
        interaction_integrals(w, u_eps, params)
    with pytest.raises(ParameterError):
        interaction_exponent(params, "A5")


def test_interaction_integrals_reject_mismatched_grids(params, grid48):
    # same n on another interval: the bubble's nodes are not w1's
    other = build_grid(0.0, 3.0, 48, params)
    w = GridFunction(grid48, np.ones(grid48.n))
    u_eps = make_u_eps(other, params, BubbleSpec(eps=0.1, delta=0.25))
    with pytest.raises(ParameterError, match="different grids"):
        interaction_integrals(w, u_eps, params)


def _default_ladder_fits(params):
    # the scaling fits of the default ladder at n = 256
    g = build_grid(-1.0, 1.0, 256, params)
    base = BubbleSpec(eps=0.1, delta=0.25)
    return ladder_fits(g, params, ladder(base))[1]


def test_interaction_slopes_fall_short_of_asymptotic_rates(params):
    # at reachable concentration scales the window still carries the slowly
    # decaying remainder of each integrand, so the measured slopes trail the
    # eps -> 0 rates; the values below pin the observed behavior at n = 256
    fits = _default_ladder_fits(params)
    a1, a4 = fits["A1"], fits["A4"]
    assert a1.theory == pytest.approx(0.1, rel=1e-12)
    assert a4.theory == pytest.approx(0.1, rel=1e-12)
    assert a1.slope == pytest.approx(0.081, abs=0.01)
    assert a4.slope == pytest.approx(0.046, abs=0.01)
    assert a1.slope < a1.theory
    assert a4.slope < a4.theory


def test_concave_mass_trend_and_measured_slope(params):
    fit = _default_ladder_fits(params)["mass"]
    assert fit.theory == pytest.approx(0.15, rel=1e-12)
    # decreasing along the ladder, measured slope short of the limit rate
    assert all(b < a for a, b in zip(fit.values, fit.values[1:]))
    assert fit.slope == pytest.approx(0.117, abs=0.01)


def test_fit_exponent_matches_polyfit(params, rng):
    # the closed-form slope against numpy's least-squares line fit, kept here
    # as the reference: the default ladder's A1-A4 and mass values, then
    # seeded ladders of 4-8 rungs with slopes of either sign
    ladders = [(fit.eps_ladder, fit.values) for fit in _default_ladder_fits(params).values()]
    for _ in range(200):
        eps = np.sort(rng.uniform(1e-4, 1.0, rng.integers(4, 9)))[::-1]
        slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
        ladders.append((eps, rng.uniform(0.1, 10.0) * eps ** slope * np.exp(0.1 * rng.standard_normal(eps.size))))
    for eps, vals in ladders:
        ref = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        assert fit_exponent(eps, vals).slope == pytest.approx(ref, rel=1e-12, abs=0.0)


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
    base = BubbleSpec(eps=0.1, delta=0.25)
    specs = ladder(base)
    bubbles = [make_u_eps(g, prm, sp) for sp in specs]
    fit = lq_mass_scaling(prm, specs, bubbles)
    assert fit.theory == pytest.approx(theory, rel=1e-12)
    assert fit.label.startswith(f"regime-{regime} ")
    masses = [lebesgue_mass(u, q + 1.0) for u in bubbles]
    divisor = np.abs(np.log(fit.eps_ladder)) if regime == 2 else 1.0
    np.testing.assert_allclose(np.multiply(fit.values, divisor), masses, rtol=1e-14)


def test_lq_mass_scaling_rejects_wide_rungs(params):
    # four rungs, the first above delta/2; a ladder of three rungs that
    # clear the collar meets fit_exponent's length check at the end
    g = build_grid(-1.0, 1.0, 64, params)
    base = BubbleSpec(eps=0.2, delta=0.25)
    specs = ladder(base)
    bubbles = [make_u_eps(g, params, sp) for sp in specs]
    with pytest.raises(ParameterError, match="delta/2"):
        lq_mass_scaling(params, specs, bubbles)
    with pytest.raises(ParameterError, match="one bubble per rung"):
        lq_mass_scaling(params, specs, bubbles[1:])
    with pytest.raises(ParameterError, match="ladder too short"):
        lq_mass_scaling(params, specs[1:], bubbles[1:])
