"""Self-contained property battery behind the verify and energy-check commands.

Each check computes a measured value, compares it against a frozen target
or an inequality, and reports a CheckResult; nothing raises on failure.
The frozen numbers were hand-evaluated from the closed forms before the
modules were written and are deliberately repeated here as literals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubble import (
    DEFAULT_DELTA_FRAC,
    DEFAULT_EPS_FRACS,
    INTERACTION_NAMES,
    BubbleSpec,
    fit_exponent,
    interaction_exponent,
    interaction_integrals,
    ladder,
    lq_mass_scaling,
    make_u_eps,
    mass_regime,
    profile_u,
)
from .constants import estimate_sobolev, regime_report
from .energy import energy, form_a, gradient, lebesgue_mass, seminorm_p, split_parts
from .fibering import FiberMap, NehariTag, classify, fiber_roots, perturbation_derivative, psi_mu
from .grid import GridFunction, Params, build_grid, tail_weight
from .solver import (
    crossing_search,
    part_scales,
    project_minus,
    solve_positive,
    solve_sign_changing,
    sup_over_fiber,
    sup_scan_ab,
)

DEFAULT_PARAMS = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)

# hand-evaluated closed forms, frozen before the modules existed
MU_TILDE_HAND = 0.78843882798753906  # (0.5/8.5)^(1/16) * 8/8.5 at p=2, q=0.5, N=1, s=0.4
BIG_M_HAND = 0.086851218064245117  # same parameter point, |domain| = 1
Q1_HAND = 0.52380952380952372  # 16/10.5 - 1 at N=4, p=2, s=0.5
Q2_HAND = 1.9736842105263159  # 33/9.5 - 3/2 at p=3, s=0.5, N=11
TAIL_HALF_HAND = 4.3527528164806206  # 2 * 2^0.8 / 0.8: midpoint of (0, 1) at ps = 0.8
T0_UNIT_HAND = 0.70176852345018459  # (0.5/8.5)^(1/8): unit norm and critical mass

ALL_GROUPS = ("grid", "energy", "fibering", "constants", "bubble", "solver")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: str
    target: str
    detail: str = ""


def _run(name: str, target: str, fn) -> CheckResult:
    try:
        passed, value, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        return CheckResult(name, False, "raised", target, repr(exc))
    return CheckResult(name, bool(passed), value, target, detail)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _random_function(grid, rng) -> GridFunction:
    return GridFunction(grid, rng.standard_normal(grid.n))


def check_grid() -> list[CheckResult]:
    params = DEFAULT_PARAMS
    out = []
    g01 = build_grid(0.0, 1.0, 9, params)

    def tail_mid():
        val = tail_weight(0.5, g01, params)
        return _rel(val, TAIL_HALF_HAND) <= 1e-13, "%.17g" % val, ""

    out.append(_run("grid.tail-closed-form", "%.17g" % TAIL_HALF_HAND, tail_mid))

    def layout():
        g = build_grid(-1.0, 1.0, 7, params)
        want = -1.0 + 0.25 * np.arange(1, 8)
        err = float(np.max(np.abs(g.nodes - want)))
        return err <= 1e-15 and g.h == 0.25, "%.3g" % err, ""

    out.append(_run("grid.node-layout", "nodes at a + i*h", layout))

    def kernel_sym():
        k = g01.kernel
        asym = float(np.max(np.abs(k - k.T)))
        diag = float(np.max(np.abs(np.diag(k))))
        return asym == 0.0 and diag == 0.0, "%.3g/%.3g" % (asym, diag), ""

    out.append(_run("grid.kernel-symmetric", "symmetric, zero diagonal", kernel_sym))
    return out


def check_energy(checks_n: int = 48, seed: int = 0) -> list[CheckResult]:
    params = DEFAULT_PARAMS
    grid = build_grid(-1.0, 1.0, checks_n, params)
    rng = np.random.default_rng(seed)
    out = []

    def homogeneity():
        worst = 0.0
        for _ in range(10):
            u = _random_function(grid, rng)
            t = 0.3 + 2.0 * rng.random()
            worst = max(
                worst,
                _rel(seminorm_p(u.with_values(t * u.values), params), t ** params.p * seminorm_p(u, params)),
            )
        return worst <= 1e-12, "%.3g" % worst, ""

    out.append(_run("energy.homogeneity", "rel err <= 1e-12", homogeneity))

    def pairing_diag():
        worst = 0.0
        for _ in range(10):
            u = _random_function(grid, rng)
            worst = max(worst, _rel(form_a(u, u, params), seminorm_p(u, params)))
        return worst <= 1e-11, "%.3g" % worst, ""

    out.append(_run("energy.pairing-diagonal", "form_a(u,u) = seminorm, rel <= 1e-11", pairing_diag))

    def gradient_fd():
        worst = 0.0
        for _ in range(5):
            u = _random_function(grid, rng)
            g = gradient(u, params).values
            for _ in range(3):
                d = rng.standard_normal(grid.n)
                d /= float(np.max(np.abs(d)))
                eps = 1e-6
                ep = energy(u.with_values(u.values + eps * d), params).total
                em = energy(u.with_values(u.values - eps * d), params).total
                fd = (ep - em) / (2.0 * eps)
                worst = max(worst, _rel(fd, float(np.dot(g, d))))
        return worst <= 1e-5, "%.3g" % worst, ""

    out.append(_run("energy.gradient-fd", "directional rel err <= 1e-5", gradient_fd))

    def superadd():
        worst = math.inf
        for _ in range(50):
            u = _random_function(grid, rng)
            plus, minus = split_parts(u)
            margin = seminorm_p(u, params) - seminorm_p(plus, params) - seminorm_p(minus, params)
            worst = min(worst, margin)
        return worst >= 0.0, "%.3g" % worst, "min margin over 50 draws"

    out.append(_run("energy.superadditivity", "seminorm(u) >= parts, margin >= 0", superadd))

    def mass_split():
        worst = 0.0
        for r in (params.q + 1.0, params.pstar):
            u = _random_function(grid, rng)
            plus, minus = split_parts(u)
            worst = max(
                worst,
                _rel(lebesgue_mass(u, r), lebesgue_mass(plus, r) + lebesgue_mass(minus, r)),
            )
        return worst <= 1e-14, "%.3g" % worst, ""

    out.append(_run("energy.mass-split", "masses split exactly across parts", mass_split))

    def energy_split():
        worst = math.inf
        for _ in range(50):
            u = _random_function(grid, rng)
            plus, minus = split_parts(u)
            margin = (
                energy(u, params).total
                - energy(plus, params).total
                - energy(minus.with_values(-minus.values), params).total
            )
            worst = min(worst, margin)
        return worst >= 0.0, "%.3g" % worst, "min margin over 50 draws"

    out.append(_run("energy.split-lower-bound", "I(u) >= I(u+) + I(-u-)", energy_split))

    def positivity_pairing():
        worst = math.inf
        for _ in range(50):
            u = _random_function(grid, rng)
            _, minus = split_parts(u)
            margin = form_a(u, minus.with_values(-minus.values), params) - seminorm_p(minus, params)
            worst = min(worst, margin)
        return worst >= 0.0, "%.3g" % worst, "min margin over 50 draws"

    out.append(_run("energy.positivity-pairing", "A(u,-u-) >= seminorm(u-)", positivity_pairing))

    def plus_variant_on_nonneg():
        u = _random_function(grid, rng)
        u = u.with_values(np.abs(u.values))
        same_total = energy(u, params).total == energy(u, params, plus_variant=True).total
        same_grad = bool(
            np.array_equal(gradient(u, params).values, gradient(u, params, plus_variant=True).values)
        )
        return same_total and same_grad, "bitwise" if same_total and same_grad else "differs", ""

    out.append(_run("energy.plus-variant-on-nonneg", "variants agree bitwise for u >= 0", plus_variant_on_nonneg))

    def determinism():
        u = _random_function(grid, rng)
        first = energy(u, params).total
        second = energy(u, params).total
        return first == second, "bitwise" if first == second else "differs", ""

    out.append(_run("energy.bit-determinism", "repeated evaluation identical", determinism))
    return out


def check_fibering(checks_n: int = 48, seed: int = 0) -> list[CheckResult]:
    params = DEFAULT_PARAMS
    grid = build_grid(-1.0, 1.0, checks_n, params)
    rng = np.random.default_rng(seed)
    out = []

    def t0_unit():
        fm = FiberMap(1.0, 1.0, 1.0, 2.0, 0.5, 10.0, params.mu)
        return _rel(fm.t0(), T0_UNIT_HAND) <= 1e-14, "%.17g" % fm.t0(), ""

    out.append(_run("fibering.t0-closed-form", "%.17g" % T0_UNIT_HAND, t0_unit))

    def peak_property():
        worst = 0.0
        for _ in range(10):
            fm = FiberMap.of(_random_function(grid, rng), params)
            t0 = fm.t0()
            # psi'(t0) = 0 algebraically; measure the float residual
            dpsi = (
                (fm.p - 1.0 - fm.q) * t0 ** (fm.p - 2.0 - fm.q) * fm.norm_p
                - (fm.pstar - fm.q - 1.0) * t0 ** (fm.pstar - fm.q - 2.0) * fm.mass_star
            )
            worst = max(worst, abs(dpsi) * t0 / max(fm.norm_p, fm.mass_star))
        return worst <= 1e-12, "%.3g" % worst, ""

    out.append(_run("fibering.peak-stationarity", "psi'(t0) = 0 to rounding", peak_property))

    def roots_order():
        worst = 0.0
        ok = True
        for _ in range(30):
            fm = FiberMap.of(_random_function(grid, rng), params)
            t0 = fm.t0()
            tminus, tplus = fm.roots()
            ok = ok and (tminus < t0 < tplus)
            c = fm.concave_mass
            worst = max(
                worst,
                abs(float(fm.psi(tminus)) - c) / fm.scale,
                abs(float(fm.psi(tplus)) - c) / fm.scale,
            )
        return ok and worst <= 1e-9, "%.3g" % worst, "root residual over scale"

    out.append(_run("fibering.roots-bracket-order", "t- < t0 < t+, residual <= 1e-9", roots_order))

    def roots_vs_scan():
        worst = 0.0
        for _ in range(5):
            fm = FiberMap.of(_random_function(grid, rng), params)
            tminus, tplus = fm.roots()
            ts = np.linspace(1e-9, 3.0 * tplus, 200001)
            signs = np.sign(fm.psi(ts) - fm.concave_mass)
            flips = np.nonzero(np.diff(signs))[0]
            if flips.size < 2:
                return False, "scan found %d crossings" % flips.size, ""
            cell = ts[1] - ts[0]
            worst = max(worst, abs(ts[flips[0]] - tminus), abs(ts[flips[-1]] - tplus))
            worst = worst if worst > cell else worst
            if abs(ts[flips[0]] - tminus) > 2.0 * cell or abs(ts[flips[-1]] - tplus) > 2.0 * cell:
                return False, "%.3g" % worst, "bisection root outside scan cell"
        return True, "%.3g" % worst, "max distance to scan crossing"

    out.append(_run("fibering.roots-vs-scan", "bisection roots inside scan cells", roots_vs_scan))

    def projection_classes():
        for _ in range(10):
            u = _random_function(grid, rng)
            rep = fiber_roots(u, params)
            if rep.class_plus.tag is not NehariTag.MINUS or rep.class_minus.tag is not NehariTag.PLUS:
                return (
                    False,
                    "%s/%s" % (rep.class_minus.tag.value, rep.class_plus.tag.value),
                    "t- should classify plus, t+ minus",
                )
        return True, "plus/minus", ""

    out.append(_run("fibering.projection-classes", "t- stable, t+ unstable", projection_classes))

    def expr_spread():
        worst = 0.0
        for _ in range(10):
            u = _random_function(grid, rng)
            rep = fiber_roots(u, params)
            for cls in (rep.class_minus, rep.class_plus):
                worst = max(worst, cls.expr_spread / abs(cls.second_deriv))
        return worst <= 1e-10, "%.3g" % worst, "spread over |phi''(1)|"

    out.append(_run("fibering.expr-agreement", "four expressions within 1e-10", expr_spread))

    def perturbation_fd():
        worst = 0.0
        for _ in range(5):
            u0 = _random_function(grid, rng)
            u = project_minus(u0, params)
            direction = _random_function(grid, rng)
            scale = float(np.max(np.abs(u.values))) / float(np.max(np.abs(direction.values)))
            phi = direction.with_values(direction.values * scale)
            analytic = perturbation_derivative(u, phi, params)
            eps = 1e-5
            tp = FiberMap.of(u.with_values(u.values + eps * phi.values), params).tplus()
            tm = FiberMap.of(u.with_values(u.values - eps * phi.values), params).tplus()
            worst = max(worst, _rel((tp - tm) / (2.0 * eps), analytic))
        return worst <= 1e-3, "%.3g" % worst, ""

    out.append(_run("fibering.perturbation-fd", "rescaling derivative, rel <= 1e-3", perturbation_fd))

    def degenerate_locus():
        worst = 0.0
        tag_ok = True
        for _ in range(5):
            w = _random_function(grid, rng)
            fm = FiberMap.of(w, params)
            t0 = fm.t0()
            mu_crit = float(fm.psi(t0)) / fm.mass_q
            tuned = Params(params.s, params.p, params.q, mu_crit, params.N)
            u = w.with_values(t0 * w.values)
            value = psi_mu(u, tuned)
            worst = max(worst, abs(value) / (mu_crit * lebesgue_mass(u, params.q + 1.0)))
            tag_ok = tag_ok and classify(u, tuned).tag is NehariTag.ZERO
        return worst <= 1e-10 and tag_ok, "%.3g" % worst, "residual over concave mass"

    out.append(_run("fibering.degenerate-locus", "psi_mu = 0 at merged roots, tag zero", degenerate_locus))

    def mu_zero_limit():
        u = _random_function(grid, rng)
        fm = FiberMap.of(u, params)
        tbar = (fm.norm_p / fm.mass_star) ** (1.0 / (fm.pstar - fm.p))
        prev_tminus = math.inf
        ok = True
        last_gap = math.nan
        for mu in (1e-2, 1e-4, 1e-6):
            tuned = Params(params.s, params.p, params.q, mu, params.N)
            tminus, tplus = FiberMap.of(u, tuned).roots()
            ok = ok and tminus < prev_tminus
            prev_tminus = tminus
            last_gap = _rel(tplus, tbar)
        return ok and last_gap <= 1e-4, "%.3g" % last_gap, "t+ gap to the mu = 0 root"

    out.append(_run("fibering.small-mu-limit", "t- shrinks, t+ -> zero-mass root", mu_zero_limit))
    return out


def check_constants() -> list[CheckResult]:
    out = []

    def mu_tilde_hand():
        rep = regime_report(Params(0.4, 2.0, 0.5, 0.05, 1), 1.0, 1.0)
        return _rel(rep.mu_tilde, MU_TILDE_HAND) <= 1e-12, "%.17g" % rep.mu_tilde, ""

    out.append(_run("constants.mu-tilde-hand", "%.17g" % MU_TILDE_HAND, mu_tilde_hand))

    def big_m_hand():
        rep = regime_report(Params(0.4, 2.0, 0.5, 0.05, 1), 1.0, 1.0)
        return _rel(rep.big_m, BIG_M_HAND) <= 1e-12, "%.17g" % rep.big_m, ""

    out.append(_run("constants.big-m-hand", "%.17g" % BIG_M_HAND, big_m_hand))

    def q1_hand():
        rep = regime_report(Params(0.5, 2.0, 0.4, 0.05, 4), 1.0, 1.0)
        return _rel(rep.q1, Q1_HAND) <= 1e-12, "%.17g" % rep.q1, ""

    out.append(_run("constants.q1-hand", "%.17g" % Q1_HAND, q1_hand))

    def q2_hand():
        rep = regime_report(Params(0.5, 3.0, 1.0, 0.05, 11), 1.0, 1.0)
        return _rel(rep.q2, Q2_HAND) <= 1e-12, "%.17g" % rep.q2, ""

    out.append(_run("constants.q2-hand", "%.17g" % Q2_HAND, q2_hand))

    def branch_identity():
        # at the branch point the N-free parts of q2 and q3 coincide, and
        # the remaining gap is exactly sp/(N - sp)
        p = (3.0 + math.sqrt(5.0)) / 2.0
        worst = 0.0
        for N, s in ((7, 0.3), (11, 0.5), (23, 0.9)):
            rep = regime_report(Params(s, p, 0.5 * (p - 1.0), 0.05, N), 1.0, 1.0)
            sp = s * p
            worst = max(worst, abs((rep.q2 - rep.q3) - sp / (N - sp)))
            worst = max(worst, abs((p - p / (p - 1.0)) - ((p - 1.0) - (p - 1.0) / p)))
        return worst <= 1e-9, "%.3g" % worst, ""

    out.append(_run("constants.branch-identity", "q2 - q3 = sp/(N-sp) at the branch p", branch_identity))

    def mu_tilde_monotone():
        base = Params(0.4, 2.0, 0.5, 0.05, 1)
        lo = regime_report(base, 1.0, 1.0).mu_tilde
        hi_s = regime_report(base, 1.0, 1.3).mu_tilde
        big_dom = regime_report(base, 2.0, 1.0).mu_tilde
        return hi_s > lo and big_dom < lo, "%.6g/%.6g/%.6g" % (lo, hi_s, big_dom), ""

    out.append(_run("constants.mu-tilde-monotone", "increasing in S, decreasing in |domain|", mu_tilde_monotone))

    def ps_level_decreasing():
        rep = regime_report(Params(0.4, 2.0, 0.5, 0.05, 1), 1.0, 1.0)
        return rep.ps_level(0.1) < rep.ps_level(0.05) < rep.ps_level(0.01), (
            "%.6g > %.6g > %.6g" % (rep.ps_level(0.01), rep.ps_level(0.05), rep.ps_level(0.1))
        ), ""

    out.append(_run("constants.ps-level-decreasing", "threshold falls as mu grows", ps_level_decreasing))

    def default_window():
        rep = regime_report(DEFAULT_PARAMS, 2.0, 1.0)
        ok = rep.regime == "small-p" and not rep.hypothesis_ok and rep.n0 == rep.n0_small_p
        return ok, "regime=%s ok=%s" % (rep.regime, rep.hypothesis_ok), "1-D defaults sit outside the window"

    out.append(_run("constants.default-window", "small-p branch, hypothesis not satisfied", default_window))
    return out


def check_bubble(bubble_n: int = 256, seed: int = 0) -> list[CheckResult]:
    params = DEFAULT_PARAMS
    grid = build_grid(-1.0, 1.0, bubble_n, params)
    hw = grid.halfwidth
    base = BubbleSpec(DEFAULT_EPS_FRACS[0] * hw, DEFAULT_DELTA_FRAC * hw)
    specs = ladder(base, [f * hw for f in DEFAULT_EPS_FRACS])
    eps = [sp.eps for sp in specs]
    out = []

    def profile_monotone():
        r = np.linspace(0.0, 50.0, 20001)
        dec_p2 = np.all(np.diff(profile_u(r, params, "exact-p2")) <= 0.0)
        model_params = Params(0.5, 3.0, 1.0, 0.05, 11)
        dec_model = np.all(np.diff(profile_u(r, model_params, "model")) <= 0.0)
        return bool(dec_p2 and dec_model), "nonincreasing", ""

    out.append(_run("bubble.profile-monotone", "both kinds nonincreasing", profile_monotone))

    def model_halving():
        model_params = Params(0.5, 3.0, 1.0, 0.05, 11)
        theta = 2.0 ** ((model_params.p - 1.0) / (model_params.N - model_params.ps))
        r = np.linspace(1.0, 40.0, 20001)
        ratio = profile_u(r * theta, model_params, "model") / profile_u(r, model_params, "model")
        worst = float(np.max(np.abs(ratio - 0.5)))
        return worst <= 1e-12, "%.3g" % worst, "theta = %.6g" % theta

    out.append(_run("bubble.model-halving", "U(r*theta)/U(r) = 1/2 on the tail", model_halving))

    def cutoff_collar():
        u = make_u_eps(grid, params, specs[0])
        inside = np.abs(grid.nodes - 0.0) <= hw - specs[0].delta
        amp = specs[0].eps ** (-(params.N - params.ps) / params.p)
        want = amp * profile_u(np.abs(grid.nodes[inside]) / specs[0].eps, params, "exact-p2")
        err = float(np.max(np.abs(u.values[inside] - want)))
        return err == 0.0, "%.3g" % err, "cutoff exactly one away from the collar"

    out.append(_run("bubble.collar-identity", "u_eps = profile inside the collar-free region", cutoff_collar))

    def pstar_mass_trend():
        masses = [lebesgue_mass(make_u_eps(grid, params, sp), params.pstar) for sp in specs]
        ok = all(m2 >= m1 * 0.99 for m1, m2 in zip(masses, masses[1:]))
        return ok, "%.6g -> %.6g" % (masses[0], masses[-1]), "critical mass along the ladder"

    out.append(_run("bubble.critical-mass-trend", "nondecreasing as eps shrinks (1% slack)", pstar_mass_trend))

    def quotient_trend():
        s_est = estimate_sobolev(grid, params, iters=600, seed=seed).value
        quotients = [
            seminorm_p(u, params) / lebesgue_mass(u, params.pstar) ** (params.p / params.pstar)
            for u in (make_u_eps(grid, params, sp) for sp in specs)
        ]
        monotone = all(b <= a * 1.01 for a, b in zip(quotients, quotients[1:]))
        gap = abs(quotients[-1] - s_est) / s_est
        return monotone and gap <= 0.10, "%.3g" % gap, "S_est = %.6g, last quotient = %.6g" % (s_est, quotients[-1])

    out.append(_run("bubble.quotient-trend", "ray quotient falls to within 10% of S_est", quotient_trend))

    def regime_threshold():
        regime, threshold = mass_regime(params)
        ok = regime == 1 and abs(threshold - 4.0) <= 1e-12
        return ok, "regime %d, threshold %.17g" % (regime, threshold), ""

    out.append(_run("bubble.mass-regime", "defaults sit in regime 1, threshold 4", regime_threshold))

    def fit_selfcheck():
        fit = fit_exponent(eps, [e ** 2 for e in eps], theory=2.0)
        return abs(fit.slope - 2.0) <= 1e-12, "%.17g" % fit.slope, ""

    out.append(_run("bubble.fit-selfcheck", "exact power law recovers slope 2", fit_selfcheck))

    w_one = GridFunction(grid, np.ones(grid.n))
    for which in INTERACTION_NAMES:
        def interaction_fit(which=which):
            vals = [interaction_integrals(w_one, grid, params, sp, which) for sp in specs]
            fit = fit_exponent(eps, vals, theory=interaction_exponent(params, which))
            # decay-rate laws are one sided: decaying faster than theory is
            # consistent, decaying slower is the failure direction
            ratios = [v / e ** fit.theory for v, e in zip(vals, eps)]
            return (
                fit.slope >= fit.theory - 0.15 * abs(fit.theory),
                "slope %.6g" % fit.slope,
                "theory %.6g, value/eps^theory along the ladder: %s"
                % (fit.theory, ", ".join("%.4g" % r for r in ratios)),
            )

        out.append(
            _run(
                "bubble.fit-%s" % which.lower(),
                "slope >= %.6g - 15%%" % interaction_exponent(params, which),
                interaction_fit,
            )
        )

    def mass_fit():
        fit = lq_mass_scaling(grid, params, specs)
        ratios = [v / e ** fit.theory for v, e in zip(fit.values, fit.eps_ladder)]
        return (
            fit.slope >= fit.theory - 0.15 * abs(fit.theory),
            "slope %.6g" % fit.slope,
            "theory %.6g (%s), value/eps^theory along the ladder: %s"
            % (fit.theory, fit.label, ", ".join("%.4g" % r for r in ratios)),
        )

    out.append(_run("bubble.fit-mass", "concave mass slope >= theory - 15%", mass_fit))
    return out


def check_solver(checks_n: int = 48, seed: int = 0, solver_budget: int = 4000) -> list[CheckResult]:
    params = DEFAULT_PARAMS
    grid = build_grid(-1.0, 1.0, checks_n, params)
    rng = np.random.default_rng(seed)
    out = []

    def projection_fixed_point():
        u = project_minus(_random_function(grid, rng), params)
        fm = FiberMap.of(u, params)
        tplus = fm.tplus()
        return abs(tplus - 1.0) <= 1e-10, "%.3g" % abs(tplus - 1.0), ""

    out.append(_run("solver.projection-fixed-point", "reprojecting changes t+ by <= 1e-10", projection_fixed_point))

    def projection_sign_flip():
        u = _random_function(grid, rng)
        left = project_minus(u.with_values(-u.values), params).values
        right = -project_minus(u, params).values
        err = float(np.max(np.abs(left - right))) / float(np.max(np.abs(right)))
        return err <= 1e-12, "%.3g" % err, ""

    out.append(_run("solver.projection-sign-flip", "projection is odd", projection_sign_flip))

    pos = solve_positive(grid, params, seed=seed, max_iters=solver_budget)
    scale_norm = seminorm_p(pos.u, params)

    def positive_converged():
        return (
            pos.converged,
            "residual %.3g in %d iters" % (pos.residual_norm, pos.iterations),
            "tolerance %.3g" % (1e-6 * (1.0 + abs(pos.energy))),
        )

    out.append(_run("solver.positive-converged", "residual <= 1e-6 * (1 + |energy|)", positive_converged))

    def positive_nonneg():
        frac = pos.minus_part_norm / scale_norm
        return frac <= 1e-8, "%.3g" % frac, "negative part seminorm over scale"

    out.append(_run("solver.positive-nonneg", "negative part below 1e-8 of scale", positive_nonneg))

    def positive_class():
        return pos.nehari.tag is NehariTag.MINUS, pos.nehari.tag.value, ""

    out.append(_run("solver.positive-class", "output classifies minus", positive_class))

    def tplus_identity():
        rep = fiber_roots(pos.u, params)
        return abs(rep.tplus - 1.0) <= 1e-6, "%.3g" % abs(rep.tplus - 1.0), ""

    out.append(_run("solver.tplus-of-solution", "t+ of the solution is 1 within 1e-6", tplus_identity))

    def supfiber_identity():
        sup = sup_over_fiber(pos.u, params)
        gap = _rel(sup.value, energy(pos.u, params).total)
        at_one = abs(sup.t_at - 1.0)
        scaled = sup_over_fiber(pos.u.with_values(3.7 * pos.u.values), params)
        invariance = _rel(scaled.value, sup.value)
        return (
            gap <= 1e-8 and at_one <= 1e-6 and invariance <= 1e-10,
            "%.3g/%.3g/%.3g" % (gap, at_one, invariance),
            "value gap, argmax offset, scale invariance",
        )

    out.append(_run("solver.fiber-sup-identity", "ray sup = energy, attained at t = 1", supfiber_identity))

    u_eps = make_u_eps(grid, params, BubbleSpec(0.1 * grid.halfwidth, 0.25 * grid.halfwidth))
    cross = crossing_search(pos.u, u_eps, params)

    def crossing_classes():
        ok = (
            cross.class_plus_part.tag is NehariTag.MINUS
            and cross.class_minus_part.tag is NehariTag.MINUS
        )
        gap = abs(cross.s_plus - cross.s_minus) / max(cross.s_plus, cross.s_minus)
        return ok and gap <= 1e-6, "gap %.3g" % gap, "both parts minus at the matched scale"

    out.append(_run("solver.crossing-matched", "part scalings matched, parts minus", crossing_classes))

    def crossing_blowup():
        r1, r2 = cross.bracket
        width = r2 - r1
        _, near = part_scales(pos.u, u_eps, params, r1 + 1e-3 * width)
        _, mid = part_scales(pos.u, u_eps, params, r1 + 0.5 * width)
        return near > 10.0 * mid, "%.6g vs %.6g" % (near, mid), "s- near the lower ratio edge"

    out.append(_run("solver.crossing-blowup", "s- blows up at the bracket edge", crossing_blowup))

    sign = solve_sign_changing(
        grid, params, seed=seed, max_iters=max(2500, solver_budget // 2), w1=pos.u
    )

    def sign_structure():
        ok = (
            sign.plus_part_norm > 0.0
            and sign.minus_part_norm > 0.0
            and sign.plus_class.tag is NehariTag.MINUS
            and sign.minus_class.tag is NehariTag.MINUS
        )
        return ok, "parts %.3g / %.3g" % (sign.plus_part_norm, sign.minus_part_norm), ""

    out.append(_run("solver.sign-structure", "both parts present and minus", sign_structure))

    def sign_ordering():
        ok = sign.energy >= pos.energy and bool(sign.split_ok)
        return ok, "%.6g vs %.6g" % (sign.energy, pos.energy), "two-part level above the one-part level"

    out.append(_run("solver.energy-ordering", "sign-changing level >= positive level", sign_ordering))

    def scan_inclusion():
        scan = sup_scan_ab(pos.u, u_eps, params, 2.0, 2.0, 12)
        floor = energy(pos.u, params).total
        return scan.value >= floor - 1e-12 * abs(floor), "%.6g >= %.6g" % (scan.value, floor), ""

    out.append(_run("solver.scan-inclusion", "scan max dominates the solution energy", scan_inclusion))

    def seed_determinism():
        again = solve_positive(grid, params, seed=seed, max_iters=solver_budget)
        same = again.energy == pos.energy and bool(np.array_equal(again.u.values, pos.u.values))
        return same, "bitwise" if same else "differs", ""

    out.append(_run("solver.seed-determinism", "identical seed, identical iterates", seed_determinism))
    return out


def run_battery(
    groups=None,
    *,
    checks_n: int = 48,
    seed: int = 0,
    bubble_n: int = 256,
    solver_budget: int = 4000,
) -> list[CheckResult]:
    """Run the named check groups (all of them by default), in a fixed order."""
    chosen = ALL_GROUPS if groups is None else tuple(groups)
    unknown = [g for g in chosen if g not in ALL_GROUPS]
    if unknown:
        raise ValueError(f"unknown check groups {unknown}; available: {ALL_GROUPS}")
    results: list[CheckResult] = []
    for group in ALL_GROUPS:
        if group not in chosen:
            continue
        if group == "grid":
            results.extend(check_grid())
        elif group == "energy":
            results.extend(check_energy(checks_n, seed))
        elif group == "fibering":
            results.extend(check_fibering(checks_n, seed))
        elif group == "constants":
            results.extend(check_constants())
        elif group == "bubble":
            results.extend(check_bubble(bubble_n, seed))
        elif group == "solver":
            results.extend(check_solver(checks_n, seed, solver_budget))
    return results
