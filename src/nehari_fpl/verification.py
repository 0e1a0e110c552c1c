"""Self-contained property battery behind the verify and energy-check commands.

Each check computes a measured value, compares it against a frozen target
or an inequality, and reports a CheckResult; nothing raises on failure.
Checks of one shape share one judge, so they share the verdict and the
value format: a measured error against its tolerance (_error), a constant
against its hand-evaluated value (_hand), an inequality over random draws
judged on its least margin (_least_margin), and a one-sided slope of the
concentration ladder (_slope_floor).  The frozen numbers were
hand-evaluated from the closed forms before the modules were written and
are deliberately repeated here as literals.  Nothing is settable: grids
have CHECKS_N nodes (BUBBLE_N for bubbles); SEED seeds draws and solves.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bubble import (
    ScalingFit,
    default_bubble,
    fit_exponent,
    ladder,
    ladder_fits,
    make_u_eps,
    mass_regime,
    profile_u,
)
from .constants import estimate_sobolev, regime_report
from .energy import energy, form_a, gradient, lebesgue_mass, seminorm_p, split_parts
from .fibering import FiberMap, NehariTag, classify, fiber_roots, perturbation_derivative, psi_mu
from .grid import GridFunction, Params, build_grid, tail_weight
from .solver import (
    TOL_RES,
    part_scales,
    project_minus,
    solve_positive,
    solve_sign_changing,
    sup_over_fiber,
    sup_scan_ab,
)

DEFAULT_PARAMS = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
SEED = 0
CHECKS_N = 48
BUBBLE_N = 256

# hand-evaluated closed forms, frozen before the modules existed
MU_TILDE_HAND = 0.78843882798753906  # (0.5/8.5)^(1/16) * 8/8.5 at p=2, q=0.5, N=1, s=0.4
BIG_M_HAND = 0.086851218064245117  # same parameter point, |domain| = 1
Q1_HAND = 0.52380952380952372  # 16/10.5 - 1 at N=4, p=2, s=0.5
Q2_HAND = 1.9736842105263159  # 33/9.5 - 3/2 at p=3, s=0.5, N=11
TAIL_HALF_HAND = 4.3527528164806206  # 2 * 2^0.8 / 0.8: midpoint of (0, 1) at ps = 0.8
T0_UNIT_HAND = 0.70176852345018459  # (0.5/8.5)^(1/8): unit norm and critical mass


class CheckResult(NamedTuple):
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


def _error(name: str, target: str, tol: float, measure, draws: int = 1, detail: str = "") -> CheckResult:
    """A measured error against its tolerance: the worst of draws calls of measure() <= tol."""

    def judge():
        err = max(measure() for _ in range(draws))
        return err <= tol, "%.3g" % err, detail

    return _run(name, target, judge)


def _hand(name: str, hand: float, tol: float, compute) -> CheckResult:
    """A constant against its hand-evaluated value, relative error <= tol."""

    def judge():
        value = compute()
        return _rel(value, hand) <= tol, "%.17g" % value, ""

    return _run(name, "%.17g" % hand, judge)


def _least_margin(name: str, target: str, margin, draws: int) -> CheckResult:
    """An inequality margin() >= 0 over draws random draws, judged on the least margin."""

    def judge():
        least = min(margin() for _ in range(draws))
        return least >= 0.0, "%.3g" % least, "min margin over %d draws" % draws

    return _run(name, target, judge)


def _slope_floor(name: str, target: str, fit: ScalingFit) -> CheckResult:
    """A ladder slope no more than 15% of its theory exponent below it.

    Decay-rate laws are one sided: decaying faster than theory is
    consistent, decaying slower is the failure direction.  The detail
    shows value/eps^theory per rung.
    """

    def judge():
        theory = "%.6g" % fit.theory if fit.label is None else "%.6g (%s)" % (fit.theory, fit.label)
        ratios = ", ".join("%.4g" % (v / e ** fit.theory) for v, e in zip(fit.values, fit.eps_ladder))
        return (
            fit.slope >= fit.theory - 0.15 * abs(fit.theory),
            "slope %.6g" % fit.slope,
            "theory %s, value/eps^theory along the ladder: %s" % (theory, ratios),
        )

    return _run(name, target, judge)


def _random_function(grid, rng) -> GridFunction:
    return GridFunction(grid, rng.standard_normal(grid.n))


def check_grid() -> list[CheckResult]:
    params = DEFAULT_PARAMS
    g01 = build_grid(0.0, 1.0, 9, params)

    def layout():
        g = build_grid(-1.0, 1.0, 7, params)
        want = -1.0 + 0.25 * np.arange(1, 8)
        err = float(np.max(np.abs(g.nodes - want)))
        return err <= 1e-15 and g.h == 0.25, "%.3g" % err, ""

    def kernel_sym():
        k = g01.toeplitz()
        asym = float(np.max(np.abs(k - k.T)))
        diag = float(np.max(np.abs(np.diag(k))))
        return asym == 0.0 and diag == 0.0, "%.3g/%.3g" % (asym, diag), ""

    return [
        _hand("grid.tail-closed-form", TAIL_HALF_HAND, 1e-13, lambda: tail_weight(0.5, g01, params)),
        _run("grid.node-layout", "nodes at a + i*h", layout),
        _run("grid.kernel-symmetric", "symmetric, zero diagonal", kernel_sym),
    ]


def check_energy() -> list[CheckResult]:
    params = DEFAULT_PARAMS
    grid = build_grid(-1.0, 1.0, CHECKS_N, params)
    rng = np.random.default_rng(SEED)

    def homogeneity():
        u = _random_function(grid, rng)
        t = 0.3 + 2.0 * rng.random()
        return _rel(seminorm_p(u.with_values(t * u.values), params), t ** params.p * seminorm_p(u, params))

    def pairing_diag():
        u = _random_function(grid, rng)
        return _rel(form_a(u, u, params), seminorm_p(u, params))

    def gradient_fd():
        u = _random_function(grid, rng)
        g = gradient(u, params).values
        worst = 0.0
        for _ in range(3):
            d = rng.standard_normal(grid.n)
            d /= float(np.max(np.abs(d)))
            eps = 1e-6
            ep = energy(u.with_values(u.values + eps * d), params)
            em = energy(u.with_values(u.values - eps * d), params)
            worst = max(worst, _rel((ep - em) / (2.0 * eps), float(np.dot(g, d))))
        return worst

    def superadd():
        u = _random_function(grid, rng)
        plus, minus = split_parts(u)
        return seminorm_p(u, params) - seminorm_p(plus, params) - seminorm_p(minus, params)

    def mass_split():
        worst = 0.0
        for r in (params.q + 1.0, params.pstar):
            u = _random_function(grid, rng)
            plus, minus = split_parts(u)
            worst = max(worst, _rel(lebesgue_mass(u, r), lebesgue_mass(plus, r) + lebesgue_mass(minus, r)))
        return worst

    def energy_split():
        u = _random_function(grid, rng)
        plus, minus = split_parts(u)
        return energy(u, params) - energy(plus, params) - energy(minus.with_values(-minus.values), params)

    def positivity_pairing():
        u = _random_function(grid, rng)
        _, minus = split_parts(u)
        return form_a(u, minus.with_values(-minus.values), params) - seminorm_p(minus, params)

    def determinism():
        u = _random_function(grid, rng)
        first = energy(u, params)
        second = energy(u, params)
        return first == second, "bitwise" if first == second else "differs", ""

    return [
        _error("energy.homogeneity", "rel err <= 1e-12", 1e-12, homogeneity, draws=10),
        _error("energy.pairing-diagonal", "form_a(u,u) = seminorm, rel <= 1e-12", 1e-12, pairing_diag, draws=10),
        _error("energy.gradient-fd", "directional rel err <= 1e-6", 1e-6, gradient_fd, draws=5),
        _least_margin("energy.superadditivity", "seminorm(u) >= parts, margin >= 0", superadd, draws=50),
        _error("energy.mass-split", "masses split exactly across parts", 1e-14, mass_split),
        _least_margin("energy.split-lower-bound", "I(u) >= I(u+) + I(-u-)", energy_split, draws=50),
        _least_margin("energy.positivity-pairing", "A(u,-u-) >= seminorm(u-)", positivity_pairing, draws=50),
        _run("energy.bit-determinism", "repeated evaluation identical", determinism),
    ]


def check_fibering() -> list[CheckResult]:
    params = DEFAULT_PARAMS
    grid = build_grid(-1.0, 1.0, CHECKS_N, params)
    rng = np.random.default_rng(SEED)
    unit = FiberMap(1.0, 1.0, 1.0, 2.0, 0.5, 10.0, params.mu)

    def peak_property():
        fm = FiberMap.of(_random_function(grid, rng), params)
        t0 = fm.t0()
        # psi'(t0) = 0 algebraically; measure the float residual
        dpsi = (
            (fm.p - 1.0 - fm.q) * t0 ** (fm.p - 2.0 - fm.q) * fm.norm_p
            - (fm.pstar - fm.q - 1.0) * t0 ** (fm.pstar - fm.q - 2.0) * fm.mass_star
        )
        return abs(dpsi) * t0 / max(fm.norm_p, fm.mass_star)

    def roots_order():
        worst = 0.0
        ok = True
        for _ in range(30):
            fm = FiberMap.of(_random_function(grid, rng), params)
            t0 = fm.t0()
            tminus, tplus = fm.roots()
            ok = ok and (tminus < t0 < tplus)
            c = fm.concave_mass
            scale = max(abs(float(fm.psi(t0))), c)
            worst = max(
                worst,
                abs(float(fm.psi(tminus)) - c) / scale,
                abs(float(fm.psi(tplus)) - c) / scale,
            )
        # measured 7.5e-16 at seed 0
        return ok and worst <= 1e-13, "%.3g" % worst, "root residual over max(|psi(t0)|, mu m_q)"

    def roots_vs_scan():
        # the points of np.linspace(start, stop, points) by linspace's own
        # arithmetic, t_i = i step + start with the last one exactly stop,
        # walked in blocks so that no full-length array is built; a crossing
        # at i is a sign change of psi - mu m_q between t_i and t_(i+1), and
        # the last sign of a block carries into the next
        points, block = 200001, 8192
        worst = 0.0
        for _ in range(5):
            fm = FiberMap.of(_random_function(grid, rng), params)
            tminus, tplus = fm.roots()
            start, stop = 1e-9, 3.0 * tplus
            step = (stop - start) / (points - 1)
            count, first, last, prev = 0, 0, 0, np.empty(0)
            for lo in range(0, points, block):
                ts = np.arange(lo, min(lo + block, points), dtype=np.float64) * step + start
                if lo + block >= points:
                    ts[-1] = stop
                signs = np.concatenate((prev, np.sign(fm.psi(ts) - fm.concave_mass)))
                flips = np.flatnonzero(np.diff(signs)) + (lo - prev.size)
                if flips.size:
                    if not count:
                        first = flips[0]
                    last, count = flips[-1], count + flips.size
                prev = signs[-1:]
            if count < 2:
                return False, "scan found %d crossings" % count, ""
            cell = (step + start) - start
            t_first, t_last = first * step + start, last * step + start
            worst = max(worst, abs(t_first - tminus), abs(t_last - tplus))
            if abs(t_first - tminus) > 2.0 * cell or abs(t_last - tplus) > 2.0 * cell:
                return False, "%.3g" % worst, "ray root outside scan cell"
        return True, "%.3g" % worst, "max distance to scan crossing"

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

    def expr_spread():
        rep = fiber_roots(_random_function(grid, rng), params)
        return max(cls.expr_spread / abs(cls.second_deriv) for cls in (rep.class_minus, rep.class_plus))

    def perturbation_fd():
        u0 = _random_function(grid, rng)
        u = project_minus(u0, params)
        direction = _random_function(grid, rng)
        scale = float(np.max(np.abs(u.values))) / float(np.max(np.abs(direction.values)))
        phi = direction.with_values(direction.values * scale)
        analytic = perturbation_derivative(u, phi, params)
        eps = 1e-5
        tp = FiberMap.of(u.with_values(u.values + eps * phi.values), params).tplus()
        tm = FiberMap.of(u.with_values(u.values - eps * phi.values), params).tplus()
        return _rel((tp - tm) / (2.0 * eps), analytic)

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
        return ok and last_gap <= 1e-6, "%.3g" % last_gap, "t+ gap to the mu = 0 root"

    return [
        _hand("fibering.t0-closed-form", T0_UNIT_HAND, 1e-14, unit.t0),
        _error("fibering.peak-stationarity", "psi'(t0) = 0 to rounding", 1e-12, peak_property, draws=10),
        _run("fibering.roots-bracket-order", "t- < t0 < t+, residual <= 1e-13", roots_order),
        _run("fibering.roots-vs-scan", "ray roots inside scan cells", roots_vs_scan),
        _run("fibering.projection-classes", "t- stable, t+ unstable", projection_classes),
        _error(
            "fibering.expr-agreement", "four expressions within 1e-10", 1e-10, expr_spread, draws=10,
            detail="spread over |phi''(1)|",
        ),
        _error("fibering.perturbation-fd", "rescaling derivative, rel <= 1e-3", 1e-3, perturbation_fd, draws=5),
        _run("fibering.degenerate-locus", "psi_mu = 0 at merged roots, tag zero", degenerate_locus),
        _run("fibering.small-mu-limit", "t- shrinks, t+ -> zero-mass root", mu_zero_limit),
    ]


def check_constants() -> list[CheckResult]:
    def report(s=0.4, p=2.0, q=0.5, N=1):
        return regime_report(Params(s, p, q, 0.05, N), 1.0, 1.0)

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
        return worst

    def mu_tilde_monotone():
        base = Params(0.4, 2.0, 0.5, 0.05, 1)
        lo = regime_report(base, 1.0, 1.0).mu_tilde
        hi_s = regime_report(base, 1.0, 1.3).mu_tilde
        big_dom = regime_report(base, 2.0, 1.0).mu_tilde
        return hi_s > lo and big_dom < lo, "%.6g/%.6g/%.6g" % (lo, hi_s, big_dom), ""

    def ps_level_decreasing():
        rep = report()
        return rep.ps_level(0.1) < rep.ps_level(0.05) < rep.ps_level(0.01), (
            "%.6g > %.6g > %.6g" % (rep.ps_level(0.01), rep.ps_level(0.05), rep.ps_level(0.1))
        ), ""

    def default_window():
        rep = regime_report(DEFAULT_PARAMS, 2.0, 1.0)
        ok = rep.regime == "small-p" and not rep.hypothesis_ok and rep.n0 == rep.n0_small_p
        return ok, "regime=%s ok=%s" % (rep.regime, rep.hypothesis_ok), "1-D defaults sit outside the window"

    return [
        _hand("constants.mu-tilde-hand", MU_TILDE_HAND, 1e-12, lambda: report().mu_tilde),
        _hand("constants.big-m-hand", BIG_M_HAND, 1e-12, lambda: report().big_m),
        _hand("constants.q1-hand", Q1_HAND, 1e-12, lambda: report(0.5, 2.0, 0.4, 4).q1),
        _hand("constants.q2-hand", Q2_HAND, 1e-12, lambda: report(0.5, 3.0, 1.0, 11).q2),
        _error("constants.branch-identity", "q2 - q3 = sp/(N-sp) at the branch p", 1e-10, branch_identity),
        _run("constants.mu-tilde-monotone", "increasing in S, decreasing in |domain|", mu_tilde_monotone),
        _run("constants.ps-level-decreasing", "threshold falls as mu grows", ps_level_decreasing),
        _run("constants.default-window", "small-p branch, hypothesis not satisfied", default_window),
    ]


def check_bubble() -> list[CheckResult]:
    params = DEFAULT_PARAMS
    grid = build_grid(-1.0, 1.0, BUBBLE_N, params)
    specs = ladder(default_bubble(grid))
    bubbles, fits = ladder_fits(grid, params, specs)
    model_params = Params(0.5, 3.0, 1.0, 0.05, 11)
    theta = 2.0 ** ((model_params.p - 1.0) / (model_params.N - model_params.ps))

    def profile_monotone():
        r = np.linspace(0.0, 50.0, 20001)
        dec_p2 = np.all(np.diff(profile_u(r, params)) <= 0.0)
        dec_model = np.all(np.diff(profile_u(r, model_params)) <= 0.0)
        return bool(dec_p2 and dec_model), "nonincreasing", ""

    def model_halving():
        r = np.linspace(1.0, 40.0, 20001)
        ratio = profile_u(r * theta, model_params) / profile_u(r, model_params)
        return float(np.max(np.abs(ratio - 0.5)))

    def cutoff_collar():
        inside = np.abs(grid.nodes - 0.0) <= grid.halfwidth - specs[0].delta
        amp = specs[0].eps ** (-(params.N - params.ps) / params.p)
        want = amp * profile_u(np.abs(grid.nodes[inside]) / specs[0].eps, params)
        return float(np.max(np.abs(bubbles[0].values[inside] - want)))

    def pstar_mass_trend():
        masses = [lebesgue_mass(u, params.pstar) for u in bubbles]
        ok = all(m2 >= m1 * 0.99 for m1, m2 in zip(masses, masses[1:]))
        return ok, "%.6g -> %.6g" % (masses[0], masses[-1]), "critical mass along the ladder"

    def quotient_trend():
        s_est = estimate_sobolev(grid, params, seed=SEED).value
        quotients = [
            seminorm_p(u, params) / lebesgue_mass(u, params.pstar) ** (params.p / params.pstar)
            for u in bubbles
        ]
        monotone = all(b <= a * 1.01 for a, b in zip(quotients, quotients[1:]))
        gap = abs(quotients[-1] - s_est) / s_est
        return monotone and gap <= 0.10, "%.3g" % gap, "S_est = %.6g, last quotient = %.6g" % (s_est, quotients[-1])

    def regime_threshold():
        regime, threshold = mass_regime(params)
        ok = regime == 1 and abs(threshold - 4.0) <= 1e-12
        return ok, "regime %d, threshold %.17g" % (regime, threshold), ""

    def fit_selfcheck():
        eps = [sp.eps for sp in specs]
        fit = fit_exponent(eps, [e ** 2 for e in eps], theory=2.0)
        return abs(fit.slope - 2.0) <= 1e-12, "%.17g" % fit.slope, ""

    def fit_target(which):
        if which == "mass":
            return "concave mass slope >= theory - 15%"
        return "slope >= %.6g - 15%%" % fits[which].theory

    return [
        _run("bubble.profile-monotone", "p = 2 extremal and p = 3 envelope nonincreasing", profile_monotone),
        _error(
            "bubble.model-halving", "U(r*theta)/U(r) = 1/2 on the tail", 1e-15, model_halving,
            detail="theta = %.6g" % theta,
        ),
        _error(
            "bubble.collar-identity", "u_eps = profile inside the collar-free region", 0.0, cutoff_collar,
            detail="cutoff exactly one away from the collar",
        ),
        _run("bubble.critical-mass-trend", "nondecreasing as eps shrinks (1% slack)", pstar_mass_trend),
        _run("bubble.quotient-trend", "ray quotient falls to within 10% of S_est", quotient_trend),
        _run("bubble.mass-regime", "defaults sit in regime 1, threshold 4", regime_threshold),
        _run("bubble.fit-selfcheck", "exact power law recovers slope 2", fit_selfcheck),
        *(_slope_floor("bubble.fit-%s" % w.lower(), fit_target(w), fit) for w, fit in fits.items()),
    ]


def check_solver() -> list[CheckResult]:
    params = DEFAULT_PARAMS
    grid = build_grid(-1.0, 1.0, CHECKS_N, params)
    rng = np.random.default_rng(SEED)
    pos = solve_positive(grid, params, seed=SEED)
    bubble = default_bubble(grid)
    u_eps = make_u_eps(grid, params, bubble)
    sign = solve_sign_changing(grid, params, w1=pos.u, bubble=bubble)
    # the solve's crossing, made on u_eps
    cross = sign.crossing

    def reprojection():
        u = project_minus(_random_function(grid, rng), params)
        return abs(FiberMap.of(u, params).tplus() - 1.0)

    def projection_sign_flip():
        u = _random_function(grid, rng)
        left = project_minus(u.with_values(-u.values), params).values
        right = -project_minus(u, params).values
        return float(np.max(np.abs(left - right))) / float(np.max(np.abs(right)))

    def positive_converged():
        return (
            pos.converged,
            "residual %.3g in %d iters" % (pos.residual_norm, pos.iterations),
            "tolerance %.3g" % (TOL_RES * (1.0 + abs(pos.energy))),
        )

    def positive_nonneg():
        return seminorm_p(split_parts(pos.u)[1], params) / seminorm_p(pos.u, params)

    def positive_class():
        return pos.nehari.tag is NehariTag.MINUS, pos.nehari.tag.value, ""

    def supfiber_identity():
        sup = sup_over_fiber(pos.u, params)
        gap = _rel(sup.value, energy(pos.u, params))
        at_one = abs(sup.t_at - 1.0)
        scaled = sup_over_fiber(pos.u.with_values(3.7 * pos.u.values), params)
        invariance = _rel(scaled.value, sup.value)
        return (
            gap <= 1e-8 and at_one <= 1e-6 and invariance <= 1e-10,
            "%.3g/%.3g/%.3g" % (gap, at_one, invariance),
            "value gap, argmax offset, scale invariance",
        )

    def crossing_classes():
        ok = (
            cross.class_plus_part.tag is NehariTag.MINUS
            and cross.class_minus_part.tag is NehariTag.MINUS
        )
        gap = abs(cross.s_plus - cross.s_minus) / max(cross.s_plus, cross.s_minus)
        return ok and gap <= 1e-6, "gap %.3g" % gap, "both parts minus at the matched scale"

    def crossing_blowup():
        r1, r2 = cross.bracket
        width = r2 - r1
        _, near = part_scales(pos.u, u_eps, params, r1 + 1e-3 * width)
        _, mid = part_scales(pos.u, u_eps, params, r1 + 0.5 * width)
        return near > 10.0 * mid, "%.6g vs %.6g" % (near, mid), "s- near the lower ratio edge"

    def sign_structure():
        ok = (
            sign.plus_part_norm > 0.0
            and sign.minus_part_norm > 0.0
            and sign.plus_class.tag is NehariTag.MINUS
            and sign.minus_class.tag is NehariTag.MINUS
        )
        return ok, "parts %.3g / %.3g" % (sign.plus_part_norm, sign.minus_part_norm), ""

    def sign_ordering():
        ok = sign.energy >= pos.energy and bool(sign.split_ok)
        return ok, "%.6g vs %.6g" % (sign.energy, pos.energy), "two-part level above the one-part level"

    def scan_inclusion():
        scan = sup_scan_ab(pos.u, u_eps, params)
        floor = energy(pos.u, params)
        return scan.value >= floor - 1e-12 * abs(floor), "%.6g >= %.6g" % (scan.value, floor), ""

    def seed_determinism():
        again = solve_positive(grid, params, seed=SEED)
        same = again.energy == pos.energy and bool(np.array_equal(again.u.values, pos.u.values))
        return same, "bitwise" if same else "differs", ""

    return [
        _error("solver.projection-fixed-point", "reprojecting changes t+ by <= 1e-10", 1e-10, reprojection),
        _error("solver.projection-sign-flip", "projection is odd, bitwise", 0.0, projection_sign_flip),
        _run(
            "solver.positive-converged",
            "residual <= %s * (1 + |energy|)" % np.format_float_scientific(TOL_RES, trim="-", exp_digits=1),
            positive_converged,
        ),
        _error(
            "solver.positive-nonneg", "negative part below 1e-8 of scale", 1e-8, positive_nonneg,
            detail="negative part seminorm over scale",
        ),
        _run("solver.positive-class", "output classifies minus", positive_class),
        _error(
            "solver.tplus-of-solution", "t+ of the solution is 1 within 1e-6", 1e-6,
            lambda: abs(fiber_roots(pos.u, params).tplus - 1.0),
        ),
        _run("solver.fiber-sup-identity", "ray sup = energy, attained at t = 1", supfiber_identity),
        _run("solver.crossing-matched", "part scalings matched, parts minus", crossing_classes),
        _run("solver.crossing-blowup", "s- blows up at the bracket edge", crossing_blowup),
        _run("solver.sign-structure", "both parts present and minus", sign_structure),
        _run("solver.energy-ordering", "sign-changing level >= positive level", sign_ordering),
        _run("solver.scan-inclusion", "scan max dominates the solution energy", scan_inclusion),
        _run("solver.seed-determinism", "identical seed, identical iterates", seed_determinism),
    ]


_GROUPS = {
    "grid": check_grid,
    "energy": check_energy,
    "fibering": check_fibering,
    "constants": check_constants,
    "bubble": check_bubble,
    "solver": check_solver,
}
ALL_GROUPS = tuple(_GROUPS)


def run_battery(groups=None) -> list[CheckResult]:
    """Run the named check groups (all of them by default), in a fixed order."""
    chosen = ALL_GROUPS if groups is None else tuple(groups)
    unknown = [g for g in chosen if g not in ALL_GROUPS]
    if unknown:
        raise ValueError(f"unknown check groups {unknown}; available: {ALL_GROUPS}")
    results: list[CheckResult] = []
    for group, check in _GROUPS.items():
        if group in chosen:
            results.extend(check())
    return results
