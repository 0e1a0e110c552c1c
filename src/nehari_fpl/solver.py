"""Constrained descent on the unstable side of the manifold.

Both solvers are projected gradient descent: take an explicit gradient
step, rescale back onto the fiber maximum (whole ray for the positive
solve, each sign part separately for the sign-changing solve), and accept
the step only if the projected energy satisfies an Armijo decrease.  The
projection is the fiber maximum, so on the manifold the envelope theorem
makes the accepted-step energy sequence genuinely nonincreasing.

The descent direction is the Riesz representative of the nodal gradient g
in an inner product, and the two solves use different ones:

* The one-sign solve descends along the Sobolev gradient -A^{-1} g, with
  A the grid's p = 2 seminorm operator (energy.stiffness_action), the
  discrete H^s inner product the seminorm itself defines (Neuberger,
  LNM 1670).  A^{-1} g comes from Jacobi-preconditioned conjugate
  gradients to RIESZ_RTOL relative residual.  The full step is usually
  accepted and the iteration count does not grow with n.  At p != 2
  the same operator on that grid's kernel serves as the metric.
* The two-part sign-changing descent keeps the L2 direction -g/h, the
  Riesz representative in h * sum u_i v_i.  The set it searches holds no
  critical point, so it can only end on a stalled line search; along the
  L2 direction it stalls within a few dozen iterations, while along the
  H^s direction it keeps creeping and spends its whole budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubble import DEFAULT_DELTA_FRAC, DEFAULT_EPS_FRACS, BubbleSpec, default_profile_kind, make_u_eps
from .constants import compactness_gap
from .energy import energy, form_a, gradient, seminorm_p, split_parts, stiffness_action
from .errors import (
    CollapseError,
    DegenerateInputError,
    NoCrossingError,
    NoRootsError,
    SolverError,
)
from .fibering import FiberMap, NehariClass, classify
from .grid import Grid, GridFunction, Params

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
ALPHA_FLOOR = 1e-16
COLLAPSE_FACTOR = 1e-10
# _riesz_direction: conjugate gradients stop at |A x - g| <= RIESZ_RTOL |g|
RIESZ_RTOL = 0.1
# sup_scan_ab: angles per scan of the ray-angle bracket, and scans made.
# Each scan after the first spans the two neighbours of the previous
# scan's best angle, so the bracket shrinks 8x per scan to ~5e-11 rad.
SCAN_ANGLES = 17
SCAN_ROUNDS = 12


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a constrained descent run.

    plus_class / minus_class hold the part classifications of a
    sign-changing run; the c2 / gap fields compare the sign-changing level
    against its structural lower and upper bounds when the inputs needed
    for them are available.  cross_plus / cross_minus record the pairing
    of the full gradient with each part at the final iterate.  For a
    two-part function this pairing equals the nonlocal cross interaction
    of the parts, which is strictly positive, so it is the floor under the
    full-gradient residual of any two-part run.

    stop_reason says why the descent ended: ``converged`` (residual below
    tolerance), ``stalled`` (the line search found no acceptable step) or
    ``budget`` (the iteration or restart budget ran out first).
    armijo_trials counts the projected line-search trials over all starts.
    """

    u: GridFunction
    energy: float
    residual_norm: float
    iterations: int
    nehari: NehariClass
    plus_part_norm: float
    minus_part_norm: float
    converged: bool
    stop_reason: str
    armijo_trials: int
    restarts: int = 0
    plus_class: NehariClass | None = None
    minus_class: NehariClass | None = None
    crossing: "CrossingResult | None" = None
    c2_split_lower: float | None = None
    split_ok: bool | None = None
    ps_gap_bound: float | None = None
    ps_gap_ok: bool | None = None
    cross_plus: float | None = None
    cross_minus: float | None = None


@dataclass(frozen=True)
class FiberSupremum:
    """Supremum of the ray energy over t >= 0.

    via_roots is False when the ray has no two crossings; the energy then
    falls on all of (0, inf) and the supremum is I(0) = 0 at t = 0.
    """

    value: float
    via_roots: bool
    t_at: float


@dataclass(frozen=True)
class CrossingResult:
    """Matched two-part scaling a*(w1 - r*u_eps) produced by the crossing search."""

    r: float
    a: float
    b: float
    ansatz: GridFunction
    bracket: tuple
    s_plus: float
    s_minus: float
    class_plus_part: NehariClass
    class_minus_part: NehariClass


@dataclass(frozen=True)
class SupScanResult:
    """Maximum of I(a*w1 - b*u_eps) over the half-plane a >= 0."""

    value: float
    a_at: float
    b_at: float


def _project_ray(u: GridFunction, params: Params, plus_variant: bool = False):
    """(t+ u, I(t+ u)), the energy read off the closed form phi(t+)."""
    fm = FiberMap.of(u, params, plus_variant)
    tplus = fm.tplus()
    return u.with_values(tplus * u.values), float(fm.phi(tplus))


def _stop_reason(converged: bool, stalled: bool) -> str:
    if converged:
        return "converged"
    return "stalled" if stalled else "budget"


def project_minus(u: GridFunction, params: Params, plus_variant: bool = False) -> GridFunction:
    """Rescale u onto the fiber maximum t+(u) * u."""
    return _project_ray(u, params, plus_variant)[0]


def _project_parts(u: GridFunction, params: Params) -> GridFunction:
    """Rescale each sign part onto its own fiber maximum."""
    plus, minus = split_parts(u)
    plus_scaled = _project_ray(plus, params)[0]
    minus_scaled = _project_ray(minus, params)[0]
    return u.with_values(plus_scaled.values - minus_scaled.values)


def _positive_bump(grid: Grid, rng) -> GridFunction:
    base = np.sin(np.pi * (grid.nodes - grid.a) / (grid.b - grid.a))
    return GridFunction(grid, base * (0.8 + 0.4 * rng.random(grid.n)))


def solve_positive(
    grid: Grid,
    params: Params,
    seed: int = 0,
    max_iters: int = 5000,
    *,
    tol_res: float = 1e-6,
    tol_manifold: float = 1e-8,
    max_restarts: int = 5,
) -> SolveResult:
    """Minimize the plus-variant energy over the unstable manifold side.

    Needs mu below the two-root threshold of the configuration so the
    projection exists everywhere it is asked for.  The plus-variant
    Lebesgue terms reward only the positive part while the seminorm pays
    for both, so descent starves the negative part; the result's negative
    part seminorm is reported through minus_part_norm and shrinks to
    rounding level at convergence.
    """
    rng = np.random.default_rng(seed)
    restarts_used = 0
    iterations = 0
    trials = 0
    stalled = False
    u = None
    for attempt in range(max_restarts + 1):
        restarts_used = attempt
        start = _positive_bump(grid, rng)
        try:
            candidate = _project_ray(start, params, plus_variant=True)[0]
        except (NoRootsError, DegenerateInputError):
            continue
        u, iterations, stalled, start_trials = _descend(
            candidate, params, max_iters - iterations, tol_res, plus_variant=True,
            iterations_base=iterations, sobolev=True,
        )
        trials += start_trials
        g = gradient(u, params, plus_variant=True)
        e_total = energy(u, params, plus_variant=True).total
        if float(np.max(np.abs(g.values))) <= tol_res * (1.0 + abs(e_total)):
            break
        if iterations >= max_iters:
            break
    if u is None:
        # every start failed to project; report the last bump, unconverged
        u = _positive_bump(grid, rng)
    e_total = energy(u, params, plus_variant=True).total
    res = float(np.max(np.abs(gradient(u, params, plus_variant=True).values)))
    converged = res <= tol_res * (1.0 + abs(e_total))
    plus, minus = split_parts(u)
    return SolveResult(
        u=u,
        energy=e_total,
        residual_norm=res,
        iterations=iterations,
        nehari=classify(u, params, tol_manifold, plus_variant=True),
        plus_part_norm=seminorm_p(plus, params),
        minus_part_norm=seminorm_p(minus, params),
        converged=converged,
        stop_reason=_stop_reason(converged, stalled),
        armijo_trials=trials,
        restarts=restarts_used,
    )


def _riesz_direction(grid: Grid, g: np.ndarray) -> np.ndarray:
    """Approximate A^{-1} g, A the grid's p = 2 seminorm operator.

    Jacobi-preconditioned conjugate gradients from x = 0, stopped once
    |A x - g| <= RIESZ_RTOL |g| or after n steps.  Every iterate is the
    A-orthogonal projection of A^{-1} g onto a Krylov space, so
    g . x = x . A x > 0 and -x is a descent direction however early the
    iteration stops.
    """
    # the diagonal of A; the kernel's own diagonal is zero
    diag = 2.0 * grid.h ** 2 * grid.row_sums + 2.0 * grid.h * grid.tail
    x = np.zeros_like(g)
    r = g.copy()
    z = r / diag
    d = z.copy()
    rz = float(np.dot(r, z))
    stop = RIESZ_RTOL * float(np.linalg.norm(g))
    for _ in range(grid.n):
        if float(np.linalg.norm(r)) <= stop:
            break
        ad = stiffness_action(grid, d)
        step = rz / float(np.dot(d, ad))
        x += step * d
        r -= step * ad
        z = r / diag
        rz, rz_old = float(np.dot(r, z)), rz
        d = z + (rz / rz_old) * d
    return x


def _descend(u, params, budget, tol_res, *, plus_variant, iterations_base,
             sobolev, project=None, on_accept=None):
    """Shared projected-descent loop; returns (u, iterations, stalled, trials).

    sobolev selects the direction: -A^{-1} g (the H^s Riesz representative,
    see _riesz_direction) for the one-sign solve, or -g/h (the L2 one) for
    the two-part descent, which stalls sooner along it (module docstring).
    trials counts the projected line-search trials.  project(v) returns
    the projected trial and its energy.  The default ray projection reads
    the energy off the closed form phi(t+) of the map it has just built,
    with no second seminorm evaluation.
    """
    if project is None:
        def project(v):
            return _project_ray(v, params, plus_variant=plus_variant)
    h = u.grid.h
    e_total = energy(u, params, plus_variant=plus_variant).total
    iterations = iterations_base
    trials = 0
    stalled = False
    for _ in range(max(budget, 0)):
        iterations += 1
        g = gradient(u, params, plus_variant=plus_variant).values
        if float(np.max(np.abs(g))) <= tol_res * (1.0 + abs(e_total)):
            iterations -= 1
            break
        d = -_riesz_direction(u.grid, g) if sobolev else -g / h
        slope = float(np.dot(g, d))
        alpha = 1.0
        accepted = False
        while alpha >= ALPHA_FLOOR:
            trials += 1
            try:
                trial, e_trial = project(u.with_values(u.values + alpha * d))
            except (NoRootsError, DegenerateInputError):
                alpha *= ARMIJO_SHRINK
                continue
            if e_trial <= e_total + ARMIJO_C * alpha * slope:
                accepted = True
                break
            alpha *= ARMIJO_SHRINK
        if not accepted:
            stalled = True
            break
        u, e_total = trial, e_trial
        if on_accept is not None:
            on_accept(u)
    return u, iterations, stalled, trials


def sup_over_fiber(u0: GridFunction, params: Params, plus_variant: bool = False) -> FiberSupremum:
    """Supremum of the ray energy t -> I(t * u0) over t >= 0.

    The ray energy falls from I(0) = 0 to its local minimum at t-, rises to
    its local maximum at t+ and falls for good after that, so the supremum
    is max(0, phi(t+)).  Without the two crossings it falls on all of
    (0, inf) and the supremum is 0 at t = 0.
    """
    fm = FiberMap.of(u0, params, plus_variant)
    try:
        tplus = fm.tplus()
    except NoRootsError:
        return FiberSupremum(0.0, False, 0.0)
    value = float(fm.phi(tplus))
    if value <= 0.0:
        return FiberSupremum(0.0, True, 0.0)
    return FiberSupremum(value, True, tplus)


def part_scales(w1: GridFunction, u_eps: GridFunction, params: Params, r: float):
    """Fiber-maximum scalings (s+, s-) of the parts of w1 - r * u_eps."""
    v = w1.values - r * u_eps.values
    vp = np.maximum(v, 0.0)
    vm = np.maximum(-v, 0.0)
    if not vp.any() or not vm.any():
        raise DegenerateInputError(f"w1 - r*u_eps has no sign change at r = {r}")
    s_plus = FiberMap.of(w1.with_values(vp), params).tplus()
    s_minus = FiberMap.of(w1.with_values(vm), params).tplus()
    return s_plus, s_minus


def crossing_search(
    w1: GridFunction,
    u_eps: GridFunction,
    params: Params,
    tol_cross: float = 1e-6,
) -> CrossingResult:
    """Find r with matched part scalings s+(r) = s-(r) =: a.

    The admissible ratios r live between rbar1 = min(w1/u_eps) and
    rbar2 = max(w1/u_eps) over nodes carrying bubble mass.  As r falls to
    rbar1 the negative part vanishes and s- blows up; as r rises to rbar2
    the positive part vanishes and s+ blows up.  Continuity in between
    forces a crossing, located here by bisection on s+ - s-.
    """
    uv = u_eps.values
    peak = float(np.max(np.abs(uv)))
    if peak <= 0.0:
        raise DegenerateInputError("u_eps vanishes identically")
    mask = uv > 1e-12 * peak
    if not np.any(mask):
        raise DegenerateInputError("u_eps has no nodes above the mass threshold")
    ratios = w1.values[mask] / uv[mask]
    r1, r2 = float(np.min(ratios)), float(np.max(ratios))
    width = r2 - r1
    if not width > 0.0:
        raise NoCrossingError("ratio bracket is a single point", [])
    trace = []

    def eval_gap(r):
        s_plus, s_minus = part_scales(w1, u_eps, params, r)
        trace.append((r, s_plus, s_minus))
        return s_plus - s_minus, s_plus, s_minus

    def probe(from_end, sign):
        off = 1e-6 * width
        for _ in range(60):
            r = from_end + sign * off
            try:
                return r, eval_gap(r)
            except DegenerateInputError:
                off *= 2.0
        raise NoCrossingError("could not find valid probes inside the bracket", trace)

    lo, (gap_lo, *_rest) = probe(r1, +1.0)
    hi, (gap_hi, *_rest) = probe(r2, -1.0)
    if not (gap_lo < 0.0 < gap_hi):
        raise NoCrossingError(
            f"no sign change of s+ - s- on [{lo:.6g}, {hi:.6g}]", trace
        )
    r_star, s_plus, s_minus = lo, math.nan, math.nan
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        gap, s_plus, s_minus = eval_gap(mid)
        r_star = mid
        if abs(gap) <= tol_cross * max(abs(s_plus), abs(s_minus)):
            break
        if gap < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * width:
            break
    else:
        raise NoCrossingError("crossing bisection did not converge", trace)
    a = 0.5 * (s_plus + s_minus)
    ansatz = w1.with_values(a * (w1.values - r_star * uv))
    plus, minus = split_parts(ansatz)
    tol_cls = max(1e-8, 10.0 * tol_cross)
    return CrossingResult(
        r=r_star,
        a=a,
        b=a * r_star,
        ansatz=ansatz,
        bracket=(r1, r2),
        s_plus=s_plus,
        s_minus=s_minus,
        class_plus_part=classify(plus, params, tol_cls),
        class_minus_part=classify(minus, params, tol_cls),
    )


def default_bubble(grid: Grid, params: Params) -> BubbleSpec:
    """Bubble used by the sign-changing pipeline when none is configured."""
    return BubbleSpec(
        DEFAULT_EPS_FRACS[0] * grid.halfwidth, DEFAULT_DELTA_FRAC * grid.halfwidth, None,
        default_profile_kind(params),
    )


def solve_sign_changing(
    grid: Grid,
    params: Params,
    seed: int = 0,
    max_iters: int = 5000,
    *,
    w1: GridFunction | None = None,
    bubble: BubbleSpec | None = None,
    tol_res: float = 1e-6,
    tol_manifold: float = 1e-8,
    tol_cross: float = 1e-6,
    max_restarts: int = 5,
    s_est: float | None = None,
) -> SolveResult:
    """Two-part descent from the crossing ansatz.

    Runs the positive solve first (unless w1 is supplied), builds the
    bubble, matches the part scalings with crossing_search, then descends
    the full energy while keeping both parts on their fiber maxima.  If
    the crossing fails for the configured bubble the search retries with a
    geometrically shrunken concentration scale, at most max_restarts times.
    """
    alpha_minus = None
    if w1 is None:
        pos = solve_positive(
            grid, params, seed=seed, max_iters=max_iters,
            tol_res=tol_res, tol_manifold=tol_manifold,
        )
        if not pos.converged:
            raise SolverError("positive solve did not converge; cannot seed the crossing")
        w1 = pos.u
        alpha_minus = pos.energy
    else:
        alpha_minus = energy(w1, params).total
    if bubble is None:
        bubble = default_bubble(grid, params)

    cross = None
    restarts_used = 0
    for attempt in range(max_restarts + 1):
        spec = BubbleSpec(
            bubble.eps * 0.85 ** attempt, bubble.delta, bubble.center, bubble.profile_kind
        )
        u_eps = make_u_eps(grid, params, spec)
        try:
            cross = crossing_search(w1, u_eps, params, tol_cross=tol_cross)
            break
        except (NoRootsError, NoCrossingError, DegenerateInputError):
            restarts_used = attempt + 1
            continue
    if cross is None:
        raise SolverError(
            f"crossing search failed for every bubble scale after {restarts_used} restarts"
        )

    u = _project_parts(cross.ansatz, params)

    def check_parts(v):
        scale_norm = seminorm_p(v, params)
        plus, minus = split_parts(v)
        for name, part in (("plus", plus), ("minus", minus)):
            norm = seminorm_p(part, params)
            if norm < COLLAPSE_FACTOR * scale_norm:
                raise CollapseError(name, norm, scale_norm)

    def project(v):
        # the parts interact, so I(v) is not the sum of the part energies
        w = _project_parts(v, params)
        return w, energy(w, params).total

    u, iterations, stalled, trials = _descend(
        u, params, max_iters, tol_res, plus_variant=False, iterations_base=0,
        sobolev=False, project=project, on_accept=check_parts,
    )

    e_total = energy(u, params).total
    res = float(np.max(np.abs(gradient(u, params).values)))
    plus, minus = split_parts(u)
    e_plus = energy(plus, params).total
    e_minus = energy(minus, params).total
    converged = res <= tol_res * (1.0 + abs(e_total))
    ps_gap_bound = None
    ps_gap_ok = None
    if s_est is not None:
        ps_gap_bound = alpha_minus + compactness_gap(params, s_est)
        ps_gap_ok = e_total < ps_gap_bound
    return SolveResult(
        u=u,
        energy=e_total,
        residual_norm=res,
        iterations=iterations,
        nehari=classify(u, params, tol_manifold),
        plus_part_norm=seminorm_p(plus, params),
        minus_part_norm=seminorm_p(minus, params),
        converged=converged,
        stop_reason=_stop_reason(converged, stalled),
        armijo_trials=trials,
        restarts=restarts_used,
        plus_class=classify(plus, params, tol_manifold),
        minus_class=classify(minus, params, tol_manifold),
        crossing=cross,
        c2_split_lower=e_plus + e_minus,
        split_ok=e_total >= e_plus + e_minus - 1e-12 * max(1.0, abs(e_total)),
        ps_gap_bound=ps_gap_bound,
        ps_gap_ok=ps_gap_ok,
        cross_plus=form_a(u, plus, params) - seminorm_p(plus, params),
        cross_minus=form_a(u, minus.with_values(-minus.values), params)
        - seminorm_p(minus, params),
    )


def sup_scan_ab(w1: GridFunction, u_eps: GridFunction, params: Params) -> SupScanResult:
    """Maximum of I(a * w1 - b * u_eps) over the half-plane a >= 0.

    Every such point is t * (cos th, sin th) with t >= 0 and |th| <= pi/2,
    and the supremum along each ray is the fiber maximum of
    cos th * w1 - sin th * u_eps, in closed form.  So the plane maximum is
    the maximum of one scalar function of th, searched by SCAN_ROUNDS scans
    of SCAN_ANGLES angles, each zoomed onto the neighbours of the previous
    scan's best angle; the result is the best over every angle evaluated.
    The first scan holds th = 0, the point (a, b) = (1, 0), so for w1 on its
    fiber maximum the result dominates I(w1).
    """
    best = (-math.inf, 0.0, 0.0)
    lo, hi = -0.5 * math.pi, 0.5 * math.pi
    for _ in range(SCAN_ROUNDS):
        thetas = np.linspace(lo, hi, SCAN_ANGLES)
        values = []
        for th in thetas:
            cos_th, sin_th = math.cos(th), math.sin(th)
            ray = w1.with_values(cos_th * w1.values - sin_th * u_eps.values)
            sup = sup_over_fiber(ray, params)
            values.append(sup.value)
            if sup.value > best[0]:
                best = (sup.value, sup.t_at * cos_th, sup.t_at * sin_th)
        k = int(np.argmax(values))
        lo, hi = thetas[max(k - 1, 0)], thetas[min(k + 1, SCAN_ANGLES - 1)]
    return SupScanResult(*best)
