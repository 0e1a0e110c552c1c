"""Constrained descent on the unstable side of the manifold.

Both solvers are projected gradient descent: take an explicit gradient
step, rescale back onto the fiber maximum (the whole ray, clipped to
u >= 0, for the positive solve; each sign part separately for the
sign-changing solve), and accept the step only if the projected energy
satisfies an Armijo decrease.  The projection is the fiber maximum, so
on the manifold the envelope theorem makes the accepted-step energy
sequence genuinely nonincreasing.  Each Armijo search starts at twice
the previous accepted step, capped at the full step 1 (Nocedal & Wright,
Numerical Optimization, 2nd ed., 3.5).  The one-sign solves measured
accept the full step at every iteration, so every search of theirs starts
at 1 and they keep their bits; the two-part descent accepts steps far
below 1, which a search from 1 reaches only after a dozen or more halvings.

The descent direction is the Riesz representative of the nodal gradient g
in an inner product, and the two solves use different ones:

* The one-sign solve descends along the Sobolev gradient -A^{-1} g, with
  A the grid's p = 2 seminorm operator (energy.stiffness_action), the
  discrete H^s inner product the seminorm itself defines (Neuberger,
  LNM 1670).  A^{-1} g comes from conjugate gradients to RIESZ_RTOL
  relative residual, preconditioned by the Strang circulant of A, whose
  eigenvalues the grid stores; one rfft/irfft pair applies its inverse
  (numpy's FFT is deterministic, so repeated solves keep their bits).
  The full step is usually accepted, and neither the iteration count nor
  the CG steps per direction (about two) grow with n.  At p != 2 the
  grid's stored A (grid.Grid, in Toeplitz form) serves as the metric all
  the same.
* The two-part sign-changing descent keeps the L2 direction -g/h, the
  Riesz representative in h * sum u_i v_i.  The set it searches holds no
  critical point, so it can only end on a stalled line search; along the
  L2 direction it stalls within a few dozen iterations, while along the
  H^s direction it keeps creeping and spends its whole budget.

The descent carries the gradient pieces of its iterate u
(energy.GradientPieces): G u, the seminorm gradient over p, and
sign(u)|u|^q and sign(u)|u|^(p*-1).  Paired with u they give the fiber
map, and combined they give g, so neither costs a pair action.  The
accepted trial t+ v inherits v's pieces scaled by t+^(p-1), t+^q and
t+^(p*-1).  At p = 2, G = A is linear and the CG returns A x along with
x, so the one-sign trial u + step has G = G u + A step and costs two
powers and no pair action.  A trial the clip changes, and every trial at
p != 2, costs one direct evaluation of G.  So a one-sign iteration at
p = 2 makes its CG matvecs (about two, each one FFT product) and no
other pair action, and at p != 2 one pair action per trial on top.  A
two-part trial evaluates G on both parts and on their sum.  Each solve
adds one evaluation per start, and its finish one fresh evaluation at
the returned u plus one per sign part of a u that changes sign (none for
alpha^-, the one-sign level, which the solver does not read).
SolveResult.pair_actions counts them all.

Both solves end in one finish, _finish: it reads every reported number
off the returned u, says why the descent stopped and counts its work.
Each solve passes it only the field no other fills: restarts for the
one-sign solve, crossing for the two-part one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bubble import BubbleSpec, make_u_eps
from .energy import GradientPieces, _same_grid, pair_actions, split_parts, stiffness_action
from .errors import DegenerateInputError, NoRootsError, ParameterError, SolverError
from .fibering import TOL_MANIFOLD, FiberMap, NehariClass, classify
from .grid import Grid, GridFunction, Params, _check_tolerances

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
ALPHA_FLOOR = 1e-16
# the solves' defaults, which config.DEFAULTS reads too; tol_res is _converged's
TOL_RES = 1e-6
TOL_CROSS = 1e-6
MAX_ITERS = 5000
MAX_RESTARTS = 5
# _riesz_direction: conjugate gradients stop at |A x - g| <= RIESZ_RTOL |g|
RIESZ_RTOL = 0.1
# sup_scan_ab: angles per scan of the ray-angle bracket, and scans made.
# Each scan after the first spans the two neighbours of the previous
# scan's best angle, so the bracket shrinks 8x per scan to ~5e-11 rad.
SCAN_ANGLES = 17
SCAN_ROUNDS = 12


class SolveResult(NamedTuple):
    """Outcome of a constrained descent run.

The part fields are filled for any result that changes sign, whichever
    solve returned it, and are None otherwise: plus_class / minus_class
    hold the part classifications, c2_split_lower the sum of the part
    levels and split_ok whether the level sits at or above it.
    cross_plus / cross_minus record the pairing of the full gradient with
    each part at the final iterate.  For a two-part function this pairing
    equals the nonlocal cross interaction of the parts, which is strictly
    positive, so it is the floor under the full-gradient residual of any
    two-part run.

    stop_reason says why the descent ended: ``converged`` (residual below
    tolerance), ``stalled`` (the line search found no acceptable step) or
    ``budget`` (the iteration budget ran out first).  restarts counts the
    fresh bumps a one-sign solve passed over because they had no fiber
    maximum of finite energy (0 for the two-part descent).  armijo_trials
    counts the projected line-search trials, cg_steps the
    conjugate-gradient steps of every H^s direction (0 for the two-part
    descent, which steps along the L2 one).
    pair_actions counts the pair actions of the whole call
    (energy.pair_actions): the CG matvecs plus every direct evaluation of
    G u, the final one included.
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
    cg_steps: int
    pair_actions: int
    restarts: int = 0
    plus_class: NehariClass | None = None
    minus_class: NehariClass | None = None
    crossing: "CrossingResult | None" = None
    c2_split_lower: float | None = None
    split_ok: bool | None = None
    cross_plus: float | None = None
    cross_minus: float | None = None


class FiberSupremum(NamedTuple):
    """Supremum of the ray energy over t >= 0, and the t that attains it.

    (value, t_at) = (0, 0) says the supremum is I(0) = 0: the ray energy
    falls on all of (0, inf), or its local maximum phi(t+) is not positive.
    """

    value: float
    t_at: float


class CrossingResult(NamedTuple):
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


class SupScanResult(NamedTuple):
    """Maximum of I(a*w1 - b*u_eps) over the half-plane a >= 0."""

    value: float
    a_at: float
    b_at: float


def _project_ray(v: GradientPieces, params: Params):
    """(pieces at t+ v, I(t+ v)): the fiber map read off v's pieces, no pair action.

    The energy is the closed form phi(t+), and the pieces are v's scaled
    along the ray (GradientPieces.scaled).  An energy that is not finite
    (phi(t+) overflows at a huge t+) raises DegenerateInputError.
    """
    fm = FiberMap.of_pieces(v, params)
    tplus = fm.tplus()
    value = fm.phi(tplus)
    if not math.isfinite(value):
        raise DegenerateInputError(f"the fiber maximum's energy {value} is not finite")
    return v.scaled(tplus, params), value


def _check_settings(max_iters: int = 1, max_restarts: int = 0, **tols: float):
    """Raise ParameterError on a budget no solve can spend or a tolerance outside (0, inf)."""
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")
    if max_restarts < 0:
        raise ParameterError(f"max_restarts must be >= 0, got {max_restarts}")
    _check_tolerances(**tols)


def _converged(res: float, e_total: float, tol_res: float) -> bool:
    """The stop rule: the sup norm res of the nodal gradient is at most tol_res * (1 + |I(u)|)."""
    return res <= tol_res * (1.0 + abs(e_total))


def _finish(state, stalled, counters, params, tol_res, tol_manifold, start_actions, **extra) -> SolveResult:
    """The SolveResult of a finished descent (_descend's return value), from fresh evaluations at its u.

    Every number a solve reports comes from here, at the returned u, and
    not from the pieces carried through the descent: one fresh G u gives
    the energy, the residual and the class of u, and when u has a nonzero
    negative part one fresh fiber map per sign part gives the part fields.
    u is validated again here (grid.GridFunction), as the solve's result.
    An iterate the fiber map refuses is the solve's failure, not bad
    input: SolverError.  pair_actions counts from start_actions, taken
    before the solve's first pair action; extra holds the fields only one
    solve fills (restarts or crossing).
    """
    u = state.u
    pieces = GradientPieces.of(GridFunction(u.grid, u.values), params)
    try:
        fm = FiberMap.of_pieces(pieces, params)
    except DegenerateInputError as exc:
        raise SolverError(f"the final iterate has no fiber map: {exc}") from exc
    e_total = fm.phi(1.0)
    res = float(np.abs(pieces.gradient(params)).max())
    point = dict(
        u=pieces.u,
        energy=e_total,
        residual_norm=res,
        converged=_converged(res, e_total, tol_res),
        nehari=fm.classify(tol_manifold),
        # u+ = u and u- = 0 unless u has a negative part
        plus_part_norm=fm.norm_p,
        minus_part_norm=0.0,
    )
    plus, minus = split_parts(pieces.u)
    if minus.values.any():
        fm_plus, fm_minus = FiberMap.of(plus, params), FiberMap.of(minus, params)
        split = fm_plus.phi(1.0) + fm_minus.phi(1.0)
        point.update(
            plus_part_norm=fm_plus.norm_p,
            minus_part_norm=fm_minus.norm_p,
            plus_class=fm_plus.classify(tol_manifold),
            minus_class=fm_minus.classify(tol_manifold),
            c2_split_lower=split,
            split_ok=e_total >= split - 1e-12 * max(1.0, abs(e_total)),
            # <A(u), u+> - ||u+||^p and <A(u), -u-> - ||u-||^p, with <A(u), phi> = phi . G u
            cross_plus=float(np.dot(plus.values, pieces.sem)) - fm_plus.norm_p,
            cross_minus=-float(np.dot(minus.values, pieces.sem)) - fm_minus.norm_p,
        )
    stop_reason = "converged" if point["converged"] else "stalled" if stalled else "budget"
    return SolveResult(
        **point, **counters, **extra, stop_reason=stop_reason, pair_actions=pair_actions() - start_actions
    )


def project_minus(u: GridFunction, params: Params) -> GridFunction:
    """Rescale u onto the fiber maximum t+(u) * u."""
    projected = _project_ray(GradientPieces.of(u, params), params)[0].u
    return GridFunction(projected.grid, projected.values)


def _project_parts(u: GridFunction, params: Params):
    """Rescale each sign part onto its own fiber maximum.

    Returns the pieces of the result w and I(w).  The parts interact, so
    I(w) is not the sum of the part energies; it is read off G w, which the
    next gradient reuses.  A part on its fiber maximum has its seminorm
    bounded below through the Sobolev constant, so it cannot collapse; a
    part that vanishes has no fiber map (FiberMap.of_pieces raises
    DegenerateInputError), and the descent rejects that trial.
    """
    parts = [_project_ray(GradientPieces.of(part, params), params)[0] for part in split_parts(u)]
    w = GradientPieces.of(GridFunction._wrap(u.grid, parts[0].u.values - parts[1].u.values), params)
    return w, FiberMap.of_pieces(w, params).phi(1.0)


def _project_cone(state: GradientPieces, step: np.ndarray, a_step: np.ndarray, params: Params):
    """Ray projection of the clipped trial v = max(u + step, 0), u = state.u.

    The one-sign solve's projection.  The clip keeps every trial in the
    cone u >= 0, which the truncated CG direction alone does not
    guarantee; on the descents measured no trial left the cone.  At p = 2,
    G is the linear stiffness action A, so while the clip changes nothing
    G v = G u + a_step with a_step = A step, and the trial costs no pair
    action.  Otherwise (p != 2, or a clipped node) G v is evaluated
    directly, one pair action.  The trial is wrapped without a copy or a
    scan; _project_ray rejects it if a ray coefficient is not finite.
    """
    trial = state.u.values + step
    clip = bool((trial < 0.0).any())
    if clip:
        np.maximum(trial, 0.0, out=trial)
    sem = state.sem + a_step if params.p == 2.0 and not clip else None
    return _project_ray(GradientPieces.of(GridFunction._wrap(state.u.grid, trial), params, sem), params)


def _positive_bump(grid: Grid, rng) -> GridFunction:
    base = np.sin(np.pi * (grid.nodes - grid.a) / (grid.b - grid.a))
    return GridFunction(grid, base * (0.8 + 0.4 * rng.random(grid.n)))


def solve_positive(
    grid: Grid,
    params: Params,
    seed: int = 0,
    max_iters: int = MAX_ITERS,
    *,
    tol_res: float = TOL_RES,
    tol_manifold: float = TOL_MANIFOLD,
    max_restarts: int = MAX_RESTARTS,
) -> SolveResult:
    """Minimize I over the unstable manifold side within the cone u >= 0.

    Needs mu below the two-root threshold of the configuration so the
    projection exists everywhere it is asked for.  The descent starts from
    the first of at most max_restarts + 1 fresh bumps that has a fiber
    maximum of finite energy (restarts counts the bumps passed over), and
    raises SolverError when none has.  A descent whose line search finds
    no acceptable step ends with stop_reason ``stalled``.  Every trial is
    clipped to u >= 0 before its ray projection (_project_cone), so the
    result is nonnegative and its minus_part_norm is zero.  At mu = 0 it is
    the Sobolev quotient's minimization (constants.estimate_sobolev).
    Raises ParameterError on an out-of-range budget or tolerance
    (_check_settings).
    """
    _check_settings(max_iters, max_restarts, tol_res=tol_res, tol_manifold=tol_manifold)
    rng = np.random.default_rng(seed)
    start_actions = pair_actions()
    for restarts in range(max_restarts + 1):
        try:
            start, e_start = _project_ray(GradientPieces.of(_positive_bump(grid, rng), params), params)
            break
        except (NoRootsError, DegenerateInputError) as exc:
            refusal = exc
    else:
        raise SolverError(f"no start projects onto the fiber maximum in {max_restarts + 1} tries; the last: {refusal}")
    run = _descend(
        start, e_start, params, max_iters, tol_res,
        sobolev=True, project=lambda v, step, a_step: _project_cone(v, step, a_step, params),
    )
    return _finish(*run, params, tol_res, tol_manifold, start_actions, restarts=restarts)


def _riesz_direction(grid: Grid, g: np.ndarray):
    """(x, steps, ax): x approximates A^{-1} g, A the grid's p = 2 seminorm operator.

    Conjugate gradients from x = 0, preconditioned by the Strang circulant
    C of A (grid.strang_eigs; Chan & Jin, Iterative Toeplitz Solvers,
    SIAM 2007), applied as C^{-1} r = irfft(rfft(r) / eigs), and stopped
    once |A x - g| <= RIESZ_RTOL |g| or after n steps.  A is a Toeplitz
    matrix plus a diagonal that varies little, so C^{-1} A clusters near 1
    and about two steps suffice at every n.  steps counts the matvecs, the
    direction's only pair actions.  ax = A x = g - r comes from the CG
    residual r at no further cost; at p = 2 it carries G along the step
    (_project_cone).  Every iterate is the A-orthogonal projection of
    A^{-1} g onto a Krylov space, so g . x = x . A x > 0 and -x is a
    descent direction however early the iteration stops.
    """
    n = grid.n
    x = np.zeros_like(g)
    r = g.copy()
    rr = float(np.dot(r, r))
    stop = RIESZ_RTOL * math.sqrt(rr)
    steps = 0
    while steps < n and math.sqrt(rr) > stop:
        z = np.fft.irfft(np.fft.rfft(r) / grid.strang_eigs, n)
        rz = float(np.dot(r, z))
        if steps == 0:
            d = z
        else:
            d *= rz / rz_old
            d += z
        steps += 1
        ad = stiffness_action(grid, d)
        step = rz / float(np.dot(d, ad))
        x += step * d
        r -= step * ad
        rr = float(np.dot(r, r))
        rz_old = rz
    return x, steps, g - r


def _descend(state, e_total, params, budget, tol_res, *, sobolev, project):
    """Shared projected-descent loop; returns (state, stalled, counters), which _finish reads.

    state holds the GradientPieces of the start and e_total its energy;
    the returned state holds the pieces of the last accepted iterate.  Each
    iteration reads g off the carried pieces (no pair action, no power).
    sobolev selects the direction: -A^{-1} g (the H^s Riesz representative,
    see _riesz_direction) for the one-sign solve, or -g/h (the L2 one) for
    the two-part descent, which stalls sooner along it (module docstring).
    project(state, step, a_step) projects the trial u + step and returns the
    trial's pieces and energy; a_step is A step along the H^s direction and
    None along the L2 one.  An accepted trial's pieces, already scaled onto
    its fiber maximum, are the next iterate's.  The first search starts at
    the full step 1 and each later one at min(1, alpha / ARMIJO_SHRINK),
    alpha the last accepted step; each halves until the Armijo decrease
    holds.  counters holds the run's counts under their SolveResult names:
    iterations its gradient steps, armijo_trials its projected line-search
    trials, cg_steps the conjugate-gradient steps of its H^s directions
    (0 along the L2 one).  stalled is False only when the run converged or
    spent its budget.
    """
    grid = state.u.grid
    iterations = 0
    trials = 0
    cg_steps = 0
    stalled = False
    alpha = 1.0
    for _ in range(budget):
        iterations += 1
        g = state.gradient(params)
        if _converged(float(np.abs(g).max()), e_total, tol_res):
            iterations -= 1
            break
        if sobolev:
            x, steps, ax = _riesz_direction(grid, g)
            d, ad = -x, -ax
            cg_steps += steps
        else:
            d, ad = -g / grid.h, None
        slope = float(np.dot(g, d))
        alpha = min(1.0, alpha / ARMIJO_SHRINK)
        accepted = False
        while alpha >= ALPHA_FLOOR:
            trials += 1
            try:
                trial, e_trial = project(state, alpha * d, None if ad is None else alpha * ad)
            except (NoRootsError, DegenerateInputError):
                # no fiber maximum, or a ray coefficient that is not finite
                alpha *= ARMIJO_SHRINK
                continue
            if e_trial <= e_total + ARMIJO_C * alpha * slope:
                accepted = True
                break
            alpha *= ARMIJO_SHRINK
        if not accepted:
            stalled = True
            break
        state, e_total = trial, e_trial
    return state, stalled, dict(iterations=iterations, armijo_trials=trials, cg_steps=cg_steps)


def sup_over_fiber(u0: GridFunction, params: Params) -> FiberSupremum:
    """Supremum of the ray energy t -> I(t * u0) over t >= 0.

    The ray energy falls from I(0) = 0 to its local minimum at t-, rises to
    its local maximum at t+ and falls for good after that, so the supremum
    is max(0, phi(t+)).  Without the two crossings it falls on all of
    (0, inf) and the supremum is 0 at t = 0.
    """
    fm = FiberMap.of(u0, params)
    try:
        tplus = fm.tplus()
    except NoRootsError:
        return FiberSupremum(0.0, 0.0)
    value = fm.phi(tplus)
    if value <= 0.0:
        return FiberSupremum(0.0, 0.0)
    return FiberSupremum(value, tplus)


def part_scales(w1: GridFunction, u_eps: GridFunction, params: Params, r: float):
    """Fiber-maximum scalings (s+, s-) of the parts of w1 - r * u_eps."""
    _same_grid(w1, u_eps)
    plus, minus = split_parts(w1.with_values(w1.values - r * u_eps.values))
    if not plus.values.any() or not minus.values.any():
        raise DegenerateInputError(f"w1 - r*u_eps has no sign change at r = {r}")
    return FiberMap.of(plus, params).tplus(), FiberMap.of(minus, params).tplus()


def crossing_search(
    w1: GridFunction,
    u_eps: GridFunction,
    params: Params,
    tol_cross: float = TOL_CROSS,
) -> CrossingResult:
    """Find r with matched part scalings s+(r) = s-(r) =: a.

    The admissible ratios r live between rbar1 = min(w1/u_eps) and
    rbar2 = max(w1/u_eps) over nodes carrying bubble mass.  As r falls to
    rbar1 the negative part vanishes and s- blows up; as r rises to rbar2
    the positive part vanishes and s+ blows up.  Continuity in between
    forces a crossing, located here by bisection on s+ - s-.  Raises
    ParameterError unless 0 < tol_cross < inf and w1 and u_eps share a grid.
    """
    _check_settings(tol_cross=tol_cross)
    _same_grid(w1, u_eps)
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
        raise SolverError("ratio bracket is a single point")

    def eval_gap(r):
        s_plus, s_minus = part_scales(w1, u_eps, params, r)
        return s_plus - s_minus, s_plus, s_minus

    def probe(from_end, sign):
        off = 1e-6 * width
        for _ in range(60):
            r = from_end + sign * off
            try:
                return r, eval_gap(r)
            except DegenerateInputError:
                off *= 2.0
        raise SolverError("could not find valid probes inside the bracket")

    lo, (gap_lo, *_rest) = probe(r1, +1.0)
    hi, (gap_hi, *_rest) = probe(r2, -1.0)
    if not (gap_lo < 0.0 < gap_hi):
        raise SolverError(f"no sign change of s+ - s- on [{lo:.6g}, {hi:.6g}]")
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
        raise SolverError("crossing bisection did not converge")
    a = 0.5 * (s_plus + s_minus)
    ansatz = w1.with_values(a * (w1.values - r_star * uv))
    plus, minus = split_parts(ansatz)
    tol_cls = max(TOL_MANIFOLD, 10.0 * tol_cross)
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


def solve_sign_changing(
    grid: Grid,
    params: Params,
    seed: int = 0,
    max_iters: int = MAX_ITERS,
    *,
    w1: GridFunction,
    bubble: BubbleSpec,
    tol_res: float = TOL_RES,
    tol_manifold: float = TOL_MANIFOLD,
    tol_cross: float = TOL_CROSS,
    max_restarts: int = MAX_RESTARTS,
    s_est: float | None = None,
) -> SolveResult:
    """Two-part descent from the crossing ansatz on the given w1 and bubble.

    w1 is the one-sign solution (its energy is alpha^-).  Matches the part
    scalings of w1 - r u_eps with one crossing_search, then descends the
    full energy while keeping both parts on their fiber maxima.  seed,
    max_restarts and s_est are ignored: perfbench/workloads.py passes
    them, and the CLI passes the one-sign solve's keywords.  Raises
    ParameterError on an out-of-range budget, tolerance or bubble, or a w1
    on another grid, and SolverError, chained to its cause, when the
    crossing search fails.
    """
    _check_settings(max_iters, tol_res=tol_res, tol_manifold=tol_manifold, tol_cross=tol_cross)
    start_actions = pair_actions()
    u_eps = make_u_eps(grid, params, bubble)
    try:
        cross = crossing_search(w1, u_eps, params, tol_cross=tol_cross)
    except (NoRootsError, SolverError, DegenerateInputError) as exc:
        raise SolverError(f"crossing search failed: {exc}") from exc

    state, e_start = _project_parts(cross.ansatz, params)

    def project(v, step, a_step):
        return _project_parts(GridFunction._wrap(v.u.grid, v.u.values + step), params)

    run = _descend(state, e_start, params, max_iters, tol_res, sobolev=False, project=project)
    return _finish(*run, params, tol_res, tol_manifold, start_actions, crossing=cross)


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
    _same_grid(w1, u_eps)
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
