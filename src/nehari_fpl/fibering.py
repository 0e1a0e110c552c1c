"""Ray (fibering) analysis of the energy.

Along the ray t -> t*u the energy is the scalar function

    phi(t) = t^p/p * ||u||^p - mu t^(q+1)/(q+1) * m_q - t^p*/p* * m_*,

where m_q and m_* are the two Lebesgue masses.  Its critical points are
the roots of

    psi(t) = t^(p-1-q) ||u||^p - t^(p*-q-1) m_*  =  mu * m_q,

a one-hump function on (0, inf): it rises to its single maximum at

    t0 = ((p-1-q) ||u||^p / ((p*-1-q) m_*))^(1/(p*-p))

and falls to -inf afterwards.  Whenever psi(t0) > mu*m_q there are exactly
two crossings t- < t0 < t+: the smaller is a local minimum of phi (stable,
"Plus" side of the manifold), the larger a local maximum ("Minus" side).
At mu = 0 the level is zero, psi(0) = 0 takes the place of t-, and t+ is
the ray's only critical point.

t- and t+ come from one root search (_root): Newton steps on psi - c from
the end of a sign-change bracket where psi < c, each kept inside the
bracket by bisection, to a few ulps.  t- is bracketed by t0 and a point
below (c / ||u||^p)^(1/(p-1-q)), t+ by t0 and the zero-level root
(||u||^p / m_*)^(1/(p*-p)), doubled while rounding leaves psi >= c
there.  Plain Newton is not safe here: psi - c is concave past t0 only
when p* - q - 1 >= 1.  The scalar maps phi, dphi, ddphi and psi take
plain floats, or arrays of them for scans.

Every coefficient is a pairing with the gradient pieces at u
(energy.GradientPieces): ||u||^p = u . G u, m_q = h u . sign(u)|u|^q and
m_* = h u . sign(u)|u|^(p*-1) (FiberMap.of_pieces).  The perturbation
derivative pairs its direction with the same pieces, and fiber_roots
classifies t- u and t+ u from the pieces scaled along the ray, so each
analysis of one function costs one pair action.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .energy import GradientPieces, _same_grid
from .errors import DegenerateInputError, NoRootsError, ParameterError, SolverError
from .grid import GridFunction, Params, _check_tolerances

# _root: at most ROOT_MAX_ITER evaluations, stopping once a step moves the
# iterate by at most ROOT_ULPS ulps
ROOT_MAX_ITER = 200
ROOT_ULPS = 4.0
# FiberMap.of_pieces refuses a ray coefficient below this smallest normal float
TINY = float(np.finfo(float).tiny)
# default relative tolerance of the manifold classification (FiberMap.classify)
TOL_MANIFOLD = 1e-8


class NehariTag(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"
    ZERO = "zero"
    OFF = "off"


class NehariClass(NamedTuple):
    """Manifold classification of a point.

    tag is Off when |phi'(1)| exceeds tol * scale (the point is not on the
    manifold at all); otherwise the sign of phi''(1) decides Plus / Minus,
    with Zero reserved for |phi''(1)| <= tol * scale.  expr_spread records
    the maximum pairwise discrepancy of the four algebraically equivalent
    manifold expressions for phi''(1).
    """

    tag: NehariTag
    first_deriv: float
    second_deriv: float
    expr_spread: float


class FiberingReport(NamedTuple):
    """Everything the ray analysis of one function produces."""

    t0: float
    psi_t0: float
    concave_mass: float
    tminus: float
    tplus: float
    class_minus: NehariClass
    class_plus: NehariClass


class FiberMap(NamedTuple):
    """Scalar coefficients of the ray energy of one function.

    Carries ||u||^p and the two masses together with the exponents, so the
    whole one-dimensional analysis runs on five floats.
    """

    norm_p: float
    mass_q: float
    mass_star: float
    p: float
    q: float
    pstar: float
    mu: float

    @classmethod
    def of(cls, u: GridFunction, params: Params) -> "FiberMap":
        """The fiber map of u, read off its gradient pieces: one pair action."""
        return cls.of_pieces(GradientPieces.of(u, params), params)

    @classmethod
    def of_pieces(cls, pieces: GradientPieces, params: Params) -> "FiberMap":
        """The fiber map of pieces.u, read off its gradient pieces with no pair action.

        Raises DegenerateInputError for the zero function, for pieces with
        a non-finite ray coefficient, which any non-finite entry of u, G u
        or either power makes (energy.GradientPieces), and for a subnormal
        one, which has lost digits to underflow.
        """
        if not pieces.u.values.any():
            raise DegenerateInputError("nonzero function required")
        coefficients = pieces.ray_coefficients()
        if not all(c == 0.0 or TINY <= abs(c) < math.inf for c in coefficients):
            raise DegenerateInputError(f"ray coefficients must be finite and not subnormal, got {coefficients}")
        return cls(*coefficients, params.p, params.q, params.pstar, params.mu)

    @property
    def concave_mass(self) -> float:
        return self.mu * self.mass_q

    @property
    def scale(self) -> float:
        """Natural magnitude of the three energy pieces, used for tolerances."""
        return self.norm_p + self.mass_star + self.concave_mass

    # phi, dphi, ddphi and psi take a positive float, or an array of them
    def phi(self, t):
        try:
            return (
                t ** self.p / self.p * self.norm_p
                - self.mu * t ** (self.q + 1.0) / (self.q + 1.0) * self.mass_q
                - t ** self.pstar / self.pstar * self.mass_star
            )
        except OverflowError:
            # t^p* past the float range on a plain float, as at the fiber
            # maximum of a function far below unit size: the same sum with
            # t^p factored out, finite there, and +-inf where it overflows too
            with np.errstate(over="ignore"):
                t = np.float64(t)
                return float(t ** self.p * (
                    self.norm_p / self.p
                    - self.mu * t ** (self.q + 1.0 - self.p) / (self.q + 1.0) * self.mass_q
                    - t ** (self.pstar - self.p) / self.pstar * self.mass_star
                ))

    def dphi(self, t):
        return (
            t ** (self.p - 1.0) * self.norm_p
            - self.mu * t ** self.q * self.mass_q
            - t ** (self.pstar - 1.0) * self.mass_star
        )

    def ddphi(self, t):
        return (
            (self.p - 1.0) * t ** (self.p - 2.0) * self.norm_p
            - self.q * self.mu * t ** (self.q - 1.0) * self.mass_q
            - (self.pstar - 1.0) * t ** (self.pstar - 2.0) * self.mass_star
        )

    def psi(self, t):
        return t ** (self.p - 1.0 - self.q) * self.norm_p - t ** (
            self.pstar - self.q - 1.0
        ) * self.mass_star

    def t0(self) -> float:
        if self.mass_star <= 0.0:
            raise DegenerateInputError("critical mass is zero: the ray peak is undefined")
        ratio = (self.p - 1.0 - self.q) * self.norm_p / (
            (self.pstar - 1.0 - self.q) * self.mass_star
        )
        return self._ray_scale("the ray peak", ratio)

    def _ray_scale(self, what: str, ratio: float) -> float:
        """ratio^(1/(p*-p)); DegenerateInputError naming what where it overflows a float."""
        exponent = 1.0 / (self.pstar - self.p)
        try:
            return ratio ** exponent
        except OverflowError:
            raise DegenerateInputError(f"{what} {ratio:.6g}^{exponent:.6g} overflows a float") from None

    def _peak_above_level(self) -> tuple[float, float]:
        """(concave mass c, t0), once psi(t0) > c guarantees the crossing t+."""
        c = self.concave_mass
        if c < 0.0:
            raise DegenerateInputError("concave mass must be nonnegative for the ray analysis")
        t0 = self.t0()
        peak = self.psi(t0)
        if peak <= c:
            raise NoRootsError("no ray roots: peak %.9g <= concave mass %.9g (gap %.3g)" % (peak, c, c - peak))
        return c, t0

    def _level_gap(self, c: float):
        """t -> (psi(t) - c, psi'(t)) on plain floats, for the root search.

        A power too large for a float is taken as psi = psi' = -inf, the
        values the array form gives past the ray peak.
        """
        a, b = self.p - 1.0 - self.q, self.pstar - self.q - 1.0
        norm_p, mass_star = self.norm_p, self.mass_star

        def gap(t: float) -> tuple[float, float]:
            try:
                rise, fall = t ** a * norm_p, t ** b * mass_star
            except OverflowError:
                return -math.inf, -math.inf
            # t = 0, a bracket end that underflowed, has no slope to step with
            return rise - fall - c, (a * rise - b * fall) / t if t else math.nan

        return gap

    def _upper_root(self, c: float, t0: float) -> float:
        gap = self._level_gap(c)
        # psi = 0 <= c at the zero-level root, which t+ cannot pass
        hi = self._ray_scale("the zero-level root", self.norm_p / self.mass_star)
        for _ in range(ROOT_MAX_ITER):
            if gap(hi)[0] < 0.0:
                return _root(gap, hi, t0)
            hi *= 2.0
        raise SolverError("failed to bracket the upper ray root")

    def roots(self) -> tuple[float, float]:
        """The two crossings psi(t) = concave mass, tminus < t0 < tplus."""
        c, t0 = self._peak_above_level()
        if c == 0.0:
            raise DegenerateInputError("zero concave mass: the ray has no stable root")
        # psi(t) <= norm_p * t^(p-1-q), so psi < c strictly left of this point.
        lo = 0.999 * (c / self.norm_p) ** (1.0 / (self.p - 1.0 - self.q))
        return _root(self._level_gap(c), lo, t0), self._upper_root(c, t0)

    def tplus(self) -> float:
        """The upper crossing alone, the fiber maximum; equals roots()[1].

        Raises what roots() raises for a ray without two crossings, except
        at zero concave mass, where t+ is (||u||^p / m_*)^(1/(p*-p)).
        """
        return self._upper_root(*self._peak_above_level())

    def classify(self, tol_manifold: float = TOL_MANIFOLD) -> NehariClass:
        """Classify the map's function against the manifold at relative tolerance tol_manifold.

        Also evaluates the four equivalent on-manifold expressions for
        phi''(1) (their pairwise differences are exact multiples of phi'(1),
        hence vanish on the manifold) and records their spread:

            (p-1)   ||u||^p - q mu m_q      - (p*-1)   m_*
            (p-p*)  m_*     + (p-1-q) mu m_q
            (p-1-q) ||u||^p - (p*-1-q) m_*
            (p-p*)  ||u||^p + (p*-1-q) mu m_q
        """
        first = self.dphi(1.0)
        second = self.ddphi(1.0)
        p, q, pstar = self.p, self.q, self.pstar
        exprs = (
            (p - 1.0) * self.norm_p - q * self.mu * self.mass_q - (pstar - 1.0) * self.mass_star,
            (p - pstar) * self.mass_star + (p - 1.0 - q) * self.mu * self.mass_q,
            (p - 1.0 - q) * self.norm_p - (pstar - 1.0 - q) * self.mass_star,
            (p - pstar) * self.norm_p + (pstar - 1.0 - q) * self.mu * self.mass_q,
        )
        spread = max(abs(x - y) for x in exprs for y in exprs)
        tol = tol_manifold * self.scale
        if abs(first) > tol:
            tag = NehariTag.OFF
        elif abs(second) <= tol:
            tag = NehariTag.ZERO
        elif second > 0.0:
            tag = NehariTag.PLUS
        else:
            tag = NehariTag.MINUS
        return NehariClass(tag, first, second, spread)


def _root(gap, neg: float, pos: float) -> float:
    """The root of f between neg and pos, where f(neg) < 0 < f(pos); gap(t) = (f(t), f'(t)).

    Safeguarded Newton (rtsafe; Press et al., Numerical Recipes, 3rd ed.,
    sec. 9.4): the first step starts from neg, and every evaluation
    moves one end of the sign-change bracket to the iterate.  A Newton
    step that would leave the bracket, or that is more than half the step
    before last, becomes a bisection of the bracket, so the search
    converges whether or not f is concave there.  Where f = psi - c is
    concave, Newton from the f < 0 side converges monotonically.  Stops
    once a step is at most ROOT_ULPS ulps of the iterate.
    """
    x, last, before = neg, math.inf, math.inf
    for _ in range(ROOT_MAX_ITER):
        f, df = gap(x)
        if f == 0.0:
            return x
        if f < 0.0:
            neg = x
        else:
            pos = x
        lo, hi = (neg, pos) if neg < pos else (pos, neg)
        tol = ROOT_ULPS * math.ulp(x)
        step = f / df if df != 0.0 else math.inf
        # a step within tol may round onto the bracket end x has just become
        if not (abs(step) <= tol or lo < x - step < hi and abs(step) <= 0.5 * abs(before)):
            step = x - 0.5 * (lo + hi)
        before, last = last, step
        x -= step
        if abs(step) <= tol:
            return x
    raise SolverError(f"ray root search did not converge on [{lo}, {hi}]")


def fiber_derivatives(u: GridFunction, t: float, params: Params) -> tuple[float, float, float]:
    """(phi(t), phi'(t), phi''(t)) of the ray energy at scaling t > 0."""
    if not t > 0.0:
        raise ParameterError(f"ray scaling t must be positive, got {t}")
    fm = FiberMap.of(u, params)
    return float(fm.phi(t)), float(fm.dphi(t)), float(fm.ddphi(t))


def psi_and_t0(u: GridFunction, params: Params) -> tuple[float, float]:
    """Peak location t0 and peak value psi(t0) of the ray root function."""
    fm = FiberMap.of(u, params)
    t0 = fm.t0()
    return t0, fm.psi(t0)


def classify(u: GridFunction, params: Params, tol_manifold: float = TOL_MANIFOLD) -> NehariClass:
    """Classify u against the manifold at relative tolerance tol_manifold (FiberMap.classify)."""
    return FiberMap.of(u, params).classify(tol_manifold)


def fiber_roots(u: GridFunction, params: Params, tol_manifold: float = TOL_MANIFOLD) -> FiberingReport:
    """Full two-root ray analysis of u, with both projections classified.

    t- u and t+ u are classified from u's gradient pieces scaled along the
    ray, so the whole analysis costs one pair action.  Raises
    ParameterError unless 0 < tol_manifold < inf, the solves' rule.
    """
    _check_tolerances(tol_manifold=tol_manifold)
    pieces = GradientPieces.of(u, params)
    fm = FiberMap.of_pieces(pieces, params)
    t0 = fm.t0()
    psi_t0 = fm.psi(t0)
    tminus, tplus = fm.roots()
    class_minus = FiberMap.of_pieces(pieces.scaled(tminus, params), params).classify(tol_manifold)
    class_plus = FiberMap.of_pieces(pieces.scaled(tplus, params), params).classify(tol_manifold)
    return FiberingReport(t0, psi_t0, fm.concave_mass, tminus, tplus, class_minus, class_plus)


def perturbation_derivative(u: GridFunction, phi: GridFunction, params: Params) -> float:
    """Derivative of the fiber-maximum rescaling under a perturbation of u.

    For u on the unstable side (phi''(1) < 0), perturbing u to u + w moves
    the rescaling t+ smoothly; implicit differentiation of the stationarity
    condition at t = 1 gives the derivative at w = 0 in direction phi as

        -[p <A(u), phi> - p* int |u|^(p*-2) u phi - (q+1) mu int |u|^(q-1) u phi]
        / [(p-1-q) ||u||^p - (p*-q-1) m_*],

    where the denominator equals phi''(1) on the manifold and is strictly
    negative exactly on that side.  Raises DegenerateInputError unless it
    is below -1e-10 * scale.  The numerator is phi paired with the
    gradient pieces at u, so the whole derivative costs one pair action.
    """
    _same_grid(u, phi)
    pieces = GradientPieces.of(u, params)
    fm = FiberMap.of_pieces(pieces, params)
    den = (fm.p - 1.0 - fm.q) * fm.norm_p - (fm.pstar - fm.q - 1.0) * fm.mass_star
    tol = 1e-10 * fm.scale
    if -den < tol:
        raise DegenerateInputError(
            f"denominator {den:.6g} is not below -{tol:.3g}: point is not strictly on the unstable side"
        )
    h = u.grid.h
    num = (
        params.p * pieces.sem
        - params.pstar * h * pieces.critical
        - (params.q + 1.0) * params.mu * h * pieces.concave
    )
    return -float(np.dot(phi.values, num)) / den


def psi_mu(u: GridFunction, params: Params) -> float:
    """Degeneracy functional of the two-root analysis, psi(t0) - mu m_q.

    Vanishes exactly where the manifold point sits at the ray peak (merged
    roots); bounded away from zero elsewhere.
    """
    fm = FiberMap.of(u, params)
    return fm.psi(fm.t0()) - fm.concave_mass
