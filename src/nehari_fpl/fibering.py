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
The same analysis applies verbatim with positive-part masses (plus
variant), since (t*u)+ = t*(u+) for t > 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .energy import form_a, lebesgue_mass, seminorm_p, signed_power
from .errors import (
    BisectionError,
    DegenerateDenominatorError,
    DegenerateInputError,
    NoRootsError,
    NotMinusConeError,
    ParameterError,
)
from .grid import GridFunction, Params

BISECT_REL_WIDTH = 1e-12
BISECT_MAX_ITER = 200


class NehariTag(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"
    ZERO = "zero"
    OFF = "off"


@dataclass(frozen=True)
class NehariClass:
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


@dataclass(frozen=True)
class FiberingReport:
    """Everything the ray analysis of one function produces."""

    t0: float
    psi_t0: float
    concave_mass: float
    tminus: float
    tplus: float
    class_minus: NehariClass
    class_plus: NehariClass


@dataclass(frozen=True)
class FiberMap:
    """Scalar coefficients of the ray energy of one function.

    Carries ||u||^p and the two masses together with the exponents, so the
    whole one-dimensional analysis runs on five floats.  mass_q and
    mass_star are the plus-part masses when built with plus_variant.
    """

    norm_p: float
    mass_q: float
    mass_star: float
    p: float
    q: float
    pstar: float
    mu: float

    @classmethod
    def of(cls, u: GridFunction, params: Params, plus_variant: bool = False) -> "FiberMap":
        if not np.any(u.values):
            raise DegenerateInputError("nonzero function required")
        return cls(
            seminorm_p(u, params),
            lebesgue_mass(u, params.q + 1.0, plus_only=plus_variant),
            lebesgue_mass(u, params.pstar, plus_only=plus_variant),
            params.p,
            params.q,
            params.pstar,
            params.mu,
        )

    @property
    def concave_mass(self) -> float:
        return self.mu * self.mass_q

    @property
    def scale(self) -> float:
        """Natural magnitude of the three energy pieces, used for tolerances."""
        return self.norm_p + self.mass_star + self.concave_mass

    def phi(self, t):
        t = np.asarray(t, dtype=np.float64)
        return (
            t ** self.p / self.p * self.norm_p
            - self.mu * t ** (self.q + 1.0) / (self.q + 1.0) * self.mass_q
            - t ** self.pstar / self.pstar * self.mass_star
        )

    def dphi(self, t):
        t = np.asarray(t, dtype=np.float64)
        return (
            t ** (self.p - 1.0) * self.norm_p
            - self.mu * t ** self.q * self.mass_q
            - t ** (self.pstar - 1.0) * self.mass_star
        )

    def ddphi(self, t):
        t = np.asarray(t, dtype=np.float64)
        return (
            (self.p - 1.0) * t ** (self.p - 2.0) * self.norm_p
            - self.q * self.mu * t ** (self.q - 1.0) * self.mass_q
            - (self.pstar - 1.0) * t ** (self.pstar - 2.0) * self.mass_star
        )

    def psi(self, t):
        t = np.asarray(t, dtype=np.float64)
        return t ** (self.p - 1.0 - self.q) * self.norm_p - t ** (
            self.pstar - self.q - 1.0
        ) * self.mass_star

    def t0(self) -> float:
        if self.mass_star <= 0.0:
            raise DegenerateInputError("critical mass is zero: the ray peak is undefined")
        ratio = (self.p - 1.0 - self.q) * self.norm_p / (
            (self.pstar - 1.0 - self.q) * self.mass_star
        )
        return ratio ** (1.0 / (self.pstar - self.p))

    def _peak_above_level(self) -> tuple[float, float]:
        """(concave mass c, t0), once psi(t0) > c guarantees both crossings."""
        c = self.concave_mass
        if c <= 0.0:
            raise DegenerateInputError("concave mass must be positive for the two-root analysis")
        t0 = self.t0()
        peak = float(self.psi(t0))
        if peak <= c:
            raise NoRootsError(peak, c)
        return c, t0

    def _level_gap(self, c: float):
        """t -> psi(t) - c on plain floats, for the scalar root searches.

        A power too large for a float is taken as psi = -inf, the value
        the array form gives past the ray peak.
        """
        a, b = self.p - 1.0 - self.q, self.pstar - self.q - 1.0
        norm_p, mass_star = self.norm_p, self.mass_star

        def gap(t: float) -> float:
            try:
                return t ** a * norm_p - t ** b * mass_star - c
            except OverflowError:
                return -math.inf

        return gap

    def _upper_root(self, c: float, t0: float) -> float:
        gap = self._level_gap(c)
        hi = 2.0 * t0
        for _ in range(BISECT_MAX_ITER):
            if gap(hi) < 0.0:
                break
            hi *= 2.0
        else:
            raise BisectionError("failed to bracket the upper ray root")
        return _bisect(gap, t0, hi)

    def roots(self) -> tuple[float, float]:
        """The two crossings psi(t) = concave mass, tminus < t0 < tplus."""
        c, t0 = self._peak_above_level()
        # psi(t) <= norm_p * t^(p-1-q), so psi < c strictly left of this point.
        lo = 0.999 * (c / self.norm_p) ** (1.0 / (self.p - 1.0 - self.q))
        tminus = _bisect(self._level_gap(c), lo, t0)
        return tminus, self._upper_root(c, t0)

    def tplus(self) -> float:
        """The upper crossing alone, the fiber maximum; equals roots()[1].

        Raises what roots() raises for a ray without two crossings.
        """
        return self._upper_root(*self._peak_above_level())


def _bisect(g, lo: float, hi: float) -> float:
    """Bisection on [lo, hi] assuming a sign change; relative width 1e-12."""
    glo = g(lo)
    ghi = g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo < 0.0) == (ghi < 0.0):
        raise BisectionError(f"no sign change on [{lo}, {hi}]")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm < 0.0) == (glo < 0.0):
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
        if hi - lo <= BISECT_REL_WIDTH * hi:
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def fiber_derivatives(
    u: GridFunction, t: float, params: Params, plus_variant: bool = False
) -> tuple[float, float, float]:
    """(phi(t), phi'(t), phi''(t)) of the ray energy at scaling t > 0."""
    if not t > 0.0:
        raise ParameterError(f"ray scaling t must be positive, got {t}")
    fm = FiberMap.of(u, params, plus_variant)
    return float(fm.phi(t)), float(fm.dphi(t)), float(fm.ddphi(t))


def psi_and_t0(u: GridFunction, params: Params, plus_variant: bool = False) -> tuple[float, float]:
    """Peak location t0 and peak value psi(t0) of the ray root function."""
    fm = FiberMap.of(u, params, plus_variant)
    t0 = fm.t0()
    return t0, float(fm.psi(t0))


def classify(
    u: GridFunction,
    params: Params,
    tol_manifold: float = 1e-8,
    plus_variant: bool = False,
) -> NehariClass:
    """Classify u against the manifold at relative tolerance tol_manifold.

    Also evaluates the four equivalent on-manifold expressions for
    phi''(1) (their pairwise differences are exact multiples of phi'(1),
    hence vanish on the manifold) and records their spread:

        (p-1)   ||u||^p - q mu m_q      - (p*-1)   m_*
        (p-p*)  m_*     + (p-1-q) mu m_q
        (p-1-q) ||u||^p - (p*-1-q) m_*
        (p-p*)  ||u||^p + (p*-1-q) mu m_q
    """
    fm = FiberMap.of(u, params, plus_variant)
    first = float(fm.dphi(1.0))
    second = float(fm.ddphi(1.0))
    p, q, pstar = fm.p, fm.q, fm.pstar
    exprs = (
        (p - 1.0) * fm.norm_p - q * fm.mu * fm.mass_q - (pstar - 1.0) * fm.mass_star,
        (p - pstar) * fm.mass_star + (p - 1.0 - q) * fm.mu * fm.mass_q,
        (p - 1.0 - q) * fm.norm_p - (pstar - 1.0 - q) * fm.mass_star,
        (p - pstar) * fm.norm_p + (pstar - 1.0 - q) * fm.mu * fm.mass_q,
    )
    spread = max(abs(x - y) for x in exprs for y in exprs)
    tol = tol_manifold * fm.scale
    if abs(first) > tol:
        tag = NehariTag.OFF
    elif abs(second) <= tol:
        tag = NehariTag.ZERO
    elif second > 0.0:
        tag = NehariTag.PLUS
    else:
        tag = NehariTag.MINUS
    return NehariClass(tag, first, second, spread)


def fiber_roots(
    u: GridFunction,
    params: Params,
    plus_variant: bool = False,
    tol_manifold: float = 1e-8,
) -> FiberingReport:
    """Full two-root ray analysis of u, with both projections classified."""
    fm = FiberMap.of(u, params, plus_variant)
    t0 = fm.t0()
    psi_t0 = float(fm.psi(t0))
    tminus, tplus = fm.roots()
    class_minus = classify(u.with_values(tminus * u.values), params, tol_manifold, plus_variant)
    class_plus = classify(u.with_values(tplus * u.values), params, tol_manifold, plus_variant)
    return FiberingReport(t0, psi_t0, fm.concave_mass, tminus, tplus, class_minus, class_plus)


def perturbation_derivative(
    u: GridFunction,
    phi: GridFunction,
    params: Params,
    tol_degenerate: float | None = None,
) -> float:
    """Derivative of the fiber-maximum rescaling under a perturbation of u.

    For u on the unstable side (phi''(1) < 0), perturbing u to u + w moves
    the rescaling t+ smoothly; implicit differentiation of the stationarity
    condition at t = 1 gives the derivative at w = 0 in direction phi as

        -[p <A(u), phi> - p* int |u|^(p*-2) u phi - (q+1) mu int |u|^(q-1) u phi]
        / [(p-1-q) ||u||^p - (p*-q-1) m_*],

    where the denominator equals phi''(1) on the manifold and is strictly
    negative exactly on that side.
    """
    fm = FiberMap.of(u, params)
    den = (fm.p - 1.0 - fm.q) * fm.norm_p - (fm.pstar - fm.q - 1.0) * fm.mass_star
    if den >= 0.0:
        raise NotMinusConeError(
            f"denominator {den:.6g} is nonnegative: point is not strictly on the unstable side"
        )
    tol = 1e-10 * fm.scale if tol_degenerate is None else tol_degenerate
    if -den < tol:
        raise DegenerateDenominatorError(
            f"denominator {den:.6g} within {tol:.3g} of zero: derivative unreliable"
        )
    h = u.grid.h
    concave = h * float(np.sum(signed_power(u.values, params.q) * phi.values))
    critical = h * float(np.sum(signed_power(u.values, params.pstar - 1.0) * phi.values))
    num = (
        params.p * form_a(u, phi, params)
        - params.pstar * critical
        - (params.q + 1.0) * params.mu * concave
    )
    return -num / den


def psi_mu(u: GridFunction, params: Params) -> float:
    """Degeneracy functional of the two-root analysis.

    Vanishes exactly where the manifold point sits at the ray peak (merged
    roots); bounded away from zero elsewhere.  Computed in log space to
    keep the high powers of the norm from overflowing:

        k0 * (||u||^(p(p*-1)) / m_*^(p-1))^(1/(p*-p)) - mu * m_q,
        k0 = ((p-1-q)/(p*-q-1))^((p*-1)/(p*-p)) * (p*-p)/(p-1-q).
    """
    fm = FiberMap.of(u, params)
    if fm.mass_star <= 0.0:
        raise DegenerateInputError("critical mass is zero")
    p, q, pstar = fm.p, fm.q, fm.pstar
    k0 = ((p - 1.0 - q) / (pstar - q - 1.0)) ** ((pstar - 1.0) / (pstar - p)) * (
        (pstar - p) / (p - 1.0 - q)
    )
    log_term = ((pstar - 1.0) * math.log(fm.norm_p) - (p - 1.0) * math.log(fm.mass_star)) / (
        pstar - p
    )
    return k0 * math.exp(log_term) - fm.mu * fm.mass_q
