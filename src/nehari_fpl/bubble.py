"""Concentrating profiles, cutoffs, interaction integrals, scaling fits.

A profile U is rescaled into the extremal family

    U_eps(x) = eps^(-(N - s p)/p) * U(|x - center| / eps)

and multiplied by a cubic smoothstep cutoff that is identically one at
distance delta from the boundary.  Two profile shapes are available:

  exact-p2 : (1 + r^2)^(-(N - 2 s)/2), the closed-form extremal shape of
             the quadratic case (requires p = 2);
  model    : min(1, r^(-(N - s p)/(p - 1))), the generic decay envelope.

Both decay like r^(-(N - s p)/(p - 1)) at infinity, which is what the
interaction integrals and mass scaling laws probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energy import lebesgue_mass
from .errors import ParameterError
from .grid import Grid, GridFunction, Params

PROFILE_KINDS = ("exact-p2", "model")

# default collar and concentration ladder, as fractions of the half-width;
# every rung must stay below half the collar for the scaling laws to apply
DEFAULT_DELTA_FRAC = 0.25
DEFAULT_EPS_FRACS = (0.1, 0.05, 0.025, 0.0125)


@dataclass(frozen=True)
class BubbleSpec:
    """Concentration scale, collar width, center and profile choice.

    center = None places the bubble at the interval midpoint.  Grid
    dependent checks (delta against the half-width) happen at build time.
    """

    eps: float
    delta: float
    center: float | None = None
    profile_kind: str = "exact-p2"

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ParameterError(f"eps must be positive, got {self.eps}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ParameterError(f"delta must be positive, got {self.delta}")
        if self.profile_kind not in PROFILE_KINDS:
            raise ParameterError(
                f"profile_kind must be one of {PROFILE_KINDS}, got {self.profile_kind!r}"
            )


def default_profile_kind(params: Params) -> str:
    """exact-p2 where it is the extremal shape (p = 2), model otherwise."""
    return "exact-p2" if params.p == 2.0 else "model"


def profile_u(r, params: Params, profile_kind: str = "exact-p2") -> np.ndarray:
    """Profile value at radius r >= 0 (scalar or array)."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0.0):
        raise ParameterError("radius must be nonnegative")
    if profile_kind == "exact-p2":
        if params.p != 2.0:
            raise ParameterError("exact-p2 profile requires p = 2")
        return (1.0 + r ** 2) ** (-(params.N - 2.0 * params.s) / 2.0)
    if profile_kind == "model":
        decay = (params.N - params.s * params.p) / (params.p - 1.0)
        safe = np.where(r > 1.0, r, 1.0)
        return safe ** (-decay)
    raise ParameterError(f"unknown profile kind {profile_kind!r}")


def cutoff(x, a: float, b: float, delta: float) -> np.ndarray:
    """Cubic smoothstep collar: 0 at the endpoints, 1 at distance delta."""
    x = np.asarray(x, dtype=np.float64)
    tl = np.clip((x - a) / delta, 0.0, 1.0)
    tr = np.clip((b - x) / delta, 0.0, 1.0)
    return tl * tl * (3.0 - 2.0 * tl) * tr * tr * (3.0 - 2.0 * tr)


def make_u_eps(grid: Grid, params: Params, spec: BubbleSpec) -> GridFunction:
    """Cutoff-rescaled profile on the grid."""
    if spec.delta >= grid.halfwidth:
        raise ParameterError(
            f"delta = {spec.delta} must be smaller than the half-width {grid.halfwidth}"
        )
    center = 0.5 * (grid.a + grid.b) if spec.center is None else spec.center
    if not grid.a + spec.delta <= center <= grid.b - spec.delta:
        raise ParameterError(
            f"center {center} must lie in the collar-free region "
            f"[{grid.a + spec.delta}, {grid.b - spec.delta}]"
        )
    amp = spec.eps ** (-(params.N - params.ps) / params.p)
    r = np.abs(grid.nodes - center) / spec.eps
    vals = cutoff(grid.nodes, grid.a, grid.b, spec.delta) * amp * profile_u(
        r, params, spec.profile_kind
    )
    return GridFunction(grid, vals)


INTERACTION_NAMES = ("A1", "A2", "A3", "A4")


def interaction_integrals(
    w1: GridFunction, grid: Grid, params: Params, spec: BubbleSpec, which: str
) -> float:
    """Mixed integral of a fixed nonnegative w1 against the bubble.

    A1 = int w1^(p*-1) u_eps     A2 = int w1^q u_eps
    A3 = int w1 u_eps^q          A4 = int w1 u_eps^(p*-1)
    """
    if which not in INTERACTION_NAMES:
        raise ParameterError(f"which must be one of {INTERACTION_NAMES}, got {which!r}")
    w = w1.values
    if np.any(w < 0.0):
        raise ParameterError("w1 must be nonnegative")
    u = make_u_eps(grid, params, spec).values
    h = grid.h
    if which == "A1":
        return h * float(np.sum(w ** (params.pstar - 1.0) * u))
    if which == "A2":
        return h * float(np.sum(w ** params.q * u))
    if which == "A3":
        return h * float(np.sum(w * u ** params.q))
    return h * float(np.sum(w * u ** (params.pstar - 1.0)))


@dataclass(frozen=True)
class ScalingFit:
    """Log-log slope of values against the eps ladder.

    rel_err is populated when a theory exponent is attached; label carries
    a short human-readable note (e.g. the mass regime used).
    """

    eps_ladder: tuple
    values: tuple
    slope: float
    theory: float | None = None
    rel_err: float | None = None
    label: str | None = None


def fit_exponent(eps_ladder, values, theory: float | None = None, label: str | None = None) -> ScalingFit:
    """Least-squares slope of log(values) vs log(eps)."""
    eps = np.asarray(eps_ladder, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if eps.size < 4:
        raise ParameterError(f"ladder too short: need >= 4 points, got {eps.size}")
    if eps.size != vals.size:
        raise ParameterError("eps ladder and values must have matching lengths")
    if not np.all(np.diff(eps) < 0.0):
        raise ParameterError("eps ladder must be strictly decreasing")
    if not np.all(eps > 0.0):
        raise ParameterError("eps values must be positive")
    if not np.all(vals > 0.0):
        raise ParameterError("fit values must be positive")
    slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
    rel_err = None if theory is None else abs(slope - theory) / abs(theory)
    return ScalingFit(tuple(eps.tolist()), tuple(vals.tolist()), slope, theory, rel_err, label)


def ladder(spec: BubbleSpec, eps_values: Sequence[float]) -> list[BubbleSpec]:
    """Copies of spec over a decreasing ladder of concentration scales."""
    return [
        BubbleSpec(float(e), spec.delta, spec.center, spec.profile_kind) for e in eps_values
    ]


def mass_regime(params: Params) -> tuple[int, float]:
    """Which sublinear-mass regime q falls in, and the regime threshold.

    The threshold is (N(p-2) + ps)/(N - ps); regime 1 below it, 2 at it,
    3 above.  In one 1-D configuration with N <= s p^2 the threshold sits
    above p - 1, so every admissible q lands in regime 1.
    """
    N, p, ps = params.N, params.p, params.ps
    threshold = (N * (p - 2.0) + ps) / (N - ps)
    if abs(params.q - threshold) <= 1e-12 * max(1.0, abs(threshold)):
        return 2, threshold
    return (1, threshold) if params.q < threshold else (3, threshold)


def interaction_exponent(params: Params, which: str) -> float:
    """Asymptotic eps-exponent of an interaction integral against w1 = 1.

    A1, A2: (N - ps)/(p(p-1));  A3: q (N - ps)/(p(p-1));  A4: (N - ps)/p.
    """
    if which not in INTERACTION_NAMES:
        raise ParameterError(f"which must be one of {INTERACTION_NAMES}, got {which!r}")
    p, ps, N, q = params.p, params.ps, params.N, params.q
    if which == "A3":
        return q * (N - ps) / (p * (p - 1.0))
    if which == "A4":
        return (N - ps) / p
    return (N - ps) / (p * (p - 1.0))


def lq_mass_scaling(grid: Grid, params: Params, spec_ladder: Sequence[BubbleSpec]) -> ScalingFit:
    """Fit of the concave-term mass of the bubble family against eps.

    Regime-dependent theory slope:
      1: (N - ps)(q+1)/(p(p-1))
      2: N/p, after dividing the measured values by |log eps|
      3: N - (N - ps)(q+1)/p
    All three are lower-bound laws: the measured mass must not decay
    faster than the theory power.
    """
    specs = list(spec_ladder)
    if len(specs) < 4:
        raise ParameterError(f"ladder too short: need >= 4 points, got {len(specs)}")
    eps = np.array([sp.eps for sp in specs], dtype=np.float64)
    if not np.all(np.diff(eps) < 0.0):
        raise ParameterError("eps ladder must be strictly decreasing")
    delta = specs[0].delta
    if np.any(eps >= 0.5 * delta):
        raise ParameterError(
            f"every ladder eps must stay below delta/2 = {0.5 * delta}; got max {eps.max()}"
        )
    masses = np.array(
        [
            lebesgue_mass(make_u_eps(grid, params, sp), params.q + 1.0)
            for sp in specs
        ]
    )
    regime, threshold = mass_regime(params)
    N, p, q, ps = params.N, params.p, params.q, params.ps
    if regime == 1:
        theory = (N - ps) * (q + 1.0) / (p * (p - 1.0))
        fit_vals = masses
    elif regime == 2:
        theory = N / p
        fit_vals = masses / np.abs(np.log(eps))
    else:
        theory = N - (N - ps) * (q + 1.0) / p
        fit_vals = masses
    label = f"regime-{regime} (threshold q = {threshold:.6g})"
    return fit_exponent(eps, fit_vals, theory=theory, label=label)
