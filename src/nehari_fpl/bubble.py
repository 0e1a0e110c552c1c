"""Concentrating profiles, cutoffs, interaction integrals, scaling fits.

A profile U is rescaled into the extremal family

    U_eps(x) = eps^(-(N - s p)/p) * U(|x - c| / eps),  c = (a + b)/2,

and multiplied by a cubic smoothstep cutoff that is identically one at
distance delta from the boundary.  p fixes the profile: at p = 2 it is the
closed-form extremal (1 + r^2)^(-(N - 2 s)/2); at p != 2 only the decay of
the extremals is known (Brasco, Mosconi & Squassina, Calc. Var. 55, 2016),
so it is the envelope min(1, r^(-(N - s p)/(p - 1))).  Both decay like
r^(-(N - s p)/(p - 1)) at infinity, which is what the interaction
integrals and mass scaling laws probe.  ladder_fits is the one place the
concentration ladder is measured: one bubble per rung, A1-A4 against
w1 = 1 and the concave mass, each fitted against eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .energy import _same_grid, lebesgue_mass
from .errors import ParameterError
from .grid import Grid, GridFunction, Params

# default collar and concentration scale (fractions of the half-width) and
# ladder length; the scaling laws need every rung below half the collar
DEFAULT_DELTA_FRAC = 0.25
DEFAULT_EPS_FRAC = 0.1
LADDER_RUNGS = 4


@dataclass(frozen=True)
class BubbleSpec:
    """Concentration scale and collar width of a bubble at the interval midpoint; check_collar fits delta to a grid."""

    eps: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ParameterError(f"eps must be positive, got {self.eps}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ParameterError(f"delta must be positive, got {self.delta}")


def default_bubble(grid: Grid) -> BubbleSpec:
    """The bubble at the default fractions of the grid's half-width."""
    return BubbleSpec(DEFAULT_EPS_FRAC * grid.halfwidth, DEFAULT_DELTA_FRAC * grid.halfwidth)


def check_collar(spec: BubbleSpec, grid: Grid) -> None:
    """Raise ParameterError unless the collar delta is narrower than the half-width."""
    if spec.delta >= grid.halfwidth:
        raise ParameterError(f"delta = {spec.delta} must be smaller than the half-width {grid.halfwidth}")


def profile_u(r, params: Params) -> np.ndarray:
    """Profile value at radius r >= 0 (scalar or array): the extremal at p = 2, the envelope otherwise."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0.0):
        raise ParameterError("radius must be nonnegative")
    if params.p == 2.0:
        return (1.0 + r ** 2) ** (-(params.N - 2.0 * params.s) / 2.0)
    decay = (params.N - params.ps) / (params.p - 1.0)
    return np.maximum(r, 1.0) ** (-decay)


def cutoff(x, a: float, b: float, delta: float) -> np.ndarray:
    """Cubic smoothstep collar: 0 at the endpoints, 1 at distance delta."""
    x = np.asarray(x, dtype=np.float64)
    tl = np.clip((x - a) / delta, 0.0, 1.0)
    tr = np.clip((b - x) / delta, 0.0, 1.0)
    return tl * tl * (3.0 - 2.0 * tl) * tr * tr * (3.0 - 2.0 * tr)


def make_u_eps(grid: Grid, params: Params, spec: BubbleSpec) -> GridFunction:
    """Cutoff-rescaled profile on the grid, centred at the interval midpoint."""
    check_collar(spec, grid)
    amp = spec.eps ** (-(params.N - params.ps) / params.p)
    r = np.abs(grid.nodes - 0.5 * (grid.a + grid.b)) / spec.eps
    vals = cutoff(grid.nodes, grid.a, grid.b, spec.delta) * amp * profile_u(r, params)
    return GridFunction(grid, vals)


INTERACTION_NAMES = ("A1", "A2", "A3", "A4")


def interaction_integrals(w1: GridFunction, u_eps: GridFunction, params: Params) -> dict[str, float]:
    """Mixed integrals of a fixed nonnegative w1 against one bubble, keyed by INTERACTION_NAMES.

    A1 = int w1^(p*-1) u_eps     A2 = int w1^q u_eps
    A3 = int w1 u_eps^q          A4 = int w1 u_eps^(p*-1)

    Raises ParameterError when u_eps lives on another grid than w1.
    """
    _same_grid(w1, u_eps)
    w = w1.values
    if np.any(w < 0.0):
        raise ParameterError("w1 must be nonnegative")
    u, h = u_eps.values, w1.grid.h
    return {
        "A1": h * float(np.sum(w ** (params.pstar - 1.0) * u)),
        "A2": h * float(np.sum(w ** params.q * u)),
        "A3": h * float(np.sum(w * u ** params.q)),
        "A4": h * float(np.sum(w * u ** (params.pstar - 1.0))),
    }


class ScalingFit(NamedTuple):
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


def ladder(spec: BubbleSpec) -> list[BubbleSpec]:
    """spec and LADDER_RUNGS - 1 copies, each with half the eps of the one before."""
    return [BubbleSpec(spec.eps * 0.5 ** k, spec.delta) for k in range(LADDER_RUNGS)]


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


def lq_mass_scaling(
    params: Params, spec_ladder: Sequence[BubbleSpec], bubbles: Sequence[GridFunction]
) -> ScalingFit:
    """Fit of the concave-term mass of the bubble family against eps.

    bubbles holds make_u_eps of each rung of spec_ladder, in order.
    Regime-dependent theory slope:
      1: (N - ps)(q+1)/(p(p-1))
      2: N/p, after dividing the measured values by |log eps|
      3: N - (N - ps)(q+1)/p
    All three are lower-bound laws: the measured mass must not decay
    faster than the theory power.
    """
    specs = list(spec_ladder)
    if len(bubbles) != len(specs):
        raise ParameterError(f"need one bubble per rung: {len(specs)} rungs, {len(bubbles)} bubbles")
    eps = np.array([sp.eps for sp in specs], dtype=np.float64)
    delta = specs[0].delta
    if np.any(eps >= 0.5 * delta):
        raise ParameterError(
            f"every ladder eps must stay below delta/2 = {0.5 * delta}; got max {eps.max()}"
        )
    masses = np.array([lebesgue_mass(u, params.q + 1.0) for u in bubbles])
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


def ladder_fits(
    grid: Grid, params: Params, specs: Sequence[BubbleSpec]
) -> tuple[list[GridFunction], dict[str, ScalingFit]]:
    """The ladder's bubbles and their scaling fits against w1 = 1.

    Builds each rung's bubble once and takes A1-A4 of it against w1 = 1.
    fits maps each of INTERACTION_NAMES to its fit_exponent fit, with the
    interaction_exponent theory attached, and "mass" to lq_mass_scaling.
    """
    eps = [sp.eps for sp in specs]
    bubbles = [make_u_eps(grid, params, sp) for sp in specs]
    w_one = GridFunction(grid, np.ones(grid.n))
    integrals = [interaction_integrals(w_one, u, params) for u in bubbles]
    fits = {
        which: fit_exponent(eps, [a[which] for a in integrals], theory=interaction_exponent(params, which))
        for which in INTERACTION_NAMES
    }
    fits["mass"] = lq_mass_scaling(params, specs, bubbles)
    return bubbles, fits
