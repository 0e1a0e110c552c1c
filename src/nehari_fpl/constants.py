"""Closed-form constants, thresholds, and the discrete Sobolev quotient.

All formulas are explicit in (s, p, q, N, |domain|, S); only S itself is
numerical, obtained by minimizing the discrete Rayleigh quotient

    R(u) = seminorm_p(u) / (int |u|^p*)^(p/p*)

over grid functions.  The quotient is scale invariant, so the descent
renormalizes to unit critical mass after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import _seminorm_gradient, lebesgue_mass, seminorm_p, signed_power
from .errors import ParameterError
from .grid import Grid, GridFunction, Params

P_BRANCH = (3.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class SobolevEstimate:
    """Best Rayleigh quotient found, with convergence bookkeeping.

    ``converged`` is False when the quotient was still decreasing by more
    than 1e-6 relative per accepted step when the iteration budget ran out.
    """

    value: float
    converged: bool
    iterations: int

    def __float__(self) -> float:
        return self.value


# The descent stops once the running minimum has improved by at most
# FLOOR_REL_GAIN relative over the last FLOOR_WINDOW accepted steps: the
# quotient sits at its rounding floor and further steps chase noise.
FLOOR_REL_GAIN = 1e-14
FLOOR_WINDOW = 10


def estimate_sobolev(grid: Grid, params: Params, iters: int = 600, seed: int = 0) -> SobolevEstimate:
    """Minimize the discrete Rayleigh quotient from a seeded random start.

    Plain descent on the logarithmic gradient of R with backtracking and a
    modulus projection (|u| never increases the quotient), deterministic
    for a fixed seed.  Stops at the rounding floor (see FLOOR_REL_GAIN) or
    after ``iters`` iterations, whichever comes first.  Returns the running
    minimum over every quotient evaluated, an upper bound for the discrete
    infimum.  A grid built for another p*s raises ParameterError.
    """
    if iters < 1:
        raise ParameterError(f"iters must be >= 1, got {iters}")
    rng = np.random.default_rng(seed)
    h = grid.h
    p, pstar = params.p, params.pstar

    def mass(v):
        return lebesgue_mass(v, pstar)

    u = GridFunction(grid, rng.random(grid.n) + 1e-3)
    u = u.with_values(u.values / mass(u) ** (1.0 / pstar))
    S = seminorm_p(u, params)
    m = mass(u)
    quotient = S / m ** (p / pstar)
    best = quotient
    history = [best]
    last_rel_drop = math.inf
    it_done = 0
    for it in range(iters):
        it_done = it + 1
        gm = pstar * h * signed_power(u.values, pstar - 1.0)
        glog = _seminorm_gradient(u, params) / S - (p / pstar) * gm / m
        d = -glog / h
        slope = float(np.dot(glog, d))
        alpha = 1.0
        accepted = False
        while alpha > 1e-18:
            trial = u.with_values(np.abs(u.values + alpha * d))
            m_t = mass(trial)
            if m_t > 0.0:
                q_t = seminorm_p(trial, params) / m_t ** (p / pstar)
                best = min(best, q_t)
                if q_t <= quotient * (1.0 + 1e-4 * alpha * slope):
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            last_rel_drop = 0.0
            break
        last_rel_drop = (quotient - q_t) / quotient
        u = trial.with_values(trial.values / m_t ** (1.0 / pstar))
        S = seminorm_p(u, params)
        m = mass(u)
        quotient = S / m ** (p / pstar)
        best = min(best, quotient)
        history.append(best)
        if len(history) > FLOOR_WINDOW:
            before = history[-1 - FLOOR_WINDOW]
            if before - best <= FLOOR_REL_GAIN * before:
                break
    return SobolevEstimate(best, last_rel_drop <= 1e-6, it_done)


@dataclass(frozen=True)
class ConstantsReport:
    """Closed-form constants evaluated for one parameter set.

    n0 is the dimension threshold of the active p-branch; both branch
    values are reported because the branches land on different formulas,
    together with the auxiliary dimension bound n_min_q1 that partners the
    exponent q1.  hypothesis_ok records whether (q, N) sit inside the
    window q0 < q < p-1, N > n0.
    """

    s_est: float
    mu_tilde: float
    big_m: float
    ps_level_at_mu: float
    q1: float
    q2: float
    q3: float
    q0: float
    n0: float
    n0_small_p: float
    n0_large_p: float
    n_min_q1: float
    regime: str
    hypothesis_ok: bool
    params: Params
    domain_measure: float

    def ps_level(self, mu: float) -> float:
        """Compactness threshold c*(mu), strictly decreasing in mu."""
        pstar, q = self.params.pstar, self.params.q
        return compactness_gap(self.params, self.s_est) - self.big_m * mu ** (
            pstar / (pstar - q - 1.0)
        )


def compactness_gap(params: Params, s_const) -> float:
    """(s/N) * S^(N/(s p)), the energy a concentrating bubble adds in the limit."""
    s, N = params.s, params.N
    return (s / N) * float(s_const) ** (N / (s * params.p))


def mu_tilde(params: Params, domain_measure: float, s_const: float) -> float:
    """Uniform two-root threshold: below it every nonzero ray has both crossings.

    ((p-1-q)/(p*-q-1))^((p-1-q)/(p*-p)) * (p*-p)/(p*-q-1)
        * |domain|^((q+1-p*)/p*) * S^(N(p-1-q)/(p^2 s) + (q+1)/p)
    """
    p, q, pstar = params.p, params.q, params.pstar
    s, N = params.s, params.N
    lead = ((p - 1.0 - q) / (pstar - q - 1.0)) ** ((p - 1.0 - q) / (pstar - p))
    s_exp = N * (p - 1.0 - q) / (p * p * s) + (q + 1.0) / p
    return (
        lead
        * (pstar - p)
        / (pstar - q - 1.0)
        * domain_measure ** ((q + 1.0 - pstar) / pstar)
        * s_const ** s_exp
    )


def big_m(params: Params, domain_measure: float) -> float:
    """Prefactor of the mu-dependent drop in the compactness threshold."""
    p, q, N, s = params.p, params.q, params.N, params.s
    ps = params.ps
    pstar = params.pstar
    lead = (p * N - (N - ps) * (q + 1.0)) * (p - 1.0 - q) / (p * p * (q + 1.0))
    inner = ((p - 1.0 - q) * (N - s * p) / (p * p * s)) ** ((q + 1.0) / (pstar - q - 1.0))
    return lead * inner * domain_measure


def regime_report(params: Params, domain_measure: float, s_const) -> ConstantsReport:
    """Evaluate every closed-form constant for one parameter set.

    The exponent window has two branches in p, split at (3 + sqrt 5)/2:
    below it q0 = max(q1, q3) with dimension threshold s*p*(p+1), at or
    above it q0 = max(q1, q2) with threshold s*p*(p^2-p+1).
    """
    s_val = float(s_const)
    if not (math.isfinite(domain_measure) and domain_measure > 0.0):
        raise ParameterError(f"domain measure must be positive, got {domain_measure}")
    if not (math.isfinite(s_val) and s_val > 0.0):
        raise ParameterError(f"Sobolev constant must be positive, got {s_const!r}")
    p, q, N, s = params.p, params.q, params.N, params.s
    sp = s * p
    q1 = N * N * (p - 1.0) / ((N - sp) * (N - s)) - 1.0
    q2 = N * p / (N - sp) - p / (p - 1.0)
    q3 = N * (p - 1.0) / (N - sp) - (p - 1.0) / p
    n0_small = sp * (p + 1.0)
    n0_large = sp * (p * p - p + 1.0)
    n_min_q1 = 0.5 * sp * (p + 1.0 + math.sqrt((p + 1.0) ** 2 - 4.0))
    if p >= P_BRANCH:
        q0, n0, regime = max(q1, q2), n0_large, "large-p"
    else:
        q0, n0, regime = max(q1, q3), n0_small, "small-p"
    mt = mu_tilde(params, domain_measure, s_val)
    bm = big_m(params, domain_measure)
    report = ConstantsReport(
        s_est=s_val,
        mu_tilde=mt,
        big_m=bm,
        ps_level_at_mu=0.0,
        q1=q1,
        q2=q2,
        q3=q3,
        q0=q0,
        n0=n0,
        n0_small_p=n0_small,
        n0_large_p=n0_large,
        n_min_q1=n_min_q1,
        regime=regime,
        hypothesis_ok=(q0 < q < p - 1.0) and (N > n0),
        params=params,
        domain_measure=float(domain_measure),
    )
    object.__setattr__(report, "ps_level_at_mu", report.ps_level(params.mu))
    return report
