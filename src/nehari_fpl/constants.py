"""Closed-form constants, thresholds, and the discrete Sobolev quotient.

All formulas are explicit in (s, p, q, N, |domain|, S); only S itself is
numerical: the discrete Rayleigh quotient

    R(u) = seminorm_p(u) / (int |u|^p*)^(p/p*)

at the one-sign solution of the mu = 0 problem.  On its own fiber maximum
a function u has mu = 0 energy (1/p - 1/p*) R(u)^(p*/(p*-p))
= (s/N) R(u)^(N/(s p)), so the least mu = 0 level and the least quotient
are one minimization, and the one-sign solve does it.  At p = 2 the sharp
constant of this seminorm is also known in closed form (sobolev_exact);
it is reported next to the estimate, not used in its place.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

from .errors import ParameterError
from .grid import Grid, Params
from .solver import solve_positive

P_BRANCH = (3.0 + math.sqrt(5.0)) / 2.0
# estimate_sobolev's default iteration budget
SOBOLEV_ITERS = 600


class SobolevEstimate(NamedTuple):
    """Sobolev quotient of the mu = 0 one-sign solution, with its solve's bookkeeping.

    ``converged`` is the mu = 0 solve's residual test: the sup norm of the
    nodal gradient at most tol_res * (1 + |level|).  ``iterations`` counts
    that solve's descent iterations.
    """

    value: float
    converged: bool
    iterations: int


def estimate_sobolev(grid: Grid, params: Params, iters: int = SOBOLEV_ITERS, seed: int = 0) -> SobolevEstimate:
    """Discrete Sobolev quotient from the one-sign solve of the mu = 0 problem.

    Its level c0 is (s/N) R(u)^(N/(s p)) at the solution u, so the returned
    value (N c0 / s)^(s p / N) is R(u), an upper bound for the discrete
    infimum.  ``iters`` caps the solve's iterations and ``seed`` picks its
    start.  A grid built for another p*s raises ParameterError.
    """
    if iters < 1:
        raise ParameterError(f"iters must be >= 1, got {iters}")
    res = solve_positive(grid, replace(params, mu=0.0), seed=seed, max_iters=iters)
    value = (params.N * res.energy / params.s) ** (params.ps / params.N)
    return SobolevEstimate(value, res.converged, res.iterations)


def sobolev_exact(params: Params) -> float:
    """Sharp p = 2 Sobolev constant of this seminorm on all of R^N: 2 S_CT / C(N, s).

    Cotsiolis and Tavoularis (J. Math. Anal. Appl. 295, 2004) give
    ||(-Delta)^(s/2) u||^2 >= S_CT ||u||^2_(2*) with
    S_CT = 2^(2s) pi^s G((N+2s)/2) / G((N-2s)/2) (G(N/2)/G(N))^(2s/N), G the
    gamma function.  The seminorm here is the full Gagliardo double
    integral, 2 / C(N, s) times that norm, with
    C(N, s) = s 2^(2s) G((N+2s)/2) / (pi^(N/2) G(1-s)) (Di Nezza, Palatucci
    and Valdinoci, Bull. Sci. Math. 136, 2012, Prop. 3.6); the factors
    2^(2s) G((N+2s)/2) cancel in the ratio.  Raises ParameterError at p != 2.
    """
    if params.p != 2.0:
        raise ParameterError(f"the closed-form Sobolev constant needs p = 2, got p = {params.p}")
    s, N = params.s, params.N
    return (
        2.0 * math.pi ** (s + N / 2.0) * math.gamma(1.0 - s)
        * (math.gamma(N / 2.0) / math.gamma(N)) ** (2.0 * s / N)
        / (s * math.gamma((N - 2.0 * s) / 2.0))
    )


class ConstantsReport(NamedTuple):
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

    @property
    def ps_level_at_mu(self) -> float:
        """Compactness threshold at the report's own mu."""
        return self.ps_level(self.params.mu)

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
    return ConstantsReport(
        s_est=s_val,
        mu_tilde=mt,
        big_m=bm,
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
