"""Concentration ladder: measured scaling slopes vs asymptotic rates.

Builds the cutoff bubble at a decreasing ladder of concentration scales
and fits log-log slopes of the interaction integrals and the concave
mass.  The fitted slopes trail the eps -> 0 rates at reachable scales;
the per-rung compensated values printed below show why: dividing out the
leading rate leaves a factor that is still drifting, because each value
is a * eps^theta + c * eps^theta' with c < 0, the far field and the core
|x| <~ eps giving the two exponents.  For A4 the core leads at
(N - ps)/p = 0.1; the far-field rate 0.9 is the subleading term.
"""

import numpy as np

from nehari_fpl import (
    DEFAULT_EPS_FRACS,
    GridFunction,
    Params,
    build_grid,
    default_bubble,
    fit_exponent,
    interaction_exponent,
    interaction_integrals,
    ladder,
    lq_mass_scaling,
    make_u_eps,
    seminorm_p,
    lebesgue_mass,
)


def main():
    params = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
    g = build_grid(-1.0, 1.0, 256, params)
    base = default_bubble(g, params)
    specs = ladder(base, [f * g.halfwidth for f in DEFAULT_EPS_FRACS])
    eps = [sp.eps for sp in specs]
    w = GridFunction(g, np.ones(g.n))

    print("eps ladder:", ", ".join(f"{e:g}" for e in eps))
    print(f"collar width delta = {base.delta:g} (every rung below delta/2)")

    print("\n-- interaction integrals against w = 1 --")
    for which in ("A1", "A4"):
        theory = interaction_exponent(params, which)
        vals = [interaction_integrals(w, g, params, sp, which) for sp in specs]
        fit = fit_exponent(eps, vals, theory=theory)
        comp = ", ".join(f"{v / e ** theory:.4f}" for v, e in zip(vals, eps))
        print(f"{which}: slope {fit.slope:.4f}  theory {theory:.2f}")
        print(f"    value / eps^theory per rung: {comp}")

    print("\n-- concave mass of the bubble itself --")
    fit = lq_mass_scaling(g, params, specs)
    print(f"mass: slope {fit.slope:.4f}  theory {fit.theory:.2f}")
    comp = ", ".join(f"{v / e ** fit.theory:.4f}" for v, e in zip(fit.values, eps))
    print(f"    value / eps^theory per rung: {comp}")

    print("\n-- Rayleigh quotient of the bubble along the ladder --")
    for sp in specs:
        u = make_u_eps(g, params, sp)
        quot = seminorm_p(u, params) / lebesgue_mass(u, params.pstar) ** (params.p / params.pstar)
        print(f"  eps {sp.eps:8.5f}: quotient {quot:.6f}")
    print("the quotient decreases along the ladder toward the Sobolev")
    print("constant, at the slow rate eps^(N - 2s) = eps^0.2 for p = 2")


if __name__ == "__main__":
    main()
