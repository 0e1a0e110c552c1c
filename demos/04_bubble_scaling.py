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

from nehari_fpl import (
    Params,
    build_grid,
    default_bubble,
    ladder,
    ladder_fits,
    lebesgue_mass,
    seminorm_p,
)


def per_rung(fit):
    """value / eps^theory at each rung of a ladder fit."""
    return ", ".join(f"{v / e ** fit.theory:.4f}" for v, e in zip(fit.values, fit.eps_ladder))


def main():
    params = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
    g = build_grid(-1.0, 1.0, 256, params)
    base = default_bubble(g)
    specs = ladder(base)
    bubbles, fits = ladder_fits(g, params, specs)

    print("eps ladder:", ", ".join(f"{sp.eps:g}" for sp in specs))
    print(f"collar width delta = {base.delta:g} (every rung below delta/2)")

    print("\n-- interaction integrals against w = 1 --")
    for which in ("A1", "A4"):
        fit = fits[which]
        print(f"{which}: slope {fit.slope:.4f}  theory {fit.theory:.2f}")
        print(f"    value / eps^theory per rung: {per_rung(fit)}")

    print("\n-- concave mass of the bubble itself --")
    fit = fits["mass"]
    print(f"mass: slope {fit.slope:.4f}  theory {fit.theory:.2f}")
    print(f"    value / eps^theory per rung: {per_rung(fit)}")

    print("\n-- Rayleigh quotient of the bubble along the ladder --")
    for sp, u in zip(specs, bubbles):
        quot = seminorm_p(u, params) / lebesgue_mass(u, params.pstar) ** (params.p / params.pstar)
        print(f"  eps {sp.eps:8.5f}: quotient {quot:.6f}")
    print("the quotient decreases along the ladder toward the Sobolev")
    print("constant, at the slow rate eps^(N - 2s) = eps^0.2 for p = 2")


if __name__ == "__main__":
    main()
