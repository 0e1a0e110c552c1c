"""Walk through the discrete energy: grid, tail closure, and gradient.

Prints the pieces of the quadrature for a tiny grid where every number
can be checked by hand, then confirms the gradient against a finite
difference on a larger one.
"""

import numpy as np

from nehari_fpl import (
    FiberMap,
    GridFunction,
    Params,
    build_grid,
    energy,
    gradient,
    seminorm_p,
    split_parts,
    tail_weight,
)


def main():
    params = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
    print("parameters:", params)
    print("critical exponent p* =", params.pstar)

    print("\n-- two-node grid on (0, 1), u = (1, 0) --")
    g2 = build_grid(0.0, 1.0, 2, params)
    u2 = GridFunction(g2, np.array([1.0, 0.0]))
    h = g2.h
    pair = h * h * 2.0 * abs(1.0 - 0.0) ** 2 * h ** -1.8
    tail = 2.0 * h * tail_weight(g2.nodes[0], g2, params)
    print(f"interacting pair contributes {pair:.12f}")
    print(f"exterior tail of node 1 contributes {tail:.12f}")
    print(f"sum {pair + tail:.12f} vs seminorm_p {seminorm_p(u2, params):.12f}")

    print("\n-- energy breakdown on a 64-node grid --")
    g = build_grid(-1.0, 1.0, 64, params)
    rng = np.random.default_rng(0)
    u = GridFunction(g, rng.standard_normal(g.n))
    fm = FiberMap.of(u, params)
    print(f"seminorm^p     {fm.norm_p:14.6f}")
    print(f"concave mass   {fm.mass_q:14.6f}")
    print(f"critical mass  {fm.mass_star:14.6f}")
    print(f"total energy   {energy(u, params):14.6f}")

    plus, minus = split_parts(u)
    gap = seminorm_p(u, params) - seminorm_p(plus, params) - seminorm_p(minus, params)
    print(f"\nsign-part superadditivity excess {gap:.6f} (strictly positive:")
    print("the kernel couples the two sign regions no matter how far apart)")

    print("\n-- gradient vs directional finite difference --")
    d = GridFunction(g, rng.standard_normal(g.n))
    analytic = float(np.dot(gradient(u, params).values, d.values))
    eps = 1e-6
    ep = energy(u.with_values(u.values + eps * d.values), params)
    em = energy(u.with_values(u.values - eps * d.values), params)
    fd = (ep - em) / (2.0 * eps)
    print(f"analytic {analytic:.10f}")
    print(f"central  {fd:.10f}")
    print(f"relative gap {abs(fd - analytic) / abs(analytic):.3e}")


if __name__ == "__main__":
    main()
