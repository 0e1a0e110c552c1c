"""Full sign-changing pipeline: positive state, crossing, two-part descent.

Runs the positive solve, matches the part rescalings of w1 - r * bubble
by bisection, then descends the energy with both parts pinned to their
fiber maxima.  The final report shows the structural facts and the one
honest limitation: the unconstrained gradient cannot fall below the
nonlocal pairing between the parts, so the converged flag stays false
while every manifold condition holds to tolerance.
"""

import numpy as np

from nehari_fpl import (
    Params,
    build_grid,
    compactness_gap,
    crossing_search,
    default_bubble,
    estimate_sobolev,
    make_u_eps,
    part_scales,
    solve_positive,
    solve_sign_changing,
)


def main():
    params = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
    g = build_grid(-1.0, 1.0, 96, params)

    print("-- stage 1: positive state --")
    pos = solve_positive(g, params, seed=0)
    print(f"converged {pos.converged} after {pos.iterations} iterations")
    print(f"energy {pos.energy:.8f}, negative part seminorm {pos.minus_part_norm:g}")

    print("\n-- stage 2: crossing search --")
    spec = default_bubble(g)
    ue = make_u_eps(g, params, spec)
    cr = crossing_search(pos.u, ue, params)
    print(f"matched ratio r = {cr.r:.6f} in bracket ({cr.bracket[0]:.4f}, {cr.bracket[1]:.4f})")
    print(f"common part scale a = {cr.a:.6f}, bubble coefficient b = {cr.b:.6f}")
    print(f"part tags at the crossing: {cr.class_plus_part.tag.value} / {cr.class_minus_part.tag.value}")

    mid = 0.5 * (cr.bracket[0] + cr.bracket[1])
    edge = cr.bracket[0] + 1e-3 * (cr.bracket[1] - cr.bracket[0])
    _, sm_mid = part_scales(pos.u, ue, params, mid)
    _, sm_edge = part_scales(pos.u, ue, params, edge)
    print(f"negative-part rescaling: {sm_mid:.3f} at midpoint, {sm_edge:.1f} near the edge")
    print("(the rescaling diverges as the negative part vanishes)")

    print("\n-- stage 3: two-part descent --")
    est = estimate_sobolev(g, params, iters=600, seed=0)
    res = solve_sign_changing(g, params, w1=pos.u, bubble=spec)
    print(f"iterations {res.iterations}, converged {res.converged}")
    print(f"energy {res.energy:.8f} vs positive level {pos.energy:.8f}")
    print(f"part seminorms {res.plus_part_norm:.4f} / {res.minus_part_norm:.4f}")
    print(f"part tags {res.plus_class.tag.value} / {res.minus_class.tag.value}")
    print(f"part stationarity phi'(1): {res.plus_class.first_deriv:.2e} / {res.minus_class.first_deriv:.2e}")
    print(f"level vs split lower bound: {res.energy:.6f} >= {res.c2_split_lower:.6f} ({res.split_ok})")
    ceiling = pos.energy + compactness_gap(params, est.value)
    print(f"compactness ceiling: {ceiling:.6f} (below it: {res.energy < ceiling})")
    print(f"\nresidual {res.residual_norm:.6f} floors at the cross pairing")
    print(f"cross_plus {res.cross_plus:.6f}, cross_minus {res.cross_minus:.6f}")
    print("moving mass of either sign always interacts with the other sign")
    print("through the kernel, so the full gradient cannot vanish on the")
    print("two-part constraint set; the manifold conditions above are the")
    print("meaningful optimality certificate")


if __name__ == "__main__":
    main()
