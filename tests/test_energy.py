"""Energy assembly: seminorm, masses, gradient, and sign-part structure."""

import tracemalloc

import numpy as np
import pytest

from nehari_fpl import (
    FiberMap,
    GridFunction,
    ParameterError,
    Params,
    build_grid,
    energy,
    fiber_roots,
    form_a,
    gradient,
    lebesgue_mass,
    perturbation_derivative,
    project_minus,
    residual,
    seminorm_p,
    split_parts,
    tail_weight,
)
from nehari_fpl.energy import GradientPieces, _seminorm_gradient_over_p, pair_actions, stiffness_action
from conftest import dense_stiffness, pair_kernel


def _random_fn(grid, rng):
    return GridFunction(grid, rng.standard_normal(grid.n))


def test_two_node_hand_sum():
    # n = 2 on (0, 1), u = (1, 0): one interacting pair plus the tail of
    # the single nonzero node, both elementary
    p = Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
    g = build_grid(0.0, 1.0, 2, p)
    u = GridFunction(g, np.array([1.0, 0.0]))
    h = g.h
    hand = h * h * 2.0 * abs(1.0 - 0.0) ** 2 * h ** -1.8
    hand += 2.0 * h * tail_weight(g.nodes[0], g, p) * 1.0
    assert seminorm_p(u, p) == pytest.approx(hand, rel=1e-15)


def test_seminorm_homogeneity(params, grid48, rng):
    # at t = -1; the scalings t > 0 are the energy.homogeneity check
    for _ in range(20):
        u = _random_fn(grid48, rng)
        flipped = seminorm_p(u.with_values(-u.values), params)
        assert flipped == pytest.approx(seminorm_p(u, params), rel=1e-13)


def test_form_a_linear_in_test_function(params, grid48, rng):
    u = _random_fn(grid48, rng)
    phi = _random_fn(grid48, rng)
    psi = _random_fn(grid48, rng)
    combo = phi.with_values(2.0 * phi.values - 3.0 * psi.values)
    lhs = form_a(u, combo, params)
    rhs = 2.0 * form_a(u, phi, params) - 3.0 * form_a(u, psi, params)
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_gradient_entries_are_residuals(params, grid48, rng):
    u = _random_fn(grid48, rng)
    g = gradient(u, params)
    for k in (0, 7, 31, grid48.n - 1):
        e = np.zeros(grid48.n)
        e[k] = 1.0
        assert g.values[k] == pytest.approx(residual(u, u.with_values(e), params), rel=1e-12)


def test_energy_breakdown_identity(params, grid48, rng):
    u = _random_fn(grid48, rng)
    fm = FiberMap.of(u, params)
    total = (
        fm.norm_p / params.p
        - params.mu * fm.mass_q / (params.q + 1.0)
        - fm.mass_star / params.pstar
    )
    assert energy(u, params) == pytest.approx(total, rel=1e-14)
    assert fm.norm_p == pytest.approx(seminorm_p(u, params), rel=1e-14)
    assert fm.mass_q == pytest.approx(lebesgue_mass(u, params.q + 1.0), rel=1e-14)
    assert fm.mass_star == pytest.approx(lebesgue_mass(u, params.pstar), rel=1e-14)
    # the energy is the expression every solve level is read from, to the
    # bit; a rearranged formula misses it in the last bit for about one u in five
    for _ in range(20):
        u = _random_fn(grid48, rng)
        assert energy(u, params) == float(FiberMap.of(u, params).phi(1.0))


def test_split_parts_structure(grid48, rng):
    for _ in range(20):
        u = _random_fn(grid48, rng)
        plus, minus = split_parts(u)
        assert np.all(plus.values >= 0.0)
        assert np.all(minus.values >= 0.0)
        np.testing.assert_array_equal(plus.values - minus.values, u.values)
        np.testing.assert_array_equal(plus.values * minus.values, 0.0)


def test_grid_mismatch_guard(params, grid48, rng):
    other = build_grid(-1.0, 1.0, 32, params)
    u = _random_fn(grid48, rng)
    v = _random_fn(other, rng)
    with pytest.raises(ParameterError, match="different grids"):
        form_a(u, v, params)
    with pytest.raises(ParameterError, match="different grids"):
        residual(u, v, params)


def test_lebesgue_mass_refuses_exponents_below_one(grid48, rng):
    with pytest.raises(ParameterError, match="mass exponent must be >= 1"):
        lebesgue_mass(_random_fn(grid48, rng), 0.5)


PAIR_PARAMS = {
    "p2": Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1),
    "p2.5": Params(s=0.3, p=2.5, q=0.5, mu=0.05, N=1),
    "p3": Params(s=0.3, p=3.0, q=0.5, mu=0.05, N=1),
}


# at n = 513 the p != 2 pair action takes five row blocks of 120 rows, the last of 33
@pytest.mark.parametrize("n", [2, 17, 48, 64, 513])
@pytest.mark.parametrize("key", list(PAIR_PARAMS))
def test_pair_sums_match_dense_reference(key, n):
    # the pair action (one matvec against K at p = 2, against the weighted
    # kernel otherwise) against the pair sums spelled out over the dense
    # kernel, for a sign-changing u
    prm = PAIR_PARAMS[key]
    p = prm.p
    grid = build_grid(-1.0, 1.0, n, prm)
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(n)
    vals[0], vals[-1] = 1.0, -1.0
    u = GridFunction(grid, vals)
    phi = _random_fn(grid, rng)
    h, tail, kernel = grid.h, grid.tail, pair_kernel(grid.nodes, prm.ps)
    du = vals[:, None] - vals[None, :]
    dphi = phi.values[:, None] - phi.values[None, :]
    pair = np.sign(du) * np.abs(du) ** (p - 1.0) * kernel
    own = np.sign(vals) * np.abs(vals) ** (p - 1.0) * tail
    sem = h * h * np.sum(np.abs(du) ** p * kernel) + 2.0 * h * np.sum(np.abs(vals) ** p * tail)
    pairing = h * h * np.sum(pair * dphi) + 2.0 * h * np.sum(own * phi.values)
    sem_grad = 2.0 * h * h * np.sum(pair, axis=1) + 2.0 * h * own
    assert seminorm_p(u, prm) == pytest.approx(sem, rel=1e-13)
    assert form_a(u, phi, prm) == pytest.approx(pairing, rel=1e-13)
    got = _seminorm_gradient_over_p(u, prm)
    assert np.max(np.abs(got - sem_grad)) <= 1e-13 * np.max(np.abs(sem_grad))
    assert _seminorm_gradient_over_p(u, prm).tobytes() == got.tobytes()
    concave = np.sign(vals) * np.abs(vals) ** prm.q
    critical = np.sign(vals) * np.abs(vals) ** (prm.pstar - 1.0)
    expected = sem_grad - prm.mu * h * concave - h * critical
    g = gradient(u, prm).values
    assert np.max(np.abs(g - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert gradient(u, prm).values.tobytes() == g.tobytes()
    assert seminorm_p(u, prm) == seminorm_p(u, prm)
    assert form_a(u, phi, prm) == form_a(u, phi, prm)
    # every other scalar read off G u: the weak residual, the energy and
    # the fiber map's coefficients, against rectangle-rule sums
    weak = pairing - prm.mu * h * np.sum(concave * phi.values) - h * np.sum(critical * phi.values)
    assert residual(u, phi, prm) == pytest.approx(weak, rel=1e-13)
    lq = h * np.sum(np.abs(vals) ** (prm.q + 1.0))
    lps = h * np.sum(np.abs(vals) ** prm.pstar)
    total = sem / p - prm.mu * lq / (prm.q + 1.0) - lps / prm.pstar
    fm = FiberMap.of(u, prm)
    np.testing.assert_allclose(
        [fm.norm_p, fm.mass_q, fm.mass_star, energy(u, prm)], [sem, lq, lps, total], rtol=1e-13
    )


def test_weighted_pair_action_holds_no_square_array():
    # at p != 2 the weights W are built in row blocks of PAIR_BLOCK entries:
    # one gradient's traced peak is about 1.2 MiB, against the 32 MiB of a
    # full W at this n
    prm = PAIR_PARAMS["p3"]
    n = 2048
    g = build_grid(-1.0, 1.0, n, prm)
    u = GridFunction(g, np.sin(np.pi * (g.nodes - g.a) / (g.b - g.a)))
    tracemalloc.start()
    try:
        gradient(u, prm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@pytest.mark.parametrize("n", [2, 3, 17, 48, 384])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_fft_pair_action_matches_dense_and_keeps_its_bits(n, p):
    # the grid's FFT product A x against the dense reference A; it is odd
    # bitwise (solver.projection-sign-flip judges at tolerance 0) and
    # repeated calls give the same bits
    prm = Params(s=0.4 if p == 2.0 else 0.3, p=p, q=0.5, mu=0.05, N=1)
    grid = build_grid(-1.0, 1.0, n, prm)
    x = np.random.default_rng(n).standard_normal(n)
    ax = stiffness_action(grid, x)
    ref = dense_stiffness(grid) @ x
    assert np.max(np.abs(ax - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert stiffness_action(grid, -x).tobytes() == (-ax).tobytes()
    assert stiffness_action(grid, x).tobytes() == ax.tobytes()


def test_each_scalar_costs_one_pair_action(params, grid48, rng):
    # every scalar is read off one evaluation of G u: a second formula, or a
    # fresh evaluation at a rescaled copy of u, is a second pair action
    u = project_minus(_random_fn(grid48, rng), params)
    phi = _random_fn(grid48, rng)
    calls = {
        "seminorm_p": lambda: seminorm_p(u, params),
        "form_a": lambda: form_a(u, phi, params),
        "residual": lambda: residual(u, phi, params),
        "energy": lambda: energy(u, params),
        "FiberMap.of": lambda: FiberMap.of(u, params),
        "perturbation_derivative": lambda: perturbation_derivative(u, phi, params),
        "fiber_roots": lambda: fiber_roots(u, params),
    }
    made = {}
    for name, call in calls.items():
        before = pair_actions()
        call()
        made[name] = pair_actions() - before
    assert made == dict.fromkeys(calls, 1)


def test_kernel_strength_mismatch_raises(params, grid48, rng):
    other_s = Params(0.3, params.p, params.q, params.mu, params.N)
    u = _random_fn(grid48, rng)
    with pytest.raises(ParameterError, match="p\\*s = 0.8.*p\\*s = 0.6"):
        seminorm_p(u, other_s)
    with pytest.raises(ParameterError):
        gradient(u, other_s)
    with pytest.raises(ParameterError):
        form_a(u, u, other_s)


@pytest.mark.parametrize("key", ["p2", "p3"])
def test_seminorm_gradient_identities_along_the_ray(key):
    # the identities the projected descent leans on to carry G u instead of
    # re-evaluating it: u . G u is the seminorm, G is (p-1)-homogeneous, and
    # at p = 2 it is the linear stiffness action
    prm = PAIR_PARAMS[key]
    grid = build_grid(-1.0, 1.0, 64, prm)
    rng = np.random.default_rng(7)
    u = _random_fn(grid, rng)
    assert np.any(u.values > 0.0) and np.any(u.values < 0.0)
    gu = _seminorm_gradient_over_p(u, prm)
    assert float(np.dot(u.values, gu)) == pytest.approx(seminorm_p(u, prm), rel=1e-13)
    t = 1.7
    gtu = _seminorm_gradient_over_p(u.with_values(t * u.values), prm)
    assert np.max(np.abs(gtu - t ** (prm.p - 1.0) * gu)) <= 1e-13 * np.max(np.abs(gtu))
    # the scaled pieces give the gradient and ray coefficients at t u
    pieces = GradientPieces.of(u, prm).scaled(t, prm)
    direct = GradientPieces.of(u.with_values(t * u.values), prm)
    g_direct = direct.gradient(prm)
    assert np.max(np.abs(pieces.gradient(prm) - g_direct)) <= 1e-13 * np.max(np.abs(g_direct))
    np.testing.assert_allclose(pieces.ray_coefficients(), direct.ray_coefficients(), rtol=1e-13)
    if prm.p == 2.0:
        d = _random_fn(grid, rng).values
        alpha = 0.3
        gv = _seminorm_gradient_over_p(u.with_values(u.values + alpha * d), prm)
        carried = gu + alpha * stiffness_action(grid, d)
        assert np.max(np.abs(gv - carried)) <= 1e-13 * np.max(np.abs(gv))
