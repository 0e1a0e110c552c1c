"""Energy assembly: seminorm, masses, gradient, and sign-part structure."""

import numpy as np
import pytest

from nehari_fpl import (
    GridFunction,
    GridMismatchError,
    ParameterError,
    Params,
    build_grid,
    energy,
    form_a,
    gradient,
    lebesgue_mass,
    residual,
    seminorm_p,
    split_parts,
    tail_weight,
)
from nehari_fpl.energy import _seminorm_gradient_over_p
from nehari_fpl.grid import pair_kernel


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
    for _ in range(20):
        u = _random_fn(grid48, rng)
        t = float(np.exp(rng.standard_normal()))
        base = seminorm_p(u, params)
        scaled = seminorm_p(u.with_values(t * u.values), params)
        assert scaled == pytest.approx(t ** params.p * base, rel=1e-12)
        flipped = seminorm_p(u.with_values(-u.values), params)
        assert flipped == pytest.approx(base, rel=1e-13)


def test_form_a_diagonal_is_seminorm(params, grid48, rng):
    for _ in range(20):
        u = _random_fn(grid48, rng)
        assert form_a(u, u, params) == pytest.approx(seminorm_p(u, params), rel=1e-12)


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


def test_gradient_matches_directional_fd(params, grid64, rng):
    for _ in range(10):
        u = _random_fn(grid64, rng)
        d = _random_fn(grid64, rng)
        g = gradient(u, params)
        analytic = float(np.dot(g.values, d.values))
        eps = 1e-6 * float(np.max(np.abs(u.values))) / float(np.max(np.abs(d.values)))
        ep = energy(u.with_values(u.values + eps * d.values), params).total
        em = energy(u.with_values(u.values - eps * d.values), params).total
        fd = (ep - em) / (2.0 * eps)
        assert fd == pytest.approx(analytic, rel=1e-6)


def test_energy_breakdown_identity(params, grid48, rng):
    u = _random_fn(grid48, rng)
    br = energy(u, params)
    total = (
        br.seminorm_p / params.p
        - params.mu * br.lq_mass / (params.q + 1.0)
        - br.lpstar_mass / params.pstar
    )
    assert br.total == pytest.approx(total, rel=1e-14)
    assert br.seminorm_p == pytest.approx(seminorm_p(u, params), rel=1e-14)
    assert br.lq_mass == pytest.approx(lebesgue_mass(u, params.q + 1.0), rel=1e-14)
    assert br.lpstar_mass == pytest.approx(lebesgue_mass(u, params.pstar), rel=1e-14)


def test_split_parts_structure(grid48, rng):
    for _ in range(20):
        u = _random_fn(grid48, rng)
        plus, minus = split_parts(u)
        assert np.all(plus.values >= 0.0)
        assert np.all(minus.values >= 0.0)
        np.testing.assert_array_equal(plus.values - minus.values, u.values)
        np.testing.assert_array_equal(plus.values * minus.values, 0.0)


def test_plus_variant_matches_on_nonnegative(params, grid48, rng):
    u = GridFunction(grid48, np.abs(rng.standard_normal(grid48.n)))
    full = energy(u, params)
    plus = energy(u, params, plus_variant=True)
    assert plus.total == full.total
    assert plus.lq_mass == full.lq_mass
    assert plus.lpstar_mass == full.lpstar_mass


def test_plus_variant_drops_negative_mass(params, grid48, rng):
    u = _random_fn(grid48, rng)
    plus_part, _ = split_parts(u)
    br = energy(u, params, plus_variant=True)
    assert br.lq_mass == pytest.approx(lebesgue_mass(plus_part, params.q + 1.0), rel=1e-14)
    assert br.lpstar_mass == pytest.approx(lebesgue_mass(plus_part, params.pstar), rel=1e-14)


def test_grid_mismatch_guard(params, grid48, rng):
    other = build_grid(-1.0, 1.0, 32, params)
    u = _random_fn(grid48, rng)
    v = _random_fn(other, rng)
    with pytest.raises(GridMismatchError):
        form_a(u, v, params)
    with pytest.raises(GridMismatchError):
        residual(u, v, params)


PAIR_PARAMS = {
    "p2": Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1),
    "p2.5": Params(s=0.3, p=2.5, q=0.5, mu=0.05, N=1),
    "p3": Params(s=0.3, p=3.0, q=0.5, mu=0.05, N=1),
}


@pytest.mark.parametrize("n", [2, 17, 48, 64])
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
    pos = np.maximum(vals, 0.0)
    mass_grads = {
        False: prm.mu * h * np.sign(vals) * np.abs(vals) ** prm.q
        + h * np.sign(vals) * np.abs(vals) ** (prm.pstar - 1.0),
        True: prm.mu * h * pos ** prm.q + h * pos ** (prm.pstar - 1.0),
    }
    for plus_variant, mass_grad in mass_grads.items():
        expected = sem_grad - mass_grad
        g = gradient(u, prm, plus_variant=plus_variant).values
        assert np.max(np.abs(g - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert gradient(u, prm, plus_variant=plus_variant).values.tobytes() == g.tobytes()
    assert seminorm_p(u, prm) == seminorm_p(u, prm)
    assert form_a(u, phi, prm) == form_a(u, phi, prm)


def test_kernel_strength_mismatch_raises(params, grid48, rng):
    other_s = Params(0.3, params.p, params.q, params.mu, params.N)
    u = _random_fn(grid48, rng)
    with pytest.raises(ParameterError, match="p\\*s = 0.8.*p\\*s = 0.6"):
        seminorm_p(u, other_s)
    with pytest.raises(ParameterError):
        gradient(u, other_s)
    with pytest.raises(ParameterError):
        form_a(u, u, other_s)
