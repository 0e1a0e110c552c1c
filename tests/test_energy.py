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


def test_seminorm_superadditive_on_sign_change(params, grid48, rng):
    # mixed-sign functions pay a strictly positive nonlocal cross term
    for _ in range(50):
        u = _random_fn(grid48, rng)
        plus, minus = split_parts(u)
        if not (plus.values.any() and minus.values.any()):
            continue
        gap = seminorm_p(u, params) - seminorm_p(plus, params) - seminorm_p(minus, params)
        assert gap > 0.0


def test_mass_split_exact(params, grid48, rng):
    # the node sum splits exactly in exact arithmetic; floating point only
    # moves it by summation order, so the tolerance is near machine level
    for r in (params.q + 1.0, params.pstar):
        for _ in range(50):
            u = _random_fn(grid48, rng)
            plus, minus = split_parts(u)
            whole = lebesgue_mass(u, r)
            split = lebesgue_mass(plus, r) + lebesgue_mass(minus, r)
            assert split == pytest.approx(whole, rel=1e-13)


def test_energy_split_strict(params, grid48, rng):
    for _ in range(50):
        u = _random_fn(grid48, rng)
        plus, minus = split_parts(u)
        if not (plus.values.any() and minus.values.any()):
            continue
        neg = minus.with_values(-minus.values)
        gap = energy(u, params).total - energy(plus, params).total - energy(neg, params).total
        assert gap > 0.0


def test_pairing_dominates_part_seminorm(params, grid48, rng):
    # testing the energy against the negative part always over-collects it:
    # <A(u), -u^-> >= ||u^-||^p, strictly when u changes sign
    for _ in range(50):
        u = _random_fn(grid48, rng)
        plus, minus = split_parts(u)
        if not (plus.values.any() and minus.values.any()):
            continue
        neg = minus.with_values(-minus.values)
        assert form_a(u, neg, params) - seminorm_p(minus, params) > 0.0


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


@pytest.mark.parametrize("n", [2, 17, 48, 64])
def test_p2_pair_sums_match_dense_reference(params, n):
    # the p = 2 matvec path against the pair sums spelled out over the
    # dense kernel, for a sign-changing u
    grid = build_grid(-1.0, 1.0, n, params)
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(n)
    vals[0], vals[-1] = 1.0, -1.0
    u = GridFunction(grid, vals)
    phi = _random_fn(grid, rng)
    h, tail, kernel = grid.h, grid.tail, pair_kernel(grid.nodes, params.ps)
    du = vals[:, None] - vals[None, :]
    dphi = phi.values[:, None] - phi.values[None, :]
    sem = h * h * np.sum(du ** 2 * kernel) + 2.0 * h * np.sum(vals ** 2 * tail)
    pairing = h * h * np.sum(du * dphi * kernel) + 2.0 * h * np.sum(vals * phi.values * tail)
    sem_grad = 2.0 * h * h * np.sum(du * kernel, axis=1) + 2.0 * h * vals * tail
    assert seminorm_p(u, params) == pytest.approx(sem, rel=1e-13)
    assert form_a(u, phi, params) == pytest.approx(pairing, rel=1e-13)
    pos = np.maximum(vals, 0.0)
    mass_grads = {
        False: params.mu * h * np.sign(vals) * np.abs(vals) ** params.q
        + h * np.sign(vals) * np.abs(vals) ** (params.pstar - 1.0),
        True: params.mu * h * pos ** params.q + h * pos ** (params.pstar - 1.0),
    }
    for plus_variant, mass_grad in mass_grads.items():
        expected = sem_grad - mass_grad
        g = gradient(u, params, plus_variant=plus_variant).values
        assert np.max(np.abs(g - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert gradient(u, params, plus_variant=plus_variant).values.tobytes() == g.tobytes()
    assert seminorm_p(u, params) == seminorm_p(u, params)
    assert form_a(u, phi, params) == form_a(u, phi, params)


def test_kernel_strength_mismatch_raises(params, grid48, rng):
    other_s = Params(0.3, params.p, params.q, params.mu, params.N)
    u = _random_fn(grid48, rng)
    with pytest.raises(ParameterError, match="p\\*s = 0.8.*p\\*s = 0.6"):
        seminorm_p(u, other_s)
    with pytest.raises(ParameterError):
        gradient(u, other_s)
    with pytest.raises(ParameterError):
        form_a(u, u, other_s)
