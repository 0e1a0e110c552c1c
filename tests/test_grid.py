"""Grid construction, tail quadrature, kernel structure and the stored operator."""

import tracemalloc

import numpy as np
import pytest

from nehari_fpl import (
    GridFunction,
    ParameterError,
    Params,
    build_grid,
    gradient,
    tail_weight,
)
from nehari_fpl.energy import stiffness_action
from nehari_fpl.grid import tail_vector
from conftest import dense_stiffness


def test_refinement_embeds_nodes(params):
    # 2n+1 interior nodes halve the spacing, so every coarse node reappears
    coarse = build_grid(-1.0, 1.0, 24, params)
    fine = build_grid(-1.0, 1.0, 49, params)
    assert fine.h == pytest.approx(coarse.h / 2.0, rel=1e-14)
    for x in coarse.nodes:
        assert np.min(np.abs(fine.nodes - x)) < 1e-12


def test_tail_weight_off_center_closed_form(params):
    g = build_grid(0.0, 1.0, 3, params)
    hand = (0.25 ** -0.8 + 0.75 ** -0.8) / 0.8
    assert tail_weight(0.25, g, params) == pytest.approx(hand, rel=1e-13)
    assert hand == pytest.approx(5.3627706017674992, rel=1e-15)


def test_tail_weight_symmetric(params):
    g = build_grid(-1.0, 1.0, 5, params)
    for x in (0.3, 0.7):
        assert tail_weight(x, g, params) == pytest.approx(tail_weight(-x, g, params), rel=1e-13)


def test_tail_weight_rejects_other_kernel_strength(params):
    # the grid's tail belongs to its own p*s; another p*s is another kernel
    g = build_grid(0.0, 1.0, 3, params)
    other = Params(0.3, params.p, params.q, params.mu, params.N)
    with pytest.raises(ParameterError, match="p\\*s = 0.8.*p\\*s = 0.6"):
        tail_weight(0.25, g, other)


def test_tail_weight_refuses_points_off_the_interior(params):
    g = build_grid(0.0, 1.0, 3, params)
    for x in (0.0, 1.0, 1.5):
        with pytest.raises(ParameterError, match="strictly inside"):
            tail_weight(x, g, params)


def test_kernel_off_diagonal_positive(params, grid48):
    # symmetry and the empty diagonal are the grid.kernel-symmetric check
    k = -grid48.toeplitz() / (2.0 * grid48.h ** 2)
    assert k.shape == (grid48.n, grid48.n)
    assert np.all(k[~np.eye(grid48.n, dtype=bool)] > 0.0)


def test_kernel_entries_match_distance_power(params, grid48):
    i, j = 3, 17
    d = abs(grid48.nodes[i] - grid48.nodes[j])
    expect = d ** -(params.N + params.ps)
    assert -grid48.toeplitz()[i, j] / (2.0 * grid48.h ** 2) == pytest.approx(expect, rel=1e-14)


def test_tail_column_positive_and_boundary_heavy(params, grid48):
    # nodes near the boundary see more of the exterior mass
    t = grid48.tail
    assert np.all(t > 0.0)
    assert t[0] > t[grid48.n // 2]
    assert t[-1] > t[grid48.n // 2]


@pytest.mark.parametrize("n", [2, 3, 17, 48, 384])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_strang_eigenvalues_match_dense_circulant(n, p):
    # the column c_0 = max_i A_ii, c_k = c_(n-k) = A_0k for k <= n/2 of the
    # dense reference A, against the spectrum of the assembled circulant
    prm = Params(s=0.4 if p == 2.0 else 0.3, p=p, q=0.5, mu=0.05, N=1)
    g = build_grid(-1.0, 1.0, n, prm)
    a = dense_stiffness(g)
    col = np.empty(n)
    col[0] = np.max(np.diag(a))
    for k in range(1, n // 2 + 1):
        col[k] = col[n - k] = a[0, k]
    dense = np.array([[col[(i - j) % n] for j in range(n)] for i in range(n)])
    full = g.strang_eigs[np.minimum(np.arange(n), n - np.arange(n))]
    np.testing.assert_allclose(np.sort(full), np.linalg.eigvalsh(dense), rtol=1e-9, atol=0.0)
    assert g.strang_eigs.shape == (n // 2 + 1,)
    assert np.all(g.strang_eigs > 0.0)
    assert not g.strang_eigs.flags.writeable


@pytest.mark.parametrize("n", [2, 17, 48, 384])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_stiffness_matches_dense_assembly(n, p):
    # the stored column and diagonal against A = 2h^2 (diag(r) - K) + 2h
    # diag(tail), assembled from the reference kernel and tail; its rows
    # sum to the tail part alone, A 1 = 2h tail
    prm = Params(s=0.4 if p == 2.0 else 0.3, p=p, q=0.5, mu=0.05, N=1)
    g = build_grid(-1.0, 1.0, n, prm)
    h = g.h
    dense = dense_stiffness(g)
    stored = g.toeplitz() + np.diag(g.diagonal)
    assert stored.shape == (n, n)
    assert np.max(np.abs(stored - dense)) <= 1e-13 * np.max(np.abs(dense))
    np.testing.assert_array_equal(g.toeplitz(), g.toeplitz().T)
    assert g.column[0] == 0.0
    for arr in (g.column, g.diagonal, g.column_fft, g.toeplitz()):
        assert not arr.flags.writeable
    tail = tail_vector(g.nodes, g.a, g.b, prm.ps)
    ones = stiffness_action(g, np.ones(n))
    assert np.max(np.abs(ones - 2.0 * h * tail)) <= 1e-13 * np.max(2.0 * h * tail)


def test_grid_holds_no_square_array(params):
    # the grid stores A in O(n) numbers, and a p = 2 gradient is one FFT
    # product with no n x n temporary: its peak is a few length-n arrays
    # (about 6), against the 128 MiB of a dense A at this n
    n = 4096
    g = build_grid(-1.0, 1.0, n, params)
    arrays = {k: v.shape for k, v in vars(g).items() if isinstance(v, np.ndarray)}
    assert all(len(shape) == 1 and shape[0] <= n + 1 for shape in arrays.values()), arrays
    u = GridFunction(g, np.sin(np.pi * (g.nodes - g.a) / (g.b - g.a)))
    tracemalloc.start()
    try:
        gradient(u, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * n


def test_build_grid_rejects_bad_domain(params):
    with pytest.raises(ParameterError):
        build_grid(1.0, -1.0, 16, params)
    with pytest.raises(ParameterError):
        build_grid(0.0, 1.0, 0, params)
    for a, b in ((-np.inf, 1.0), (0.0, np.nan)):
        with pytest.raises(ParameterError, match="endpoints must be finite"):
            build_grid(a, b, 16, params)


def test_params_validation():
    with pytest.raises(ParameterError):
        Params(s=1.2, p=2.0, q=0.5, mu=0.05, N=1)
    with pytest.raises(ParameterError):
        Params(s=0.4, p=0.9, q=0.5, mu=0.05, N=1)
    with pytest.raises(ParameterError):
        # concave exponent must stay below p - 1
        Params(s=0.4, p=2.0, q=1.5, mu=0.05, N=1)
    with pytest.raises(ParameterError):
        # subcritical requires N > ps
        Params(s=0.6, p=2.0, q=0.5, mu=0.05, N=1)
    with pytest.raises(ParameterError):
        Params(s=0.4, p=2.0, q=0.5, mu=-0.05, N=1)
    base = dict(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)
    for bad, message in (
        (dict(s=np.nan), "s must be a finite number"),
        (dict(mu=np.inf), "mu must be a finite number"),
        (dict(q="0.5"), "q must be a finite number"),
        (dict(N=1.5), "N must be an integer"),
        (dict(N=0), "N must be >= 1"),
        # p* = N p/(N - ps) rounds to exactly p
        (dict(s=1e-20), "critical exponent rounds to p"),
    ):
        with pytest.raises(ParameterError, match=message):
            Params(**{**base, **bad})
    # mu = 0 is the pure critical problem
    assert Params(s=0.4, p=2.0, q=0.5, mu=0.0, N=1).mu == 0.0


def test_pstar_value(params):
    assert params.pstar == pytest.approx(
        params.N * params.p / (params.N - params.p * params.s), rel=1e-15
    )
    assert params.pstar == pytest.approx(10.0, rel=1e-14)


def test_grid_function_shape_guard(params, grid48):
    with pytest.raises(ParameterError):
        GridFunction(grid48, np.zeros(grid48.n + 1))
    with pytest.raises(ParameterError, match="values must be finite"):
        GridFunction(grid48, np.full(grid48.n, np.nan))
