"""Grid construction, tail quadrature, and kernel structure."""

import numpy as np
import pytest

from nehari_fpl import (
    GridFunction,
    ParameterError,
    Params,
    build_grid,
    tail_weight,
)


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


def test_kernel_symmetric_with_empty_diagonal(params, grid48):
    k = grid48.kernel
    assert k.shape == (grid48.n, grid48.n)
    np.testing.assert_array_equal(k, k.T)
    np.testing.assert_array_equal(np.diag(k), 0.0)
    off = k[~np.eye(grid48.n, dtype=bool)]
    assert np.all(off > 0.0)


def test_kernel_entries_match_distance_power(params, grid48):
    i, j = 3, 17
    d = abs(grid48.nodes[i] - grid48.nodes[j])
    expect = d ** -(params.N + params.ps)
    assert grid48.kernel[i, j] == pytest.approx(expect, rel=1e-14)


def test_tail_column_positive_and_boundary_heavy(params, grid48):
    # nodes near the boundary see more of the exterior mass
    t = grid48.tail
    assert np.all(t > 0.0)
    assert t[0] > t[grid48.n // 2]
    assert t[-1] > t[grid48.n // 2]


def test_build_grid_rejects_bad_domain(params):
    with pytest.raises(ParameterError):
        build_grid(1.0, -1.0, 16, params)
    with pytest.raises(ParameterError):
        build_grid(0.0, 1.0, 0, params)


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


def test_pstar_value(params):
    assert params.pstar == pytest.approx(
        params.N * params.p / (params.N - params.p * params.s), rel=1e-15
    )
    assert params.pstar == pytest.approx(10.0, rel=1e-14)


def test_grid_function_shape_guard(params, grid48):
    with pytest.raises(ParameterError):
        GridFunction(grid48, np.zeros(grid48.n + 1))
