"""Shared fixtures: default parameters and small grids; the dense reference operator."""

import numpy as np
import pytest

from nehari_fpl import Params, build_grid
from nehari_fpl.grid import tail_vector


@pytest.fixture
def params():
    return Params(s=0.4, p=2.0, q=0.5, mu=0.05, N=1)


@pytest.fixture
def grid48(params):
    return build_grid(-1.0, 1.0, 48, params)


@pytest.fixture
def grid64(params):
    return build_grid(-1.0, 1.0, 64, params)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def pair_kernel(nodes, ps):
    """Dense reference kernel |x_i - x_j|^(-(1+p*s)) with zero diagonal, in one n x n array."""
    kernel = np.abs(np.subtract.outer(nodes, nodes))
    np.fill_diagonal(kernel, 1.0)  # placeholder, masked right after
    kernel **= -(1.0 + ps)
    np.fill_diagonal(kernel, 0.0)
    return kernel


def dense_stiffness(grid):
    """Dense reference A = 2h^2 (diag(r) - K) + 2h diag(tail), r_i = sum_j K_ij, from the nodes."""
    kernel = pair_kernel(grid.nodes, grid.ps)
    tail = tail_vector(grid.nodes, grid.a, grid.b, grid.ps)
    return 2.0 * grid.h ** 2 * (np.diag(kernel.sum(axis=1)) - kernel) + 2.0 * grid.h * np.diag(tail)
