"""Problem parameters and the uniform interior grid on an interval.

The discretization lives on the open interval (a, b) with n equispaced
interior nodes x_i = a + i*h, h = (b - a)/(n + 1), and a homogeneous
exterior condition: functions vanish identically outside (a, b).  The
exterior is not truncated; its kernel mass is folded into a per-node
"tail" weight with the closed form

    tail(x) = ((x - a)^(-p*s) + (b - x)^(-p*s)) / (p*s),

the exact integral of |x - y|^(-(1 + p*s)) over y outside (a, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class Params:
    """Model parameters.

    s  : fractional order, 0 < s < 1.
    p  : integrability exponent, p >= 2.
    q  : sublinear exponent of the concave term, 0 < q < p - 1.
    mu : weight of the concave term, mu > 0.
    N  : dimension entering the closed-form constants and the critical
         exponent; the quadrature itself is one-dimensional.  Must satisfy
         N > p*s so the critical exponent is finite.
    """

    s: float
    p: float
    q: float
    mu: float
    N: int = 1

    def __post_init__(self):
        for name in ("s", "p", "q", "mu"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(float(value)):
                raise ParameterError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not float(self.N) == int(self.N):
            raise ParameterError(f"N must be an integer, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if not 0.0 < self.s < 1.0:
            raise ParameterError(f"s must lie in (0, 1), got {self.s}")
        if self.p < 2.0:
            raise ParameterError(f"p must be >= 2, got {self.p}")
        if not 0.0 < self.q < self.p - 1.0:
            raise ParameterError(f"q must lie in (0, p - 1) = (0, {self.p - 1}), got {self.q}")
        if self.mu <= 0.0:
            raise ParameterError(f"mu must be positive, got {self.mu}")
        if self.N < 1:
            raise ParameterError(f"N must be >= 1, got {self.N}")
        if self.N <= self.p * self.s:
            raise ParameterError(
                f"N must exceed p*s = {self.p * self.s} for a finite critical exponent, got N = {self.N}"
            )

    @property
    def ps(self) -> float:
        """Product p*s, the kernel strength."""
        return self.p * self.s

    @property
    def pstar(self) -> float:
        """Critical exponent N*p/(N - p*s); always greater than p."""
        return self.N * self.p / (self.N - self.p * self.s)


def tail_weight(x: float, grid: "Grid", params: Params) -> float:
    """Exterior kernel mass seen from an interior point x.

    Closed form of int_{y outside (a,b)} |x - y|^(-(1+p*s)) dy; diverges as
    x approaches either endpoint, hence the strict interiority requirement.
    """
    a, b = grid.a, grid.b
    ps = params.ps
    if not a < x < b:
        raise ParameterError(f"x must lie strictly inside ({a}, {b}), got {x}")
    return ((x - a) ** (-ps) + (b - x) ** (-ps)) / ps


def tail_vector(nodes: np.ndarray, a: float, b: float, ps: float) -> np.ndarray:
    """Vectorized tail weights for a set of interior nodes."""
    return ((nodes - a) ** (-ps) + (b - nodes) ** (-ps)) / ps


def pair_kernel(nodes: np.ndarray, ps: float) -> np.ndarray:
    """Pairwise kernel matrix |x_i - x_j|^(-(1+p*s)) with zero diagonal."""
    diff = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(diff, 1.0)  # placeholder, masked right after
    kernel = diff ** (-(1.0 + ps))
    np.fill_diagonal(kernel, 0.0)
    return kernel


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid with precomputed kernel data.

    The kernel matrix, its row sums and the tail weights are built for the
    p*s the grid was constructed with; energy routines raise ParameterError
    when called with parameters of a different p*s.
    """

    a: float
    b: float
    n: int
    h: float
    nodes: np.ndarray
    tail: np.ndarray
    ps: float
    kernel: np.ndarray
    row_sums: np.ndarray

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.b - self.a)


def build_grid(a: float, b: float, n: int, params: Params) -> Grid:
    """Build the n-node uniform grid on (a, b) with kernel data for params."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"interval endpoints must be finite, got ({a}, {b})")
    if not a < b:
        raise ParameterError(f"interval must satisfy a < b, got ({a}, {b})")
    if not float(n) == int(n) or int(n) < 2:
        raise ParameterError(f"n must be an integer >= 2, got {n!r}")
    n = int(n)
    h = (b - a) / (n + 1)
    nodes = a + h * np.arange(1, n + 1, dtype=np.float64)
    tail = tail_vector(nodes, a, b, params.ps)
    kernel = pair_kernel(nodes, params.ps)
    row_sums = kernel.sum(axis=1)
    for arr in (nodes, tail, kernel, row_sums):
        arr.setflags(write=False)
    return Grid(float(a), float(b), n, h, nodes, tail, params.ps, kernel, row_sums)


@dataclass(frozen=True)
class GridFunction:
    """Nodal values of a function on a grid, zero outside the interval."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).copy()
        if values.shape != (self.grid.n,):
            raise ParameterError(
                f"values must have shape ({self.grid.n},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, values)
