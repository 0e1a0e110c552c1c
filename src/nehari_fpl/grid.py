"""Problem parameters and the uniform interior grid on an interval.

The discretization lives on the open interval (a, b) with n equispaced
interior nodes x_i = a + i*h, h = (b - a)/(n + 1), and a homogeneous
exterior condition: functions vanish identically outside (a, b).  The
exterior is not truncated; its kernel mass is folded into a per-node
"tail" weight with the closed form

    tail(x) = ((x - a)^(-p*s) + (b - x)^(-p*s)) / (p*s),

the exact integral of |x - y|^(-(1 + p*s)) over y outside (a, b).

The grid stores its p = 2 seminorm operator seminorm_2(u) = u . A u, the
stiffness matrix A = 2h^2 (diag(r) - K) + 2h diag(tail) with the pair
kernel K and r_i = sum_j K_ij, in O(n) numbers (Grid): on a uniform grid
K_ij = (|i - j| h)^(-(1+ps)), so A is Toeplitz off its diagonal, and
r_i = S_i + S_(n-1-i) with S_m = sum_(k=1..m) K_0k.  It also stores the
eigenvalues of A's Strang circulant (strang_circulant), the one-sign
descent's preconditioner.
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
    mu : weight of the concave term, mu >= 0.  At mu = 0 the energy is
         the pure critical one, whose least one-sign level is
         (s/N) S^(N/(p*s)) (constants.estimate_sobolev).
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
        if self.mu < 0.0:
            raise ParameterError(f"mu must be nonnegative, got {self.mu}")
        if self.N < 1:
            raise ParameterError(f"N must be >= 1, got {self.N}")
        if self.N <= self.p * self.s:
            raise ParameterError(
                f"N must exceed p*s = {self.p * self.s} for a finite critical exponent, got N = {self.N}"
            )
        if not self.pstar > self.p:
            raise ParameterError(f"s = {self.s} is too small: the critical exponent rounds to p = {self.p}")

    @property
    def ps(self) -> float:
        """Product p*s, the kernel strength."""
        return self.p * self.s

    @property
    def pstar(self) -> float:
        """Critical exponent N*p/(N - p*s); always greater than p."""
        return self.N * self.p / (self.N - self.p * self.s)


def _check_tolerances(**tols: float):
    """Raise ParameterError unless every tolerance lies in (0, inf): the solves' rule, and fiber_roots'."""
    for name, value in tols.items():
        if not 0.0 < value < math.inf:
            raise ParameterError(f"{name} must be positive and finite, got {value}")


def _check_ps(grid: "Grid", params: Params):
    if params.ps != grid.ps:
        raise ParameterError(
            f"grid kernel was built for p*s = {grid.ps}, parameters have p*s = {params.ps}"
        )


def tail_weight(x: float, grid: "Grid", params: Params) -> float:
    """Exterior kernel mass seen from an interior point x (tail_vector at one node).

    Diverges as x approaches either endpoint, hence the strict interiority
    requirement; raises ParameterError unless params has the grid's p*s.
    """
    _check_ps(grid, params)
    if not grid.a < x < grid.b:
        raise ParameterError(f"x must lie strictly inside ({grid.a}, {grid.b}), got {x}")
    return tail_vector(x, grid.a, grid.b, grid.ps)


def tail_vector(nodes: np.ndarray, a: float, b: float, ps: float) -> np.ndarray:
    """Vectorized tail weights for a set of interior nodes."""
    return ((nodes - a) ** (-ps) + (b - nodes) ** (-ps)) / ps


def strang_circulant(column: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Strang circulant C of the stiffness matrix A.

    Off the diagonal A is Toeplitz, A_ij = column[|i-j|], and its diagonal
    varies only through the row sums and the tail.  C has the column
    c_0 = max_i A_ii, c_k = c_(n-k) = column[k] for 1 <= k <= n/2 (Strang,
    Stud. Appl. Math. 74, 1986), so C x = irfft(rfft(c) rfft(x)) and its
    eigenvalues are rfft(c).real, one per frequency 0..n//2.  Raises
    ParameterError unless all are positive: conjugate gradients need a
    symmetric positive definite preconditioner.
    """
    k = np.arange(column.size)
    c = column[np.minimum(k, k.size - k)]
    c[0] = np.max(diagonal)
    eig = np.fft.rfft(c).real
    if not np.all(eig > 0.0):
        raise ParameterError(
            f"Strang circulant of the n = {k.size} grid operator is not positive definite: "
            f"least eigenvalue {float(np.min(eig))!r}"
        )
    return eig


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid with its stiffness matrix A in Toeplitz form.

    column is A's off-diagonal Toeplitz column (A_ij = column[|i-j|] for
    i != j, column[0] = 0), diagonal its diagonal, and column_fft the rfft
    of the column's length-2n circulant embedding
    (column, 0, column[n-1:0:-1]); no field is an n x n array.  They, the
    tail weights and the Strang eigenvalues are built for the grid's p*s;
    energy routines raise ParameterError for parameters of another p*s.
    """

    a: float
    b: float
    n: int
    h: float
    nodes: np.ndarray
    tail: np.ndarray
    ps: float
    column: np.ndarray
    diagonal: np.ndarray
    column_fft: np.ndarray
    strang_eigs: np.ndarray

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.b - self.a)

    def toeplitz(self) -> np.ndarray:
        """A's off-diagonal part T_ij = column[|i-j|], a read-only n x n view of 2n - 1 numbers.

        Built per call: its nbytes reports n^2 * 8, so the grid does not store it.
        T_ij is entry n - 1 - i + j of the concatenation (column[:0:-1], column).
        """
        c = self.column
        return np.lib.stride_tricks.as_strided(
            np.concatenate((c[:0:-1], c))[c.size - 1:], (c.size, c.size), (-8, 8), writeable=False
        )


def build_grid(a: float, b: float, n: int, params: Params) -> Grid:
    """Build the n-node uniform grid on (a, b) with its stiffness operator for params."""
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
    kernel = (h * np.arange(1, n)) ** -(1.0 + params.ps)  # K_0k, k = 1..n-1
    sums = np.concatenate(([0.0], np.cumsum(kernel)))
    diagonal = 2.0 * h ** 2 * (sums + sums[::-1]) + 2.0 * h * tail
    column = np.concatenate(([0.0], -2.0 * h ** 2 * kernel))
    column_fft = np.fft.rfft(np.concatenate((column, [0.0], column[:0:-1])))
    strang_eigs = strang_circulant(column, diagonal)
    for arr in (nodes, tail, column, diagonal, column_fft, strang_eigs):
        arr.setflags(write=False)
    return Grid(float(a), float(b), n, h, nodes, tail, params.ps, column, diagonal, column_fft, strang_eigs)


@dataclass(frozen=True)
class GridFunction:
    """Nodal values of a function on a grid, zero outside the interval.

    The constructor validates: it copies the values into a read-only
    float64 array of the grid's shape and raises ParameterError unless
    every entry is finite.  Starts, results and user input are built
    this way.  Arrays the package derives from such values inside one
    computation are wrapped by _wrap instead, with no copy and no scan;
    the descent checks each trial once, through the finiteness of its
    ray coefficients (fibering.FiberMap.of_pieces).
    """

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

    @classmethod
    def _wrap(cls, grid: Grid, values: np.ndarray) -> "GridFunction":
        """values, a fresh float64 array of the grid's shape, made read-only and wrapped as is."""
        values.setflags(write=False)
        fn = object.__new__(cls)
        object.__setattr__(fn, "grid", grid)
        object.__setattr__(fn, "values", values)
        return fn

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, values)
