"""Discrete energy, masses, operator pairing, residual and gradient.

The seminorm combines the interior double sum with the exterior tail:

    seminorm_p(u) = h^2 * sum_{i != j} |u_i - u_j|^p |x_i - x_j|^(-(1+ps))
                  + 2 h * sum_i |u_i|^p tail(x_i),

and the full energy is

    I(u) = seminorm_p(u)/p - mu/(q+1) * int |u|^(q+1) - 1/p* * int |u|^p*,

with Lebesgue integrals approximated by the rectangle rule h * sum.

Every scalar here is a pairing with the gradient pieces at u
(GradientPieces): G u, the nodal seminorm gradient divided by p, and
sign(u)|u|^q and sign(u)|u|^(p*-1).  The seminorm is u . G u, the pairing
<A(u), phi> is phi . G u, the weak residual is phi . g with the nodal
gradient g = G u - mu h sign(u)|u|^q - h sign(u)|u|^(p*-1), and the three
pieces of the energy are the ray coefficients u . G u, h u . sign(u)|u|^q
and h u . sign(u)|u|^(p*-1).  Only lebesgue_mass, for general exponents,
sums a power of u on its own.  Each piece is homogeneous along the ray
t -> t u, so a descent that carries them needs no pair action to read the
fiber map or the next gradient.

G u costs one pair action with the grid's p = 2 seminorm operator A
(grid.Grid), stored as a Toeplitz column and a diagonal.  At p = 2,
G u = A u is one FFT product (stiffness_action),
irfft(F rfft(u, 2n))[:n] + diag o u with F = grid.column_fft; A is
symmetric positive definite, and the one-sign descent uses it as its
metric at every p.  At p > 2 the pair sum is weighted by
W_ij = A_ij |u_i - u_j|^(p-2), zero on the diagonal:

    G u = W u - W.sum(1) o u + 2h sign(u)|u|^(p-1) tail.

W is built and applied in row blocks of B = PAIR_BLOCK // n rows, rounded
down to a multiple of 8 (at least 8), from one Toeplitz view of the grid
(Grid.toeplitz) per call, so the pair action holds O(n B) memory: at
p = 3 one gradient's traced peak is 1.2 MiB at n = 2048 and 1.1 MiB at
n = 4096, against 32 and 128 MiB for one n x n W.

pair_actions() counts the pair actions made, a machine-independent cost.

Reduction order: the p = 2 pair action is numpy's FFT, deterministic
and odd bitwise in its input; the p > 2 pair sums are BLAS matrix-vector
products, deterministic for a fixed BLAS thread count (checked at 1 and
2 threads); every other sum is a single-threaded numpy reduction over an
array of fixed shape.  Identical inputs give bit-identical results on a
given platform and thread count.  With one BLAS thread the row blocks
give the bits of one n x n product, since each block starts at a row
that is a multiple of 8 and BLAS groups rows the same way (63 of 63
draws over p in {2.5, 3, 4} and n from 300 to 4096); with two threads
BLAS splits the rows of a block otherwise, and 12 of the 63 differ in
the last bits (at n = 1100 and 3001).
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .grid import Grid, GridFunction, Params, _check_ps


def signed_power(x, e: float):
    """sign(x) * |x|^e, continuously extended by 0 at x = 0 (a zero keeps its sign)."""
    return np.copysign(np.abs(x) ** e, x)


_tally = threading.local()


def pair_actions() -> int:
    """Pair actions made so far by the calling thread.

    Each is one FFT product at p = 2 and one O(n^2) weighted sum
    otherwise; a solve reports the
    difference across its run.  The count is kept per thread, so solves
    running in other threads do not enter it.
    """
    return getattr(_tally, "pair_actions", 0)


def _same_grid(u: GridFunction, v: GridFunction):
    gu, gv = u.grid, v.grid
    if gu is gv:
        return
    if (gu.a, gu.b, gu.n) != (gv.a, gv.b, gv.n):
        raise ParameterError(
            f"functions live on different grids: ({gu.a}, {gu.b}, n={gu.n}) vs ({gv.a}, {gv.b}, n={gv.n})"
        )


def seminorm_p(u: GridFunction, params: Params) -> float:
    """Nonlocal p-th power seminorm, interior double sum plus exterior tail: u . G u."""
    return float(np.dot(u.values, _seminorm_gradient_over_p(u, params)))


def lebesgue_mass(u: GridFunction, r: float) -> float:
    """Rectangle-rule integral of |u|^r."""
    if r < 1.0:
        raise ParameterError(f"mass exponent must be >= 1, got {r}")
    return u.grid.h * float(np.sum(np.abs(u.values) ** r))


def energy(u: GridFunction, params: Params) -> float:
    """I(u), the fiber map's phi(1), read off the ray coefficients of u."""
    from .fibering import FiberMap  # fibering imports GradientPieces from here

    pieces = GradientPieces.of(u, params).ray_coefficients()
    return float(FiberMap(*pieces, params.p, params.q, params.pstar, params.mu).phi(1.0))


def form_a(u: GridFunction, phi: GridFunction, params: Params) -> float:
    """Monotone operator pairing <A(u), phi> = phi . G u.

    Double sum of |u_i - u_j|^(p-2) (u_i - u_j)(phi_i - phi_j) against the
    kernel, plus the exterior tail 2h * sum |u_i|^(p-2) u_i phi_i tail_i;
    form_a(u, u) == seminorm_p(u).
    """
    _same_grid(u, phi)
    return float(np.dot(phi.values, _seminorm_gradient_over_p(u, params)))


def residual(u: GridFunction, phi: GridFunction, params: Params) -> float:
    """Weak-form defect <A(u), phi> - mu int |u|^(q-1) u phi - int |u|^(p*-2) u phi = phi . g.

    The singular factor |u|^(q-1) u is taken as sign(u)|u|^q, which extends
    continuously by 0 through u = 0.
    """
    _same_grid(u, phi)
    return float(np.dot(phi.values, GradientPieces.of(u, params).gradient(params)))


def stiffness_action(grid: Grid, x: np.ndarray) -> np.ndarray:
    """A x with the grid's p = 2 seminorm operator A (of order p*s/2 at p != 2): one pair action."""
    _tally.pair_actions = pair_actions() + 1
    n = grid.n
    return np.fft.irfft(grid.column_fft * np.fft.rfft(x, 2 * n), 2 * n)[:n] + grid.diagonal * x


PAIR_BLOCK = 1 << 16  # entries of W per row block at p != 2 (512 KiB)


def _seminorm_gradient_over_p(u: GridFunction, params: Params) -> np.ndarray:
    """G u, the nodal gradient of seminorm_p divided by p: one pair action (module docstring)."""
    grid = u.grid
    _check_ps(grid, params)
    vals = u.values
    if params.p == 2.0:
        return stiffness_action(grid, vals)
    _tally.pair_actions = pair_actions() + 1
    n, toeplitz = grid.n, grid.toeplitz()
    rows = max(8, PAIR_BLOCK // n // 8 * 8)
    out = np.empty(n)
    for i in range(0, n, rows):
        block = vals[i:i + rows]
        w = np.subtract.outer(block, vals)
        np.abs(w, out=w)
        w **= params.p - 2.0
        w *= toeplitz[i:i + rows]
        out[i:i + rows] = w @ vals - w.sum(axis=1) * block
    out += 2.0 * grid.h * signed_power(vals, params.p - 1.0) * grid.tail
    return out


class GradientPieces(NamedTuple):
    """The three pieces of the nodal gradient at u.

    sem = G u is the seminorm gradient divided by p (the stiffness action
    A u at p = 2), concave = sign(u)|u|^q and critical = sign(u)|u|^(p*-1),
    so that g = sem - mu h concave - h critical.  Along the ray t -> t u
    they are homogeneous of degrees p-1, q and p*-1, and paired with u
    they give the ray coefficients (ray_coefficients).

    Nothing here validates values.  The pieces of a validated u are
    finite unless a power overflows, and the descent's trials are
    wrapped without a scan (grid.GridFunction._wrap).  Any non-finite
    entry of u, G u or either power makes a ray coefficient non-finite,
    so FiberMap.of_pieces, which rejects those, checks a trial's values
    and pieces once, on three floats.
    """

    u: GridFunction
    sem: np.ndarray
    concave: np.ndarray
    critical: np.ndarray

    @classmethod
    def of(cls, u: GridFunction, params: Params, sem: np.ndarray | None = None) -> "GradientPieces":
        """Pieces at u; G u costs one pair action unless sem supplies it."""
        if sem is None:
            sem = _seminorm_gradient_over_p(u, params)
        vals = u.values
        return cls(u, sem, signed_power(vals, params.q), signed_power(vals, params.pstar - 1.0))

    def scaled(self, t: float, params: Params) -> "GradientPieces":
        """Pieces at t u, by homogeneity: no pair action and no power of u."""
        return GradientPieces(
            GridFunction._wrap(self.u.grid, t * self.u.values),
            t ** (params.p - 1.0) * self.sem,
            t ** params.q * self.concave,
            t ** (params.pstar - 1.0) * self.critical,
        )

    def gradient(self, params: Params) -> np.ndarray:
        h = self.u.grid.h
        return self.sem - params.mu * h * self.concave - h * self.critical

    def ray_coefficients(self) -> tuple[float, float, float]:
        """(seminorm_p(u), int |u|^(q+1), int |u|^p*) as u . G u, h u . concave, h u . critical."""
        vals, h = self.u.values, self.u.grid.h
        return (
            float(np.dot(vals, self.sem)),
            h * float(np.dot(vals, self.concave)),
            h * float(np.dot(vals, self.critical)),
        )


def gradient(u: GridFunction, params: Params) -> GridFunction:
    """Nodal gradient g with g_k = residual(u, e_k), from the pieces at u."""
    return GridFunction(u.grid, GradientPieces.of(u, params).gradient(params))


def split_parts(u: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Positive and negative parts (u+, u-), both nonnegative, u = u+ - u-."""
    plus = np.maximum(u.values, 0.0)
    minus = np.maximum(-u.values, 0.0)
    return GridFunction._wrap(u.grid, plus), GridFunction._wrap(u.grid, minus)
