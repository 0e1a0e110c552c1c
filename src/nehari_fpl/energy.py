"""Discrete energy, masses, operator pairing, residual and gradient.

The seminorm combines the interior double sum with the exterior tail:

    seminorm_p(u) = h^2 * sum_{i != j} |u_i - u_j|^p |x_i - x_j|^(-(1+ps))
                  + 2 h * sum_i |u_i|^p tail(x_i),

and the full energy is

    I(u) = seminorm_p(u)/p - mu/(q+1) * int |u|^(q+1) - 1/p* * int |u|^p*,

with Lebesgue integrals approximated by the rectangle rule h * sum.  The
"plus" variant replaces both Lebesgue integrands by their positive-part
versions (u+)^(q+1) and (u+)^p* while keeping the full seminorm; it is the
energy whose descent drives negative parts to zero.

Every pair sum goes through one pair action.  With the weighted kernel
W_ij = K_ij |u_i - u_j|^(p-2) (W = K at p = 2) and
(L_W u)_i = sum_j W_ij (u_i - u_j),

    h^2 * sum_{i != j} |u_i - u_j|^(p-2) (u_i - u_j)(phi_i - phi_j) K_ij
        = 2 h^2 * phi . L_W u,

so the seminorm (phi = u), the pairing and the gradient (2h^2 L_W u) each
need one pair action.  At p = 2 it is one matrix-vector product K u with
the kernel row sums r_i = sum_j K_ij stored on the grid,
(L u)_i = r_i u_i - (K u)_i; at any other p it builds W once and takes
W.sum(1) * u - W @ u.  The p = 2 seminorm is u . A u with the symmetric
positive definite operator A = 2h^2 L + 2h diag(tail) (stiffness_action),
which the one-sign descent also uses as its metric at every p.

Reduction order: the pair sums are a BLAS matrix-vector product,
deterministic for a fixed BLAS thread count (checked at 1 and 2
threads); every other sum is a single-threaded numpy reduction over an
array of fixed shape.  Identical inputs give bit-identical results on a
given platform and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError
from .grid import Grid, GridFunction, Params


@dataclass(frozen=True)
class EnergyBreakdown:
    """The three energy pieces and their signed total."""

    seminorm_p: float
    lq_mass: float
    lpstar_mass: float
    total: float


def signed_power(x, e: float):
    """sign(x) * |x|^e, continuously extended by 0 at x = 0."""
    return np.sign(x) * np.abs(x) ** e


def _check_ps(grid: Grid, params: Params):
    if params.ps != grid.ps:
        raise ParameterError(
            f"grid kernel was built for p*s = {grid.ps}, parameters have p*s = {params.ps}"
        )


def _pair_action(grid: Grid, x: np.ndarray, p: float) -> np.ndarray:
    """(L_W x)_i = sum_j W_ij (x_i - x_j) with W_ij = K_ij |x_i - x_j|^(p-2).

    At p = 2, W = K and this is r_i x_i - (K x)_i, one matvec.  Any other p
    (p > 2, as Params requires) builds W in place in one n x n array.
    """
    if p == 2.0:
        return grid.row_sums * x - grid.kernel @ x
    w = np.subtract.outer(x, x)
    np.abs(w, out=w)
    w **= p - 2.0
    w *= grid.kernel
    return w.sum(axis=1) * x - w @ x


def _same_grid(u: GridFunction, v: GridFunction):
    gu, gv = u.grid, v.grid
    if gu is gv:
        return
    if (gu.a, gu.b, gu.n) != (gv.a, gv.b, gv.n):
        raise GridMismatchError(
            f"functions live on different grids: ({gu.a}, {gu.b}, n={gu.n}) vs ({gv.a}, {gv.b}, n={gv.n})"
        )


def seminorm_p(u: GridFunction, params: Params) -> float:
    """Nonlocal p-th power seminorm, interior double sum plus exterior tail.

    The double sum is 2h^2 * u . L_W u.
    """
    grid = u.grid
    _check_ps(grid, params)
    vals = u.values
    inner = 2.0 * grid.h ** 2 * float(np.dot(vals, _pair_action(grid, vals, params.p)))
    outer = 2.0 * grid.h * float(np.sum(np.abs(vals) ** params.p * grid.tail))
    return inner + outer


def lebesgue_mass(u: GridFunction, r: float, plus_only: bool = False) -> float:
    """Rectangle-rule integral of |u|^r, or of (u+)^r when plus_only."""
    if r < 1.0:
        raise ParameterError(f"mass exponent must be >= 1, got {r}")
    vals = np.maximum(u.values, 0.0) if plus_only else np.abs(u.values)
    return u.grid.h * float(np.sum(vals ** r))


def energy(u: GridFunction, params: Params, plus_variant: bool = False) -> EnergyBreakdown:
    """Energy breakdown at u; plus_variant uses positive-part Lebesgue masses."""
    sem = seminorm_p(u, params)
    lq = lebesgue_mass(u, params.q + 1.0, plus_only=plus_variant)
    lps = lebesgue_mass(u, params.pstar, plus_only=plus_variant)
    total = sem / params.p - params.mu / (params.q + 1.0) * lq - lps / params.pstar
    return EnergyBreakdown(sem, lq, lps, total)


def form_a(u: GridFunction, phi: GridFunction, params: Params) -> float:
    """Monotone operator pairing <A(u), phi>.

    Double sum of |u_i - u_j|^(p-2) (u_i - u_j)(phi_i - phi_j) against the
    kernel, plus the exterior tail 2h * sum |u_i|^(p-2) u_i phi_i tail_i.
    Satisfies form_a(u, u) == seminorm_p(u).  The double sum is
    2h^2 * phi . L_W u.
    """
    _same_grid(u, phi)
    grid = u.grid
    _check_ps(grid, params)
    inner = 2.0 * grid.h ** 2 * float(np.dot(phi.values, _pair_action(grid, u.values, params.p)))
    outer = 2.0 * grid.h * float(
        np.sum(signed_power(u.values, params.p - 1.0) * phi.values * grid.tail)
    )
    return inner + outer


def residual(u: GridFunction, phi: GridFunction, params: Params) -> float:
    """Weak-form defect <A(u), phi> - mu int |u|^(q-1) u phi - int |u|^(p*-2) u phi.

    The singular factor |u|^(q-1) u is taken as sign(u)|u|^q, which extends
    continuously by 0 through u = 0.
    """
    _same_grid(u, phi)
    h = u.grid.h
    concave = h * float(np.sum(signed_power(u.values, params.q) * phi.values))
    critical = h * float(np.sum(signed_power(u.values, params.pstar - 1.0) * phi.values))
    return form_a(u, phi, params) - params.mu * concave - critical


def stiffness_action(grid: Grid, x: np.ndarray) -> np.ndarray:
    """A x = 2h^2 (r o x - K x) + 2h tail o x, the grid's p = 2 seminorm operator.

    seminorm_2(u) = u . A u, and A is symmetric positive definite.  Built on
    any grid's kernel, so at p != 2 it is the p = 2 operator of order p*s/2.
    """
    h = grid.h
    return 2.0 * h ** 2 * _pair_action(grid, x, 2.0) + 2.0 * h * x * grid.tail


def _seminorm_gradient_over_p(u: GridFunction, params: Params) -> np.ndarray:
    """Nodal gradient of seminorm_p divided by p: 2h^2 L_W u plus the tail part.

    The pair (i, j) appears twice in the double sum, so each kernel row
    contributes with a factor 2h^2, and the tail with 2h.  At p = 2 it is
    the stiffness action A u.
    """
    grid = u.grid
    _check_ps(grid, params)
    vals = u.values
    h = grid.h
    pair_part = 2.0 * h ** 2 * _pair_action(grid, vals, params.p)
    return pair_part + 2.0 * h * signed_power(vals, params.p - 1.0) * grid.tail


def gradient(u: GridFunction, params: Params, plus_variant: bool = False) -> GridFunction:
    """Nodal gradient g with g_k = residual(u, e_k).

    Assembled directly from the seminorm gradient divided by p (see
    _seminorm_gradient_over_p) and the two Lebesgue derivative terms.
    For the plus variant the two Lebesgue derivative terms use (u+)^q and
    (u+)^(p*-1), vanishing wherever u <= 0.
    """
    h = u.grid.h
    vals = u.values
    sem = _seminorm_gradient_over_p(u, params)
    if plus_variant:
        base = np.maximum(vals, 0.0)
        concave = base ** params.q
        critical = base ** (params.pstar - 1.0)
    else:
        concave = signed_power(vals, params.q)
        critical = signed_power(vals, params.pstar - 1.0)
    g = sem - params.mu * h * concave - h * critical
    return GridFunction(u.grid, g)


def split_parts(u: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Positive and negative parts (u+, u-), both nonnegative, u = u+ - u-."""
    plus = np.maximum(u.values, 0.0)
    minus = np.maximum(-u.values, 0.0)
    return u.with_values(plus), u.with_values(minus)
