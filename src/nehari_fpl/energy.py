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

At p = 2 the pair sums need no n x n temporaries.  With the kernel row
sums r_i = sum_j K_ij (stored on the grid) and (Lu)_i = r_i u_i - (K u)_i,

    h^2 * sum_{i != j} (u_i - u_j)(phi_i - phi_j) K_ij = 2 h^2 * phi . Lu,

so the seminorm, the pairing and the gradient share one matrix-vector
product K u.  Any other p sums the dense pair array.  The p = 2 seminorm
is u . A u with the symmetric positive definite operator
A = 2h^2 L + 2h diag(tail) (stiffness_action), which the one-sign descent
also uses as its metric.

Reduction order: the p = 2 pair sums are a BLAS matrix-vector product,
deterministic for a fixed BLAS thread count (checked at 1 and 2
threads); every other sum is a single-threaded numpy reduction over a
row-major array of fixed shape.  Identical inputs give bit-identical
results on a given platform and thread count.
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


def _pair_action(grid: Grid, x: np.ndarray) -> np.ndarray:
    """(Lx)_i = sum_j (x_i - x_j) K_ij = r_i x_i - (K x)_i, one matvec."""
    return grid.row_sums * x - grid.kernel @ x


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

    At p = 2 the double sum is 2h^2 * u . Lu = 2h^2 (sum_i r_i u_i^2 - u.Ku).
    """
    grid = u.grid
    _check_ps(grid, params)
    vals = u.values
    if params.p == 2.0:
        inner = 2.0 * grid.h ** 2 * float(np.dot(vals, _pair_action(grid, vals)))
    else:
        diff = vals[:, None] - vals[None, :]
        inner = grid.h ** 2 * float(np.sum(np.abs(diff) ** params.p * grid.kernel))
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
    Satisfies form_a(u, u) == seminorm_p(u).  At p = 2 the double sum is
    2h^2 * phi . Lu = 2h^2 (sum_i r_i u_i phi_i - phi.Ku).
    """
    _same_grid(u, phi)
    grid = u.grid
    _check_ps(grid, params)
    if params.p == 2.0:
        inner = 2.0 * grid.h ** 2 * float(np.dot(phi.values, _pair_action(grid, u.values)))
    else:
        du = u.values[:, None] - u.values[None, :]
        dphi = phi.values[:, None] - phi.values[None, :]
        inner = grid.h ** 2 * float(
            np.sum(signed_power(du, params.p - 1.0) * dphi * grid.kernel)
        )
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
    return 2.0 * h ** 2 * _pair_action(grid, x) + 2.0 * h * x * grid.tail


def _seminorm_gradient_over_p(u: GridFunction, params: Params) -> np.ndarray:
    """Nodal gradient of seminorm_p divided by p: pair part plus tail part.

    The pair (i, j) appears twice in the double sum, so each kernel row
    contributes with a factor 2h^2, and the tail with 2h.  At p = 2 it is
    the stiffness action A u.
    """
    grid = u.grid
    _check_ps(grid, params)
    vals = u.values
    if params.p == 2.0:
        return stiffness_action(grid, vals)
    h = grid.h
    du = vals[:, None] - vals[None, :]
    pair_part = 2.0 * h ** 2 * np.sum(signed_power(du, params.p - 1.0) * grid.kernel, axis=1)
    return pair_part + 2.0 * h * signed_power(vals, params.p - 1.0) * grid.tail


def _seminorm_gradient(u: GridFunction, params: Params) -> np.ndarray:
    """Nodal gradient of seminorm_p."""
    return params.p * _seminorm_gradient_over_p(u, params)


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
