"""Command-line front end.

main reads one flat config (defaults, optional file, --set overrides, in
that order) and hands it to the subcommand, which returns its report
rows, its seed and its exit code.  main then writes
<subcommand>.report.txt into --out: a few '#' header lines (command,
config hash, seed), then one quantity per line as tag, name, value
separated by tabs.  Reports carry no timestamps or paths, so identical
configurations produce byte identical files.  Solve commands additionally
write the solution nodes as csv.

Exit codes: 0 success, 1 numeric failure (any other NehariError: an
unconverged run, or a first stage that did not converge, which writes no
report), 2 invalid input (ParameterError, DegenerateInputError, OSError),
3 a failed check in verify / energy-check, which name them on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

import numpy as np

from .config import (
    apply_overrides,
    bubble_from,
    config_hash,
    grid_from,
    ladder_from,
    load_config,
    params_from,
)
from .constants import compactness_gap, estimate_sobolev, regime_report, sobolev_exact
from .bubble import ladder_fits, make_u_eps, mass_regime
from .errors import DegenerateInputError, NehariError, ParameterError, SolverError
from .fibering import fiber_roots
from .grid import Grid, GridFunction
from .solver import solve_positive, solve_sign_changing, sup_scan_ab
# imported here, not at call time, so the tracer finds run_battery by name when it installs (ROADMAP item 16)
from .verification import SEED, run_battery

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_report(out_dir: str, command: str, overrides, cfg, rows, seed) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{command}.report.txt")
    lines = [f"# command {command}" + "".join(f" --set {p}" for p in sorted(overrides))]
    lines.append(f"# config_hash {config_hash(cfg)}")
    if seed is not None:
        lines.append(f"# seed {seed}")
    for tag, name, value in rows:
        lines.append(f"{tag}\t{name}\t{_fmt(value)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_csv(out_dir: str, stem: str, u: GridFunction) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}.csv")
    table = np.column_stack([u.grid.nodes, u.values])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="node,value", comments="")
    return path


def _read_csv(path: str, grid: Grid) -> GridFunction:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from None
    if lines and lines[0].lower().replace(" ", "") == "node,value":
        lines = lines[1:]
    if len(lines) != grid.n:
        raise ParameterError(f"{path} has {len(lines)} rows but the configured grid has {grid.n} nodes")
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        # numpy's reason, without its hint about usecols
        raise ParameterError(f"{path}: expected numeric 'node,value' rows: {str(exc).split(';')[0]}") from None
    if table.shape[1] != 2:
        raise ParameterError(f"{path}: expected 'node,value' rows, got {table.shape[1]} columns")
    if float(np.max(np.abs(table[:, 0] - grid.nodes))) > 1e-8 * (grid.b - grid.a):
        raise ParameterError(f"{path}: node column does not match the configured grid")
    return GridFunction(grid, table[:, 1])


def _class_rows(prefix: str, label: str, cls) -> list:
    return [
        (f"{prefix}.tag", f"{label} manifold tag", cls.tag.value),
        (f"{prefix}.first", f"{label} phi'(1)", cls.first_deriv),
        (f"{prefix}.second", f"{label} phi''(1)", cls.second_deriv),
        (f"{prefix}.spread", f"{label} expression spread", cls.expr_spread),
    ]


def _params_grid(cfg):
    params = params_from(cfg)
    return params, grid_from(cfg, params)


def _cmd_constants(cfg, out_dir):
    params, grid = _params_grid(cfg)
    est = estimate_sobolev(grid, params, int(cfg["sobolev.iters"]), int(cfg["solver.seed"]))
    rep = regime_report(params, grid.b - grid.a, est.value)
    regime, threshold = mass_regime(params)
    rows = [("sobolev.estimate", "quotient of the mu = 0 one-sign solution", est.value)]
    if params.p == 2.0:
        rows.append(("sobolev.exact", "sharp p = 2 constant, closed form", sobolev_exact(params)))
    rows += [
        ("sobolev.converged", "mu = 0 solve residual below tolerance", est.converged),
        ("sobolev.iterations", "descent iterations used", est.iterations),
        ("const.mu_tilde", "uniform two-root threshold", rep.mu_tilde),
        ("const.big_m", "compactness drop prefactor", rep.big_m),
        ("const.ps_level_at_mu", "compactness threshold at mu, with S_est, not the sharp S", rep.ps_level_at_mu),
        ("const.q1", "exponent bound q1", rep.q1),
        ("const.q2", "exponent bound q2", rep.q2),
        ("const.q3", "exponent bound q3", rep.q3),
        ("const.q0", "active lower exponent bound", rep.q0),
        ("const.n0", "active dimension threshold", rep.n0),
        ("const.n0_small_p", "dimension threshold, small-p branch", rep.n0_small_p),
        ("const.n0_large_p", "dimension threshold, large-p branch", rep.n0_large_p),
        ("const.n_min_q1", "dimension bound partnering q1", rep.n_min_q1),
        ("const.regime", "active p-branch", rep.regime),
        ("const.hypothesis_ok", "(q, N) inside the window", rep.hypothesis_ok),
        ("const.mass_regime", "concave mass regime", regime),
        ("const.mass_threshold", "concave mass regime threshold", threshold),
    ]
    return rows, int(cfg["solver.seed"]), 0


def _cmd_battery(groups, cfg, out_dir):
    """verify and energy-check: run the named check groups, name the failures on stderr."""
    results = run_battery(groups)
    rows = []
    for res in results:
        rows.append((f"check.{res.name}", res.target, "pass" if res.passed else "fail"))
        if not res.passed:
            rows.append((f"check.{res.name}.measured", res.detail or "-", res.value))
    failed = [r.name for r in results if not r.passed]
    rows.append(("checks.total", "checks run", len(results)))
    rows.append(("checks.failed", "checks failed", len(failed)))
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
    return rows, SEED, 3 if failed else 0


def _cmd_fiber(cfg, out_dir):
    params, grid = _params_grid(cfg)
    path = str(cfg["fiber.input"]).strip()
    if not path:
        raise ParameterError("fiber.input must point to a node,value csv file")
    u = _read_csv(path, grid)
    rep = fiber_roots(u, params, float(cfg["solver.tol_manifold"]))
    rows = [
        ("fiber.t0", "peak location of psi", rep.t0),
        ("fiber.psi_t0", "peak value of psi", rep.psi_t0),
        ("fiber.concave_mass", "mu-weighted concave mass", rep.concave_mass),
        ("fiber.tminus", "stable root", rep.tminus),
        ("fiber.tplus", "unstable root", rep.tplus),
    ]
    rows += _class_rows("fiber.minus", "t- projection", rep.class_minus)
    rows += _class_rows("fiber.plus", "t+ projection", rep.class_plus)
    return rows, None, 0


def _cmd_bubble_scaling(cfg, out_dir):
    params, grid = _params_grid(cfg)
    specs = ladder_from(cfg, grid, params)
    eps = [sp.eps for sp in specs]
    _, fits = ladder_fits(grid, params, specs)
    rows = [("scaling.eps_ladder", "concentration scales", ",".join(_fmt(e) for e in eps))]
    for which, fit in fits.items():
        key = which.lower()
        theory = "theory exponent" if fit.label is None else f"theory exponent, {fit.label}"
        rows.append((f"scaling.{key}.slope", "fitted log-log slope", fit.slope))
        rows.append((f"scaling.{key}.theory", theory, fit.theory))
        rows.append((f"scaling.{key}.rel_err", "relative slope error", fit.rel_err))
        for i, v in enumerate(fit.values):
            rows.append((f"scaling.{key}.v{i}", f"value at eps = {_fmt(eps[i])}", v))
    return rows, None, 0


def _solver_kwargs(cfg) -> dict:
    return dict(
        seed=int(cfg["solver.seed"]),
        max_iters=int(cfg["solver.max_iters"]),
        tol_res=float(cfg["solver.tol_res"]),
        tol_manifold=float(cfg["solver.tol_manifold"]),
        max_restarts=int(cfg["solver.max_restarts"]),
    )


def _positive_stage(cfg, grid, params):
    """(one-sign solution, Sobolev estimate, bound); SolverError if the solve did not converge.

    The bound, shared by solve.gap_bound and scan.bound, is the one-sign
    level plus the compactness gap (s/N) S^(N/(s p)), with S_est for S.
    """
    pos = solve_positive(grid, params, **_solver_kwargs(cfg))
    if not pos.converged:
        raise SolverError("positive-solution stage did not converge")
    est = estimate_sobolev(grid, params, int(cfg["sobolev.iters"]), int(cfg["solver.seed"]))
    return pos, est, pos.energy + compactness_gap(params, est.value)


def _point_rows(res) -> list:
    """The rows of a solve's returned point and of its descent; part rows when the point changes sign."""
    rows = [
        ("solve.energy", "energy at the final iterate", res.energy),
        ("solve.residual", "sup norm of the nodal gradient", res.residual_norm),
        ("solve.iterations", "descent iterations used", res.iterations),
        ("solve.armijo_trials", "projected line-search trials", res.armijo_trials),
        ("solve.cg_steps", "conjugate-gradient steps, all directions", res.cg_steps),
        ("solve.pair_actions", "pair actions, CG matvecs included", res.pair_actions),
        ("solve.restarts", "fresh bumps passed over, no fiber maximum", res.restarts),
        ("solve.converged", "residual below tolerance", res.converged),
        ("solve.stop_reason", "why the descent stopped", res.stop_reason),
        ("solve.plus_part", "positive part seminorm", res.plus_part_norm),
        ("solve.minus_part", "negative part seminorm", res.minus_part_norm),
    ]
    rows += _class_rows("solve.class", "final iterate", res.nehari)
    if res.plus_class is not None:
        rows += [
            ("solve.split_lower", "sum of the projected part levels", res.c2_split_lower),
            ("solve.split_ok", "level at or above the split bound", res.split_ok),
            ("solve.cross_plus", "gradient pairing with the positive part", res.cross_plus),
            ("solve.cross_minus", "gradient pairing with the negative part", res.cross_minus),
        ]
        rows += _class_rows("solve.plus_class", "positive part", res.plus_class)
        rows += _class_rows("solve.minus_class", "negative part", res.minus_class)
    return rows


def _cmd_solve_positive(cfg, out_dir):
    params, grid = _params_grid(cfg)
    kw = _solver_kwargs(cfg)
    res = solve_positive(grid, params, **kw)
    _write_csv(out_dir, "solution", res.u)
    return _point_rows(res), kw["seed"], 0 if res.converged else 1


def _cmd_solve_sign_changing(cfg, out_dir):
    params, grid = _params_grid(cfg)
    kw = _solver_kwargs(cfg)
    bubble = bubble_from(cfg, grid, params)  # refuses a bad collar before the first stage
    pos, est, bound = _positive_stage(cfg, grid, params)
    res = solve_sign_changing(
        grid, params, w1=pos.u, bubble=bubble, tol_cross=float(cfg["solver.tol_cross"]), **kw,
    )
    cr = res.crossing
    rows = _point_rows(res) + [
        ("solve.positive_level", "one-sign level from the first stage", pos.energy),
        ("solve.gap_bound", "compactness upper bound on the level, with S_est, not the sharp S", bound),
        ("solve.gap_ok", "level below the compactness bound", res.energy < bound),
        ("cross.ratio", "matched part ratio", cr.r),
        ("cross.amplitude", "matched overall amplitude", cr.a),
        ("cross.bubble_scale", "matched bubble amplitude", cr.b),
        ("cross.s_plus", "positive part scaling at the match", cr.s_plus),
        ("cross.s_minus", "negative part scaling at the match", cr.s_minus),
        ("cross.bracket_lo", "ratio bracket, lower edge", cr.bracket[0]),
        ("cross.bracket_hi", "ratio bracket, upper edge", cr.bracket[1]),
    ]
    _write_csv(out_dir, "solution", res.u)
    _write_csv(out_dir, "w1", pos.u)
    return rows, kw["seed"], 0 if res.converged else 1


def _cmd_sup_scan(cfg, out_dir):
    params, grid = _params_grid(cfg)
    u_eps = make_u_eps(grid, params, bubble_from(cfg, grid, params))
    pos, est, bound = _positive_stage(cfg, grid, params)
    scan = sup_scan_ab(pos.u, u_eps, params)
    rep = regime_report(params, grid.b - grid.a, est.value)
    rows = [
        ("scan.value", "max of the two-bump energy", scan.value),
        ("scan.a_at", "one-sign amplitude at the max", scan.a_at),
        ("scan.b_at", "bubble amplitude at the max", scan.b_at),
        ("scan.bound", "one-sign level plus the compactness gap, with S_est, not the sharp S", bound),
        ("scan.below_bound", "scan max strictly below the bound", scan.value < bound),
        ("scan.hypothesis_ok", "(q, N) inside the window", rep.hypothesis_ok),
        ("scan.sobolev", "quotient of the mu = 0 one-sign solution", est.value),
    ]
    return rows, int(cfg["solver.seed"]), 0


_COMMANDS = {
    "constants": _cmd_constants,
    "energy-check": partial(_cmd_battery, ("grid", "energy")),
    "fiber": _cmd_fiber,
    "bubble-scaling": _cmd_bubble_scaling,
    "solve-positive": _cmd_solve_positive,
    "solve-sign-changing": _cmd_solve_sign_changing,
    "sup-scan": _cmd_sup_scan,
    "verify": partial(_cmd_battery, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nehari-fpl",
        description="Discrete fibering analysis of a concave-convex critical problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="path to a key = value config file")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        cmd.add_argument("--out", default=".", help="directory for reports and csv output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), args.overrides)
        rows, seed, code = _COMMANDS[args.command](cfg, args.out)
        _write_report(args.out, args.command, args.overrides, cfg, rows, seed)
        return code
    except (ParameterError, DegenerateInputError, OSError) as exc:
        # OSError: an unwritable --out path, an out path colliding with a file, unreadable input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NehariError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
