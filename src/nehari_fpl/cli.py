"""Command-line front end.

Every subcommand reads one flat config (defaults, optional file, --set
overrides, in that order), runs, and writes <subcommand>.report.txt into
--out: a few '#' header lines (command, config hash, seed), then
one quantity per line as tag, name, value separated by tabs.  Reports
carry no timestamps or paths, so identical configurations produce byte
identical files.  Solve commands additionally write the solution nodes as
csv.

Exit codes: 0 success, 1 numeric failure (an unconverged or collapsed
run), 2 invalid input, 3 a failed check in verify / energy-check.
"""

from __future__ import annotations

import argparse
import os
import sys

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
from .constants import estimate_sobolev, regime_report
from .bubble import (
    INTERACTION_NAMES,
    fit_exponent,
    interaction_exponent,
    interaction_integrals,
    lq_mass_scaling,
    make_u_eps,
    mass_regime,
)
from .energy import energy, lebesgue_mass, seminorm_p
from .errors import ConfigError, DegenerateInputError, GridMismatchError, NehariError, ParameterError
from .fibering import fiber_roots
from .grid import Grid, GridFunction
from .solver import solve_positive, solve_sign_changing, sup_scan_ab
from .verification import run_battery

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_report(out_dir: str, command: str, overrides, cfg, rows, seed=None) -> str:
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
    path = os.path.join(out_dir, f"{stem}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node,value\n")
        for x, v in zip(u.grid.nodes, u.values):
            fh.write("%.17g,%.17g\n" % (x, v))
    return path


def _read_csv(path: str, grid: Grid) -> GridFunction:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if lines and lines[0].lower().replace(" ", "") == "node,value":
        lines = lines[1:]
    if len(lines) != grid.n:
        raise GridMismatchError(
            f"{path} has {len(lines)} rows but the configured grid has {grid.n} nodes"
        )
    nodes = np.empty(grid.n)
    vals = np.empty(grid.n)
    for i, ln in enumerate(lines):
        parts = ln.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{path}: expected 'node,value' rows, got {ln!r}")
        try:
            nodes[i], vals[i] = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"{path}: non-numeric row {ln!r}") from None
    if float(np.max(np.abs(nodes - grid.nodes))) > 1e-8 * (grid.b - grid.a):
        raise GridMismatchError(f"{path}: node column does not match the configured grid")
    return GridFunction(grid, vals)


def _class_rows(prefix: str, label: str, cls) -> list:
    return [
        (f"{prefix}.tag", f"{label} manifold tag", cls.tag.value),
        (f"{prefix}.first", f"{label} phi'(1)", cls.first_deriv),
        (f"{prefix}.second", f"{label} phi''(1)", cls.second_deriv),
        (f"{prefix}.spread", f"{label} expression spread", cls.expr_spread),
    ]


def _cmd_constants(cfg, out_dir, overrides) -> int:
    params = params_from(cfg)
    grid = grid_from(cfg, params)
    est = estimate_sobolev(grid, params, int(cfg["sobolev.iters"]), int(cfg["sobolev.seed"]))
    rep = regime_report(params, grid.b - grid.a, est.value)
    regime, threshold = mass_regime(params)
    rows = [
        ("sobolev.estimate", "discrete quotient minimum", est.value),
        ("sobolev.converged", "quotient descent converged", est.converged),
        ("sobolev.iterations", "descent iterations used", est.iterations),
        ("const.mu_tilde", "uniform two-root threshold", rep.mu_tilde),
        ("const.big_m", "compactness drop prefactor", rep.big_m),
        ("const.ps_level_at_mu", "compactness threshold at mu", rep.ps_level_at_mu),
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
    _write_report(out_dir, "constants", overrides, cfg, rows, seed=int(cfg["sobolev.seed"]))
    return 0


def _battery_rows(results) -> list:
    rows = []
    for res in results:
        rows.append((f"check.{res.name}", res.target, "pass" if res.passed else "fail"))
        if not res.passed:
            detail = res.detail or "-"
            rows.append((f"check.{res.name}.measured", detail, res.value))
    failed = sum(1 for r in results if not r.passed)
    rows.append(("checks.total", "checks run", len(results)))
    rows.append(("checks.failed", "checks failed", failed))
    return rows


def _cmd_energy_check(cfg, out_dir, overrides) -> int:
    results = run_battery(
        ("grid", "energy"), checks_n=int(cfg["checks.n"]), seed=int(cfg["checks.seed"])
    )
    _write_report(
        out_dir, "energy-check", overrides, cfg, _battery_rows(results), seed=int(cfg["checks.seed"])
    )
    return 3 if any(not r.passed for r in results) else 0


def _cmd_verify(cfg, out_dir, overrides) -> int:
    results = run_battery(
        None,
        checks_n=int(cfg["checks.n"]),
        seed=int(cfg["checks.seed"]),
        bubble_n=int(cfg["checks.bubble_n"]),
        solver_budget=int(cfg["checks.solver_max_iters"]),
    )
    _write_report(
        out_dir, "verify", overrides, cfg, _battery_rows(results), seed=int(cfg["checks.seed"])
    )
    failed = [r.name for r in results if not r.passed]
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 3
    return 0


def _cmd_fiber(cfg, out_dir, overrides) -> int:
    params = params_from(cfg)
    grid = grid_from(cfg, params)
    path = str(cfg["fiber.input"]).strip()
    if not path:
        raise ConfigError("fiber.input must point to a node,value csv file")
    u = _read_csv(path, grid)
    rep = fiber_roots(u, params)
    rows = [
        ("fiber.t0", "peak location of psi", rep.t0),
        ("fiber.psi_t0", "peak value of psi", rep.psi_t0),
        ("fiber.concave_mass", "mu-weighted concave mass", rep.concave_mass),
        ("fiber.tminus", "stable root", rep.tminus),
        ("fiber.tplus", "unstable root", rep.tplus),
    ]
    rows += _class_rows("fiber.minus", "t- projection", rep.class_minus)
    rows += _class_rows("fiber.plus", "t+ projection", rep.class_plus)
    _write_report(out_dir, "fiber", overrides, cfg, rows)
    return 0


def _cmd_bubble_scaling(cfg, out_dir, overrides) -> int:
    params = params_from(cfg)
    grid = grid_from(cfg, params)
    specs = ladder_from(cfg, grid, params)
    eps = [sp.eps for sp in specs]
    w_one = GridFunction(grid, np.ones(grid.n))
    rows = [("scaling.eps_ladder", "concentration scales", ",".join(_fmt(e) for e in eps))]
    for which in INTERACTION_NAMES:
        vals = [interaction_integrals(w_one, grid, params, sp, which) for sp in specs]
        fit = fit_exponent(eps, vals, theory=interaction_exponent(params, which))
        key = which.lower()
        rows.append((f"scaling.{key}.slope", "fitted log-log slope", fit.slope))
        rows.append((f"scaling.{key}.theory", "theory exponent", fit.theory))
        rows.append((f"scaling.{key}.rel_err", "relative slope error", fit.rel_err))
        for i, v in enumerate(vals):
            rows.append((f"scaling.{key}.v{i}", f"value at eps = {_fmt(eps[i])}", v))
    mfit = lq_mass_scaling(grid, params, specs)
    rows.append(("scaling.mass.slope", "fitted log-log slope", mfit.slope))
    rows.append(("scaling.mass.theory", f"theory exponent, {mfit.label}", mfit.theory))
    rows.append(("scaling.mass.rel_err", "relative slope error", mfit.rel_err))
    for i, v in enumerate(mfit.values):
        rows.append((f"scaling.mass.v{i}", f"value at eps = {_fmt(eps[i])}", v))
    _write_report(out_dir, "bubble-scaling", overrides, cfg, rows)
    return 0


def _solver_kwargs(cfg) -> dict:
    return dict(
        seed=int(cfg["solver.seed"]),
        max_iters=int(cfg["solver.max_iters"]),
        tol_res=float(cfg["solver.tol_res"]),
        tol_manifold=float(cfg["solver.tol_manifold"]),
        max_restarts=int(cfg["solver.max_restarts"]),
    )


def _positive_stage(cfg, grid, params):
    """One-sign solution and Sobolev estimate; None if the solve did not converge."""
    pos = solve_positive(grid, params, **_solver_kwargs(cfg))
    if not pos.converged:
        print("positive-solution stage did not converge", file=sys.stderr)
        return None
    return pos, estimate_sobolev(grid, params, int(cfg["sobolev.iters"]), int(cfg["sobolev.seed"]))


def _cmd_solve_positive(cfg, out_dir, overrides) -> int:
    params = params_from(cfg)
    grid = grid_from(cfg, params)
    kw = _solver_kwargs(cfg)
    res = solve_positive(grid, params, **kw)
    rows = [
        ("solve.energy", "energy at the final iterate", res.energy),
        ("solve.residual", "gradient norm against the step metric", res.residual_norm),
        ("solve.iterations", "descent iterations used", res.iterations),
        ("solve.restarts", "fresh starts used", res.restarts),
        ("solve.converged", "residual below tolerance", res.converged),
        ("solve.stop_reason", "why the descent stopped", res.stop_reason),
        ("solve.seminorm", "gagliardo seminorm to the p", seminorm_p(res.u, params)),
        ("solve.plus_part", "positive part seminorm", res.plus_part_norm),
        ("solve.minus_part", "negative part seminorm", res.minus_part_norm),
    ]
    rows += _class_rows("solve.class", "final iterate", res.nehari)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(out_dir, "solution", res.u)
    _write_report(out_dir, "solve-positive", overrides, cfg, rows, seed=kw["seed"])
    return 0 if res.converged else 1


def _cmd_solve_sign_changing(cfg, out_dir, overrides) -> int:
    params = params_from(cfg)
    grid = grid_from(cfg, params)
    kw = _solver_kwargs(cfg)
    stage = _positive_stage(cfg, grid, params)
    if stage is None:
        return 1
    pos, est = stage
    res = solve_sign_changing(
        grid,
        params,
        w1=pos.u,
        bubble=bubble_from(cfg, grid, params),
        tol_cross=float(cfg["solver.tol_cross"]),
        s_est=est.value,
        **kw,
    )
    rows = [
        ("solve.energy", "energy at the final iterate", res.energy),
        ("solve.residual", "gradient norm against the step metric", res.residual_norm),
        ("solve.iterations", "descent iterations used", res.iterations),
        ("solve.restarts", "bubble retries used", res.restarts),
        ("solve.converged", "residual below tolerance", res.converged),
        ("solve.stop_reason", "why the descent stopped", res.stop_reason),
        ("solve.plus_part", "positive part seminorm", res.plus_part_norm),
        ("solve.minus_part", "negative part seminorm", res.minus_part_norm),
        ("solve.positive_level", "one-sign level from the first stage", pos.energy),
        ("solve.split_lower", "sum of the projected part levels", res.c2_split_lower),
        ("solve.split_ok", "level at or above the split bound", res.split_ok),
        ("solve.gap_bound", "compactness upper bound on the level", res.ps_gap_bound),
        ("solve.gap_ok", "level below the compactness bound", res.ps_gap_ok),
        ("solve.cross_plus", "gradient pairing with the positive part", res.cross_plus),
        ("solve.cross_minus", "gradient pairing with the negative part", res.cross_minus),
    ]
    rows += _class_rows("solve.plus_class", "positive part", res.plus_class)
    rows += _class_rows("solve.minus_class", "negative part", res.minus_class)
    if res.crossing is not None:
        cr = res.crossing
        rows += [
            ("cross.ratio", "matched part ratio", cr.r),
            ("cross.amplitude", "matched overall amplitude", cr.a),
            ("cross.bubble_scale", "matched bubble amplitude", cr.b),
            ("cross.s_plus", "positive part scaling at the match", cr.s_plus),
            ("cross.s_minus", "negative part scaling at the match", cr.s_minus),
            ("cross.bracket_lo", "ratio bracket, lower edge", cr.bracket[0]),
            ("cross.bracket_hi", "ratio bracket, upper edge", cr.bracket[1]),
        ]
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(out_dir, "solution", res.u)
    _write_csv(out_dir, "w1", pos.u)
    _write_report(out_dir, "solve-sign-changing", overrides, cfg, rows, seed=kw["seed"])
    return 0 if res.converged else 1


def _cmd_sup_scan(cfg, out_dir, overrides) -> int:
    params = params_from(cfg)
    grid = grid_from(cfg, params)
    stage = _positive_stage(cfg, grid, params)
    if stage is None:
        return 1
    pos, est = stage
    u_eps = make_u_eps(grid, params, bubble_from(cfg, grid, params))
    scan = sup_scan_ab(
        pos.u,
        u_eps,
        params,
        float(cfg["scan.a_max"]),
        float(cfg["scan.b_max"]),
        int(cfg["scan.grid_counts"]),
    )
    rep = regime_report(params, grid.b - grid.a, est.value)
    s, N, sp = params.s, params.N, params.ps
    bound = pos.energy + (s / N) * est.value ** (N / sp)
    rows = [
        ("scan.value", "max of the two-bump energy", scan.value),
        ("scan.a_at", "one-sign amplitude at the max", scan.a_at),
        ("scan.b_at", "bubble amplitude at the max", scan.b_at),
        ("scan.coarse_value", "max before refinement", scan.coarse_value),
        ("scan.bound", "one-sign level plus the compactness gap", bound),
        ("scan.below_bound", "scan max strictly below the bound", scan.value < bound),
        ("scan.hypothesis_ok", "(q, N) inside the window", rep.hypothesis_ok),
        ("scan.sobolev", "discrete quotient minimum", est.value),
    ]
    _write_report(out_dir, "sup-scan", overrides, cfg, rows, seed=int(cfg["solver.seed"]))
    return 0


_COMMANDS = {
    "constants": _cmd_constants,
    "energy-check": _cmd_energy_check,
    "fiber": _cmd_fiber,
    "bubble-scaling": _cmd_bubble_scaling,
    "solve-positive": _cmd_solve_positive,
    "solve-sign-changing": _cmd_solve_sign_changing,
    "sup-scan": _cmd_sup_scan,
    "verify": _cmd_verify,
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
        return _COMMANDS[args.command](cfg, args.out, args.overrides)
    except (ParameterError, ConfigError, DegenerateInputError, GridMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # unwritable --out path, out path colliding with a file, unreadable input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NehariError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
