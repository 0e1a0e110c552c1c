"""Flat key = value configuration shared by every command.

A config file holds one ``key = value`` pair per line; ``#`` starts a
comment and blank lines are skipped.  Every key must appear in DEFAULTS,
unknown keys are a hard error rather than a silent ignore.  Command-line
``--set key=value`` pairs are applied on top of the file, and the hash of
the fully merged mapping is stamped into every report so that two runs
can be compared by header alone.

Bubble geometry is expressed in fractions of the grid half-width, so the
same config scales across domains.
"""

from __future__ import annotations

import hashlib

from .bubble import DEFAULT_DELTA_FRAC, DEFAULT_EPS_FRAC, BubbleSpec, check_collar, ladder
from .constants import SOBOLEV_ITERS
from .errors import ParameterError
from .fibering import TOL_MANIFOLD
from .grid import Grid, Params, build_grid
from .solver import MAX_ITERS, MAX_RESTARTS, TOL_CROSS, TOL_RES

DEFAULTS: dict[str, object] = {
    "params.s": 0.4,
    "params.p": 2.0,
    "params.q": 0.5,
    "params.mu": 0.05,
    "params.N": 1,
    "grid.a": -1.0,
    "grid.b": 1.0,
    "grid.n": 128,
    "bubble.eps_frac": DEFAULT_EPS_FRAC,
    "bubble.delta_frac": DEFAULT_DELTA_FRAC,
    "solver.seed": 0,
    "solver.max_iters": MAX_ITERS,
    "solver.tol_res": TOL_RES,
    "solver.tol_manifold": TOL_MANIFOLD,
    "solver.tol_cross": TOL_CROSS,
    "solver.max_restarts": MAX_RESTARTS,
    "sobolev.iters": SOBOLEV_ITERS,
    "fiber.input": "",
}


def _coerce(key: str, raw: str):
    want = type(DEFAULTS[key])
    raw = raw.strip()
    if want is int:
        try:
            value = int(raw)
        except ValueError:
            raise ParameterError(f"{key} expects an integer, got {raw!r}") from None
        if key.endswith(".seed") and value < 0:
            raise ParameterError(f"{key} expects a non-negative integer, got {raw!r}")
        return value
    if want is float:
        try:
            return float(raw)
        except ValueError:
            raise ParameterError(f"{key} expects a number, got {raw!r}") from None
    return raw


def _assign(cfg: dict[str, object], text: str, where: str) -> None:
    """Set cfg from one 'key = value' text; where names its source in errors."""
    if "=" not in text:
        raise ParameterError(f"{where}: expected 'key = value', got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip()
    if key not in DEFAULTS:
        raise ParameterError(f"{where}: unknown key {key!r}")
    cfg[key] = _coerce(key, raw)


def load_config(path: str | None = None) -> dict[str, object]:
    """DEFAULTS overlaid with the file at path, if any."""
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            _assign(cfg, body, f"{path}:{lineno}")
    return cfg


def apply_overrides(cfg: dict[str, object], pairs) -> dict[str, object]:
    """Apply --set key=value pairs on top of a loaded config."""
    out = dict(cfg)
    for pair in pairs:
        _assign(out, pair, "--set")
    return out


def config_hash(cfg: dict[str, object]) -> str:
    """Order-independent digest of the merged configuration."""
    canon = "\n".join(f"{k}={cfg[k]!r}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def params_from(cfg: dict[str, object]) -> Params:
    return Params(
        s=float(cfg["params.s"]),
        p=float(cfg["params.p"]),
        q=float(cfg["params.q"]),
        mu=float(cfg["params.mu"]),
        N=int(cfg["params.N"]),
    )


def grid_from(cfg: dict[str, object], params: Params) -> Grid:
    return build_grid(float(cfg["grid.a"]), float(cfg["grid.b"]), int(cfg["grid.n"]), params)


def bubble_from(cfg: dict[str, object], grid: Grid, params: Params) -> BubbleSpec:
    """The configured bubble on grid, refused unless its collar fits; params is unused (perfbench passes it)."""
    hw = grid.halfwidth
    spec = BubbleSpec(float(cfg["bubble.eps_frac"]) * hw, float(cfg["bubble.delta_frac"]) * hw)
    check_collar(spec, grid)
    return spec


def ladder_from(cfg: dict[str, object], grid: Grid, params: Params) -> list[BubbleSpec]:
    return ladder(bubble_from(cfg, grid, params))
