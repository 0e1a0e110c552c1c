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

from .bubble import DEFAULT_DELTA_FRAC, DEFAULT_EPS_FRACS, BubbleSpec, default_profile_kind, ladder
from .errors import ConfigError
from .grid import Grid, Params, build_grid

DEFAULTS: dict[str, object] = {
    "params.s": 0.4,
    "params.p": 2.0,
    "params.q": 0.5,
    "params.mu": 0.05,
    "params.N": 1,
    "grid.a": -1.0,
    "grid.b": 1.0,
    "grid.n": 128,
    "bubble.eps_frac": DEFAULT_EPS_FRACS[0],
    "bubble.delta_frac": DEFAULT_DELTA_FRAC,
    "bubble.eps_ladder": ",".join(str(f) for f in DEFAULT_EPS_FRACS),
    "bubble.profile": "auto",
    "bubble.center": "",
    "solver.seed": 0,
    "solver.max_iters": 5000,
    "solver.tol_res": 1e-6,
    "solver.tol_manifold": 1e-8,
    "solver.tol_cross": 1e-6,
    "solver.max_restarts": 5,
    "sobolev.iters": 600,
    "sobolev.seed": 0,
    "fiber.input": "",
    "checks.n": 48,
    "checks.seed": 0,
    "checks.bubble_n": 256,
    "checks.solver_max_iters": 4000,
}


def _coerce(key: str, raw: str):
    want = type(DEFAULTS[key])
    raw = raw.strip()
    if want is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} expects an integer, got {raw!r}") from None
    if want is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key} expects a number, got {raw!r}") from None
    return raw


def load_config(path: str | None = None) -> dict[str, object]:
    """DEFAULTS overlaid with the file at path, if any."""
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = _coerce(key, raw)
    return cfg


def apply_overrides(cfg: dict[str, object], pairs) -> dict[str, object]:
    """Apply --set key=value pairs on top of a loaded config."""
    out = dict(cfg)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"--set: unknown key {key!r}")
        out[key] = _coerce(key, raw)
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


def _center(cfg: dict[str, object]) -> float | None:
    raw = str(cfg["bubble.center"]).strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"bubble.center expects a number or empty, got {raw!r}") from None


def bubble_from(cfg: dict[str, object], grid: Grid, params: Params) -> BubbleSpec:
    hw = grid.halfwidth
    kind = str(cfg["bubble.profile"])
    return BubbleSpec(
        float(cfg["bubble.eps_frac"]) * hw,
        float(cfg["bubble.delta_frac"]) * hw,
        _center(cfg),
        default_profile_kind(params) if kind == "auto" else kind,
    )


def ladder_from(cfg: dict[str, object], grid: Grid, params: Params) -> list[BubbleSpec]:
    raw = str(cfg["bubble.eps_ladder"])
    try:
        fracs = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bubble.eps_ladder expects comma-separated numbers, got {raw!r}") from None
    if len(fracs) < 4:
        raise ConfigError(f"bubble.eps_ladder needs at least 4 rungs, got {len(fracs)}")
    base = bubble_from(cfg, grid, params)
    return ladder(base, [f * grid.halfwidth for f in fracs])
