"""Spans and counts around the public functions of the nehari_fpl modules.

The package modules import names directly (``from .energy import
seminorm_p``), so a function has one binding per importing module.  The
tracer replaces every binding of each traced function, in every loaded
``nehari_fpl`` module and in the package namespace, and puts the originals
back on ``uninstall``.  Nothing under ``src/`` is edited.

Spans are aggregated as they close: per function the number of calls and
the self time (duration minus the time covered by child spans).  A few
functions are only counted, because there are too many calls for a span to
leave the timings intact (``FiberMap.psi``, about 170k per sign-changing
solve).  The arithmetic is untouched, so a traced run produces the same
bits as an untraced one.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "nehari_fpl"

# module -> functions that get a span; the span name is "<module suffix>.<function>"
SPANNED = {
    "grid": ("build_grid",),
    "config": ("load_config", "apply_overrides", "params_from", "grid_from", "bubble_from", "ladder_from"),
    "energy": ("seminorm_p", "gradient", "energy", "form_a", "residual"),
    "fibering": ("classify", "fiber_roots", "fiber_derivatives", "psi_and_t0", "perturbation_derivative", "psi_mu"),
    "constants": ("estimate_sobolev", "regime_report"),
    "bubble": ("make_u_eps", "interaction_integrals", "lq_mass_scaling", "fit_exponent"),
    "solver": (
        "solve_positive", "solve_sign_changing", "crossing_search", "part_scales",
        "sup_scan_ab", "sup_over_fiber", "project_minus",
        # private: the descent loop and its projections, to count Armijo trials
        "_descend", "_project_ray", "_project_parts",
    ),
    "verification": ("run_battery",),
}
# FiberMap methods: spanned, and counted only
FIBERMAP_SPANNED = {"roots": "fibering.roots"}
FIBERMAP_COUNTED = {"of": "fibering.fibermap", "psi": "fibering.psi"}

# a projection called directly by the descent loop is one Armijo trial
DESCENT = "solver._descend"
PROJECTIONS = ("solver._project_ray", "solver._project_parts")


def _observe_solve(counts, res):
    counts["solver.solves"] += 1
    counts["solver.iterations"] += res.iterations
    counts["solver.restarts"] += res.restarts
    counts["solver.converged"] += int(bool(res.converged))


def _observe_sobolev(counts, est):
    counts["constants.sobolev.iterations"] += est.iterations


def _observe_battery(counts, results):
    counts["verification.checks_failed"] += sum(1 for r in results if not r.passed)


def _observe_grid(counts, grid):
    mb = sum(v.nbytes for v in vars(grid).values() if isinstance(v, np.ndarray)) / 2**20
    counts["grid.max_mb"] = max(counts["grid.max_mb"], mb)


OBSERVERS = {
    "solver.solve_positive": _observe_solve,
    "solver.solve_sign_changing": _observe_solve,
    "constants.estimate_sobolev": _observe_sobolev,
    "verification.run_battery": _observe_battery,
    "grid.build_grid": _observe_grid,
}


class Tracer:
    """Installs and removes the wrappers; holds the aggregated counts."""

    def __init__(self):
        self.counts = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def snapshot(self) -> dict:
        return dict(self.counts)

    def merge(self, other: dict):
        for key, value in other.items():
            if key == "grid.max_mb":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def _span(self, name, fn):
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        observe = OBSERVERS.get(name)
        trial = name in PROJECTIONS

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                counts[name + ".calls"] += 1
                counts[name + ".self_s"] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    if trial and parent[0] == DESCENT:
                        counts["solver.armijo_trials"] += 1
            if observe is not None:
                observe(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every binding of every traced function; idempotent."""
        if self._patched:
            return
        self.missing = []
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for suffix, names in SPANNED.items():
            # sys.modules, not getattr(package, ...): nehari_fpl.energy is the function
            owner = sys.modules.get(f"{PACKAGE}.{suffix}")
            for attr in names:
                fn = getattr(owner, attr, None)
                if not callable(fn):
                    self.missing.append(f"{suffix}.{attr}")
                    continue
                wrapper = self._span(f"{suffix}.{attr}", fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, fn))
        fiber_map = getattr(sys.modules.get(f"{PACKAGE}.fibering"), "FiberMap", None)
        for attr, name in {**FIBERMAP_SPANNED, **FIBERMAP_COUNTED}.items():
            raw = vars(fiber_map).get(attr) if fiber_map is not None else None
            if raw is None:
                self.missing.append(f"FiberMap.{attr}")
                continue
            make = self._span if attr in FIBERMAP_SPANNED else self._counter
            if isinstance(raw, classmethod):
                patched = classmethod(make(name, raw.__func__))
            else:
                patched = make(name, raw)
            setattr(fiber_map, attr, patched)
            self._patched.append((fiber_map, attr, raw))

    def uninstall(self):
        """Put every original binding back."""
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()
