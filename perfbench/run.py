"""Benchmark of nehari-fpl: time per solve on four workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory.  ``BENCHMARK.json`` gates two of the workloads,
``positive-p2-n384`` and ``cli-defaults``, which between them reach every
module; ``positive-p3-n256`` and ``sign-changing-p2-n128`` run the same
way when named, but are not gated.  The benchmark and everything it
starts run on one CPU, and each workload in a fresh child interpreter
whose BLAS/OpenMP thread variables are set to that one CPU before numpy
loads.  The workloads are closed loops with one client; operation k of a
run uses the solver seed N + k (``cli-defaults`` runs at the config
defaults).  Every operation's output is checked; see ``workloads.py``.

``--trace 0`` prints the end-to-end metrics.  ``BENCHMARK.json`` gates
three: ``op_ref.p50`` (operation cost in units of a fixed reference
computation timed in and around the operations), ``setup_s`` (median of
seven fresh interpreters, scaled by the same reference) and
``peak_rss_mb``.  ``op_s.p50`` and ``setup_wall_s`` in plain seconds and
``fail_frac`` are printed too; see ``report_end_to_end``.  ``fail_frac``
is ``failed / attempted`` in the result.  ``--trace 1`` prints the
per-layer metrics instead: spans around the public functions of each
module, installed from here (``tracer.py``), plus the kernel
probes and the tracing overhead.  ``layers.json`` says which end-to-end
metric each per-layer metric should move.  The last line of the output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (after the path set-up above)

# set-up is sampled before and after the operations, in fresh interpreters
SETUP_BEFORE, SETUP_AFTER = 3, 4
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# nominal time of one unit of child.Reference, to scale set-up times by
REFERENCE_UNIT_S = 0.020


def pin_one_cpu():
    """Run this process, and so every process it starts, on one CPU.

    The shared host slows each CPU of this machine on its own; on one CPU
    the reference computation timed between operations sees the speed
    the operations ran at.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    # the package's own thread knob acts only after numpy has loaded
    env.pop("NEHARI_FPL_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def child(args: list, env: dict, timeout: float) -> dict:
    """Run child.py with args; its last stdout line is a JSON object.

    The child gets its own process group, so that on a timeout the
    subcommands it started are stopped with it.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:  # a timeout, or this process being stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child.py {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def high_percentile(n: int):
    """Highest listed percentile with at least ten samples beyond it."""
    fit = [p for p in PERCENTILES if n * (1.0 - p / 100.0) >= 10.0]
    return fit[-1] if fit else None


def layer_metrics(res: dict, is_cli: bool) -> dict:
    ops, run = res["op_counts"], res["run_counts"]
    n = len(res["traced_op_s"])

    def per_op(key):
        return ops.get(key, 0.0) / n

    def self_s(prefix, counts=ops):
        return sum(v for k, v in counts.items() if k.startswith(prefix) and k.endswith(".self_s"))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "grid.build_s": ratio(run.get("grid.build_grid.self_s", 0.0), run.get("grid.build_grid.calls", 0.0)),
        "grid.kernel_mb": run.get("grid.max_mb", 0.0),
    }
    for key in ("energy.seminorm_p.calls", "energy.seminorm_p.self_s", "energy.gradient.calls",
                "energy.gradient.self_s", "energy.energy.calls"):
        m[key] = per_op(key)
    m.update(res["probes"])
    for key in ("fibering.fibermap.calls", "fibering.roots.calls", "fibering.roots.self_s",
                "fibering.psi.calls", "constants.estimate_sobolev.self_s", "constants.sobolev.iterations",
                "bubble.make_u_eps.calls", "bubble.interaction_integrals.calls"):
        m[key] = per_op(key)
    m["bubble.self_s"] = self_s("bubble.") / n
    m["solver.iterations"] = per_op("solver.iterations")
    m["solver.armijo_trials"] = per_op("solver.armijo_trials")
    m["solver.accept_ratio"] = ratio(ops.get("solver.iterations", 0.0), ops.get("solver.armijo_trials", 0.0))
    m["solver.restarts"] = per_op("solver.restarts")
    m["solver.part_scales.calls"] = per_op("solver.part_scales.calls")
    m["solver.converged_frac"] = ratio(ops.get("solver.converged", 0.0), ops.get("solver.solves", 0.0))
    m["solver.self_s"] = self_s("solver.") / n
    m["verification.run_battery.self_s"] = per_op("verification.run_battery.self_s")
    m["verification.checks_failed"] = per_op("verification.checks_failed")
    m["config.load_s"] = ratio(self_s("config.", run), run.get("config.load_config.calls", 0.0))
    for step in workloads.CLI_STEPS:
        m[f"cli.{step}.wall_s"] = res["cli_step_s"][step] if is_cli else 0.0
    m["cli.import_s"] = ratio(run.get("cli.import_s", 0.0), run.get("cli.imports", 0.0))
    m["trace.overhead_s"] = statistics.median(res["traced_op_s"]) - statistics.median(res["op_s"])
    return m


def report_end_to_end(res: dict, setup: list, units: dict) -> dict:
    """Print the end-to-end metrics; return those that BENCHMARK.json gates.

    ``op_s.p50`` is what a user waits, but on a shared host it moves with
    the host's speed.  ``op_ref.p50``, the one gated, is the median cost of
    an operation in units of a fixed reference computation timed around
    each of its pieces (``child.Paced``): its time at the host speed of the
    moment.  Likewise ``setup_s`` is the median set-up time of a fresh
    interpreter scaled to a host on which one reference unit, timed in the
    same interpreter right after, takes ``REFERENCE_UNIT_S``;
    ``setup_wall_s`` is the unscaled median.
    """
    ops, refs = res["op_s"], res["unit_s"]
    printed = {
        "op_ref.p50": statistics.median(res["op_units"]),
        "op_s.p50": statistics.median(ops),
        "ref_unit_s.p50": statistics.median(refs),
        "setup_s": statistics.median(s["setup_s"] * REFERENCE_UNIT_S / s["unit_s"] for s in setup),
        "setup_wall_s": statistics.median(s["setup_s"] for s in setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    units = {**units, "op_s.p50": "s", "ref_unit_s.p50": "s", "setup_wall_s": "s"}
    counts = {"op_ref.p50": len(ops), "op_s.p50": len(ops), "ref_unit_s.p50": len(refs),
              "setup_s": len(setup), "setup_wall_s": len(setup), "peak_rss_mb": 1}
    for key, value in printed.items():
        print(f"{key:14s} {value:<12.6g} {units[key]:6s} n={counts[key]}")
    print(f"{'op_s':14s} " + " ".join(f"{t:.4g}" for t in ops))
    print(f"{'op_ref':14s} " + " ".join(f"{t:.4g}" for t in res["op_units"]))
    hi = high_percentile(len(ops))
    if hi is None:
        print(f"{'op_s.p_hi':14s} {'-':12s} {'s':6s} n={len(ops)}: no percentile has 10 samples beyond it")
    else:
        q = statistics.quantiles(ops, n=1000, method="inclusive")[round(hi * 10) - 1]
        print(f"{f'op_s.p{hi:g}':14s} {q:<12.6g} {'s':6s} n={len(ops)}")
    print(f"{'fail_frac':14s} {res['failed'] / res['attempted']:<12.6g} {'ratio':6s} "
          f"n={res['attempted']} ({res['failed']} failed)")
    return {key: printed[key] for key in ("op_ref.p50", "setup_s", "peak_rss_mb")}


def report_layers(res: dict, is_cli: bool, gated: list) -> dict:
    measured = layer_metrics(res, is_cli)
    layers = json.loads((HERE / "layers.json").read_text())
    if set(measured) != set(layers) or not set(gated) <= set(layers):
        raise RuntimeError("per-layer metrics differ from layers.json or BENCHMARK.json")
    for key, value in measured.items():
        print(f"{key:38s} {value:<14.6g} {layers[key]['unit']:6s} moves: {layers[key]['moves']}")
    print(f"traced ops n={len(res['traced_op_s'])}, untraced ops n={len(res['op_s'])}")
    for name in res["missing"]:
        print(f"WARNING not traced, no longer in the package: {name}")
    # the result holds the metrics of BENCHMARK.json; the others are times of
    # layers that only some workloads use, and read 0 on the rest
    return {key: measured[key] for key in gated}


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, env: dict):
    """Run one workload; print its metrics; return (correct, attempted, failed, metrics)."""
    setup = []

    def sample_setup(k):
        setup.extend(child(["setup", name], env, SETUP_TIMEOUT_S) for _ in range(k))

    if not trace:
        child(["setup", name], env, SETUP_TIMEOUT_S)  # untimed: compiles the bytecode caches
        sample_setup(SETUP_BEFORE)
    res = child(["run", name, str(seed), repr(seconds), "1" if trace else "0"], env, RUN_TIMEOUT_S)
    if not trace:
        sample_setup(SETUP_AFTER)
    e = res["env"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}  seconds {seconds}  "
          f"closed loop, one client, {len(res['op_s'])} timed ops")
    print(f"env nproc={e['nproc']} cpus_used={e['cpus_used']} cpu={e['cpu']!r} l2={e.get('l2')} l3={e.get('l3')} "
          f"python={e['python']} numpy={e['numpy']} blas={e['blas']} "
          + " ".join(f"{k}={v}" for k, v in e["threads"].items()))
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        metrics = report_layers(res, name == "cli-defaults", [m["name"] for m in spec["per_layer"]])
    else:
        metrics = report_end_to_end(res, setup, units)
    correct = not res["problems"]
    return correct, res["attempted"], res["failed"], {
        k: {"value": v, "unit": units[k]} for k, v in metrics.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nehari_fpl" / "__init__.py").is_file():
        print(f"error: no nehari_fpl package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    signal.signal(signal.SIGTERM, _stop)  # so that child() stops what it started
    pin_one_cpu()
    env = child_env()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace), spec, env)
        correct, attempted, failed = correct and ok, attempted + n, failed + f
        metrics.update(m if len(names) == 1 else {f"{name}/{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
