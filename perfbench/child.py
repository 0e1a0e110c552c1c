"""Fresh-interpreter entry points of the benchmark; ``run.py`` starts them.

    child.py setup WORKLOAD                  time import, config and grid once
    child.py run WORKLOAD SEED SECONDS TRACE run one workload, print a JSON result
    child.py cli TRACE_FILE SUBCOMMAND ...   one traced nehari-fpl subcommand

``run.py`` sets the BLAS/OpenMP thread variables and PYTHONPATH before it
starts these, so they take effect before numpy loads.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# keys of the traced counts that depend on the machine, not on the inputs
TIMED_KEYS = ("self_s", "import_s")


def import_package():
    sys.path.insert(0, str(SRC))
    import nehari_fpl

    if Path(nehari_fpl.__file__).resolve().parent != (SRC / "nehari_fpl").resolve():
        raise SystemExit(f"nehari_fpl was imported from {nehari_fpl.__file__}, not from {SRC}")
    return nehari_fpl


def setup(name: str):
    start = time.perf_counter()
    nf = import_package()
    if name != "cli-defaults":
        workloads.make(name, ROOT, ROOT).setup(nf)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "unit_s": Reference().unit_s(4)}))


def cli(trace_file: str, argv: list) -> int:
    from tracer import Tracer

    start = time.perf_counter()
    import_package()
    import nehari_fpl.cli

    tracer = Tracer()
    tracer.counts["cli.import_s"] = time.perf_counter() - start
    tracer.counts["cli.imports"] = 1
    tracer.install()
    try:
        return nehari_fpl.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(trace_file).write_text(json.dumps(tracer.snapshot()))


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items() if not k.endswith("max_mb")}


def _exact(counts: dict) -> dict:
    """The machine-independent part of a count delta."""
    return {k: v for k, v in counts.items() if not k.endswith(TIMED_KEYS) and v}


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Reference:
    """A fixed computation that uses no nehari_fpl code, timed per unit.

    Like the solves it is mostly dense pair arithmetic at n=384, with some
    interpreted loop; one unit takes about 20 ms on a 2 GHz x86 core.  It
    works in buffers made once, so that a sample taken while a solve holds
    its largest arrays does not raise the peak resident memory.
    """

    N = 384

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(0.0, 1.0, self.N)
        self.weights = np.add.outer(self.x, self.x) + 1.0
        self.pairs = np.empty((self.N, self.N))

    def unit_s(self, units: int) -> float:
        """Wall time of one unit, over ``units`` units."""
        np, x, pairs = self.np, self.x, self.pairs
        start = time.perf_counter()
        acc = 0.0
        for _ in range(units):
            for _ in range(26):
                np.subtract(x[:, None], x[None, :], out=pairs)
                np.abs(pairs, out=pairs)
                np.square(pairs, out=pairs)
                np.multiply(pairs, self.weights, out=pairs)
                acc += float(pairs.sum())
            for i in range(60_000):
                acc += i & 7
        return (time.perf_counter() - start) / units


class Paced:
    """Times the pieces of operations against a reference computation.

    The shared host runs this process at speeds that differ by up to half
    and change within seconds.  The reference computation measures the
    speed of the moment: three units after each piece, and one unit every
    half second of this process's CPU time during a piece (on SIGPROF, so
    never while it waits for a subcommand).  Each stretch of a piece
    between two samples, over the mean unit time of the two, is its cost in
    reference units; the sum keeps the program's cost and drops the
    host's.  Time spent on samples is left out of the piece's time.
    """

    SAMPLE_CPU_S = 0.5

    def __init__(self):
        self.reference = Reference()
        self.unit_s = [self.reference.unit_s(8)]
        self.op_s = self.op_units = 0.0
        self._marks: list[tuple] = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        unit = self.reference.unit_s(1)
        self._marks.append((start, unit, time.perf_counter() - start))

    def __call__(self, fn, *args, **kwargs):
        self._marks = []
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.SAMPLE_CPU_S, self.SAMPLE_CPU_S)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            end = time.perf_counter()
            signal.signal(signal.SIGPROF, previous)
            closing = self.reference.unit_s(3)
            at, unit = start, self.unit_s[-1]
            for mark, mark_unit, spent in [*self._marks, (end, closing, 0.0)]:
                self.op_s += mark - at
                self.op_units += (mark - at) * 2.0 / (unit + mark_unit)
                at, unit = mark + spent, mark_unit
            self.unit_s += [mark_unit for _, mark_unit, _ in self._marks] + [closing]

    def take(self) -> tuple:
        """Seconds and reference units of the pieces since the last take."""
        taken = self.op_s, self.op_units
        self.op_s = self.op_units = 0.0
        return taken


class Runner:
    """Runs a workload's operations back to back and keeps what they report."""

    def __init__(self, work, tracer):
        self.work, self.tracer = work, tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, seed: int, traced: bool, piece=_call):
        tracer = self.tracer
        if tracer is not None and not isinstance(self.work, workloads.Cli):
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
        before = tracer.snapshot() if traced else None
        start = time.perf_counter()
        try:
            digest, problems = self.work.op(seed, piece, tracer if traced else None)
        except Exception as exc:  # a crashed operation is a failed operation
            import traceback

            traceback.print_exc()
            digest, problems = None, [f"raised {exc!r}"]
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"seed {seed}: {p}" for p in problems]
        counts = _delta(tracer.snapshot(), before) if traced else None
        return elapsed, digest, counts

    def loop(self, seconds: float, step, min_steps: int):
        """Call step(k) for k = 0, 1, ... while the next one fits in the time."""
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            t0 = time.perf_counter()
            step(k)
            k += 1
            now = time.perf_counter()
            if k >= min_steps and now + (now - t0) > deadline:
                return


def run(name: str, seed: int, seconds: float, trace: bool):
    workdir = ROOT / "perfbench" / ".work" / f"{name}-{os.getpid()}"
    work = workloads.make(name, ROOT, workdir)
    is_cli = isinstance(work, workloads.Cli)
    nf = import_package() if (trace or not is_cli) else None
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        if not is_cli:
            tracer.install()
    runner = Runner(work, tracer)
    out = {"env": workloads.environment()}
    try:
        work.setup(nf)
        if trace:
            _traced(runner, seed, seconds, out)
            tracer.uninstall()
            out["probes"] = workloads.probe_kernels(nf, seed)
            out["missing"] = tracer.missing
            if is_cli:
                out["cli_step_s"] = {s: statistics.median(v) for s, v in work.step_s.items()}
        else:
            _untraced(runner, seed, seconds, is_cli, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    out.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    print(json.dumps(out))


def _untraced(runner, seed, seconds, is_cli, out):
    times, units, digests = [], [], {}
    if not is_cli:  # users of the command line pay start-up on every command
        _, digests[seed], _ = runner.op(seed, False)
    paced = Paced()

    def step(k):
        s = seed + k
        _, digest, _ = runner.op(s, False, paced)
        elapsed, cost = paced.take()
        times.append(elapsed)
        units.append(cost)
        if digests.setdefault(s, digest) != digest:
            runner.problems.append(f"seed {s}: outputs differ between two runs of one seed")

    runner.loop(seconds, step, 2 if is_cli else 1)
    out.update(op_s=times, op_units=units, unit_s=paced.unit_s)


def _traced(runner, seed, seconds, out):
    """A traced warm-up, then pairs of untraced and traced operations.

    The warm-up and the first traced operation share a seed, so their exact
    counts must agree; each pair must give identical outputs.
    """
    _, _, reference = runner.op(seed, True)
    untraced, traced = [], []
    totals: dict = {}

    def step(k):
        s = seed + k
        t_plain, d_plain, _ = runner.op(s, False)
        t_traced, d_traced, counts = runner.op(s, True)
        untraced.append(t_plain)
        traced.append(t_traced)
        if d_plain != d_traced:
            runner.problems.append(f"seed {s}: traced outputs differ from untraced")
        if k == 0 and _exact(counts) != _exact(reference):
            diff = sorted(
                key for key in _exact(counts).keys() | _exact(reference).keys()
                if counts.get(key) != reference.get(key)
            )
            runner.problems.append(f"seed {seed}: counts differ between two runs: {diff}")
        for key, value in counts.items():
            totals[key] = totals.get(key, 0.0) + value

    runner.loop(seconds, step, 1)
    out.update(op_s=untraced, traced_op_s=traced, op_counts=totals, run_counts=runner.tracer.snapshot())


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1])
        return 0
    if mode == "run":
        run(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
        return 0
    if mode == "cli":
        return cli(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
