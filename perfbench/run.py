#!/usr/bin/env python3
"""Benchmark of the fuzzyspectrum package: four closed-loop workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0

One client sends the next op only after the previous one returned, in this
one process.  The number of ops is a fixed rate per workload times
``--seconds``, identical on every commit, so a faster program finishes
sooner instead of measuring more.  Every output is checked against the
oracle in ``tests/oracle.py`` or the golden surfaces.

Host-speed adjustment.  On a shared virtual machine the speed of the host
drifts by up to 1.6x within seconds, with the load of other guests, and a
run's median follows it.  So a fixed pure-Python reference loop is timed
before the first op and after every ``ops_per_reference`` ops, and each op
time is scaled by ``REFERENCE_S / reference time around it``.  The reported
times are therefore milliseconds on a host where the reference loop takes
``REFERENCE_S``; the unscaled wall-clock figures are in the report line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` every other op runs with timing
wrappers installed (see ``tracing.py``) and the metrics are per layer.  The
line before it is a JSON report: the machine context with the seed, the
tail percentile and its sample count, the failed-op ratio, and the
wall-clock figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
GOLDEN = TESTS / "data" / "golden"
PRESETS = (7, 8, 9, 10, 11)
WORKLOAD_NAMES = ("decide", "arbitrate", "surface", "model_swap")

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
# Ops a run always makes: a traced run needs one traced and one untraced op.
MIN_OPS = 2
# No op starts later than this after the run began, so that a much slower
# program still ends the run within three minutes; the ops not started are
# not counted as attempted.
OP_DEADLINE_S = 140
# The tail is the highest percentile with TAIL_BEYOND samples above it, but
# not above TAIL_MAX_PERCENTILE: above p95 the value swings from run to run.
TAIL_BEYOND = 10
TAIL_MAX_PERCENTILE = 95.0
# The reference loop's time on a quiet host (Xeon, 2 vCPUs, Python 3.11).
REFERENCE_S = 250e-6
REFERENCE_REPEATS = 3
PROBLEMS_SHOWN = 5


def reference_loop() -> float:
    """Fixed interpreter-bound work, timed to track the speed of the host."""
    acc = 0.0
    x = 0.37
    for i in range(3000):
        acc += x * (i & 7) * 1.0001
    return acc


def reference_time() -> float:
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def _required_files() -> list[Path]:
    return [
        SRC / "fuzzyspectrum" / "__init__.py",
        TESTS / "oracle.py",
        *(GOLDEN / f"fig{k:02d}.csv" for k in PRESETS),
    ]


def _use_checkout() -> None:
    sys.path[:0] = [str(HERE), str(SRC), str(TESTS)]


def probe_setup(spec_path: str) -> int:
    """Time one set-up in this fresh process; print the seconds and the
    reference time around it."""
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    _use_checkout()
    before = reference_time()
    start = time.perf_counter()
    import fuzzyspectrum  # noqa: F401  (the import is what is timed)
    import workloads

    workloads.WORKLOADS[spec["workload"]].warmup(spec["input"])
    elapsed = time.perf_counter() - start
    print(json.dumps([elapsed, (before + reference_time()) / 2.0]))
    return 0


def measure_setup(workload: str, warmup_input, workdir: Path) -> tuple[list[float], list[float]]:
    """(wall-clock, host-adjusted) set-up seconds of SETUP_RUNS fresh processes."""
    spec = workdir / "setup.json"
    spec.write_text(json.dumps({"workload": workload, "input": warmup_input}), encoding="utf-8")
    wall, adjusted = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", str(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        elapsed, reference = json.loads(done.stdout.strip().splitlines()[-1])
        wall.append(elapsed)
        adjusted.append(elapsed * REFERENCE_S / reference)
    return wall, adjusted


@dataclass
class Measurement:
    """Op times of one run, wall-clock and host-adjusted, split into traced
    and untraced ops, plus the failures found by the checks."""

    wall: list[float] = field(default_factory=list)
    adjusted: list[float] = field(default_factory=list)
    traced_adjusted: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def measure_ops(workload, n_ops: int, tracer) -> Measurement:
    m = Measurement()
    run_start = time.perf_counter()
    traced_op = tracer.root(workload.op) if tracer else None
    window: list[tuple[float, bool]] = []
    m.references.append(reference_time())

    def close_window():
        reference = reference_time()
        scale = REFERENCE_S / ((m.references[-1] + reference) / 2.0)
        m.references.append(reference)
        for elapsed, traced in window:
            if traced:
                m.traced_adjusted.append(elapsed * scale)
            else:
                m.wall.append(elapsed)
                m.adjusted.append(elapsed * scale)
        if tracer:
            tracer.flush(scale)
        window.clear()

    for i in range(n_ops):
        if i >= MIN_OPS and time.perf_counter() - run_start > OP_DEADLINE_S:
            break
        m.attempted += 1
        op_input = workload.make_input(i)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            output = (traced_op if traced else workload.op)(op_input)
            error = None
        except Exception:  # a failed op is counted, and the run goes on
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            tracer.end_op()
        window.append((elapsed, traced))
        found = [error] if error else workload.check(i, op_input, output)
        if found:
            m.failed += 1
            m.problems += found
        if len(window) == workload.ops_per_reference:
            close_window()
    if window:
        close_window()
    return m


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples above it) for the highest percentile up
    to TAIL_MAX_PERCENTILE with at least TAIL_BEYOND samples above it; the
    maximum when that percentile would lie below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = min(n - 1 - TAIL_BEYOND, math.ceil(TAIL_MAX_PERCENTILE / 100.0 * n) - 1)
    if rank < n // 2:
        rank = n - 1
    return 100.0 * (rank + 1) / n, ordered[rank], n - 1 - rank


def end_to_end(setup: list[float], latencies: list[float], items_per_op: int) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail(latencies)[1] * 1e3, "ms"),
        "items_per_s": (items_per_op * len(latencies) / sum(latencies), "1/s"),
    }


def machine_context(seed: int) -> dict:
    import numpy

    context = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "unknown",
        "commit": "unknown",
        "seed": seed,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            context["cpu"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        context["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        ref = (ROOT / ".git" / "HEAD").read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        context["commit"] = ref
    except OSError:
        pass
    return context


def run(args) -> int:
    missing = [str(p.relative_to(ROOT)) for p in _required_files() if not p.is_file()]
    if missing:
        print(f"error: not a fuzzyspectrum checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    _use_checkout()
    import fuzzyspectrum

    if Path(fuzzyspectrum.__file__).resolve().parent != (SRC / "fuzzyspectrum").resolve():
        print(f"error: imported fuzzyspectrum from {fuzzyspectrum.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    goldens = {k: (GOLDEN / f"fig{k:02d}.csv").read_text(encoding="utf-8") for k in PRESETS}
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, goldens)
        warmup_input = workload.warmup_input()
        setup_wall, setup = measure_setup(args.workload, warmup_input, workdir)
        workload.warmup(warmup_input)
        n_ops = max(MIN_OPS, round(workload.ops_per_second * args.seconds))
        tracer = tracing.Tracer() if args.trace else None
        m = measure_ops(workload, n_ops, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pct, _, beyond = tail(m.adjusted)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "ops": n_ops,
        "attempted": m.attempted,
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "failed_ratio": {"value": m.failed / m.attempted, "unit": "ratio"},
        "wall_clock": {
            name: {"value": v, "unit": u}
            for name, (v, u) in end_to_end(setup_wall, m.wall, workload.items_per_op).items()
        },
        "reference_loop_us": {
            "median": statistics.median(m.references) * 1e6,
            "min": min(m.references) * 1e6,
            "max": max(m.references) * 1e6,
        },
        "context": machine_context(args.seed),
        "problems": m.problems[:PROBLEMS_SHOWN],
    }
    if args.trace:
        metrics = dict(tracer.metrics())
        traced_p50 = statistics.median(m.traced_adjusted) * 1e3
        metrics["trace.op_p50_ms"] = (traced_p50, "ms")
        metrics["trace.overhead_ms"] = (traced_p50 - statistics.median(m.adjusted) * 1e3, "ms")
    else:
        metrics = end_to_end(setup, m.adjusted, workload.items_per_op)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    for problem in m.problems[:PROBLEMS_SHOWN]:
        print(problem, file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe_setup(args.probe)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
