#!/usr/bin/env python3
"""Peak resident memory of the largest accepted CLI runs.

Run from anywhere; it takes no options:

    python3 tools/peak_rss.py

It runs ``fuzzyspectrum eval -60 50 0.5 50 --grid-points 100001 --output
/dev/null`` (one model build and one decision at the largest grid) and
``fuzzyspectrum sweep --preset 7 --steps 1001 --output /dev/null``, then
writes a seeded file of 200,000 random candidates (one id and four
measurements drawn uniformly from the model's universes per row) and runs
``fuzzyspectrum arbitrate FILE --format csv --output /dev/null``, each as a
child process of the package under ``src/`` of the tree this file sits in,
and prints each child's ``ru_maxrss`` in MB with its wall time.

On Linux a spawned child's ``ru_maxrss`` is at least the peak RSS of the
process that spawned it (``posix_spawn`` shares the spawner's memory until
the child's exec, which keeps its high-water mark). So the runs that need
no file come first, while this process is at its import floor, and a
reading that this process's own peak could have set is marked as such.
"""

from __future__ import annotations

import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
ROWS = 200_000
SEED = 22

sys.path.insert(0, str(SRC))
from fuzzyspectrum.model import INPUT_ORDER, UNIVERSES  # noqa: E402


def write_candidates(path: Path) -> None:
    rng = np.random.default_rng(SEED)
    rows = np.column_stack([rng.uniform(*UNIVERSES[name], ROWS) for name in INPUT_ORDER]).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(("id", *INPUT_ORDER)) + "\n")
        fh.writelines(f"u{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(rows))


def peak_rss(name: str, args: list[str]) -> None:
    """Print the peak RSS in MB and the wall time in seconds of one
    fuzzyspectrum child process, which must exit 0."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    argv = [sys.executable, "-m", "fuzzyspectrum", *args]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{' '.join(argv[2:])} exited {os.waitstatus_to_exitcode(status)}")
    rss = usage.ru_maxrss / 1024
    masked = f" (at most this process's own peak, {own:.1f})" if rss <= own else ""
    print(f"{name}: peak_rss_mb {rss:.1f} wall_s {wall:.2f}{masked}")


def main() -> int:
    peak_rss("eval", ["eval", "-60", "50", "0.5", "50", "--grid-points", "100001", "--output", os.devnull])
    peak_rss("sweep", ["sweep", "--preset", "7", "--steps", "1001", "--output", os.devnull])
    with tempfile.TemporaryDirectory(prefix="peak-rss-") as tmp:
        path = Path(tmp, "candidates.csv")
        write_candidates(path)
        print(f"candidates file: {ROWS} rows, {path.stat().st_size / 1e6:.1f} MB, seed {SEED}")
        peak_rss("arbitrate", ["arbitrate", str(path), "--format", "csv", "--output", os.devnull])
    return 0


if __name__ == "__main__":
    sys.exit(main())
