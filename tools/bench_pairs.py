#!/usr/bin/env python3
"""Benchmark two commits in alternating pairs of perfbench runs.

Run from the repository root:

    python3 tools/bench_pairs.py PARENT CHANGE --workload decide,arbitrate --seeds 1601-1610 --seconds 25

Both commits are exported with ``git archive`` into a temporary directory,
and ``perfbench/run.py`` runs in each export with the same seed, one pair
per seed and workload: the parent first on even pairs, the change first on
odd ones.  For each workload, the medians of every end-to-end metric, the
interquartile range of the parent's runs and the pairs the change won are
printed, with the ``src/`` line count of each commit.  The report and result
lines of every run, tagged with its workload, are written to
``BENCH_<change>.json`` with the line counts; the claim is the first
workload's ``op_p50_ms``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(commit: str, tree: Path) -> Path:
    """The files of commit, written into the new directory tree."""
    tree.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def src_lines(tree: Path) -> int:
    """The lines of the Python files under src/ in tree, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> list[dict]:
    """The report and result lines of one perfbench run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines()[-2:]]


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(runs: list[dict], end_to_end: list[dict]) -> list[str]:
    """One line per end-to-end metric of one workload's runs: medians, the
    parent's IQR and the wins."""
    lines = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        value = {
            (run["side"], run["seed"]): run["lines"][1]["metrics"][name]["value"] for run in runs
        }
        seeds = sorted({seed for _, seed in value})
        parent = [value["parent", seed] for seed in seeds]
        change = [value["change", seed] for seed in seeds]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p50, c50 = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent) if len(parent) > 1 else (p50, p50)
        lines.append(
            f"{name:12s} parent {p50:.6g} (IQR {q1:.6g}-{q3:.6g}, {q3 - q1:.3g})"
            f"  change {c50:.6g} ({(c50 - p50) / p50:+.1%})  better in {wins} of {len(seeds)}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, help="one workload, or several separated by commas")
    parser.add_argument("--seeds", required=True, metavar="A-B", help="inclusive seed range, one pair per seed")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--output", type=Path, help="where to write the runs (default: BENCH_<change>.json)")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    workloads = args.workload.split(",")
    parent, change = git("rev-parse", "--short", args.parent), git("rev-parse", "--short", args.change)

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": export(parent, Path(tmp, "parent")), "change": export(change, Path(tmp, "change"))}
        end_to_end = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        counts = {side: src_lines(tree) for side, tree in trees.items()}
        print(f"src/ lines: parent {counts['parent']}, change {counts['change']} ({counts['change'] - counts['parent']:+d})")
        # the workloads take turns within each seed, so drift of the host
        # spreads over all of them
        for pair, seed in enumerate(seeds):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in sides:
                    lines = run_once(trees[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "side": side, "seed": seed, "lines": lines})
                    metrics = lines[1]["metrics"]
                    print(f"pair {pair} seed {seed} {workload} {side:6s} op_p50_ms {metrics['op_p50_ms']['value']:.4f}",
                          flush=True)

    for workload in workloads:
        print(f"workload {workload}")
        for line in summary([run for run in runs if run["workload"] == workload], end_to_end):
            print(f"  {line}")
    shown = workloads[0] if len(workloads) == 1 else "WORKLOAD"
    record = {
        "parent": parent,
        "change": change,
        "claim": f"{workloads[0]} op_p50_ms",
        "command": f"python3 perfbench/run.py --workload {shown} --seed SEED --seconds {args.seconds}",
        "protocol": (
            f"{len(seeds)} alternating pairs, seeds {seeds[0]}-{seeds[-1]}, parent first on even pair index;"
            " each side run from a fresh export of its commit"
            + (f"; each pair runs the workloads {', '.join(workloads)} in turn" if len(workloads) > 1 else "")
        ),
        "src_lines": counts,
        "runs": runs,
    }
    output = args.output or ROOT / f"BENCH_{change}.json"
    output.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
