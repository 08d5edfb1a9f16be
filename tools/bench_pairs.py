#!/usr/bin/env python3
"""Benchmark two commits in alternating pairs of perfbench runs.

Run from the repository root:

    python3 tools/bench_pairs.py PARENT CHANGE --workload decide,arbitrate --seeds 1601-1610

Both commits are exported with ``git archive`` into a temporary directory,
and ``perfbench/run.py`` runs in each export with the same seed, for the
``run_seconds`` of the change's ``BENCHMARK.json``, one pair per seed and
workload: the parent first on even pairs, the change first on odd ones.  For
each workload, the medians of every end-to-end metric, the interquartile
range of the parent's runs and the pairs the change won are printed, with
the ``src/`` line count of each commit and one line for each ``src/`` file
whose count differs, and the public surface of each commit, the names the
``__all__`` lists under ``src/`` hold, with the names added or removed.  The
report and result lines of every run, tagged with its workload, are written
to ``BENCH_<change>.json`` with the line counts, in total and by file, and
the surface; the ``layers`` figures that ``tools/bench_layers.py`` wrote to
that file are kept.

Two verdicts are printed and stored with the runs.  Each workload's
``op_p50_ms`` gain is met only when the change is better in at least nine
tenths of the pairs (ties count for neither side) and its median is better
than the parent's by more than the parent's interquartile range; whether a
gain was claimed is for the change's description to say.  A metric of any
workload is beyond its bound when the change's median is worse than the
parent's by more than the metric's ``bound`` in ``BENCHMARK.json``, a
fraction of the parent's median.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
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


def src_lines_by_file(tree: Path) -> dict[str, int]:
    """The lines of each Python file under src/ in tree, as wc -l counts
    them, by its path below src/."""
    src = tree / "src"
    return {path.relative_to(src).as_posix(): path.read_bytes().count(b"\n") for path in sorted(src.rglob("*.py"))}


def src_file_deltas(by_file: dict[str, dict[str, int]]) -> list[str]:
    """One line for each src/ file whose line count differs between the
    parent and the change; a file only one side has counts 0 on the other."""
    parent, change = by_file["parent"], by_file["change"]
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        p, c = parent.get(name, 0), change.get(name, 0)
        if p != c:
            lines.append(f"  {name}: {p} -> {c} ({c - p:+d})")
    return lines


def public_names(tree: Path) -> list[str]:
    """The names the __all__ literals of the Python files under src/ in tree
    list, sorted, read with ast and without importing anything; an __all__
    that is not a literal, such as a package's sum of its modules' lists,
    adds none."""
    names = []
    for path in sorted((tree / "src").rglob("*.py")):
        for node in ast.parse(path.read_bytes()).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                try:
                    names += ast.literal_eval(node.value)
                except ValueError:
                    pass
    return sorted(names)


def surface_change(names: dict[str, list[str]]) -> dict:
    """The public name counts of the parent and the change, and the names
    only the parent has (removed) or only the change has (added)."""
    parent, change = set(names["parent"]), set(names["change"])
    return {
        "parent": len(names["parent"]),
        "change": len(names["change"]),
        "removed": sorted(parent - change),
        "added": sorted(change - parent),
    }


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


def compare(runs: list[dict], metric: dict) -> dict:
    """Medians, the parent's quartiles, the wins and both verdicts (gain and
    bound) for one end-to-end metric of one workload's runs, paired by seed."""
    name, lower = metric["name"], metric["better"] == "lower"
    value = {(run["side"], run["seed"]): run["lines"][1]["metrics"][name]["value"] for run in runs}
    seeds = sorted({seed for _, seed in value})
    parent = [value["parent", seed] for seed in seeds]
    change = [value["change", seed] for seed in seeds]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    p50, c50 = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent) if len(parent) > 1 else (p50, p50)
    # how much better the change's median is, in the metric's own units
    gain = p50 - c50 if lower else c50 - p50
    return {
        "parent_median": p50,
        "parent_quartiles": [q1, q3],
        "change_median": c50,
        "better_in": wins,
        "pairs": len(seeds),
        "gain_met": 10 * wins >= 9 * len(seeds) and gain > q3 - q1,
        "beyond_bound": -gain > metric["bound"] * abs(p50),
    }


def verdicts(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Every workload's op_p50_ms gain, and its end-to-end metrics compared
    with their bounds."""
    workloads = list(dict.fromkeys(run["workload"] for run in runs))
    metrics = {
        workload: {metric["name"]: compare([run for run in runs if run["workload"] == workload], metric)
                   for metric in end_to_end}
        for workload in workloads
    }
    return {
        "op_p50_ms_gain": {workload: by_name["op_p50_ms"]["gain_met"] for workload, by_name in metrics.items()},
        "beyond_bound": [f"{workload} {name}" for workload, by_name in metrics.items()
                         for name, compared in by_name.items() if compared["beyond_bound"]],
        "metrics": metrics,
    }


def report(verdict: dict, end_to_end: list[dict]) -> list[str]:
    """The printed summary of a verdicts() result."""
    bounds = {metric["name"]: metric["bound"] for metric in end_to_end}
    lines = []
    for workload, by_name in verdict["metrics"].items():
        lines.append(f"workload {workload}")
        for name, m in by_name.items():
            p50, c50, (q1, q3) = m["parent_median"], m["change_median"], m["parent_quartiles"]
            flag = f"  WORSE BEYOND BOUND {bounds[name]:.0%}" if m["beyond_bound"] else ""
            lines.append(
                f"  {name:12s} parent {p50:.6g} (IQR {q1:.6g}-{q3:.6g}, {q3 - q1:.3g})"
                f"  change {c50:.6g} ({(c50 - p50) / p50:+.1%})  better in {m['better_in']} of {m['pairs']}{flag}"
            )
    for workload, met in verdict["op_p50_ms_gain"].items():
        lines.append(f"gain {workload} op_p50_ms: {'met' if met else 'not met'}")
    lines.append("bounds: " + (", ".join(verdict["beyond_bound"]) + " worse beyond bound"
                               if verdict["beyond_bound"] else "no metric worse than its bound"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, help="one workload, or several separated by commas")
    parser.add_argument("--seeds", required=True, metavar="A-B", help="inclusive seed range, one pair per seed")
    parser.add_argument("--output", type=Path, help="where to write the runs (default: BENCH_<change>.json)")
    args = parser.parse_args(argv)
    # both checked before any commit is exported
    bounds = re.fullmatch(r"(\d+)(?:-(\d+))?", args.seeds)
    seeds = range(int(bounds[1]), int(bounds[2] or bounds[1]) + 1) if bounds else range(0)
    if not seeds:
        parser.error(f"--seeds {args.seeds!r} is not a non-empty range A-B of integers")
    workloads = args.workload.split(",")
    known = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"--workload {', '.join(map(repr, unknown))} not in BENCHMARK.json ({', '.join(known)})")
    parent, change = git("rev-parse", "--short", args.parent), git("rev-parse", "--short", args.change)

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": export(parent, Path(tmp, "parent")), "change": export(change, Path(tmp, "change"))}
        benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
        by_file = {side: src_lines_by_file(tree) for side, tree in trees.items()}
        counts = {side: sum(lines.values()) for side, lines in by_file.items()}
        print(f"src/ lines: parent {counts['parent']}, change {counts['change']} ({counts['change'] - counts['parent']:+d})")
        for line in src_file_deltas(by_file):
            print(line)
        surface = surface_change({side: public_names(tree) for side, tree in trees.items()})
        print(f"surface: parent {surface['parent']}, change {surface['change']} ({surface['change'] - surface['parent']:+d})")
        for sign, key in (("-", "removed"), ("+", "added")):
            for name in surface[key]:
                print(f"  {sign} {name}")
        # the workloads take turns within each seed, so drift of the host
        # spreads over all of them
        for pair, seed in enumerate(seeds):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in sides:
                    lines = run_once(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "side": side, "seed": seed, "lines": lines})
                    metrics = lines[1]["metrics"]
                    print(f"pair {pair} seed {seed} {workload} {side:6s} op_p50_ms {metrics['op_p50_ms']['value']:.4f}",
                          flush=True)

    verdict = verdicts(runs, end_to_end)
    print("\n".join(report(verdict, end_to_end)))
    shown = workloads[0] if len(workloads) == 1 else "WORKLOAD"
    record = {
        "parent": parent,
        "change": change,
        "command": f"python3 perfbench/run.py --workload {shown} --seed SEED --seconds {seconds}",
        "protocol": (
            f"{len(seeds)} alternating pairs, seeds {seeds[0]}-{seeds[-1]}, parent first on even pair index;"
            " each side run from a fresh export of its commit"
            + (f"; each pair runs the workloads {', '.join(workloads)} in turn" if len(workloads) > 1 else "")
        ),
        "src_lines": counts,
        "src_lines_by_file": by_file,
        "surface": surface,
        "verdicts": verdict,
        "runs": runs,
    }
    output = args.output or ROOT / f"BENCH_{change}.json"
    # the in-process layer figures of tools/bench_layers.py, if any, stay
    if output.exists() and "layers" in (earlier := json.loads(output.read_text())):
        record["layers"] = earlier["layers"]
    output.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
