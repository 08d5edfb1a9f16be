#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced, and fails unless
each run is correct and emits exactly the metrics named in BENCHMARK.json.
Then feeds every output check a deliberately wrong answer and fails unless
the check reports it, and runs the benchmark in a directory without the
package, where it must exit with an error and print no result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def run_benchmark(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )


def check_runs(spec: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            done = run_benchmark(
                ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)], ROOT
            )
            if done.returncode != 0:
                expect(False, f"{label} exits 0 ({done.stderr.strip()[-300:]})")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            expect(result["correct"] and result["failed"] == 0, f"{label} outputs are correct")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == expected[trace], f"{label} emits every named metric with its unit")


def check_checkers() -> None:
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    import checks
    import workloads
    from fuzzyspectrum import model as fs_model

    threshold = workloads.THRESHOLD
    model = fs_model.default_model()
    rng = random.Random(11)

    # decide
    candidate = fs_model.Candidate("c", *workloads.random_measurements(rng))
    result = workloads.decide_op(candidate, model)
    expect(not checks.check_decision(candidate, result, threshold), "decide: right answer passes")
    expect(not checks.check_possibility(model, candidate.inputs(), result.possibility),
           "decide: oracle agrees with the engine")
    expect(bool(checks.check_possibility(model, candidate.inputs(), result.possibility + 1e-5)),
           "decide: perturbed possibility is caught")
    flipped = replace(result, admitted=not result.admitted)
    expect(bool(checks.check_decision(candidate, flipped, threshold)), "decide: flipped verdict is caught")

    # arbitrate
    with tempfile.TemporaryDirectory(prefix=".work-smoke-", dir=HERE) as tmp:
        arbitrate = workloads.Arbitrate(5, Path(tmp), {})
        rows, sampled = arbitrate.make_input(0)
        output = arbitrate.op((rows, sampled))
        resubmitted = workloads.arbitrate_op(arbitrate.shuffled_path)
    expect(not checks.check_arbitrate(output, rows, sampled, model, threshold), "arbitrate: right answer passes")
    expect(not checks.check_same_ranking(output, resubmitted), "arbitrate: shuffled resubmission agrees")
    code, text, err = output
    lines = text.splitlines()

    def with_fields(swap) -> tuple:
        body = [line.split(",") for line in lines[1:]]
        swap(body)
        return code, "\n".join([lines[0], *(",".join(r) for r in body)]) + "\n", err

    def reorder(body):
        k = next(k for k in range(len(body) - 1) if body[k][2] != body[k + 1][2])
        body[k][1:], body[k + 1][1:] = body[k + 1][1:], body[k][1:]

    reordered = with_fields(reorder)
    expect(bool(checks.check_arbitrate(reordered, rows, sampled, model, threshold)),
           "arbitrate: reordered ranking is caught")
    expect(bool(checks.check_same_ranking(output, reordered)), "arbitrate: changed resubmission is caught")

    groups: dict[tuple, list[str]] = {}
    for row in rows:
        groups.setdefault(row[1:], []).append(row[0])
    tie = next(sorted(ids) for ids in groups.values() if len(ids) > 1)

    def break_tie_wrongly(body):
        a = next(r for r in body if r[1] == tie[0])
        b = next(r for r in body if r[1] == tie[1])
        a[1], b[1] = b[1], a[1]

    expect(bool(checks.check_arbitrate(with_fields(break_tie_wrongly), rows, sampled, model, threshold)),
           "arbitrate: tie broken against the id order is caught")

    def perturb_sampled(body):
        r = next(r for r in body if r[1] == sampled[0][0])
        r[2] = f"{float(r[2]) + 1e-5:.6f}"

    problems = checks.check_arbitrate(with_fields(perturb_sampled), rows, sampled, model, threshold)
    expect(any("oracle" in p for p in problems), "arbitrate: wrong possibility for a sampled row is caught")

    # surface
    golden = (ROOT / "tests" / "data" / "golden" / "fig09.csv").read_text(encoding="utf-8")
    output = workloads.surface_op(9)
    expect(not checks.check_surface(output, golden, 9), "surface: right answer passes")
    # the last cell, one unit off in its sixth digit
    perturbed = golden[:-2] + ("1" if golden[-2] != "1" else "2") + "\n"
    expect(bool(checks.check_surface((0, perturbed, ""), golden, 9)), "surface: perturbed CSV is caught")
    expect(bool(checks.check_surface((1, golden, "error"), golden, 9)), "surface: failed exit is caught")

    # model_swap
    swap = workloads.ModelSwap(3, None, {})
    text, candidates = swap.make_input(0)
    doc, report, results = workloads.model_swap_op(text, candidates)
    expect(not checks.check_model_document(text, doc, report), "model_swap: right answer passes")
    expect(bool(checks.check_model_document(text.replace("\n", "\r\n", 1), doc, report)),
           "model_swap: broken round trip is caught")
    failed_report = replace(report, failures=("rule 1: weight 0.5 deviates from 1",))
    expect(bool(checks.check_model_document(text, doc, failed_report)), "model_swap: failed validation is caught")
    expect(bool(checks.check_possibility(doc.model, candidates[0].inputs(), results[0].possibility - 1e-5)),
           "model_swap: perturbed possibility is caught")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".work-bare-", dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        done = run_benchmark(["--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           "without the package the benchmark fails and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_runs(spec)
    check_checkers()
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
