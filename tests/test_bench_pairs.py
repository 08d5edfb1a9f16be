"""The gain and bound verdicts of tools/bench_pairs.py, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

END_TO_END = [
    {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "better": "higher", "bound": 0.25},
]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(workload, parent, change, items=None):
    """One run per side and seed, with op_p50_ms from parent and change and
    items_per_s from items (a (parent, change) pair of lists) or 1.0."""
    items = items or ([1.0] * len(parent), [1.0] * len(change))
    out = []
    for seed, values in enumerate(zip(parent, change, *items)):
        p, c, p_items, c_items = values
        for side, op, per_s in (("parent", p, p_items), ("change", c, c_items)):
            metrics = {"op_p50_ms": {"value": op}, "items_per_s": {"value": per_s}}
            out.append({"workload": workload, "side": side, "seed": seed, "lines": [{}, {"metrics": metrics}]})
    return out


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize(
    "change, met",
    [
        # better in 10 of 10, median gap 0.10 against a parent IQR of ~0.03
        ([p - 0.10 for p in PARENT], True),
        # better in 9 of 10 still meets the gain test
        ([p - 0.10 for p in PARENT[:9]] + [PARENT[9] + 0.01], True),
        # better in 8 of 10 does not
        ([p - 0.10 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]], False),
        # better in 10 of 10, but by less than the parent's IQR
        ([p - 0.005 for p in PARENT], False),
        # ties count for neither side
        (PARENT, False),
    ],
    ids=["clear-gain", "nine-of-ten", "eight-of-ten", "inside-iqr", "ties"],
)
def test_claim_needs_nine_tenths_of_pairs_and_a_gap_wider_than_the_iqr(change, met):
    bench_pairs = load_bench_pairs()
    verdict = bench_pairs.verdicts(runs("decide", PARENT, change), END_TO_END)
    assert verdict["op_p50_ms_gain"] == {"decide": met}


def test_every_workload_gets_its_own_gain_verdict():
    bench_pairs = load_bench_pairs()
    all_runs = runs("decide", PARENT, PARENT) + runs("surface", PARENT, [p - 0.10 for p in PARENT])
    verdict = bench_pairs.verdicts(all_runs, END_TO_END)
    assert verdict["op_p50_ms_gain"] == {"decide": False, "surface": True}
    report = bench_pairs.report(verdict, END_TO_END)
    assert [line for line in report if line.startswith("gain ")] == [
        "gain decide op_p50_ms: not met",
        "gain surface op_p50_ms: met",
    ]
    assert not any("claim" in line for line in report)


def test_median_worse_beyond_its_bound_is_flagged_in_the_metrics_direction():
    bench_pairs = load_bench_pairs()
    ones = [1.0] * 10
    all_runs = (
        # op_p50_ms 24% worse: inside the 25% bound
        runs("decide", ones, [1.24] * 10)
        # op_p50_ms 26% worse
        + runs("arbitrate", ones, [1.26] * 10)
        # items_per_s 26% lower is worse; 26% higher is not
        + runs("surface", ones, ones, items=(ones, [0.74] * 10))
        + runs("model_swap", ones, ones, items=(ones, [1.26] * 10))
    )
    verdict = bench_pairs.verdicts(all_runs, END_TO_END)
    assert verdict["beyond_bound"] == ["arbitrate op_p50_ms", "surface items_per_s"]
    report = "\n".join(bench_pairs.report(verdict, END_TO_END))
    assert "bounds: arbitrate op_p50_ms, surface items_per_s worse beyond bound" in report
    assert report.count("WORSE BEYOND BOUND 25%") == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--workload", "decide", "--seeds", "10-1"],
        ["--workload", "decide", "--seeds", "1-x"],
        ["--workload", "decide", "--seeds", "1.5"],
        ["--workload", "decide", "--seeds", ""],
        ["--workload", "decide,nope", "--seeds", "1-2"],
        ["--workload", "decide,", "--seeds", "1-2"],
    ],
    ids=["empty-range", "non-integer", "fraction", "no-seeds", "unknown-workload", "empty-workload"],
)
def test_bad_arguments_are_a_usage_error_before_any_export(monkeypatch, capsys, flags):
    bench_pairs = load_bench_pairs()

    def no_subprocess(*args, **kwargs):
        raise AssertionError(f"ran {args[0]}")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_subprocess)
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(["HEAD", "HEAD", *flags])
    assert excinfo.value.code == 2
    assert "error: --" in capsys.readouterr().err


def test_src_lines_are_counted_by_file_and_each_changed_file_gets_a_line(tmp_path):
    bench_pairs = load_bench_pairs()
    files = {
        "parent": {"pkg/a.py": "x\n" * 10, "pkg/b.py": "y\n" * 3, "pkg/gone.py": "z\n", "pkg/data.json": "{}\n" * 7},
        "change": {"pkg/a.py": "x\n" * 4, "pkg/b.py": "y\n" * 3, "pkg/new.py": "w\n" * 2 + "no newline"},
    }
    by_file = {}
    for side, contents in files.items():
        for name, text in contents.items():
            path = tmp_path / side / "src" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        by_file[side] = bench_pairs.src_lines_by_file(tmp_path / side)
    # only Python files, keyed by their path below src/, counted as wc -l counts
    assert by_file == {
        "parent": {"pkg/a.py": 10, "pkg/b.py": 3, "pkg/gone.py": 1},
        "change": {"pkg/a.py": 4, "pkg/b.py": 3, "pkg/new.py": 2},
    }
    assert bench_pairs.src_file_deltas(by_file) == [
        "  pkg/a.py: 10 -> 4 (-6)",
        "  pkg/gone.py: 1 -> 0 (-1)",
        "  pkg/new.py: 0 -> 2 (+2)",
    ]
