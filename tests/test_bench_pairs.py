"""The gain and bound verdicts of tools/bench_pairs.py, on synthetic runs,
its run length, and the inputs and side-by-side loading of
tools/bench_layers.py."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"
BENCH_LAYERS = ROOT / "tools" / "bench_layers.py"

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
        ["--workload", "decide", "--seeds", "1-2", "--seconds", "8"],
    ],
    ids=["empty-range", "non-integer", "fraction", "no-seeds", "unknown-workload", "empty-workload", "seconds"],
)
def test_bad_arguments_are_a_usage_error_before_any_export(monkeypatch, capsys, flags):
    bench_pairs = load_bench_pairs()

    def no_subprocess(*args, **kwargs):
        raise AssertionError(f"ran {args[0]}")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_subprocess)
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(["HEAD", "HEAD", *flags])
    assert excinfo.value.code == 2
    # the error names the flag at fault
    assert re.search(r"error: (unrecognized arguments: )?--", capsys.readouterr().err)


def test_every_run_lasts_the_run_seconds_of_the_changes_benchmark(monkeypatch, tmp_path):
    bench_pairs = load_bench_pairs()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    # a length no flag or default gives, so that it can only come from the file
    benchmark["run_seconds"] = 3

    def export(commit, tree):
        (tree / "src").mkdir(parents=True)
        (tree / "BENCHMARK.json").write_text(json.dumps(benchmark))
        return tree

    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        metrics = {metric["name"]: {"value": 1.0} for metric in benchmark["end_to_end"]}
        return [{}, {"metrics": metrics}]

    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    output = tmp_path / "bench.json"
    argv = ["p", "c", "--workload", "decide,surface", "--seeds", "1-2", "--output", str(output)]
    assert bench_pairs.main(argv) == 0
    # every side, workload and seed, each for the file's run_seconds
    assert sorted(calls) == sorted(
        (side, workload, seed, 3) for side in ("parent", "change") for workload in ("decide", "surface") for seed in (1, 2)
    )
    assert json.loads(output.read_text())["command"].endswith("--seed SEED --seconds 3")


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


def test_the_surface_is_read_from_the_all_literals_without_importing(tmp_path):
    bench_pairs = load_bench_pairs()
    files = {
        "parent": {"a.py": '__all__ = ["f", "g"]\n', "b.py": '__all__ = ["h"]\n'},
        "change": {"a.py": '__all__ = ["f"]\n', "b.py": '__all__ = ["k", "h"]\n'},
    }
    names = {}
    for side, modules in files.items():
        package = tmp_path / side / "src" / "pkg"
        package.mkdir(parents=True)
        # importing the package would fail; its __all__ is no literal and adds no name
        (package / "__init__.py").write_text("import missing\nfrom . import a, b\n__all__ = a.__all__ + b.__all__\n")
        for name, text in modules.items():
            (package / name).write_text(text)
        names[side] = bench_pairs.public_names(tmp_path / side)
    assert names == {"parent": ["f", "g", "h"], "change": ["f", "h", "k"]}
    assert bench_pairs.surface_change(names) == {"parent": 3, "change": 3, "removed": ["g"], "added": ["k"]}


def load_bench_layers(monkeypatch):
    # bench_layers.py puts tools/ on sys.path to import bench_pairs
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_loads_of_the_working_tree_share_no_module(monkeypatch):
    bench_layers = load_bench_layers(monkeypatch)
    src, names = ROOT / "src", ("tree_a", "tree_b")
    installed = sys.modules.get("fuzzyspectrum")
    try:
        a, b = (bench_layers.load_package(src, name) for name in names)
        loaded = {name: {key: m for key, m in sys.modules.items() if key.split(".")[0] == name} for name in names}
        # each copy has every module of the package, all its own
        assert {key.partition(".")[2] for key in loaded["tree_a"]} == {key.partition(".")[2] for key in loaded["tree_b"]}
        assert {"engine", "model", "serialization", "sweep", "arbitration"} <= {key.partition(".")[2] for key in loaded["tree_a"]}
        assert not set(map(id, loaded["tree_a"].values())) & set(map(id, loaded["tree_b"].values()))
        assert all(Path(m.__file__).is_relative_to(src) for modules in loaded.values() for m in modules.values())
        # relative imports resolve within each copy
        assert a.model.FuzzyModel is a.engine.FuzzyModel is a.FuzzyModel
        assert a.FuzzyModel is not b.FuzzyModel and a.engine._infer_rows is not b.engine._infer_rows
        assert type(a.default_model()) is a.FuzzyModel and type(b.default_model()) is b.FuzzyModel
        assert sys.modules.get("fuzzyspectrum") is installed
    finally:
        for key in [key for key in sys.modules if key.split(".")[0] in names]:
            del sys.modules[key]


def test_a_layer_whose_results_differ_is_reported_not_timed(monkeypatch):
    bench_layers = load_bench_layers(monkeypatch)
    sides = {
        "parent": {"same": (lambda: 0.5, float.hex), "other": (lambda: 0.5, float.hex)},
        "change": {"same": (lambda: 0.5, float.hex), "other": (lambda: 0.5000000000000001, float.hex)},
    }
    results = bench_layers.time_layers(sides, ["same", "other"], spells=4)
    assert results["other"] == {"differs": True}
    assert results["same"]["differs"] is False and len(results["same"]["parent"]["spells_us"]) == 4
    assert 0 <= results["same"]["change_better_in"] <= 4
    report = bench_layers.report(results)
    assert report[1] == "other                  DIFFERS between the commits: not timed"
    assert report[0].startswith("same ") and "change better in" in report[0]


def test_inputs_are_what_the_perfbench_workloads_draw(monkeypatch, tmp_path):
    bench_layers = load_bench_layers(monkeypatch)
    data = bench_layers.inputs(bench_layers.SEED, ROOT, tmp_path)
    # drawn again here, into a directory of its own, by a second load of
    # workloads.py, which finds checks.py on the path that inputs() set
    spec = importlib.util.spec_from_file_location("workloads_again", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    again = tmp_path / "again"
    again.mkdir()
    decide = workloads.Decide(bench_layers.SEED, again, {})
    assert data["decisions"] == [decide.make_input(i).inputs() for i in range(32)]
    rows, _ = workloads.Arbitrate(bench_layers.SEED, again, {}).make_input(0)
    assert data["batch"].tolist() == [list(row[1:]) for row in rows]
    # 250 rows, of which 25 repeat another's measurements
    assert data["batch"].shape == (250, 4) and len(set(map(tuple, data["batch"].tolist()))) == 225
    assert data["csv_path"] == str(tmp_path / "batch.csv")
    assert (tmp_path / "batch.csv").read_text() == (again / "batch.csv").read_text()
    assert data["document"] == workloads.ModelSwap(bench_layers.SEED, again, {}).make_input(0)[0]


def test_every_layer_has_a_call_and_model_build_rebuilds_the_parsed_model(monkeypatch, tmp_path):
    bench_layers = load_bench_layers(monkeypatch)
    pkg = bench_layers.load_package(ROOT / "src", "tree_layers")
    try:
        data = bench_layers.inputs(bench_layers.SEED, ROOT, tmp_path)
        table = bench_layers.layers(pkg, data)
        assert list(table) == list(bench_layers.LAYERS)
        call, digest = table["model_build"]
        parsed = pkg.parse_document(data["document"]).model
        built = call()
        assert built == parsed and built is not parsed and digest(built) == digest(parsed)
        # the surface layer sweeps and formats presets 7 to 11, in order
        call, digest = table["surface"]
        model = pkg.default_model()
        want = [pkg.format_surface_csv(pkg.run_sweep(pkg.figure_preset(preset), model)) for preset in range(7, 12)]
        assert digest(call()) == want
        # the arbitrate layer is perfbench's op, and the _ranking layer ranks
        # the batch as arbitrate does
        code, out, err = table["arbitrate"][0]()
        assert (code, err) == (0, "") and out.startswith("rank,id,possibility,admitted\n") and out.count("\n") == 251
        ranking = pkg.arbitrate(pkg.read_candidates_csv(data["csv_path"]), model).ranking
        assert table["_ranking"][0]() == ranking
    finally:
        for key in [key for key in sys.modules if key.split(".")[0] == "tree_layers"]:
            del sys.modules[key]


def test_the_preset_9_layer_scores_the_rows_run_sweep_builds(monkeypatch):
    bench_layers = load_bench_layers(monkeypatch)
    pkg = bench_layers.load_package(ROOT / "src", "tree_sweep_rows")
    try:
        model, spec = pkg.default_model(), pkg.figure_preset(9)
        rows = bench_layers.sweep_rows(pkg, spec, model)
        assert rows.shape == (1681, 4)
        grid = pkg.run_sweep(spec, model).grid
        assert pkg.engine._infer_rows(model, rows).reshape(grid.shape).tobytes() == grid.tobytes()
        # the sweep scores through sweep._infer_rows again once captured
        assert pkg.sweep._infer_rows is pkg.engine._infer_rows
    finally:
        for key in [key for key in sys.modules if key.split(".")[0] == "tree_sweep_rows"]:
            del sys.modules[key]
