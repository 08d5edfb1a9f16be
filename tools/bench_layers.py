#!/usr/bin/env python3
"""Time the layers of two commits side by side, in one process.

Run from the repository root:

    python3 tools/bench_layers.py PARENT CHANGE [--layer NAME,...]

Both commits are exported with ``git archive``, as ``tools/bench_pairs.py``
exports them, and each export's package is imported under its own name
(``bench_parent`` and ``bench_change``), so that the two copies share no
module.  Every layer of the table below gets the same inputs on both sides,
drawn with seed SEED by the workload classes of the parent's
``perfbench/workloads.py``: the inputs of DECISION_ROWS ``decide`` ops, the
rows and the CSV file of one ``arbitrate`` op, and the document of one
``model_swap`` op.  Before a layer is timed, both sides' results are compared
bit for bit; a layer whose results differ is reported and not timed.  The
layers call private functions as the change's tree defines them:
``_ranking`` gets the possibilities and distances as float arrays, as it has
since 32d7c3f, so neither commit may be older than that.

The timing runs in SPELLS alternating spells, the parent first on even
spells.  A spell calls the layer a fixed number of times, sized on the parent
to about 20 ms, and yields its time per call.  For each layer the median and
the interquartile range of each side's spells are printed, with the spells in
which the change was faster.  The figures are written to
``BENCH_<change>.json`` under the key ``layers``; the rest of an existing
file, such as the runs of ``tools/bench_pairs.py``, is kept.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export, git, quartiles  # noqa: E402

DECISION_ROWS = 32
SPELL_SECONDS = 0.02
SPELLS = 60
SEED = 1


def load_package(src: Path, name: str):
    """The package under src/fuzzyspectrum, imported as name: its relative
    imports resolve within src, so its modules are its own."""
    init = src / "fuzzyspectrum" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def inputs(seed: int, tree: Path, workdir: Path) -> dict:
    """The raw inputs every layer reads, drawn with seed by the perfbench
    workloads of the exported tree: plain data, the same for both packages.
    The arbitrate op writes its batch's CSV file into workdir."""
    # workloads.py imports the package, checks.py and tests/oracle.py by name,
    # as perfbench/run.py lets it
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src"), str(tree / "tests")]
    spec = importlib.util.spec_from_file_location("bench_workloads", tree / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    decide, arbitrate, model_swap = (workloads.WORKLOADS[name](seed, workdir, {}) for name in ("decide", "arbitrate", "model_swap"))
    rows, _ = arbitrate.make_input(0)
    return {
        "decisions": [decide.make_input(i).inputs() for i in range(DECISION_ROWS)],
        "ids": [row[0] for row in rows],
        "batch": np.array([row[1:] for row in rows]),
        "csv_path": arbitrate.path,
        "document": model_swap.make_input(0)[0],
    }


def sweep_rows(pkg, spec, model) -> np.ndarray:
    """The (cells, inputs) rows that run_sweep(spec, model) hands
    sweep._infer_rows, captured from one sweep."""
    infer_rows, captured = pkg.sweep._infer_rows, []

    def capture(model, rows):
        captured.append(rows)
        return infer_rows(model, rows)

    pkg.sweep._infer_rows = capture
    try:
        pkg.run_sweep(spec, model)
    finally:
        pkg.sweep._infer_rows = infer_rows
    (rows,) = captured
    return rows


def cli_output(cli, argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) in process, as perfbench runs it: its exit code,
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def layers(pkg, data: dict) -> dict:
    """Each layer's call on pkg's objects, and a digest of its result that
    two packages can compare bit for bit."""
    engine, model, spec = pkg.engine, pkg.default_model(), pkg.figure_preset(9)
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    decisions, batch, cells = data["decisions"], data["batch"], sweep_rows(pkg, spec, model)
    doc = pkg.parse_document(data["document"])
    # the parts a parsed document hands FuzzyModel, so that model_build times
    # the constructor apart from json.loads and the rule loop
    parts = (doc.model.inputs, doc.model.output, list(doc.model.rules), doc.model.grid_points)
    surface = pkg.run_sweep(spec, model)
    presets = [pkg.figure_preset(preset) for preset in range(7, 12)]
    digest_array = np.ndarray.tobytes
    possibilities = engine._infer_rows(model, batch)
    distances = batch[:, list(pkg.INPUT_ORDER).index("distance_m")]

    def floats(values):
        return [float(x).hex() for x in values]

    return {
        "_infer_row": (lambda: [engine._infer_row(model, row) for row in decisions], floats),
        # perfbench's decide ops without the oracle: a fresh Candidate each,
        # decided at the default threshold
        "decision_possibility": (
            lambda: [pkg.decision_possibility(pkg.Candidate(f"su{i}", *row), model, 0.5) for i, row in enumerate(decisions)],
            lambda out: [(r.possibility.hex(), r.admitted) for r in out],
        ),
        "_infer_rows": (lambda: engine._infer_rows(model, batch), digest_array),
        "_infer_rows_preset_9": (lambda: engine._infer_rows(model, cells), digest_array),
        "_membership_table": (
            lambda: engine._membership_table(model._compiled, batch),
            lambda out: [digest_array(a) for a in out],
        ),
        "parse_document": (
            lambda: pkg.parse_document(data["document"]),
            lambda out: (pkg.serialize_document(out), floats(pkg.engine._infer_row(out.model, row) for row in decisions)),
        ),
        "model_build": (
            lambda: pkg.FuzzyModel(*parts),
            lambda out: (pkg.serialize_document(pkg.ModelDocument(out)), floats(engine._infer_row(out, row) for row in decisions)),
        ),
        "read_candidates_csv": (
            lambda: pkg.read_candidates_csv(data["csv_path"]),
            lambda out: (out.ids, digest_array(out.values)),
        ),
        "run_sweep": (lambda: pkg.run_sweep(spec, model), lambda out: digest_array(out.grid)),
        "format_surface_csv": (lambda: pkg.format_surface_csv(surface), str),
        # perfbench's surface ops without the CLI: each of presets 7 to 11
        # swept and formatted (run_sweep above times preset 9 alone)
        "surface": (lambda: [pkg.format_surface_csv(pkg.run_sweep(p, model)) for p in presets], list),
        "validate_model": (lambda: pkg.validate_model(doc.model), lambda out: out.failures),
        # perfbench's arbitrate op: the CLI in process, from the batch's CSV
        # file to the ranking's
        "arbitrate": (lambda: cli_output(cli, ["arbitrate", data["csv_path"], "--format", "csv"]), tuple),
        "_ranking": (
            lambda: pkg.arbitration._ranking(data["ids"], possibilities, distances),
            lambda out: [(cid, float(p).hex()) for cid, p in out],
        ),
    }


LAYERS = (
    "_infer_row", "decision_possibility", "_infer_rows", "_infer_rows_preset_9", "_membership_table", "parse_document",
    "model_build", "read_candidates_csv", "run_sweep", "format_surface_csv", "surface", "validate_model",
    "arbitrate", "_ranking",
)


def time_layers(sides: dict, names: list[str], spells: int) -> dict:
    """Each named layer's bit-for-bit check and, where both sides agree, the
    per-call microseconds of alternating spells."""
    results = {}
    for name in names:
        calls = {side: table[name] for side, table in sides.items()}
        digests = {side: digest(call()) for side, (call, digest) in calls.items()}
        if digests["parent"] != digests["change"]:
            results[name] = {"differs": True}
            continue
        once = min(timeit.repeat(calls["parent"][0], number=1, repeat=5))
        number = max(1, int(SPELL_SECONDS / max(once, 1e-9)))
        us = {"parent": [], "change": []}
        for spell in range(spells):
            order = ("parent", "change") if spell % 2 == 0 else ("change", "parent")
            for side in order:
                us[side].append(timeit.timeit(calls[side][0], number=number) / number * 1e6)
        summary = {"differs": False, "calls_per_spell": number, "spells": spells}
        for side, values in us.items():
            q1, q3 = quartiles(values)
            summary[side] = {"median_us": statistics.median(values), "quartiles_us": [q1, q3], "spells_us": values}
        summary["change_better_in"] = sum(c < p for p, c in zip(us["parent"], us["change"]))
        results[name] = summary
    return results


def report(results: dict) -> list[str]:
    lines = []
    for name, r in results.items():
        if r["differs"]:
            lines.append(f"{name:22s} DIFFERS between the commits: not timed")
            continue
        p, c = r["parent"], r["change"]
        (p1, p3), (c1, c3) = p["quartiles_us"], c["quartiles_us"]
        lines.append(
            f"{name:22s} parent {p['median_us']:10.2f} us (IQR {p3 - p1:.2f})"
            f"  change {c['median_us']:10.2f} us (IQR {c3 - c1:.2f})"
            f"  {(c['median_us'] - p['median_us']) / p['median_us']:+.1%}"
            f"  change better in {r['change_better_in']} of {r['spells']}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--layer", default=",".join(LAYERS), help=f"layers separated by commas (default: all of {', '.join(LAYERS)})")
    parser.add_argument("--output", type=Path, help="where to write the figures (default: BENCH_<change>.json)")
    args = parser.parse_args(argv)
    names = args.layer.split(",")
    unknown = [name for name in names if name not in LAYERS]
    if unknown:
        parser.error(f"--layer {', '.join(map(repr, unknown))} not a layer ({', '.join(LAYERS)})")
    parent, change = git("rev-parse", "--short", args.parent), git("rev-parse", "--short", args.change)

    with tempfile.TemporaryDirectory(prefix="bench-layers-") as tmp:
        trees = {side: export(commit, Path(tmp, side)) for side, commit in (("parent", parent), ("change", change))}
        packages = {side: load_package(tree / "src", f"bench_{side}") for side, tree in trees.items()}
        # drawn once, by the parent's workloads, and read by both
        data = inputs(SEED, trees["parent"], Path(tmp))
        sides = {side: layers(pkg, data) for side, pkg in packages.items()}
        results = time_layers(sides, names, SPELLS)

    print(f"parent {parent}, change {change}, {SPELLS} alternating spells, seed {SEED}")
    print("\n".join(report(results)))
    output = args.output or ROOT / f"BENCH_{change}.json"
    record = json.loads(output.read_text()) if output.exists() else {"parent": parent, "change": change}
    record["layers"] = {
        "parent": parent,
        "change": change,
        "command": f"python3 tools/bench_layers.py {parent} {change} --layer {','.join(names)}",
        "results": results,
    }
    output.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
