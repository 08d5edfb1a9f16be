#!/usr/bin/env python3
"""Regenerate the golden surface CSVs in tests/data/golden/.

Every cell value comes from the independent reference implementation in
tests/oracle.py, evaluated at the sweep's own grid resolution.  Before
anything is written, the packaged sweep must equal that reference in every
bit of every cell, the dense (10001-point) oracle cross-checks 25 random
cells per figure to 1e-6, and the packaged sweep must reproduce the golden
bytes exactly.

Run from the repository root:  python3 tools/gen_goldens.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracle import oracle_possibility  # noqa: E402

from fuzzyspectrum import default_model, figure_preset, run_sweep  # noqa: E402
from fuzzyspectrum.sweep import SweepResult, format_surface_csv  # noqa: E402

import numpy as np  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "data" / "golden"


def oracle_surface(spec, model):
    axis1 = spec.axis1.samples()
    axis2 = spec.axis2.samples()
    fixed = dict(spec.fixed)
    names = [v.name for v in model.inputs]
    grid = np.empty((spec.axis1.steps, spec.axis2.steps))
    point = dict(fixed)
    for i, a in enumerate(axis1):
        point[spec.axis1.name] = float(a)
        for j, b in enumerate(axis2):
            point[spec.axis2.name] = float(b)
            x = [point[n] for n in names]
            grid[i, j] = oracle_possibility(model, x, n_grid=model.grid_points)
    return SweepResult(spec=spec, axis1_values=axis1, axis2_values=axis2, grid=grid)


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    model = default_model()
    dense_rng = np.random.default_rng(7)
    for fig in (7, 8, 9, 10, 11):
        spec = figure_preset(fig)
        reference = oracle_surface(spec, model)
        packaged = run_sweep(spec, model)
        differ = int(np.count_nonzero(reference.grid.view(np.int64) != packaged.grid.view(np.int64)))
        assert not differ, f"fig {fig}: {differ} cells differ from the exact reference"

        # dense-oracle spot checks on 25 random cells per figure
        names = [v.name for v in model.inputs]
        fixed = dict(spec.fixed)
        worst = 0.0
        for _ in range(25):
            i = int(dense_rng.integers(0, spec.axis1.steps))
            j = int(dense_rng.integers(0, spec.axis2.steps))
            point = dict(fixed)
            point[spec.axis1.name] = float(reference.axis1_values[i])
            point[spec.axis2.name] = float(reference.axis2_values[j])
            dense = oracle_possibility(model, [point[n] for n in names])
            worst = max(worst, abs(dense - packaged.grid[i, j]))
        assert worst < 1e-6, f"fig {fig}: dense-oracle gap {worst}"

        golden = format_surface_csv(reference)
        assert golden == format_surface_csv(packaged), f"fig {fig}: byte mismatch"
        path = GOLDEN_DIR / f"fig{fig:02d}.csv"
        path.write_text(golden, encoding="utf-8", newline="\n")
        print(f"fig {fig}: wrote {path.name} ({spec.axis1.steps}x{spec.axis2.steps}), "
              f"exact in every cell, dense gap {worst:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
