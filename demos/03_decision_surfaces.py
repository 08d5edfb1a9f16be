"""Generate the five reference decision surfaces as plot-ready CSV files.

Each preset fixes two inputs at their mid-range operating values and sweeps
the other two across their full universes on a 41x41 grid.  The CSV layout
(axis samples in the first row and column) loads directly into pandas,
gnuplot, or a spreadsheet.
"""

from pathlib import Path

import numpy as np

from fuzzyspectrum import figure_preset, run_sweep
from fuzzyspectrum.sweep import format_surface_csv

out_dir = Path("surfaces")
out_dir.mkdir(exist_ok=True)

for fig in (7, 8, 9, 10, 11):
    spec = figure_preset(fig)
    result = run_sweep(spec)
    fixed = ", ".join(f"{k}={v:g}" for k, v in spec.fixed)
    path = out_dir / f"surface_fig{fig:02d}.csv"
    path.write_text(format_surface_csv(result), encoding="utf-8", newline="\n")
    print(
        f"preset {fig:2d}: {spec.axis1.name} x {spec.axis2.name}  ({fixed})\n"
        f"           possibility range [{result.grid.min():.3f}, {result.grid.max():.3f}]"
        f" -> {path}"
    )

# A quick textual look at preset 7: weak primary signal and short distance
# are the friendly corner; strong signal kills the chance regardless.
result = run_sweep(figure_preset(7))
print()
print("preset 7 slices (rows = signal dBm, columns = distance m):")
signal_rows = (-100.0, -60.0, -20.0)
distance_cols = (0.0, 50.0, 100.0)
header = "".join(f"{d:>10.0f}" for d in distance_cols)
print(f"{'':>8}{header}")
for s in signal_rows:
    i = list(result.axis1_values).index(s)
    cells = "".join(
        f"{result.grid[i, list(result.axis2_values).index(d)]:>10.4f}" for d in distance_cols
    )
    print(f"{s:>8.0f}{cells}")

# The emitted CSVs are plot-ready; render one surface if matplotlib is around.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the rendered example")
else:
    x, y = np.meshgrid(result.axis2_values, result.axis1_values)
    fig_, ax = plt.subplots(subplot_kw={"projection": "3d"}, figsize=(7, 5))
    ax.plot_surface(x, y, result.grid, cmap="viridis")
    ax.set_xlabel("distance (m)")
    ax.set_ylabel("signal (dBm)")
    ax.set_zlabel("possibility")
    fig_.savefig(out_dir / "surface_fig07.png", dpi=120)
    print(f"\nrendered {out_dir / 'surface_fig07.png'}")
