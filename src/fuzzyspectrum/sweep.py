"""Decision surfaces: sweep two inputs while holding the other two fixed.

Presets 7 through 11 reproduce the reference surface configurations, each
fixing two mid-range values and sweeping the remaining two variables over
their full universes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .engine import FuzzyError, FuzzyModel, _infer_rows
from .engine import infer  # noqa: F401  (unused; kept for perfbench/tracing.py)
from .model import UNIVERSES, default_model

__all__ = [
    "SweepSpecError",
    "SweepAxis",
    "SweepSpec",
    "SweepResult",
    "PRESET_STEPS",
    "FIGURE_PRESETS",
    "figure_preset",
    "run_sweep",
    "format_surface_csv",
]


class SweepSpecError(FuzzyError):
    """A sweep specification does not fit the model."""


PRESET_STEPS = 41

# Most samples per axis, so an accepted sweep stays small in memory and time.
MAX_STEPS = 1001

# preset id -> (swept variables in model input order, fixed values)
FIGURE_PRESETS: dict[int, tuple[tuple[str, str], dict[str, float]]] = {
    7: (("signal_dbm", "distance_m"), {"velocity_kmh": 50.0, "spectrum_ratio": 0.5}),
    8: (("velocity_kmh", "spectrum_ratio"), {"distance_m": 50.0, "signal_dbm": -60.0}),
    9: (("signal_dbm", "spectrum_ratio"), {"distance_m": 50.0, "velocity_kmh": 50.0}),
    10: (("velocity_kmh", "distance_m"), {"spectrum_ratio": 0.5, "signal_dbm": -60.0}),
    11: (("signal_dbm", "velocity_kmh"), {"distance_m": 50.0, "spectrum_ratio": 0.5}),
}


@dataclass(frozen=True)
class SweepAxis:
    """One swept variable: name, range, and number of samples (inclusive)."""

    name: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "steps", int(self.steps))
        if not (2 <= self.steps <= MAX_STEPS):
            raise SweepSpecError(
                f"axis '{self.name}': steps must be in [2, {MAX_STEPS}], got {self.steps}"
            )
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise SweepSpecError(f"axis '{self.name}': range [{self.lo}, {self.hi}] must be finite")
        if self.lo > self.hi:
            raise SweepSpecError(f"axis '{self.name}': lo {self.lo} > hi {self.hi}")

    def samples(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    """Two swept axes plus fixed values for the remaining input variables."""

    axis1: SweepAxis
    axis2: SweepAxis
    fixed: tuple[tuple[str, float], ...]

    def __post_init__(self):
        items = self.fixed.items() if isinstance(self.fixed, Mapping) else self.fixed
        fixed = tuple(sorted((str(k), float(v)) for k, v in items))
        object.__setattr__(self, "fixed", fixed)
        for name, value in fixed:
            if not math.isfinite(value):
                raise SweepSpecError(f"fixed value {value} for '{name}' must be finite")
        if self.axis1.name == self.axis2.name:
            raise SweepSpecError(f"axes must name distinct variables, both are '{self.axis1.name}'")
        names = [k for k, _ in self.fixed]
        if len(set(names)) != len(names):
            raise SweepSpecError("fixed values name a variable twice")
        overlap = set(names) & {self.axis1.name, self.axis2.name}
        if overlap:
            raise SweepSpecError(f"variable '{overlap.pop()}' is both swept and fixed")

    def fixed_dict(self) -> dict[str, float]:
        return dict(self.fixed)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Evaluated surface: grid[i, j] is the possibility at
    (axis1 sample i, axis2 sample j)."""

    spec: SweepSpec
    axis1_values: np.ndarray
    axis2_values: np.ndarray
    grid: np.ndarray


def figure_preset(fig: int, steps: int = PRESET_STEPS) -> SweepSpec:
    """The sweep specification behind reference surface 7, 8, 9, 10 or 11."""
    if fig not in FIGURE_PRESETS:
        raise SweepSpecError(f"unknown figure preset {fig}; expected one of 7..11")
    (name1, name2), fixed = FIGURE_PRESETS[fig]
    lo1, hi1 = UNIVERSES[name1]
    lo2, hi2 = UNIVERSES[name2]
    return SweepSpec(
        axis1=SweepAxis(name1, lo1, hi1, steps),
        axis2=SweepAxis(name2, lo2, hi2, steps),
        fixed=fixed,
    )


def _validate_against_model(spec: SweepSpec, model: FuzzyModel) -> None:
    by_name = {v.name: v for v in model.inputs}
    for axis in (spec.axis1, spec.axis2):
        var = by_name.get(axis.name)
        if var is None:
            raise SweepSpecError(f"unknown variable '{axis.name}'")
        if axis.lo < var.lo or axis.hi > var.hi:
            raise SweepSpecError(
                f"axis '{axis.name}' range [{axis.lo}, {axis.hi}] outside "
                f"universe [{var.lo}, {var.hi}]"
            )
    fixed = spec.fixed_dict()
    expected = set(by_name) - {spec.axis1.name, spec.axis2.name}
    if set(fixed) != expected:
        missing = expected - set(fixed)
        extra = set(fixed) - expected
        parts = []
        if missing:
            parts.append(f"missing fixed values for {sorted(missing)}")
        if extra:
            parts.append(f"unexpected fixed values for {sorted(extra)}")
        raise SweepSpecError("; ".join(parts))
    for name, value in fixed.items():
        var = by_name[name]
        if value < var.lo or value > var.hi:
            raise SweepSpecError(
                f"fixed value {value} for '{name}' outside universe [{var.lo}, {var.hi}]"
            )


def run_sweep(spec: SweepSpec, model: FuzzyModel | None = None) -> SweepResult:
    """Evaluate the surface as one batch over the grid of axis samples.

    Each cell is exactly the single-point evaluation of the same 4-vector;
    sweeps must stay inside the universes (no clamping), so out-of-range
    axes or fixed values raise SweepSpecError.
    """
    if model is None:
        model = default_model()
    _validate_against_model(spec, model)
    axis1_values = spec.axis1.samples()
    axis2_values = spec.axis2.samples()
    a, b = np.meshgrid(axis1_values, axis2_values, indexing="ij")
    columns = {**spec.fixed_dict(), spec.axis1.name: a, spec.axis2.name: b}
    rows = np.column_stack(
        [np.broadcast_to(columns[v.name], a.shape).ravel() for v in model.inputs]
    )
    grid = _infer_rows(model, rows).reshape(a.shape)
    return SweepResult(spec=spec, axis1_values=axis1_values, axis2_values=axis2_values, grid=grid)


def format_surface_csv(result: SweepResult) -> str:
    """Surface CSV: empty corner cell, axis2 samples across the first row,
    axis1 samples down the first column, possibilities in the body.  All
    numbers are fixed-point with six fractional digits."""
    # one %-template per line: the same text as one f-string per number, faster
    cells = ",".join(["%.6f"] * len(result.axis2_values))
    row = "%.6f," + cells + "\n"
    lines = [("," + cells + "\n") % tuple(result.axis2_values.tolist())]
    lines += [row % (a, *values) for a, values in zip(result.axis1_values.tolist(), result.grid.tolist())]
    return "".join(lines)
