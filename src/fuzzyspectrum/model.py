"""Spectrum-access decision model for contending secondary radio users.

Four measured inputs (received signal strength, user velocity, required-to-
available spectrum ratio, distance to the primary user) feed a three-term
Gaussian rule base of 81 rules; the crisp output is an access possibility
in [0, 1].
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .engine import FuzzyModel, InvalidInputError, _as_float, _as_float_array, _infer_row, _quoted, _shown_name, check_threshold
from .engine import infer  # noqa: F401  (unused; kept for perfbench/tracing.py)

__all__ = [
    "INPUT_ORDER",
    "UNIVERSES",
    "DEFAULT_ADMISSION_THRESHOLD",
    "Candidate",
    "CandidateBatch",
    "DecisionResult",
    "ModelValidationReport",
    "default_model",
    "decision_possibility",
    "validate_model",
]

# Missing antecedent combinations validate_model names one by one; it counts
# the rest, whose number grows with the product of the input term counts.
_MISSING_NAMED = 100

INPUT_ORDER = ("signal_dbm", "velocity_kmh", "spectrum_ratio", "distance_m")

# The candidate fields that must be >= 0, in the order Candidate checks them.
_NON_NEGATIVE = ("spectrum_ratio", "velocity_kmh", "distance_m")

# The shipped model's universes, chosen so each variable's Medium center
# sits at the operating point used throughout the reference surfaces
# (-60 dBm, 50 km/h, ratio 0.5, 50 m).
UNIVERSES = {
    "signal_dbm": (-100.0, -20.0),
    "velocity_kmh": (0.0, 100.0),
    "spectrum_ratio": (0.0, 1.0),
    "distance_m": (0.0, 100.0),
    "decision": (0.0, 1.0),
}

DEFAULT_ADMISSION_THRESHOLD = 0.5


def default_model() -> FuzzyModel:
    """The shipped model, read once from data/default_model.json: four
    inputs, decision output, all 81 rules at weight 1."""
    from .serialization import default_document  # serialization imports this module

    return default_document().model


@dataclass(frozen=True)
class Candidate:
    """One secondary user's measured inputs plus an identifier."""

    id: str
    signal_dbm: float
    velocity_kmh: float
    spectrum_ratio: float
    distance_m: float

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise InvalidInputError(f"candidate id must be a string, got {type(self.id).__name__}")
        if not self.id:
            raise InvalidInputError("candidate id must be non-empty")
        try:
            values = [float(getattr(self, field)) for field in INPUT_ORDER]
        except (TypeError, ValueError, OverflowError):  # walked for the first field float() rejects
            values = [_as_float(getattr(self, field), f"candidate {_quoted(self.id)}: {field}") for field in INPUT_ORDER]
        for field, value in zip(INPUT_ORDER, values):
            object.__setattr__(self, field, value)
            if not math.isfinite(value):
                raise InvalidInputError(f"candidate {_quoted(self.id)}: {field} must be finite")
        for field in _NON_NEGATIVE:
            if getattr(self, field) < 0:
                raise InvalidInputError(f"candidate {_quoted(self.id)}: {field} must be >= 0")

    def inputs(self) -> tuple[float, float, float, float]:
        """Input vector in model input order."""
        return (self.signal_dbm, self.velocity_kmh, self.spectrum_ratio, self.distance_m)


@dataclass(frozen=True, eq=False)
class CandidateBatch(Sequence):
    """Candidates as columns: ids and a read-only (N, 4) float array of their
    measurements in INPUT_ORDER.  Indexing builds a row's Candidate."""

    ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        try:
            values = _as_float_array(self.values).reshape(len(self.ids), len(INPUT_ORDER))
        except (TypeError, ValueError):  # numpy's float conversion, or a size other than 4 per id
            raise InvalidInputError(f"values must hold {len(INPUT_ORDER)} numbers per id, {len(INPUT_ORDER) * len(self.ids)} in all") from None
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        row = _first_invalid_row(self.ids, values)
        if row is not None:
            self[row]  # the row's Candidate raises its InvalidInputError

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Candidate:
        return Candidate(self.ids[i], *self.values[i].tolist())


def _first_invalid_row(ids: tuple[str, ...], values: np.ndarray) -> int | None:
    """Index of the first row a Candidate would reject, if any."""
    non_negative = values[:, [INPUT_ORDER.index(field) for field in _NON_NEGATIVE]]
    bad = ~np.isfinite(values).all(axis=1) | (non_negative < 0.0).any(axis=1)
    bad[[i for i, cid in enumerate(ids) if not isinstance(cid, str) or not cid]] = True
    return int(bad.argmax()) if bad.any() else None


@dataclass(frozen=True)
class DecisionResult:
    """Crisp access possibility for one candidate, with the admission verdict."""

    candidate_id: str
    possibility: float
    admitted: bool


def decision_possibility(
    candidate: Candidate,
    model: FuzzyModel | None = None,
    threshold: float = DEFAULT_ADMISSION_THRESHOLD,
) -> DecisionResult:
    """Evaluate one candidate through the model, its fields feeding the
    model's inputs by position, in INPUT_ORDER, whatever the inputs are named
    (the CLI rejects a model whose inputs differ; the library does not).
    Identical fields and model give bit-identical results; inputs outside a
    variable's universe are clamped to its bounds.  The same decision's
    InferenceTrace, whose crisp_output is this possibility bit for bit, is
    infer(model, candidate.inputs()).
    """
    if model is None:
        model = default_model()
    threshold = check_threshold(threshold)
    possibility = _infer_row(model, candidate.inputs())
    return DecisionResult(candidate.id, possibility, possibility >= threshold)


@dataclass(frozen=True)
class ModelValidationReport:
    """Outcome of validate_model; empty failures means the model conforms."""

    failures: tuple[str, ...]


def validate_model(model: FuzzyModel) -> ModelValidationReport:
    """Check a model against the shipped rule-base contract.

    Verifies: rule count equals the product of input term counts, every
    antecedent combination appears exactly once, and all weights are 1.
    Universes and term order need no check here: FuzzyVariable rejects a
    degenerate universe and centers that are not strictly increasing.
    """
    antecedents, _, weights = tuple(zip(*model.rules)) or ((), (), ())
    expected = math.prod(len(var.terms) for var in model.inputs)
    failures: list[str] = []
    if len(weights) != expected:
        failures.append(f"rule count {len(weights)} != expected {expected}")

    # the rules are walked only to name their duplicates and weights other
    # than 1, in rule order; first maps each combination to its first rule
    present = set(antecedents)
    if len(present) < len(antecedents) or weights.count(1.0) < len(weights):
        first: dict[tuple[int, ...], int] = {}
        for r, (combo, weight) in enumerate(zip(antecedents, weights)):
            prior = first.setdefault(combo, r)
            if prior != r:
                failures.append(
                    f"rule {r + 1}: duplicate antecedent combination "
                    f"{_combo_names(model, combo)} (first at rule {prior + 1})"
                )
            if weight != 1.0:
                failures.append(f"rule {r + 1}: weight {weight} deviates from 1")

    # the first few missing combinations are named and the rest counted, so
    # the walk takes at most len(rules) + _MISSING_NAMED steps
    missing = expected - len(present)
    if missing:
        combos = itertools.product(*(range(len(v.terms)) for v in model.inputs))
        named = min(missing, _MISSING_NAMED)
        for combo in itertools.islice((combo for combo in combos if combo not in present), named):
            failures.append(f"missing antecedent combination {_combo_names(model, combo)}")
        if missing > named:
            failures.append(f"… and {missing - named} more missing antecedent combinations")

    return ModelValidationReport(failures=tuple(failures))


def _combo_names(model: FuzzyModel, combo: tuple[int, ...]) -> str:
    return f"({', '.join(map(_shown_name, model.term_names(combo)))})"
