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
from functools import cache

import numpy as np

from .engine import (
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    InferenceTrace,
    Rule,
    _infer_rows,
    infer,
)

__all__ = [
    "LEVEL_NAMES",
    "INPUT_ORDER",
    "UNIVERSES",
    "RULE_TABLE",
    "DEFAULT_ADMISSION_THRESHOLD",
    "Candidate",
    "CandidateBatch",
    "DecisionResult",
    "ModelValidationReport",
    "crossover_sigma",
    "default_model",
    "decision_possibility",
    "validate_model",
]

# Missing antecedent combinations validate_model names one by one; it counts
# the rest, whose number grows with the product of the input term counts.
_MISSING_NAMED = 100

LEVEL_NAMES = ("Low", "Medium", "High")
_LEVEL_INDEX = {"L": 0, "M": 1, "H": 2}

INPUT_ORDER = ("signal_dbm", "velocity_kmh", "spectrum_ratio", "distance_m")

# Universe bounds chosen so each variable's Medium center sits at the
# operating point used throughout the reference surfaces (-60 dBm, 50 km/h,
# ratio 0.5, 50 m).
UNIVERSES = {
    "signal_dbm": (-100.0, -20.0),
    "velocity_kmh": (0.0, 100.0),
    "spectrum_ratio": (0.0, 1.0),
    "distance_m": (0.0, 100.0),
    "decision": (0.0, 1.0),
}

DEFAULT_ADMISSION_THRESHOLD = 0.5

# The 81-row rule base.  Each entry is (antecedent levels, decision level)
# using L/M/H for Low/Medium/High; antecedents are in INPUT_ORDER
# (signal, velocity, spectrum ratio, distance).  Row number = index + 1.
RULE_TABLE = (
    ("LLLL", "H"),
    ("LLLM", "H"),
    ("LLLH", "M"),
    ("LLML", "H"),
    ("LLMM", "H"),
    ("LLMH", "M"),
    ("LLHL", "M"),
    ("LLHM", "M"),
    ("LLHH", "L"),
    ("LMLL", "H"),
    ("LMLM", "H"),
    ("LMLH", "L"),
    ("LMML", "H"),
    ("LMMM", "H"),
    ("LMMH", "M"),
    ("LMHL", "M"),
    ("LMHM", "L"),
    ("LMHH", "L"),
    ("LHLL", "H"),
    ("LHLM", "H"),
    ("LHLH", "H"),
    ("LHML", "H"),
    ("LHMM", "H"),
    ("LHMH", "H"),
    ("LHHL", "H"),
    ("LHHM", "M"),
    ("LHHH", "M"),
    ("MLLL", "H"),
    ("MLLM", "M"),
    ("MLLH", "M"),
    ("MLML", "M"),
    ("MLMM", "M"),
    ("MLMH", "M"),
    ("MLHL", "M"),
    ("MLHM", "M"),
    ("MLHH", "M"),
    ("MMLL", "M"),
    ("MMLM", "M"),
    ("MMLH", "M"),
    ("MMML", "M"),
    ("MMMM", "M"),
    ("MMMH", "M"),
    ("MMHL", "M"),
    ("MMHM", "M"),
    ("MMHH", "M"),
    ("MHLL", "H"),
    ("MHLM", "H"),
    ("MHLH", "M"),
    ("MHML", "H"),
    ("MHMM", "H"),
    ("MHMH", "M"),
    ("MHHL", "M"),
    ("MHHM", "M"),
    ("MHHH", "M"),
    ("HLLL", "L"),
    ("HLLM", "L"),
    ("HLLH", "L"),
    ("HLML", "L"),
    ("HLMM", "L"),
    ("HLMH", "L"),
    ("HLHL", "L"),
    ("HLHM", "L"),
    ("HLHH", "L"),
    ("HMLL", "L"),
    ("HMLM", "L"),
    ("HMLH", "L"),
    ("HMML", "L"),
    ("HMMM", "L"),
    ("HMMH", "L"),
    ("HMHL", "L"),
    ("HMHM", "L"),
    ("HMHH", "L"),
    ("HHLL", "L"),
    ("HHLM", "L"),
    ("HHLH", "L"),
    ("HHML", "L"),
    ("HHMM", "L"),
    ("HHMH", "L"),
    ("HHHL", "L"),
    ("HHHM", "L"),
    ("HHHH", "L"),
)


def check_threshold(threshold: float, name: str = "threshold", error=ValueError) -> float:
    """threshold as a float; raises error(message) naming it unless it lies in [0, 1]."""
    t = float(threshold)
    if not (0.0 <= t <= 1.0):
        raise error(f"{name} must be in [0, 1], got {threshold}")
    return t


def crossover_sigma(spacing: float) -> float:
    """Sigma making two Gaussians `spacing` apart cross at membership 0.5."""
    return spacing / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def _three_level_variable(name: str, lo: float, hi: float) -> FuzzyVariable:
    mid = (lo + hi) / 2.0
    sigma = crossover_sigma((hi - lo) / 2.0)
    terms = tuple(
        GaussianTerm(level, center, sigma)
        for level, center in zip(LEVEL_NAMES, (lo, mid, hi))
    )
    return FuzzyVariable(name, lo, hi, terms)


@cache
def default_model() -> FuzzyModel:
    """The shipped model: four inputs, decision output, all 81 rules at weight 1."""
    inputs = tuple(_three_level_variable(n, *UNIVERSES[n]) for n in INPUT_ORDER)
    output = _three_level_variable("decision", *UNIVERSES["decision"])
    rules = tuple(
        Rule(
            antecedents=tuple(_LEVEL_INDEX[ch] for ch in antecedents),
            consequent=_LEVEL_INDEX[consequent],
            weight=1.0,
        )
        for antecedents, consequent in RULE_TABLE
    )
    return FuzzyModel(inputs=inputs, output=output, rules=rules)


def _quoted_id(cid: str) -> str:
    # an id as messages name it: quoted, or as its repr if a character in it
    # is not printable, so that a line break cannot split the message
    return f"'{cid}'" if cid.isprintable() else repr(cid)


@dataclass(frozen=True)
class Candidate:
    """One secondary user's measured inputs plus an identifier."""

    id: str
    signal_dbm: float
    velocity_kmh: float
    spectrum_ratio: float
    distance_m: float

    def __post_init__(self):
        if not self.id:
            raise ValueError("candidate id must be non-empty")
        for field in ("signal_dbm", "velocity_kmh", "spectrum_ratio", "distance_m"):
            value = float(getattr(self, field))
            object.__setattr__(self, field, value)
            if not math.isfinite(value):
                raise ValueError(f"candidate {_quoted_id(self.id)}: {field} must be finite")
        for field in ("spectrum_ratio", "velocity_kmh", "distance_m"):
            if getattr(self, field) < 0:
                raise ValueError(f"candidate {_quoted_id(self.id)}: {field} must be >= 0")

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
        values = np.array(self.values, dtype=float).reshape(len(self.ids), len(INPUT_ORDER))
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        row = _first_invalid_row(self.ids, values)
        if row is not None:
            self[row]  # the row's Candidate raises its ValueError

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Candidate:
        return Candidate(self.ids[i], *self.values[i].tolist())


def _first_invalid_row(ids: tuple[str, ...], values: np.ndarray) -> int | None:
    """Index of the first row a Candidate would reject, if any."""
    # every input after signal_dbm must be >= 0
    bad = ~np.isfinite(values).all(axis=1) | (values[:, 1:] < 0.0).any(axis=1)
    bad[[i for i, cid in enumerate(ids) if not cid]] = True
    return int(bad.argmax()) if bad.any() else None


@dataclass(frozen=True)
class DecisionResult:
    """Crisp access possibility for one candidate, with the admission verdict."""

    candidate_id: str
    possibility: float
    admitted: bool
    trace: InferenceTrace | None = None


def decision_possibility(
    candidate: Candidate,
    model: FuzzyModel | None = None,
    threshold: float = DEFAULT_ADMISSION_THRESHOLD,
    with_trace: bool = False,
) -> DecisionResult:
    """Evaluate one candidate through the model.

    Deterministic: identical candidate fields and model give bit-identical
    results.  Inputs outside a variable's universe are clamped to its bounds.
    The InferenceTrace is built only when with_trace is true; without it the
    candidate is scored as a one-row batch, to the same bits.
    """
    if model is None:
        model = default_model()
    threshold = check_threshold(threshold)
    trace = infer(model, candidate.inputs()) if with_trace else None
    possibility = trace.crisp_output if with_trace else float(_infer_rows(model, [candidate.inputs()])[0])
    return DecisionResult(
        candidate_id=candidate.id,
        possibility=possibility,
        admitted=possibility >= threshold,
        trace=trace,
    )


@dataclass(frozen=True)
class ModelValidationReport:
    """Outcome of validate_model; empty failures means the model conforms."""

    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_model(model: FuzzyModel) -> ModelValidationReport:
    """Check a model against the shipped rule-base contract.

    Verifies: rule count equals the product of input term counts, every
    antecedent combination appears exactly once, and all weights are 1.
    Universes and term order need no check here: FuzzyVariable rejects a
    degenerate universe and centers that are not strictly increasing.
    """
    sizes = [len(var.terms) for var in model.inputs]
    expected = math.prod(sizes)
    c = model._compiled
    # complete: every weight 1 and each mixed-radix antecedent code once;
    # counted only when the rule count matches, so the counts stay small
    if (
        len(model.rules) == expected
        and (c.weights == 1.0).all()
        and (np.bincount(np.ravel_multi_index(c.table[:, :-1].T, sizes), minlength=expected) == 1).all()
    ):
        return ModelValidationReport(failures=())

    # otherwise one walk over the rules names every failure
    failures: list[str] = []
    if len(model.rules) != expected:
        failures.append(f"rule count {len(model.rules)} != expected {expected}")

    seen: dict[tuple[int, ...], int] = {}
    for r, rule in enumerate(model.rules):
        prior = seen.get(rule.antecedents)
        if prior is not None:
            failures.append(
                f"rule {r + 1}: duplicate antecedent combination "
                f"{_combo_names(model, rule.antecedents)} (first at rule {prior + 1})"
            )
        else:
            seen[rule.antecedents] = r
        if rule.weight != 1.0:
            failures.append(f"rule {r + 1}: weight {rule.weight} deviates from 1")

    # the first few missing combinations are named and the rest counted, so
    # the walk takes at most len(rules) + _MISSING_NAMED steps
    combos = itertools.product(*(range(len(v.terms)) for v in model.inputs))
    missing = expected - len(seen)
    named = min(missing, _MISSING_NAMED)
    for combo in itertools.islice((combo for combo in combos if combo not in seen), named):
        failures.append(f"missing antecedent combination {_combo_names(model, combo)}")
    if missing > named:
        failures.append(f"… and {missing - named} more missing antecedent combinations")

    return ModelValidationReport(failures=tuple(failures))


def _combo_names(model: FuzzyModel, combo: tuple[int, ...]) -> str:
    return f"({', '.join(model.term_names(combo))})"
