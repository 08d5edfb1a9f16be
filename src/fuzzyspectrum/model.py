"""Spectrum-access decision model for contending secondary radio users.

Four measured inputs (received signal strength, user velocity, required-to-
available spectrum ratio, distance to the primary user) feed a three-term
Gaussian rule base of 81 rules; the crisp output is an access possibility
in [0, 1].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .engine import (
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    InferenceTrace,
    Rule,
    infer,
)

__all__ = [
    "LEVEL_NAMES",
    "INPUT_ORDER",
    "UNIVERSES",
    "RULE_TABLE",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_ADMISSION_THRESHOLD",
    "check_threshold",
    "Candidate",
    "DecisionResult",
    "ModelValidationReport",
    "crossover_sigma",
    "default_model",
    "decision_possibility",
    "validate_model",
]

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

DEFAULT_GRID_POINTS = 1001
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


@lru_cache(maxsize=8)
def default_model(grid_points: int = DEFAULT_GRID_POINTS) -> FuzzyModel:
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
    return FuzzyModel(inputs=inputs, output=output, rules=rules, grid_points=grid_points)


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
                raise ValueError(f"candidate '{self.id}': {field} must be finite")
        if self.spectrum_ratio < 0:
            raise ValueError(f"candidate '{self.id}': spectrum_ratio must be >= 0")
        if self.velocity_kmh < 0:
            raise ValueError(f"candidate '{self.id}': velocity_kmh must be >= 0")
        if self.distance_m < 0:
            raise ValueError(f"candidate '{self.id}': distance_m must be >= 0")

    def inputs(self) -> tuple[float, float, float, float]:
        """Input vector in model input order."""
        return (self.signal_dbm, self.velocity_kmh, self.spectrum_ratio, self.distance_m)


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
    """
    if model is None:
        model = default_model()
    threshold = check_threshold(threshold)
    trace = infer(model, candidate.inputs())
    possibility = trace.crisp_output
    return DecisionResult(
        candidate_id=candidate.id,
        possibility=possibility,
        admitted=possibility >= threshold,
        trace=trace if with_trace else None,
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
    failures: list[str] = []

    expected = 1
    for var in model.inputs:
        expected *= len(var.terms)
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

    for combo in itertools.product(*(range(len(v.terms)) for v in model.inputs)):
        if combo not in seen:
            failures.append(f"missing antecedent combination {_combo_names(model, combo)}")

    return ModelValidationReport(failures=tuple(failures))


def _combo_names(model: FuzzyModel, combo: tuple[int, ...]) -> str:
    names = ", ".join(model.inputs[v].terms[idx].name for v, idx in enumerate(combo))
    return f"({names})"
