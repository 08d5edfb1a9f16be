"""Fuzzy spectrum-access decisions for cognitive radio.

A generic Mamdani inference engine plus the concrete four-input decision
model, batch arbitration, and decision-surface sweeps.
"""

from .engine import (
    FuzzyError,
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    InferenceTrace,
    InvalidInputError,
    ModelIntegrityError,
    NoRuleFiredError,
    Rule,
    aggregate,
    clamp_to_universe,
    defuzzify_centroid,
    fuzzify,
    gaussian_membership,
    infer,
)
from .model import (
    DEFAULT_ADMISSION_THRESHOLD,
    DEFAULT_GRID_POINTS,
    INPUT_ORDER,
    LEVEL_NAMES,
    RULE_TABLE,
    UNIVERSES,
    Candidate,
    CandidateBatch,
    DecisionResult,
    ModelValidationReport,
    crossover_sigma,
    decision_possibility,
    default_model,
    validate_model,
)
from .arbitration import (
    ArbitrationOutcome,
    DuplicateCandidateError,
    EmptyBatchError,
    admit,
    arbitrate,
    rank_candidates,
)
from .sweep import (
    FIGURE_PRESETS,
    PRESET_STEPS,
    SweepAxis,
    SweepResult,
    SweepSpec,
    SweepSpecError,
    figure_preset,
    format_surface_csv,
    run_sweep,
)
from .serialization import (
    CANDIDATE_HEADER,
    SCHEMA_VERSION,
    CandidatesCsvError,
    ModelDocument,
    ModelDocumentError,
    default_document,
    format_rules_csv,
    format_rules_table,
    load_document,
    parse_document,
    read_candidates_csv,
    save_document,
    serialize_document,
)

__version__ = "0.1.0"
