"""File formats: model documents (JSON) and candidate batches (CSV).

The model document externalizes the whole model, rule base included, so
alternative rule tables can be tried without touching code.  Parsing is
strict: unknown fields are rejected by name, and serialize(parse(text))
reproduces the original bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

from .engine import (
    FuzzyError,
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    ModelIntegrityError,
    Rule,
)
from .model import DEFAULT_ADMISSION_THRESHOLD, Candidate, check_threshold, default_model

__all__ = [
    "SCHEMA_VERSION",
    "CANDIDATE_HEADER",
    "ModelDocumentError",
    "CandidatesCsvError",
    "ModelDocument",
    "default_document",
    "serialize_document",
    "parse_document",
    "load_document",
    "save_document",
    "read_candidates_csv",
    "format_rules_table",
    "format_rules_csv",
    "rules_from_csv",
]

SCHEMA_VERSION = 1

CANDIDATE_HEADER = ("id", "signal_dbm", "velocity_kmh", "spectrum_ratio", "distance_m")


class ModelDocumentError(FuzzyError):
    """A model document could not be parsed or failed validation."""


class CandidatesCsvError(FuzzyError):
    """A candidates CSV file is malformed."""


@dataclass(frozen=True)
class ModelDocument:
    """A model plus the settings that travel with it."""

    model: FuzzyModel
    admission_threshold: float = DEFAULT_ADMISSION_THRESHOLD
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        check_threshold(self.admission_threshold, "admission_threshold", ModelDocumentError)


def default_document() -> ModelDocument:
    return ModelDocument(model=default_model())


def _variable_to_dict(var: FuzzyVariable) -> dict:
    return {
        "name": var.name,
        "lo": var.lo,
        "hi": var.hi,
        "terms": [
            {"name": t.name, "center": t.center, "sigma": t.sigma} for t in var.terms
        ],
    }


def document_to_dict(doc: ModelDocument) -> dict:
    model = doc.model
    return {
        "schema_version": doc.schema_version,
        "variables": {
            "inputs": [_variable_to_dict(v) for v in model.inputs],
            "output": _variable_to_dict(model.output),
        },
        "rules": [
            {
                "antecedents": [
                    model.inputs[v].terms[idx].name
                    for v, idx in enumerate(rule.antecedents)
                ],
                "consequent": model.output.terms[rule.consequent].name,
                "weight": rule.weight,
            }
            for rule in model.rules
        ],
        "settings": {
            "grid_points": model.grid_points,
            "admission_threshold": doc.admission_threshold,
        },
    }


def serialize_document(doc: ModelDocument) -> str:
    """Stable JSON text: fixed key order, two-space indent, trailing newline."""
    return json.dumps(document_to_dict(doc), indent=2) + "\n"


def _require_keys(obj, allowed: Sequence[str], required: Sequence[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ModelDocumentError(f"{where} must be an object")
    for key in obj:
        if key not in allowed:
            raise ModelDocumentError(f"unknown field '{key}' in {where}")
    for key in required:
        if key not in obj:
            raise ModelDocumentError(f"missing field '{key}' in {where}")


def _number(obj, key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelDocumentError(f"field '{key}' in {where} must be a number")
    return float(value)


def _parse_variable(obj, where: str) -> FuzzyVariable:
    _require_keys(obj, ("name", "lo", "hi", "terms"), ("name", "lo", "hi", "terms"), where)
    terms = []
    if not isinstance(obj["terms"], list) or not obj["terms"]:
        raise ModelDocumentError(f"field 'terms' in {where} must be a non-empty list")
    for i, t in enumerate(obj["terms"]):
        t_where = f"{where}, term {i + 1}"
        _require_keys(t, ("name", "center", "sigma"), ("name", "center", "sigma"), t_where)
        terms.append(
            GaussianTerm(
                name=str(t["name"]),
                center=_number(t, "center", t_where),
                sigma=_number(t, "sigma", t_where),
            )
        )
    return FuzzyVariable(
        name=str(obj["name"]),
        lo=_number(obj, "lo", where),
        hi=_number(obj, "hi", where),
        terms=tuple(terms),
    )


def parse_document(text: str) -> ModelDocument:
    """Parse and validate a model document; raises ModelDocumentError with
    the first offending location on any problem."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelDocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc

    try:
        if not isinstance(raw, dict):
            raise ModelDocumentError("document must be a JSON object")
        if "schema_version" not in raw:
            raise ModelDocumentError("missing field 'schema_version' in document")
        version = raw["schema_version"]
        if version != SCHEMA_VERSION:
            raise ModelDocumentError(
                f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}"
            )
        _require_keys(
            raw,
            ("schema_version", "variables", "rules", "settings"),
            ("schema_version", "variables", "rules", "settings"),
            "document",
        )

        variables = raw["variables"]
        _require_keys(variables, ("inputs", "output"), ("inputs", "output"), "variables")
        if not isinstance(variables["inputs"], list) or not variables["inputs"]:
            raise ModelDocumentError("field 'inputs' in variables must be a non-empty list")
        inputs = tuple(
            _parse_variable(v, f"input variable {i + 1}")
            for i, v in enumerate(variables["inputs"])
        )
        output = _parse_variable(variables["output"], "output variable")

        if not isinstance(raw["rules"], list):
            raise ModelDocumentError("field 'rules' in document must be a list")
        rules = []
        for i, r in enumerate(raw["rules"]):
            r_where = f"rule {i + 1}"
            _require_keys(
                r, ("antecedents", "consequent", "weight"), ("antecedents", "consequent"), r_where
            )
            names = r["antecedents"]
            if not isinstance(names, list) or len(names) != len(inputs):
                raise ModelDocumentError(
                    f"{r_where}: expected {len(inputs)} antecedent names"
                )
            antecedents = tuple(
                inputs[v].term_index(str(name)) for v, name in enumerate(names)
            )
            consequent = output.term_index(str(r["consequent"]))
            weight = _number(r, "weight", r_where) if "weight" in r else 1.0
            rules.append(Rule(antecedents=antecedents, consequent=consequent, weight=weight))

        settings = raw["settings"]
        _require_keys(
            settings,
            ("grid_points", "admission_threshold"),
            ("grid_points", "admission_threshold"),
            "settings",
        )
        grid_points = settings["grid_points"]
        if isinstance(grid_points, bool) or not isinstance(grid_points, int):
            raise ModelDocumentError("field 'grid_points' in settings must be an integer")
        threshold = _number(settings, "admission_threshold", "settings")

        model = FuzzyModel(
            inputs=inputs, output=output, rules=tuple(rules), grid_points=grid_points
        )
        return ModelDocument(
            model=model, admission_threshold=threshold, schema_version=SCHEMA_VERSION
        )
    except ModelDocumentError:
        raise
    except (ValueError, ModelIntegrityError) as exc:
        raise ModelDocumentError(str(exc)) from exc


def load_document(path) -> ModelDocument:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelDocumentError(f"cannot read model document '{path}': {exc}") from exc
    return parse_document(text)


def save_document(doc: ModelDocument, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_document(doc))


def read_candidates_csv(path) -> list[Candidate]:
    """Load a candidate batch; the header must match CANDIDATE_HEADER exactly."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CandidatesCsvError(f"cannot read candidates CSV '{path}': {exc}") from exc

    if not rows:
        raise CandidatesCsvError(
            f"empty file; expected header {','.join(CANDIDATE_HEADER)}"
        )
    header = tuple(rows[0])
    if header != CANDIDATE_HEADER:
        raise CandidatesCsvError(
            f"expected header {','.join(CANDIDATE_HEADER)}, got {','.join(header)}"
        )

    candidates = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(CANDIDATE_HEADER):
            raise CandidatesCsvError(
                f"line {lineno}: expected {len(CANDIDATE_HEADER)} fields, got {len(row)}"
            )
        cid = row[0]
        values = []
        for column, cell in zip(CANDIDATE_HEADER[1:], row[1:]):
            try:
                values.append(float(cell))
            except ValueError as exc:
                raise CandidatesCsvError(
                    f"line {lineno}: bad {column} value {cell!r}"
                ) from exc
        try:
            candidates.append(Candidate(cid, *values))
        except ValueError as exc:
            raise CandidatesCsvError(f"line {lineno}: {exc}") from exc
    return candidates


def format_rules_table(model: FuzzyModel) -> str:
    """Rules as numbered text lines, 1-based, in rule-base order."""
    lines = []
    for r, rule in enumerate(model.rules, start=1):
        antecedents = ", ".join(
            model.inputs[v].terms[idx].name for v, idx in enumerate(rule.antecedents)
        )
        consequent = model.output.terms[rule.consequent].name
        lines.append(f"{r}. {antecedents} -> {consequent}")
    return "\n".join(lines) + "\n"


def format_rules_csv(model: FuzzyModel) -> str:
    """Rules as CSV with a row column, antecedent/consequent term names,
    and the weight."""
    header = ["row", *(v.name for v in model.inputs), model.output.name, "weight"]
    lines = [",".join(header)]
    for r, rule in enumerate(model.rules, start=1):
        cells = [str(r)]
        cells += [model.inputs[v].terms[idx].name for v, idx in enumerate(rule.antecedents)]
        cells.append(model.output.terms[rule.consequent].name)
        cells.append(f"{rule.weight:.6f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rules_from_csv(text: str, inputs: Sequence[FuzzyVariable], output: FuzzyVariable) -> tuple[Rule, ...]:
    """Rebuild a rule base from format_rules_csv output, resolving term
    names against the given variables; any problem is a ModelDocumentError
    naming its line."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ModelDocumentError("empty rules CSV")
    expected_header = ["row", *(v.name for v in inputs), output.name, "weight"]
    if rows[0] != expected_header:
        raise ModelDocumentError(
            f"line 1: expected header {','.join(expected_header)}, got {','.join(rows[0])}"
        )
    rules = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            if len(row) != len(expected_header):
                raise ValueError(f"expected {len(expected_header)} fields, got {len(row)}")
            antecedents = tuple(
                inputs[v].term_index(name) for v, name in enumerate(row[1 : 1 + len(inputs)])
            )
            consequent = output.term_index(row[1 + len(inputs)])
            rules.append(Rule(antecedents=antecedents, consequent=consequent, weight=float(row[-1])))
        except (ValueError, ModelIntegrityError) as exc:
            raise ModelDocumentError(f"line {lineno}: {exc}") from exc
    return tuple(rules)
