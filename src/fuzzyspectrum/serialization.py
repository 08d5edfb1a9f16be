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
import math
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .engine import (
    FuzzyError,
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    ModelIntegrityError,
    Rule,
)
from .model import DEFAULT_ADMISSION_THRESHOLD, INPUT_ORDER, CandidateBatch, _first_invalid_row, check_threshold, default_model

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
]

SCHEMA_VERSION = 1

CANDIDATE_HEADER = ("id", *INPUT_ORDER)


class ModelDocumentError(FuzzyError):
    """A model document could not be parsed or failed validation."""


class CandidatesCsvError(FuzzyError):
    """A candidates CSV file is malformed."""


@dataclass(frozen=True)
class ModelDocument:
    """A model plus the settings that travel with it."""

    model: FuzzyModel
    admission_threshold: float = DEFAULT_ADMISSION_THRESHOLD

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
        "schema_version": SCHEMA_VERSION,
        "variables": {
            "inputs": [_variable_to_dict(v) for v in model.inputs],
            "output": _variable_to_dict(model.output),
        },
        "rules": [
            {
                "antecedents": model.term_names(rule.antecedents),
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


_TERM_KEYS = ("name", "center", "sigma")
_RULE_KEYS = ("antecedents", "consequent")
# as sets, for the one key test per term and per rule
_TERM_FIELDS, _RULE_REQUIRED = frozenset(_TERM_KEYS), frozenset(_RULE_KEYS)
_RULE_FIELDS = _RULE_REQUIRED | {"weight"}


def _require_keys(obj, keys: Sequence[str], where: str, optional: Collection[str] = ()) -> None:
    """Raise the ModelDocumentError naming the first field of obj that is
    neither in keys nor optional, else the first of keys it lacks."""
    if not isinstance(obj, dict):
        raise ModelDocumentError(f"{where} must be an object")
    for key in obj:
        if key not in keys and key not in optional:
            raise ModelDocumentError(f"unknown field '{key}' in {where}")
    for key in keys:
        if key not in obj:
            raise ModelDocumentError(f"missing field '{key}' in {where}")


def _number(obj, key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelDocumentError(f"field '{key}' in {where} must be a number")
    try:
        return float(value)
    except OverflowError:  # an int too large for a float, read as json reads 1e400
        return math.inf if value > 0 else -math.inf


def _parse_variable(obj, where: str) -> FuzzyVariable:
    _require_keys(obj, ("name", "lo", "hi", "terms"), where)
    terms = []
    if not isinstance(obj["terms"], list) or not obj["terms"]:
        raise ModelDocumentError(f"field 'terms' in {where} must be a non-empty list")
    for i, t in enumerate(obj["terms"]):
        # one key test and one type test per term; _require_keys and _number
        # only name a fault, or read an int
        if not (isinstance(t, dict) and t.keys() == _TERM_FIELDS):
            _require_keys(t, _TERM_KEYS, f"{where}, term {i + 1}")
        center, sigma = t["center"], t["sigma"]
        if type(center) is not float or type(sigma) is not float:
            center, sigma = _number(t, "center", f"{where}, term {i + 1}"), _number(t, "sigma", f"{where}, term {i + 1}")
        terms.append(GaussianTerm(str(t["name"]), center, sigma))
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
        if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
            raise ModelDocumentError(
                f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}"
            )
        _require_keys(raw, ("schema_version", "variables", "rules", "settings"), "document")

        variables = raw["variables"]
        _require_keys(variables, ("inputs", "output"), "variables")
        if not isinstance(variables["inputs"], list) or not variables["inputs"]:
            raise ModelDocumentError("field 'inputs' in variables must be a non-empty list")
        inputs = tuple(
            _parse_variable(v, f"input variable {i + 1}")
            for i, v in enumerate(variables["inputs"])
        )
        output = _parse_variable(variables["output"], "output variable")

        if not isinstance(raw["rules"], list):
            raise ModelDocumentError("field 'rules' in document must be a list")
        in_indices, out_indices = [v._term_indices for v in inputs], output._term_indices
        rules = []
        for i, r in enumerate(raw["rules"]):
            # one key test per rule; _require_keys only names a fault
            if not (isinstance(r, dict) and _RULE_REQUIRED <= r.keys() <= _RULE_FIELDS):
                _require_keys(r, _RULE_KEYS, f"rule {i + 1}", optional=("weight",))
            names = r["antecedents"]
            if not isinstance(names, list) or len(names) != len(inputs):
                raise ModelDocumentError(
                    f"rule {i + 1}: expected {len(inputs)} antecedent names"
                )
            # one dict lookup per name; a name that is no term's name as given
            # (null, a number, a list...) goes through term_index, which reads
            # str(name) and names the first unknown term
            try:
                antecedents = tuple(map(dict.__getitem__, in_indices, names))
                consequent = out_indices[r["consequent"]]
            except (KeyError, TypeError):
                antecedents = tuple(map(FuzzyVariable.term_index, inputs, map(str, names)))
                consequent = output.term_index(str(r["consequent"]))
            weight = r.get("weight", 1.0)
            if type(weight) is not float:
                weight = _number(r, "weight", f"rule {i + 1}")
            rules.append(Rule(antecedents, consequent, weight))

        settings = raw["settings"]
        _require_keys(settings, ("grid_points", "admission_threshold"), "settings")
        grid_points = settings["grid_points"]
        if isinstance(grid_points, bool) or not isinstance(grid_points, int):
            raise ModelDocumentError("field 'grid_points' in settings must be an integer")
        threshold = _number(settings, "admission_threshold", "settings")

        model = FuzzyModel(
            inputs=inputs, output=output, rules=tuple(rules), grid_points=grid_points
        )
        return ModelDocument(model=model, admission_threshold=threshold)
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


def read_candidates_csv(path) -> CandidateBatch:
    """Load a candidate batch; the header must match CANDIDATE_HEADER exactly.
    The first bad csv record is named by its number: a wrong field count, a
    cell float() rejects (first column first), then what Candidate rejects."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows.extend(csv.reader(fh))
    except OSError as exc:
        raise CandidatesCsvError(f"cannot read candidates CSV '{path}': {exc}") from exc
    except csv.Error as exc:  # a field over csv.field_size_limit(), in the next record
        raise CandidatesCsvError(f"line {len(rows) + 1}: {exc}") from exc

    if not rows:
        raise CandidatesCsvError(
            f"empty file; expected header {','.join(CANDIDATE_HEADER)}"
        )
    header = tuple(rows[0])
    if header != CANDIDATE_HEADER:
        raise CandidatesCsvError(
            f"expected header {','.join(CANDIDATE_HEADER)}, got {','.join(header)}"
        )

    ids, values, malformed = [], [], None
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(CANDIDATE_HEADER):
            malformed = f"line {lineno}: expected {len(CANDIDATE_HEADER)} fields, got {len(row)}"
            break
        cid, signal, velocity, ratio, distance = row
        try:
            values += (float(signal), float(velocity), float(ratio), float(distance))
        except ValueError:
            for column, cell in zip(CANDIDATE_HEADER[1:], row[1:]):
                try:
                    float(cell)
                except ValueError:
                    malformed = f"line {lineno}: bad {column} value {cell!r}"
                    break
            break
        ids.append(cid)
    # the records before a malformed one are checked first, as one array
    values = np.reshape(values, (len(ids), len(CANDIDATE_HEADER) - 1))
    try:
        batch = CandidateBatch(ids, values)
    except ValueError as exc:
        records = [n for n, record in enumerate(rows[1:], start=2) if record]
        raise CandidatesCsvError(f"line {records[_first_invalid_row(tuple(ids), values)]}: {exc}") from exc
    if malformed is not None:
        raise CandidatesCsvError(malformed)
    return batch


def format_rules_table(model: FuzzyModel) -> str:
    """Rules as numbered text lines, 1-based, in rule-base order."""
    lines = []
    for r, rule in enumerate(model.rules, start=1):
        antecedents = ", ".join(model.term_names(rule.antecedents))
        consequent = model.output.terms[rule.consequent].name
        lines.append(f"{r}. {antecedents} -> {consequent}")
    return "\n".join(lines) + "\n"


def format_rules_csv(model: FuzzyModel) -> str:
    """Rules as CSV with a row column, antecedent/consequent term names,
    and the weight; a name holding a comma, a double quote or a line feed
    comes out quoted."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(("row", *(v.name for v in model.inputs), model.output.name, "weight"))
    writer.writerows(
        (r, *model.term_names(rule.antecedents), model.output.terms[rule.consequent].name, f"{rule.weight:.6f}")
        for r, rule in enumerate(model.rules, start=1)
    )
    return text.getvalue()
