"""File formats: model documents (JSON) and candidate batches (CSV).

The model document externalizes the whole model, rule base included, so
alternative rule tables can be tried without touching code.  Parsing is
strict: unknown fields are rejected by name, and serialize(parse(text))
reproduces the original bytes.
"""

from __future__ import annotations

import csv
import itertools
import json
from array import array
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Collection, Sequence

import numpy as np

from .engine import (
    FuzzyError,
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    InvalidInputError,
    ModelIntegrityError,
    _as_float,
    _quoted,
    check_threshold,
)
from .model import DEFAULT_ADMISSION_THRESHOLD, INPUT_ORDER, CandidateBatch, _first_invalid_row

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
    "read_candidates_csv",
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


@cache
def default_document() -> ModelDocument:
    """The shipped model document, data/default_model.json, read once."""
    return load_document(Path(__file__).parent / "data" / "default_model.json")


def _variable_to_dict(var: FuzzyVariable) -> dict:
    return {
        "name": var.name,
        "lo": var.lo,
        "hi": var.hi,
        "terms": [
            {"name": t.name, "center": t.center, "sigma": t.sigma} for t in var.terms
        ],
    }


def serialize_document(doc: ModelDocument) -> str:
    """Stable JSON text: fixed key order, two-space indent, trailing newline."""
    model = doc.model
    terms = model.output.terms
    document = {
        "schema_version": SCHEMA_VERSION,
        "variables": {
            "inputs": [_variable_to_dict(v) for v in model.inputs],
            "output": _variable_to_dict(model.output),
        },
        "rules": [
            {"antecedents": model.term_names(antecedents), "consequent": terms[consequent].name, "weight": weight}
            for antecedents, consequent, weight in model.rules
        ],
        "settings": {
            "grid_points": model.grid_points,
            "admission_threshold": doc.admission_threshold,
        },
    }
    return json.dumps(document, indent=2) + "\n"


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
            raise ModelDocumentError(f"unknown field {_quoted(key)} in {where}")
    for key in keys:
        if key not in obj:
            raise ModelDocumentError(f"missing field {_quoted(key)} in {where}")


def _number(obj, key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelDocumentError(f"field {_quoted(key)} in {where} must be a number")
    return _as_float(value, key, ModelDocumentError)  # an int too large for a float reads as json reads 1e400


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
    except (RecursionError, ValueError) as exc:  # nested too deeply, or an integer over int's digit limit
        raise ModelDocumentError(f"invalid JSON: {exc}") from exc

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
                try:
                    antecedents = tuple(map(dict.__getitem__, in_indices, names))
                    consequent = out_indices[r["consequent"]]
                except (KeyError, TypeError):
                    antecedents = tuple(map(FuzzyVariable.term_index, inputs, map(str, names)))
                    consequent = output.term_index(str(r["consequent"]))
                weight = r.get("weight", 1.0)
                if type(weight) is not float:
                    weight = _number(r, "weight", f"rule {i + 1}")
                rules.append((antecedents, consequent, check_threshold(weight, "rule weight", ModelIntegrityError)))
            except ModelIntegrityError as exc:  # an unknown term name or a weight out of range
                raise ModelDocumentError(f"rule {i + 1}: {exc}") from exc

        settings = raw["settings"]
        _require_keys(settings, ("grid_points", "admission_threshold"), "settings")
        grid_points = settings["grid_points"]
        if isinstance(grid_points, bool) or not isinstance(grid_points, int):
            raise ModelDocumentError("field 'grid_points' in settings must be an integer")
        threshold = _number(settings, "admission_threshold", "settings")

        model = FuzzyModel(inputs, output, rules, grid_points)
        return ModelDocument(model=model, admission_threshold=threshold)
    except ModelIntegrityError as exc:
        raise ModelDocumentError(str(exc)) from exc


def load_document(path) -> ModelDocument:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: open()'s for a path holding a NUL, or a UnicodeDecodeError
        raise ModelDocumentError(f"cannot read model document {_quoted(path)}: {exc}") from exc
    return parse_document(text)


# the header line that a block read admits; any other first line is read by
# the walk, which names the fault
_HEADER_LINES = (",".join(CANDIDATE_HEADER) + "\n", ",".join(CANDIDATE_HEADER))
# characters of text that read_candidates_csv takes a block of whole lines at
_BLOCK_CHARS = 1 << 16


def _admit_block(lines: list[str], ids: list, values: array) -> bool:
    """Append the records of lines, whole lines of a candidates CSV after its
    header, to ids and values and return True, when csv.reader would yield
    each line's line.split(",") and that is an id and four numbers that
    float() reads; else return False and append nothing.  A text without a
    double quote, a carriage return or a NUL, and without a line longer than
    csv.field_size_limit(), is read by csv.reader as split lines."""
    text = "".join(lines)
    limit = csv.field_size_limit()
    if '"' in text or "\r" in text or "\0" in text or (len(text) > limit and max(map(len, lines)) > limit):
        return False
    # each line feed becomes "\n,", so that a line's last cell keeps its line
    # feed and the text ends in one empty cell; every line holds four commas
    # (a blank line none) exactly when that makes 5 cells a line plus the
    # empty one, with the line feeds all in every fifth cell
    cells = (text if text.endswith("\n") else text + "\n").replace("\n", "\n,").split(",")
    rows = len(lines)
    if len(cells) != 5 * rows + 1 or "".join(cells[4::5]).count("\n") != rows:
        return False
    block_ids = cells[:-1:5]
    del cells[::5]
    try:
        numbers = list(map(float, cells))  # a last cell's line feed is whitespace to float()
    except ValueError:
        return False
    ids += block_ids
    values.fromlist(numbers)
    return True


def read_candidates_csv(path) -> CandidateBatch:
    """Load a candidate batch; the header must match CANDIDATE_HEADER exactly.
    The first bad csv record is named by the line it starts on: a wrong
    field count, a cell float() rejects (first column first), then what
    Candidate rejects.

    The file is read once, in blocks of whole lines of about _BLOCK_CHARS
    characters.  After a header line that is exactly CANDIDATE_HEADER's,
    each block that _admit_block admits is taken whole; the first block
    that it does not admit and the rest of the file go through csv.reader
    record by record (the walk), which names every fault."""
    # each record's id, floats and the line it starts on, up to the first
    # malformed one, numbers in flat arrays; a quoted line break carries a
    # record on to the next line
    # line counts the lines before the block in hand
    ids, values, starts, malformed, header, line, start = [], array("d"), array("q"), None, None, 0, 1
    cannot_read = f"cannot read candidates CSV {_quoted(path)}"
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except (OSError, ValueError) as exc:  # a ValueError for a path holding a NUL
        raise CandidatesCsvError(f"{cannot_read}: {exc}") from exc
    try:
        with fh:
            block = fh.readlines(_BLOCK_CHARS)
            if block[:1] and block[0] in _HEADER_LINES:
                header, line = CANDIDATE_HEADER, 1
                block = block[1:] or fh.readlines(_BLOCK_CHARS)
                while block and _admit_block(block, ids, values):
                    starts.extend(range(line + 1, line + 1 + len(block)))
                    line += len(block)
                    block = fh.readlines(_BLOCK_CHARS)
            reader = csv.reader(itertools.chain(block, fh))
            if header is None:
                header = next(reader, None)
            start = line + reader.line_num + 1
            for row in reader:
                # past a malformed record the file is only read on, so that
                # a later read or csv error is still the one reported
                if row and malformed is None:
                    if len(row) != len(CANDIDATE_HEADER):
                        malformed = f"line {start}: expected {len(CANDIDATE_HEADER)} fields, got {len(row)}"
                    else:
                        try:
                            values.fromlist(list(map(float, row[1:])))  # all four, or none
                            ids.append(row[0])
                            starts.append(start)
                        except ValueError:
                            for column, cell in zip(INPUT_ORDER, row[1:]):
                                try:
                                    float(cell)
                                except ValueError:
                                    malformed = f"line {start}: bad {column} value {cell!r}"
                                    break
                start = line + reader.line_num + 1
    except (OSError, UnicodeDecodeError) as exc:
        raise CandidatesCsvError(f"{cannot_read}: {exc}") from exc
    except csv.Error as exc:  # a field over csv.field_size_limit(), in the record at line start
        raise CandidatesCsvError(f"line {start}: {exc}") from exc

    if header is None:
        raise CandidatesCsvError(
            f"empty file; expected header {','.join(CANDIDATE_HEADER)}"
        )
    if tuple(header) != CANDIDATE_HEADER:
        raise CandidatesCsvError(
            f"expected header {','.join(CANDIDATE_HEADER)}, got {','.join(header)}"
        )
    # the records before a malformed one are checked first, as one array,
    # a view that CandidateBatch copies once
    values = np.frombuffer(values).reshape(len(ids), len(INPUT_ORDER))
    try:
        batch = CandidateBatch(ids, values)
    except InvalidInputError as exc:
        raise CandidatesCsvError(f"line {starts[_first_invalid_row(tuple(ids), values)]}: {exc}") from exc
    if malformed is not None:
        raise CandidatesCsvError(malformed)
    return batch

