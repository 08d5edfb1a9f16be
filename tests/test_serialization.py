import csv
import io
import json
import math
import os
import tempfile
from dataclasses import replace
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyspectrum import (
    Candidate,
    CandidatesCsvError,
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    ModelDocument,
    ModelDocumentError,
    ModelIntegrityError,
    SweepAxis,
    SweepResult,
    SweepSpec,
    default_document,
    default_model,
    figure_preset,
    format_surface_csv,
    infer,
    load_document,
    parse_document,
    read_candidates_csv,
    run_sweep,
    serialize_document,
)
from fuzzyspectrum import serialization
from fuzzyspectrum.cli import _rules_csv
from fuzzyspectrum.engine import _MAX_CURVE_POINTS, MAX_GRID_POINTS

from conftest import (
    NO_EXPLAIN_PHASES,
    UNDECODABLE_JSON,
    candidate_files,
    random_rows,
    rule_table_rows,
    table1_rules,
    three_term_variable,
    traced_peak,
)
from oracle import reference_read_candidates


class TestModelDocumentRoundTrip:
    def test_parse_of_serialize_reproduces_the_document(self):
        doc = default_document()
        again = parse_document(serialize_document(doc))
        assert again == doc
        assert again.model == doc.model

    def test_serialize_is_byte_stable(self):
        text = serialize_document(default_document())
        assert serialize_document(parse_document(text)) == text

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "model.json"
        doc = default_document()
        path.write_text(serialize_document(doc), encoding="utf-8", newline="\n")
        assert load_document(path) == doc

    def test_shipped_document_matches_default_model(self):
        # the default model is the shipped document's, whose rules read by
        # term name are the independently transcribed table, each at weight 1
        shipped = (
            resources.files("fuzzyspectrum") / "data" / "default_model.json"
        ).read_text()
        assert shipped == serialize_document(default_document())
        model = default_model()
        assert model is default_document().model
        rules = [(tuple(model.term_names(a)), model.output.terms[c].name, w) for a, c, w in model.rules]
        assert rules == [(antecedents, consequent, 1.0) for antecedents, consequent in table1_rules()]

    def test_parsed_model_infers_identically(self):
        doc = parse_document(serialize_document(default_document()))
        x = [-72.0, 31.0, 0.7, 12.0]
        assert infer(doc.model, x).crisp_output == infer(default_model(), x).crisp_output


def _odd_name(taken):
    return st.text(max_size=6).filter(lambda name: name not in taken)


def _quoted(name):
    # a name as messages quote it: in single quotes, or as its repr if a
    # character in it is not printable, so the message keeps one line
    return f"'{name}'" if name.isprintable() else repr(name)


FAULT_KINDS = (
    "bound", "center", "sigma", "weight", "threshold", "grid_high", "grid_low",
    "grid_type", "weight_type", "unknown_key", "antecedent_name", "consequent_name",
    "antecedent_count", "huge_int", "schema_version", "tiny_sigma", "huge_sigma",
    "wide_output", "curve_cap", "term_type",
)


@st.composite
def broken_documents(draw, faults=FAULT_KINDS):
    """The default document as a dict with one fault of a kind in faults, and
    the exact message parse_document must give for it."""
    raw = json.loads(serialize_document(default_document()))
    inputs, output = raw["variables"]["inputs"], raw["variables"]["output"]
    i = draw(st.integers(0, len(inputs) - 1))
    var = draw(st.sampled_from([inputs[i], output]))
    where = f"input variable {i + 1}" if var is inputs[i] else "output variable"
    j = draw(st.integers(0, len(var["terms"]) - 1))
    term = var["terms"][j]
    k = draw(st.integers(0, len(raw["rules"]) - 1))
    rule = raw["rules"][k]
    odd = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    fault = draw(st.sampled_from(faults))
    if fault == "bound":
        side = draw(st.sampled_from(["lo", "hi"]))
        var[side] = odd
        return raw, f"variable '{var['name']}': need finite lo < hi, got [{float(var['lo'])}, {float(var['hi'])}]"
    if fault == "center":
        term["center"] = odd
        return raw, f"term '{term['name']}': center must be finite"
    if fault == "sigma":
        term["sigma"] = odd if odd != float("inf") else -1.0
        return raw, f"term '{term['name']}': sigma must be positive, got {float(term['sigma'])}"
    if fault == "weight":
        rule["weight"] = draw(st.sampled_from([odd, 1.5, -0.25]))
        return raw, f"rule {k + 1}: rule weight must be in [0, 1], got {rule['weight']}"
    if fault == "threshold":
        raw["settings"]["admission_threshold"] = odd
        return raw, f"admission_threshold must be in [0, 1], got {odd}"
    if fault == "grid_high":
        # only validated: a model this large is never built
        n = draw(st.integers(MAX_GRID_POINTS + 1, 10**18))
        raw["settings"]["grid_points"] = n
        return raw, f"grid_points must be <= {MAX_GRID_POINTS}, got {n}"
    if fault == "grid_low":
        n = draw(st.integers(-5, 1))
        raw["settings"]["grid_points"] = n
        return raw, f"grid_points must be >= 2, got {n}"
    if fault == "grid_type":
        raw["settings"]["grid_points"] = draw(st.sampled_from([True, False, 1001.0, "1001", None]))
        return raw, "field 'grid_points' in settings must be an integer"
    if fault == "term_type":
        key = draw(st.sampled_from(["center", "sigma"]))
        term[key] = draw(st.sampled_from([True, "1", None, [1.0]]))
        return raw, f"field '{key}' in {where}, term {j + 1} must be a number"
    if fault == "weight_type":
        rule["weight"] = draw(st.sampled_from([True, False, "1", None, [1.0]]))
        return raw, f"field 'weight' in rule {k + 1} must be a number"
    if fault == "unknown_key":
        target, target_where = draw(st.sampled_from([
            (raw, "document"),
            (raw["variables"], "variables"),
            (var, where),
            (term, f"{where}, term {j + 1}"),
            (rule, f"rule {k + 1}"),
            (raw["settings"], "settings"),
        ]))
        key = draw(_odd_name(set(target)))
        target[key] = draw(st.sampled_from([0, "x", None]))
        return raw, f"unknown field {_quoted(key)} in {target_where}"
    if fault == "huge_int":
        # an integer too large for a float reads as the infinity of its sign
        sign = draw(st.sampled_from([1, -1]))
        big, inf = sign * 10**400, sign * float("inf")
        target = draw(st.sampled_from(["lo", "hi", "center", "sigma", "weight", "threshold"]))
        if target in ("lo", "hi"):
            bounds = {"lo": float(var["lo"]), "hi": float(var["hi"]), target: inf}
            var[target] = big
            return raw, f"variable '{var['name']}': need finite lo < hi, got [{bounds['lo']}, {bounds['hi']}]"
        if target == "center":
            term["center"] = big
            return raw, f"term '{term['name']}': center must be finite"
        if target == "sigma":
            term["sigma"] = big
            return raw, f"term '{term['name']}': sigma must be positive, got {inf}"
        if target == "weight":
            rule["weight"] = big
            return raw, f"rule {k + 1}: rule weight must be in [0, 1], got {inf}"
        raw["settings"]["admission_threshold"] = big
        return raw, f"admission_threshold must be in [0, 1], got {inf}"
    if fault == "schema_version":
        version = draw(st.sampled_from([True, False, 1.0, 0, 2, 1.5, "1", None]))
        raw["schema_version"] = version
        return raw, f"unsupported schema_version {version!r}; expected 1"
    if fault in ("tiny_sigma", "huge_sigma"):
        # positive and finite, but 2*sigma*sigma underflows to 0.0 or overflows
        if fault == "tiny_sigma":
            term["sigma"], spread = draw(st.floats(5e-324, 1e-162)), 0.0
        else:
            term["sigma"], spread = draw(st.floats(1e155, 1.7e308)), float("inf")
        return raw, (
            f"term '{term['name']}': sigma {term['sigma']} out of range, "
            f"2*sigma*sigma must be positive and finite, got {spread}"
        )
    if fault == "wide_output":
        # the centroid's moment sums up to (hi - lo) * max(|lo|, |hi|)
        output["hi"] = hi = draw(st.floats(1e155, 1.7e308))
        output["lo"] = lo = draw(st.sampled_from([0.0, -1.0, -hi]))
        return raw, (
            f"variable '{output['name']}': output universe [{lo}, {hi}] too wide to defuzzify, "
            "(hi - lo) * max(|lo|, |hi|) must be finite"
        )
    if fault == "curve_cap":
        # only validated: more output terms x grid points than the cap
        # allows, a model that is never built
        extra = draw(st.integers(8, 40))
        output["terms"][1:1] = [
            {"name": f"x{k}", "center": 0.4 * k / extra, "sigma": 0.1} for k in range(1, extra + 1)
        ]
        n = len(output["terms"])
        grid_points = draw(st.integers(_MAX_CURVE_POINTS // n + 1, MAX_GRID_POINTS))
        raw["settings"]["grid_points"] = grid_points
        return raw, f"output terms x grid_points must be <= {_MAX_CURVE_POINTS}, got {n} x {grid_points}"
    if fault == "antecedent_name":
        v = draw(st.integers(0, len(inputs) - 1))
        name = draw(_odd_name({t["name"] for t in inputs[v]["terms"]}))
        rule["antecedents"][v] = name
        return raw, f"rule {k + 1}: variable '{inputs[v]['name']}' has no term named {_quoted(name)}"
    if fault == "consequent_name":
        name = draw(_odd_name({t["name"] for t in output["terms"]}))
        rule["consequent"] = name
        return raw, f"rule {k + 1}: variable '{output['name']}' has no term named {_quoted(name)}"
    rule["antecedents"] = draw(st.sampled_from([rule["antecedents"][:-1], rule["antecedents"] * 2, "Low"]))
    return raw, f"rule {k + 1}: expected {len(inputs)} antecedent names"


_DELETE = object()


class TestModelDocumentStrictness:
    @given(broken_documents())
    @settings(max_examples=200, deadline=None)
    def test_first_fault_gives_its_exact_message(self, case):
        raw, message = case
        with pytest.raises(ModelDocumentError) as excinfo:
            parse_document(json.dumps(raw))
        assert str(excinfo.value) == message

    # the test above draws its fault kinds at random, so a run may miss one;
    # this one checks each kind on every run
    @pytest.mark.parametrize("fault", FAULT_KINDS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_every_fault_kind_gives_its_exact_message(self, fault, data):
        raw, message = data.draw(broken_documents((fault,)))
        with pytest.raises(ModelDocumentError) as excinfo:
            parse_document(json.dumps(raw))
        assert str(excinfo.value) == message

    def _dict(self):
        return json.loads(serialize_document(default_document()))

    def _expect_error(self, raw, fragment):
        with pytest.raises(ModelDocumentError, match=fragment):
            parse_document(json.dumps(raw))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("variables", "inputs", 0), 5, "input variable 1 must be an object"),
            (("variables", "output", "terms", 1), "Medium", "output variable, term 2 must be an object"),
            (("variables", "inputs", 2, "terms"), [], "field 'terms' in input variable 3 must be a non-empty list"),
            (("variables", "output", "terms"), {"name": "Low"}, "field 'terms' in output variable must be a non-empty list"),
            ((), [1, 2], "document must be a JSON object"),
            (("schema_version",), _DELETE, "missing field 'schema_version' in document"),
            (("variables", "inputs"), {"name": "signal_dbm"}, "field 'inputs' in variables must be a non-empty list"),
            (("rules",), {"1": []}, "field 'rules' in document must be a list"),
            # the term and rule numbers count from 1
            (("variables", "inputs", 2, "terms", 1, "center"), "0.5", "field 'center' in input variable 3, term 2 must be a number"),
            (("variables", "output", "terms", 2, "sigma"), None, "field 'sigma' in output variable, term 3 must be a number"),
            (("rules", 4, "antecedents"), ["Low"], "rule 5: expected 4 antecedent names"),
        ],
        ids=[
            "variable-not-object", "term-not-object", "empty-terms", "terms-not-list",
            "document-not-object", "missing-schema-version", "inputs-not-list", "rules-not-list",
            "term-2-center-not-a-number", "term-3-sigma-not-a-number", "rule-5-antecedent-count",
        ],
    )
    def test_malformed_structure_gives_its_exact_message(self, path, value, message):
        # value replaces the item at path, a tuple of keys and indices into
        # the default document (the whole document for ()), or deletes it
        raw = self._dict()
        if not path:
            raw = value
        else:
            target = raw
            for key in path[:-1]:
                target = target[key]
            if value is _DELETE:
                del target[path[-1]]
            else:
                target[path[-1]] = value
        with pytest.raises(ModelDocumentError) as excinfo:
            parse_document(json.dumps(raw))
        assert str(excinfo.value) == message

    def test_unknown_top_level_field(self):
        raw = self._dict()
        raw["comment"] = "hello"
        self._expect_error(raw, "unknown field 'comment' in document")

    def test_unknown_variable_field(self):
        raw = self._dict()
        raw["variables"]["inputs"][0]["units"] = "dBm"
        self._expect_error(raw, "unknown field 'units' in input variable 1")

    def test_unknown_term_field(self):
        raw = self._dict()
        raw["variables"]["output"]["terms"][1]["color"] = "red"
        self._expect_error(raw, "unknown field 'color' in output variable, term 2")

    def test_unknown_rule_field(self):
        raw = self._dict()
        raw["rules"][2]["priority"] = 3
        self._expect_error(raw, "unknown field 'priority' in rule 3")

    def test_unknown_settings_field(self):
        raw = self._dict()
        raw["settings"]["debug"] = True
        self._expect_error(raw, "unknown field 'debug' in settings")

    def test_missing_field(self):
        raw = self._dict()
        del raw["rules"]
        self._expect_error(raw, "missing field 'rules'")

    def test_bad_schema_version(self):
        raw = self._dict()
        raw["schema_version"] = 99
        self._expect_error(raw, "unsupported schema_version")

    def test_unknown_term_name_in_rule(self):
        raw = self._dict()
        raw["rules"][0]["consequent"] = "Extreme"
        self._expect_error(raw, "no term named 'Extreme'")

    def test_invalid_json_reports_location(self):
        with pytest.raises(ModelDocumentError, match=r"line \d+, column \d+"):
            parse_document('{"schema_version": 1,\n  "variables": }')

    @pytest.mark.parametrize("text", UNDECODABLE_JSON.values(), ids=UNDECODABLE_JSON.keys())
    def test_every_json_failure_is_a_document_error(self, text):
        with pytest.raises(ModelDocumentError, match="^invalid JSON: "):
            parse_document(text)

    def test_model_invariant_violations_surface(self):
        raw = self._dict()
        raw["variables"]["inputs"][0]["terms"][0]["sigma"] = -1.0
        self._expect_error(raw, "sigma")

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ModelDocumentError, match="cannot read"):
            load_document(tmp_path / "missing.json")

    def test_undecodable_bytes_are_a_document_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"schema_version": "\xff"}')
        with pytest.raises(ModelDocumentError) as excinfo:
            load_document(path)
        assert str(excinfo.value).startswith(f"cannot read model document '{path}': 'utf-8' codec can't decode byte 0xff")

    def test_weight_defaults_to_one_when_omitted(self):
        raw = self._dict()
        del raw["rules"][0]["weight"]
        doc = parse_document(json.dumps(raw))
        assert doc.model.rules[0][2] == 1.0

    def test_threshold_range_enforced(self):
        raw = self._dict()
        raw["settings"]["admission_threshold"] = 1.5
        self._expect_error(raw, "admission_threshold")

    def test_a_threshold_that_is_not_a_number_is_named(self):
        with pytest.raises(ModelDocumentError) as excinfo:
            ModelDocument(default_model(), "x")
        assert str(excinfo.value) == "admission_threshold must be a real number, got 'x'"


def _document_with(**edits):
    """The default document's text with rule N's fields updated by edits["rN"]."""
    raw = json.loads(serialize_document(default_document()))
    for rule, fields in edits.items():
        raw["rules"][int(rule[1:]) - 1].update(fields)
    return json.dumps(raw)


def _rules_with(*rules_at):
    """The default model built through FuzzyModel(...) with each (r, rule)
    of rules_at as its rule r."""
    model = default_model()
    rules = list(model.rules)
    for r, rule in rules_at:
        rules[r - 1] = rule
    return FuzzyModel(inputs=model.inputs, output=model.output, rules=rules)


# each rejected rule base with its exact message: the first fault in rule
# order, a document's weight checked as its rule is read, before any later rule
REJECTED_RULE_BASES = {
    "weight-before-unknown-term": (
        lambda: parse_document(_document_with(r2={"weight": 1.5}, r5={"consequent": "Extreme"})),
        ModelDocumentError, "rule 2: rule weight must be in [0, 1], got 1.5",
    ),
    "nan-weight": (
        lambda: parse_document(_document_with(r4={"weight": math.nan})),
        ModelDocumentError, "rule 4: rule weight must be in [0, 1], got nan",
    ),
    "integer-weights": (
        lambda: parse_document(_document_with(r1={"weight": 1}, r2={"weight": 2})),
        ModelDocumentError, "rule 2: rule weight must be in [0, 1], got 2.0",
    ),
    "arity-after-weight": (
        lambda: parse_document(_document_with(r2={"weight": -0.5}, r3={"antecedents": ["Low", "Low", "Low"]})),
        ModelDocumentError, "rule 2: rule weight must be in [0, 1], got -0.5",
    ),
    "index-before-weight": (
        lambda: _rules_with((2, ((0, 7, 0, 0), 0, 1.0)), (5, ((0, 0, 1, 1), 0, 1.5))),
        ModelIntegrityError, "rule 2: antecedent index 7 out of range for variable 'velocity_kmh'",
    ),
    "negative-index": (
        lambda: _rules_with((1, ((0, -1, 0, 0), 0, 1.0))),
        ModelIntegrityError, "rule 1: antecedent index -1 out of range for variable 'velocity_kmh'",
    ),
    "index-before-ragged": (
        lambda: _rules_with((2, ((0, 0, 3, 0), 0, 1.0)), (3, ((0, 0, 0), 0, 1.0))),
        ModelIntegrityError, "rule 2: antecedent index 3 out of range for variable 'spectrum_ratio'",
    ),
    "ragged": (
        lambda: _rules_with((3, ((0, 0, 0, 0, 0), 0, 1.0))),
        ModelIntegrityError, "rule 3: expected 4 antecedents, got 5",
    ),
    "index-beyond-intp": (
        lambda: _rules_with((3, ((0, 10**30, 0, 0), 0, 1.0))),
        ModelIntegrityError,
        "rule 3: antecedent index 1000000000000000000000000000000 out of range for variable 'velocity_kmh'",
    ),
    "negative-consequent": (
        lambda: replace(default_model(), rules=default_model().rules[:80] + (((2, 2, 2, 2), -1, 1.0),)),
        ModelIntegrityError, "rule 81: consequent index -1 out of range",
    ),
}


class TestRejectedRuleBases:
    @pytest.mark.parametrize("build, error, message", REJECTED_RULE_BASES.values(), ids=REJECTED_RULE_BASES.keys())
    def test_reports_the_first_fault(self, build, error, message):
        with pytest.raises(error) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_an_integer_weight_in_range_is_read_as_a_float(self):
        model = parse_document(_document_with(r1={"weight": 1}, r2={"weight": 0})).model
        weights = [weight for _, _, weight in model.rules[:2]]
        assert weights == [1.0, 0.0] and all(type(weight) is float for weight in weights)
        # and so are an integer center and an integer sigma
        raw = json.loads(_document_with())
        low, _, high = raw["variables"]["inputs"][0]["terms"]
        low["center"], high["sigma"] = -100, 17
        low, _, high = parse_document(json.dumps(raw)).model.inputs[0].terms
        assert (low.center, high.sigma) == (-100.0, 17.0)
        assert type(low.center) is float and type(high.sigma) is float


class TestRuleNames:
    """A rule names its terms by string; a name of another JSON type is read
    as its str(), as term_index reads it."""

    @staticmethod
    def _dict():
        return json.loads(serialize_document(default_document()))

    @pytest.mark.parametrize("name", [None, [], ["Low"], {}, {"Low": 1}, 7, -1, 1.5, 1e400, True])
    @pytest.mark.parametrize("where", ["antecedent", "consequent"])
    def test_a_name_of_another_type_names_its_str(self, name, where):
        raw = self._dict()
        rule = raw["rules"][40]
        if where == "antecedent":
            rule["antecedents"][2] = name
            variable = raw["variables"]["inputs"][2]["name"]
        else:
            rule["consequent"] = name
            variable = raw["variables"]["output"]["name"]
        with pytest.raises(ModelDocumentError) as excinfo:
            parse_document(json.dumps(raw))
        assert str(excinfo.value) == f"rule 41: variable '{variable}' has no term named '{name}'"

    @pytest.mark.parametrize("term, name", [("1", 1), ("-2", -2), ("1.5", 1.5), ("None", None), ("True", True)])
    def test_a_name_whose_str_is_a_term_name_is_that_term(self, term, name):
        # one input term and one output term renamed to term; the rules name
        # them once by the string and once by the JSON value name
        by_string = self._dict()
        inputs, output = by_string["variables"]["inputs"], by_string["variables"]["output"]
        inputs[1]["terms"][1]["name"] = output["terms"][2]["name"] = term
        for rule in by_string["rules"]:
            if rule["antecedents"][1] == "Medium":
                rule["antecedents"][1] = term
            if rule["consequent"] == "High":
                rule["consequent"] = term
        by_value = json.loads(json.dumps(by_string))
        for rule in by_value["rules"]:
            rule["antecedents"] = [name if a == term else a for a in rule["antecedents"]]
            if rule["consequent"] == term:
                rule["consequent"] = name
        want = parse_document(json.dumps(by_string))
        got = parse_document(json.dumps(by_value))
        assert got == want and got.model == want.model
        got_c, want_c = got.model._compiled, want.model._compiled
        assert got_c.antecedents.tobytes() == want_c.antecedents.tobytes()
        assert got_c.weights.tobytes() == want_c.weights.tobytes()
        assert serialize_document(got) == json.dumps(by_string, indent=2) + "\n"


class TestModelDocumentMemory:
    def test_peak_grows_linearly_with_output_terms(self):
        # n output terms, one rule concluding each, at a small grid: the
        # document, its term curves and one decision's curves all grow as n
        def peak(n):
            output = FuzzyVariable("y", 0.0, 1.0, tuple(GaussianTerm(f"t{k}", k / n, 0.1) for k in range(n)))
            rules = tuple(((k % 3,), k, 1.0) for k in range(n))
            model = FuzzyModel((three_term_variable("x", 0.0, 1.0),), output, rules, grid_points=11)
            text = serialize_document(ModelDocument(model))
            return traced_peak(lambda: infer(parse_document(text).model, [0.3]))

        # four times the document: at most four times the peak, with slack
        # for allocator steps
        small, large = peak(64), peak(256)
        assert large <= 5 * small, f"peak {large} B at 256 output terms, {small} B at 64"


class TestCandidatesCsv:
    HEADER = "id,signal_dbm,velocity_kmh,spectrum_ratio,distance_m"

    def _write(self, tmp_path, text):
        path = tmp_path / "batch.csv"
        path.write_text(text, encoding="utf-8", newline="\n")
        return path

    def test_reads_batch(self, tmp_path):
        path = self._write(
            tmp_path, f"{self.HEADER}\nu1,-60,50,0.5,50\nu2,-100,0,0,0\n"
        )
        batch = read_candidates_csv(path)
        assert [c.id for c in batch] == ["u1", "u2"]
        assert batch[0] == Candidate("u1", -60.0, 50.0, 0.5, 50.0)

    def test_misordered_header_names_expected(self, tmp_path):
        path = self._write(
            tmp_path, "id,velocity_kmh,signal_dbm,spectrum_ratio,distance_m\n"
        )
        with pytest.raises(CandidatesCsvError, match=self.HEADER):
            read_candidates_csv(path)

    def test_missing_header(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(CandidatesCsvError, match="expected header"):
            read_candidates_csv(path)

    def test_bad_value_names_line_and_column(self, tmp_path):
        path = self._write(tmp_path, f"{self.HEADER}\nu1,-60,fast,0.5,50\n")
        with pytest.raises(CandidatesCsvError, match="line 2.*velocity_kmh"):
            read_candidates_csv(path)

    def test_candidate_invariants_surface_with_line(self, tmp_path):
        path = self._write(tmp_path, f"{self.HEADER}\nu1,-60,-5,0.5,50\n")
        with pytest.raises(CandidatesCsvError, match="line 2"):
            read_candidates_csv(path)

    def test_unprintable_id_is_named_by_its_repr(self, tmp_path):
        path = self._write(tmp_path, f'{self.HEADER}\n"x\ny",-60,-5,0.5,50\n')
        with pytest.raises(CandidatesCsvError) as info:
            read_candidates_csv(path)
        assert str(info.value) == "line 2: candidate 'x\\ny': velocity_kmh must be >= 0"

    def test_oversized_field_names_its_record(self, tmp_path):
        # records are counted as for every other message: the blank line too
        path = self._write(tmp_path, f"{self.HEADER}\nu1,-60,50,0.5,50\n\n{'a' * 140000},-60,50,0.5,50\n")
        with pytest.raises(CandidatesCsvError) as info:
            read_candidates_csv(path)
        assert str(info.value) == f"line 4: field larger than field limit ({csv.field_size_limit()})"

    def test_oversized_header_field_is_named_at_line_1(self, tmp_path):
        path = self._write(tmp_path, f"id,{'a' * 140000}\nu1,-60,50,0.5,50\n")
        with pytest.raises(CandidatesCsvError) as info:
            read_candidates_csv(path)
        assert str(info.value) == f"line 1: field larger than field limit ({csv.field_size_limit()})"

    @staticmethod
    def _both_readers(path):
        """What reference_read_candidates and read_candidates_csv make of
        path: the records' ids and float bits, or the error's type and
        message."""
        results = []
        for read in (lambda: reference_read_candidates(path, error=CandidatesCsvError),
                     lambda: [(c.id, *c.inputs()) for c in read_candidates_csv(path)]):
            try:
                results.append(("ok", [(cid, *(v.hex() for v in values)) for cid, *values in read()]))
            except (CandidatesCsvError, ValueError) as exc:
                results.append((type(exc), str(exc)))
        return results

    def _file_agrees(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "batch.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            want, got = self._both_readers(path)
        assert got == want

    @given(candidate_files())
    @settings(max_examples=400, deadline=None, phases=NO_EXPLAIN_PHASES)
    def test_matches_the_line_by_line_reader(self, data):
        self._file_agrees(data)

    # blocks of a line or two, so that a block ends inside the drawn files,
    # which are far shorter than one 64 KiB block
    @given(candidate_files())
    @settings(max_examples=200, deadline=None, phases=NO_EXPLAIN_PHASES)
    def test_matches_the_line_by_line_reader_in_blocks_of_a_few_dozen_characters(self, data):
        with mock.patch.object(serialization, "_BLOCK_CHARS", 40):
            self._file_agrees(data)

    # lines that only the walk reads, each past the first 64 KiB block of
    # plain rows and followed by more of them
    LATE_LINES = {
        "quoted-line-break": ['"q\nr",-60,50,0.5,50'],
        "crlf": ["c1,-60,50,0.5,50\r"],
        "blank": [""],
        "bad-cell": ["b1,-60,fast,0.5,50"],
        "negative": ["n1,-60,-5,0.5,50"],
        # four and six fields, ten in all, each a number but the first
        "field-counts-that-add-up": ["s1,-60,50,0.5", "50,-60,50,0.5,50,7"],
        "all-bad-cell-first": ['"q\nr",-60,50,0.5,50', "c1,-60,50,0.5,50\r", "", "b1,-60,fast,0.5,50", "n1,-60,-5,0.5,50"],
        "all-negative-first": ['"q\nr",-60,50,0.5,50', "c1,-60,50,0.5,50\r", "", "n1,-60,-5,0.5,50", "b1,-60,fast,0.5,50"],
    }

    @pytest.mark.parametrize("late", LATE_LINES.values(), ids=LATE_LINES.keys())
    def test_lines_past_the_first_block_match_the_line_by_line_reader(self, tmp_path, late):
        plain = "".join(f"p{i},-60.5,{i % 100}.25,0.5,{i % 70}.0\n" for i in range(3000))
        assert len(plain) > 1 << 16
        after = "".join(f"a{i},-70,10,0.25,{i}\n" for i in range(100))
        path = self._write(tmp_path, f"{self.HEADER}\n{plain}" + "".join(line + "\n" for line in late) + after)
        want, got = self._both_readers(path)
        assert got == want
        assert got[0] != "ok" or len(got[1]) == 3100 + sum(line.startswith(("c1", '"q')) for line in late)

    def test_an_undecodable_byte_past_the_first_block_gives_the_reference_message(self, tmp_path):
        # the decode error comes from a block read, not from the walk; its
        # position counts from the start of the chunk that the file object decodes
        plain = "".join(f"p{i},-60.5,{i % 100}.25,0.5,{i % 70}.0\n" for i in range(5000)).encode()
        path = tmp_path / "batch.csv"
        path.write_bytes(f"{self.HEADER}\n".encode() + plain[:100000] + b"\xff" + plain[100000:])
        want, got = self._both_readers(path)
        assert got == want and "can't decode byte 0xff" in got[1]

    @pytest.mark.parametrize("late", [[], ["b1,-60,fast,0.5,50"]], ids=["admitted", "walked"])
    def test_the_file_is_opened_once(self, tmp_path, monkeypatch, late):
        plain = "".join(f"p{i},-60.5,50.25,0.5,{i % 70}.0\n" for i in range(3000))
        path = self._write(tmp_path, f"{self.HEADER}\n{plain}" + "".join(line + "\n" for line in late) + plain.replace("p", "z"))
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(serialization, "open", counting_open, raising=False)
        try:
            read_candidates_csv(path)
        except CandidatesCsvError:
            pass
        assert opened == [path]

    def test_peak_memory_per_row_is_bounded(self, tmp_path):
        # each record is held once, as its id, its floats in a flat array and
        # its start line: about 175 bytes a row here, against about 270 when
        # the floats were a list of Python floats and about 700 when every
        # record's strings were kept until the file was read
        rows = random_rows(20_000).tolist()
        lines = [f"u{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(rows)]
        path = self._write(tmp_path, f"{self.HEADER}\n" + "".join(lines))
        assert traced_peak(lambda: read_candidates_csv(path)) < 220 * len(rows)

    def test_undecodable_bytes_are_a_csv_error(self, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_bytes(f"{self.HEADER}\n\xff,-60,50,0.5,50\n".encode("latin-1"))
        with pytest.raises(CandidatesCsvError) as excinfo:
            read_candidates_csv(path)
        assert str(excinfo.value).startswith(f"cannot read candidates CSV '{path}': 'utf-8' codec can't decode byte 0xff")

    def test_header_only_gives_empty_batch(self, tmp_path):
        path = self._write(tmp_path, f"{self.HEADER}\n")
        assert len(read_candidates_csv(path)) == 0


class TestSurfaceCsv:
    def test_layout(self):
        spec = SweepSpec(
            axis1=SweepAxis("signal_dbm", -100.0, -20.0, 2),
            axis2=SweepAxis("distance_m", 0.0, 100.0, 3),
            fixed={"velocity_kmh": 50.0, "spectrum_ratio": 0.5},
        )
        result = SweepResult(
            spec=spec,
            axis1_values=np.array([-100.0, -20.0]),
            axis2_values=np.array([0.0, 50.0, 100.0]),
            grid=np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
        )
        text = format_surface_csv(result)
        assert text == (
            ",0.000000,50.000000,100.000000\n"
            "-100.000000,0.100000,0.200000,0.300000\n"
            "-20.000000,0.400000,0.500000,0.600000\n"
        )

    def test_preset_dimensions(self):
        text = format_surface_csv(run_sweep(figure_preset(7, steps=5)))
        lines = text.splitlines()
        assert len(lines) == 6
        assert all(len(line.split(",")) == 6 for line in lines)
        assert lines[0].startswith(",")

    def test_peak_memory_per_cell_is_bounded(self):
        # one grid row is a list of floats at a time: about 19 bytes a cell
        # of a 201-step sweep, most of it the text, against about 42 when
        # the whole grid was one
        result = run_sweep(figure_preset(7, steps=201))
        assert traced_peak(lambda: format_surface_csv(result)) < 30 * result.grid.size


class TestRuleListings:
    # the rule listing is the CLI's (dump-rules --format csv); its quoting
    # is the csv module's, as in the surface and candidate files
    def test_csv_quotes_names_with_commas_quotes_and_line_breaks(self):
        low, high = 'Lo,w "x"', "Hi\ngh"
        model = default_model()
        signal, output = model.inputs[0], model.output
        signal = replace(signal, terms=(replace(signal.terms[0], name=low), *signal.terms[1:]))
        output = replace(output, terms=(*output.terms[:2], replace(output.terms[2], name=high)))
        model = replace(model, inputs=(signal, *model.inputs[1:]), output=output)
        records = list(csv.reader(io.StringIO(_rules_csv(model), newline="")))
        assert len(records) == 1 + len(rule_table_rows())
        assert {len(record) for record in records} == {7}
        want = [[row[0], low if row[1] == "Low" else row[1], *row[2:5], high if row[5] == "High" else row[5], row[6]]
                for row in rule_table_rows()]
        assert records[1:] == want
