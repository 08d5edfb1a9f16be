import csv
import io
import json
import os
import tempfile
import tracemalloc
from dataclasses import replace
from importlib import resources

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
    RULE_TABLE,
    Rule,
    SweepAxis,
    SweepResult,
    SweepSpec,
    default_document,
    default_model,
    format_rules_csv,
    format_rules_table,
    format_surface_csv,
    infer,
    load_document,
    parse_document,
    read_candidates_csv,
    run_sweep,
    save_document,
    serialize_document,
)
from fuzzyspectrum.engine import _MAX_CURVE_POINTS, MAX_GRID_POINTS

from conftest import candidate_files, rule_table_rows, three_term_variable
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
        save_document(doc, path)
        assert load_document(path) == doc

    def test_shipped_document_matches_default_model(self):
        shipped = (
            resources.files("fuzzyspectrum") / "data" / "default_model.json"
        ).read_text()
        assert shipped == serialize_document(default_document())
        assert parse_document(shipped).model == default_model()

    def test_parsed_model_infers_identically(self):
        doc = parse_document(serialize_document(default_document()))
        x = [-72.0, 31.0, 0.7, 12.0]
        assert infer(doc.model, x).crisp_output == infer(default_model(), x).crisp_output


def _odd_name(taken):
    return st.text(max_size=6).filter(lambda name: name not in taken)


@st.composite
def broken_documents(draw):
    """The default document as a dict with one fault, and the exact message
    parse_document must give for it."""
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
    fault = draw(st.sampled_from([
        "bound", "center", "sigma", "weight", "threshold", "grid_high", "grid_low",
        "grid_type", "weight_type", "unknown_key", "antecedent_name", "consequent_name",
        "antecedent_count", "huge_int", "schema_version", "tiny_sigma", "huge_sigma",
        "wide_output", "curve_cap",
    ]))
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
        return raw, f"rule weight must be in [0, 1], got {rule['weight']}"
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
        return raw, f"unknown field '{key}' in {target_where}"
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
            return raw, f"rule weight must be in [0, 1], got {inf}"
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
        return raw, f"variable '{inputs[v]['name']}' has no term named '{name}'"
    if fault == "consequent_name":
        name = draw(_odd_name({t["name"] for t in output["terms"]}))
        rule["consequent"] = name
        return raw, f"variable '{output['name']}' has no term named '{name}'"
    rule["antecedents"] = draw(st.sampled_from([rule["antecedents"][:-1], rule["antecedents"] * 2, "Low"]))
    return raw, f"rule {k + 1}: expected {len(inputs)} antecedent names"


class TestModelDocumentStrictness:
    @given(broken_documents())
    @settings(max_examples=200, deadline=None)
    def test_first_fault_gives_its_exact_message(self, case):
        raw, message = case
        with pytest.raises(ModelDocumentError) as excinfo:
            parse_document(json.dumps(raw))
        assert str(excinfo.value) == message

    def _dict(self):
        return json.loads(serialize_document(default_document()))

    def _expect_error(self, raw, fragment):
        with pytest.raises(ModelDocumentError, match=fragment):
            parse_document(json.dumps(raw))

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

    def test_model_invariant_violations_surface(self):
        raw = self._dict()
        raw["variables"]["inputs"][0]["terms"][0]["sigma"] = -1.0
        self._expect_error(raw, "sigma")

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ModelDocumentError, match="cannot read"):
            load_document(tmp_path / "missing.json")

    def test_weight_defaults_to_one_when_omitted(self):
        raw = self._dict()
        del raw["rules"][0]["weight"]
        doc = parse_document(json.dumps(raw))
        assert doc.model.rules[0].weight == 1.0

    def test_threshold_range_enforced(self):
        raw = self._dict()
        raw["settings"]["admission_threshold"] = 1.5
        self._expect_error(raw, "admission_threshold")


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
        assert str(excinfo.value) == f"variable '{variable}' has no term named '{name}'"

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
        assert got.model._compiled.table.tobytes() == want.model._compiled.table.tobytes()
        assert serialize_document(got) == json.dumps(by_string, indent=2) + "\n"


class TestModelDocumentMemory:
    def test_peak_grows_linearly_with_output_terms(self):
        # n output terms, one rule concluding each, at a small grid: the
        # document, its term curves and one decision's curves all grow as n
        def peak(n):
            output = FuzzyVariable("y", 0.0, 1.0, tuple(GaussianTerm(f"t{k}", k / n, 0.1) for k in range(n)))
            rules = tuple(Rule((k % 3,), k) for k in range(n))
            model = FuzzyModel((three_term_variable("x", 0.0, 1.0),), output, rules, grid_points=11)
            text = serialize_document(ModelDocument(model))
            tracemalloc.start()
            try:
                doc = parse_document(text)
                infer(doc.model, [0.3])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(256)  # numpy allocates for some calls only the first time
        # four times the document: at most four times the peak, with slack
        # for allocator steps
        assert peak(256) <= 5 * peak(64)


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

    @given(candidate_files())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_line_by_line_reader(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "batch.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                want = ("ok", [(cid, *(v.hex() for v in values)) for cid, *values in
                               reference_read_candidates(path, error=CandidatesCsvError)])
            except (CandidatesCsvError, ValueError) as exc:
                want = (type(exc), str(exc))
            try:
                got = ("ok", [(c.id, *(v.hex() for v in c.inputs())) for c in read_candidates_csv(path)])
            except (CandidatesCsvError, ValueError) as exc:
                got = (type(exc), str(exc))
        assert got == want

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
        from fuzzyspectrum import figure_preset

        text = format_surface_csv(run_sweep(figure_preset(7, steps=5)))
        lines = text.splitlines()
        assert len(lines) == 6
        assert all(len(line.split(",")) == 6 for line in lines)
        assert lines[0].startswith(",")


class TestRuleListings:
    def test_table_row_46(self):
        text = format_rules_table(default_model())
        assert text.splitlines()[45] == "46. Medium, High, Low, Low -> High"

    def test_table_has_81_rows(self):
        assert len(format_rules_table(default_model()).splitlines()) == 81

    def test_csv_rows_follow_the_rule_table(self):
        lines = format_rules_csv(default_model()).splitlines()
        assert len(lines) == 1 + len(RULE_TABLE)
        assert [line.split(",") for line in lines[1:]] == rule_table_rows()

    def test_csv_header_and_weight(self):
        lines = format_rules_csv(default_model()).splitlines()
        assert lines[0] == "row,signal_dbm,velocity_kmh,spectrum_ratio,distance_m,decision,weight"
        assert lines[1] == "1,Low,Low,Low,Low,High,1.000000"

    def test_csv_quotes_names_with_commas_quotes_and_line_breaks(self):
        low, high = 'Lo,w "x"', "Hi\ngh"
        model = default_model()
        signal, output = model.inputs[0], model.output
        signal = replace(signal, terms=(replace(signal.terms[0], name=low), *signal.terms[1:]))
        output = replace(output, terms=(*output.terms[:2], replace(output.terms[2], name=high)))
        model = replace(model, inputs=(signal, *model.inputs[1:]), output=output)
        records = list(csv.reader(io.StringIO(format_rules_csv(model), newline="")))
        assert len(records) == 1 + len(RULE_TABLE)
        assert {len(record) for record in records} == {7}
        want = [[row[0], low if row[1] == "Low" else row[1], *row[2:5], high if row[5] == "High" else row[5], row[6]]
                for row in rule_table_rows()]
        assert records[1:] == want
