import json
from importlib import resources

import numpy as np
import pytest

from fuzzyspectrum import (
    Candidate,
    CandidatesCsvError,
    ModelDocumentError,
    RULE_TABLE,
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
from conftest import rule_table_rows


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


class TestModelDocumentStrictness:
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

    def test_header_only_gives_empty_batch(self, tmp_path):
        path = self._write(tmp_path, f"{self.HEADER}\n")
        assert read_candidates_csv(path) == []


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
