import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import fuzzyspectrum
from fuzzyspectrum import Candidate, FuzzyModel, InvalidInputError, decision_possibility, default_model
from fuzzyspectrum.cli import _csv_fields, build_parser, main
from fuzzyspectrum.engine import MAX_GRID_POINTS
from fuzzyspectrum.sweep import MAX_STEPS
from fuzzyspectrum.serialization import (
    CandidatesCsvError,
    ModelDocument,
    default_document,
    serialize_document,
)

from conftest import NO_EXPLAIN_PHASES, ODD_IDS, UNDECODABLE_JSON, candidate_files, dead_model, rule_table_rows
from oracle import reference_read_candidates

HEADER = "id,signal_dbm,velocity_kmh,spectrum_ratio,distance_m"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model_with_term_named(tmp_path, name, input_index=None, term=0):
    """Path of a document of the default model with one term renamed: a term
    of input input_index, or of the output when that is None."""
    model = default_model()
    var = model.output if input_index is None else model.inputs[input_index]
    var = replace(var, terms=(*var.terms[:term], replace(var.terms[term], name=name), *var.terms[term + 1:]))
    if input_index is None:
        model = replace(model, output=var)
    else:
        model = replace(model, inputs=(*model.inputs[:input_index], var, *model.inputs[input_index + 1:]))
    path = tmp_path / "model.json"
    path.write_text(serialize_document(ModelDocument(model)), encoding="utf-8")
    return str(path)


class TestEval:
    def test_matches_library_evaluation(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "-60", "50", "0.5", "50")
        assert code == 0
        want = decision_possibility(Candidate("c", -60, 50, 0.5, 50)).possibility
        assert out.splitlines()[0] == f"possibility: {want:.6f}"
        assert out.splitlines()[1] in ("admitted: yes", "admitted: no")

    def test_operating_point_is_not_admitted(self, capsys):
        # 0.4999999999999994 prints as 0.500000 but stays below the default
        # threshold of 0.5; a pairwise centroid sum gives exactly 0.5
        code, out, _ = run_cli(capsys, "eval", "-60", "50", "0.5", "50")
        assert code == 0
        assert out.splitlines()[:2] == ["possibility: 0.500000", "admitted: no"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "-100", "0", "0", "0", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "possibility,admitted"
        assert lines[1].endswith(",true")

    def test_malformed_number_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "-60", "fast", "0.5", "50"])
        assert excinfo.value.code == 2
        assert "invalid float value" in capsys.readouterr().err

    def test_trace_lists_row_1_for_all_low_centers(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "-100", "0", "0", "0", "--trace")
        assert code == 0
        top = [line for line in out.splitlines() if line.startswith("  1. ")]
        assert top == ["  1. Low, Low, Low, Low -> High  (strength 1.000000)"]
        strength_one = [line for line in out.splitlines() if "(strength 1.000000)" in line]
        assert len(strength_one) == 1

    @pytest.mark.parametrize("flags", [(), ("--trace",)])
    def test_dead_model_exits_one_without_traceback(self, capsys, tmp_path, flags):
        model_path = tmp_path / "dead.json"
        model_path.write_text(serialize_document(ModelDocument(dead_model())), encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", "-60", "50", "0.5", "50", "--model", str(model_path), *flags)
        assert code == 1
        assert out == ""
        assert "no rule fired" in err
        assert "Traceback" not in err

    def test_csv_format_builds_no_trace(self, capsys, monkeypatch):
        _, want, _ = run_cli(capsys, "eval", "-60", "50", "0.5", "50", "--format", "csv")
        calls, infer = [], fuzzyspectrum.cli.infer
        monkeypatch.setattr(fuzzyspectrum.cli, "infer", lambda *args: calls.append(args) or infer(*args))
        assert run_cli(capsys, "eval", "-60", "50", "0.5", "50", "--trace", "--format", "csv") == (0, want, "")
        assert calls == []

    def test_a_term_name_with_a_line_break_keeps_one_line_per_input(self, capsys, tmp_path):
        path = model_with_term_named(tmp_path, "Lo\nw", input_index=0)
        code, out, _ = run_cli(capsys, "eval", "-100", "0", "0", "0", "--trace", "--model", path)
        assert code == 0
        lines = out.splitlines()
        memberships = lines[lines.index("memberships:") + 1:lines.index("top rules:")]
        assert len(memberships) == 4
        assert memberships[0] == "  signal_dbm: 'Lo\\nw'=1.000000 Medium=0.062500 High=0.000015"
        assert lines[lines.index("top rules:") + 1] == "  1. 'Lo\\nw', Low, Low, Low -> High  (strength 1.000000)"
        assert len(lines) == 2 + 1 + 4 + 1 + 4 + 1 + 5

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "eval", "-72.3", "18", "0.81", "64", "--trace")
        _, second, _ = run_cli(capsys, "eval", "-72.3", "18", "0.81", "64", "--trace")
        assert first == second

    def test_negative_velocity_rejected(self, capsys):
        code, _, err = run_cli(capsys, "eval", "-60", "-5", "0.5", "50")
        assert code == 1
        assert "velocity_kmh" in err

    def test_threshold_flag(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "-100", "0", "0", "0", "--threshold", "0.99")
        assert code == 0
        assert "admitted: no" in out

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "eval", "-60", "50", "0.5", "50", "--output", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("possibility: ")

    def test_grid_points_override(self, capsys):
        code, coarse, _ = run_cli(capsys, "eval", "-80", "20", "0.3", "40", "--grid-points", "11")
        assert code == 0
        code, fine, _ = run_cli(capsys, "eval", "-80", "20", "0.3", "40")
        assert code == 0
        # both valid possibilities, resolved on different grids
        assert coarse.splitlines()[0] != fine.splitlines()[0]
        for bad in ("1", "100002"):
            code, _, err = run_cli(capsys, "eval", "-80", "20", "0.3", "40", "--grid-points", bad)
            assert code == 1
            assert "grid_points" in err


class TestArbitrate:
    def _write(self, tmp_path, rows):
        path = tmp_path / "batch.csv"
        path.write_text(HEADER + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
        return str(path)

    def test_single_row_wins(self, capsys, tmp_path):
        path = self._write(tmp_path, ["solo,-100,0,0,0"])
        code, out, _ = run_cli(capsys, "arbitrate", path)
        assert code == 0
        assert out.splitlines()[-1] == "winner: solo"

    @pytest.mark.parametrize("end", ["\n", ""], ids=["line-feed", "no-line-feed"])
    def test_header_only_is_an_error(self, capsys, tmp_path, end):
        path = tmp_path / "batch.csv"
        path.write_text(HEADER + end, encoding="utf-8")
        code, _, err = run_cli(capsys, "arbitrate", str(path))
        assert code == 1
        assert "no candidates" in err

    def test_duplicate_id_named(self, capsys, tmp_path):
        path = self._write(tmp_path, ["u1,-60,50,0.5,50", "u1,-100,0,0,0"])
        code, _, err = run_cli(capsys, "arbitrate", path)
        assert code == 1
        assert "'u1'" in err

    def test_unprintable_duplicate_id_keeps_one_error_line(self, capsys, tmp_path):
        path = self._write(tmp_path, ['"x\ny",-60,50,0.5,50', '"x\ny",-100,0,0,0'])
        assert run_cli(capsys, "arbitrate", path) == (1, "", "error: duplicate candidate id 'x\\ny'\n")

    @pytest.mark.parametrize(
        "record, message",
        [
            ("c,-60,-5,0.5,50", "line 4: candidate 'c': velocity_kmh must be >= 0"),
            ("c,-60,fast,0.5,50", "line 4: bad velocity_kmh value 'fast'"),
            (f"{'c' * 140000},-60,50,0.5,50", f"line 4: field larger than field limit ({csv.field_size_limit()})"),
        ],
        ids=["candidate", "cell", "csv-error"],
    )
    def test_error_names_the_line_its_record_starts_on(self, capsys, tmp_path, record, message):
        # the quoted id of the first record spans lines 2 and 3
        path = self._write(tmp_path, ['"a\nb",-60,50,0.5,50', record])
        assert run_cli(capsys, "arbitrate", path) == (1, "", f"error: {message}\n")

    def test_oversized_field_exits_one_without_traceback(self, capsys, tmp_path):
        path = self._write(tmp_path, [f"{'a' * 140000},-60,50,0.5,50"])
        limit = csv.field_size_limit()
        assert run_cli(capsys, "arbitrate", path) == (1, "", f"error: line 2: field larger than field limit ({limit})\n")

    def test_dead_model_exits_one_without_traceback(self, capsys, tmp_path):
        path = self._write(tmp_path, ["u1,-60,50,0.5,50", "u2,-100,0,0,0"])
        model_path = tmp_path / "dead.json"
        model_path.write_text(serialize_document(ModelDocument(dead_model())), encoding="utf-8")
        code, out, err = run_cli(capsys, "arbitrate", "--model", str(model_path), path)
        assert code == 1
        assert out == ""
        assert "no rule fired" in err
        assert "Traceback" not in err

    def test_misordered_header_names_expected(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,velocity_kmh,signal_dbm,spectrum_ratio,distance_m\n")
        code, _, err = run_cli(capsys, "arbitrate", str(path))
        assert code == 1
        assert HEADER in err

    def test_three_center_vectors(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            ["mid,-60,50,0.5,50", "bad,-20,100,1,100", "good,-100,0,0,0"],
        )
        code, out, _ = run_cli(capsys, "arbitrate", path, "--threshold", "0")
        assert code == 0
        assert out.splitlines()[-1] == "winner: good"

    def test_no_winner_still_exits_zero(self, capsys, tmp_path):
        path = self._write(tmp_path, ["bad,-20,100,1,100"])
        code, out, _ = run_cli(capsys, "arbitrate", path, "--threshold", "0.9")
        assert code == 0
        assert out.splitlines()[-1] == "no candidate admitted"

    def test_csv_format(self, capsys, tmp_path):
        path = self._write(tmp_path, ["a,-100,0,0,0", "b,-20,100,1,100"])
        code, out, _ = run_cli(capsys, "arbitrate", path, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rank,id,possibility,admitted"
        assert lines[1].startswith("1,a,") and lines[1].endswith(",true")
        assert lines[2].startswith("2,b,") and lines[2].endswith(",false")

    def test_csv_format_quotes_ids_that_need_it(self, capsys, tmp_path):
        path = tmp_path / "batch.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HEADER.split(","))
            writer.writerows(
                [["a,b", -100, 0, 0, 0], ["x\ny", -20, 100, 1, 100], ["plain", -60, 50, 0.5, 50]]
            )
        code, out, _ = run_cli(capsys, "arbitrate", str(path), "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert all(len(row) == 4 for row in rows)
        assert [row[1] for row in rows] == ["id", "a,b", "plain", "x\ny"]
        assert out.splitlines()[2].startswith("2,plain,")

    def test_csv_format_quotes_ids_with_carriage_returns(self, capsys, tmp_path):
        ids = ["a\rb", "a\nb", "a\r\nb"]
        path = tmp_path / "batch.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HEADER.split(","))
            writer.writerows([[cid, -100 + 20 * k, 0, 0, 0] for k, cid in enumerate(ids)])
        code, out, _ = run_cli(capsys, "arbitrate", str(path), "--format", "csv")
        assert code == 0
        records = list(csv.reader(io.StringIO(out, newline="")))
        assert len(records) == 1 + len(ids)
        assert {len(record) for record in records} == {4}
        assert sorted(record[1] for record in records[1:]) == sorted(ids)

    # at least two fields: csv.writer writes a record of one empty field as
    # "", and every listing here has four fields or more
    @given(st.lists(st.one_of(st.text(), st.sampled_from(ODD_IDS)), min_size=2, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_csv_fields_are_quoted_as_csv_writer_quotes_them(self, fields):
        records = []
        csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n").writerow(fields)
        assert ",".join(_csv_fields(fields)) == records[0][:-2]

    def test_human_format_escapes_unprintable_ids(self, capsys, tmp_path):
        path = tmp_path / "batch.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HEADER.split(","))
            writer.writerows([["x\ny", -100, 0, 0, 0], ["tab\there", -60, 50, 0.5, 50],
                              ["plain id", -20, 100, 1, 100]])
        code, out, _ = run_cli(capsys, "arbitrate", str(path))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[1].startswith("  1. 'x\\ny'  possibility=")
        assert lines[2].startswith("  2. 'tab\\there'  possibility=")
        assert lines[3].startswith("  3. plain id  possibility=")
        assert lines[4] == "winner: 'x\\ny'"

    # no shrink phase either: each example runs cli.main, so shrinking a
    # failure took most of a minute; the reader's own property shrinks the
    # same faults in about a second
    @given(candidate_files())
    @settings(max_examples=150, deadline=None, phases=tuple(p for p in NO_EXPLAIN_PHASES if p is not Phase.shrink))
    def test_bad_file_exits_one_with_the_reader_message(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "batch.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["arbitrate", path, "--format", "csv"])
            try:
                reference_read_candidates(path, error=CandidatesCsvError)
            except (CandidatesCsvError, ValueError) as exc:
                assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {exc}\n")
            else:
                # a batch that reads can still be empty or hold a duplicate id
                assert code == 0 or (code == 1 and out.getvalue() == "")
                assert "Traceback" not in err.getvalue()

    def test_deterministic_bytes(self, capsys, tmp_path):
        path = self._write(tmp_path, ["a,-60,50,0.5,50", "b,-80,20,0.2,30"])
        _, first, _ = run_cli(capsys, "arbitrate", path)
        _, second, _ = run_cli(capsys, "arbitrate", path)
        assert first == second

    def test_utf8_bom_is_ignored(self, capsys, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text(f"{HEADER}\nmid,-60,50,0.5,50\ngood,-100,0,0,0\n", encoding="utf-8")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for fmt in ("human", "csv"):
            expected = run_cli(capsys, "arbitrate", str(plain), "--format", fmt)
            assert expected[0] == 0
            assert run_cli(capsys, "arbitrate", str(bom), "--format", fmt) == expected


class TestSweep:
    def test_preset_writes_41_by_41(self, capsys, tmp_path):
        out_path = tmp_path / "fig7.csv"
        code, _, _ = run_cli(capsys, "sweep", "--preset", "7", "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 42
        assert all(len(line.split(",")) == 42 for line in lines)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "sweep", "--preset", "8", "--steps", "9", "--output", str(a))
        run_cli(capsys, "sweep", "--preset", "8", "--steps", "9", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_preset_conflicts_with_explicit_flags(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--preset", "7", "--axis1", "signal_dbm:-100:-20"
        )
        assert code == 2
        assert "conflicts" in err

    def test_explicit_degenerate_sweep_matches_eval(self, capsys, tmp_path):
        out_path = tmp_path / "deg.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--axis1", "signal_dbm:-60:-60",
            "--axis2", "distance_m:50:50",
            "--fix", "velocity_kmh=50",
            "--fix", "spectrum_ratio=0.5",
            "--steps", "2",
            "--output", str(out_path),
        )
        assert code == 0
        want = decision_possibility(Candidate("c", -60, 50, 0.5, 50)).possibility
        body = [line.split(",")[1:] for line in out_path.read_text().splitlines()[1:]]
        assert all(cell == f"{want:.6f}" for row in body for cell in row)

    def test_out_of_universe_axis_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--axis1", "signal_dbm:-150:-20",
            "--axis2", "distance_m:0:100",
            "--fix", "velocity_kmh=50",
            "--fix", "spectrum_ratio=0.5",
        )
        assert code == 1
        assert "outside" in err

    @pytest.mark.parametrize(
        "axis1, fix_velocity",
        [("signal_dbm:-100:-20", "velocity_kmh=nan"), ("signal_dbm:nan:-20", "velocity_kmh=50")],
    )
    def test_non_finite_sweep_inputs_rejected(self, capsys, axis1, fix_velocity):
        code, out, err = run_cli(
            capsys,
            "sweep",
            "--axis1", axis1,
            "--axis2", "distance_m:0:100",
            "--fix", fix_velocity,
            "--fix", "spectrum_ratio=0.5",
        )
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_steps_above_limit_rejected(self, capsys):
        for steps in ("1002", "1"):
            code, out, err = run_cli(capsys, "sweep", "--preset", "7", "--steps", steps)
            assert code == 1
            assert out == ""
            assert "steps must be in [2, 1001]" in err

    @pytest.mark.parametrize(
        "axis1, fix_velocity, message",
        [
            ("signal_dbm:-100", "velocity_kmh=50", "bad axis 'signal_dbm:-100'; expected NAME:LO:HI"),
            ("signal_dbm:low:-20", "velocity_kmh=50", "bad axis 'signal_dbm:low:-20': could not convert string to float: 'low'"),
            ("signal_dbm:-100:-20x", "velocity_kmh=50", "bad axis 'signal_dbm:-100:-20x': could not convert string to float: '-20x'"),
            ("signal_dbm:-100:-20", "velocity_kmh50", "bad --fix 'velocity_kmh50'; expected NAME=VALUE"),
            ("signal_dbm:-100:-20", "velocity_kmh=fast", "bad --fix 'velocity_kmh=fast': could not convert string to float: 'fast'"),
        ],
        ids=["axis-not-name-lo-hi", "bad-axis-lo", "bad-axis-hi", "fix-without-equals", "bad-fix-number"],
    )
    def test_malformed_axis_or_fix_is_a_usage_error(self, capsys, axis1, fix_velocity, message):
        code, out, err = run_cli(
            capsys,
            "sweep",
            "--axis1", axis1,
            "--axis2", "distance_m:0:100",
            "--fix", fix_velocity,
            "--fix", "spectrum_ratio=0.5",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_variable_fixed_twice_rejected(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep",
            "--axis1", "signal_dbm:-100:-20",
            "--axis2", "distance_m:0:100",
            "--fix", "velocity_kmh=50",
            "--fix", "velocity_kmh=60",
            "--fix", "spectrum_ratio=0.5",
        )
        assert (code, out, err) == (1, "", "error: fixed values name a variable twice\n")

    def test_missing_explicit_pieces(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis1", "signal_dbm:-100:-20")
        assert code == 2
        assert "--axis2" in err

    def test_stdout_when_no_output_path(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "9", "--steps", "3")
        assert code == 0
        assert len(out.splitlines()) == 4


class TestValidate:
    def test_embedded_model_is_complete(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert out == "81 rules, complete\n"

    def test_shipped_document_is_complete(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        for prefix in ("", "\ufeff"):  # with and without a UTF-8 byte-order mark
            path.write_text(prefix + serialize_document(default_document()), encoding="utf-8")
            code, out, _ = run_cli(capsys, "validate", "--model", str(path))
            assert code == 0
            assert out == "81 rules, complete\n"

    def test_rule_count_is_read_from_the_rule_table(self, capsys, tmp_path):
        # a complete rule base over two of the inputs: 3 x 3 rules
        model = default_model()
        rules = [((i, j), (i + j) % 3, 1.0) for i in range(3) for j in range(3)]
        path = tmp_path / "model.json"
        path.write_text(serialize_document(ModelDocument(FuzzyModel(model.inputs[:2], model.output, rules))), encoding="utf-8")
        assert run_cli(capsys, "validate", "--model", str(path)) == (0, "9 rules, complete\n", "")

    def test_missing_rule_is_reported(self, capsys, tmp_path):
        raw = json.loads(serialize_document(default_document()))
        del raw["rules"][1]  # (Low, Low, Low, Medium)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "validate", "--model", str(path))
        assert code == 1
        assert "missing antecedent combination (Low, Low, Low, Medium)" in out

    def test_huge_integer_exits_one_without_traceback(self, capsys, tmp_path):
        raw = json.loads(serialize_document(default_document()))
        raw["rules"][4]["weight"] = 10**400
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert run_cli(capsys, "validate", "--model", str(path)) == (
            1, "", "error: rule 5: rule weight must be in [0, 1], got inf\n"
        )

    def test_a_term_name_with_a_line_break_keeps_one_line_per_failure(self, capsys, tmp_path):
        path = Path(model_with_term_named(tmp_path, "Lo\nw", input_index=0))
        raw = json.loads(path.read_text(encoding="utf-8"))
        del raw["rules"][0]  # ("Lo\nw", Low, Low, Low)
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, _ = run_cli(capsys, "validate", "--model", str(path))
        assert code == 1
        assert out.splitlines() == [
            "rule count 80 != expected 81",
            "missing antecedent combination ('Lo\\nw', Low, Low, Low)",
        ]

    def test_off_weight_is_reported(self, capsys, tmp_path):
        raw = json.loads(serialize_document(default_document()))
        raw["rules"][4]["weight"] = 0.9
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "validate", "--model", str(path))
        assert code == 1
        assert "rule 5: weight 0.9 deviates from 1" in out

    def test_non_finite_universe_rejected(self, capsys, tmp_path):
        raw = json.loads(serialize_document(default_document()))
        raw["variables"]["output"]["lo"] = float("-inf")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "validate", "--model", str(path))
        assert code == 1
        assert out == ""
        assert "finite" in err

    @staticmethod
    def _sigma(raw, variable, sigma):
        variable = raw["variables"]["inputs"][0] if variable == "input" else raw["variables"]["output"]
        variable["terms"][1]["sigma"] = sigma

    @staticmethod
    def _wide(raw, variable, bound, sigma):
        variable = raw["variables"]["inputs"][0] if variable == "input" else raw["variables"]["output"]
        variable["lo"], variable["hi"] = -bound, bound
        for term, center in zip(variable["terms"], (-bound / 2, 0.0, bound / 2)):
            term["center"], term["sigma"] = center, sigma

    @staticmethod
    def _many_output_terms(raw, n, grid_points):
        output = raw["variables"]["output"]
        output["terms"] = [{"name": f"t{k}", "center": k / (n - 1), "sigma": 0.05} for k in range(n)]
        for rule in raw["rules"]:
            rule["consequent"] = "t0"
        raw["settings"]["grid_points"] = grid_points

    @pytest.mark.parametrize(
        "edit, message",
        [
            # these scored nan, nan, -inf and nan with exit 0, and validated as complete
            pytest.param(
                lambda raw: TestValidate._sigma(raw, "input", 1e-170),
                "term 'Medium': sigma 1e-170 out of range, 2*sigma*sigma must be positive and finite, got 0.0",
                id="input-sigma-1e-170",
            ),
            pytest.param(
                lambda raw: TestValidate._sigma(raw, "output", 1e-200),
                "term 'Medium': sigma 1e-200 out of range, 2*sigma*sigma must be positive and finite, got 0.0",
                id="output-sigma-1e-200",
            ),
            pytest.param(
                lambda raw: TestValidate._wide(raw, "output", 1e307, 1e153),
                "variable 'decision': output universe [-1e+307, 1e+307] too wide to defuzzify, "
                "(hi - lo) * max(|lo|, |hi|) must be finite",
                id="output-universe-1e307",
            ),
            pytest.param(
                lambda raw: TestValidate._wide(raw, "output", 1e200, 1e150),
                "variable 'decision': output universe [-1e+200, 1e+200] too wide to defuzzify, "
                "(hi - lo) * max(|lo|, |hi|) must be finite",
                id="output-universe-1e200",
            ),
            # these scored a number with exit 0, after numpy's overflow warning
            pytest.param(
                lambda raw: TestValidate._wide(raw, "input", 1e200, 1e150),
                "variable 'signal_dbm': term 'Low' exponent overflows at the universe's bounds, "
                "d*d / (2*sigma*sigma) must be finite, got d = 1.5e+200, sigma = 1e+150",
                id="input-universe-1e200",
            ),
            pytest.param(
                lambda raw: TestValidate._sigma(raw, "output", 1e-160),
                "variable 'decision': term 'Medium' exponent overflows at the universe's bounds, "
                "d*d / (2*sigma*sigma) must be finite, got d = 0.5, sigma = 1e-160",
                id="output-sigma-1e-160",
            ),
            # 40*40 / (2*sigma*sigma) overflows, though 40*40 / (4*sigma*sigma) would not
            pytest.param(
                lambda raw: TestValidate._sigma(raw, "input", 1.8e-153),
                "variable 'signal_dbm': term 'Medium' exponent overflows at the universe's bounds, "
                "d*d / (2*sigma*sigma) must be finite, got d = 40.0, sigma = 1.8e-153",
                id="input-sigma-within-twice-the-overflow",
            ),
            # a 13 KB document that built 100 term curves of 100001 points
            pytest.param(
                lambda raw: TestValidate._many_output_terms(raw, 100, MAX_GRID_POINTS),
                f"output terms x grid_points must be <= {10 * MAX_GRID_POINTS}, got 100 x {MAX_GRID_POINTS}",
                id="100-output-terms-at-100001",
            ),
        ],
    )
    @pytest.mark.parametrize("command", [["eval", "-60", "50", "0.5", "50"], ["validate"]], ids=["eval", "validate"])
    def test_model_that_cannot_score_exits_one(self, capsys, tmp_path, edit, message, command):
        raw = json.loads(serialize_document(default_document()))
        edit(raw)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert run_cli(capsys, *command, "--model", str(path)) == (1, "", f"error: {message}\n")

    def test_unparseable_document(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", "--model", str(path))
        assert code == 1
        assert "line 1" in err

    @pytest.mark.parametrize("text", UNDECODABLE_JSON.values(), ids=UNDECODABLE_JSON.keys())
    def test_undecodable_json_exits_one_without_traceback(self, capsys, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "validate", "--model", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unreadable_model_path(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "eval", "-60", "50", "0.5", "50",
                               "--model", str(tmp_path / "nope.json"))
        assert code == 1
        assert "cannot read" in err


class TestDumpRules:
    def test_row_46(self, capsys):
        code, out, _ = run_cli(capsys, "dump-rules")
        assert code == 0
        assert out.splitlines()[45] == "46. Medium, High, Low, Low -> High"

    def test_81_rows(self, capsys):
        _, out, _ = run_cli(capsys, "dump-rules")
        assert len(out.splitlines()) == 81

    def test_a_term_name_with_a_line_break_keeps_one_line_per_rule(self, capsys, tmp_path):
        path = model_with_term_named(tmp_path, "Hi\ngh", term=2)
        code, out, _ = run_cli(capsys, "dump-rules", "--model", path)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 81
        assert lines[0] == "1. Low, Low, Low, Low -> 'Hi\\ngh'"
        assert lines[2] == "3. Low, Low, Low, High -> Medium"

    def test_csv_rows_follow_the_rule_table(self, capsys):
        code, out, _ = run_cli(capsys, "dump-rules", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "row,signal_dbm,velocity_kmh,spectrum_ratio,distance_m,decision,weight"
        assert [line.split(",") for line in lines[1:]] == rule_table_rows()

    def test_csv_quotes_a_name_holding_a_carriage_return(self, capsys, tmp_path):
        model = default_model()
        signal = model.inputs[0]
        signal = replace(signal, terms=(replace(signal.terms[0], name="Lo\rw"), *signal.terms[1:]))
        path = tmp_path / "model.json"
        path.write_text(serialize_document(ModelDocument(replace(model, inputs=(signal, *model.inputs[1:])))))
        code, out, _ = run_cli(capsys, "dump-rules", "--format", "csv", "--model", str(path))
        assert code == 0
        records = list(csv.reader(io.StringIO(out, newline="")))
        assert len(records) == 1 + 81
        assert [record[1] for record in records[1:]] == ["Lo\rw" if row[1] == "Low" else row[1] for row in rule_table_rows()]


def run_module(*argv):
    """python -m fuzzyspectrum in a child process that imports the package
    under test, whether or not it is installed."""
    package_root = str(Path(fuzzyspectrum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fuzzyspectrum", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


class TestInProcessReuse:
    def test_successive_calls_give_identical_bytes(self, capsys, tmp_path):
        # one parser serves every call in the process: an appended --fix list
        # left over from one call would make the preset sweep after it fail
        # with "conflicts"
        csv_path = tmp_path / "batch.csv"
        csv_path.write_text(HEADER + "\na,-90,10,0.2,20\nb,-60,50,0.5,50\n")
        commands = [
            ("sweep", "--axis1", "signal_dbm:-100:-20", "--axis2", "distance_m:0:100",
             "--fix", "velocity_kmh=50", "--fix", "spectrum_ratio=0.5", "--steps", "5"),
            ("sweep", "--preset", "7", "--steps", "5"),
            ("arbitrate", str(csv_path), "--format", "csv"),
            ("eval", "-72.3", "18", "0.81", "64", "--trace"),
        ]
        first = [run_cli(capsys, *argv) for argv in commands]
        second = [run_cli(capsys, *argv) for argv in commands]
        assert [code for code, _, _ in first] == [0] * len(commands)
        assert second == first

    def test_help_matches_a_fresh_parser(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                main(["--help"])
            assert excinfo.value.code == 0
            assert capsys.readouterr().out == build_parser().format_help()


# the options each command's cmd_* reads, in the order --help lists them
COMMAND_OPTIONS = {
    "eval": ["--trace", "--format", "--model", "--threshold", "--grid-points", "--output"],
    "arbitrate": ["--format", "--model", "--threshold", "--grid-points", "--output"],
    "sweep": ["--preset", "--axis1", "--axis2", "--fix", "--steps", "--model", "--grid-points", "--output"],
    "validate": ["--model", "--output"],
    "dump-rules": ["--format", "--model", "--output"],
}
# a run of each command that reads every option it takes
COMMAND_RUNS = {
    "eval": ["-60", "50", "0.5", "50"],
    "arbitrate": ["CSV"],
    "sweep": ["--preset", "7", "--steps", "2"],
    "validate": [],
    "dump-rules": [],
}


class ReadRecorder(argparse.Namespace):
    """A Namespace that records the name of each attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


class TestOptions:
    def test_the_table_names_every_command(self):
        assert list(subcommand_parsers()) == list(COMMAND_OPTIONS)

    @pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
    def test_each_command_takes_exactly_the_options_it_reads(self, capsys, tmp_path, command):
        actions = [a for a in subcommand_parsers()[command]._actions if a.option_strings and a.dest != "help"]
        assert [flag for a in actions for flag in a.option_strings] == COMMAND_OPTIONS[command]

        csv_path = tmp_path / "batch.csv"
        csv_path.write_text(HEADER + "\na,-90,10,0.2,20\n")
        argv = [command, *(str(csv_path) if token == "CSV" else token for token in COMMAND_RUNS[command])]
        args = ReadRecorder()
        args._read = set()
        build_parser().parse_args(argv, namespace=args)
        args._read.clear()  # parsing reads every option too
        assert args.func(args) == 0
        capsys.readouterr()
        assert {a.dest for a in actions} <= args._read

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--preset", "7", "--threshold", "0.5"],
            ["validate", "--threshold", "0.5"],
            ["dump-rules", "--threshold", "0.5"],
            ["validate", "--grid-points", "11"],
            ["dump-rules", "--grid-points", "11"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-2]}",
    )
    def test_an_option_the_command_does_not_read_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")
        assert "Traceback" not in captured.err


def _rename_input_with_a_center_outside(raw):
    var = raw["variables"]["inputs"][1]
    var["name"] = "v\nx"
    var["terms"][0]["center"] = -5.0


# the rest of an explicit sweep after its --axis1
REST_OF_SWEEP = ["--axis2", "distance_m:0:100", "--fix", "velocity_kmh=50", "--fix", "spectrum_ratio=0.5"]


class TestOneErrorLine:
    """A name, key or argument that is not printable is quoted as its repr,
    so the error stays one line."""

    @pytest.mark.parametrize(
        "edit, argv, code, message",
        [
            (lambda raw: raw.update({"a\nb": 1}), ["validate"], 1, "unknown field 'a\\nb' in document"),
            (lambda raw: raw["rules"][0].update(consequent="Hi\ngh"), ["validate"], 1,
             "rule 1: variable 'decision' has no term named 'Hi\\ngh'"),
            (lambda raw: raw["variables"]["inputs"][0]["terms"][0].update(name="L\nx", sigma=-1.0), ["validate"], 1,
             "term 'L\\nx': sigma must be positive, got -1.0"),
            (_rename_input_with_a_center_outside, ["validate"], 1,
             "variable 'v\\nx': term 'Low' center -5.0 outside universe [0.0, 100.0]"),
            (None, ["sweep", "--axis1", "sig\nnal:-100:-20", *REST_OF_SWEEP], 1, "unknown variable 'sig\\nnal'"),
            (None, ["sweep", "--axis1", "a\nb", *REST_OF_SWEEP], 2, "bad axis 'a\\nb'; expected NAME:LO:HI"),
            (None, ["sweep", "--axis1", "signal_dbm:-100:-20", *REST_OF_SWEEP[:2], "--fix", "a\nb", *REST_OF_SWEEP[4:]], 2,
             "bad --fix 'a\\nb'; expected NAME=VALUE"),
        ],
        ids=["document-key", "term-index", "term", "variable", "sweep-axis-name", "axis-text", "fix-text"],
    )
    def test_message_is_one_line(self, capsys, tmp_path, edit, argv, code, message):
        if edit is not None:
            raw = json.loads(serialize_document(default_document()))
            edit(raw)
            path = tmp_path / "model.json"
            path.write_text(json.dumps(raw))
            argv = [*argv, "--model", str(path)]
        assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, what",
        [(["validate", "--model"], "model document"), (["arbitrate"], "candidates CSV")],
        ids=["validate", "arbitrate"],
    )
    def test_a_path_with_a_line_break_is_quoted_as_its_repr(self, capsys, tmp_path, argv, what):
        path = str(tmp_path / "no\nsuch.file")
        message = f"error: cannot read {what} {path!r}: [Errno 2] No such file or directory: {path!r}\n"
        assert run_cli(capsys, *argv, path) == (1, "", message)


# tokens for random command lines: numbers, odd numbers and junk
NUMBERS = ["0", "-1", "0.5", "50", "-60", "100", "-0.0", "1e999", "nan", "-inf", "abc", ""]
# grid points and steps only far below or above their caps, which are
def _swap_first_two_inputs(raw):
    # the same model: the rules' antecedents are permuted with the inputs
    inputs = raw["variables"]["inputs"]
    inputs[0], inputs[1] = inputs[1], inputs[0]
    for rule in raw["rules"]:
        names = rule["antecedents"]
        names[0], names[1] = names[1], names[0]


def _rename_signal(raw):
    raw["variables"]["inputs"][0]["name"] = "rssi"


class TestCandidateInputOrder:
    """eval and arbitrate feed a candidate's fields to the model by position."""

    @pytest.mark.parametrize(
        "edit, got",
        [
            (_swap_first_two_inputs, "velocity_kmh, signal_dbm, spectrum_ratio, distance_m"),
            (_rename_signal, "rssi, velocity_kmh, spectrum_ratio, distance_m"),
        ],
        ids=["reordered", "renamed"],
    )
    @pytest.mark.parametrize("command", ["eval", "arbitrate"])
    def test_inputs_other_than_the_candidate_fields_are_rejected(self, capsys, tmp_path, edit, got, command):
        raw = json.loads(serialize_document(default_document()))
        edit(raw)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        # the edited document is a valid model; only its input order differs
        assert run_cli(capsys, "validate", "--model", str(path)) == (0, "81 rules, complete\n", "")
        batch = tmp_path / "batch.csv"
        batch.write_text(HEADER + "\na,-80,20,0.3,40\n")
        args = ["-80", "20", "0.3", "40"] if command == "eval" else [str(batch)]
        message = f"error: model inputs must be signal_dbm, velocity_kmh, spectrum_ratio, distance_m in that order, got {got}\n"
        assert run_cli(capsys, command, *args, "--model", str(path)) == (1, "", message)


class TestUndecodableFiles:
    def test_arbitrate_names_the_csv(self, capsys, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_bytes(f"{HEADER}\n\xff,-60,50,0.5,50\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "arbitrate", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read candidates CSV '{path}': 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_validate_names_the_document(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"schema_version": "\xff"}')
        code, out, err = run_cli(capsys, "validate", "--model", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read model document '{path}': 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1


# checked before anything is allocated
GRID_POINTS = ["-1", "0", "1", "2", "3", "11", str(MAX_GRID_POINTS + 1), "10000000000", "x"]
STEPS = ["-1", "0", "1", "2", "3", "5", str(MAX_STEPS + 1), "10000000000", "x"]
JUNK = ["", "-", "--", "x", "-h", "--bogus", "eval", "7", "\u00fc", "a:b:c", "="]


COMMANDS = ("arbitrate", "dump-rules", "eval", "evaluate", "sweep", "validate")


@st.composite
def random_argv(draw, tmp_path, command):
    """A command line of command, one of COMMANDS: its flags and small
    numeric or junk values, now and then with a flag or token that does not
    belong; --output only ever names a path under tmp_path."""
    names = ["signal_dbm", "velocity_kmh", "spectrum_ratio", "distance_m", "speed", ""]
    number = st.sampled_from(NUMBERS)
    path = st.sampled_from(
        [str(tmp_path / name) for name in ("good.csv", "bad.csv", "model.json", "bad.json", "missing")]
        + [str(tmp_path)]
    )
    axis = st.builds(lambda n, lo, hi: f"{n}:{lo}:{hi}", st.sampled_from(names), number, number)
    # file options, which every command takes
    files = [
        st.tuples(st.just("--model"), path),
        st.tuples(st.just("--output"), st.sampled_from(
            [str(tmp_path / "out.txt"), str(tmp_path / "no" / "out.txt"), str(tmp_path)])),
    ]
    threshold = st.tuples(st.just("--threshold"), number)
    grid_points = st.tuples(st.just("--grid-points"), st.sampled_from(GRID_POINTS))
    fmt = st.tuples(st.just("--format"), st.sampled_from(["human", "csv", "table", "json"]))
    flags = {
        "eval": [*files, threshold, grid_points, fmt, st.just(("--trace",))],
        "arbitrate": [*files, threshold, grid_points, fmt],
        "sweep": [
            *files,
            grid_points,
            st.tuples(st.just("--preset"), st.sampled_from(["7", "9", "11", "6", "x"])),
            st.tuples(st.sampled_from(["--axis1", "--axis2"]), st.one_of(axis, st.sampled_from(JUNK))),
            st.tuples(st.just("--fix"), st.builds("{}={}".format, st.sampled_from(names), number)),
            st.tuples(st.just("--steps"), st.sampled_from(STEPS)),
        ],
        "validate": files,
        "dump-rules": [*files, fmt],
        "evaluate": [*files, threshold, grid_points],
    }
    positionals = {"eval": st.lists(number, min_size=4, max_size=4), "arbitrate": st.lists(path, min_size=1, max_size=1)}
    assert sorted(flags) == list(COMMANDS)
    pieces = [(token,) for token in draw(positionals.get(command, st.just([])))]
    pieces += draw(st.lists(st.one_of(flags[command]), max_size=6))
    if draw(st.integers(0, 3)) == 0:
        # --threshold and --grid-points too, a usage error where the command does not take them
        stray = st.one_of(*flags["sweep"], threshold, fmt, st.just(("--trace",)), st.tuples(st.sampled_from(JUNK)))
        pieces.append(draw(stray))
    return [command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


class TestErrorFamily:
    """main reports the package's errors, each a FuzzyError, and lets any
    other error escape with its traceback: a bare ValueError, such as numpy
    raises for a shape fault, is a defect and not bad data."""

    def test_a_bare_value_error_from_the_kernel_escapes_and_a_package_error_exits_one(self, capsys, monkeypatch):
        def infer_row(model, row):
            raise error

        monkeypatch.setattr(fuzzyspectrum.model, "_infer_row", infer_row)
        error = InvalidInputError("rejected")
        assert run_cli(capsys, "eval", "-60", "50", "0.5", "50") == (1, "", "error: rejected\n")
        error = ValueError("boom")
        with pytest.raises(ValueError, match="^boom$") as excinfo:
            main(["eval", "-60", "50", "0.5", "50"])
        assert type(excinfo.value) is ValueError

    @pytest.mark.parametrize("output", [False, True], ids=["stdout", "output-file"])
    def test_a_name_the_output_cannot_encode_exits_one(self, capsys, tmp_path, output):
        # a lone surrogate, which JSON can spell, has no UTF-8 encoding
        argv = ["dump-rules", "--format", "csv", "--model", model_with_term_named(tmp_path, "\ud800")]
        old = tmp_path / "rules.csv"
        old.write_bytes(b"an earlier report\n")
        if output:
            argv += ["--output", str(old)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: 'utf-8' codec can't encode character '\\ud800' in position ")
        assert err.endswith(": surrogates not allowed\n")
        assert old.read_bytes() == b"an earlier report\n"  # not truncated


class TestRandomArgv:
    @pytest.mark.parametrize("command", COMMANDS)
    @given(data=st.data())
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exits_with_a_documented_code(self, tmp_path, command, data):
        (tmp_path / "good.csv").write_text(HEADER + "\na,-90,10,0.2,20\nb,-60,50,0.5,50\n")
        (tmp_path / "bad.csv").write_text(HEADER + "\na,-90,-10,0.2,20\n")
        (tmp_path / "model.json").write_text(serialize_document(ModelDocument(default_model())))
        (tmp_path / "bad.json").write_text("{")
        argv = data.draw(random_argv(tmp_path, command), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                assert main(argv) in (0, 1, 2)
            except SystemExit as exc:  # argparse: --help, or a usage error
                assert exc.code in (0, 2)
        assert "Traceback" not in err.getvalue()


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = run_module("eval", "-60", "50", "0.5", "50")
        assert proc.returncode == 0
        assert proc.stdout.startswith("possibility: ")

    def test_module_invocation_bad_number(self):
        proc = run_module("eval", "-60", "x", "0.5", "50")
        assert proc.returncode == 2
        assert "invalid float value" in proc.stderr
