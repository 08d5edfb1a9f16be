import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzyspectrum
from fuzzyspectrum import Candidate, decision_possibility, default_model
from fuzzyspectrum.cli import main
from fuzzyspectrum.serialization import ModelDocument, default_document, serialize_document

from conftest import dead_model

HEADER = "id,signal_dbm,velocity_kmh,spectrum_ratio,distance_m"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_matches_library_evaluation(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "-60", "50", "0.5", "50")
        assert code == 0
        want = decision_possibility(Candidate("c", -60, 50, 0.5, 50)).possibility
        assert out.splitlines()[0] == f"possibility: {want:.6f}"
        assert out.splitlines()[1] in ("admitted: yes", "admitted: no")

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

    def test_header_only_is_an_error(self, capsys, tmp_path):
        path = self._write(tmp_path, [])
        code, _, err = run_cli(capsys, "arbitrate", path)
        assert code == 1
        assert "no candidates" in err

    def test_duplicate_id_named(self, capsys, tmp_path):
        path = self._write(tmp_path, ["u1,-60,50,0.5,50", "u1,-100,0,0,0"])
        code, _, err = run_cli(capsys, "arbitrate", path)
        assert code == 1
        assert "'u1'" in err

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

    def test_missing_rule_is_reported(self, capsys, tmp_path):
        raw = json.loads(serialize_document(default_document()))
        del raw["rules"][1]  # (Low, Low, Low, Medium)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "validate", "--model", str(path))
        assert code == 1
        assert "missing antecedent combination (Low, Low, Low, Medium)" in out

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

    def test_unparseable_document(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", "--model", str(path))
        assert code == 1
        assert "line 1" in err

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

    def test_csv_round_trips_to_identical_inference(self, capsys):
        from fuzzyspectrum import infer, rules_from_csv
        from fuzzyspectrum.engine import FuzzyModel

        _, out, _ = run_cli(capsys, "dump-rules", "--format", "csv")
        model = default_model()
        rebuilt = FuzzyModel(
            inputs=model.inputs,
            output=model.output,
            rules=rules_from_csv(out, model.inputs, model.output),
            grid_points=model.grid_points,
        )
        x = [-66.0, 42.0, 0.35, 58.0]
        assert infer(rebuilt, x).crisp_output == infer(model, x).crisp_output


def run_module(*argv):
    """python -m fuzzyspectrum in a child process that imports the package
    under test, whether or not it is installed."""
    package_root = str(Path(fuzzyspectrum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fuzzyspectrum", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = run_module("eval", "-60", "50", "0.5", "50")
        assert proc.returncode == 0
        assert proc.stdout.startswith("possibility: ")

    def test_module_invocation_bad_number(self):
        proc = run_module("eval", "-60", "x", "0.5", "50")
        assert proc.returncode == 2
        assert "invalid float value" in proc.stderr
