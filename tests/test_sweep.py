import math

import numpy as np
import pytest

from fuzzyspectrum import (
    Candidate,
    NoRuleFiredError,
    SweepAxis,
    SweepSpec,
    SweepSpecError,
    decision_possibility,
    default_model,
    figure_preset,
    run_sweep,
)

from fuzzyspectrum.sweep import MAX_STEPS

from conftest import dead_model
from oracle import oracle_possibility


class TestFigurePresets:
    def test_preset_7(self):
        spec = figure_preset(7)
        assert (spec.axis1.name, spec.axis2.name) == ("signal_dbm", "distance_m")
        assert spec.fixed_dict() == {"velocity_kmh": 50.0, "spectrum_ratio": 0.5}
        assert spec.axis1.steps == spec.axis2.steps == 41
        assert (spec.axis1.lo, spec.axis1.hi) == (-100.0, -20.0)
        assert (spec.axis2.lo, spec.axis2.hi) == (0.0, 100.0)

    def test_preset_8(self):
        spec = figure_preset(8)
        assert (spec.axis1.name, spec.axis2.name) == ("velocity_kmh", "spectrum_ratio")
        assert spec.fixed_dict() == {"distance_m": 50.0, "signal_dbm": -60.0}

    def test_preset_9(self):
        spec = figure_preset(9)
        assert (spec.axis1.name, spec.axis2.name) == ("signal_dbm", "spectrum_ratio")
        assert spec.fixed_dict() == {"distance_m": 50.0, "velocity_kmh": 50.0}

    def test_preset_10(self):
        spec = figure_preset(10)
        assert (spec.axis1.name, spec.axis2.name) == ("velocity_kmh", "distance_m")
        assert spec.fixed_dict() == {"spectrum_ratio": 0.5, "signal_dbm": -60.0}

    def test_preset_11(self):
        spec = figure_preset(11)
        assert (spec.axis1.name, spec.axis2.name) == ("signal_dbm", "velocity_kmh")
        assert spec.fixed_dict() == {"distance_m": 50.0, "spectrum_ratio": 0.5}

    def test_unknown_preset(self):
        with pytest.raises(SweepSpecError):
            figure_preset(6)
        with pytest.raises(SweepSpecError):
            figure_preset(12)


class TestSpecValidation:
    def test_axes_must_differ(self):
        a = SweepAxis("signal_dbm", -100, -20, 5)
        with pytest.raises(SweepSpecError):
            SweepSpec(axis1=a, axis2=a, fixed={"spectrum_ratio": 0.5, "distance_m": 50})

    def test_swept_variable_cannot_be_fixed(self):
        with pytest.raises(SweepSpecError):
            SweepSpec(
                axis1=SweepAxis("signal_dbm", -100, -20, 5),
                axis2=SweepAxis("distance_m", 0, 100, 5),
                fixed={"signal_dbm": -60.0, "velocity_kmh": 50.0},
            )

    def test_steps_minimum(self):
        with pytest.raises(SweepSpecError):
            SweepAxis("signal_dbm", -100, -20, 1)

    def test_steps_maximum(self):
        # validation only: the axis at the limit is built, never swept
        assert SweepAxis("signal_dbm", -100, -20, MAX_STEPS).steps == MAX_STEPS
        with pytest.raises(SweepSpecError, match="steps"):
            SweepAxis("signal_dbm", -100, -20, MAX_STEPS + 1)

    @pytest.mark.parametrize("lo, hi", [(math.nan, -20), (-100, math.nan), (-math.inf, -20)])
    def test_non_finite_axis_rejected(self, lo, hi):
        with pytest.raises(SweepSpecError, match="finite"):
            SweepAxis("signal_dbm", lo, hi, 3)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fixed_value_rejected(self, value):
        with pytest.raises(SweepSpecError, match="finite"):
            SweepSpec(
                axis1=SweepAxis("signal_dbm", -100, -20, 3),
                axis2=SweepAxis("distance_m", 0, 100, 3),
                fixed={"velocity_kmh": value, "spectrum_ratio": 0.5},
            )

    def test_unknown_variable(self):
        spec = SweepSpec(
            axis1=SweepAxis("snr_db", 0, 1, 3),
            axis2=SweepAxis("distance_m", 0, 100, 3),
            fixed={"velocity_kmh": 50.0, "spectrum_ratio": 0.5},
        )
        with pytest.raises(SweepSpecError, match="snr_db"):
            run_sweep(spec, default_model())

    def test_axis_outside_universe(self):
        spec = SweepSpec(
            axis1=SweepAxis("signal_dbm", -120, -20, 3),
            axis2=SweepAxis("distance_m", 0, 100, 3),
            fixed={"velocity_kmh": 50.0, "spectrum_ratio": 0.5},
        )
        with pytest.raises(SweepSpecError, match="outside"):
            run_sweep(spec, default_model())

    def test_fixed_must_cover_remaining_variables(self):
        spec = SweepSpec(
            axis1=SweepAxis("signal_dbm", -100, -20, 3),
            axis2=SweepAxis("distance_m", 0, 100, 3),
            fixed={"velocity_kmh": 50.0},
        )
        with pytest.raises(SweepSpecError, match="spectrum_ratio"):
            run_sweep(spec, default_model())

    def test_fixed_value_outside_universe(self):
        spec = SweepSpec(
            axis1=SweepAxis("signal_dbm", -100, -20, 3),
            axis2=SweepAxis("distance_m", 0, 100, 3),
            fixed={"velocity_kmh": 150.0, "spectrum_ratio": 0.5},
        )
        with pytest.raises(SweepSpecError, match="outside"):
            run_sweep(spec, default_model())


class TestRunSweep:
    def test_two_by_two_corners_match_single_evaluations(self):
        model = default_model()
        spec = SweepSpec(
            axis1=SweepAxis("signal_dbm", -100.0, -20.0, 2),
            axis2=SweepAxis("distance_m", 0.0, 100.0, 2),
            fixed={"velocity_kmh": 50.0, "spectrum_ratio": 0.5},
        )
        result = run_sweep(spec, model)
        assert result.grid.shape == (2, 2)
        for i, s in enumerate((-100.0, -20.0)):
            for j, d in enumerate((0.0, 100.0)):
                single = decision_possibility(Candidate("c", s, 50.0, 0.5, d), model)
                assert result.grid[i, j] == single.possibility

    def test_preset_center_cell_matches_point_evaluation(self):
        model = default_model()
        result = run_sweep(figure_preset(7), model)
        i = list(result.axis1_values).index(-60.0)
        j = list(result.axis2_values).index(50.0)
        point = decision_possibility(Candidate("c", -60.0, 50.0, 0.5, 50.0), model)
        assert result.grid[i, j] == point.possibility

    def test_dead_model_raises_no_rule_fired(self):
        with pytest.raises(NoRuleFiredError):
            run_sweep(figure_preset(7, steps=5), dead_model())

    def test_values_in_unit_interval(self):
        result = run_sweep(figure_preset(8, steps=9))
        assert np.all(result.grid >= 0.0)
        assert np.all(result.grid <= 1.0)

    def test_cells_match_oracle(self):
        model = default_model()
        result = run_sweep(figure_preset(7, steps=5), model)
        fixed = result.spec.fixed_dict()
        for i, s in enumerate(result.axis1_values):
            for j, d in enumerate(result.axis2_values):
                want = oracle_possibility(
                    model, [s, fixed["velocity_kmh"], fixed["spectrum_ratio"], d]
                )
                assert abs(result.grid[i, j] - want) < 1e-6

    def test_degenerate_equal_corner_axes(self):
        model = default_model()
        spec = SweepSpec(
            axis1=SweepAxis("signal_dbm", -60.0, -60.0, 2),
            axis2=SweepAxis("distance_m", 50.0, 50.0, 2),
            fixed={"velocity_kmh": 50.0, "spectrum_ratio": 0.5},
        )
        result = run_sweep(spec, model)
        point = decision_possibility(Candidate("c", -60.0, 50.0, 0.5, 50.0), model)
        assert np.all(result.grid == point.possibility)

    def test_repeat_run_bit_identical(self):
        spec = figure_preset(10, steps=7)
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert np.array_equal(a.grid, b.grid)
        assert np.array_equal(a.axis1_values, b.axis1_values)


class TestSurfaceTrends:
    def test_low_signal_beats_high_signal_at_close_distance(self):
        # under the preset-7 configuration the rule base maps Low-signal
        # rows to higher consequents than High-signal rows
        result = run_sweep(figure_preset(7))
        i_low = list(result.axis1_values).index(-100.0)
        i_high = list(result.axis1_values).index(-20.0)
        j_close = list(result.axis2_values).index(0.0)
        assert result.grid[i_low, j_close] > result.grid[i_high, j_close]

    def test_free_spectrum_does_not_hurt(self):
        # preset 8, velocity slice at 50: ratio 0 (plenty of free channels)
        # must do at least as well as ratio 1
        result = run_sweep(figure_preset(8))
        i_vel = list(result.axis1_values).index(50.0)
        j_low = list(result.axis2_values).index(0.0)
        j_high = list(result.axis2_values).index(1.0)
        assert result.grid[i_vel, j_low] >= result.grid[i_vel, j_high]
