import math

import numpy as np
import pytest

from fuzzyspectrum import (
    Candidate,
    NoRuleFiredError,
    SweepAxis,
    SweepResult,
    SweepSpec,
    SweepSpecError,
    decision_possibility,
    default_model,
    figure_preset,
    format_surface_csv,
    run_sweep,
)

from fuzzyspectrum.sweep import MAX_STEPS

from conftest import dead_model, exact_outputs, traced_peak
from oracle import oracle_possibility


class TestFigurePresets:
    def test_preset_7(self):
        spec = figure_preset(7)
        assert (spec.axis1.name, spec.axis2.name) == ("signal_dbm", "distance_m")
        assert dict(spec.fixed) == {"velocity_kmh": 50.0, "spectrum_ratio": 0.5}
        assert spec.axis1.steps == spec.axis2.steps == 41
        assert (spec.axis1.lo, spec.axis1.hi) == (-100.0, -20.0)
        assert (spec.axis2.lo, spec.axis2.hi) == (0.0, 100.0)

    def test_preset_8(self):
        spec = figure_preset(8)
        assert (spec.axis1.name, spec.axis2.name) == ("velocity_kmh", "spectrum_ratio")
        assert dict(spec.fixed) == {"distance_m": 50.0, "signal_dbm": -60.0}

    def test_preset_9(self):
        spec = figure_preset(9)
        assert (spec.axis1.name, spec.axis2.name) == ("signal_dbm", "spectrum_ratio")
        assert dict(spec.fixed) == {"distance_m": 50.0, "velocity_kmh": 50.0}

    def test_preset_10(self):
        spec = figure_preset(10)
        assert (spec.axis1.name, spec.axis2.name) == ("velocity_kmh", "distance_m")
        assert dict(spec.fixed) == {"spectrum_ratio": 0.5, "signal_dbm": -60.0}

    def test_preset_11(self):
        spec = figure_preset(11)
        assert (spec.axis1.name, spec.axis2.name) == ("signal_dbm", "velocity_kmh")
        assert dict(spec.fixed) == {"distance_m": 50.0, "spectrum_ratio": 0.5}

    def test_unknown_preset(self):
        with pytest.raises(SweepSpecError):
            figure_preset(6)
        with pytest.raises(SweepSpecError):
            figure_preset(12)
        with pytest.raises(SweepSpecError, match=r"^unknown figure preset \[7\]; expected one of 7\.\.11$"):
            figure_preset([7])


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

    @pytest.mark.parametrize("steps", [5.0, np.int64(5), 2.9, "5", None])
    def test_steps_must_be_an_integer(self, steps):
        # read as int() reads it and equal to that int, as a rule index is
        if steps == 5:
            assert type(SweepAxis("signal_dbm", -100, -20, steps).steps) is int
        else:
            with pytest.raises(SweepSpecError) as excinfo:
                SweepAxis("signal_dbm", -100, -20, steps)
            assert str(excinfo.value) == f"axis 'signal_dbm': steps must be an integer, got {steps}"

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

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SweepAxis("signal_dbm", -20, -100, 3), "axis 'signal_dbm': lo -20.0 > hi -100.0"),
            (
                lambda: SweepSpec(
                    axis1=SweepAxis("signal_dbm", -100, -20, 3),
                    axis2=SweepAxis("distance_m", 0, 100, 3),
                    fixed=(("velocity_kmh", 50.0), ("velocity_kmh", 60.0)),
                ),
                "fixed values name a variable twice",
            ),
            (
                lambda: run_sweep(
                    SweepSpec(
                        axis1=SweepAxis("signal_dbm", -100, -20, 3),
                        axis2=SweepAxis("distance_m", 0, 100, 3),
                        fixed={"velocity_kmh": 50.0, "spectrum_ratio": 0.5, "snr_db": 3.0},
                    ),
                    default_model(),
                ),
                "unexpected fixed values for ['snr_db']",
            ),
            # a value float() rejects is named; an int too large for a float
            # reads as the inf of its sign
            (lambda: SweepAxis("signal_dbm", "a", -20, 5), "axis 'signal_dbm': lo must be a real number, got 'a'"),
            (lambda: SweepAxis("signal_dbm", -100, None, 5), "axis 'signal_dbm': hi must be a real number, got None"),
            (lambda: SweepAxis("signal_dbm", -(10**400), -20, 5), "axis 'signal_dbm': range [-inf, -20.0] must be finite"),
            (
                lambda: SweepSpec(
                    axis1=SweepAxis("signal_dbm", -100, -20, 3),
                    axis2=SweepAxis("distance_m", 0, 100, 3),
                    fixed={"velocity_kmh": "x", "spectrum_ratio": 0.5},
                ),
                "fixed value for 'velocity_kmh' must be a real number, got 'x'",
            ),
        ],
        ids=[
            "axis-lo-above-hi", "fixed-value-named-twice", "unexpected-fixed-value",
            "axis-lo-not-a-number", "axis-hi-none", "axis-lo-huge-int", "fixed-value-not-a-number",
        ],
    )
    def test_invalid_spec_gives_its_exact_message(self, build, message):
        with pytest.raises(SweepSpecError) as info:
            build()
        assert str(info.value) == message

    def test_fixed_values_that_are_not_pairs_stay_a_type_error(self):
        # a wrong Python type where a sequence is expected is not a value fault
        with pytest.raises(TypeError):
            SweepSpec(SweepAxis("signal_dbm", -100, -20, 3), SweepAxis("distance_m", 0, 100, 3), None)


class TestSweepResult:
    def test_float_arrays_are_taken_without_a_copy(self):
        axis1, axis2, grid = np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0]), np.zeros((2, 3))
        result = SweepResult(figure_preset(7, 2), axis1, axis2, grid)
        assert result.axis1_values is axis1 and result.axis2_values is axis2 and result.grid is grid

    def test_lists_are_read_as_float_arrays(self):
        result = SweepResult(figure_preset(7, 2), [1, 2.0], [3.0], [[0.5], [1]])
        assert result.grid.dtype == result.axis1_values.dtype == result.axis2_values.dtype == float
        assert format_surface_csv(result) == ",3.000000\n1.000000,0.500000\n2.000000,1.000000\n"

    @pytest.mark.parametrize(
        "axis1, axis2, grid, message",
        [
            ([1.0, 2.0], [3.0], [[1.0, 2.0]], "grid must have shape (2, 1), got (1, 2)"),
            ([1.0, 2.0], [3.0], [1.0, 2.0], "grid must be a 2-D array of real numbers"),
            ([1.0, 2.0], [3.0], [[1.0], [2.0, 3.0]], "grid must be a 2-D array of real numbers"),
            ([[1.0, 2.0]], [3.0], [[1.0]], "axis1_values must be a 1-D array of real numbers"),
            ([1.0], 3.0, [[1.0]], "axis2_values must be a 1-D array of real numbers"),
            ([1.0], ["a"], [[1.0]], "axis2_values must be a 1-D array of real numbers"),
            ([1.0], [None], [[1.0]], "axis2_values must be a 1-D array of real numbers"),
        ],
        ids=["grid-transposed", "grid-1d", "grid-ragged", "axis1-2d", "axis2-scalar", "axis2-text", "axis2-none"],
    )
    def test_values_of_another_shape_or_type_rejected(self, axis1, axis2, grid, message):
        with pytest.raises(SweepSpecError) as info:
            SweepResult(figure_preset(7, 2), axis1, axis2, grid)
        assert str(info.value) == message


class TestRunSweep:
    def test_peak_memory_per_cell_is_bounded(self):
        # the cells are stacked once from broadcast views and scored in ten
        # blocks of rows: about 65 bytes a cell of a 201-step sweep, against
        # about 108 when the kernel's intermediates spanned the whole batch
        # and about 183 through a meshgrid and a copy of each column
        spec = figure_preset(7, steps=201)
        assert traced_peak(lambda: run_sweep(spec)) < 100 * 201 * 201

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

    def test_fixed_values_at_the_universe_bounds_are_accepted(self):
        # sweeps stay inside the universes, both bounds included
        spec = SweepSpec(
            axis1=SweepAxis("signal_dbm", -100, -20, 2),
            axis2=SweepAxis("distance_m", 0, 100, 2),
            fixed={"velocity_kmh": 0.0, "spectrum_ratio": 1.0},
        )
        result = run_sweep(spec, default_model())
        assert result.grid[0, 0] == decision_possibility(Candidate("c", -100.0, 0.0, 1.0, 0.0)).possibility

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
        fixed = dict(result.spec.fixed)
        for i, s in enumerate(result.axis1_values):
            for j, d in enumerate(result.axis2_values):
                want = oracle_possibility(
                    model, [s, fixed["velocity_kmh"], fixed["spectrum_ratio"], d]
                )
                assert abs(result.grid[i, j] - want) < 1e-6

    @pytest.mark.parametrize("fig", [7, 8, 9, 10, 11])
    def test_preset_cells_equal_the_exact_reference(self, fig):
        # a seeded sample of the cells, against the reference given the
        # model's own curves; tools/gen_goldens.py checks every cell
        model = default_model()
        result = run_sweep(figure_preset(fig), model)
        rng = np.random.default_rng(fig)
        cells = rng.integers(0, result.grid.shape, size=(30, 2))
        point = dict(result.spec.fixed)
        rows = []
        for i, j in cells:
            point[result.spec.axis1.name] = result.axis1_values[i]
            point[result.spec.axis2.name] = result.axis2_values[j]
            rows.append([point[v.name] for v in model.inputs])
        assert result.grid[cells[:, 0], cells[:, 1]].tolist() == exact_outputs(model, rows)

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
