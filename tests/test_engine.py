import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fuzzyspectrum import (
    Candidate,
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    InvalidInputError,
    ModelDocument,
    ModelIntegrityError,
    NoRuleFiredError,
    aggregate,
    arbitrate,
    clamp_to_universe,
    default_model,
    defuzzify_centroid,
    figure_preset,
    fuzzify,
    gaussian_membership,
    infer,
    run_sweep,
    serialize_document,
)

from fuzzyspectrum import engine
from fuzzyspectrum.cli import main
from fuzzyspectrum.engine import (
    CHUNK_ELEMENTS,
    MASS_EPSILON,
    MAX_GRID_POINTS,
    _infer_row,
    _infer_rows,
    _membership_table,
    _memberships,
    _one_row,
)

from conftest import (
    NO_EXPLAIN_PHASES,
    exact_outputs,
    random_inputs,
    random_model,
    random_rows,
    three_term_variable,
    traced_peak,
)
from oracle import (
    model_params,
    reference_clip_levels,
    reference_curves,
    reference_degrees,
    reference_infer,
    reference_strengths,
    riemann_centroid,
    trapezoid_centroid,
    trapezoid_sums,
)


class TestGaussianMembership:
    def test_peak_is_exactly_one(self):
        term = GaussianTerm("Medium", 0.5, 0.2)
        assert gaussian_membership(0.5, term) == 1.0

    def test_one_sigma_from_center(self):
        term = GaussianTerm("Medium", 0.5, 0.2)
        expected = math.exp(-0.5)
        assert abs(gaussian_membership(0.7, term) - expected) < 1e-15
        assert abs(gaussian_membership(0.3, term) - expected) < 1e-15

    @given(
        center_k=st.integers(-100 * 1024, 100 * 1024),
        sigma=st.floats(0.01, 50),
        d_k=st.integers(0, 500 * 1024),
    )
    def test_symmetry_is_exact(self, center_k, sigma, d_k):
        # dyadic rationals keep center + d and center - d exact, so the
        # memberships must match bit for bit
        center, d = center_k / 1024.0, d_k / 1024.0
        term = GaussianTerm("t", center, sigma)
        assert gaussian_membership(center + d, term) == gaussian_membership(center - d, term)

    @given(
        center=st.floats(-100, 100),
        sigma=st.floats(0.01, 50),
        x=st.floats(-500, 500),
    )
    def test_bounds(self, center, sigma, x):
        term = GaussianTerm("t", center, sigma)
        mu = gaussian_membership(x, term)
        assert 0.0 <= mu <= 1.0
        if abs(x - center) < 30 * sigma:
            # beyond ~38 sigma exp() underflows to 0.0 in float64
            assert mu > 0.0
        if x == center:
            assert mu == 1.0
        elif abs(x - center) >= sigma * 1e-6:
            assert mu < 1.0


class TestFuzzify:
    def test_medium_center(self):
        var = three_term_variable("x", 0.0, 10.0)
        degrees = fuzzify(var, 5.0)
        assert degrees[1] == 1.0
        assert degrees[0] == degrees[2]

    def test_low_center(self):
        var = three_term_variable("x", 0.0, 10.0)
        assert fuzzify(var, 0.0)[0] == 1.0

    def test_signal_minus_60_dbm(self):
        # independent scalar evaluation of each Gaussian; the crossover sigma
        # puts an adjacent center exactly 2*sqrt(2 ln 2) sigmas away, so the
        # off-center degrees are exp(-4 ln 2) = 1/16
        var = three_term_variable("signal_dbm", -100.0, -20.0)
        degrees = fuzzify(var, -60.0)
        sigma = var.terms[0].sigma
        for got, center in zip(degrees, (-100.0, -60.0, -20.0)):
            expected = math.exp(-((-60.0 - center) ** 2) / (2 * sigma * sigma))
            assert abs(got - expected) < 1e-15
        assert abs(degrees[0] - 0.0625) < 1e-12
        assert degrees[1] == 1.0
        assert abs(degrees[2] - 0.0625) < 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "fast"])
    def test_non_finite_rejected(self, bad):
        var = three_term_variable("x", 0.0, 10.0)
        with pytest.raises(InvalidInputError):
            fuzzify(var, bad)


def output_terms_model(n_out, inputs=(three_term_variable("x", 0.0, 1.0),), grid_points=1001):
    """A model of n_out output terms over [0, 1] on inputs, with one rule per
    combination of input terms or per output term, whichever are more, so
    that every output term is concluded."""
    output = FuzzyVariable("y", 0.0, 1.0, tuple(GaussianTerm(f"t{k}", k / n_out, 0.2) for k in range(n_out)))
    combinations = list(itertools.product(*(range(len(v.terms)) for v in inputs)))
    rules = tuple((combinations[r % len(combinations)], r % n_out, 1.0) for r in range(max(n_out, len(combinations))))
    return FuzzyModel(inputs, output, rules, grid_points)


def out_of_range_rows(rng, model, n):
    """n input rows reaching up to one universe width outside each input."""
    lo = np.array([v.lo for v in model.inputs])
    hi = np.array([v.hi for v in model.inputs])
    return rng.uniform(lo - (hi - lo), hi + (hi - lo), size=(n, lo.size)).tolist()


class TestFiringStrength:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), weight=st.floats(0.05, 1.0))
    def test_never_exceeds_any_antecedent(self, seed, weight):
        rng = np.random.default_rng(seed)
        model = random_model(rng, max_rules=40)
        model = replace(model, rules=tuple((a, c, weight) for a, c, _ in model.rules))
        for x in out_of_range_rows(rng, model, 4):
            trace = infer(model, x)
            for (antecedents, _, _), strength in zip(model.rules, trace.firing_strengths):
                degrees = [m[i] for m, i in zip(trace.memberships, antecedents)]
                assert all(strength <= d for d in degrees)
                assert strength == weight * min(degrees)
                if weight == 1.0:
                    assert strength == min(degrees)


class TestAggregate:
    def _model(self):
        x = three_term_variable("x", 0.0, 10.0)
        y = three_term_variable("y", 0.0, 1.0)
        rules = (((0,), 0, 1.0), ((1,), 2, 1.0))
        return FuzzyModel(inputs=(x,), output=y, rules=rules, grid_points=101)

    def test_all_zero_strengths(self):
        model = self._model()
        curve = aggregate(model, [0.0, 0.0])
        assert np.all(curve[:, 1] == 0.0)

    def test_single_rule_full_strength_is_the_consequent(self, unit_output_model):
        model = unit_output_model
        curve = aggregate(model, [1.0])
        term = model.output.terms[1]
        expected = [gaussian_membership(g, term) for g in curve[:, 0].tolist()]
        assert curve[:, 1].tolist() == expected

    def test_two_rules_pointwise_max_of_clipped(self):
        model = self._model()
        strengths = (0.4, 0.7)
        curve = aggregate(model, strengths)
        low, high = model.output.terms[0], model.output.terms[2]
        for i in (0, 25, 50, 75, 100):
            g = curve[i, 0]
            expected = max(
                min(0.4, math.exp(-((g - low.center) ** 2) / (2 * low.sigma**2))),
                min(0.7, math.exp(-((g - high.center) ** 2) / (2 * high.sigma**2))),
            )
            assert abs(curve[i, 1] - expected) < 1e-15

    def test_wrong_strength_count(self):
        model = self._model()
        with pytest.raises(ModelIntegrityError):
            aggregate(model, [1.0])

    def test_curve_dominates_every_clipped_consequent(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, max_rules=20)
        strengths = rng.uniform(0, 1, size=len(model.rules))
        curve = aggregate(model, strengths)
        grid = curve[:, 0]
        stacked = []
        for (_, consequent, _), s in zip(model.rules, strengths):
            term = model.output.terms[consequent]
            clipped = np.minimum(
                s, np.exp(-((grid - term.center) ** 2) / (2 * term.sigma**2))
            )
            assert np.all(curve[:, 1] >= clipped - 1e-15)
            stacked.append(clipped)
        assert np.allclose(curve[:, 1], np.max(stacked, axis=0), rtol=0, atol=1e-15)


class TestDefuzzifyCentroid:
    def test_symmetric_gaussian_returns_center(self):
        x = np.linspace(0.0, 1.0, 1001)
        y = np.exp(-((x - 0.5) ** 2) / (2 * 0.1**2))
        assert abs(defuzzify_centroid(np.column_stack((x, y))) - 0.5) < 1e-12

    def test_uniform_mass_returns_midpoint(self):
        x = np.linspace(0.0, 1.0, 101)
        y = np.full_like(x, 0.3)
        assert abs(defuzzify_centroid(np.column_stack((x, y))) - 0.5) < 1e-12

    def test_random_clipped_mixtures_match_riemann_oracle(self):
        rng = np.random.default_rng(123)
        n = 1001
        x = np.linspace(0.0, 1.0, n)
        for _ in range(20):
            bumps = [
                (rng.uniform(0, 1), rng.uniform(0.05, 0.3), rng.uniform(0.1, 1.0))
                for _ in range(rng.integers(1, 5))
            ]

            def curve_fn(t, bumps=bumps):
                return max(
                    min(level, math.exp(-((t - c) ** 2) / (2 * s * s)))
                    for c, s, level in bumps
                )

            y = np.array([curve_fn(t) for t in x])
            got = defuzzify_centroid(np.column_stack((x, y)))
            want = riemann_centroid(curve_fn, 0.0, 1.0, 10 * (n - 1))
            assert abs(got - want) < 1e-4

    def test_zero_mass_raises(self):
        x = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NoRuleFiredError):
            defuzzify_centroid(np.column_stack((x, np.zeros_like(x))))

    def test_non_increasing_points_rejected(self):
        with pytest.raises(ValueError):
            defuzzify_centroid([(0.0, 1.0), (0.0, 1.0), (1.0, 1.0)])

    @pytest.mark.parametrize(
        "curve", [np.empty((0, 2)), [(0.0, "a")], [(0.0, 1.0), (1.0,)]], ids=["empty", "not-numbers", "ragged"]
    )
    def test_empty_curve_rejected(self, curve):
        with pytest.raises(InvalidInputError) as info:
            defuzzify_centroid(curve)
        assert str(info.value) == "curve must be a non-empty sequence of (point, degree) pairs"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_degree_or_point_rejected(self, bad):
        curve = aggregate(default_model(), [0.5] * 81)
        for column in (1, 0):
            for row in (0, 500, -1):
                broken = curve.copy()
                broken[row, column] = bad
                with pytest.raises(ValueError, match="curve points and degrees must be finite"):
                    defuzzify_centroid(broken)

    @pytest.mark.parametrize(
        "curve, message",
        [
            # a negative degree pulled the centroid to 20.999999999999982, outside [0, 1]
            ([(0, -1.0), (1, 1.05)], "curve degrees must be in [0, 1], got -1.0"),
            # the points' spacing overflowed, with numpy warnings and a nan result
            (
                [(-1e308, 1.0), (1e308, 1.0)],
                "curve points [-1e+308, 1e+308] too wide to defuzzify, (hi - lo) * max(|lo|, |hi|) must be finite",
            ),
            # degrees near the largest double overflowed the running sum the same way
            ([(0, 1e308), (1, 1e308), (2, 1e308)], "curve degrees must be in [0, 1], got 1e+308"),
        ],
        ids=["negative-degree", "overflowing-span", "huge-degrees"],
    )
    def test_curve_whose_sums_leave_the_points_rejected(self, curve, message):
        with pytest.raises(ValueError) as info:
            defuzzify_centroid(curve)
        assert str(info.value) == message

    def test_points_falling_after_the_second_rejected(self):
        # every point is compared with its left neighbour, not only with the first
        with pytest.raises(InvalidInputError) as info:
            defuzzify_centroid([(0.0, 0.5), (2.0, 0.5), (1.0, 0.5)])
        assert str(info.value) == "curve points must be strictly increasing"

    @pytest.mark.parametrize("degree", [1.0000000000000002, 1.5, 2.0])
    def test_degree_just_above_one_rejected(self, degree):
        with pytest.raises(InvalidInputError) as info:
            defuzzify_centroid([(0.0, 0.5), (1.0, degree)])
        assert str(info.value) == f"curve degrees must be in [0, 1], got {degree}"

    def test_widest_accepted_span_and_unit_degrees_stay_finite(self):
        # 4 * (hi - lo) * max(|lo|, |hi|) = 8e306 is finite, so this span is
        # accepted; degrees of exactly 0.0, -0.0 and 1.0 are in range
        assert defuzzify_centroid([(-1e153, 1.0), (0.0, -0.0), (1e153, 1.0)]) == 0.0
        assert defuzzify_centroid([(0.0, 0.0), (1.0, 1.0)]) == 1.0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_result_within_curve_support(self, seed):
        rng = np.random.default_rng(seed)
        x = np.linspace(-3.0, 7.0, 200)
        y = rng.uniform(0.001, 1.0, size=x.size)
        value = defuzzify_centroid(np.column_stack((x, y)))
        assert x[0] <= value <= x[-1]


class TestInfer:
    def test_single_rule_centered_consequent(self, unit_output_model):
        trace = infer(unit_output_model, [5.0])
        assert abs(trace.crisp_output - 0.5) < 1e-3
        assert trace.firing_strengths == (1.0,)

    def test_rule_permutation_is_bit_identical(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, max_rules=30)
        perm = rng.permutation(len(model.rules))
        shuffled = FuzzyModel(
            inputs=model.inputs,
            output=model.output,
            rules=tuple(model.rules[i] for i in perm),
            grid_points=model.grid_points,
        )
        for _ in range(5):
            x = random_inputs(rng, model)
            assert infer(model, x).crisp_output == infer(shuffled, x).crisp_output

    def test_pure_function_bit_identical(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, max_rules=40)
        x = random_inputs(rng, model)
        a, b = infer(model, x), infer(model, x)
        assert a.crisp_output == b.crisp_output
        assert a.memberships == b.memberships
        assert a.firing_strengths == b.firing_strengths
        assert np.array_equal(a.aggregated_curve, b.aggregated_curve)

    def test_trace_curve_is_the_aggregate_of_its_strengths(self):
        model = default_model()
        trace = infer(model, [-72.3, 18.0, 0.81, 64.0])
        curve = aggregate(model, trace.firing_strengths)
        before = curve.tobytes()
        assert trace.aggregated_curve.tobytes() == before
        assert defuzzify_centroid(curve) == trace.crisp_output
        assert curve.tobytes() == before

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_trace_strengths_match_scalar_firing_strength(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, max_rules=40)
        input_vars, _, rules = model_params(model)
        for x in out_of_range_rows(rng, model, 4):
            trace = infer(model, x)
            want = reference_strengths(x, input_vars, rules)
            assert [s.hex() for s in trace.firing_strengths] == [s.hex() for s in want]

    def test_out_of_range_inputs_clamp_to_bounds(self):
        model = random_model(np.random.default_rng(3), max_rules=10)
        var = model.inputs[0]
        below = [var.lo - 100.0] + [v.lo for v in model.inputs[1:]]
        at_lo = [var.lo] + [v.lo for v in model.inputs[1:]]
        assert infer(model, below).crisp_output == infer(model, at_lo).crisp_output
        assert clamp_to_universe(var, var.hi + 5.0) == var.hi

    def test_wrong_arity_rejected(self):
        model = random_model(np.random.default_rng(4), max_rules=5)
        with pytest.raises(InvalidInputError):
            infer(model, [0.0] * (len(model.inputs) + 1))

    def test_all_zero_weights_propagate_no_rule_fired(self):
        x = three_term_variable("x", 0.0, 10.0)
        y = three_term_variable("y", 0.0, 1.0)
        dead = FuzzyModel(
            inputs=(x,), output=y,
            rules=(((1,), 1, 0.0),),
        )
        with pytest.raises(NoRuleFiredError):
            infer(dead, [5.0])

    def test_matches_oracle_on_random_models_at_matched_grid(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            model = random_model(rng, max_rules=100)
            rows = [random_inputs(rng, model) for _ in range(3)]
            want = exact_outputs(model, rows)
            assert _infer_rows(model, np.array(rows)).tolist() == want
            assert [infer(model, x).crisp_output for x in rows] == want
            assert all(model.output.lo <= got <= model.output.hi for got in want)

    def test_batch_rows_bit_identical_to_infer_at_every_position(self):
        model = default_model()
        # the firing stage chunks the rows and the curve stage walks the grid
        # in blocks: the batch spans more than two firing chunks, and its
        # clip vectors (random rows rarely share one) take several grid
        # blocks with a partial last one
        c = model._compiled
        rng = np.random.default_rng(31)
        # some rows fall outside the universes, so clamping is covered too
        lo = np.array([v.lo for v in model.inputs])
        hi = np.array([v.hi for v in model.inputs])
        span = hi - lo
        rows = rng.uniform(lo - 0.2 * span, hi + 0.2 * span, size=(2 * c.fire_rows + 5, lo.size))
        _, chunks = scored_chunks(lambda: _infer_rows(model, rows))
        ((_, block),) = chunks
        assert block < model.grid_points and model.grid_points % block
        single = [infer(model, row).crisp_output for row in rows]
        assert single == exact_outputs(model, rows)
        # rolling the batch moves every row through every position, across
        # chunk boundaries included
        for shift in range(len(rows)):
            batch = _infer_rows(model, np.roll(rows, shift, axis=0))
            assert np.roll(batch, -shift).tolist() == single

    def test_rows_sharing_clip_levels_bit_identical_to_infer(self):
        model = default_model()
        rng = np.random.default_rng(47)
        lo = np.array([v.lo for v in model.inputs])
        hi = np.array([v.hi for v in model.inputs])
        span = hi - lo
        # different inputs that clamp to the same corner of the universes
        overshoot = rng.uniform(0.0, 0.5, size=(60, lo.size)) * span
        corners = np.where(rng.random((60, lo.size)) < 0.5, lo - overshoot, hi + overshoot)
        # an 11 x 11 sweep over signal and distance, the other two fixed
        a, b = np.meshgrid(np.linspace(lo[0], hi[0], 11), np.linspace(lo[3], hi[3], 11))
        sweep = np.column_stack([a.ravel(), np.full(a.size, 50.0), np.full(a.size, 0.5), b.ravel()])
        # random rows, some of them repeated exactly
        c = model._compiled
        spread = rng.uniform(lo, hi, size=(c.fire_rows + 5, lo.size))
        rows = np.concatenate([corners, sweep, spread, spread[::3]])
        rng.shuffle(rows)

        params = model_params(model)
        distinct = {tuple(reference_clip_levels(row, *params)) for row in rows}
        # more rows than a firing chunk, and more distinct clip vectors than
        # one grid block holds
        assert c.fire_rows < len(distinct) < len(rows)
        crisp, chunks = scored_chunks(lambda: _infer_rows(model, rows))
        ((clip, block),) = chunks
        assert len(clip) == len(distinct) and block < model.grid_points
        want = exact_outputs(model, rows)
        assert crisp.tolist() == want
        assert [infer(model, row).crisp_output for row in rows] == want

    def test_two_column_chunks_bit_identical_to_infer(self):
        # distinct rows one block and 104 rows long, whose last block is a
        # chunk of 104 columns, and one block and one row long, whose last
        # block is one row, a lone column
        model = default_model()
        rows = random_rows(4200)
        block = model._compiled.block_rows
        assert block + 1 < len(rows) <= 2 * block
        assert len(np.unique(rows, axis=0)) == len(rows)
        want = np.array([_infer_row(model, row) for row in rows.tolist()])
        assert _infer_rows(model, rows).tobytes() == want.tobytes()
        assert _infer_rows(model, rows[: block + 1]).tobytes() == want[: block + 1].tobytes()
        # the reference on every 50th row and on each row of the last
        # blocks; the reference's clip vectors share the batch's
        # engine._clip_key, as none is zero, and no two keys are equal, so
        # no block merges two rows into one column
        params = model_params(model)
        clips = np.array([reference_clip_levels(row, *params) for row in rows])
        keys = engine._clip_key(clips)
        assert len(np.unique(keys)) == len(rows)
        picks = np.union1d(np.arange(block, len(rows)), np.arange(0, len(rows), 50))
        assert want[picks].tolist() == exact_outputs(model, rows[picks])

    @pytest.mark.parametrize(
        "model",
        [default_model(), output_terms_model(17, default_model().inputs)],
        ids=["default", "17-output-terms"],
    )
    def test_rows_across_block_boundaries_bit_identical_to_one_row(self, monkeypatch, model):
        # a batch is scored in blocks of block_rows rows (4096 for the
        # default model, 3640 for 17 output terms), each with its own
        # membership table and clip dedupe: rows repeated on both sides of
        # each boundary are scored once in each block they fall in
        block = model._compiled.block_rows
        rows = random_rows(2 * block + 3)
        for edge in (block, 2 * block):
            rows[edge:edge + 2] = rows[edge - 2:edge]
            rows[edge - 3] = rows[edge + 2]
        sizes = []
        score_block = engine._infer_block
        monkeypatch.setattr(engine, "_infer_block", lambda c, x: sizes.append(len(x)) or score_block(c, x))
        batch = _infer_rows(model, rows)
        assert sizes == [block, block, 3]
        want = np.array([_infer_row(model, row) for row in rows.tolist()])
        assert batch.tobytes() == want.tobytes()
        edges = np.concatenate([np.arange(edge - 3, edge + 3) for edge in (block, 2 * block)])
        assert want[edges].tolist() == exact_outputs(model, rows[edges])
        # an empty batch has no block
        sizes.clear()
        empty = _infer_rows(model, np.empty((0, 4)))
        assert sizes == [] and empty.shape == (0,) and empty.dtype == float

    @settings(max_examples=25, deadline=None, phases=NO_EXPLAIN_PHASES)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_batch_invariant_under_permutation_prefix_and_duplication(self, seed, data):
        rng = np.random.default_rng(seed)
        model = random_model(rng, max_rules=40)
        lo = np.array([v.lo for v in model.inputs])
        hi = np.array([v.hi for v in model.inputs])
        span = hi - lo
        n = data.draw(st.integers(1, 40), label="rows")
        rows = rng.uniform(lo - 0.3 * span, hi + 0.3 * span, size=(n, lo.size))
        # some columns draw from three values, so rows share memberships and
        # clip levels
        for v in np.flatnonzero(rng.random(lo.size) < 0.5):
            rows[:, v] = rng.choice(rng.uniform(lo[v], hi[v], size=3), size=n)
        batch = _infer_rows(model, rows)
        assert batch.tolist() == exact_outputs(model, rows)

        order = data.draw(st.permutations(range(n)), label="order")
        assert _infer_rows(model, rows[order]).tobytes() == batch[order].tobytes()
        for k in range(1, n):
            assert _infer_rows(model, rows[:k]).tobytes() == batch[:k].tobytes()
        picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n), label="picks")
        repeated = _infer_rows(model, np.concatenate([rows, rows[picks]]))
        assert repeated.tobytes() == np.concatenate([batch, batch[picks]]).tobytes()


class TestCurveStage:
    def test_a_chunk_column_without_mass_raises_no_rule_fired(self):
        # one narrow term at the bottom of a wide universe: its membership
        # underflows to 0.0 at 100.0, so that row's clip vector has no mass;
        # the other rows make the chunk's clip vectors distinct, so the
        # block walk of _centroids scores it, not _row_centroid
        x = FuzzyVariable("x", 0.0, 100.0, (GaussianTerm("T", 0.0, 1.0),))
        model = FuzzyModel((x,), three_term_variable("y", 0.0, 1.0), (((0,), 2, 1.0),))
        with pytest.raises(NoRuleFiredError) as excinfo:
            _infer_rows(model, [[0.0], [1.0], [100.0]])
        assert str(excinfo.value) == f"total output mass 0.0 below {MASS_EPSILON}; no rule fired"

    @pytest.mark.parametrize("grid_points", [101, 1001, 5001])
    def test_batch_matches_left_to_right_centroid_at_every_width(self, grid_points):
        # the curve stage sums a lone column as a running sum and a chunk of
        # columns block by block; both must equal adding the grid one point
        # at a time.  Widths: one column, two, and the fewest columns whose
        # grid walk carries the sums across a block boundary into a partial
        # last block
        model = replace(default_model(), grid_points=grid_points)
        rng = np.random.default_rng(grid_points)
        lo = np.array([v.lo for v in model.inputs])
        hi = np.array([v.hi for v in model.inputs])
        pool = rng.uniform(lo, hi, size=(200, lo.size))

        def grid_rows(n):
            ((_, rows),) = scored_chunks(lambda: _infer_rows(model, pool[:n]))[1]
            return rows

        carry = next(n for n in itertools.count(3) if grid_points % grid_rows(n))
        assert grid_rows(2) == grid_points
        distinct = pool[:carry]
        params = model_params(model)
        assert len({tuple(reference_clip_levels(row, *params)) for row in distinct}) == len(distinct)
        want = exact_outputs(model, distinct)

        for n in (1, 2, carry):
            picks = np.concatenate([np.arange(n), rng.integers(0, n, size=n + 3)])
            rng.shuffle(picks)
            assert _infer_rows(model, distinct[picks]).tolist() == [want[i] for i in picks]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_term_curves_equal_the_per_term_expression(self, data):
        # term_curves is one (terms, grid points) expression; each value must
        # be bit for bit gaussian_membership at its grid point
        lo = data.draw(st.floats(-1e6, 1e6), label="lo")
        hi = lo + data.draw(st.floats(1e-3, 1e6), label="span")
        centers = sorted(set(data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=12), label="centers")))
        sigmas = data.draw(st.lists(st.floats((hi - lo) * 1e-3, (hi - lo) * 10), min_size=len(centers), max_size=len(centers)))
        output = FuzzyVariable("y", lo, hi, tuple(GaussianTerm(f"t{k}", c, s) for k, (c, s) in enumerate(zip(centers, sigmas))))
        grid_points = data.draw(st.integers(2, 5001), label="grid_points")
        c = FuzzyModel((three_term_variable("x", 0.0, 1.0),), output, (((0,), 0, 1.0),), grid_points)._compiled
        want = np.array([[gaussian_membership(g, t) for g in c.grid.tolist()] for t in output.terms])
        assert c.term_curves.shape == want.shape
        assert c.term_curves.tobytes() == want.tobytes()

    def test_short_curves_match_left_to_right_centroid(self):
        one = np.array([[0.3, 0.7]])
        assert defuzzify_centroid(one) == trapezoid_centroid([0.3], [0.7])
        assert one.tolist() == [[0.3, 0.7]]
        points, degrees = [0.1, 0.9], [0.2, 0.6]
        assert defuzzify_centroid(list(zip(points, degrees))) == trapezoid_centroid(points, degrees)

    def test_model_build_peak_memory_per_term_point_is_bounded(self):
        # the curves are built one term at a time through one reused complex
        # row: about 19 bytes a term-point at the largest grid, against
        # about 37 when one complex exp ran over all the terms at once
        model = default_model()
        terms = len(model.output.terms)
        peak = traced_peak(lambda: FuzzyModel(model.inputs, model.output, model.rules, MAX_GRID_POINTS))
        assert peak < 24 * terms * MAX_GRID_POINTS

    @settings(max_examples=300, deadline=None)
    @given(curve=st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1.0)), min_size=1, max_size=400, unique_by=lambda p: p[0]
    ))
    # a moment that cancels exactly is +0.0, and a lone -0.0 point's is -0.0,
    # as in a running sum from the first term
    @example(curve=[(-1.0, 0.5), (0.0, 0.0), (1.0, 0.5)])
    @example(curve=[(-0.0, 0.5)])
    def test_lone_column_sums_left_to_right(self, curve):
        # one column is summed as a running sum, so mass and moment must
        # equal adding the points one at a time, negative points included
        points, degrees = map(list, zip(*sorted(curve)))
        num, den = trapezoid_sums(points, degrees)
        if den < MASS_EPSILON:
            with pytest.raises(NoRuleFiredError):
                defuzzify_centroid(list(zip(points, degrees)))
        else:
            assert defuzzify_centroid(list(zip(points, degrees))).hex() == (num / den).hex()

    def test_a_moment_that_cancels_exactly_is_positive_zero_on_both_paths(self, capsys, tmp_path):
        # mirrored Low and High terms clipped at one level on the grid
        # [-1, 0, 1]: each moment is -t + 0.0 + t, which a running sum from
        # the first term makes +0.0; == cannot tell it from -0.0, hex can
        rules = (((0, 0, 0, 0), 0, 1.0), ((0, 0, 0, 0), 2, 1.0))
        model = FuzzyModel(default_model().inputs, three_term_variable("y", -1.0, 1.0), rules, 3)
        rows = np.array([[-100.0, 0.0, 0.0, 0.0], [-90.0, 10.0, 0.1, 10.0], [-80.0, 20.0, 0.2, 20.0]])
        got, chunks = scored_chunks(lambda: _infer_rows(model, rows))
        assert [len(clip) for clip, _ in chunks] == [3]
        assert got.tobytes() == np.array([_infer_row(model, row) for row in rows.tolist()]).tobytes()
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in exact_outputs(model, rows)] == ["0x0.0p+0"] * 3
        path = tmp_path / "mirrored.json"
        path.write_text(serialize_document(ModelDocument(model)), encoding="utf-8")
        assert main(["eval", *map(str, rows[1]), "--model", str(path), "--format", "csv"]) == 0
        assert capsys.readouterr().out == "possibility,admitted\n0.000000,false\n"

    @pytest.mark.parametrize(
        "grid_points", [2, 101, 1001, 5001, CHUNK_ELEMENTS, CHUNK_ELEMENTS + 1, MAX_GRID_POINTS]
    )
    def test_chunk_stays_under_the_element_cap(self, grid_points):
        # every chunk a batch hands _centroids has at most block_rows
        # columns, and its (terms, rows, columns) tile of clip levels and
        # each (rows, columns) scratch array hold (terms + 1) x rows x columns
        # <= CHUNK_ELEMENTS elements, for 1 to 10, 17 and 64 output terms; a
        # lone column takes the row path's arrays.  Batches longer than a
        # block only where the grid is short enough to score them quickly
        rng = np.random.default_rng(grid_points)
        for terms in [*range(1, 11), 17, 64]:
            if terms * grid_points > engine._MAX_CURVE_POINTS:
                continue
            model = output_terms_model(terms, grid_points=grid_points)
            block = model._compiled.block_rows
            for n in (1, 2, 3, 100, block, block + 1) if grid_points <= 101 else (1, 2, 3, 100):
                # distinct rows inside the universe: no two share a clip vector
                _, chunks = scored_chunks(lambda: _infer_rows(model, rng.uniform(0.0, 1.0, (n, 1))))
                assert sum(len(clip) for clip, _ in chunks) == n
                for clip, rows in chunks:
                    assert clip.shape[1] == terms and len(clip) <= block
                    if len(clip) > 1:
                        assert 1 <= rows <= grid_points and (terms + 1) * rows * len(clip) <= CHUNK_ELEMENTS

    @settings(max_examples=20, deadline=None, phases=NO_EXPLAIN_PHASES)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_batch_matches_oracle_on_random_models(self, seed, data):
        rng = np.random.default_rng(seed)
        grid_points = data.draw(st.integers(2, 5001), label="grid_points")
        model = replace(random_model(rng, max_rules=40), grid_points=grid_points)
        lo = np.array([v.lo for v in model.inputs])
        hi = np.array([v.hi for v in model.inputs])
        span = hi - lo
        n = data.draw(st.integers(1, 60), label="rows")
        rows = rng.uniform(lo - 0.2 * span, hi + 0.2 * span, size=(n, lo.size))
        assert _infer_rows(model, rows).tolist() == exact_outputs(model, rows)


def host_outputs() -> np.ndarray:
    """The default model's crisp outputs of the canary row and 3000
    random_rows, by _infer_rows, _infer_row and infer, and the canary's
    aggregated degrees."""
    model = default_model()
    rows = np.vstack([[-60.0, 50.0, 0.5, 50.0], random_rows(3000)])
    traces = [infer(model, row) for row in rows.tolist()]
    return np.concatenate([
        _infer_rows(model, rows),
        [_infer_row(model, row) for row in rows.tolist()],
        [trace.crisp_output for trace in traces],
        traces[0].aggregated_curve[:, 1],
    ])


class TestHostIndependence:
    def test_bits_do_not_depend_on_numpy_cpu_dispatch(self):
        # every Gaussian takes the C library's exp, so a child process with
        # each CPU feature numpy dispatches to on this host disabled gives
        # the same bits (numpy's own exp differs in the last bit with AVX-512)
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        features = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
        if not features:
            pytest.skip("numpy dispatches to no CPU feature on this host")
        package_root = str(Path(engine.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, test_engine\n"
            "from numpy._core._multiarray_umath import __cpu_features__\n"
            f"assert not any(__cpu_features__[name] for name in {features!r}), 'dispatch still on'\n"
            "sys.stdout.write(test_engine.host_outputs().tobytes().hex())\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": " ".join(features)},
        )
        assert child.returncode == 0, child.stderr
        want = host_outputs()
        got = np.frombuffer(bytes.fromhex(child.stdout))
        differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert not differ.size, f"{differ.size} of {want.size} values differ, first at {differ[:5].tolist()}"


def scored_chunks(call):
    """call(), or None if it raises NoRuleFiredError, and a copy of each
    (clip vectors, grid rows) chunk that it handed _centroids."""
    chunks, centroids = [], engine._centroids

    def spy(c, clip, block_rows):
        chunks.append((clip.copy(), block_rows))
        return centroids(c, clip, block_rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_centroids", spy)
        try:
            return call(), chunks
        except NoRuleFiredError:
            return None, chunks


class TestTermSkip:
    """The curve stage drops, per grid block, the output terms whose clipped
    curves cannot raise a degree of the chunk (engine._kept_terms)."""

    @settings(max_examples=60, deadline=None, phases=NO_EXPLAIN_PHASES)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_dropped_terms_lie_below_a_positive_kept_maximum(self, seed, data):
        # output terms that no rule concludes, weights of -0.0 and 0.0, and
        # output terms from narrow to ten times wider than the universe, so
        # that they overlap everywhere
        rng = np.random.default_rng(seed)
        base = random_model(rng, max_rules=30)
        lo, hi = base.output.lo, base.output.hi
        n_out = data.draw(st.integers(1, 6), label="output terms")
        centers = np.sort(rng.choice(np.arange(101), n_out, replace=False)) / 100
        sigmas = (hi - lo) * 10.0 ** rng.uniform(-2, 1, n_out)
        terms = tuple(GaussianTerm(f"t{k}", lo + (hi - lo) * c, s) for k, (c, s) in enumerate(zip(centers, sigmas)))
        output = FuzzyVariable("y", lo, hi, terms)
        concluded = data.draw(st.lists(st.integers(0, n_out - 1), min_size=1, unique=True), label="concluded")
        weights = st.sampled_from([-0.0, 0.0, 0.3, 1.0])
        rules = tuple((a, data.draw(st.sampled_from(concluded)), data.draw(weights)) for a, _, _ in base.rules)
        model = FuzzyModel(base.inputs, output, rules, data.draw(st.integers(2, 2001), label="grid_points"))
        rows = np.array(out_of_range_rows(rng, model, data.draw(st.integers(2, 80), label="rows")))
        crisp, chunks = scored_chunks(lambda: _infer_rows(model, rows))
        if crisp is not None:
            assert crisp.tolist() == exact_outputs(model, rows)
        c = model._compiled
        for clip, block_rows in chunks:
            if len(clip) == 1:  # the row path's curve, with every term
                continue
            kept = engine._kept_terms(c, clip, block_rows)
            assert kept.shape == (n_out, -(-model.grid_points // block_rows))
            for b, g in enumerate(range(0, model.grid_points, block_rows)):
                # (terms, columns, points) clipped curves, brute force
                clipped = np.minimum(clip.T[:, :, None], c.term_curves[:, None, g:g + block_rows])
                top, dropped = clipped[kept[:, b]].max(axis=0), clipped[~kept[:, b]]
                assert (dropped <= top).all()
                assert not dropped.size or (top > 0.0).all()

    def test_a_quarter_of_term_blocks_dropped_on_preset_7(self):
        # every membership and clip level of the default model is at least
        # 0.0625, so Low cannot raise a degree on the right of the grid, nor
        # High on the left
        model = default_model()
        _, chunks = scored_chunks(lambda: run_sweep(figure_preset(7), model))
        (clip, block_rows), = chunks
        kept = engine._kept_terms(model._compiled, clip, block_rows)
        assert kept.shape[1] > 1 and (~kept).sum() >= kept.size / 4


class TestClipDedupe:
    """_infer_rows scores each distinct clip vector once: one argsort of
    engine._clip_key, then neighbours compared bit for bit."""

    def test_keys_that_all_collide_still_equal_the_reference(self, monkeypatch):
        # with a zero multiplier every key is 0.0, so byte-equal vectors need
        # not be neighbours after the argsort and a vector may be scored twice
        model = default_model()
        pool = random_rows(12)
        picks = np.random.default_rng(4).integers(0, len(pool), 200)
        want = exact_outputs(model, pool)
        monkeypatch.setattr(engine, "_KEY_MULTIPLIER", np.uint64(0))
        assert not engine._clip_key(np.random.default_rng(4).random((5, 3))).any()
        assert _infer_rows(model, pool[picks]).tolist() == [want[i] for i in picks]

    @pytest.mark.parametrize("n_out", [1, 2, 11, 17])
    def test_any_number_of_output_terms_scores_each_vector_once(self, n_out):
        model = output_terms_model(n_out, tuple(three_term_variable(name, 0.0, 1.0) for name in "abc"))
        rng = np.random.default_rng(n_out)
        pool = rng.uniform(-0.2, 1.2, (15, 3))
        # a signed zero beside 0.0: both clamp and fuzzify alike
        pool[:2, 0] = [-0.0, 0.0]
        picks = rng.integers(0, len(pool), 120)
        want = exact_outputs(model, pool)
        crisp, chunks = scored_chunks(lambda: _infer_rows(model, pool[picks]))
        assert crisp.tolist() == [want[i] for i in picks]
        scored = np.concatenate([clip for clip, _ in chunks])
        assert len(np.unique(scored.view(np.dtype((np.void, scored[0].nbytes))))) == len(scored)

    def test_levels_with_only_high_bits_set_get_distinct_keys(self):
        # powers of two and signed zeros, as in 0.5 or 0.0625: a
        # multiplication alone carries only their top 12 bits into the key,
        # which gave 3309 keys for these 5832 vectors
        levels = [*(2.0 ** -np.arange(16)), 0.0, -0.0]
        clip = np.array(list(itertools.product(levels, repeat=3)))
        assert len(np.unique(engine._clip_key(clip))) == len(clip)

    @pytest.mark.parametrize("preset", range(7, 12))
    def test_preset_sweeps_score_each_vector_once(self, preset):
        _, chunks = scored_chunks(lambda: run_sweep(figure_preset(preset), default_model()))
        scored = np.concatenate([clip for clip, _ in chunks])
        assert len(np.unique(scored.view(np.dtype((np.void, scored[0].nbytes))))) == len(scored)


def mixed_width_model():
    """Inputs of 3, 2, 4 and 3 terms, so a row's memberships are padded to
    four per input, with terms centred on 0.0 and on each bound."""
    inputs = (
        three_term_variable("a", -1.0, 1.0),
        FuzzyVariable("b", 0.0, 10.0, (GaussianTerm("L", 0.0, 4.0), GaussianTerm("H", 10.0, 4.0))),
        FuzzyVariable("c", 0.0, 3.0, tuple(GaussianTerm(f"t{k}", float(k), 0.7) for k in range(4))),
        three_term_variable("d", 0.0, 6.0),
    )
    combinations = itertools.product(*(range(len(v.terms)) for v in inputs))
    rules = tuple((a, sum(a) % 3, (1.0, 0.5, 0.25)[r % 3]) for r, a in enumerate(combinations))
    return FuzzyModel(inputs, three_term_variable("y", 0.0, 1.0), rules)


class TestOneRow:
    """One row is fuzzified on Python floats and a batch through a membership
    table; both must give the same bits."""

    def test_bit_identical_to_infer_and_to_its_batch(self):
        model = mixed_width_model()
        # each input's bounds, signed zeros, values past either bound and one inside
        pools = [[v.lo, v.hi, -0.0, 0.0, v.hi + 5.0, (v.lo + v.hi) / 3.0] for v in model.inputs]
        pools[0] += [-7.5]
        rng = np.random.default_rng(14)
        rows = np.column_stack([rng.choice(pool, size=150) for pool in pools])
        assert np.signbit(rows[rows == 0.0]).any()
        batch = _infer_rows(model, rows)
        order = rng.permutation(len(rows))
        shuffled = dict(zip(order.tolist(), _infer_rows(model, rows[order]).tolist()))
        table, index = _membership_table(model._compiled, rows)
        for i, (row, exact) in enumerate(zip(rows.tolist(), exact_outputs(model, rows))):
            trace = infer(model, row)
            assert trace.crisp_output == exact
            want = trace.crisp_output.hex()
            assert _infer_rows(model, [row])[0].hex() == want
            assert _infer_rows(model, rows[i:i + 1])[0].hex() == want
            assert batch[i].hex() == want and shuffled[i].hex() == want
            assert trace.memberships == tuple(
                tuple(m[: len(v.terms)].tolist()) for m, v in zip(table[index[i]], model.inputs)
            )
            # arbitrate scores one candidate as a one-row array
            assert arbitrate([Candidate("c", *row)], model).ranking[0][1].hex() == want

    def test_padding_slots_fuzzify_as_the_first_term(self):
        # a row and a batch fuzzify each padding slot with the input's first
        # term; a batch that read center 0.0 there overflowed d**2 (a
        # RuntimeWarning, an error in this suite) for a narrower input whose
        # universe lies beyond about 1.34e154 from 0.0
        near = mixed_width_model()
        far = FuzzyVariable("b", 1e155, 1.0000001e155, (GaussianTerm("L", 1e155, 5e147), GaussianTerm("H", 1.0000001e155, 5e147)))
        rng = np.random.default_rng(9)
        for model in (near, replace(near, inputs=(near.inputs[0], far, *near.inputs[2:]))):
            c = model._compiled
            rows = np.column_stack([rng.uniform(v.lo, v.hi, 40) for v in model.inputs])
            table, index = _membership_table(c, rows)
            for flat, row in zip(table.take(index, axis=0), rows.tolist()):
                assert _one_row(c, row)[0].tobytes() == flat.tobytes()
            want = [_infer_row(model, row) for row in rows.tolist()]
            assert _infer_rows(model, rows).tolist() == want == exact_outputs(model, rows)

    def test_peak_memory_per_grid_point_is_bounded(self):
        # the (terms, grid points) clipped curves and their max are the
        # largest arrays, about 32 bytes a grid point; the centroid holds the
        # curve and one array of weighted terms, 16
        model = replace(default_model(), grid_points=MAX_GRID_POINTS)
        assert traced_peak(lambda: _infer_row(model, [-60.0, 50.0, 0.5, 50.0])) < 36 * MAX_GRID_POINTS

    @pytest.mark.parametrize("width", [0, 3, 5])
    def test_wrong_arity_raises_the_batch_message(self, width):
        model = default_model()
        for rows in ([[0.5] * width], np.full((1, width), 0.5), [[0.5] * width] * 2):
            with pytest.raises(InvalidInputError) as info:
                _infer_rows(model, rows)
            assert str(info.value) == f"expected 4 inputs, got {width}"

    @pytest.mark.parametrize("rows", [[0.5] * 4, np.full((1, 1, 4), 0.5), np.full((2, 3, 4), 0.5)], ids=["1-d", "1x1x4", "2x3x4"])
    def test_an_array_of_other_than_two_dimensions_is_named_by_its_shape(self, rows):
        with pytest.raises(InvalidInputError) as info:
            _infer_rows(default_model(), rows)
        assert str(info.value) == f"expected a (rows, 4) array of inputs, got shape {np.shape(rows)}"


class TestFiringStage:
    def test_exp_runs_once_per_distinct_value_of_each_input(self, monkeypatch):
        default_model()  # built before counting
        sizes, memberships = [], engine._memberships

        def counted(*args):
            result = memberships(*args)
            sizes.append(result.size)
            return result

        monkeypatch.setattr(engine, "_memberships", counted)
        run_sweep(figure_preset(7))
        # two swept inputs of 41 samples, two fixed ones, three terms each
        assert sum(sizes) == (41 + 41 + 1 + 1) * 3

    def test_memberships_equal_gaussian_membership_bit_for_bit(self):
        # the batch takes numpy's complex exp, which calls the C library's exp
        # as math.exp does; numpy's real exp may differ from it in the last bit
        rng = np.random.default_rng(23)
        lo, hi = -3.0, 5.0
        sigmas = (hi - lo) * np.logspace(-6, 3, 40)
        terms = [GaussianTerm(f"t{k}", c, s) for k, (c, s) in enumerate(zip(rng.uniform(lo, hi, 40), sigmas))]
        # each center, points whose exponents run from 0 past the underflow to
        # 0.0 (about 745), points inside the universe and past either bound
        offsets = np.sqrt(2.0 * rng.uniform(0.0, 800.0, (40, 50))) * sigmas[:, None] * rng.choice([-1.0, 1.0], (40, 50))
        centers = np.array([t.center for t in terms])
        x = np.concatenate([centers, (centers[:, None] + offsets).ravel(), rng.uniform(lo - 4.0, hi + 4.0, 500)])
        got = _memberships(x, lo, hi, [(t.center, 2.0 * t.sigma * t.sigma) for t in terms])
        want = np.array([[gaussian_membership(min(max(v, lo), hi), t) for t in terms] for v in x.tolist()])
        assert ((want > 0.0) & (want < np.finfo(float).tiny)).any() and (want == 0.0).any() and (want == 1.0).any()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("copies", [1, 2, 50, 203])
    def test_chunk_stays_under_the_element_cap(self, copies):
        model = default_model()
        model = replace(model, rules=model.rules * copies)
        n_in, terms = len(model.inputs), max(len(v.terms) for v in model.inputs)
        # a row's memberships, its antecedent degrees and its clip levels
        largest = max(n_in * terms, n_in * len(model.rules), len(model.output.terms))
        fire_rows = model._compiled.fire_rows
        assert fire_rows >= 1
        if fire_rows > 1:
            assert fire_rows * largest <= CHUNK_ELEMENTS

    def test_peak_memory_per_row_is_bounded(self):
        # distinct random rows over five blocks, so that each input's table
        # is as long as a block: about 77 bytes a row above the rows
        # themselves, against about 256 when the table, the clip levels and
        # their dedupe spanned the whole batch (280 when each input's exp
        # went through a list of Python floats, about 640 when one exp ran
        # over all inputs at once and the table was kept through the dedupe)
        rows, model = random_rows(20_000), default_model()
        assert traced_peak(lambda: _infer_rows(model, rows)) < 120 * len(rows)

    def test_peak_memory_per_row_is_bounded_at_64_output_terms(self):
        # a block's distinct clip vectors are one curve chunk of at most
        # CHUNK_ELEMENTS // 65 columns: about 169 bytes a row, against about
        # 329 when 4096-row blocks were scored in column chunks
        model = output_terms_model(64)
        rows = np.random.default_rng(64).uniform(0.0, 1.0, (20_000, 1))
        assert traced_peak(lambda: _infer_rows(model, rows)) < 250 * len(rows)

    def test_signed_zeros_and_clamped_values_bit_identical_to_infer(self):
        # each input has a term centred at 0: inside, at lo and at hi
        inputs = tuple(three_term_variable(n, lo, hi) for n, lo, hi in [("a", -1, 1), ("b", 0, 10), ("c", -4, 0)])
        rules = tuple(((i % 3, i // 3 % 3, i // 9), i % 2, 1.0) for i in range(27))
        model = FuzzyModel(inputs, three_term_variable("y", 0, 1), rules)
        rng = np.random.default_rng(5)
        # signed zeros, and values past either bound that clamp to the same one
        pool = [-0.0, 0.0, -20.0, -7.5, -5.0, 12.0, 30.0, 0.25]
        rows = rng.choice(pool, size=(200, 3))
        zeros = rows[rows == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        traces = [infer(model, row) for row in rows]
        assert _infer_rows(model, rows).tobytes() == np.array([t.crisp_output for t in traces]).tobytes()
        assert [t.crisp_output for t in traces] == exact_outputs(model, rows)
        table, index = _membership_table(model._compiled, rows)
        memberships = table.take(index, axis=0)
        for m, t in zip(memberships, traces):
            assert tuple(tuple(degrees.tolist()) for degrees in m) == t.memberships


class TestClipStage:
    @settings(max_examples=100, deadline=None, phases=NO_EXPLAIN_PHASES)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_one_row_batch_and_trace_agree_with_the_oracle(self, seed, data):
        # consequents in shuffled order, output terms that no rule concludes
        # and weights of -0.0 and 0.0: each term's clip level is the largest
        # strength of its rules, and 0.0 for a term without rules
        rng = np.random.default_rng(seed)
        base = random_model(rng, max_rules=30)
        n_out = len(base.output.terms)
        concluded = data.draw(st.lists(st.integers(0, n_out - 1), min_size=1, unique=True), label="concluded")
        weights = st.sampled_from([-0.0, 0.0, 0.5, 1.0])
        rules = tuple(
            (antecedents, data.draw(st.sampled_from(concluded)), data.draw(weights))
            for antecedents, _, _ in base.rules
        )
        model = replace(base, rules=rules, grid_points=data.draw(st.integers(2, 201), label="grid_points"))
        params = model_params(model)
        curves = reference_curves(params[1], model.grid_points)[1]
        live = []
        for row in out_of_range_rows(rng, model, 6):
            try:
                want = reference_infer(row, *params, model.grid_points)
            except ZeroDivisionError:  # a mass below MASS_EPSILON
                with pytest.raises(NoRuleFiredError):
                    infer(model, row)
                with pytest.raises(NoRuleFiredError):
                    _infer_rows(model, [row])
                continue
            trace = infer(model, row)
            strengths = reference_strengths(row, params[0], params[2])
            assert [s.hex() for s in trace.firing_strengths] == [s.hex() for s in strengths]
            # an output curve here stays above 0.0 over the whole universe, so a
            # model that fires has no zero degree and the bytes are defined
            degrees = reference_degrees(reference_clip_levels(row, *params), curves)
            assert trace.aggregated_curve[:, 1].tobytes() == np.array(degrees).tobytes()
            assert aggregate(model, trace.firing_strengths).tobytes() == trace.aggregated_curve.tobytes()
            assert trace.crisp_output == want and _infer_rows(model, [row])[0] == want
            live.append((row, want))
        if live:
            rows, want = zip(*live)
            assert _infer_rows(model, rows + rows[::-1]).tolist() == list(want + want[::-1])

    def test_runs_of_signed_zero_weights_bit_identical_to_infer(self):
        # each output term's rules form one run that a single max reduces:
        # runs of -0.0 weights alone, of 0.0 alone, of both, and of both with
        # a positive weight, and a term that no rule concludes
        output = FuzzyVariable("y", 0.0, 1.0, tuple(GaussianTerm(f"t{k}", k / 4, 0.1) for k in range(5)))
        x = (three_term_variable("a", 0.0, 1.0), three_term_variable("b", -1.0, 1.0))
        runs = {0: [-0.0] * 4, 1: [0.0] * 4, 2: [-0.0, 0.0, -0.0, 0.0], 3: [0.0, -0.0, 0.5, -0.0]}
        combos = list(itertools.product(range(3), range(3)))
        rules = tuple((combos[(3 * k + i) % 9], k, w) for k, weights in runs.items() for i, w in enumerate(weights))
        rules += tuple((a, 3, 1.0) for a in combos[::4])
        model = FuzzyModel(x, output, rules)
        assert len(model._compiled.concluded) == 4
        rng = np.random.default_rng(8)
        rows = np.column_stack([rng.uniform(-0.5, 1.5, 300), rng.choice([-2.0, -0.0, 0.0, 0.3, 2.0], 300)])
        want = np.array([infer(model, row).crisp_output for row in rows])
        assert _infer_rows(model, rows).tobytes() == want.tobytes()
        assert want.tolist() == exact_outputs(model, rows)
        # the clip levels the firing stage writes: a run of -0.0 keeps it,
        # and the term without rules is left as it was
        c = model._compiled
        table, index = _membership_table(c, rows)
        clip = np.full((len(rows), 5), np.nan)
        weights = np.repeat(c.weights[:, None], len(rows), axis=1)
        runs = list(zip(c.concluded.tolist(), c.starts.tolist(), [*c.starts[1:].tolist(), len(c.weights)]))
        engine._fire(c, table.take(index, axis=0), weights, runs, clip)
        assert np.isnan(clip[:, 4]).all()  # _infer_rows starts from zeros
        assert np.signbit(clip[:, 0]).all() and (clip[:, 0] == 0.0).all()
        assert not np.signbit(clip[:, 1]).any() and (clip[:, 1] == 0.0).all()
        assert (clip[:, 2] == 0.0).all() and (clip[:, 3] > 0.0).all()
        # the reference starts each level from 0.0, which equals -0.0
        params = model_params(model)
        assert clip[:, :4].tolist() == [reference_clip_levels(row, *params)[:4] for row in rows]

    def test_aggregate_of_signed_zeros_and_negatives(self):
        # the kernel's strengths are never below 0.0, and aggregate rejects
        # such strengths from its caller
        model = default_model()
        n, zeros = len(model.rules), np.zeros(model.grid_points)
        for negative in (-1e-300, -1.0, -math.inf):
            with pytest.raises(ValueError, match="firing strengths must be >= 0"):
                aggregate(model, [0.5] * (n - 1) + [negative])
        # -0.0 is not below 0.0: a run of -0.0 keeps it, as the max does
        assert aggregate(model, [-0.0] * n)[:, 1].tobytes() == (-zeros).tobytes()

    def test_aggregate_rejects_a_nan_strength(self):
        # nan < 0.0 is false, so a nan strength would give an all-nan curve
        n = len(default_model().rules)
        for strengths in ([math.nan] + [0.5] * (n - 1), [0.5] * (n - 1) + [math.nan], [-1.0, math.nan] + [0.5] * (n - 2)):
            with pytest.raises(ValueError, match="firing strengths must be >= 0, got nan"):
                aggregate(default_model(), strengths)
        # strengths that are not numbers, or not one number per rule
        for strengths in (["a"] * n, [[0.1, 0.2]] + [0.1] * (n - 1)):
            with pytest.raises(InvalidInputError) as info:
                aggregate(default_model(), strengths)
            assert str(info.value) == "firing strengths must be real numbers"

    def test_model_memory_grows_linearly_with_its_rules(self):
        # n output terms and 10n rules that all conclude the first: arrays
        # padded to the largest consequent group would grow as n * 10n
        def build_peak(n):
            output = FuzzyVariable("y", 0.0, 1.0, tuple(GaussianTerm(f"t{k}", k / n, 0.1) for k in range(n)))
            rules = tuple(((r % 3,), 0, 1.0) for r in range(10 * n))
            inputs = (three_term_variable("x", 0.0, 1.0),)
            # each size built once untraced first: numpy allocates for some
            # calls only the first time
            return traced_peak(lambda: FuzzyModel(inputs, output, rules, grid_points=2))

        # four times the document: at most four times the peak, with slack
        # for allocator steps (the padded layout gave about ten times)
        assert build_peak(64) <= 5 * build_peak(16)


def _power_of_ten(data, low, high, label):
    """10 ** e for e drawn from [low, high], so that every decade of the
    range is as likely as any other."""
    return 10.0 ** data.draw(st.floats(low, high), label=label)


class TestExtremeModels:
    """Sigmas and universes from anywhere in the range of a double: a model
    is rejected when it is built, or every decision is a number."""

    @staticmethod
    def variable(data, name):
        lo, hi = sorted(data.draw(st.sampled_from([-1.0, 1.0])) * _power_of_ten(data, -320, 308.25, "bound") for _ in range(2))
        assume(lo < hi)
        # lo * (1 - f) + hi * f overflows nowhere, unlike lo + f * (hi - lo)
        fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3), label="fractions")
        centers = sorted({min(max(lo * (1.0 - f) + hi * f, lo), hi) for f in fractions})
        terms = tuple(GaussianTerm(f"t{k}", c, _power_of_ten(data, -170, 160, "sigma")) for k, c in enumerate(centers))
        return FuzzyVariable(name, lo, hi, terms)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    # an accepted model's exponents are finite, so an overflow, a nan or a
    # division by zero raises
    @np.errstate(over="raise", invalid="raise", divide="raise")
    def test_an_accepted_model_scores_a_number_or_raises_no_rule_fired(self, data):
        try:
            inputs = tuple(self.variable(data, f"x{i}") for i in range(data.draw(st.integers(1, 2))))
            output = self.variable(data, "y")
            rule = st.tuples(*(st.integers(0, len(v.terms) - 1) for v in inputs), st.integers(0, len(output.terms) - 1), st.floats(0.0, 1.0))
            rules = tuple((r[:-2], r[-2], r[-1]) for r in data.draw(st.lists(rule, min_size=1, max_size=6), label="rules"))
            model = FuzzyModel(inputs, output, rules, grid_points=data.draw(st.integers(2, 64), label="grid_points"))
        except ValueError:
            return  # a 2*sigma*sigma, an output universe or an exponent out of range
        value = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([v.lo for v in inputs]))
        rows = np.array(data.draw(st.lists(st.tuples(*(value for _ in inputs)), min_size=1, max_size=4), label="rows"))
        for x in (rows[:1], rows):
            try:
                assert np.isfinite(_infer_rows(model, x)).all()
            except NoRuleFiredError:
                pass
        try:
            assert math.isfinite(infer(model, rows[0].tolist()).crisp_output)
        except NoRuleFiredError:
            pass


class TestMetamorphic:
    """Input and rule-base changes that must leave every output bit alone,
    checked on one row (the short cut) and on a batch (the dedupe path)."""

    @staticmethod
    def draw(seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, max_rules=40)
        lo = np.array([v.lo for v in model.inputs])
        hi = np.array([v.hi for v in model.inputs])
        # up to one universe width outside, some rows repeated
        rows = rng.uniform(lo - (hi - lo), hi + (hi - lo), size=(8, lo.size))
        return rng, model, rows[rng.integers(0, 8, size=12)]

    @staticmethod
    def assert_same_bits(model, rows, other_model, other_rows):
        for n in (1, len(rows)):
            want = _infer_rows(model, rows[:n]).tobytes()
            assert _infer_rows(other_model, other_rows[:n]).tobytes() == want

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_clamping_is_idempotent(self, seed):
        _, model, rows = self.draw(seed)
        lo = np.array([v.lo for v in model.inputs])
        hi = np.array([v.hi for v in model.inputs])
        self.assert_same_bits(model, rows, model, np.clip(rows, lo, hi))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_appending_a_weight_zero_rule_changes_nothing(self, seed):
        rng, model, rows = self.draw(seed)
        rule = (
            tuple(int(rng.integers(0, len(v.terms))) for v in model.inputs),
            int(rng.integers(0, len(model.output.terms))),
            0.0,
        )
        self.assert_same_bits(model, rows, replace(model, rules=model.rules + (rule,)), rows)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_appending_a_copy_of_a_rule_changes_nothing(self, seed):
        rng, model, rows = self.draw(seed)
        copy = model.rules[int(rng.integers(0, len(model.rules)))]
        self.assert_same_bits(model, rows, replace(model, rules=model.rules + (copy,)), rows)


class TestTypeValidation:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianTerm("t", 0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianTerm("t", 0.0, -1.0)

    def test_universe_must_be_ordered(self):
        t = GaussianTerm("t", 0.0, 1.0)
        with pytest.raises(ValueError):
            FuzzyVariable("x", 1.0, 1.0, (t,))

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0)])
    def test_universe_must_be_finite(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            FuzzyVariable("x", lo, hi, (GaussianTerm("t", 0.0, 1.0),))

    def test_term_centers_strictly_increasing(self):
        terms = (GaussianTerm("a", 2.0, 1.0), GaussianTerm("b", 1.0, 1.0))
        with pytest.raises(ValueError):
            FuzzyVariable("x", 0.0, 10.0, terms)

    def test_term_center_inside_universe(self):
        with pytest.raises(ValueError):
            FuzzyVariable("x", 0.0, 1.0, (GaussianTerm("a", 2.0, 1.0),))

    def test_duplicate_term_names(self):
        terms = (GaussianTerm("a", 1.0, 1.0), GaussianTerm("a", 2.0, 1.0))
        with pytest.raises(ValueError):
            FuzzyVariable("x", 0.0, 10.0, terms)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: GaussianTerm("", 0.0, 1.0), "term name must be non-empty"),
            (lambda: FuzzyVariable("", 0.0, 1.0, (GaussianTerm("t", 0.5, 1.0),)), "variable name must be non-empty"),
            (lambda: FuzzyVariable("x", 0.0, 1.0, ()), "variable 'x': needs at least one term"),
            (lambda: FuzzyModel((), three_term_variable("y", 0.0, 1.0), ()), "model needs at least one input variable"),
            (
                lambda: FuzzyModel((three_term_variable("x", 0.0, 1.0),), three_term_variable("x", 0.0, 1.0), (((0,), 0, 1.0),)),
                "variable names must be unique across the model",
            ),
            # an unhashable name raised a bare TypeError from the dict lookup
            (lambda: three_term_variable("x", 0.0, 1.0).term_index(["Low"]), "variable 'x' has no term named '['Low']'"),
        ],
        ids=[
            "empty-term-name", "empty-variable-name", "variable-without-terms", "model-without-inputs",
            "duplicate-variable-names", "unhashable-term-name",
        ],
    )
    def test_invalid_definition_gives_its_exact_message(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @staticmethod
    def one_rule_model(rule, n_inputs=1):
        inputs = tuple(three_term_variable(f"x{i}", 0.0, 1.0) for i in range(n_inputs))
        return FuzzyModel(inputs, three_term_variable("y", 0.0, 1.0), (rule,), grid_points=11)

    def test_rule_weight_range(self):
        with pytest.raises(ModelIntegrityError):
            self.one_rule_model(((0,), 0, 1.5))

    def test_rule_converts_each_field_once(self):
        model = self.one_rule_model((np.array([0, 2]), np.int64(1), np.float32(0.5)), n_inputs=2)
        ((antecedents, consequent, weight),) = model.rules
        assert antecedents == (0, 2)
        assert [type(i) for i in antecedents] == [int, int]
        assert type(consequent) is int and type(weight) is float
        assert self.one_rule_model(([np.intp(1)], 2.0, True)).rules == (((1,), 2, 1.0),)
        # antecedents are converted before the weight is checked
        with pytest.raises(ModelIntegrityError) as excinfo:
            self.one_rule_model((("x",), 0, 2.0))
        assert str(excinfo.value) == "rule 1: antecedent index x out of range for variable 'x0'"

    def test_an_empty_rule_base_is_a_model_without_rules(self):
        x, y = three_term_variable("x", 0.0, 1.0), three_term_variable("y", 0.0, 1.0)
        assert FuzzyModel((x,), y, []).rules == ()

    @pytest.mark.parametrize("weight", [1.5, -0.25, math.nan, math.inf, np.float64(1.0000000000000002)])
    def test_rule_weight_message(self, weight):
        with pytest.raises(ModelIntegrityError) as excinfo:
            self.one_rule_model(((0,), 0, weight))
        assert str(excinfo.value) == f"rule 1: rule weight must be in [0, 1], got {float(weight)}"

    def test_rule_is_a_frozen_value(self):
        # a model keeps its rules as tuples, compared and hashed by value
        model = self.one_rule_model(((0, 1), 2, 0.5), n_inputs=2)
        assert model.rules == (((0, 1), 2, 0.5),)
        twin = replace(model, rules=[([0, 1], np.int64(2), 0.5)])
        assert twin == model and hash(twin) == hash(model)
        assert replace(model, rules=[((0, 1), 2, 1.0)]) != model and replace(model, rules=[((1, 0), 2, 0.5)]) != model
        with pytest.raises(ModelIntegrityError, match="rule 1: rule weight"):
            replace(model, rules=[((0, 1), 2, 2.0)])
        assert "rules=(((0, 1), 2, 0.5),)" in repr(model)
        with pytest.raises(FrozenInstanceError):
            model.rules = ()

    @pytest.mark.parametrize(
        "rules, message",
        [
            ([((0, 0, 0), 0)], "rule 1: expected 2 antecedents, got 3"),
            ([((0, 0), 0), ((), 0)], "rule 2: expected 2 antecedents, got 0"),
            ([((3, 5), 0)], "rule 1: antecedent index 3 out of range for variable 'x'"),
            ([((0, 5), 9)], "rule 1: antecedent index 5 out of range for variable 'z'"),
            ([((0, -1), 0)], "rule 1: antecedent index -1 out of range for variable 'z'"),
            ([((0, 0), 3)], "rule 1: consequent index 3 out of range"),
            ([((0, 0), -1)], "rule 1: consequent index -1 out of range"),
            ([((2**70, 0), 0)], f"rule 1: antecedent index {2**70} out of range for variable 'x'"),
            ([((0, -(2**70)), 0)], f"rule 1: antecedent index {-(2**70)} out of range for variable 'z'"),
            ([((0, 0), 2**70)], f"rule 1: consequent index {2**70} out of range"),
            # the first bad rule is named, whatever is wrong with later ones
            ([((0, 0), 0), ((1, 1), 3), ((0,), 0), ((9, 0), 0)], "rule 2: consequent index 3 out of range"),
            ([((0, 0), 0), ((1, 1), 1), ((0, 0, 2**70), 0), ((9, 0), 0)], "rule 3: expected 2 antecedents, got 3"),
            ([((2, 2), 2), ((2**70, 0), 0), ((0, 0, 0), 0)], f"rule 2: antecedent index {2**70} out of range for variable 'x'"),
            ([((2, 2), 2), ((0, 3), 2**70), ((2**70, 0), 0)], "rule 2: antecedent index 3 out of range for variable 'z'"),
        ],
    )
    def test_model_names_the_first_bad_rule(self, rules, message):
        x = three_term_variable("x", 0.0, 10.0)
        z = three_term_variable("z", 0.0, 10.0)
        y = three_term_variable("y", 0.0, 1.0)
        with pytest.raises(ModelIntegrityError) as excinfo:
            FuzzyModel(inputs=(x, z), output=y, rules=tuple((a, c, 1.0) for a, c in rules))
        assert str(excinfo.value) == message

    def test_model_rejects_an_index_too_big_for_an_array(self):
        model = default_model()
        with pytest.raises(ModelIntegrityError) as excinfo:
            replace(model, rules=(*model.rules[:5], ((2**70, 0, 0, 0), 0, 1.0)))
        assert str(excinfo.value) == f"rule 6: antecedent index {2**70} out of range for variable 'signal_dbm'"

    def test_model_checks_rule_arity_and_indices(self):
        x = three_term_variable("x", 0.0, 10.0)
        y = three_term_variable("y", 0.0, 1.0)
        with pytest.raises(ModelIntegrityError):
            FuzzyModel(inputs=(x,), output=y, rules=(((0, 0), 0, 1.0),))
        with pytest.raises(ModelIntegrityError):
            FuzzyModel(inputs=(x,), output=y, rules=(((5,), 0, 1.0),))
        with pytest.raises(ModelIntegrityError):
            FuzzyModel(inputs=(x,), output=y, rules=(((0,), 9, 1.0),))

    def test_grid_points_minimum(self):
        x = three_term_variable("x", 0.0, 10.0)
        y = three_term_variable("y", 0.0, 1.0)
        with pytest.raises(ValueError):
            FuzzyModel(inputs=(x,), output=y, rules=(), grid_points=1)

    @pytest.mark.parametrize("grid_points", [5.0, np.int64(5), 1001.9, "1001", None])
    def test_grid_points_must_be_an_integer(self, grid_points):
        # read as int() reads it and equal to that int, as a rule index is
        x = three_term_variable("x", 0.0, 10.0)
        y = three_term_variable("y", 0.0, 1.0)
        if grid_points == 5:
            assert type(FuzzyModel(inputs=(x,), output=y, rules=(), grid_points=grid_points).grid_points) is int
        else:
            with pytest.raises(ValueError) as excinfo:
                FuzzyModel(inputs=(x,), output=y, rules=(), grid_points=grid_points)
            assert str(excinfo.value) == f"grid_points must be an integer, got {grid_points}"

    @pytest.mark.parametrize("n_terms, grid_points", [(11, 90911), (101, 9902), (1001, 1000)])
    def test_output_terms_times_grid_points_is_capped(self, n_terms, grid_points):
        # validation only: the check runs before the grid and the term curves
        # (8 MB or more for each case) are allocated
        x = three_term_variable("x", 0.0, 10.0)
        y = FuzzyVariable("y", 0.0, 1.0, tuple(GaussianTerm(f"t{k}", k / n_terms, 0.1) for k in range(n_terms)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as excinfo:
                FuzzyModel(inputs=(x,), output=y, rules=(((0,), 0, 1.0),), grid_points=grid_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(excinfo.value) == (
            f"output terms x grid_points must be <= {10 * MAX_GRID_POINTS}, got {n_terms} x {grid_points}"
        )
        assert peak < 1 << 20

    def test_grid_points_maximum(self):
        # validation only: the check runs before any grid is allocated
        x = three_term_variable("x", 0.0, 10.0)
        y = three_term_variable("y", 0.0, 1.0)
        with pytest.raises(ValueError, match="grid_points"):
            FuzzyModel(inputs=(x,), output=y, rules=(), grid_points=MAX_GRID_POINTS + 1)
