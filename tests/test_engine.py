import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuzzyspectrum import (
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    InvalidInputError,
    ModelIntegrityError,
    NoRuleFiredError,
    Rule,
    aggregate,
    clamp_to_universe,
    default_model,
    defuzzify_centroid,
    figure_preset,
    fuzzify,
    gaussian_membership,
    infer,
    run_sweep,
)

from fuzzyspectrum.engine import CHUNK_ELEMENTS, MASS_EPSILON, MAX_GRID_POINTS, _infer_rows, _membership_table

from conftest import random_inputs, random_model, three_term_variable
from oracle import (
    model_params,
    oracle_possibility,
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
        model = replace(model, rules=tuple(replace(r, weight=weight) for r in model.rules))
        for x in out_of_range_rows(rng, model, 4):
            trace = infer(model, x)
            for rule, strength in zip(model.rules, trace.firing_strengths):
                degrees = [m[i] for m, i in zip(trace.memberships, rule.antecedents)]
                assert all(strength <= d for d in degrees)
                assert strength == weight * min(degrees)
                if weight == 1.0:
                    assert strength == min(degrees)


class TestAggregate:
    def _model(self):
        x = three_term_variable("x", 0.0, 10.0)
        y = three_term_variable("y", 0.0, 1.0)
        rules = (
            Rule(antecedents=(0,), consequent=0),
            Rule(antecedents=(1,), consequent=2),
        )
        return FuzzyModel(inputs=(x,), output=y, rules=rules, grid_points=101)

    def test_all_zero_strengths(self):
        model = self._model()
        curve = aggregate(model, [0.0, 0.0])
        assert np.all(curve[:, 1] == 0.0)

    def test_single_rule_full_strength_is_the_consequent(self, unit_output_model):
        model = unit_output_model
        curve = aggregate(model, [1.0])
        term = model.output.terms[1]
        grid = curve[:, 0]
        expected = np.exp(-((grid - term.center) ** 2) / (2.0 * term.sigma * term.sigma))
        assert np.array_equal(curve[:, 1], expected)
        # spot values against the scalar form
        for i in (0, 250, 500, 750, 1000):
            assert abs(curve[i, 1] - gaussian_membership(curve[i, 0], term)) < 1e-15

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
        for rule, s in zip(model.rules, strengths):
            term = model.output.terms[rule.consequent]
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

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            defuzzify_centroid(np.empty((0, 2)))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_result_within_curve_support(self, seed):
        rng = np.random.default_rng(seed)
        x = np.linspace(-3.0, 7.0, 200)
        y = rng.uniform(0.001, 1.0, size=x.size)
        value = defuzzify_centroid(np.column_stack((x, y)))
        assert x[0] <= value <= x[-1]


def clip_levels(model, row):
    """Each output term's clip level: the largest strength of its rules."""
    strengths = infer(model, row).firing_strengths
    return tuple(
        max((s for s, r in zip(strengths, model.rules) if r.consequent == k), default=0.0)
        for k in range(len(model.output.terms))
    )


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
            rules=(Rule(antecedents=(1,), consequent=1, weight=0.0),),
        )
        with pytest.raises(NoRuleFiredError):
            infer(dead, [5.0])

    def test_matches_oracle_on_random_models_at_matched_grid(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            model = random_model(rng, max_rules=100)
            rows = [random_inputs(rng, model) for _ in range(3)]
            batch = _infer_rows(model, np.array(rows))
            for x, batched in zip(rows, batch):
                got = infer(model, x).crisp_output
                want = oracle_possibility(model, x, n_grid=model.grid_points)
                assert abs(got - want) < 1e-9
                assert abs(batched - want) < 1e-9
                assert model.output.lo <= got <= model.output.hi

    def test_batch_rows_bit_identical_to_infer_at_every_position(self):
        model = default_model()
        # the firing stage and the curve stage chunk the batch differently;
        # the batch spans more than two chunks of each (random rows rarely
        # share a clip vector, so the curve stage sees about as many rows)
        c = model._compiled
        rows_per_chunk = max(c.fire_rows, c.curve_rows)
        rng = np.random.default_rng(31)
        # some rows fall outside the universes, so clamping is covered too
        lo = np.array([v.lo for v in model.inputs])
        hi = np.array([v.hi for v in model.inputs])
        span = hi - lo
        rows = rng.uniform(lo - 0.2 * span, hi + 0.2 * span, size=(2 * rows_per_chunk + 5, lo.size))
        single = [infer(model, row).crisp_output for row in rows]
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
        spread = rng.uniform(lo, hi, size=(2 * model._compiled.curve_rows + 5, lo.size))
        rows = np.concatenate([corners, sweep, spread, spread[::3]])
        rng.shuffle(rows)

        distinct = {clip_levels(model, row) for row in rows}
        assert 2 * model._compiled.curve_rows < len(distinct) < len(rows)
        assert _infer_rows(model, rows).tolist() == [infer(model, row).crisp_output for row in rows]

    @settings(max_examples=25, deadline=None)
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

        order = data.draw(st.permutations(range(n)), label="order")
        assert _infer_rows(model, rows[order]).tobytes() == batch[order].tobytes()
        for k in range(1, n):
            assert _infer_rows(model, rows[:k]).tobytes() == batch[:k].tobytes()
        picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n), label="picks")
        repeated = _infer_rows(model, np.concatenate([rows, rows[picks]]))
        assert repeated.tobytes() == np.concatenate([batch, batch[picks]]).tobytes()


class TestCurveStage:
    @pytest.mark.parametrize("grid_points", [101, 1001, 5001])
    def test_batch_matches_left_to_right_centroid_at_every_width(self, grid_points):
        # the curve stage sums a single column and a chunk of many columns
        # differently; both must equal adding the grid one point at a time
        model = replace(default_model(), grid_points=grid_points)
        c = model._compiled
        rng = np.random.default_rng(grid_points)
        lo = np.array([v.lo for v in model.inputs])
        hi = np.array([v.hi for v in model.inputs])
        distinct = rng.uniform(lo, hi, size=(c.curve_rows + 1, lo.size))
        clips = [clip_levels(model, row) for row in distinct]
        assert len(set(clips)) == len(distinct)
        grid = c.grid.tolist()
        curves = c.term_curves.tolist()
        want = []
        for clip in clips:
            degrees = [
                max(min(level, curve[g]) for level, curve in zip(clip, curves))
                for g in range(grid_points)
            ]
            want.append(trapezoid_centroid(grid, degrees))

        for n in (1, 2, c.curve_rows, c.curve_rows + 1):
            picks = np.concatenate([np.arange(n), rng.integers(0, n, size=n + 3)])
            rng.shuffle(picks)
            assert _infer_rows(model, distinct[picks]).tolist() == [want[i] for i in picks]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_term_curves_equal_the_per_term_expression(self, data):
        # term_curves is one (terms, grid points) expression; each row must
        # be bit for bit the one-term expression
        lo = data.draw(st.floats(-1e6, 1e6), label="lo")
        hi = lo + data.draw(st.floats(1e-3, 1e6), label="span")
        centers = sorted(set(data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=12), label="centers")))
        sigmas = data.draw(st.lists(st.floats((hi - lo) * 1e-3, (hi - lo) * 10), min_size=len(centers), max_size=len(centers)))
        output = FuzzyVariable("y", lo, hi, tuple(GaussianTerm(f"t{k}", c, s) for k, (c, s) in enumerate(zip(centers, sigmas))))
        grid_points = data.draw(st.integers(2, 5001), label="grid_points")
        c = FuzzyModel((three_term_variable("x", 0.0, 1.0),), output, (Rule((0,), 0),), grid_points)._compiled
        want = np.stack([np.exp(-((c.grid - t.center) ** 2) / (2.0 * t.sigma * t.sigma)) for t in output.terms])
        assert c.term_curves.shape == want.shape
        assert c.term_curves.tobytes() == want.tobytes()

    def test_short_curves_match_left_to_right_centroid(self):
        one = np.array([[0.3, 0.7]])
        assert defuzzify_centroid(one) == trapezoid_centroid([0.3], [0.7])
        assert one.tolist() == [[0.3, 0.7]]
        points, degrees = [0.1, 0.9], [0.2, 0.6]
        assert defuzzify_centroid(list(zip(points, degrees))) == trapezoid_centroid(points, degrees)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_lone_column_sums_left_to_right(self, data):
        # one column is summed as a running sum, so mass and moment must
        # equal adding the points one at a time, negative points included
        points = sorted(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400, unique=True)))
        degrees = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(points), max_size=len(points)))
        num, den = trapezoid_sums(points, degrees)
        if den < MASS_EPSILON:
            with pytest.raises(NoRuleFiredError):
                defuzzify_centroid(list(zip(points, degrees)))
        else:
            assert defuzzify_centroid(list(zip(points, degrees))).hex() == (num / den).hex()

    @pytest.mark.parametrize(
        "grid_points", [2, 101, 1001, 5001, CHUNK_ELEMENTS, CHUNK_ELEMENTS + 1, MAX_GRID_POINTS]
    )
    def test_chunk_stays_under_the_element_cap(self, grid_points):
        c = replace(default_model(), grid_points=grid_points)._compiled
        assert c.curve_rows >= 1
        if c.curve_rows > 1:
            assert c.curve_rows * grid_points <= CHUNK_ELEMENTS

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_batch_matches_oracle_on_random_models(self, seed, data):
        rng = np.random.default_rng(seed)
        grid_points = data.draw(st.integers(11, 2001), label="grid_points")
        model = replace(random_model(rng, max_rules=40), grid_points=grid_points)
        lo = np.array([v.lo for v in model.inputs])
        hi = np.array([v.hi for v in model.inputs])
        span = hi - lo
        n = data.draw(st.integers(1, 60), label="rows")
        rows = rng.uniform(lo - 0.2 * span, hi + 0.2 * span, size=(n, lo.size))
        batch = _infer_rows(model, rows)
        for row, got in zip(rows, batch):
            assert abs(got - oracle_possibility(model, row, n_grid=grid_points)) < 1e-6


class TestFiringStage:
    def test_exp_runs_once_per_distinct_value_of_each_input(self, monkeypatch):
        default_model()  # built before counting
        calls = []
        exp = math.exp
        monkeypatch.setattr(math, "exp", lambda a: calls.append(a) or exp(a))
        run_sweep(figure_preset(7))
        # two swept inputs of 41 samples, two fixed ones, three terms each
        assert len(calls) == (41 + 41 + 1 + 1) * 3

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

    def test_signed_zeros_and_clamped_values_bit_identical_to_infer(self):
        # each input has a term centred at 0: inside, at lo and at hi
        inputs = tuple(three_term_variable(n, lo, hi) for n, lo, hi in [("a", -1, 1), ("b", 0, 10), ("c", -4, 0)])
        rules = tuple(Rule((i % 3, i // 3 % 3, i // 9), i % 2) for i in range(27))
        model = FuzzyModel(inputs, three_term_variable("y", 0, 1), rules)
        rng = np.random.default_rng(5)
        # signed zeros, and values past either bound that clamp to the same one
        pool = [-0.0, 0.0, -20.0, -7.5, -5.0, 12.0, 30.0, 0.25]
        rows = rng.choice(pool, size=(200, 3))
        zeros = rows[rows == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        traces = [infer(model, row) for row in rows]
        assert _infer_rows(model, rows).tobytes() == np.array([t.crisp_output for t in traces]).tobytes()
        table, index = _membership_table(model._compiled, rows)
        memberships = table.take(index, axis=0)
        for m, t in zip(memberships, traces):
            assert tuple(tuple(degrees.tolist()) for degrees in m) == t.memberships


class TestClipStage:
    @settings(max_examples=100, deadline=None)
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
            replace(rule, consequent=data.draw(st.sampled_from(concluded)), weight=data.draw(weights))
            for rule in base.rules
        )
        model = replace(base, rules=rules, grid_points=data.draw(st.integers(2, 201), label="grid_points"))
        input_vars, _, params = model_params(model)
        curves = model._compiled.term_curves.tolist()
        live = []
        for row in out_of_range_rows(rng, model, 6):
            strengths = reference_strengths(row, input_vars, params)
            clip = [
                max((s for s, rule in zip(strengths, rules) if rule.consequent == k), default=0.0)
                for k in range(n_out)
            ]
            degrees = [max(min(level, curve[g]) for level, curve in zip(clip, curves)) for g in range(model.grid_points)]
            try:
                trace = infer(model, row)
            except NoRuleFiredError:
                with pytest.raises(NoRuleFiredError):
                    _infer_rows(model, [row])
                continue
            assert [s.hex() for s in trace.firing_strengths] == [s.hex() for s in strengths]
            # an output curve here stays above 0.0 over the whole universe, so a
            # model that fires has no zero degree and the bytes are defined
            assert trace.aggregated_curve[:, 1].tobytes() == np.array(degrees).tobytes()
            assert aggregate(model, trace.firing_strengths).tobytes() == trace.aggregated_curve.tobytes()
            assert _infer_rows(model, [row])[0].hex() == trace.crisp_output.hex()
            live.append((row, trace.crisp_output.hex()))
        if live:
            rows, want = zip(*live)
            assert [v.hex() for v in _infer_rows(model, rows + rows[::-1])] == list(want + want[::-1])

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

    def test_model_memory_grows_linearly_with_its_rules(self):
        # n output terms and 10n rules that all conclude the first: arrays
        # padded to the largest consequent group would grow as n * 10n
        def build_peak(n):
            output = FuzzyVariable("y", 0.0, 1.0, tuple(GaussianTerm(f"t{k}", k / n, 0.1) for k in range(n)))
            rules = tuple(Rule((r % 3,), 0) for r in range(10 * n))
            inputs = (three_term_variable("x", 0.0, 1.0),)
            tracemalloc.start()
            try:
                FuzzyModel(inputs, output, rules, grid_points=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        build_peak(64)  # numpy allocates for some calls only the first time
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
            rules = tuple(Rule(r[:-2], r[-2], r[-1]) for r in data.draw(st.lists(rule, min_size=1, max_size=6), label="rules"))
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
        rule = Rule(
            antecedents=tuple(int(rng.integers(0, len(v.terms))) for v in model.inputs),
            consequent=int(rng.integers(0, len(model.output.terms))),
            weight=0.0,
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

    def test_rule_weight_range(self):
        with pytest.raises(ValueError):
            Rule(antecedents=(0,), consequent=0, weight=1.5)

    def test_rule_converts_each_field_once(self):
        rule = Rule(np.array([0, 2]), np.int64(1), np.float32(0.5))
        assert rule.antecedents == (0, 2)
        assert [type(i) for i in rule.antecedents] == [int, int]
        assert type(rule.consequent) is int and type(rule.weight) is float
        assert Rule(antecedents=[np.intp(1)], consequent=2.0) == Rule((1,), 2, 1.0)
        # antecedents are converted before the weight is checked
        with pytest.raises(ValueError, match="invalid literal"):
            Rule(("x",), 0, 2.0)

    @pytest.mark.parametrize("weight", [1.5, -0.25, math.nan, math.inf, np.float64(1.0000000000000002)])
    def test_rule_weight_message(self, weight):
        with pytest.raises(ValueError) as excinfo:
            Rule((0,), 0, weight)
        assert str(excinfo.value) == f"rule weight must be in [0, 1], got {float(weight)}"

    def test_rule_is_a_frozen_value(self):
        rule = Rule((0, 1), 2, 0.5)
        assert replace(rule, weight=1.0) == Rule((0, 1), 2)
        assert replace(rule, antecedents=[np.int64(2), 0]).antecedents == (2, 0)
        with pytest.raises(ValueError, match="rule weight"):
            replace(rule, weight=2.0)
        assert rule == Rule([0, 1], np.int64(2), 0.5) and hash(rule) == hash(Rule([0, 1], np.int64(2), 0.5))
        assert rule != Rule((0, 1), 2, 1.0) and rule != Rule((1, 0), 2, 0.5)
        assert repr(rule) == "Rule(antecedents=(0, 1), consequent=2, weight=0.5)"
        with pytest.raises(FrozenInstanceError):
            rule.weight = 1.0

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
            FuzzyModel(inputs=(x, z), output=y, rules=tuple(Rule(a, c) for a, c in rules))
        assert str(excinfo.value) == message

    def test_model_rejects_an_index_too_big_for_an_array(self):
        model = default_model()
        with pytest.raises(ModelIntegrityError) as excinfo:
            replace(model, rules=(*model.rules[:5], Rule((2**70, 0, 0, 0), 0)))
        assert str(excinfo.value) == f"rule 6: antecedent index {2**70} out of range for variable 'signal_dbm'"

    def test_model_checks_rule_arity_and_indices(self):
        x = three_term_variable("x", 0.0, 10.0)
        y = three_term_variable("y", 0.0, 1.0)
        with pytest.raises(ModelIntegrityError):
            FuzzyModel(inputs=(x,), output=y, rules=(Rule(antecedents=(0, 0), consequent=0),))
        with pytest.raises(ModelIntegrityError):
            FuzzyModel(inputs=(x,), output=y, rules=(Rule(antecedents=(5,), consequent=0),))
        with pytest.raises(ModelIntegrityError):
            FuzzyModel(inputs=(x,), output=y, rules=(Rule(antecedents=(0,), consequent=9),))

    def test_grid_points_minimum(self):
        x = three_term_variable("x", 0.0, 10.0)
        y = three_term_variable("y", 0.0, 1.0)
        with pytest.raises(ValueError):
            FuzzyModel(inputs=(x,), output=y, rules=(), grid_points=1)

    @pytest.mark.parametrize("n_terms, grid_points", [(11, 90911), (101, 9902), (1001, 1000)])
    def test_output_terms_times_grid_points_is_capped(self, n_terms, grid_points):
        # validation only: the check runs before the grid and the term curves
        # (8 MB or more for each case) are allocated
        x = three_term_variable("x", 0.0, 10.0)
        y = FuzzyVariable("y", 0.0, 1.0, tuple(GaussianTerm(f"t{k}", k / n_terms, 0.1) for k in range(n_terms)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as excinfo:
                FuzzyModel(inputs=(x,), output=y, rules=(Rule((0,), 0),), grid_points=grid_points)
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
