import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    firing_strength,
    fuzzify,
    gaussian_membership,
    infer,
    output_grid,
)

from fuzzyspectrum.engine import MAX_GRID_POINTS, _infer_rows

from conftest import random_inputs, random_model, three_term_variable
from oracle import oracle_possibility, riemann_centroid


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


class TestFiringStrength:
    def _memberships(self, *degrees):
        return [[d] for d in degrees]

    def test_all_ones_weight_one(self):
        rule = Rule(antecedents=(0, 0, 0, 0), consequent=0, weight=1.0)
        assert firing_strength(rule, self._memberships(1.0, 1.0, 1.0, 1.0)) == 1.0

    def test_any_zero_kills_the_rule(self):
        rule = Rule(antecedents=(0, 0, 0, 0), consequent=0, weight=1.0)
        assert firing_strength(rule, self._memberships(1.0, 0.0, 1.0, 1.0)) == 0.0

    def test_min_of_degrees(self):
        rule = Rule(antecedents=(0, 0, 0, 0), consequent=0, weight=1.0)
        assert firing_strength(rule, self._memberships(0.8, 0.3, 0.9, 0.5)) == 0.3

    def test_weight_scales(self):
        rule = Rule(antecedents=(0, 0), consequent=0, weight=0.5)
        assert firing_strength(rule, self._memberships(0.8, 0.6)) == 0.5 * 0.6

    def test_index_out_of_range(self):
        rule = Rule(antecedents=(3,), consequent=0, weight=1.0)
        with pytest.raises(ModelIntegrityError):
            firing_strength(rule, [[0.1, 0.2]])

    @given(degrees=st.lists(st.floats(0, 1), min_size=1, max_size=6),
           weight=st.floats(0, 1))
    def test_never_exceeds_any_antecedent(self, degrees, weight):
        rule = Rule(antecedents=tuple(0 for _ in degrees), consequent=0, weight=weight)
        memberships = [[d] for d in degrees]
        strength = firing_strength(rule, memberships)
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
        grid = output_grid(model)
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

    def test_trace_strengths_match_scalar_firing_strength(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, max_rules=25)
        x = random_inputs(rng, model)
        trace = infer(model, x)
        for rule, got in zip(model.rules, trace.firing_strengths):
            assert got == firing_strength(rule, trace.memberships)

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

        traces = [infer(model, row) for row in rows]
        clip_levels = {
            tuple(
                max((s for s, r in zip(t.firing_strengths, model.rules) if r.consequent == k), default=0.0)
                for k in range(len(model.output.terms))
            )
            for t in traces
        }
        assert 2 * model._compiled.curve_rows < len(clip_levels) < len(rows)
        assert _infer_rows(model, rows).tolist() == [t.crisp_output for t in traces]

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

    def test_grid_points_maximum(self):
        # validation only: the check runs before any grid is allocated
        x = three_term_variable("x", 0.0, 10.0)
        y = three_term_variable("y", 0.0, 1.0)
        with pytest.raises(ValueError, match="grid_points"):
            FuzzyModel(inputs=(x,), output=y, rules=(), grid_points=MAX_GRID_POINTS + 1)
