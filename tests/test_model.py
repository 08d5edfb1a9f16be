import itertools
import json
import math
import time
import types
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzyspectrum
from fuzzyspectrum import (
    INPUT_ORDER,
    UNIVERSES,
    Candidate,
    CandidateBatch,
    DecisionResult,
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    InvalidInputError,
    ModelIntegrityError,
    NoRuleFiredError,
    arbitrate,
    decision_possibility,
    default_model,
    infer,
    validate_model,
)
from fuzzyspectrum.engine import _infer_row, _infer_rows
from fuzzyspectrum.model import _MISSING_NAMED
from fuzzyspectrum.serialization import (
    ModelDocument,
    default_document,
    parse_document,
    serialize_document,
)

from conftest import (
    LEVEL_NAMES,
    TABLE1_RULES,
    crossover_sigma,
    dead_model,
    exact_outputs,
    random_model,
    table1_rules,
    three_term_variable,
)
from oracle import oracle_possibility, reference_validate_model

LEVEL = {"L": 0, "M": 1, "H": 2}


def table1_triples():
    """table1_rules() as (antecedents, consequent, weight) triples of term
    indices, each at weight 1."""
    return tuple(
        (tuple(map(LEVEL_NAMES.index, antecedents)), LEVEL_NAMES.index(consequent), 1.0)
        for antecedents, consequent in table1_rules()
    )


def center_vector(levels):
    """Input vector hitting the named term center of every variable."""
    values = []
    for name, level in zip(INPUT_ORDER, levels):
        lo, hi = UNIVERSES[name]
        values.append((lo, (lo + hi) / 2.0, hi)[level])
    return values


class TestDefaultModelStructure:
    def test_input_order_and_names(self):
        model = default_model()
        assert tuple(v.name for v in model.inputs) == INPUT_ORDER
        assert model.output.name == "decision"

    def test_every_variable_has_three_ordered_levels(self):
        model = default_model()
        for var in (*model.inputs, model.output):
            assert tuple(t.name for t in var.terms) == LEVEL_NAMES
            lo, hi = UNIVERSES[var.name]
            assert (var.lo, var.hi) == (lo, hi)
            assert [t.center for t in var.terms] == [lo, (lo + hi) / 2.0, hi]

    def test_sigma_gives_half_crossover(self):
        model = default_model()
        for var in (*model.inputs, model.output):
            spacing = (var.hi - var.lo) / 2.0
            assert var.terms[0].sigma == crossover_sigma(spacing)
            # adjacent terms meet at 0.5 halfway between their centers
            mid = (var.terms[0].center + var.terms[1].center) / 2.0
            d = mid - var.terms[0].center
            mu = math.exp(-(d * d) / (2 * var.terms[0].sigma ** 2))
            assert abs(mu - 0.5) < 1e-12

    def test_81_rules_all_weight_one(self):
        model = default_model()
        assert len(model.rules) == 81
        assert all(weight == 1.0 for _, _, weight in model.rules)

    @pytest.mark.parametrize(
        "row, antecedents, consequent",
        [
            (1, "LLLL", "H"),
            (12, "LMLH", "L"),
            (46, "MHLL", "H"),
            (81, "HHHH", "L"),
        ],
    )
    def test_known_rows(self, row, antecedents, consequent):
        assert default_model().rules[row - 1][:2] == (tuple(LEVEL[c] for c in antecedents), LEVEL[consequent])

    def test_rows_are_lexicographic_in_level_order(self):
        combos = [antecedents for antecedents, _, _ in table1_triples()]
        assert combos == list(itertools.product(range(3), repeat=4))

    def test_consequent_tallies_match_fixture_transcription(self):
        # recount from the independently transcribed fixture, not a literal
        fixture_counts = {"Low": 0, "Medium": 0, "High": 0}
        for line in TABLE1_RULES.read_text().splitlines():
            fixture_counts[line.split("-> ")[1]] += 1
        model_counts = {"Low": 0, "Medium": 0, "High": 0}
        model = default_model()
        for _, consequent, _ in model.rules:
            model_counts[model.output.terms[consequent].name] += 1
        assert model_counts == fixture_counts
        assert sum(model_counts.values()) == 81


@st.composite
def edited_rule_bases(draw):
    """The default rule base after a few random edits: drop, duplicate,
    change a term, reweight or reorder."""
    rules = list(default_model().rules)
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["drop", "duplicate", "term", "weight", "reorder"]))
        if edit == "reorder":
            rules = draw(st.permutations(rules))
            continue
        if not rules:
            continue
        i = draw(st.integers(0, len(rules) - 1))
        if edit == "drop":
            del rules[i]
        elif edit == "duplicate":
            rules.insert(draw(st.integers(0, len(rules))), rules[i])
        elif edit == "term":
            antecedents, _, weight = rules[i]
            antecedents = list(antecedents)
            antecedents[draw(st.integers(0, len(antecedents) - 1))] = draw(st.integers(0, 2))
            rules[i] = (tuple(antecedents), draw(st.integers(0, 2)), weight)
        else:
            rules[i] = (*rules[i][:2], draw(st.sampled_from([0.0, 0.5, 0.9999999999999999, 1.0])))
    return tuple(rules)


class TestValidateModel:
    @settings(max_examples=150, deadline=None)
    @given(rules=edited_rule_bases())
    def test_matches_the_rule_by_rule_walk(self, rules):
        model = replace(default_model(), rules=rules)
        input_terms = tuple(tuple(t.name for t in v.terms) for v in model.inputs)
        assert validate_model(model).failures == tuple(reference_validate_model(input_terms, rules))

    def test_default_model_is_clean(self):
        report = validate_model(default_model())
        assert report.failures == ()

    def test_duplicate_and_missing_combination(self):
        model = default_model()
        rules = list(model.rules)
        rules[1] = rules[0]
        broken = FuzzyModel(
            inputs=model.inputs, output=model.output, rules=tuple(rules),
            grid_points=model.grid_points,
        )
        report = validate_model(broken)
        assert report.failures
        assert any("duplicate antecedent combination" in f for f in report.failures)
        assert any("missing antecedent combination" in f for f in report.failures)
        assert any("(Low, Low, Low, Medium)" in f for f in report.failures)

    def test_off_spec_weight_is_flagged(self):
        model = default_model()
        rules = list(model.rules)
        rules[3] = (*rules[3][:2], 0.5)
        broken = FuzzyModel(
            inputs=model.inputs, output=model.output, rules=tuple(rules),
            grid_points=model.grid_points,
        )
        report = validate_model(broken)
        assert any("rule 4" in f and "weight 0.5" in f for f in report.failures)

    def test_wrong_rule_count(self):
        model = default_model()
        broken = FuzzyModel(
            inputs=model.inputs, output=model.output, rules=model.rules[:80],
            grid_points=model.grid_points,
        )
        report = validate_model(broken)
        assert any("rule count 80" in f for f in report.failures)


def six_term_inputs(n):
    """n input variables of six terms each."""
    terms = tuple(GaussianTerm(f"t{k}", float(k), 1.0) for k in range(6))
    return tuple(FuzzyVariable(f"x{i}", 0.0, 5.0, terms) for i in range(n))


class TestValidateModelBounds:
    @pytest.mark.parametrize("n_inputs", [6, 12])
    def test_missing_combinations_named_up_to_a_cap(self, n_inputs):
        # one rule leaves 6**n - 1 combinations missing: 46655 for six
        # inputs, about 2e9 for twelve; the first few are named, the rest counted
        model = FuzzyModel(six_term_inputs(n_inputs), three_term_variable("y", 0.0, 1.0), (((0,) * n_inputs, 0, 1.0),))
        start = time.perf_counter()
        failures = validate_model(model).failures
        assert time.perf_counter() - start < 1.0
        missing = 6**n_inputs - 1
        assert failures[0] == f"rule count 1 != expected {6**n_inputs}"
        assert failures[1] == f"missing antecedent combination ({', '.join(['t0'] * (n_inputs - 1))}, t1)"
        assert len(failures) == _MISSING_NAMED + 2
        assert failures[-1] == f"… and {missing - _MISSING_NAMED} more missing antecedent combinations"
        assert sum(map(len, failures)) < 200 * (_MISSING_NAMED + 2)

    @pytest.mark.parametrize("beyond", [0, 1, 2])
    def test_walk_is_the_rule_by_rule_report_up_to_the_cap(self, beyond):
        # two inputs of eleven terms, with rules for the last combinations
        # only: _MISSING_NAMED + beyond of the 121 are missing
        terms = tuple(GaussianTerm(f"t{k}", float(k), 1.0) for k in range(11))
        inputs = (FuzzyVariable("a", 0.0, 10.0, terms), FuzzyVariable("b", 0.0, 10.0, terms))
        combos = list(itertools.product(range(11), repeat=2))
        rules = tuple((combo, 0, 1.0) for combo in combos[_MISSING_NAMED + beyond:])
        model = FuzzyModel(inputs, three_term_variable("y", 0.0, 1.0), rules)
        input_terms = tuple(tuple(t.name for t in v.terms) for v in inputs)
        want = reference_validate_model(input_terms, rules)
        more = (f"… and {beyond} more missing antecedent combinations",) if beyond else ()
        assert validate_model(model).failures == tuple(want[: _MISSING_NAMED + 1]) + more


class TestRuleTableFaithfulness:
    def test_each_center_vector_peaks_its_own_row(self):
        model = default_model()
        for row, (levels, _, _) in enumerate(table1_triples()):
            trace = infer(model, center_vector(levels))
            strengths = trace.firing_strengths
            assert strengths[row] == 1.0
            best = max(range(81), key=lambda i: strengths[i])
            assert best == row
            others = [s for i, s in enumerate(strengths) if i != row]
            assert max(others) < 1.0


class TestDecisionPossibility:
    def test_favorable_beats_unfavorable(self):
        model = default_model()
        favorable = Candidate("f", *center_vector((0, 0, 0, 0)))
        unfavorable = Candidate("u", *center_vector((2, 2, 2, 2)))
        pf = decision_possibility(favorable, model).possibility
        pu = decision_possibility(unfavorable, model).possibility
        assert pf > pu
        assert abs(pf - oracle_possibility(model, favorable.inputs())) < 1e-6
        assert abs(pu - oracle_possibility(model, unfavorable.inputs())) < 1e-6

    def test_operating_point_is_the_medium_centroid(self):
        # all inputs at their Medium centers: the aggregate is symmetric
        # about 0.5, so the centroid sits at mid-universe
        model = default_model()
        candidate = Candidate("op", -60.0, 50.0, 0.5, 50.0)
        result = decision_possibility(candidate, model)
        assert abs(result.possibility - 0.5) < 1e-3
        assert abs(result.possibility - oracle_possibility(model, candidate.inputs())) < 1e-6
        assert infer(model, candidate.inputs()).firing_strengths[40] == 1.0  # row 41: all Medium

    def test_operating_point_summed_left_to_right(self):
        # the centroid adds the grid one point at a time; a pairwise sum
        # gives exactly 0.5 here, which the default threshold would admit
        result = decision_possibility(Candidate("op", -60.0, 50.0, 0.5, 50.0))
        assert result.possibility == 0.4999999999999994
        assert not result.admitted
        # the reference, plain Python from grid to centroid, as well
        assert exact_outputs(default_model(), [[-60.0, 50.0, 0.5, 50.0]]) == [0.4999999999999994]

    def test_identical_candidates_identical_possibility(self):
        a = decision_possibility(Candidate("a", -72.5, 31.0, 0.62, 18.0))
        b = decision_possibility(Candidate("b", -72.5, 31.0, 0.62, 18.0))
        assert a.possibility == b.possibility

    def test_out_of_range_inputs_clamp(self):
        weak = decision_possibility(Candidate("w", -110.0, 50.0, 1.5, 50.0))
        edge = decision_possibility(Candidate("e", -100.0, 50.0, 1.0, 50.0))
        assert weak.possibility == edge.possibility

    def test_admitted_tracks_threshold(self):
        candidate = Candidate("c", *center_vector((0, 0, 0, 0)))
        assert decision_possibility(candidate, threshold=0.5).admitted
        assert not decision_possibility(candidate, threshold=0.99).admitted

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            decision_possibility(Candidate("c", -60, 50, 0.5, 50), threshold=1.5)

    def test_result_holds_the_decision_only(self):
        result = decision_possibility(Candidate("c", -60.0, 50.0, 0.5, 50.0))
        assert [f.name for f in fields(result)] == ["candidate_id", "possibility", "admitted"]
        assert result == DecisionResult("c", 0.4999999999999994, False)

    def test_model_of_other_arity_rejected_like_arbitrate(self, unit_output_model):
        candidate = Candidate("a", -60.0, 50.0, 0.5, 50.0)
        with pytest.raises(InvalidInputError) as scored:
            decision_possibility(candidate, unit_output_model)
        with pytest.raises(InvalidInputError) as ranked:
            arbitrate([candidate], unit_output_model)
        assert str(scored.value) == str(ranked.value) == "expected 1 inputs, got 4"

    def test_dead_model_raises_no_rule_fired(self):
        with pytest.raises(NoRuleFiredError):
            decision_possibility(Candidate("c", -60.0, 50.0, 0.5, 50.0), dead_model())

    def test_a_process_that_only_decides_calls_no_numpy_sort(self, monkeypatch):
        # the first numpy sort pages in its sort code, which shows in the
        # peak RSS of a process that only decides
        def refuse(*args, **kwargs):
            raise AssertionError("a numpy sort was called")

        for name in ("sort", "argsort", "lexsort", "unique"):
            monkeypatch.setattr(np, name, refuse)
        # the shipped file is read again, with the sorts refused
        default_document.cache_clear()
        model = default_model()
        assert validate_model(model).failures == ()
        for candidate in EDGE_CANDIDATES:
            scored = decision_possibility(candidate, model)
            traced = infer(model, candidate.inputs())
            assert scored.possibility == traced.crisp_output


def assert_trace_free_bits(model, candidates):
    """A decision without a trace equals infer's crisp output and the same
    row's entry in a larger batch, bit for bit, and the exact reference."""
    rows = [c.inputs() for c in candidates]
    batch = _infer_rows(model, rows + rows[::-1]).tolist()
    for c, batched, exact in zip(candidates, batch, exact_outputs(model, rows)):
        got = decision_possibility(c, model).possibility
        assert got.hex() == infer(model, c.inputs()).crisp_output.hex() == batched.hex()
        assert got == exact


def candidates_around(rng, model, n):
    """n candidates drawn up to one universe width beyond each bound, so many
    are clamped; velocity, ratio and distance, which a Candidate needs to be
    non-negative, are reflected to their absolute values."""
    lo = np.array([v.lo for v in model.inputs])
    hi = np.array([v.hi for v in model.inputs])
    rows = rng.uniform(lo - (hi - lo), hi + (hi - lo), size=(n, 4))
    rows[:, 1:] = np.abs(rows[:, 1:])
    return [Candidate(f"r{i}", *row) for i, row in enumerate(rows)]


# the operating point, rows clamped on every side, signed zeros and corners
EDGE_CANDIDATES = [
    Candidate("op", -60.0, 50.0, 0.5, 50.0),
    Candidate("below", -140.0, 0.0, 0.0, 0.0),
    Candidate("above", 0.0, 180.0, 2.5, 400.0),
    Candidate("mixed", -10.0, 25.0, 1.2, 100.0),
    Candidate("zeros", -60.0, -0.0, -0.0, -0.0),
    Candidate("corner", -100.0, 100.0, 1.0, 0.0),
]


class TestTraceFreeDecision:
    @pytest.mark.parametrize("grid_points", [2, 101, 1001, 5001])
    def test_bit_identical_to_infer_and_batch(self, grid_points):
        model = replace(default_model(), grid_points=grid_points)
        randoms = candidates_around(np.random.default_rng(grid_points), model, 20)
        assert_trace_free_bits(model, EDGE_CANDIDATES + randoms)

    def test_negative_zero_inputs_score_as_zero(self):
        positive = decision_possibility(Candidate("p", -60.0, 0.0, 0.0, 0.0)).possibility
        negative = decision_possibility(Candidate("n", -60.0, -0.0, -0.0, -0.0)).possibility
        assert negative.hex() == positive.hex()

    def test_bit_identical_on_random_models(self):
        rng = np.random.default_rng(606)
        models = [random_model(rng, max_rules=60) for _ in range(40)]
        models = [m for m in models if len(m.inputs) == 4]
        assert len(models) >= 5
        for model in models:
            assert_trace_free_bits(model, candidates_around(rng, model, 8))


def rule_built_twin(model):
    """The model built again through FuzzyModel(...) from fresh lists."""
    rules = [(list(antecedents), consequent, weight) for antecedents, consequent, weight in model.rules]
    return FuzzyModel(inputs=model.inputs, output=model.output, rules=rules, grid_points=model.grid_points)


# how two model documents differ, and whether their models are equal
EQUALITY_PAIRS = {
    "rule 1 weighs 0.0 and -0.0": True,
    "rule 1 weighs 1 and 1.0": True,
    "rule 1 concludes another term": False,
    "the first and last rules swap": False,
    "the last rule is dropped": False,
    "grid_points differ by one": False,
}


def equality_pair(model, change):
    """Two documents of model, as parsed JSON, that differ as change says."""
    a, b = (json.loads(serialize_document(ModelDocument(model))) for _ in range(2))
    first, rules = a["rules"][0], b["rules"]
    if change == "rule 1 weighs 0.0 and -0.0":
        first["weight"], rules[0]["weight"] = 0.0, -0.0
    elif change == "rule 1 weighs 1 and 1.0":
        first["weight"], rules[0]["weight"] = 1, 1.0
    elif change == "rule 1 concludes another term":
        terms = [t["name"] for t in b["variables"]["output"]["terms"]]
        rules[0]["consequent"] = terms[terms.index(first["consequent"]) - 1]
    elif change == "the first and last rules swap":
        rules[0], rules[-1] = rules[-1], rules[0]
    elif change == "the last rule is dropped":
        rules.pop()
    else:
        b["settings"]["grid_points"] += 1
    return a, b


def rows_around(rng, model, n):
    """n rows drawn up to one universe width beyond each input's bounds."""
    lo = np.array([v.lo for v in model.inputs])
    hi = np.array([v.hi for v in model.inputs])
    return rng.uniform(lo - (hi - lo), hi + (hi - lo), size=(n, len(lo))).tolist()


def scores(model, rows):
    """The bits of each row's decision, trace and batch output."""
    return (
        [_infer_row(model, row).hex() for row in rows],
        [infer(model, row).crisp_output.hex() for row in rows],
        _infer_rows(model, rows).tobytes(),
    )


class TestRuleTable:
    """A model keeps its rule base as (antecedents, consequent, weight)
    triples of Python ints and floats, however it was built."""

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda a, c, w: (tuple(map(np.int64, a)), np.int64(c), int(w)), None),
            (lambda a, c, w: (list(a), c, bool(w)), None),
            (lambda a, c, w: (np.array(a), np.intp(c), np.float32(w)), None),
            (lambda a, c, w: (a, c, -0.5), (ModelIntegrityError, "rule 7: rule weight must be in [0, 1], got -0.5")),
            (lambda a, c, w: (a, c, np.float32(1.5)), (ModelIntegrityError, "rule 7: rule weight must be in [0, 1], got 1.5")),
            (lambda a, c, w: (a, c, math.nan), (ModelIntegrityError, "rule 7: rule weight must be in [0, 1], got nan")),
            (lambda a, c, w: ((*a[:3], 3), c, w), (ModelIntegrityError, "rule 7: antecedent index 3 out of range for variable 'distance_m'")),
            (lambda a, c, w: (a[:3], c, w), (ModelIntegrityError, "rule 7: expected 4 antecedents, got 3")),
            (lambda a, c, w: (a, c, w, 1.0), (ModelIntegrityError, "rule 7: expected (antecedents, consequent, weight), got 4 fields")),
            (lambda a, c, w: (a, c), (ModelIntegrityError, "rule 7: expected (antecedents, consequent, weight), got 2 fields")),
            (lambda a, c, w: ((a[0], 1.5, *a[2:]), c, w), (ModelIntegrityError, "rule 7: antecedent index 1.5 out of range for variable 'velocity_kmh'")),
            (lambda a, c, w: (a, c, None), (ModelIntegrityError, "rule 7: rule weight must be a real number, got None")),
            (lambda a, c, w: 5, (ModelIntegrityError, "rule 7: expected (antecedents, consequent, weight), got int")),
            (lambda a, c, w: None, (ModelIntegrityError, "rule 7: expected (antecedents, consequent, weight), got NoneType")),
            (lambda a, c, w: (5, c, w), (ModelIntegrityError, "rule 7: expected 4 antecedents, got int")),
            (lambda a, c, w: (None, c, w), (ModelIntegrityError, "rule 7: expected 4 antecedents, got NoneType")),
            (lambda a, c, w: ("abcd", c, w), (ModelIntegrityError, "rule 7: antecedent index a out of range for variable 'signal_dbm'")),
            (lambda a, c, w: ((a[0], math.nan, *a[2:]), c, w), (ModelIntegrityError, "rule 7: antecedent index nan out of range for variable 'velocity_kmh'")),
            (lambda a, c, w: ((*a[:3], "x"), c, w), (ModelIntegrityError, "rule 7: antecedent index x out of range for variable 'distance_m'")),
            (lambda a, c, w: ((a[0], math.inf, *a[2:]), c, w), (ModelIntegrityError, "rule 7: antecedent index inf out of range for variable 'velocity_kmh'")),
            (lambda a, c, w: ((None, *a[1:]), c, w), (ModelIntegrityError, "rule 7: antecedent index None out of range for variable 'signal_dbm'")),
            (lambda a, c, w: (a, math.nan, w), (ModelIntegrityError, "rule 7: consequent index nan out of range")),
            (lambda a, c, w: (a, "x", w), (ModelIntegrityError, "rule 7: consequent index x out of range")),
            (lambda a, c, w: (a, -math.inf, w), (ModelIntegrityError, "rule 7: consequent index -inf out of range")),
            (lambda a, c, w: (a, None, w), (ModelIntegrityError, "rule 7: consequent index None out of range")),
        ],
        ids=["numpy-ints-int-weight", "lists-bool-weight", "array-float32-weight", "weight-below-0", "weight-above-1",
             "nan-weight", "antecedent-out-of-range", "ragged-antecedents", "four-fields", "two-fields",
             "non-integral-index", "none-weight", "int-rule", "none-rule", "int-antecedents", "none-antecedents",
             "string-antecedents", "nan-index", "string-index", "inf-index", "none-index", "nan-consequent",
             "string-consequent", "inf-consequent", "none-consequent"],
    )
    def test_triples_are_converted_and_checked_once(self, edit, error):
        # every rule edited where the model is accepted, rule 7 alone where not
        model = default_model()
        rules = [edit(*rule) if error is None or r == 6 else rule for r, rule in enumerate(model.rules)]
        text = serialize_document(default_document())
        if error is not None:
            with pytest.raises(error[0]) as excinfo:
                FuzzyModel(model.inputs, model.output, rules)
            assert str(excinfo.value) == error[1]
            return
        built, parsed = FuzzyModel(model.inputs, model.output, rules), parse_document(text).model
        assert built == parsed and hash(built) == hash(parsed)
        assert serialize_document(ModelDocument(built)) == text
        assert {type(x) for a, c, w in built.rules for x in (*a, c, w)} == {int, float}

    @pytest.mark.parametrize("fields", [2, 4])
    def test_a_base_of_rules_that_are_not_triples_names_rule_1(self, fields):
        model = default_model()
        rules = [(a, c, w, w)[:fields] for a, c, w in model.rules]
        with pytest.raises(ModelIntegrityError) as excinfo:
            FuzzyModel(model.inputs, model.output, rules)
        assert str(excinfo.value) == f"rule 1: expected (antecedents, consequent, weight), got {fields} fields"

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    def test_a_parsed_model_equals_its_rule_built_twin(self, seed):
        built = rule_built_twin(default_model() if seed is None else random_model(np.random.default_rng(seed)))
        text = serialize_document(ModelDocument(built))
        parsed = parse_document(text).model
        assert parsed == built
        assert hash(parsed) == hash(built)
        assert parsed.rules == built.rules
        assert repr(parsed) == repr(built)
        assert serialize_document(ModelDocument(parsed)) == text
        # models equal exactly when their rules, inputs, output and grid_points
        # are, and equal models hash equal
        for change, equal in EQUALITY_PAIRS.items():
            a, b = (parse_document(json.dumps(d)).model for d in equality_pair(built, change))
            for other in (b, rule_built_twin(b)):
                fields_equal = all(getattr(a, f) == getattr(other, f) for f in ("rules", "inputs", "output", "grid_points"))
                assert (a == other) == fields_equal == equal, change
                assert hash(a) == hash(other) or not equal, change

    @pytest.mark.parametrize("seed", [None, 4, 5])
    def test_replaced_parsed_model_scores_as_its_rule_built_twin(self, seed):
        rng = np.random.default_rng(seed)
        built = rule_built_twin(default_model() if seed is None else random_model(rng))
        parsed = parse_document(serialize_document(ModelDocument(built))).model
        rows = rows_around(rng, built, 12)
        assert scores(parsed, rows) == scores(built, rows)
        for grid_points in (2, 257, 4001):
            assert scores(replace(parsed, grid_points=grid_points), rows) == scores(
                replace(built, grid_points=grid_points), rows
            )
        fewer = built.rules[::2] + built.rules[:3]
        assert scores(replace(parsed, rules=fewer), rows) == scores(replace(built, rules=fewer), rows)

    def test_default_model_rules_are_the_rule_table(self):
        rules = table1_triples()
        model = default_model()
        assert model.rules == rules
        assert repr(model) == repr(FuzzyModel(model.inputs, model.output, rules))


class TestCandidateValidation:
    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Candidate("", -60, 50, 0.5, 50)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"velocity_kmh": -1.0},
            {"spectrum_ratio": -0.1},
            {"distance_m": -5.0},
            {"signal_dbm": float("nan")},
            {"velocity_kmh": float("inf")},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        fields = dict(signal_dbm=-60.0, velocity_kmh=50.0, spectrum_ratio=0.5, distance_m=50.0)
        fields.update(kwargs)
        with pytest.raises(ValueError):
            Candidate("c", **fields)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (("x", 50, 0.5, 50), "candidate 'c': signal_dbm must be a real number, got 'x'"),
            ((-60, 50, None, 50), "candidate 'c': spectrum_ratio must be a real number, got None"),
            # an int too large for a float reads as the inf of its sign
            ((-60, 10**400, 0.5, 50), "candidate 'c': velocity_kmh must be finite"),
            # a value float() rejects is named before a value that is not finite
            ((math.nan, 50, 0.5, "far"), "candidate 'c': distance_m must be a real number, got 'far'"),
        ],
        ids=["signal-not-a-number", "ratio-none", "velocity-huge-int", "conversion-before-finiteness"],
    )
    def test_a_field_float_rejects_is_named(self, fields, message):
        with pytest.raises(InvalidInputError) as info:
            Candidate("c", *fields)
        assert str(info.value) == message

    def test_ratio_above_one_is_legal(self):
        # more spectrum required than available is a measurable situation
        Candidate("c", -60.0, 50.0, 3.0, 50.0)


def _candidate_error(cid, row):
    try:
        Candidate(cid, *row)
    except ValueError as exc:
        return str(exc)
    return None


class TestCandidateBatch:
    def test_rows_are_the_candidates(self):
        candidates = [Candidate("a", -60.0, 50.0, 0.5, 50.0), Candidate("b", -120.0, -0.0, 2.0, 0.0)]
        batch = CandidateBatch([c.id for c in candidates], [c.inputs() for c in candidates])
        assert len(batch) == 2
        assert list(batch) == candidates
        assert batch[-1] == candidates[-1]
        assert batch.values.shape == (2, len(INPUT_ORDER))
        assert math.copysign(1.0, batch[1].velocity_kmh) == -1.0
        with pytest.raises(ValueError):
            batch.values[0, 0] = 0.0

    @pytest.mark.parametrize(
        "ids, values",
        [
            (["a"], [[1, 2, 3]]),
            (["a", "b"], [[-60, 50, 0.5, 50]]),
            (["a"], [[-60, 50, 0.5, 50, 1]]),
            (["a", "b"], [[-60, 50, 0.5, 50], [-60, 50]]),
            (["a"], [["x", 50, 0.5, 50]]),
        ],
        ids=["short-row", "missing-row", "long-row", "ragged-rows", "not-a-number"],
    )
    def test_values_that_are_not_four_numbers_per_id_are_named(self, ids, values):
        with pytest.raises(InvalidInputError) as info:
            CandidateBatch(ids, values)
        assert str(info.value) == f"values must hold 4 numbers per id, {4 * len(ids)} in all"

    def test_empty_batch(self):
        batch = CandidateBatch([], [])
        assert len(batch) == 0 and batch.values.shape == (0, len(INPUT_ORDER))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", ""]),
                st.lists(
                    st.one_of(st.floats(-10, 10), st.sampled_from([-0.0, float("nan"), float("inf")])),
                    min_size=4,
                    max_size=4,
                ),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_rejects_the_first_row_a_candidate_rejects(self, rows):
        errors = [_candidate_error(cid, row) for cid, row in rows]
        first = next((e for e in errors if e is not None), None)
        ids = tuple(cid for cid, _ in rows)
        values = [row for _, row in rows]
        if first is None:
            assert list(CandidateBatch(ids, values)) == [Candidate(cid, *row) for cid, row in rows]
        else:
            with pytest.raises(ValueError) as excinfo:
                CandidateBatch(ids, values)
            assert str(excinfo.value) == first


class TestPublicSurface:
    # the public surface, as a literal, so that a change to it is a deliberate edit
    NAMES = [
        "ArbitrationOutcome", "CANDIDATE_HEADER", "Candidate", "CandidateBatch", "CandidatesCsvError",
        "DEFAULT_ADMISSION_THRESHOLD", "DecisionResult", "DuplicateCandidateError", "EmptyBatchError",
        "FuzzyError", "FuzzyModel", "FuzzyVariable", "GaussianTerm", "INPUT_ORDER", "InferenceTrace",
        "InvalidInputError", "ModelDocument", "ModelDocumentError", "ModelIntegrityError",
        "ModelValidationReport", "NoRuleFiredError", "PRESET_STEPS", "SCHEMA_VERSION", "SweepAxis",
        "SweepResult", "SweepSpec", "SweepSpecError", "UNIVERSES", "aggregate", "arbitrate",
        "clamp_to_universe", "decision_possibility", "default_document", "default_model",
        "defuzzify_centroid", "figure_preset", "format_surface_csv", "fuzzify", "gaussian_membership",
        "infer", "load_document", "parse_document", "rank_candidates", "read_candidates_csv", "run_sweep",
        "serialize_document", "validate_model",
    ]

    def test_package_exports_exactly_the_modules_all(self):
        fs = fuzzyspectrum
        exported = {
            name for name, value in vars(fs).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert exported == set(fs.__all__)
        assert sorted(fs.__all__) == self.NAMES


class TestPackageAll:
    def test_is_the_union_of_the_modules_lists(self):
        fs = fuzzyspectrum
        lists = [m.__all__ for m in (fs.engine, fs.model, fs.arbitration, fs.sweep, fs.serialization)]
        assert set(fs.__all__) == set().union(*lists)
        # no name is listed by two modules, or twice
        assert len(fs.__all__) == sum(map(len, lists))

    def test_star_import_gives_exactly_the_listed_names(self):
        namespace = {}
        exec("from fuzzyspectrum import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(fuzzyspectrum.__all__)
