import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyspectrum import (
    Candidate,
    CandidateBatch,
    DuplicateCandidateError,
    EmptyBatchError,
    InvalidInputError,
    NoRuleFiredError,
    arbitrate,
    decision_possibility,
    default_model,
    rank_candidates,
)
from fuzzyspectrum.arbitration import _ranking

from conftest import dead_model, random_model, random_rows, traced_peak

ALL_LOW = (-100.0, 0.0, 0.0, 0.0)
ALL_MEDIUM = (-60.0, 50.0, 0.5, 50.0)
ALL_HIGH = (-20.0, 100.0, 1.0, 100.0)


def candidate_strategy(cid):
    return st.builds(
        Candidate,
        id=st.just(cid),
        signal_dbm=st.floats(-100, -20),
        velocity_kmh=st.floats(0, 100),
        spectrum_ratio=st.floats(0, 1),
        distance_m=st.floats(0, 100),
    )


class TestArbitrate:
    def test_single_candidate_above_threshold_wins(self):
        outcome = arbitrate([Candidate("solo", *ALL_LOW)], threshold=0.5)
        assert outcome.winner_id == "solo"
        assert len(outcome.ranking) == 1

    def test_single_candidate_below_threshold_loses(self):
        outcome = arbitrate([Candidate("solo", *ALL_HIGH)], threshold=0.5)
        assert outcome.winner_id is None
        assert outcome.ranking[0][0] == "solo"

    def test_identical_candidates_break_on_id(self):
        batch = [Candidate("b", *ALL_LOW), Candidate("a", *ALL_LOW)]
        outcome = arbitrate(batch, threshold=0.0)
        assert outcome.winner_id == "a"
        assert [cid for cid, _ in outcome.ranking] == ["a", "b"]

    def test_three_center_vectors_low_wins(self):
        batch = [
            Candidate("mid", *ALL_MEDIUM),
            Candidate("bad", *ALL_HIGH),
            Candidate("good", *ALL_LOW),
        ]
        outcome = arbitrate(batch, threshold=0.0)
        assert outcome.winner_id == "good"
        assert [cid for cid, _ in outcome.ranking] == ["good", "mid", "bad"]

    def test_ranking_covers_every_candidate_once(self):
        batch = [Candidate(f"c{i}", -60.0 - i, 50.0, 0.5, 50.0) for i in range(6)]
        outcome = arbitrate(batch)
        assert sorted(cid for cid, _ in outcome.ranking) == sorted(c.id for c in batch)

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatchError):
            arbitrate([])

    def test_duplicate_id_rejected(self):
        batch = [Candidate("x", *ALL_LOW), Candidate("x", *ALL_MEDIUM)]
        with pytest.raises(DuplicateCandidateError, match="'x'"):
            arbitrate(batch)

    @pytest.mark.parametrize("cid, kind", [(1, "int"), (["b"], "list"), (None, "NoneType"), (b"b", "bytes")])
    def test_an_id_that_is_not_a_string_is_rejected(self, cid, kind):
        # tied with "a", an int id reached the ranking's id sort and a list
        # id the duplicate check, and both escaped as a TypeError
        with pytest.raises(InvalidInputError) as info:
            arbitrate([Candidate(cid, *ALL_LOW), Candidate("a", *ALL_LOW)], threshold=0.0)
        assert str(info.value) == f"candidate id must be a string, got {kind}"

    def test_peak_memory_per_row_is_bounded(self):
        # distinct random rows over five blocks of the kernel: about 160
        # bytes a row, most of it the ranking, against about 201 when the
        # possibilities and distances were lists of Python floats sorted
        # with a tuple key, and about 306 when the set of ids that finds a
        # duplicate was kept through the scoring and the ranking
        rows = random_rows(20_000)
        batch, model = CandidateBatch([f"c{i}" for i in range(len(rows))], rows), default_model()
        assert traced_peak(lambda: arbitrate(batch, model)) < 190 * len(rows)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            arbitrate([Candidate("a", *ALL_LOW)], threshold=-0.1)

    def test_model_of_other_arity_rejected(self, unit_output_model):
        with pytest.raises(InvalidInputError, match="expected 1 inputs, got 4"):
            arbitrate([Candidate("a", *ALL_LOW)], unit_output_model)

    def test_dead_model_raises_no_rule_fired(self):
        batch = [Candidate("a", *ALL_LOW), Candidate("b", *ALL_MEDIUM)]
        with pytest.raises(NoRuleFiredError):
            arbitrate(batch, dead_model())

    def test_winner_dominance(self):
        rng = np.random.default_rng(99)
        batch = [
            Candidate(
                f"c{i}",
                float(rng.uniform(-100, -20)),
                float(rng.uniform(0, 100)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 100)),
            )
            for i in range(8)
        ]
        outcome = arbitrate(batch, threshold=0.0)
        top = outcome.ranking[0][1]
        assert all(p <= top for _, p in outcome.ranking)
        assert outcome.winner_id == outcome.ranking[0][0]

    def test_threshold_monotonicity(self):
        batch = [Candidate("a", *ALL_LOW), Candidate("b", *ALL_MEDIUM)]
        low = arbitrate(batch, threshold=0.0)
        mid = arbitrate(batch, threshold=0.5)
        high = arbitrate(batch, threshold=0.99)
        assert low.winner_id == "a"
        assert mid.winner_id == "a"
        assert high.winner_id is None

    def test_lower_possibility_entrant_cannot_steal(self):
        batch = [Candidate("a", *ALL_LOW), Candidate("b", *ALL_MEDIUM)]
        before = arbitrate(batch, threshold=0.0)
        after = arbitrate(batch + [Candidate("z", *ALL_HIGH)], threshold=0.0)
        assert before.winner_id == after.winner_id == "a"

    @given(
        batch=st.lists(
            st.tuples(
                st.floats(-100, -20), st.floats(0, 100), st.floats(0, 1), st.floats(0, 100)
            ),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, batch, seed):
        candidates = [Candidate(f"c{i}", *fields) for i, fields in enumerate(batch)]
        shuffled = list(candidates)
        np.random.default_rng(seed).shuffle(shuffled)
        a = arbitrate(candidates, threshold=0.3)
        b = arbitrate(shuffled, threshold=0.3)
        assert a.winner_id == b.winner_id
        assert a.ranking == b.ranking


def four_input_model(rng):
    model = random_model(rng)
    while len(model.inputs) != 4:
        model = random_model(rng)
    return model


def mixed_batch(rng, model, size=60):
    """Candidates spread over and beyond the model's universes (so some clamp
    to a bound), every fifth one repeating an earlier one's inputs."""
    rows = []
    for i in range(size):
        if i % 5 == 4:
            rows.append(rows[int(rng.integers(0, i))])
            continue
        row = [float(rng.uniform(1.25 * v.lo - 0.25 * v.hi, 1.25 * v.hi - 0.25 * v.lo))
               for v in model.inputs]
        rows.append((row[0], *(max(0.0, x) for x in row[1:])))
    return [Candidate(f"c{i:03d}", *row) for i, row in enumerate(rows)]


class TestBatchBitIdentity:
    """arbitrate scores a whole batch in one kernel call, which evaluates the
    output curves in chunks of 21 distinct clip vectors on the default model;
    a candidate's possibility must not depend on the batch, its size or its
    position."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_batch_equals_single_decisions(self, seed):
        rng = np.random.default_rng(seed)
        model = default_model() if seed == 0 else four_input_model(rng)
        batch = mixed_batch(rng, model)
        outcome = arbitrate(batch, model, threshold=0.0)
        scored = dict(outcome.ranking)
        for c in batch:
            assert scored[c.id] == decision_possibility(c, model).possibility
            assert scored[c.id] == arbitrate([c], model, threshold=0.0).ranking[0][1]
        shuffled = list(batch)
        rng.shuffle(shuffled)
        assert arbitrate(shuffled, model, threshold=0.0) == outcome
        columns = CandidateBatch([c.id for c in shuffled], [c.inputs() for c in shuffled])
        assert arbitrate(columns, model, threshold=0.0) == outcome


class TestRankCandidates:
    def test_distance_breaks_possibility_ties(self):
        near = Candidate("near", -60.0, 50.0, 0.5, 10.0)
        far = Candidate("far", -60.0, 50.0, 0.5, 90.0)
        ranking = rank_candidates([(far, 0.7), (near, 0.7)])
        assert [cid for cid, _ in ranking] == ["near", "far"]

    def test_id_breaks_full_ties(self):
        a = Candidate("a", -60.0, 50.0, 0.5, 50.0)
        b = Candidate("b", -60.0, 50.0, 0.5, 50.0)
        ranking = rank_candidates([(b, 0.7), (a, 0.7)])
        assert [cid for cid, _ in ranking] == ["a", "b"]

    def test_possibility_dominates_tiebreaks(self):
        close = Candidate("close", -60.0, 50.0, 0.5, 1.0)
        strong = Candidate("strong", -60.0, 50.0, 0.5, 99.0)
        ranking = rank_candidates([(close, 0.4), (strong, 0.9)])
        assert [cid for cid, _ in ranking] == ["strong", "close"]

    def test_a_nan_possibility_is_named_in_every_order(self):
        # NaN compares false with every possibility, so no order would be total
        a, b, c = (Candidate(cid, -60.0, 50.0, 0.5, 50.0) for cid in "abc")
        for scored in itertools.permutations([(a, math.nan), (b, 0.5), (c, 0.7)]):
            with pytest.raises(InvalidInputError) as info:
                rank_candidates(scored)
            assert str(info.value) == "candidate 'a': possibility must not be NaN"

    def test_a_possibility_that_is_no_number_is_named(self):
        with pytest.raises(InvalidInputError) as info:
            rank_candidates([(Candidate("a", *ALL_LOW), "high")])
        assert str(info.value) == "possibility must be a real number, got 'high'"

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_ranking_equals_the_documented_sort(self, data):
        # few values, so that equal possibilities, equal distances and both
        # are common; -0.0 beside 0.0, and ids that differ by a trailing NUL
        # or by a character outside the BMP, repeated ids too
        n = data.draw(st.integers(0, 30))
        possibilities = data.draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0, 1)), min_size=n, max_size=n))
        distances = data.draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 50.0]), st.floats(0, 150)), min_size=n, max_size=n))
        ids = data.draw(st.lists(st.text(st.sampled_from(["a", "\0", "\U0001F600", "\uffff"]), max_size=3),
                                 min_size=n, max_size=n, unique=data.draw(st.booleans())))
        want = [(ids[i], possibilities[i].hex())
                for i in sorted(range(n), key=lambda i: (-possibilities[i], distances[i], ids[i]))]
        got = _ranking(ids, np.array(possibilities, dtype=float), np.array(distances, dtype=float))
        assert [(cid, p.hex()) for cid, p in got] == want


class TestAdmit:
    """The admission verdict: a possibility is admitted at any threshold up
    to and including it, by decision_possibility and arbitrate alike."""

    def test_boundary_is_inclusive(self):
        candidate = Candidate("c", *ALL_LOW)
        p = decision_possibility(candidate).possibility
        assert decision_possibility(candidate, threshold=p).admitted
        assert arbitrate([candidate], threshold=p).winner_id == "c"
        above = math.nextafter(p, 1.0)
        assert not decision_possibility(candidate, threshold=above).admitted
        assert arbitrate([candidate], threshold=above).winner_id is None

    def test_consistent_with_decision_possibility(self):
        candidates = [Candidate(cid, *x) for cid, x in (("low", ALL_LOW), ("mid", ALL_MEDIUM), ("high", ALL_HIGH))]
        for threshold in (0.0, 0.3, 0.5, 0.6, 1.0):
            for c in candidates:
                admitted = decision_possibility(c, threshold=threshold).admitted
                assert admitted == (arbitrate([c], threshold=threshold).winner_id is not None)
