"""One error family: every error the package raises for a value it rejects is
a FuzzyError, and every FuzzyError is a ValueError."""

import json
import math
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fuzzyspectrum
from fuzzyspectrum import (
    Candidate,
    CandidateBatch,
    FuzzyError,
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    ModelDocument,
    SweepAxis,
    SweepResult,
    SweepSpec,
    aggregate,
    arbitrate,
    clamp_to_universe,
    decision_possibility,
    default_document,
    default_model,
    defuzzify_centroid,
    figure_preset,
    format_surface_csv,
    fuzzify,
    gaussian_membership,
    infer,
    load_document,
    parse_document,
    rank_candidates,
    read_candidates_csv,
    run_sweep,
    serialize_document,
    validate_model,
)

# values of the right type from hostile ranges, the awkward ones drawn often
FLOATS = st.one_of(
    st.sampled_from([
        math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 0.5, 1.0, 1.5,
        5e-324, 1e-162, 1e155, -1e155, 1e308, -1e308, 1.7976931348623157e308,
    ]),
    st.floats(),
)
DECIMAL_INTS = [-(10**400), -1, 0, 1, 2, 3, 10**18, 10**400]
# with two ints of more digits than str() converts, so that a message cannot embed them
INTS = st.one_of(st.sampled_from([-(10**5000), 10**5000]), st.sampled_from(DECIMAL_INTS), st.integers())
# any number a float field may be given: an int too large for a float too
NUMBERS = st.one_of(FLOATS, INTS)
# any number a model document can hold: json.dumps cannot write those two ints
DOCUMENT_NUMBERS = st.one_of(FLOATS, st.one_of(st.sampled_from(DECIMAL_INTS), st.integers()))
NAMES = st.sampled_from(["", "a", "signal_dbm", "velocity_kmh", "spectrum_ratio", "distance_m", "decision"])
IDS = st.sampled_from(["", "a", "b", "x\ny"])
# paths open() rejects: a NUL, a lone surrogate, none, a directory, a missing file
PATHS = st.sampled_from(["a\0b", b"a\0b", "\ud800", "", ".", "no/such/file"])
# finite measurements a Candidate accepts, however far outside the universes
MEASUREMENTS = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    *(st.floats(0.0, allow_infinity=False) for _ in range(3)),
)


def _term(draw, name="t"):
    return GaussianTerm(name, draw(NUMBERS), draw(NUMBERS))


def _variable(draw, name):
    lo, hi = draw(NUMBERS), draw(NUMBERS)
    return FuzzyVariable(name, lo, hi, [_term(draw, f"t{k}") for k in range(draw(st.integers(1, 3)))])


def _model(draw, part):
    """The default model with a hostile part: its output, a rule or its
    grid; built, it is also scored."""
    model = default_model()
    output, rules, grid_points = model.output, list(model.rules), 1001
    if part == "output":
        output = _variable(draw, "decision")
        rules = [(antecedents, 0, weight) for antecedents, _, weight in rules]
    elif part == "rule":
        antecedents = tuple(draw(st.one_of(INTS, st.integers(0, 2))) for _ in model.inputs)
        rules[draw(st.integers(0, 80))] = (antecedents, draw(st.one_of(INTS, st.integers(0, 2))), draw(NUMBERS))
    else:
        grid_points = draw(INTS)
    built = FuzzyModel(model.inputs, output, rules, grid_points)
    validate_model(built)
    return infer(built, [-60.0, 50.0, 0.5, 50.0]), decision_possibility(Candidate("c", -60.0, 50.0, 0.5, 50.0), built)


# the numbers of a model document: a variable's, a term's, a rule's and the settings'
DOCUMENT_KEYS = ("lo", "hi", "center", "sigma", "weight", "grid_points", "admission_threshold")


def _document(draw, key):
    """parse_document and load_document of the default document with its
    number key, of a drawn variable, term or rule or of its settings,
    replaced by a hostile one."""
    raw = json.loads(serialize_document(default_document()))
    if key in ("lo", "hi", "center", "sigma"):
        target = draw(st.sampled_from([*raw["variables"]["inputs"], raw["variables"]["output"]]))
        if key in ("center", "sigma"):
            target = draw(st.sampled_from(target["terms"]))
    else:
        target = draw(st.sampled_from(raw["rules"])) if key == "weight" else raw["settings"]
    target[key] = draw(DOCUMENT_NUMBERS)
    text = json.dumps(raw)
    parse_document(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(text, encoding="utf-8")
        return load_document(path)


def _candidates_file(draw):
    rows = draw(st.lists(st.tuples(IDS, FLOATS, FLOATS, FLOATS, FLOATS), max_size=4))
    text = "id,signal_dbm,velocity_kmh,spectrum_ratio,distance_m\n"
    text += "".join(f"{json.dumps(cid)},{','.join(map(repr, values))}\n" for cid, *values in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.csv"
        path.write_text(text, encoding="utf-8")
        return read_candidates_csv(path)


def _axis(draw, steps=INTS):
    return SweepAxis(draw(NAMES), draw(NUMBERS), draw(NUMBERS), draw(steps))


def _spec(draw, steps=INTS):
    fixed = draw(st.dictionaries(NAMES, NUMBERS, max_size=3))
    return SweepSpec(_axis(draw, steps), _axis(draw, steps), fixed)


def _surface(draw):
    spec = figure_preset(7, 2)
    values = st.lists(FLOATS, min_size=2, max_size=2).map(np.array)
    if draw(st.booleans()):
        return format_surface_csv(SweepResult(spec, draw(values), draw(values), np.array([draw(values), draw(values)])))
    # lists, ragged ones included, and arrays of any shape up to 3-D
    lists = st.lists(FLOATS, max_size=3)
    shaped = st.one_of(
        lists,
        st.lists(lists, max_size=3),
        hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3), elements=FLOATS),
    )
    return format_surface_csv(SweepResult(spec, draw(shaped), draw(shaped), draw(shaped)))


# each public constructor and entry point that takes values, called with
# values of the right type from hostile ranges
CALLS = {
    "GaussianTerm": lambda draw: GaussianTerm(draw(NAMES), draw(NUMBERS), draw(NUMBERS)),
    "FuzzyVariable": lambda draw: _variable(draw, draw(NAMES)),
    **{f"FuzzyModel-{part}": partial(_model, part=part) for part in ("output", "rule", "grid")},
    "gaussian_membership": lambda draw: gaussian_membership(draw(NUMBERS), default_model().inputs[0].terms[0]),
    "clamp_to_universe": lambda draw: clamp_to_universe(default_model().inputs[0], draw(NUMBERS)),
    "fuzzify": lambda draw: fuzzify(default_model().inputs[0], draw(NUMBERS)),
    "infer": lambda draw: infer(default_model(), draw(st.lists(NUMBERS, max_size=5))),
    "aggregate": lambda draw: aggregate(default_model(), draw(st.lists(NUMBERS, min_size=80, max_size=82))),
    "defuzzify_centroid": lambda draw: defuzzify_centroid(draw(st.lists(st.tuples(NUMBERS, NUMBERS), max_size=4))),
    "Candidate": lambda draw: Candidate(draw(IDS), *(draw(NUMBERS) for _ in range(4))),
    "CandidateBatch": lambda draw: CandidateBatch(
        draw(st.lists(IDS, max_size=3)), draw(st.lists(st.lists(NUMBERS, min_size=3, max_size=5), max_size=3))
    ),
    "decision_possibility": lambda draw: decision_possibility(
        Candidate("c", *draw(MEASUREMENTS)), default_model(), draw(NUMBERS)
    ),
    "rank_candidates": lambda draw: rank_candidates(
        (Candidate(cid, *draw(MEASUREMENTS)), draw(FLOATS)) for cid in draw(st.lists(IDS.filter(bool), max_size=3))
    ),
    "arbitrate": lambda draw: arbitrate(
        [Candidate(cid, *draw(MEASUREMENTS)) for cid in draw(st.lists(IDS.filter(bool), max_size=3))],
        default_model(),
        draw(NUMBERS),
    ),
    "SweepAxis": _axis,
    "SweepSpec": _spec,
    "figure_preset": lambda draw: figure_preset(draw(INTS), draw(INTS)),
    # at most 4 x 4 cells, so that an accepted sweep stays quick
    "run_sweep": lambda draw: run_sweep(_spec(draw, st.integers(2, 4)), default_model()),
    "format_surface_csv": _surface,
    "ModelDocument": lambda draw: serialize_document(ModelDocument(default_model(), draw(NUMBERS))),
    **{f"parse_document-{key}": partial(_document, key=key) for key in DOCUMENT_KEYS},
    "load_document-path": lambda draw: load_document(draw(PATHS)),
    "read_candidates_csv": _candidates_file,
    "read_candidates_csv-path": lambda draw: read_candidates_csv(draw(PATHS)),
}


class TestErrorFamily:
    def test_every_package_error_is_a_fuzzy_error_and_a_value_error(self):
        errors = [value for value in vars(fuzzyspectrum).values() if isinstance(value, type) and issubclass(value, Exception)]
        assert len(errors) == 9
        assert all(issubclass(error, FuzzyError) for error in errors)
        assert issubclass(FuzzyError, ValueError)

    def test_an_int_too_long_for_str_is_named_by_its_size(self):
        # in a message, such an int, or a value holding one, would raise ValueError
        model, held = default_model(), r"a list holding an integer of more than \d+ digits"
        cases = [
            (lambda: FuzzyModel(model.inputs, model.output, model.rules, -(10**5000)), r"grid_points must be >= 2, got an integer of more than \d+ digits"),
            (lambda: Candidate("c", [10**5000], 0.0, 0.0, 0.0), f"candidate 'c': signal_dbm must be a real number, got {held}"),
            (lambda: FuzzyModel(model.inputs, model.output, model.rules, [10**5000]), f"grid_points must be an integer, got {held}"),
            (lambda: SweepAxis("signal_dbm", -100, -20, [10**5000]), f"axis 'signal_dbm': steps must be an integer, got {held}"),
            (lambda: figure_preset(7, [10**5000]), f"axis 'signal_dbm': steps must be an integer, got {held}"),
        ]
        for call, message in cases:
            with pytest.raises(FuzzyError, match=f"^{message}$"):
                call()

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_hostile_values_raise_nothing_but_fuzzy_error(self, call, data):
        # the call returns or raises a FuzzyError; anything else fails the test
        try:
            call(data.draw)
        except FuzzyError:
            pass
