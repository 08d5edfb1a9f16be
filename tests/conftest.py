import csv
import io
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase
from hypothesis import strategies as st

from fuzzyspectrum import (
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    default_model,
)

from oracle import model_params, reference_infer

# the paper's rule table, transcribed apart from the shipped document
TABLE1_RULES = Path(__file__).parent / "data" / "table1_rules.txt"

LEVEL_NAMES = ("Low", "Medium", "High")


def table1_rules() -> list[tuple[tuple[str, ...], str]]:
    """The rules of TABLE1_RULES in row order, each as (antecedent term
    names in input order, consequent term name); a line reads
    "N. A, B, C, D -> E", N its row number."""
    rules = []
    for row, line in enumerate(TABLE1_RULES.read_text().splitlines(), start=1):
        number, _, rule = line.partition(". ")
        antecedents, _, consequent = rule.partition(" -> ")
        assert number == str(row), line
        rules.append((tuple(antecedents.split(", ")), consequent))
    return rules


def crossover_sigma(spacing):
    """Sigma making two Gaussians `spacing` apart cross at membership 0.5."""
    return spacing / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def three_term_variable(name, lo, hi):
    """Low/Medium/High at {lo, mid, hi} with the 0.5-crossover sigma."""
    mid = (lo + hi) / 2.0
    sigma = crossover_sigma((hi - lo) / 2.0)
    return FuzzyVariable(
        name,
        lo,
        hi,
        (
            GaussianTerm("Low", lo, sigma),
            GaussianTerm("Medium", mid, sigma),
            GaussianTerm("High", hi, sigma),
        ),
    )


def random_model(rng: np.random.Generator, max_rules=100) -> FuzzyModel:
    """A structurally valid model with random universes, terms and rules."""
    n_inputs = int(rng.integers(1, 5))
    variables = []
    for v in range(n_inputs + 1):
        lo = float(rng.uniform(-50, 50))
        span = float(rng.uniform(1, 100))
        hi = lo + span
        n_terms = int(rng.integers(2, 5))
        centers = np.sort(rng.uniform(lo, hi, size=n_terms))
        while np.any(np.diff(centers) <= span * 1e-3):
            centers = np.sort(rng.uniform(lo, hi, size=n_terms))
        sigma_lo, sigma_hi = span / 6.0, span / 2.0
        terms = tuple(
            GaussianTerm(f"t{i}", float(c), float(rng.uniform(sigma_lo, sigma_hi)))
            for i, c in enumerate(centers)
        )
        variables.append(FuzzyVariable(f"v{v}", lo, hi, terms))
    inputs, output = tuple(variables[:-1]), variables[-1]

    n_rules = int(rng.integers(1, max_rules + 1))
    rules = tuple(
        (
            tuple(int(rng.integers(0, len(var.terms))) for var in inputs),
            int(rng.integers(0, len(output.terms))),
            float(rng.uniform(0.05, 1.0)),
        )
        for _ in range(n_rules)
    )
    return FuzzyModel(inputs=inputs, output=output, rules=rules, grid_points=1001)


def dead_model() -> FuzzyModel:
    """The default model with every rule weight 0: no rule can fire."""
    model = default_model()
    return replace(model, rules=tuple((a, c, 0.0) for a, c, _ in model.rules))


def rule_table_rows() -> list[list[str]]:
    """table1_rules() as rules-CSV rows: row number, the term names, and
    weight 1.000000."""
    return [
        [str(r), *antecedents, consequent, "1.000000"]
        for r, (antecedents, consequent) in enumerate(table1_rules(), start=1)
    ]


CANDIDATE_FIELDS = ["id", "signal_dbm", "velocity_kmh", "spectrum_ratio", "distance_m"]

# cells float() parses in its own way or rejects, and values a candidate rejects
ODD_CELLS = [
    "nan", "NaN", "inf", "-inf", "1e400", "1_000", " 5 ", "5 ", "-0.0", "-0", "-5",
    "-1e-300", "+7", "0x10", "abc", "", "\u0661\u0662",
]
ODD_IDS = ["u1", "a,b", 'x"y', "x\ny", "x\r\ny", "", " ", "\t", "\u00fc"]


# every phase but explain, for the properties that compare with a
# reference: explain only annotates a failure, and on the candidate_files()
# properties it kept a failing reader from being reported for minutes
NO_EXPLAIN_PHASES = tuple(phase for phase in Phase if phase is not Phase.explain)


@st.composite
def candidate_files(draw) -> bytes:
    """Bytes of a candidates CSV: a BOM or not, a header that is right,
    misordered, too long or missing, records with odd ids and cells, wrong
    field counts, blank lines, LF or CRLF line ends, and now and then a byte
    that is not UTF-8."""
    wrong_headers = [
        CANDIDATE_FIELDS[:1] + CANDIDATE_FIELDS[2:3] + CANDIDATE_FIELDS[1:2] + CANDIDATE_FIELDS[3:],
        CANDIDATE_FIELDS + ["extra"],
        None,
    ]
    pick = draw(st.integers(0, 19))
    header = wrong_headers[pick - 17] if pick >= 17 else CANDIDATE_FIELDS
    fine = st.floats(0, 150).map(repr)
    cell = st.one_of(
        st.floats(-150, 150).map(repr),
        st.floats().map(repr),
        st.sampled_from(ODD_CELLS),
    )
    cid = st.one_of(
        st.sampled_from(ODD_IDS),
        st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
    )
    record = st.one_of(
        st.tuples(cid, fine, fine, fine, fine).map(list),
        st.tuples(cid, fine, fine, fine, fine).map(list),
        st.just([]),
        st.tuples(cid, cell, cell, cell, cell).map(list),
        st.lists(cell, max_size=6),
    )
    rows = ([header] if header is not None else []) + draw(st.lists(record, max_size=10))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    text = io.StringIO()
    for row in rows:
        csv.writer(text, quoting=quoting, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerow(row)
    data = text.getvalue() + "\n" * draw(st.integers(0, 2))
    if draw(st.booleans()):
        data = data.rstrip("\n")
    raw = data.encode("utf-8")
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    if draw(st.integers(0, 19)) == 7:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + raw[at:]
    return raw


# documents that json.loads rejects without a JSONDecodeError: nesting past
# the recursion limit, and an integer literal past int's default 4300 digits
UNDECODABLE_JSON = {
    "deeply-nested": "[" * 5000 + "]" * 5000,
    "huge-integer-literal": '{"schema_version": ' + "1" * 5000 + "}",
}


def random_inputs(rng: np.random.Generator, model: FuzzyModel) -> list[float]:
    return [float(rng.uniform(v.lo, v.hi)) for v in model.inputs]


def exact_outputs(model: FuzzyModel, rows) -> list[float]:
    """The reference's crisp output of each row (tests/oracle.py), at the
    model's own grid: what both kernels must equal."""
    params = model_params(model)
    return [reference_infer(row, *params, model.grid_points) for row in rows]


def random_rows(n: int) -> np.ndarray:
    """n seeded rows of the default model's inputs, each drawn uniformly
    from its universe, so that no two rows share a value."""
    rng = np.random.default_rng(22)
    return np.column_stack([rng.uniform(v.lo, v.hi, n) for v in default_model().inputs])


def traced_peak(call) -> int:
    """The tracemalloc peak in bytes of call(), run once untraced first:
    numpy allocates for some calls only the first time."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def unit_output_model():
    """One input, one always-relevant rule, output Medium centered at 0.5."""
    x = three_term_variable("x", 0.0, 10.0)
    y = three_term_variable("y", 0.0, 1.0)
    rules = (((1,), 1, 1.0),)
    return FuzzyModel(inputs=(x,), output=y, rules=rules)
