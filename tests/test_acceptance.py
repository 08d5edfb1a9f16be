"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with -s to see them live) and
enforces its runtime budget.  Expected values come from the independent
reference implementations in oracle.py or from closed forms, never from the
code under test.
"""

import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from fuzzyspectrum import (
    INPUT_ORDER,
    UNIVERSES,
    Candidate,
    arbitrate,
    decision_possibility,
    default_model,
    defuzzify_centroid,
    figure_preset,
    gaussian_membership,
    infer,
    rank_candidates,
    run_sweep,
    validate_model,
)
from fuzzyspectrum.cli import main as cli_main
from fuzzyspectrum.serialization import default_document, parse_document, serialize_document
from fuzzyspectrum.sweep import format_surface_csv

from conftest import LEVEL_NAMES, table1_rules
from oracle import oracle_possibility, riemann_centroid

DATA = Path(__file__).parent / "data"


def acceptance(number, name, budget_s):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - t0
            ok = elapsed < budget_s
            verdict = "PASS" if ok else "FAIL"
            print(f"\nACCEPTANCE {number} ({name}): {verdict} ({elapsed:.2f}s, budget {budget_s}s)")
            assert ok, f"runtime {elapsed:.2f}s exceeded the {budget_s}s budget"
        return wrapper
    return decorate


def center_vector(levels):
    values = []
    for name, level in zip(INPUT_ORDER, levels):
        lo, hi = UNIVERSES[name]
        values.append((lo, (lo + hi) / 2.0, hi)[level])
    return values


@acceptance(1, "rule-base fidelity", 1.0)
def test_criterion_1_rule_base_fidelity(capsys):
    code = cli_main(["dump-rules"])
    dumped = capsys.readouterr().out
    assert code == 0
    fixture = (DATA / "table1_rules.txt").read_text()
    assert dumped == fixture, "dump-rules output differs from the transcribed rule table"

    report = validate_model(default_model())
    assert report.failures == ()
    model = default_model()
    assert len(model.rules) == 3 ** 4
    assert len({antecedents for antecedents, _, _ in model.rules}) == 81
    assert all(weight == 1.0 for _, _, weight in model.rules)


@acceptance(2, "engine-oracle equivalence", 10.0)
def test_criterion_2_engine_oracle_equivalence():
    model = default_model()
    rng = np.random.default_rng(20250809)
    lows = np.array([UNIVERSES[n][0] for n in INPUT_ORDER])
    highs = np.array([UNIVERSES[n][1] for n in INPUT_ORDER])
    worst = 0.0
    for _ in range(100):
        x = (lows + rng.random(4) * (highs - lows)).tolist()
        got = infer(model, x).crisp_output
        want = oracle_possibility(model, x, n_grid=10001)
        worst = max(worst, abs(got - want))
    assert worst < 1e-6, f"max deviation from dense-grid oracle: {worst}"


@acceptance(3, "centroid correctness", 5.0)
def test_criterion_3_centroid_correctness():
    rng = np.random.default_rng(3141)
    n = 1001
    x = np.linspace(0.0, 1.0, n)
    for _ in range(50):
        bumps = [
            (float(rng.uniform(0, 1)), float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.1, 1.0)))
            for _ in range(int(rng.integers(1, 5)))
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

    # symmetric single-term curves return the term center within one spacing
    for center, sigma, half_width in ((0.5, 0.2, 0.5), (0.3, 0.05, 0.3), (10.0, 3.0, 8.0)):
        grid = np.linspace(center - half_width, center + half_width, n)
        y = np.exp(-((grid - center) ** 2) / (2 * sigma * sigma))
        got = defuzzify_centroid(np.column_stack((grid, y)))
        spacing = 2 * half_width / (n - 1)
        assert abs(got - center) <= spacing


@acceptance(4, "membership closed forms", 1.0)
def test_criterion_4_membership_closed_forms():
    model = default_model()
    for var in (*model.inputs, model.output):
        for term in var.terms:
            assert gaussian_membership(term.center, term) == 1.0
            want = math.exp(-0.5)
            assert abs(gaussian_membership(term.center + term.sigma, term) - want) < 1e-12
            assert abs(gaussian_membership(term.center - term.sigma, term) - want) < 1e-12
            # exact symmetry at exactly representable offsets
            for d in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
                assert gaussian_membership(term.center + d, term) == gaussian_membership(
                    term.center - d, term
                )
        # adjacent terms cross at membership 0.5
        for a, b in zip(var.terms, var.terms[1:]):
            mid = (a.center + b.center) / 2.0
            assert abs(gaussian_membership(mid, a) - 0.5) < 1e-9
            assert abs(gaussian_membership(mid, b) - 0.5) < 1e-9


@acceptance(5, "center-point ordering", 30.0)
def test_criterion_5_center_point_ordering():
    model = default_model()
    consequent_of = {
        tuple(map(LEVEL_NAMES.index, ants)): LEVEL_NAMES.index(cons) for ants, cons in table1_rules()
    }

    possibility = {}
    for combo in consequent_of:
        x = center_vector(combo)
        p = decision_possibility(Candidate("c", *x), model).possibility
        assert abs(p - oracle_possibility(model, x)) < 1e-6
        possibility[combo] = p

    pairs = violations = 0
    for combo in consequent_of:
        for v in range(4):
            for level in range(combo[v] + 1, 3):
                other = list(combo)
                other[v] = level
                other = tuple(other)
                if consequent_of[combo] == consequent_of[other]:
                    continue
                pairs += 1
                hi, lo = (combo, other) if consequent_of[combo] > consequent_of[other] else (other, combo)
                if not possibility[hi] > possibility[lo]:
                    violations += 1
    assert pairs > 0
    assert violations == 0, f"{violations} of {pairs} ordered pairs violated"


@acceptance(6, "arbitration properties", 30.0)
def test_criterion_6_arbitration_properties():
    model = default_model()
    rng = np.random.default_rng(606)
    lows = np.array([UNIVERSES[n][0] for n in INPUT_ORDER])
    highs = np.array([UNIVERSES[n][1] for n in INPUT_ORDER])

    for batch_no in range(1000):
        size = int(rng.integers(1, 21))
        batch = []
        for i in range(size):
            fields = lows + rng.random(4) * (highs - lows)
            batch.append(Candidate(f"c{i:02d}", *fields.tolist()))
        has_clone = size > 1 and rng.random() < 0.5
        if has_clone:
            src = batch[int(rng.integers(0, size))]
            batch.append(
                Candidate("a-clone", src.signal_dbm, src.velocity_kmh,
                          src.spectrum_ratio, src.distance_m)
            )

        threshold = float(rng.choice((0.0, 0.3, 0.5)))
        outcome = arbitrate(batch, model, threshold)

        # winner dominance and ranking coverage
        top_possibility = outcome.ranking[0][1]
        assert all(p <= top_possibility for _, p in outcome.ranking)
        assert sorted(cid for cid, _ in outcome.ranking) == sorted(c.id for c in batch)
        if outcome.winner_id is None:
            assert top_possibility < threshold
        else:
            assert outcome.winner_id == outcome.ranking[0][0]
            assert top_possibility >= threshold

        # permutation invariance
        shuffled = list(batch)
        rng.shuffle(shuffled)
        again = arbitrate(shuffled, model, threshold)
        assert again.winner_id == outcome.winner_id
        assert again.ranking == outcome.ranking

        # raising the threshold keeps the winner or removes it
        higher = min(1.0, threshold + 0.25)
        stricter = arbitrate(batch, model, higher)
        assert stricter.winner_id in (outcome.winner_id, None)

        # id tie-break: the clone shares every field with its source, so the
        # pair is ordered lexicographically by id
        if has_clone:
            ranked_ids = [cid for cid, _ in outcome.ranking]
            assert ranked_ids.index("a-clone") < ranked_ids.index(src.id)

        # distance-then-id tie-break on forced equal possibilities
        if size > 1:
            a, b = batch[0], batch[1]
            tie = rank_candidates([(a, 0.5), (b, 0.5)])
            want = sorted([a, b], key=lambda c: (c.distance_m, c.id))
            assert [cid for cid, _ in tie] == [c.id for c in want]


@acceptance(7, "figure-preset regression", 10.0)
def test_criterion_7_figure_preset_regression():
    model = default_model()
    surfaces = {}
    for fig in (7, 8, 9, 10, 11):
        result = run_sweep(figure_preset(fig), model)
        assert result.grid.shape == (41, 41)
        assert np.all((result.grid >= 0.0) & (result.grid <= 1.0))
        text = format_surface_csv(result)
        golden = (DATA / "golden" / f"fig{fig:02d}.csv").read_text()
        assert text == golden, f"fig {fig} surface deviates from the oracle-built golden"
        surfaces[fig] = result

    fig7 = surfaces[7]
    i_low = list(fig7.axis1_values).index(-100.0)
    i_high = list(fig7.axis1_values).index(-20.0)
    j_close = list(fig7.axis2_values).index(0.0)
    assert fig7.grid[i_low, j_close] > fig7.grid[i_high, j_close]

    fig8 = surfaces[8]
    i_vel = list(fig8.axis1_values).index(50.0)
    j_lo = list(fig8.axis2_values).index(0.0)
    j_hi = list(fig8.axis2_values).index(1.0)
    assert fig8.grid[i_vel, j_lo] >= fig8.grid[i_vel, j_hi]


@acceptance(8, "CLI contract", 5.0)
def test_criterion_8_cli_contract(capsys, tmp_path):
    # model-document round trip is byte stable
    text = serialize_document(default_document())
    assert serialize_document(parse_document(text)) == text

    # malformed inputs produce nonzero exits with the documented diagnostics
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["eval", "-60", "not-a-number", "0.5", "50"])
    assert excinfo.value.code == 2
    assert "invalid float value" in capsys.readouterr().err

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("id,velocity_kmh,signal_dbm,spectrum_ratio,distance_m\n")
    code = cli_main(["arbitrate", str(bad_csv)])
    err = capsys.readouterr().err
    assert code == 1
    assert "id,signal_dbm,velocity_kmh,spectrum_ratio,distance_m" in err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"schema_version": 2}')
    code = cli_main(["validate", "--model", str(bad_json)])
    err = capsys.readouterr().err
    assert code == 1
    assert "schema_version" in err

    # eval / arbitrate / sweep are deterministic byte for byte
    batch = tmp_path / "batch.csv"
    batch.write_text(
        "id,signal_dbm,velocity_kmh,spectrum_ratio,distance_m\n"
        "u1,-72,31,0.62,18\nu2,-55,80,0.2,90\n"
    )
    runs = []
    for _ in range(2):
        assert cli_main(["eval", "-72", "31", "0.62", "18", "--trace"]) == 0
        eval_out = capsys.readouterr().out
        assert cli_main(["arbitrate", str(batch), "--format", "csv"]) == 0
        arb_out = capsys.readouterr().out
        sweep_path = tmp_path / f"sweep{len(runs)}.csv"
        assert cli_main(["sweep", "--preset", "9", "--steps", "7",
                         "--output", str(sweep_path)]) == 0
        capsys.readouterr()
        runs.append((eval_out, arb_out, sweep_path.read_bytes()))
    assert runs[0] == runs[1]
