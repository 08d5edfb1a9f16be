"""The four benchmark workloads: seeded inputs, the timed op, and its checks.

Each workload draws every input from ``random.Random(seed)``, so one seed
always gives the same inputs.  ``make_input`` runs before the clock starts
and ``check`` after it stops; only ``op`` is timed.  The op functions are
module-level so that the set-up probe in ``run.py`` can call them without
building a workload first.

Every call into the package goes through a module attribute
(``fs_model.decision_possibility``, ``cli.main``, ...), never a name bound at
import, so that the timing wrappers of ``tracing.py`` see the call.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import replace

from fuzzyspectrum import cli, serialization
from fuzzyspectrum import model as fs_model

import checks

THRESHOLD = 0.5

# Share of each drawn input that lies outside its universe, so that
# clamping runs on about one candidate in three.
OUTSIDE_SHARE = 0.1
# Share of each arbitration batch that repeats another row's measurements
# under a new id, so the distance-then-id tie-break runs.
DUPLICATE_SHARE = 0.1
BATCH_SIZE = 250
CANDIDATES_PER_DOCUMENT = 4
GRID_POINTS_RANGE = (101, 5001)
SIGMA_JITTER = 1e-9


def random_measurements(rng: random.Random) -> tuple[float, ...]:
    """One candidate's four inputs, in model input order."""
    values = []
    for name in fs_model.INPUT_ORDER:
        lo, hi = fs_model.UNIVERSES[name]
        span = hi - lo
        if rng.random() >= OUTSIDE_SHARE:
            values.append(rng.uniform(lo, hi))
        elif lo < 0.0 and rng.random() < 0.5:
            # Candidate rejects negative velocity, ratio and distance, so
            # only signal strength may also fall below its universe.
            values.append(lo - rng.uniform(0.0, span / 2.0))
        else:
            values.append(hi + rng.uniform(0.0, span / 2.0))
    return tuple(values)


def _capture_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ----------------------------------------------------------------- the ops


def decide_op(candidate, model):
    return fs_model.decision_possibility(candidate, model, THRESHOLD)


def arbitrate_op(csv_path: str):
    return _capture_cli(["arbitrate", csv_path, "--format", "csv"])


def surface_op(preset: int):
    return _capture_cli(["sweep", "--preset", str(preset)])


def model_swap_op(text: str, candidates):
    doc = serialization.parse_document(text)
    report = fs_model.validate_model(doc.model)
    results = [
        fs_model.decision_possibility(c, doc.model, doc.admission_threshold)
        for c in candidates
    ]
    return doc, report, results


# ----------------------------------------------------------- the workloads


class Decide:
    """One decision per op on the default model, a fresh candidate each time."""

    items_per_op = 1
    ops_per_second = 1600
    ops_per_reference = 64
    # Checking a decision against the oracle costs about four ops.
    oracle_every = 32

    def __init__(self, seed: int, workdir, goldens):
        self.rng = random.Random(seed)
        self.model = fs_model.default_model()

    def warmup_input(self):
        return list(random_measurements(self.rng))

    @staticmethod
    def warmup(measurements) -> None:
        decide_op(fs_model.Candidate("warmup", *measurements), fs_model.default_model())

    def make_input(self, i: int):
        return fs_model.Candidate(f"su{i}", *random_measurements(self.rng))

    def op(self, candidate):
        return decide_op(candidate, self.model)

    def check(self, i: int, candidate, result) -> list[str]:
        problems = checks.check_decision(candidate, result, THRESHOLD)
        if i % self.oracle_every == 0:
            problems += checks.check_possibility(self.model, candidate.inputs(), result.possibility)
        return problems


class Arbitrate:
    """One ``fuzzyspectrum arbitrate <csv> --format csv`` per op, in process.

    Each op reads a fresh 250-row batch.  After the op, the same batch in
    another row order is submitted again, untimed, and must give the same
    bytes.
    """

    items_per_op = BATCH_SIZE
    ops_per_second = 3.2
    ops_per_reference = 1
    oracle_rows = 2

    def __init__(self, seed: int, workdir, goldens):
        self.rng = random.Random(seed)
        self.model = fs_model.default_model()
        self.path = str(workdir / "batch.csv")
        self.shuffled_path = str(workdir / "batch_shuffled.csv")
        self.warmup_path = str(workdir / "warmup.csv")

    def _batch(self, prefix: str) -> list[tuple]:
        rows: list[tuple] = []
        ids: set[str] = set()
        n_duplicates = round(BATCH_SIZE * DUPLICATE_SHARE)
        while len(rows) < BATCH_SIZE:
            cid = f"{prefix}{self.rng.randrange(16 ** 8):08x}"
            if cid in ids:
                continue
            ids.add(cid)
            if len(rows) >= BATCH_SIZE - n_duplicates:
                measurements = self.rng.choice(rows[: BATCH_SIZE - n_duplicates])[1:]
            else:
                measurements = random_measurements(self.rng)
            rows.append((cid, *measurements))
        self.rng.shuffle(rows)
        return rows

    @staticmethod
    def write_csv(path: str, rows) -> None:
        lines = [",".join(serialization.CANDIDATE_HEADER)]
        lines += [",".join([r[0], *(repr(v) for v in r[1:])]) for r in rows]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    def warmup_input(self):
        self.write_csv(self.warmup_path, self._batch("w"))
        return self.warmup_path

    @staticmethod
    def warmup(path) -> None:
        arbitrate_op(path)

    def make_input(self, i: int):
        rows = self._batch("su")
        shuffled = list(rows)
        self.rng.shuffle(shuffled)
        self.write_csv(self.path, rows)
        self.write_csv(self.shuffled_path, shuffled)
        sampled = self.rng.sample(rows, self.oracle_rows)
        return rows, sampled

    def op(self, batch):
        return arbitrate_op(self.path)

    def check(self, i: int, batch, output) -> list[str]:
        rows, sampled = batch
        problems = checks.check_arbitrate(output, rows, sampled, self.model, THRESHOLD)
        return problems + checks.check_same_ranking(output, arbitrate_op(self.shuffled_path))


class Surface:
    """One ``fuzzyspectrum sweep --preset k`` per op, over the presets with a
    golden surface (7..11) in turn."""

    items_per_op = 41 * 41
    ops_per_second = 1.0
    ops_per_reference = 1

    def __init__(self, seed: int, workdir, goldens):
        self.goldens = goldens
        self.presets = sorted(goldens)
        # The seed only picks the preset the run starts with.
        self.offset = random.Random(seed).randrange(len(self.presets))

    def warmup_input(self):
        return self.presets[0]

    @staticmethod
    def warmup(preset) -> None:
        surface_op(preset)

    def make_input(self, i: int):
        return self.presets[(self.offset + i) % len(self.presets)]

    def op(self, preset):
        return surface_op(preset)

    def check(self, i: int, preset, output) -> list[str]:
        return checks.check_surface(output, self.goldens[preset], preset)


class ModelSwap:
    """Each op parses a model document never seen before in the run,
    validates it and evaluates four candidates on it.

    Every document has its own ``grid_points`` and sigmas, so every op
    misses the compiled-model cache and compiles a new grid.
    """

    items_per_op = 1
    ops_per_second = 80
    ops_per_reference = 2
    oracle_every = 4

    def __init__(self, seed: int, workdir, goldens):
        self.rng = random.Random(seed)
        self.base = fs_model.default_model()

    def _document(self, i: int) -> str:
        grid_points = self.rng.randint(*GRID_POINTS_RANGE)
        # The op index makes every document distinct; the draw makes it seeded.
        scale = 1.0 + SIGMA_JITTER * (i + self.rng.random())
        inputs = tuple(
            replace(var, terms=tuple(replace(t, sigma=t.sigma * scale) for t in var.terms))
            for var in self.base.inputs
        )
        model = replace(self.base, inputs=inputs, grid_points=grid_points)
        return serialization.serialize_document(
            serialization.ModelDocument(model=model, admission_threshold=THRESHOLD)
        )

    def _candidates(self, i: int):
        return [
            fs_model.Candidate(f"su{i}-{k}", *random_measurements(self.rng))
            for k in range(CANDIDATES_PER_DOCUMENT)
        ]

    def warmup_input(self):
        return [self._document(-1), [c.inputs() for c in self._candidates(-1)]]

    @staticmethod
    def warmup(spec) -> None:
        text, measurements = spec
        model_swap_op(text, [fs_model.Candidate(f"w{k}", *m) for k, m in enumerate(measurements)])

    def make_input(self, i: int):
        return self._document(i), self._candidates(i)

    def op(self, document):
        return model_swap_op(*document)

    def check(self, i: int, document, output) -> list[str]:
        text, candidates = document
        doc, report, results = output
        problems = checks.check_model_document(text, doc, report)
        for c, r in zip(candidates, results):
            problems += checks.check_decision(c, r, THRESHOLD)
        if i % self.oracle_every == 0:
            k = (i // self.oracle_every) % len(candidates)
            problems += checks.check_possibility(
                doc.model, candidates[k].inputs(), results[k].possibility
            )
        return problems


WORKLOADS = {
    "decide": Decide,
    "arbitrate": Arbitrate,
    "surface": Surface,
    "model_swap": ModelSwap,
}
