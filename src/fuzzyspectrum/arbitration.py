"""Pick which contending secondary user gets the vacant spectrum.

The candidate with the maximum access possibility wins, provided it meets
the admission threshold.  Ties go to the smaller distance to the primary
user, then to the lexicographically smaller id, so outcomes are independent
of submission order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .engine import FuzzyError, FuzzyModel, InvalidInputError, _as_float, _infer_rows, _quoted, check_threshold
from .model import (
    DEFAULT_ADMISSION_THRESHOLD,
    INPUT_ORDER,
    Candidate,
    CandidateBatch,
    decision_possibility,  # noqa: F401  (unused; kept for perfbench/tracing.py)
    default_model,
)

__all__ = [
    "EmptyBatchError",
    "DuplicateCandidateError",
    "ArbitrationOutcome",
    "rank_candidates",
    "arbitrate",
]


class EmptyBatchError(FuzzyError):
    """Arbitration was asked to choose among zero candidates."""


class DuplicateCandidateError(FuzzyError):
    """Two candidates in one batch share an id."""


@dataclass(frozen=True)
class ArbitrationOutcome:
    """Ranking of every candidate plus the winner, if any was admitted.

    ranking holds (candidate_id, possibility) pairs in descending
    possibility order; winner_id is the first entry when its possibility
    meets the threshold, else None.
    """

    winner_id: str | None
    ranking: tuple[tuple[str, float], ...]
    threshold: float


def rank_candidates(
    scored: Iterable[tuple[Candidate, float]],
) -> tuple[tuple[str, float], ...]:
    """Order (candidate, possibility) pairs by descending possibility.

    Ties break on smaller distance_m, then lexicographic id, giving a total
    order that does not depend on the input sequence.  Each possibility is
    read as a float; a NaN one is an InvalidInputError naming its candidate.
    """
    scored = list(scored)
    possibilities = np.array([_as_float(p, "possibility") for _, p in scored])
    nan = np.isnan(possibilities)
    if nan.any():
        cid = scored[int(nan.argmax())][0].id
        raise InvalidInputError(f"candidate {_quoted(cid)}: possibility must not be NaN")
    return _ranking([c.id for c, _ in scored], possibilities, np.array([c.distance_m for c, _ in scored]))


def _ranking(ids, possibilities: np.ndarray, distances: np.ndarray) -> tuple[tuple[str, float], ...]:
    """rank_candidates on columns: (id, possibility) pairs in ranking order,
    for float arrays of possibilities (none NaN) and distances.  One argsort
    orders the possibilities; the rows in runs of equal possibility (-0.0
    beside 0.0 too) are then sorted in Python by the documented key."""
    order = np.argsort(-possibilities)
    ranked = possibilities[order]
    tied = ranked[1:] == ranked[:-1]
    in_run = np.flatnonzero(np.concatenate(([False], tied)) | np.concatenate((tied, [False])))
    if len(in_run):
        rows = order[in_run].tolist()
        # each run's possibility keeps it among the runs, and the row, last,
        # keeps rows of one key in their given order, as a stable sort does
        keys = zip((-ranked[in_run]).tolist(), distances[rows].tolist(), map(ids.__getitem__, rows), rows)
        order[in_run] = [key[3] for key in sorted(keys)]
    return tuple(zip(map(ids.__getitem__, order.tolist()), possibilities[order].tolist()))


def arbitrate(
    candidates: Sequence[Candidate] | CandidateBatch,
    model: FuzzyModel | None = None,
    threshold: float = DEFAULT_ADMISSION_THRESHOLD,
) -> ArbitrationOutcome:
    """Score every candidate, as one CandidateBatch, and grant the single vacant-spectrum slot."""
    t = check_threshold(threshold)
    if not isinstance(candidates, CandidateBatch):
        candidates = list(candidates)
        candidates = CandidateBatch([c.id for c in candidates], [c.inputs() for c in candidates])
    if not candidates.ids:
        raise EmptyBatchError("no candidates to arbitrate")
    if len(set(candidates.ids)) < len(candidates.ids):  # walked for the first duplicate
        seen: set[str] = set()
        for cid in candidates.ids:
            if cid in seen:
                raise DuplicateCandidateError(f"duplicate candidate id {_quoted(cid)}")
            seen.add(cid)

    possibilities = _infer_rows(model or default_model(), candidates.values)
    ranking = _ranking(candidates.ids, possibilities, candidates.values[:, INPUT_ORDER.index("distance_m")])
    top_id, top_possibility = ranking[0]
    winner = top_id if top_possibility >= t else None
    return ArbitrationOutcome(winner_id=winner, ranking=ranking, threshold=t)
