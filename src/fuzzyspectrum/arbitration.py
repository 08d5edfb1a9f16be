"""Pick which contending secondary user gets the vacant spectrum.

The candidate with the maximum access possibility wins, provided it meets
the admission threshold.  Ties go to the smaller distance to the primary
user, then to the lexicographically smaller id, so outcomes are independent
of submission order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import FuzzyError, FuzzyModel, _infer_rows
from .model import (
    DEFAULT_ADMISSION_THRESHOLD,
    INPUT_ORDER,
    Candidate,
    CandidateBatch,
    check_threshold,
    decision_possibility,  # noqa: F401  (unused; kept for perfbench/tracing.py)
    default_model,
    _quoted_id,
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
    order that does not depend on the input sequence.
    """
    scored = list(scored)
    return _ranking([c.id for c, _ in scored], [p for _, p in scored], [c.distance_m for c, _ in scored])


def _ranking(ids, possibilities: list[float], distances: list[float]) -> tuple[tuple[str, float], ...]:
    """rank_candidates on columns: (id, possibility) pairs in ranking order."""
    order = sorted(range(len(ids)), key=lambda i: (-possibilities[i], distances[i], ids[i]))
    return tuple((ids[i], possibilities[i]) for i in order)


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
    seen: set[str] = set()
    for cid in candidates.ids:
        if cid in seen:
            raise DuplicateCandidateError(f"duplicate candidate id {_quoted_id(cid)}")
        seen.add(cid)

    possibilities = _infer_rows(model or default_model(), candidates.values).tolist()
    distances = candidates.values[:, INPUT_ORDER.index("distance_m")].tolist()
    ranking = _ranking(candidates.ids, possibilities, distances)
    top_id, top_possibility = ranking[0]
    winner = top_id if top_possibility >= t else None
    return ArbitrationOutcome(winner_id=winner, ranking=ranking, threshold=t)
