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
    Candidate,
    DecisionResult,
    check_threshold,
    decision_possibility,  # noqa: F401  (unused; kept for perfbench/tracing.py)
    default_model,
)

__all__ = [
    "EmptyBatchError",
    "DuplicateCandidateError",
    "ArbitrationOutcome",
    "rank_candidates",
    "arbitrate",
    "admit",
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
    ordered = sorted(scored, key=lambda cp: (-cp[1], cp[0].distance_m, cp[0].id))
    return tuple((c.id, p) for c, p in ordered)


def arbitrate(
    candidates: Sequence[Candidate],
    model: FuzzyModel | None = None,
    threshold: float = DEFAULT_ADMISSION_THRESHOLD,
) -> ArbitrationOutcome:
    """Score every candidate and grant the single vacant-spectrum slot."""
    t = check_threshold(threshold)
    batch = list(candidates)
    if not batch:
        raise EmptyBatchError("no candidates to arbitrate")
    seen: set[str] = set()
    for c in batch:
        if c.id in seen:
            raise DuplicateCandidateError(f"duplicate candidate id '{c.id}'")
        seen.add(c.id)

    model = model or default_model()
    ranking = rank_candidates(zip(batch, _infer_rows(model, [c.inputs() for c in batch]).tolist()))
    top_id, top_possibility = ranking[0]
    winner = top_id if top_possibility >= t else None
    return ArbitrationOutcome(winner_id=winner, ranking=ranking, threshold=t)


def admit(result: DecisionResult, threshold: float = DEFAULT_ADMISSION_THRESHOLD) -> bool:
    """True iff the possibility meets the threshold (inclusive)."""
    return result.possibility >= check_threshold(threshold)
