"""Top-k (diversified) answers over bounded query results.

The paper's concluding section proposes studying "top-k (diversified) query
rewriting using views, which is to find top-k answers that differ
sufficiently from each other, by accessing cached views and a bounded amount
of underlying data".  This module supplies the answer-selection half of that
programme: given the rows produced by a bounded plan (or by any evaluation),
pick ``k`` of them that balance *relevance* (a user-supplied scoring
function) against *diversity* (pairwise distance), following the standard
max-sum diversification objective

    F(S) = (1 - λ) · Σ_{s ∈ S} score(s)  +  λ · Σ_{s ≠ t ∈ S} distance(s, t)

Exact maximisation is NP-hard, so :func:`top_k_diversified` uses the usual
greedy 2-approximation (pick the best-scoring row, then repeatedly add the
row with the largest marginal gain).  The companion
:func:`diversified_answer` wires the selection to a
:class:`repro.engine.service.QueryService`, so the data access stays bounded
and only the (small) answer set is post-processed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..algebra.ucq import QueryLike
from ..errors import EvaluationError
from .approximation import normalized_hamming

Score = Callable[[tuple], float]
Distance = Callable[[tuple, tuple], float]


def constant_score(_row: tuple) -> float:
    """The trivial scoring function (all answers equally relevant)."""
    return 1.0


@dataclass
class RankedAnswer:
    """One selected answer with its score and its marginal diversity gain."""

    row: tuple
    score: float
    marginal_gain: float


@dataclass
class TopKResult:
    """Outcome of a diversified top-k selection."""

    selected: list[RankedAnswer]
    objective: float
    candidates: int

    @property
    def rows(self) -> list[tuple]:
        return [answer.row for answer in self.selected]

    def __len__(self) -> int:
        return len(self.selected)


def diversity_objective(
    rows: Sequence[tuple],
    score: Score,
    distance: Distance,
    diversity_weight: float,
) -> float:
    """The max-sum diversification objective of a concrete answer set."""
    relevance = sum(score(row) for row in rows)
    pairwise = 0.0
    for index, left in enumerate(rows):
        for right in rows[index + 1 :]:
            pairwise += distance(left, right)
    return (1.0 - diversity_weight) * relevance + diversity_weight * pairwise


def top_k_diversified(
    rows: Iterable[tuple],
    k: int,
    score: Score = constant_score,
    distance: Distance = normalized_hamming,
    diversity_weight: float = 0.5,
) -> TopKResult:
    """Greedy max-sum diversified top-k selection.

    ``diversity_weight`` is the λ of the objective: 0 ranks purely by score,
    1 purely by pairwise distance.  Ties are broken deterministically by the
    row representation, so results are reproducible.
    """
    if k < 0:
        raise EvaluationError(f"k must be non-negative, got {k}")
    if not 0.0 <= diversity_weight <= 1.0:
        raise EvaluationError(f"diversity weight must lie in [0, 1], got {diversity_weight}")
    candidates = sorted({tuple(row) for row in rows}, key=repr)
    if k == 0 or not candidates:
        return TopKResult(selected=[], objective=0.0, candidates=len(candidates))

    remaining = list(candidates)
    # Seed with the best-scoring candidate.
    first = max(remaining, key=lambda row: (score(row), repr(row)))
    selected = [RankedAnswer(row=first, score=score(first), marginal_gain=score(first))]
    remaining.remove(first)

    while remaining and len(selected) < k:
        def marginal(row: tuple) -> float:
            relevance = (1.0 - diversity_weight) * score(row)
            spread = diversity_weight * sum(
                distance(row, chosen.row) for chosen in selected
            )
            return relevance + spread

        best = max(remaining, key=lambda row: (marginal(row), repr(row)))
        selected.append(
            RankedAnswer(row=best, score=score(best), marginal_gain=marginal(best))
        )
        remaining.remove(best)

    objective = diversity_objective(
        [answer.row for answer in selected], score, distance, diversity_weight
    )
    return TopKResult(selected=selected, objective=objective, candidates=len(candidates))


@dataclass
class DiversifiedAnswer:
    """A diversified top-k answer computed through a bounded plan."""

    result: TopKResult
    used_bounded_plan: bool
    tuples_fetched: int
    tuples_scanned: int

    @property
    def rows(self) -> list[tuple]:
        return self.result.rows

    def __len__(self) -> int:
        return len(self.result)


def diversified_answer(
    service,
    query: QueryLike,
    k: int,
    score: Score = constant_score,
    distance: Distance = normalized_hamming,
    diversity_weight: float = 0.5,
    max_size: int | None = None,
) -> DiversifiedAnswer:
    """Answer ``query`` through ``service`` and return diversified top-k rows.

    ``service`` is a :class:`repro.engine.service.QueryService`; the
    underlying data access is whatever the service does (a bounded plan
    whenever one exists), and the diversification runs over the returned
    answer set only.
    """
    answer = service.query(query, max_size=max_size)
    result = top_k_diversified(answer.rows, k, score, distance, diversity_weight)
    return DiversifiedAnswer(
        result=result,
        used_bounded_plan=answer.used_bounded_plan,
        tuples_fetched=answer.tuples_fetched,
        tuples_scanned=answer.tuples_scanned,
    )
