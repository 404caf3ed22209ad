"""Tests for diversified top-k selection over bounded answers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.topk import (
    constant_score,
    diversified_answer,
    diversity_objective,
    top_k_diversified,
)
from repro.core.approximation import normalized_hamming
from repro.engine.service import QueryService
from repro.errors import EvaluationError
from repro.workloads import graph_search as gs

ROWS = [
    ("a", 1, "x"),
    ("a", 1, "y"),
    ("a", 2, "x"),
    ("b", 3, "z"),
    ("c", 4, "w"),
]


def score_by_rank(row: tuple) -> float:
    return float(row[1])


def test_top_k_returns_k_rows():
    result = top_k_diversified(ROWS, k=3, score=score_by_rank)
    assert len(result) == 3
    assert result.candidates == len(ROWS)
    assert len(set(result.rows)) == 3


def test_top_k_k_larger_than_candidates():
    result = top_k_diversified(ROWS, k=50)
    assert len(result) == len(ROWS)


def test_top_k_zero_and_empty():
    assert len(top_k_diversified(ROWS, k=0)) == 0
    assert len(top_k_diversified([], k=3)) == 0


def test_pure_relevance_ranking():
    result = top_k_diversified(ROWS, k=2, score=score_by_rank, diversity_weight=0.0)
    assert result.rows[0] == ("c", 4, "w")
    assert result.rows[1] == ("b", 3, "z")


def test_pure_diversity_prefers_spread_rows():
    # With λ = 1 the second pick maximises distance from the first; the
    # near-duplicate of the seed row is picked last.
    result = top_k_diversified(ROWS, k=3, score=score_by_rank, diversity_weight=1.0)
    assert ("a", 1, "y") not in result.rows[:2] or ("a", 1, "x") not in result.rows[:2]


def test_diversified_beats_duplicates():
    """Diversification avoids returning three near-identical answers."""
    rows = [("a", 1), ("a", 2), ("a", 3), ("b", 1), ("c", 1)]
    plain = top_k_diversified(rows, k=3, diversity_weight=0.0)
    diverse = top_k_diversified(rows, k=3, diversity_weight=0.8)
    plain_first = {row[0] for row in plain.rows}
    diverse_first = {row[0] for row in diverse.rows}
    assert len(diverse_first) >= len(plain_first)


def test_objective_matches_manual_computation():
    rows = [("a", 1), ("b", 2)]
    objective = diversity_objective(rows, constant_score, normalized_hamming, 0.5)
    assert objective == pytest.approx(0.5 * 2 + 0.5 * 1.0)


def test_invalid_parameters_rejected():
    with pytest.raises(EvaluationError):
        top_k_diversified(ROWS, k=-1)
    with pytest.raises(EvaluationError):
        top_k_diversified(ROWS, k=2, diversity_weight=1.5)


def test_deterministic_tie_breaking():
    first = top_k_diversified(ROWS, k=4)
    second = top_k_diversified(list(reversed(ROWS)), k=4)
    assert first.rows == second.rows


def test_diversified_answer_through_service():
    instance = gs.generate(num_persons=200, num_movies=120, seed=13, planted_answers=4)
    service = QueryService(instance.database, gs.access_schema(), gs.views())
    answer = diversified_answer(service, gs.query_q0(), k=2)
    assert answer.used_bounded_plan
    assert answer.tuples_scanned == 0
    assert len(answer) <= 2
    full = service.query(gs.query_q0()).rows
    assert set(answer.rows) <= set(full)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=12
    ),
    k=st.integers(min_value=0, max_value=6),
    weight=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_selection_is_subset_and_sized(rows, k, weight):
    result = top_k_diversified(rows, k=k, diversity_weight=weight)
    unique = {tuple(r) for r in rows}
    assert len(result) == min(k, len(unique))
    assert set(result.rows) <= unique
    assert len(set(result.rows)) == len(result.rows)
