"""Tests for bounded incremental maintenance of views and indices."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.parser import parse_cq
from repro.algebra.views import View, ViewSet
from repro.core.access import AccessConstraint, AccessSchema
from repro.algebra.schema import schema_from_spec
from repro.engine.service import MaintenanceStats, QueryService, ViewMaintainer
from repro.storage.indexes import IndexSet
from repro.storage.instance import Database
from repro.storage.snapshots import SnapshotManager
from repro.storage.updates import Deletion, Insertion, UpdateBatch, random_update_batch
from repro.workloads import graph_search as gs


# --------------------------------------------------------------------------- #
# IndexSet under Database.apply
# --------------------------------------------------------------------------- #

SCHEMA = schema_from_spec({"R": ("a", "b"), "S": ("c", "d")})
ACCESS = AccessSchema(
    (
        AccessConstraint("R", ("a",), ("b",), 3),
        AccessConstraint("S", ("c",), ("d",), 2),
    )
)


def make_db():
    return Database(
        SCHEMA,
        {"R": {(1, 10), (1, 11), (2, 20)}, "S": {(5, 50), (6, 60)}},
    )


def test_index_fetch_matches_initial_contents():
    index_set = IndexSet(make_db(), ACCESS)
    constraint = ACCESS.constraints[0]
    assert index_set.fetch(constraint, (1,)) == {(1, 10), (1, 11)}
    assert index_set.fetch(constraint, (99,)) == frozenset()


def test_index_insert_and_delete_maintained():
    database = make_db()
    index_set = IndexSet(database, ACCESS)
    constraint = ACCESS.constraints[0]

    database.apply([Insertion("R", (2, 21))])
    assert index_set.fetch(constraint, (2,)) == {(2, 20), (2, 21)}

    database.apply([Deletion("R", (2, 20))])
    assert index_set.fetch(constraint, (2,)) == {(2, 21)}

    database.apply([Deletion("R", (2, 21))])
    assert index_set.fetch(constraint, (2,)) == frozenset()


def test_index_admissibility_check_is_bucket_local():
    database = make_db()
    index_set = IndexSet(database, ACCESS)
    # (1, *) already has 2 distinct b-values; bound is 3.
    assert index_set.admissible(Insertion("R", (1, 12)))
    database.apply([Insertion("R", (1, 12))])
    assert not index_set.admissible(Insertion("R", (1, 13)))
    # Re-inserting an existing value never violates the bound.
    assert index_set.admissible(Insertion("R", (1, 10)))
    assert index_set.admissible(Deletion("R", (1, 10)))


# --------------------------------------------------------------------------- #
# ViewMaintainer driven by Database.apply streams
# --------------------------------------------------------------------------- #


def view_pairs():
    return View("Vpairs", parse_cq("V(a, d) :- R(a, b), S(b, d)"))


def pairs_db():
    return Database(
        SCHEMA,
        {"R": {(1, 5), (2, 6)}, "S": {(5, 50), (6, 60), (7, 70)}},
    )


def test_view_cache_initial_materialisation():
    cache = ViewMaintainer(ViewSet((view_pairs(),)), pairs_db())
    assert cache.rows("Vpairs") == {(1, 50), (2, 60)}


def test_view_cache_insertion_adds_new_rows():
    database = pairs_db()
    cache = ViewMaintainer(ViewSet((view_pairs(),)), database)
    deltas = cache.apply_stream(database.apply([Insertion("R", (3, 7))]))
    assert cache.rows("Vpairs") == {(1, 50), (2, 60), (3, 70)}
    assert any(delta.added == {(3, 70)} for delta in deltas)
    assert cache.verify()


def test_view_cache_deletion_removes_unsupported_rows():
    database = pairs_db()
    cache = ViewMaintainer(ViewSet((view_pairs(),)), database)
    deltas = cache.apply_stream(database.apply([Deletion("S", (5, 50))]))
    assert cache.rows("Vpairs") == {(2, 60)}
    assert any(delta.removed == {(1, 50)} for delta in deltas)
    assert cache.verify()


def test_view_cache_deletion_keeps_rows_with_other_support():
    database = pairs_db()
    database.add("R", (1, 6))  # second derivation for a=1 via S(6, 60)
    cache = ViewMaintainer(ViewSet((view_pairs(),)), database)
    cache.apply_stream(database.apply([Deletion("R", (1, 5))]))
    # (1, 60) still derivable through R(1,6); (1, 50) is gone.
    assert cache.rows("Vpairs") == {(1, 60), (2, 60)}
    assert cache.verify()


def test_view_cache_stats_accounting():
    database = pairs_db()
    cache = ViewMaintainer(ViewSet((view_pairs(),)), database)
    stats = MaintenanceStats()
    cache.apply_stream(database.apply([Insertion("R", (3, 7))]), stats)
    assert stats.updates == 1
    assert stats.delta_queries >= 1
    assert stats.rows_added == 1


# --------------------------------------------------------------------------- #
# QueryService.apply end-to-end
# --------------------------------------------------------------------------- #


def caches_match_recomputation(service: QueryService) -> bool:
    """Maintained views and access indices equal a from-scratch rebuild."""
    maintained = service._snapshots.current
    rebuilt = SnapshotManager(service.database, None, service.access_schema)
    for constraint in service.access_schema:
        left = maintained.index_for(constraint)
        right = rebuilt.current.index_for(constraint)
        if left.buckets != right.buckets:  # buckets and supporting-row counts
            return False
    return service.maintainer.verify()


@pytest.fixture(scope="module")
def gs_setup():
    instance = gs.generate(num_persons=200, num_movies=120, seed=17)
    service = QueryService(instance.database, gs.access_schema(), gs.views())
    return instance, service


def test_service_apply_answers_match_baseline_after_updates(gs_setup):
    instance, service = gs_setup
    query = gs.query_q0()
    batch = random_update_batch(
        instance.database, size=40, seed=23, access_schema=gs.access_schema()
    )
    report = service.apply(batch)
    assert report.applied + report.skipped_inadmissible <= len(batch)

    answer = service.query(query)
    baseline = service.baseline(query)
    assert answer.rows == baseline.rows
    assert answer.used_bounded_plan
    assert caches_match_recomputation(service)


def test_service_apply_skips_inadmissible_insertions(gs_setup):
    _instance, service = gs_setup
    # rating(mid -> rank, 1): a second rating for an existing movie violates A.
    existing = next(iter(service.database.relation("rating")))
    bad = Insertion("rating", (existing[0], existing[1] + 100))
    report = service.apply(UpdateBatch([bad]))
    assert report.skipped_inadmissible == 1
    assert report.applied == 0
    assert service.database.satisfies(service.access_schema)


def test_service_apply_insert_new_answer_appears():
    instance = gs.generate(num_persons=80, num_movies=50, seed=3)
    service = QueryService(instance.database, gs.access_schema(), gs.views())
    before = service.query(gs.query_q0()).rows

    new_movie = "m_planted_new"
    nasa_person = next(
        row for row in service.database.relation("person") if row[2] == "NASA"
    )
    batch = UpdateBatch(
        [
            Insertion("movie", (new_movie, "fresh", "Universal", "2014")),
            Insertion("rating", (new_movie, 5)),
            Insertion("like", (nasa_person[0], new_movie, "movie")),
        ]
    )
    report = service.apply(batch)
    assert report.applied == 3
    after = service.query(gs.query_q0())
    assert (new_movie,) in after.rows
    assert after.rows == before | {(new_movie,)}
    assert caches_match_recomputation(service)


def test_service_apply_delete_removes_answer():
    instance = gs.generate(num_persons=80, num_movies=50, seed=3)
    service = QueryService(instance.database, gs.access_schema(), gs.views())
    answers = sorted(service.query(gs.query_q0()).rows)
    assert answers, "generator plants at least one answer"
    victim_mid = answers[0][0]
    service.apply(UpdateBatch([Deletion("rating", (victim_mid, 5))]))
    assert (victim_mid,) not in service.query(gs.query_q0()).rows
    assert caches_match_recomputation(service)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_maintained_caches_always_match_recomputation(seed):
    """Property: after any admissible batch, incremental == recomputed."""
    database = pairs_db()
    cache = ViewMaintainer(ViewSet((view_pairs(),)), database)
    batch = random_update_batch(database, size=12, seed=seed)
    for update in batch:
        cache.apply_stream(database.apply([update]))
    assert cache.verify()
