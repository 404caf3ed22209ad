"""Tests for the first-class write path: delta streams, ``QueryService.apply``,
dependency-tracked plan-cache invalidation and delta-consuming backends."""

from __future__ import annotations

import pytest

from repro.algebra.parser import parse_cq, parse_ucq
from repro.algebra.schema import schema_from_spec
from repro.algebra.views import View, ViewSet
from repro.core.access import AccessSchema
from repro.engine.service import QueryService, ViewMaintainer
from repro.storage.deltas import DeltaStream
from repro.storage.instance import Database
from repro.storage.updates import Deletion, Insertion, UpdateBatch, random_update_batch
from repro.workloads import graph_search as gs


# --------------------------------------------------------------------------- #
# DeltaStream semantics
# --------------------------------------------------------------------------- #


def test_delta_stream_nets_out_cancelling_updates():
    stream = DeltaStream()
    stream.record_insert("R", (1, 2))
    stream.record_delete("R", (1, 2))  # inserted in this txn: cancels
    stream.record_delete("R", (3, 4))
    stream.record_insert("R", (3, 4))  # was present before: cancels
    assert stream.is_empty
    assert stream.applied == 4  # effective ops are still counted
    assert stream.relations == ()


def test_delta_stream_orders_relations_by_first_touch():
    stream = DeltaStream()
    stream.record_insert("S", (1,))
    stream.record_delete("R", (2, 2))
    stream.record_insert("S", (3,))
    assert stream.relations == ("S", "R")
    assert set(stream.inserted("S")) == {(1,), (3,)}
    assert stream.deleted("R") == ((2, 2),)


def test_database_apply_notifies_subscribers_once_per_transaction():
    schema = schema_from_spec({"R": ("a", "b")})
    database = Database(schema, {"R": {(1, 10)}})

    calls = []

    class Observer:
        def on_delta(self, stream):
            calls.append(stream)

    observer = Observer()
    database.subscribe(observer)
    stream = database.apply(
        UpdateBatch([Insertion("R", (2, 20)), Deletion("R", (1, 10))])
    )
    assert len(calls) == 1 and calls[0] is stream
    assert set(stream.inserted("R")) == {(2, 20)}
    # A batch that nets to nothing does not notify at all.
    database.apply(UpdateBatch([Insertion("R", (2, 20))]))  # already present
    assert len(calls) == 1


def test_database_apply_admit_predicate_skips_and_counts():
    schema = schema_from_spec({"R": ("a", "b")})
    database = Database(schema, {"R": {(1, 10)}})
    stream = database.apply(
        UpdateBatch([Insertion("R", (1, 11)), Insertion("R", (2, 20))]),
        admit=lambda update: update.row[0] != 1,
    )
    assert stream.skipped_inadmissible == 1
    assert (1, 11) not in database.relation("R")
    assert (2, 20) in database.relation("R")


def test_database_apply_notifies_partial_stream_on_mid_batch_error():
    """An exception mid-batch must still deliver the partial delta: the
    earlier updates ARE applied, and observers going stale would be silent."""
    from repro.errors import SchemaError

    schema = schema_from_spec({"R": ("a", "b")})
    database = Database(schema)
    streams = []

    class Observer:
        def on_delta(self, stream):
            streams.append(stream)

    observer = Observer()
    database.subscribe(observer)
    with pytest.raises(SchemaError):
        database.apply(
            [Insertion("R", (1, 2)), Insertion("R", (9,))]  # second: bad arity
        )
    assert (1, 2) in database.relation("R")
    assert len(streams) == 1 and streams[0].inserted("R") == ((1, 2),)


def test_sqlite_delta_replay_handles_none_values():
    """Deletes in the SQLite mirror must be null-safe (IS, not =)."""
    schema = schema_from_spec({"R": ("a", "b")})
    database = Database(schema, {"R": {(None, 1), (2, 3)}})
    service = QueryService(database, AccessSchema(()), backend="sqlite")
    assert service.baseline("Q(a, b) :- R(a, b)", backend="sqlite").rows == {
        (None, 1),
        (2, 3),
    }
    service.apply(UpdateBatch([Deletion("R", (None, 1))]))
    assert service.baseline("Q(a, b) :- R(a, b)", backend="sqlite").rows == {(2, 3)}


def test_view_maintenance_tolerates_no_op_updates():
    """Database.apply nets no-op updates out of the stream, so counting
    maintenance never counts a derivation that did not appear."""
    schema = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
    database = Database(schema, {"R": {(1, 2)}, "S": {(2, 3)}})
    views = ViewSet((View("V", parse_cq("V(x, z) :- R(x, y), S(y, z)")),))
    cache = ViewMaintainer(views, database)
    assert cache.rows("V") == {(1, 3)}
    # No-op: the row is already present.
    cache.apply_stream(database.apply([Insertion("R", (1, 2))]))
    assert cache.verify()
    # The later real deletion must actually remove the view row.
    cache.apply_stream(database.apply([Deletion("R", (1, 2))]))
    assert cache.rows("V") == frozenset()
    assert cache.verify()


# --------------------------------------------------------------------------- #
# QueryService.apply: the native write API
# --------------------------------------------------------------------------- #


@pytest.fixture()
def gs_service():
    instance = gs.generate(num_persons=250, num_movies=140, seed=29)
    service = QueryService(instance.database, gs.access_schema(), gs.views())
    return instance, service


def test_apply_keeps_answers_identical_to_baseline(gs_service):
    instance, service = gs_service
    batch = random_update_batch(
        instance.database, size=80, seed=31, access_schema=gs.access_schema()
    )
    report = service.apply(batch)
    assert report.applied > 0
    answer = service.query(gs.query_q0())
    assert answer.used_bounded_plan
    assert answer.rows == service.baseline(gs.query_q0()).rows
    assert service.maintainer.verify()


def test_apply_enforces_bounded_admissibility(gs_service):
    _instance, service = gs_service
    # rating(mid -> rank, 1): a second rating for an existing movie violates A.
    existing = next(iter(service.database.relation("rating")))
    report = service.apply(
        UpdateBatch([Insertion("rating", (existing[0], existing[1] + 100))])
    )
    assert report.skipped_inadmissible == 1 and report.applied == 0
    assert service.database.satisfies(service.access_schema)
    # Without enforcement the same update goes through.
    report = service.apply(
        UpdateBatch([Insertion("rating", (existing[0], existing[1] + 100))]),
        enforce_admissible=False,
    )
    assert report.applied == 1
    service.apply(UpdateBatch([Deletion("rating", (existing[0], existing[1] + 100))]))


def test_apply_reports_view_deltas(gs_service):
    _instance, service = gs_service
    nasa_pid = next(
        row[0] for row in service.database.relation("person") if row[2] == "NASA"
    )
    report = service.apply(
        UpdateBatch(
            [
                Insertion("movie", ("m_fresh", "t", "Universal", "2014")),
                Insertion("like", (nasa_pid, "m_fresh", "movie")),
            ]
        )
    )
    v1 = next(delta for delta in report.view_deltas if delta.view == "V1")
    assert ("m_fresh",) in v1.added
    assert service.maintainer.rows("V1") == service.maintainer.recompute()["V1"]
    service.apply(
        UpdateBatch(
            [
                Deletion("movie", ("m_fresh", "t", "Universal", "2014")),
                Deletion("like", (nasa_pid, "m_fresh", "movie")),
            ]
        )
    )
    assert service.maintainer.verify()


def test_external_writers_keep_a_subscribed_service_fresh(gs_service):
    instance, service = gs_service
    before = service.query(gs.query_q0()).rows
    batch = random_update_batch(
        instance.database, size=40, seed=37, access_schema=gs.access_schema()
    )
    # The write bypasses the service entirely: storage-level transaction.
    batch.apply_to(instance.database)
    answer = service.query(gs.query_q0())
    assert answer.rows == service.baseline(gs.query_q0()).rows
    assert service.maintainer.verify()
    batch.inverted().apply_to(instance.database)
    assert service.query(gs.query_q0()).rows == before


# --------------------------------------------------------------------------- #
# Dependency-tracked plan-cache invalidation
# --------------------------------------------------------------------------- #


def test_untouched_relations_keep_their_cached_plans(gs_service):
    _instance, service = gs_service
    movie_query = "Q(mid) :- movie(mid, t, 'Universal', '2014'), rating(mid, 5)"
    assert not service.query(movie_query).cache_hit
    assert service.query(movie_query).cache_hit

    # The batch touches only person: movie/rating plans must survive.
    person = next(iter(service.database.relation("person")))
    report = service.apply(
        UpdateBatch(
            [
                Insertion("person", ("p_cache_test", "fresh", "ESA")),
                Deletion("person", person),
            ]
        )
    )
    assert report.applied == 2
    assert service.query(movie_query).cache_hit
    service.apply(
        UpdateBatch(
            [
                Deletion("person", ("p_cache_test", "fresh", "ESA")),
                Insertion("person", person),
            ]
        )
    )


def test_touched_relations_evict_their_cached_plans(gs_service):
    _instance, service = gs_service
    movie_query = "Q(mid) :- movie(mid, t, 'Sony', '2013'), rating(mid, 4)"
    service.query(movie_query)
    assert service.query(movie_query).cache_hit
    service.apply(
        UpdateBatch(
            [
                Insertion("movie", ("m_evict", "t", "Sony", "2013")),
                Insertion("rating", ("m_evict", 4)),
            ]
        )
    )
    answer = service.query(movie_query)
    assert not answer.cache_hit  # the plan read movie: evicted
    assert ("m_evict",) in answer.rows
    service.apply(
        UpdateBatch(
            [
                Deletion("movie", ("m_evict", "t", "Sony", "2013")),
                Deletion("rating", ("m_evict", 4)),
            ]
        )
    )


def test_view_scanning_plans_are_evicted_when_view_base_relations_change(gs_service):
    _instance, service = gs_service
    # Q0's bounded plan scans V1 (person ⋈ movie ⋈ like): a person-only write
    # must evict it even though the query's own atoms include person anyway;
    # check via a plan whose *only* dependence on person is through the view.
    service.query(gs.query_q0())
    assert service.query(gs.query_q0()).cache_hit
    person = ("p_view_dep", "n", "NASA")
    service.apply(UpdateBatch([Insertion("person", person)]))
    assert not service.query(gs.query_q0()).cache_hit
    service.apply(UpdateBatch([Deletion("person", person)]))


# --------------------------------------------------------------------------- #
# Backends consume the delta stream
# --------------------------------------------------------------------------- #


def test_sqlite_backend_consumes_deltas_without_reload(gs_service):
    _instance, service = gs_service
    q0 = gs.query_q0()
    assert service.query(q0, backend="sqlite").rows == service.query(q0).rows
    backend = service._backend("sqlite")
    connection = backend._connection
    assert connection is not None

    nasa_pid = next(
        row[0] for row in service.database.relation("person") if row[2] == "NASA"
    )
    service.apply(
        UpdateBatch(
            [
                Insertion("movie", ("m_sqlite", "t", "Universal", "2014")),
                Insertion("rating", ("m_sqlite", 5)),
                Insertion("like", (nasa_pid, "m_sqlite", "movie")),
            ]
        )
    )
    # Same connection object: the delta was applied in place, not reloaded.
    assert backend._connection is connection
    rows = service.query(q0, backend="sqlite").rows
    assert ("m_sqlite",) in rows
    assert rows == service.query(q0, backend="memory").rows

    service.apply(
        UpdateBatch(
            [
                Deletion("movie", ("m_sqlite", "t", "Universal", "2014")),
                Deletion("rating", ("m_sqlite", 5)),
                Deletion("like", (nasa_pid, "m_sqlite", "movie")),
            ]
        )
    )
    assert backend._connection is connection
    assert ("m_sqlite",) not in service.query(q0, backend="sqlite").rows


# --------------------------------------------------------------------------- #
# Maintenance strategies: counting where sound, DRed otherwise
# --------------------------------------------------------------------------- #


def test_counting_and_dred_mode_classification():
    schema = schema_from_spec({"E": ("src", "dst"), "L": ("node", "label")})
    database = Database(
        schema,
        {"E": {(1, 2), (2, 3), (3, 4)}, "L": {(1, "a"), (4, "b")}},
    )
    views = ViewSet(
        (
            View("V_join", parse_cq("V(x, y) :- E(x, z), L(z, y)")),  # counting
            View("V_path", parse_cq("V(x, z) :- E(x, y), E(y, z)")),  # self-join
            View(
                "V_union",
                parse_ucq("V(x) :- E(x, y); V(x) :- L(x, l)"),
            ),
        )
    )
    maintainer = ViewMaintainer(views, database, subscribe=True)
    assert maintainer.mode("V_join") == "counting"
    assert maintainer.mode("V_path") == "dred"
    assert maintainer.mode("V_union") == "dred"


def test_counting_mode_tracks_derivation_multiplicities():
    schema = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
    database = Database(
        schema, {"R": {(1, 5), (2, 5)}, "S": {(5, 9)}}
    )
    views = ViewSet((View("V", parse_cq("V(c) :- R(a, b), S(b, c)")),))
    maintainer = ViewMaintainer(views, database, subscribe=True)
    assert maintainer.mode("V") == "counting"
    assert maintainer.counts("V") == {(9,): 2}  # two derivations of (9,)

    # Deleting one derivation decrements the count; the row survives.
    database.apply(UpdateBatch([Deletion("R", (1, 5))]))
    assert maintainer.counts("V") == {(9,): 1}
    assert maintainer.rows("V") == {(9,)}
    # Deleting the last derivation removes the row — no re-derivation needed.
    database.apply(UpdateBatch([Deletion("R", (2, 5))]))
    assert maintainer.counts("V") == {}
    assert maintainer.rows("V") == frozenset()
    assert maintainer.verify()


def test_self_join_view_falls_back_to_dred_and_stays_exact():
    schema = schema_from_spec({"E": ("src", "dst")})
    database = Database(schema, {"E": {(1, 2), (2, 3), (2, 4)}})
    views = ViewSet((View("P", parse_cq("P(x, z) :- E(x, y), E(y, z)")),))
    maintainer = ViewMaintainer(views, database, subscribe=True)
    assert maintainer.mode("P") == "dred"
    assert maintainer.rows("P") == {(1, 3), (1, 4)}

    # One inserted edge participates in both atom positions.
    database.apply(UpdateBatch([Insertion("E", (3, 1))]))
    assert maintainer.rows("P") == {(1, 3), (1, 4), (2, 1), (3, 2)}
    # Deleting an edge used by several paths over-deletes and re-derives:
    # (1,3) and (2,1) lose their only derivation, (3,2) keeps one through
    # (3,1),(1,2) and must survive the support check.
    database.apply(UpdateBatch([Deletion("E", (2, 3))]))
    assert maintainer.rows("P") == {(1, 4), (3, 2)}
    assert maintainer.verify()


def test_multi_relation_batch_is_telescoped_exactly():
    """Inserting a joining pair in ONE batch must count the derivation once."""
    schema = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
    database = Database(schema, {"R": {(0, 0)}, "S": {(0, 1)}})
    views = ViewSet((View("V", parse_cq("V(a, c) :- R(a, b), S(b, c)")),))
    maintainer = ViewMaintainer(views, database, subscribe=True)
    database.apply(
        UpdateBatch([Insertion("R", (7, 8)), Insertion("S", (8, 9))])
    )
    assert maintainer.counts("V")[(7, 9)] == 1
    # Removing either side alone must remove the row (count 1, not 2).
    database.apply(UpdateBatch([Deletion("S", (8, 9))]))
    assert (7, 9) not in maintainer.rows("V")
    assert maintainer.verify()

    # And a batch deleting both sides of a pre-existing derivation at once.
    database.apply(UpdateBatch([Deletion("R", (0, 0)), Deletion("S", (0, 1))]))
    assert maintainer.rows("V") == frozenset()
    assert maintainer.verify()


def test_boolean_view_rows_are_maintained():
    schema = schema_from_spec({"R": ("a", "b")})
    database = Database(schema, {"R": {(1, 1)}})
    views = ViewSet((View("B", parse_cq("B() :- R(x, x)")),))
    maintainer = ViewMaintainer(views, database, subscribe=True)
    assert maintainer.rows("B") == {()}
    database.apply(UpdateBatch([Deletion("R", (1, 1))]))
    assert maintainer.rows("B") == frozenset()
    database.apply(UpdateBatch([Insertion("R", (5, 5)), Insertion("R", (5, 6))]))
    assert maintainer.rows("B") == {()}
    assert maintainer.verify()
