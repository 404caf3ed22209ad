"""Tests for the first-class write path: delta streams, ``QueryService.apply``,
plans retained across writes, and the SQL oracle reading each written state."""

from __future__ import annotations

import inspect

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
from repro.workloads import skewed
from repro.workloads.random_cq import RandomCQConfig, random_workload

from conftest import SQLOracle, interpreted


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


def test_delta_stream_names_are_memoised_and_dropped_by_every_recording():
    """``relations`` and ``touched`` are computed once per stream state: a
    read between recordings returns the memo, and each recording drops it —
    a cancelling pair removes the relation, a later ``record_net`` at an
    earlier batch position moves its relation first."""
    stream = DeltaStream()
    stream.record_insert("S", (1,), position=1)
    stream.record_insert("R", (2, 2), position=2)
    assert stream.relations == ("S", "R") and stream.touched == {"S", "R"}
    assert stream.relations is stream.relations
    assert stream.touched is stream.touched
    stream.record_delete("R", (2, 2))  # cancels the insertion
    assert stream.relations == ("S",) and stream.touched == {"S"}
    stream.record_net("T", [(5,)], [], position=0)
    assert stream.relations == ("T", "S") and stream.touched == {"T", "S"}
    stream.record_delete("S", (1,), position=3)  # cancels; S's first touch stays 1
    stream.record_insert("S", (7,), position=4)
    assert stream.relations == ("T", "S")


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


@pytest.mark.parametrize(
    "bad", [Insertion("R", (9,)), Deletion("T", (1, 2))], ids=["arity", "relation"]
)
def test_database_apply_leaves_everything_all_pre_on_a_malformed_update(bad):
    """Phase 1 checks every update before phase 2 writes anything: a wrong
    arity or an unknown relation anywhere in the batch raises with storage,
    statistics, the snapshot, the views and the subscribers all-pre."""
    from repro.core.access import AccessConstraint
    from repro.errors import SchemaError

    schema = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
    database = Database(schema, {"R": {(1, 2)}, "S": {(2, 3)}})
    access = AccessSchema((AccessConstraint("R", ("a",), ("b",), 2),))
    manager = database.enable_snapshots(access)
    views = ViewSet((View("V", parse_cq("V(x, z) :- R(x, y), S(y, z)")),))
    maintainer = ViewMaintainer(views, database, subscribe=True)
    statistics = database.relation("R").statistics()
    streams = []

    class Observer:
        def on_delta(self, stream):
            streams.append(stream)

    observer = Observer()
    database.subscribe(observer)
    facts, version = database.facts, manager.current.version
    good = [Insertion("R", (5, 2)), Deletion("R", (1, 2))]
    with pytest.raises(SchemaError):
        database.apply([*good, bad, Insertion("S", (2, 4))])
    assert database.facts == facts
    assert database.relation("R").statistics() == statistics
    assert manager.current.version == version and not manager.stale()
    assert maintainer.rows("V") == {(1, 3)}
    assert streams == []
    # Nothing of the refused batch lingers: the next one applies from scratch.
    database.apply(good)
    assert manager.current.facts == database.facts == {"R": {(5, 2)}, "S": {(2, 3)}}
    assert maintainer.rows("V") == {(5, 3)} and maintainer.verify()
    assert len(streams) == 1


def test_a_scan_over_none_values_agrees_with_the_sql_oracle_across_a_delete():
    """A row holding ``None`` loads into SQL as ``NULL`` and comes back as
    ``None``; deleting it is a new data version the oracle reloads."""
    schema = schema_from_spec({"R": ("a", "b")})
    database = Database(schema, {"R": {(None, 1), (2, 3)}})
    scan = "Q(a, b) :- R(a, b)"
    with QueryService(database, AccessSchema(())) as service:
        oracle = SQLOracle(service)
        assert service.baseline(scan).rows == oracle.query_rows(scan) == {(None, 1), (2, 3)}
        service.apply(UpdateBatch([Deletion("R", (None, 1))]))
        assert service.baseline(scan).rows == oracle.query_rows(scan) == {(2, 3)}
        assert oracle.loads == 2


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


def test_bulk_batches_net_apply_and_maintain_on_the_compiled_tier(gs_1000):
    """Five seeded 1000-update batches, each on the state the last one left:
    what nets out and what the access schema admits is a function of data and
    seed (4 729 = 1 658 + 3 071 in all), and both touched views run
    generated kernels every time."""
    database, q0 = gs_1000.database, gs.query_q0()
    service = QueryService(database, gs.access_schema(n0=gs_1000.n0), gs.views())
    service.query(q0)  # a live cached plan to maintain through the writes
    counts = [(922, 300, 622), (946, 306, 640), (921, 330, 591), (940, 319, 621), (1000, 403, 597)]
    for seed, expected in zip(range(100, 105), counts):
        report = service.apply(random_update_batch(database, size=1000, seed=seed))
        assert (report.applied, report.inserted, report.deleted) == expected, seed
        assert dict(report.stats.tier_runs) == {"compiled": 2}, seed
    assert service.maintainer.verify()
    assert service.query(q0).rows == service.baseline(q0).rows


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


def test_admission_sees_out_of_band_writes_and_the_transaction_so_far():
    """Admission reads the published snapshot bucket plus the transaction's
    own staged rows: a direct ``Relation.add`` is healed into the version
    first, a row inserted earlier in the transaction counts toward the bound,
    and a row deleted earlier in it frees one."""
    from repro.core.access import AccessConstraint

    schema = schema_from_spec({"R": ("a", "b")})
    database = Database(schema, {"R": {(1, 10), (3, 30)}})
    constraint = AccessConstraint("R", ("a",), ("b",), 2)
    service = QueryService(database, AccessSchema((constraint,)))

    def outcome(*updates):
        report = service.apply(UpdateBatch(updates))
        return report.applied, report.skipped_inadmissible

    # Out of band, a second b-value fills key 1's bound.
    database.relation("R").add((1, 11))
    assert outcome(Insertion("R", (1, 12))) == (0, 1)
    assert service.indexes.fetch(constraint, (1,)) == {(1, 10), (1, 11)}
    # Re-inserting a present b-value never violates the bound.
    assert outcome(Insertion("R", (1, 11))) == (0, 0)
    # Inserted earlier in the same transaction: counts toward the bound.
    assert outcome(
        Insertion("R", (2, 20)), Insertion("R", (2, 21)), Insertion("R", (2, 22))
    ) == (2, 1)
    # Deleted earlier in the same transaction: frees a slot, also when the
    # deleted row was itself inserted by this transaction.
    assert outcome(Deletion("R", (1, 10)), Insertion("R", (1, 12))) == (2, 0)
    assert outcome(
        Insertion("R", (3, 31)),
        Deletion("R", (3, 31)),
        Insertion("R", (3, 32)),
        Insertion("R", (3, 33)),
    ) == (3, 1)
    assert database.relation("R").tuples == {
        (1, 11), (1, 12), (2, 20), (2, 21), (3, 30), (3, 32)
    }
    assert database.satisfies(service.access_schema)
    assert service._snapshots.current.facts == database.facts


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
# Plan lifetime: a write leaves the plan cache alone
# --------------------------------------------------------------------------- #


def _observed(answer):
    """What must not depend on when the plan was made: rows, Dξ, the planner
    and the bounded verdict."""
    return (
        answer.rows,
        answer.tuples_fetched,
        answer.tuples_scanned,
        answer.view_tuples_scanned,
        answer.planner,
        answer.used_bounded_plan,
    )


def _assert_retained_hit(service, query):
    """The read after a write: a compiled cache hit whose rows, Dξ and planner
    equal those of the interpreted run of the plan a service built after the
    write makes."""
    answer = service.query(query)
    assert answer.cache_hit and answer.execution_tier == "compiled"
    with QueryService(service.database, service.access_schema, service.views) as fresh:
        reference = interpreted(fresh, query)
        planner = fresh.plan(query)[0].planner
    assert (
        answer.rows, answer.tuples_fetched, answer.view_tuples_scanned, answer.planner
    ) == (
        reference.rows,
        reference.stats.tuples_fetched,
        reference.stats.view_tuples_scanned,
        planner,
    )
    return answer


def test_written_relations_keep_their_cached_plans(gs_service):
    _instance, service = gs_service
    movie_query = "Q(mid) :- movie(mid, t, 'Sony', '2013'), rating(mid, 4)"
    service.query(movie_query)
    # One write touches only person, the other the relations the plan fetches.
    person = ("p_cache_test", "fresh", "ESA")
    service.apply(UpdateBatch([Insertion("person", person)]))
    _assert_retained_hit(service, movie_query)
    movie = [
        Insertion("movie", ("m_kept", "t", "Sony", "2013")),
        Insertion("rating", ("m_kept", 4)),
    ]
    service.apply(UpdateBatch(movie))
    assert ("m_kept",) in _assert_retained_hit(service, movie_query).rows
    service.apply(UpdateBatch(movie + [Insertion("person", person)]).inverted())


def test_view_scanning_plans_survive_changes_to_the_view(gs_service):
    _instance, service = gs_service
    # Q0's bounded plan scans V1 (person ⋈ movie ⋈ like): the retained closure
    # must read the maintained view rows, not the ones it was compiled beside.
    before = service.query(gs.query_q0())
    nasa_pid = next(
        row[0] for row in service.database.relation("person") if row[2] == "NASA"
    )
    batch = UpdateBatch(
        [
            Insertion("movie", ("m_view", "t", "Universal", "2014")),
            Insertion("rating", ("m_view", 5)),
            Insertion("like", (nasa_pid, "m_view", "movie")),
        ]
    )
    report = service.apply(batch)
    assert any(delta.view == "V1" for delta in report.view_deltas)
    after = _assert_retained_hit(service, gs.query_q0())
    assert after.rows == before.rows | {("m_view",)}
    service.apply(batch.inverted())
    assert _assert_retained_hit(service, gs.query_q0()).rows == before.rows


def test_retention_is_not_a_knob(gs_service):
    """Six keyword knobs; the one that selected eviction is a TypeError."""
    instance, _service = gs_service
    knobs = [
        parameter.name
        for parameter in inspect.signature(QueryService).parameters.values()
        if parameter.kind is parameter.KEYWORD_ONLY
    ]
    assert len(knobs) == 6
    removed = "retain_plans" + "_on_write"  # in halves: greps for it stay empty
    assert removed not in knobs
    with pytest.raises(TypeError, match=removed):
        QueryService(
            instance.database, gs.access_schema(), gs.views(), **{removed: True}
        )


def _differential_cases(workload):
    """(database, access schema, views, queries, prepared text + bindings)."""
    if workload == "graph_search":
        instance = gs.generate(num_persons=250, num_movies=140, seed=29)
        config = RandomCQConfig(
            min_atoms=1, max_atoms=3, head_size=2, constant_probability=0.6, seed=61
        )
        queries = [gs.query_q0()] + [  # Q0 scans V1 and V2
            q
            for q in random_workload(gs.schema(), instance.database, 40, config)
            if len(set(q.head)) == len(q.head)
        ]
        prepared = (
            "Q(mid) :- movie(mid, t, :studio, '2014'), rating(mid, 5)",
            [{"studio": "Universal"}, {"studio": "Sony"}],
        )
        return instance.database, gs.access_schema(), gs.views(), queries, prepared
    instance = skewed.generate(hot_fans=100, users=600, seed=5)
    queries = [
        skewed.query_feed(),
        # No constraint reaches follows without a celebrity: a cached
        # *negative* outcome, answered by the full-scan baseline.
        "Qall(fan, team) :- follows(celeb, fan), contacted(fan, agent), staff(team, agent)",
    ]
    prepared = (
        "Q(fan, agent) :- follows(:celeb, fan), staff('t1', agent), contacted(fan, agent)",
        [{"celeb": skewed.HOT_CELEB}, {"celeb": "c3"}],
    )
    return instance.database, skewed.access_schema(), skewed.views(), queries, prepared


@pytest.mark.parametrize("writer", ["service", "database"])
@pytest.mark.parametrize("reference", ["memory", "sqlite"])
@pytest.mark.parametrize("workload", ["graph_search", "skewed"])
def test_retained_plans_agree_with_a_service_built_after_every_write(
    workload, reference, writer
):
    """A long-lived service against one constructed fresh after each batch.

    The long-lived one planned everything before the first write and never
    plans again (its cache misses stay put, ``apply`` leaves the cache
    counters alone); the fresh one plans against the post-write state.  Rows,
    Dξ, planner and bounded verdict must agree — for view-scanning plans, a
    negative outcome, and a prepared ``:param`` query held across the writes.
    The batches go through ``service.apply`` or, as a foreign write the
    service only sees on the delta stream, straight to ``database.apply``.
    Against the ``sqlite`` reference every kept answer also equals the SQL
    oracle on the written state, reloaded once per batch: its plan through
    ``plan_to_sql``, or its query through ``ucq_to_sql``.
    """
    database, access, views, queries, (text, bindings) = _differential_cases(workload)
    service = QueryService(database, access, views)
    oracle = SQLOracle(service)

    def write(step):
        if writer == "service":
            return service.apply(step).applied
        stream = database.apply(step)
        return stream.applied_insertions + stream.applied_deletions

    prepared = service.prepare(text)
    outcomes = [service.query(query).used_bounded_plan for query in queries]
    for binding in bindings:
        prepared.execute(params=binding)
    assert any(outcomes) and (workload != "skewed" or not all(outcomes))
    stats = service.plan_cache.stats

    def counters():
        return (stats.misses, stats.evictions, stats.invalidations)

    planned = counters()
    for seed in (71, 72, 73):
        batch = random_update_batch(database, size=40, seed=seed, access_schema=access)
        for step in (batch, batch.inverted()):
            before = counters()
            assert write(step) > 0
            assert counters() == before
            loads = oracle.loads
            with QueryService(database, access, views) as fresh:
                for query in queries:
                    kept = service.query(query)
                    assert kept.cache_hit
                    assert _observed(kept) == _observed(fresh.query(query)), query
                    if reference == "sqlite":
                        assert oracle.rows(kept, query) == kept.rows, query
                for binding in bindings:
                    kept = prepared.execute(params=binding)
                    assert kept.cache_hit
                    assert _observed(kept) == _observed(
                        fresh.query(text, params=binding)
                    ), binding
                    if reference == "sqlite":
                        assert oracle.rows(kept, text, binding) == kept.rows, binding
            if reference == "sqlite":
                assert oracle.loads == loads + 1  # reloaded once for this batch
    assert counters() == planned  # nothing was planned twice, nothing left
    assert service.maintainer.verify()
    oracle.close()
    service.close()


# --------------------------------------------------------------------------- #
# The SQL oracle reads every written state
# --------------------------------------------------------------------------- #


def test_q0_agrees_with_the_sql_oracle_across_a_write_and_its_inverse(gs_service):
    _instance, service = gs_service
    q0 = gs.query_q0()
    oracle = SQLOracle(service)
    answer = service.query(q0)
    assert oracle.rows(answer, q0) == answer.rows

    nasa_pid = next(
        row[0] for row in service.database.relation("person") if row[2] == "NASA"
    )
    service.apply(
        UpdateBatch(
            [
                Insertion("movie", ("m_new", "t", "Universal", "2014")),
                Insertion("rating", ("m_new", 5)),
                Insertion("like", (nasa_pid, "m_new", "movie")),
            ]
        )
    )
    answer = service.query(q0)
    assert ("m_new",) in answer.rows
    assert oracle.rows(answer, q0) == answer.rows

    service.apply(
        UpdateBatch(
            [
                Deletion("movie", ("m_new", "t", "Universal", "2014")),
                Deletion("rating", ("m_new", 5)),
                Deletion("like", (nasa_pid, "m_new", "movie")),
            ]
        )
    )
    answer = service.query(q0)
    assert ("m_new",) not in answer.rows
    assert oracle.rows(answer, q0) == answer.rows
    assert oracle.loads == 3  # one load per data version
    oracle.close()


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
