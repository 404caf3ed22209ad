"""MVCC snapshots: versioned reads, COW maintenance, and torn-read immunity.

The unit tests pin the storage-level contracts of
:mod:`repro.storage.snapshots` — fetch equality with the live indices,
copy-on-write ``advance`` equivalence with a full rebuild, reader
immutability, out-of-band staleness detection, and plans that keep serving
the next version.  The tests at the end are the concurrency acceptance
checks: readers racing a writer thread must only ever observe full pre- or
post-batch states (rows *and* ``Dξ`` match some serially computed version),
never a torn mix.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.algebra.schema import schema_from_spec
from repro.core.access import AccessConstraint
from repro.engine.service import QueryService
from repro.storage.indexes import IndexSet
from repro.storage.snapshots import (
    MAX_CACHED_INDEXES,
    ConstraintIndexVersion,
    RelationVersion,
    ShardingLayout,
    SnapshotManager,
)
from repro.storage.updates import Deletion, Insertion, UpdateBatch, random_update_batch
from repro.workloads import graph_search as gs

from conftest import interpreted


@pytest.fixture(scope="module")
def instance():
    return gs.generate(num_persons=60, num_movies=80, seed=5)


def _service(instance) -> QueryService:
    return QueryService(instance.database, gs.access_schema(n0=instance.n0), gs.views())


# --------------------------------------------------------------------------- #
# Snapshot contents vs. live indices
# --------------------------------------------------------------------------- #


def _probe_keys(instance):
    movies = list(instance.database.relation("movie"))
    keys = sorted({(row[2], row[3]) for row in movies})[:10]
    keys.append(("NoSuchStudio", "1900"))
    mids = sorted(row[0] for row in movies)[:10]
    return keys, mids


def test_snapshot_fetch_matches_live_indexes(instance):
    access = gs.access_schema(n0=instance.n0)
    manager = instance.database.enable_snapshots(access)
    live = IndexSet(instance.database, access)
    by_relation = {c.relation: c for c in access}
    keys, mids = _probe_keys(instance)
    snapshot = manager.reader()
    for key in keys:
        assert snapshot.fetch(by_relation["movie"], key) == live.fetch(
            by_relation["movie"], key
        )
    for mid in mids:
        assert snapshot.fetch(by_relation["rating"], (mid,)) == live.fetch(
            by_relation["rating"], (mid,)
        )
    assert snapshot.facts == instance.database.facts


def test_advance_matches_full_rebuild_and_readers_stay_pinned():
    instance = gs.generate(num_persons=40, num_movies=60, seed=9)
    access = gs.access_schema(n0=instance.n0)
    manager = instance.database.enable_snapshots(access)
    before = manager.reader()
    facts_before = before.facts

    batch = random_update_batch(instance.database, size=40, seed=3)
    instance.database.apply(batch)

    # The manager advanced copy-on-write inside the transaction; a manager
    # built from scratch on the post state must agree bucket for bucket.
    after = manager.reader()
    assert after.version > before.version
    rebuilt = instance.database.enable_snapshots(access).reader()
    assert after.facts == rebuilt.facts == instance.database.facts
    by_relation = {c.relation: c for c in access}
    keys, mids = _probe_keys(instance)
    for key in keys:
        assert after.fetch(by_relation["movie"], key) == rebuilt.fetch(
            by_relation["movie"], key
        )
    for mid in mids:
        assert after.fetch(by_relation["rating"], (mid,)) == rebuilt.fetch(
            by_relation["rating"], (mid,)
        )
    # The pre-write reader is pinned: it still serves the pre-write state.
    assert before.facts == facts_before


def test_out_of_band_mutation_is_detected_and_healed(instance):
    service = _service(instance)
    q0 = gs.query_q0()
    service.query(q0)
    assert not service._snapshots.stale()
    # Bypass the delta stream entirely: a direct Relation.add is invisible
    # to observers of Database.apply, but bumps the mutation counter.
    row = ("m_oob", "oob", "Universal", "2014")
    instance.database.relation("movie").add(row)
    try:
        assert service._snapshots.stale()
        healed = service.query(q0)
        fresh = _service(instance).query(q0)
        assert healed.rows == fresh.rows
        assert healed.tuples_fetched == fresh.tuples_fetched
        assert not service._snapshots.stale()
    finally:
        instance.database.relation("movie").discard(row)


def test_close_deregisters_the_snapshot_manager(instance):
    database = instance.database
    service = _service(instance)
    q0 = gs.query_q0()
    manager = service._snapshots
    assert any(ref() is manager for ref in database._snapshot_managers)
    service.close()
    retired = manager.reader()
    row = ("m_after_close", "late", "Universal", "2014")
    database.apply([Insertion("movie", row)])
    try:
        # The foreign write neither advanced the retired snapshot nor left
        # the manager registered...
        assert manager.reader() is retired
        assert not any(ref() is manager for ref in database._snapshot_managers)
        # ...and a query after close() still heals through _sync_serving.
        assert service.query(q0).rows == _service(instance).query(q0).rows
        assert manager.reader() is not retired
    finally:
        database.apply([Deletion("movie", row)])


def test_plans_stay_cached_and_compiled_across_a_foreign_write(instance):
    q0 = gs.query_q0()
    writer = _service(instance)
    observer = _service(instance)
    observer.query(q0)

    row = ("m_retain", "r", "Universal", "2014")
    rating = ("m_retain", 5)
    batch = UpdateBatch([Insertion("movie", row), Insertion("rating", rating)])
    try:
        # The write goes through `writer`; `observer` sees it on the delta
        # stream, keeps its entry and closure, and reads the new snapshot.
        writer.apply(batch)
        answer = observer.query(q0)
        assert answer.cache_hit and answer.execution_tier == "compiled"
        with _service(instance) as fresh:
            expected = interpreted(fresh, q0)
        assert answer.rows == expected.rows
        assert answer.tuples_fetched == expected.stats.tuples_fetched
    finally:
        writer.apply(
            UpdateBatch([Deletion("movie", row), Deletion("rating", rating)])
        )
        writer.close()
        observer.close()


# --------------------------------------------------------------------------- #
# Version objects: one frozenset per relation, one bucket dict per index
# --------------------------------------------------------------------------- #

_PAIR = frozenset({(1, "a"), (2, "b")})
RELATION_DELTAS = {
    # case: (net inserted, net deleted, rows of the next version of _PAIR)
    "insert-new": ([(3, "c")], [], {(1, "a"), (2, "b"), (3, "c")}),
    "delete-present": ([], [(1, "a")], {(2, "b")}),
    "insert-and-delete": ([(3, "c")], [(2, "b")], {(1, "a"), (3, "c")}),
    "delete-absent": ([], [(9, "z")], {(1, "a"), (2, "b")}),
    "insert-present": ([(1, "a")], [], {(1, "a"), (2, "b")}),
}


@pytest.mark.parametrize("case", sorted(RELATION_DELTAS))
def test_relation_version_apply_is_a_difference_then_a_union(case):
    inserted, deleted, expected = RELATION_DELTAS[case]
    before = RelationVersion(_PAIR)
    after = before.apply(inserted, deleted)
    assert after.rows == expected and isinstance(after.rows, frozenset)
    assert before.rows is _PAIR  # a pinned version never changes


def test_relation_version_index_on_is_built_once_per_version_and_capped():
    version = RelationVersion(frozenset({(1, "a", 0), (1, "b", 0), (2, "a", 1)}))
    index = version.index_on((0,))
    assert {key: sorted(rows) for key, rows in index.items()} == {
        (1,): [(1, "a", 0), (1, "b", 0)],
        (2,): [(2, "a", 1)],
    }
    assert version.index_on([0]) is index  # memoised per version
    assert version.index_on((1, 2)) == {
        ("a", 0): [(1, "a", 0)],
        ("b", 0): [(1, "b", 0)],
        ("a", 1): [(2, "a", 1)],
    }
    assert version.index_on(()) == {(): list(version.rows)}
    nxt = version.apply([(3, "c", 2)], [])
    assert nxt.index_on((0,)) is not index and (3,) in nxt.index_on((0,))
    assert (3,) not in index  # the pinned version's index never changes
    for width in (2, 3):
        for positions in itertools.permutations(range(3), width):
            version.index_on(positions)
    # 14 distinct keys: the 6 oldest went first in, first out.
    assert len(version._indexes) == MAX_CACHED_INDEXES
    assert (0,) not in version._indexes and (1, 0) not in version._indexes
    assert (2, 0) in version._indexes and (2, 1, 0) in version._indexes


_R_ABC = schema_from_spec({"R": ("a", "b", "c")})
_R_A_TO_B = AccessConstraint("R", ("a",), ("b",), 5)


def _index_version() -> ConstraintIndexVersion:
    """Key (1,) has one projection with two supporting rows, key (2,) one
    projection with one."""
    rows = [(1, 10, "u"), (1, 10, "v"), (2, 20, "w")]
    return ConstraintIndexVersion.build(_R_A_TO_B, _R_ABC, rows)


INDEX_CHANGES = {
    # case: (staged per-key changes, buckets of the next version)
    "new-projection": (
        {(1,): {(1, 11): 1}},
        {(1,): {(1, 10): 2, (1, 11): 1}, (2,): {(2, 20): 1}},
    ),
    "new-key": (
        {(3,): {(3, 30): 1}},
        {(1,): {(1, 10): 2}, (2,): {(2, 20): 1}, (3,): {(3, 30): 1}},
    ),
    "one-of-two-supporters": (
        {(1,): {(1, 10): -1}},
        {(1,): {(1, 10): 1}, (2,): {(2, 20): 1}},
    ),
    "last-supporter": ({(2,): {(2, 20): -1}}, {(1,): {(1, 10): 2}}),
    "netted-away": ({(1,): {}}, {(1,): {(1, 10): 2}, (2,): {(2, 20): 1}}),
}


@pytest.mark.parametrize("case", sorted(INDEX_CHANGES))
def test_index_version_apply_keeps_support_counts(case):
    changes, expected = INDEX_CHANGES[case]
    before = _index_version()
    after = before.apply(changes)
    assert after.buckets == expected
    for key in [(1,), (2,), (3,)]:
        assert after.lookup(key) == frozenset(expected.get(key, ()))
    assert before.buckets == {(1,): {(1, 10): 2}, (2,): {(2, 20): 1}}


def test_index_version_apply_copies_only_the_changed_buckets():
    before = _index_version()
    one, two = before.lookup((1,)), before.lookup((2,))  # memoised lookups
    after = before.apply({(1,): {(1, 11): 1}})
    assert after.buckets[(2,)] is before.buckets[(2,)]
    assert after.lookup((2,)) is two  # the untouched key keeps its memo
    assert after.lookup((1,)) == {(1, 10), (1, 11)}
    assert before.lookup((1,)) is one and one == {(1, 10)}


# --------------------------------------------------------------------------- #
# The manager the staged benchmark builds: unregistered, fed the stream
# --------------------------------------------------------------------------- #


def test_an_unregistered_manager_advances_from_the_committed_stream():
    """A manager built directly, not registered with the database, stages
    each committed stream itself in ``advance`` and publishes what a
    registered manager published inside the transaction."""
    instance = gs.generate(num_persons=40, num_movies=60, seed=9)
    database = instance.database
    access = gs.access_schema(n0=instance.n0)
    registered = database.enable_snapshots(access)
    layout = ShardingLayout.derive(database.schema, access, 1)
    unregistered = SnapshotManager(database, layout, access)
    batch = random_update_batch(database, size=40, seed=3, access_schema=access)
    for step in (batch, batch.inverted()):
        stream = database.apply(step)
        assert stream.applied_insertions + stream.applied_deletions > 0
        published = unregistered.advance(stream)
        expected = registered.current
        assert published is unregistered.reader()
        assert published.version == expected.version
        assert published.facts == expected.facts == database.facts
        for constraint in access:
            assert (
                published.index_for(constraint).buckets
                == expected.index_for(constraint).buckets
            ), constraint
        assert not unregistered.stale()


def test_the_shard_fields_kept_for_the_staged_benchmark_stay_empty(instance):
    """``ShardingLayout``, ``Answer.shards_touched`` / ``shards_total`` and
    ``IOMeter.shards_touched`` survive only because the staged benchmark
    reads them; nothing in the package fills them."""
    assert isinstance(
        ShardingLayout.derive(instance.database.schema, gs.access_schema(), 4),
        ShardingLayout,
    )
    with _service(instance) as service:
        answer = service.query(gs.query_q0())
        result = interpreted(service, gs.query_q0())
    assert answer.used_bounded_plan and answer.tuples_fetched > 0
    assert (answer.shards_touched, answer.shards_total) == ((), 0)
    assert result.stats.tuples_fetched == answer.tuples_fetched
    assert result.stats.shards_touched == frozenset()


# --------------------------------------------------------------------------- #
# The torn-read property test
# --------------------------------------------------------------------------- #


def _paired_batches(database, count: int) -> list[UpdateBatch]:
    """Batches whose partial application is observable in (rows, Dξ).

    Each batch inserts a Universal/2014 movie together with its rating and a
    NASA like — Q0 gains the movie only once all three rows are visible, and
    a torn state (movie without rating) shifts ``Dξ`` away from both the
    pre- and post-batch version.  The tail batches delete earlier movies
    again, so versions also shrink.
    """
    pid = next(row[0] for row in database.relation("person") if row[2] == "NASA")
    batches = []
    rows = [
        (
            (f"m_torn_{i}", f"torn{i}", "Universal", "2014"),
            (f"m_torn_{i}", 5),
            (pid, f"m_torn_{i}", "movie"),
        )
        for i in range(count)
    ]
    for movie, rating, like in rows:
        batches.append(
            UpdateBatch(
                [Insertion("movie", movie), Insertion("rating", rating), Insertion("like", like)]
            )
        )
    for movie, rating, like in rows[::2]:
        batches.append(
            UpdateBatch(
                [Deletion("movie", movie), Deletion("rating", rating), Deletion("like", like)]
            )
        )
    return batches


@pytest.mark.parametrize("writer", ["service", "database"])
def test_concurrent_readers_never_observe_torn_state(writer):
    """The batches go through ``service.apply``, or straight to
    ``database.apply`` as a foreign write the service only sees on the delta
    stream."""
    q0 = gs.query_q0()
    generate = dict(num_persons=40, num_movies=60, seed=13)

    # Serial oracle: the exact (rows, Dξ, view scans) of every version.
    serial = gs.generate(**generate)
    oracle = _service(serial)
    batches = _paired_batches(serial.database, 8)
    answer = oracle.query(q0)
    valid = {(answer.rows, answer.tuples_fetched, answer.view_tuples_scanned)}
    for batch in batches:
        oracle.apply(batch)
        answer = oracle.query(q0)
        valid.add((answer.rows, answer.tuples_fetched, answer.view_tuples_scanned))

    # Concurrent run on an identical instance: a writer thread applies the
    # same batches while readers hammer Q0.  Every observation must be one
    # of the serial versions — snapshot publication is all-or-nothing.
    concurrent = gs.generate(**generate)
    service = _service(concurrent)
    live_batches = _paired_batches(concurrent.database, 8)
    done = threading.Event()
    torn: list[tuple] = []
    observed = 0

    def read() -> None:
        nonlocal observed
        while not done.is_set():
            a = service.query(q0)
            seen = (a.rows, a.tuples_fetched, a.view_tuples_scanned)
            observed += 1
            if seen not in valid:
                torn.append(seen)

    readers = [threading.Thread(target=read) for _ in range(3)]
    for thread in readers:
        thread.start()
    try:
        apply = service.apply if writer == "service" else concurrent.database.apply
        for batch in live_batches:
            apply(batch)
            time.sleep(0.002)
    finally:
        done.set()
        for thread in readers:
            thread.join()
    assert not torn, f"torn observations: {torn[:3]}"
    assert observed > 0

    final = service.query(q0)
    expected = oracle.query(q0)
    assert final.rows == expected.rows
    assert final.tuples_fetched == expected.tuples_fetched


#: No constraint reaches ``like`` without a movie: the full-scan fallback.
UNBOUNDED_LIKES = "Q(p, m) :- like(p, m, t), rating(m, 5)"


def _like_move(database) -> tuple[UpdateBatch, UpdateBatch]:
    """One ``like`` row moved from one rated-5 movie to another, and back.

    Both batches touch one relation only, so a reader of the live instance
    can observe the gap between ``Relation.apply_delta``'s two set
    operations (neither row) — a state that was never committed."""
    rated = sorted(row[0] for row in database.relation("rating") if row[1] == 5)
    likes = set(database.relation("like"))
    pid, old, kind = min(row for row in likes if row[1] in rated)
    new = next(mid for mid in rated if (pid, mid, kind) not in likes)
    forward = UpdateBatch(
        [Deletion("like", (pid, old, kind)), Insertion("like", (pid, new, kind))]
    )
    return forward, forward.inverted()


@pytest.mark.parametrize("writer", ["service", "database"])
def test_concurrent_full_scans_never_observe_torn_state(writer):
    """128 fallback answers while a writer moves one ``like`` row back and
    forth (through ``service.apply``, or as a foreign ``database.apply``),
    with a 1 µs switch interval: each answer is the pre- or the post-state,
    because the fallback's loop nest reads the snapshot its read pinned."""
    instance = gs.generate(num_persons=300, seed=11)
    service = _service(instance)
    forward, backward = _like_move(instance.database)
    pre = service.query(UNBOUNDED_LIKES)
    assert not pre.used_bounded_plan and pre.execution_tier == "compiled"
    service.apply(forward)
    post = service.query(UNBOUNDED_LIKES).rows
    service.apply(backward)
    assert post != pre.rows
    valid = {pre.rows, post}

    apply = service.apply if writer == "service" else instance.database.apply
    done, errors = threading.Event(), []

    def write() -> None:
        try:
            while not done.is_set():  # whole pairs only: ends on the pre-state
                apply(forward)
                apply(backward)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    observed: list[object] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=write)
    thread.start()
    try:
        for _ in range(128):
            try:
                observed.append(service.query(UNBOUNDED_LIKES).rows)
            except RuntimeError as exc:  # a set mutated under a live scan
                observed.append(exc)
    finally:
        done.set()
        thread.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not thread.is_alive() and not errors, errors
    torn = [rows for rows in observed if rows not in valid]
    assert not torn, f"{len(torn)} of {len(observed)} answers were torn"
    assert service.query(UNBOUNDED_LIKES).rows == pre.rows
    service.close()


# --------------------------------------------------------------------------- #
# A keyed mix across a write, its inverse, and a concurrent writer
# --------------------------------------------------------------------------- #

_WRITE = UpdateBatch(
    [Insertion("movie", (f"m_cc_{i}", "cc", "Universal", "2014")) for i in range(6)]
    + [Insertion("rating", (f"m_cc_{i}", 5)) for i in range(6)]
)


def _observed(service, queries) -> list:
    return [(a.rows, a.tuples_fetched) for a in map(service.query, queries)]


def test_keyed_mix_is_24_rows_for_dxi_288_and_a_write_and_its_inverse_round_trip(
    gs_1000, gs_mix
):
    """The keyed mix returns 24 rows for Dξ 288; after a write it equals a
    fresh service on the written data, and the inverse write restores it bit
    for bit."""
    service = _service(gs_1000)
    pristine = _observed(service, gs_mix)
    assert (sum(len(r) for r, _ in pristine), sum(f for _, f in pristine)) == (24, 288)
    service.apply(_WRITE)
    written = _observed(service, gs_mix)
    assert written != pristine
    with _service(gs_1000) as fresh:
        assert written == _observed(fresh, gs_mix)
    service.apply(_WRITE.inverted())
    assert _observed(service, gs_mix) == pristine
    service.close()


def test_concurrent_queries_read_one_version_under_a_concurrent_writer(
    gs_1000, gs_mix
):
    """Four threads call ``query`` while a writer thread keeps applying a
    batch and its inverse: no error, every answer is the pristine or the
    written version whole (never the movie index of one and the rating index
    of the other), and the settled state is bit-identical."""
    service = _service(gs_1000)
    pristine = _observed(service, gs_mix)
    service.apply(_WRITE)
    written = _observed(service, gs_mix)
    service.apply(_WRITE.inverted())
    done, errors = threading.Event(), []

    def write() -> None:
        try:
            while True:  # whole pairs only: the run ends on the pristine state
                service.apply(_WRITE)
                service.apply(_WRITE.inverted())
                if done.is_set():
                    return
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    def read(_: int) -> list:
        return [_observed(service, gs_mix) for _ in range(6)]

    writer = threading.Thread(target=write)
    writer.start()
    try:
        with ThreadPoolExecutor(max_workers=4) as readers:
            bursts = [burst for run in readers.map(read, range(4)) for burst in run]
    finally:
        done.set()
        writer.join(timeout=120)
    assert not writer.is_alive()
    assert not errors, errors
    for answers in bursts:
        for answer, old, new in zip(answers, pristine, written):
            assert answer in (old, new)
    assert _observed(service, gs_mix) == pristine
    service.close()
