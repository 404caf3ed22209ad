"""MVCC snapshots: versioned reads, COW maintenance, and torn-read immunity.

The unit tests pin the storage-level contracts of
:mod:`repro.storage.snapshots` — deterministic shard hashing, layout
classification, fetch equality with the live indices, copy-on-write
``advance`` equivalence with a full rebuild, reader immutability and
out-of-band staleness detection.  The property test at the end is the
concurrency acceptance check: readers racing a writer thread must only ever
observe full pre- or post-batch states (rows *and* ``Dξ`` match some
serially computed version), never a torn mix.
"""

from __future__ import annotations

import threading
import time
import zlib

import pytest

from repro.engine.service import QueryService
from repro.storage.indexes import IndexSet
from repro.storage.snapshots import ShardingLayout, shard_of, single_shard_layout
from repro.storage.updates import Deletion, Insertion, UpdateBatch, random_update_batch
from repro.workloads import graph_search as gs


@pytest.fixture(scope="module")
def instance():
    return gs.generate(num_persons=60, num_movies=80, seed=5)


def _service(instance, **kwargs) -> QueryService:
    return QueryService(
        instance.database, gs.access_schema(n0=instance.n0), gs.views(), **kwargs
    )


# --------------------------------------------------------------------------- #
# Shard hashing and layout derivation
# --------------------------------------------------------------------------- #


def test_shard_of_is_deterministic_and_hash_seed_free():
    key = ("Universal", "2014")
    expected = zlib.crc32(repr(tuple(key)).encode("utf-8")) % 4
    assert shard_of(key, 4) == expected
    assert shard_of(key, 4) == shard_of(list(key), 4)
    assert shard_of(key, 1) == 0
    assert all(0 <= shard_of((i,), 8) < 8 for i in range(100))


def test_layout_partitions_only_keyed_high_bound_constraints():
    schema, access = gs.schema(), gs.access_schema(n0=100)
    layout = ShardingLayout.derive(schema, access, 4)
    by_relation = {c.relation: c for c in access}
    assert layout.shard_count == 4
    # movie(studio,release -> mid, 100): keyed and high-bound => partitioned.
    assert layout.constraint_is_partitioned(by_relation["movie"])
    # rating(mid -> rank, 1): reference tier (bound <= 1) => global.
    assert not layout.constraint_is_partitioned(by_relation["rating"])

    single = ShardingLayout.derive(schema, access, 1)
    assert not any(single.constraint_is_partitioned(c) for c in access)
    with pytest.raises(ValueError):
        ShardingLayout.derive(schema, access, 0)
    assert single_shard_layout().shard_count == 1


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
    layout = ShardingLayout.derive(instance.database.schema, access, 4)
    manager = instance.database.enable_snapshots(layout, access)
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
    layout = ShardingLayout.derive(instance.database.schema, access, 4)
    manager = instance.database.enable_snapshots(layout, access)
    before = manager.reader()
    facts_before = before.facts

    batch = random_update_batch(instance.database, size=40, seed=3)
    instance.database.apply(batch)

    # The manager advanced copy-on-write inside the transaction; a manager
    # built from scratch on the post state must agree bucket for bucket.
    after = manager.reader()
    assert after.version > before.version
    rebuilt = instance.database.enable_snapshots(layout, access).reader()
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


@pytest.mark.parametrize("shards", [1, 4])
def test_concurrent_readers_never_observe_torn_state(shards):
    q0 = gs.query_q0()
    generate = dict(num_persons=40, num_movies=60, seed=13)

    # Serial oracle: the exact (rows, Dξ, view scans) of every version.
    serial = gs.generate(**generate)
    oracle = _service(serial, shards=shards, codegen_warmup=0)
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
    service = _service(concurrent, shards=shards, codegen_warmup=0)
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
        for batch in live_batches:
            service.apply(batch)
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
