"""E11 — concurrent serving: snapshot-isolated sharded service vs one database.

A mixed read/write workload drives ``query_many`` rounds (24 queries across a
4-worker pool) interleaved with insert/delete batches, in three serving
configurations:

* **sharded, shard-pruned** — ``shards=4``: every query is single-shard
  routable, reads run against pinned MVCC snapshots and the writer thread
  applies batches *concurrently* with the readers;
* **sharded, full fan-out** — the same service answering union queries whose
  disjunct keys hash to every partition, so execution must fan out and merge
  per-shard ``IOMeter`` readings;
* **single-partition baseline** — ``shards=1`` (no routing, no pruning) used
  the way a single-database service is: writes serialised with the reads.

Cached plans survive the writes in all three (a write never touches the plan
cache), so the ratio of the shard-pruned configuration to the baseline is
recorded, not gated: the ≥ 2x it used to assert was the baseline re-planning
every query after every batch, which no service does any more.  Rows and
``Dξ`` must be bit-identical between the sharded and single-partition
services on the settled states.
"""

from __future__ import annotations

import threading

import pytest

from repro.algebra.parser import parse_query
from repro.algebra.ucq import UnionQuery
from repro.engine.service import QueryService
from repro.storage.snapshots import shard_of
from repro.storage.updates import Insertion, UpdateBatch
from repro.workloads import graph_search as gs

#: Mean seconds per round, shared across tests for the speedup accounting.
_TIMINGS: dict[str, float] = {}

WORKERS = 4
SHARDS = 4
#: Two ``query_many`` bursts per round.
QUERIES_PER_ROUND = 24


@pytest.fixture(scope="module")
def instance():
    return gs.generate(num_persons=300, num_movies=200, seed=11)


def _service(instance, **kwargs) -> QueryService:
    return QueryService(
        instance.database.copy(),
        gs.access_schema(n0=instance.n0),
        gs.views(),
        **kwargs,
    )


def _pruned_mix(database) -> list:
    """Twelve distinct single-shard-routable queries (q0 + keyed lookups)."""
    pairs = sorted({(row[2], row[3]) for row in database.relation("movie")})
    queries: list = [gs.query_q0()]
    for index, (studio, release) in enumerate(pairs[:11]):
        queries.append(
            parse_query(
                f"Qp{index}(mid) :- movie(mid, t, '{studio}', '{release}'), "
                "rating(mid, 5)"
            )
        )
    return queries


def _fanout_mix(database) -> list:
    """A union query with one disjunct per partition: guaranteed full fan-out."""
    pairs = sorted({(row[2], row[3]) for row in database.relation("movie")})
    by_shard: dict[int, tuple] = {}
    for pair in pairs:
        by_shard.setdefault(shard_of(pair, SHARDS), pair)
    disjuncts = tuple(
        parse_query(
            f"Qfan(mid) :- movie(mid, t, '{studio}', '{release}'), rating(mid, 5)"
        )
        for studio, release in (by_shard[s] for s in sorted(by_shard))
    )
    assert len(disjuncts) >= 2, "instance too small to cover multiple shards"
    return [UnionQuery(disjuncts, name="Qfan")] * 12


def _write_batch(count: int = 6) -> tuple[UpdateBatch, UpdateBatch]:
    """A batch of q0-relevant inserts and its inverse (state-neutral per round)."""
    updates = []
    for i in range(count):
        updates.append(Insertion("movie", (f"m_cc_{i}", f"cc{i}", "Universal", "2014")))
        updates.append(Insertion("rating", (f"m_cc_{i}", 5)))
    batch = UpdateBatch(updates)
    return batch, batch.inverted()


def _assert_bit_identical(sharded_answers, expected_answers, label: str) -> None:
    assert [a.rows for a in sharded_answers] == [
        a.rows for a in expected_answers
    ], label
    assert [a.tuples_fetched for a in sharded_answers] == [
        a.tuples_fetched for a in expected_answers
    ], label


# --------------------------------------------------------------------------- #
# Differential guard: sharded == unsharded on every settled state
# --------------------------------------------------------------------------- #


def test_sharded_answers_are_bit_identical_to_unsharded(instance):
    unsharded = _service(instance, shards=1)
    sharded = _service(instance, shards=SHARDS)
    mix = _pruned_mix(instance.database) + _fanout_mix(instance.database)[:1]
    batch, inverse = _write_batch()
    _assert_bit_identical(
        [sharded.query(q) for q in mix],
        [unsharded.query(q) for q in mix],
        "pristine state",
    )
    for service in (unsharded, sharded):
        service.apply(batch)
    _assert_bit_identical(
        [sharded.query(q) for q in mix],
        [unsharded.query(q) for q in mix],
        "post-batch state",
    )
    for service in (unsharded, sharded):
        service.apply(inverse)
    _assert_bit_identical(
        [sharded.query(q) for q in mix],
        [unsharded.query(q) for q in mix],
        "restored state",
    )
    unsharded.close()
    sharded.close()


# --------------------------------------------------------------------------- #
# Throughput: shard-pruned vs full fan-out vs unsharded
# --------------------------------------------------------------------------- #


def test_concurrent_mix_sharded_pruned(benchmark, instance):
    service = _service(instance, shards=SHARDS)
    mix = _pruned_mix(instance.database)
    batch, inverse = _write_batch()
    expected = [service.query(q) for q in mix]  # also warms the plan cache
    errors: list[BaseException] = []

    def write() -> None:
        try:
            service.apply(batch)
            service.apply(inverse)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def run():
        # Snapshot isolation makes this safe: the writer advances versions
        # copy-on-write while both query_many bursts read pinned snapshots.
        writer = threading.Thread(target=write)
        writer.start()
        try:
            service.query_many(mix, max_workers=WORKERS)
            answers = service.query_many(mix, max_workers=WORKERS)
        finally:
            writer.join()
        return answers

    run()  # warm-up round
    benchmark.pedantic(run, rounds=3, iterations=1)
    assert not errors, errors
    mean = benchmark.stats.stats.mean
    _TIMINGS["sharded_pruned"] = mean
    # The writes are state-neutral, so the settled answers must still match
    # the pre-run ones bit for bit (rows and Dξ).
    _assert_bit_identical(
        [service.query(q) for q in mix], expected, "settled after concurrent writes"
    )
    snapshot = service.stats.snapshot()
    assert snapshot.single_shard_queries > 0
    benchmark.extra_info["queries_per_round"] = QUERIES_PER_ROUND
    benchmark.extra_info["queries_per_sec"] = round(QUERIES_PER_ROUND / mean)
    benchmark.extra_info["single_shard_queries"] = snapshot.single_shard_queries
    benchmark.extra_info["shards_pruned"] = snapshot.shards_pruned
    service.close()


def test_concurrent_mix_sharded_fanout(benchmark, instance):
    service = _service(instance, shards=SHARDS)
    mix = _fanout_mix(instance.database)
    batch, inverse = _write_batch()
    [service.query(q) for q in mix]
    errors: list[BaseException] = []

    def write() -> None:
        try:
            service.apply(batch)
            service.apply(inverse)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def run():
        writer = threading.Thread(target=write)
        writer.start()
        try:
            service.query_many(mix, max_workers=WORKERS)
            answers = service.query_many(mix, max_workers=WORKERS)
        finally:
            writer.join()
        return answers

    run()
    benchmark.pedantic(run, rounds=3, iterations=1)
    assert not errors, errors
    mean = benchmark.stats.stats.mean
    snapshot = service.stats.snapshot()
    assert snapshot.fanout_queries > 0  # the mix really fans out
    benchmark.extra_info["queries_per_round"] = QUERIES_PER_ROUND
    benchmark.extra_info["queries_per_sec"] = round(QUERIES_PER_ROUND / mean)
    benchmark.extra_info["fanout_queries"] = snapshot.fanout_queries
    service.close()


def test_concurrent_mix_unsharded_baseline(benchmark, instance):
    service = _service(instance, shards=1)
    mix = _pruned_mix(instance.database)
    batch, inverse = _write_batch()
    [service.query(q) for q in mix]

    def run():
        # The single-database usage: writes serialised with the query bursts.
        service.apply(batch)
        service.query_many(mix, max_workers=WORKERS)
        service.apply(inverse)
        return service.query_many(mix, max_workers=WORKERS)

    run()
    benchmark.pedantic(run, rounds=3, iterations=1)
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["queries_per_round"] = QUERIES_PER_ROUND
    benchmark.extra_info["queries_per_sec"] = round(QUERIES_PER_ROUND / mean)
    sharded = _TIMINGS.get("sharded_pruned")
    if sharded:
        benchmark.extra_info["sharded_speedup"] = round(mean / sharded, 1)
    service.close()
