"""Hash-sharded serving: differential equivalence, routing, the worker pool.

The core guarantee is *bit-identical answers*: partitioning the
access-constraint indices by key hash must change nothing observable except
``shards_touched`` — every probe key owns exactly one partition, so rows and
``Dξ`` match the single-partition service (``shards=1``: no routing, no
pruning) by construction.  The differential test drives ~100 random CQs/UCQs
through that reference and N=2,4 sharded services and compares everything; the router tests check the static shard-set
prediction against the partitions execution actually touched.
"""

from __future__ import annotations

import threading

import pytest

from repro.algebra.parser import parse_query
from repro.algebra.ucq import UnionQuery
from repro.engine.service import QueryService, ShardExecutor
from repro.storage.snapshots import shard_of
from repro.storage.updates import Deletion, Insertion, UpdateBatch
from repro.workloads import graph_search as gs
from repro.workloads.random_cq import RandomCQConfig, random_workload


@pytest.fixture(scope="module")
def instance():
    return gs.generate(num_persons=80, num_movies=120, seed=17)


def _service(instance, **kwargs) -> QueryService:
    return QueryService(
        instance.database, gs.access_schema(n0=instance.n0), gs.views(), **kwargs
    )


def _workload(instance) -> list:
    """~100 random CQs plus UCQs paired from arity-matching CQs."""
    cqs = random_workload(
        instance.database.schema,
        instance.database,
        80,
        RandomCQConfig(seed=29),
    )
    queries: list = list(cqs)
    by_arity: dict[int, list] = {}
    for cq in cqs:
        by_arity.setdefault(cq.head_arity, []).append(cq)
    for arity, group in sorted(by_arity.items()):
        for left, right in zip(group[0::2], group[1::2]):
            queries.append(UnionQuery((left, right), name=f"U{arity}_{left.name}"))
            if len(queries) >= 104:
                break
    # Statically keyed lookups (constant studio/release): single-shard
    # routable under the movie constraint, one per distinct key hash.
    pairs = sorted({(row[2], row[3]) for row in instance.database.relation("movie")})
    keyed = []
    for studio, release in pairs[:8]:
        keyed.append(
            parse_query(
                f"Qk(mid) :- movie(mid, t, '{studio}', '{release}'), rating(mid, 5)"
            )
        )
    queries.extend(keyed)
    queries.append(_fanout_query(instance.database))
    queries.append(gs.query_q0())
    return queries


def _fanout_query(database) -> UnionQuery:
    """A guaranteed fan-out: a union with one keyed disjunct per partition
    (the key ``_WRITE`` inserts under among them), so sharded execution must
    merge partial results."""
    pairs = sorted({(row[2], row[3]) for row in database.relation("movie")})
    by_shard = {shard_of(pair, 4): pair for pair in pairs + [("Universal", "2014")]}
    assert len(by_shard) == 4
    return UnionQuery(
        tuple(
            parse_query(f"Qfan(mid) :- movie(mid, t, '{s}', '{r}'), rating(mid, 5)")
            for s, r in by_shard.values()
        ),
        name="Qfan",
    )


def _observed(service, queries) -> list:
    return [(a.rows, a.tuples_fetched) for a in map(service.query, queries)]


_WRITE = UpdateBatch(
    [Insertion("movie", (f"m_cc_{i}", "cc", "Universal", "2014")) for i in range(6)]
    + [Insertion("rating", (f"m_cc_{i}", 5)) for i in range(6)]
)


# --------------------------------------------------------------------------- #
# Differential: sharded == single partition, bit for bit
# --------------------------------------------------------------------------- #


def test_sharded_services_answer_bit_identically(instance):
    queries = _workload(instance)
    reference = _service(instance, shards=1)
    sharded = {n: _service(instance, shards=n) for n in (2, 4)}
    fanouts = 0
    for query in queries:
        expected = reference.query(query)
        assert expected.shards_touched == ()
        for n, service in sharded.items():
            answer = service.query(query)
            label = f"{getattr(query, 'name', query)} (shards={n})"
            assert answer.rows == expected.rows, label
            assert answer.used_bounded_plan == expected.used_bounded_plan, label
            assert answer.tuples_fetched == expected.tuples_fetched, label
            assert answer.view_tuples_scanned == expected.view_tuples_scanned, label
            if answer.used_bounded_plan:
                assert answer.shards_total == n, label
            assert all(0 <= s < n for s in answer.shards_touched), label
            if n == 4 and len(answer.shards_touched) > 1:
                fanouts += 1
    # The workload must actually exercise multi-shard execution.
    assert fanouts > 0
    assert sharded[4].stats.snapshot().fanout_queries == fanouts


def test_router_prediction_matches_touched_shards(instance):
    queries = _workload(instance)
    service = _service(instance, shards=4)
    checked = 0
    for query in queries:
        answer = service.query(query)
        if not answer.used_bounded_plan:
            continue
        shard_set = service.explain(query).shard_set
        assert shard_set is not None
        if shard_set.dynamic_relations:
            continue
        # Static prediction is exact on the touched side: execution may
        # probe no partition the router did not predict, and a plan whose
        # key subtrees all evaluate statically probes what it predicted
        # unless an empty join input short-circuits the fetch entirely.
        assert set(answer.shards_touched) <= set(shard_set.shards), str(query)
        if answer.shards_touched:
            assert set(answer.shards_touched) == set(shard_set.shards), str(query)
        checked += 1
    assert checked >= 5


def test_q0_is_single_shard_routable(instance):
    service = _service(instance, shards=4)
    q0 = gs.query_q0()
    explanation = service.explain(q0)
    assert explanation.shard_set is not None
    assert explanation.shard_set.single_shard
    assert explanation.shard_set.shards_pruned == 3
    assert "single-shard routable" in explanation.render()
    answer = service.query(q0)
    assert len(answer.shards_touched) == 1
    assert tuple(sorted(explanation.shard_set.shards)) == answer.shards_touched
    snapshot = service.stats.snapshot()
    assert snapshot.single_shard_queries >= 1
    assert snapshot.shards_pruned >= 3


def test_a_shared_plan_routes_by_the_bound_key(instance):
    """The cached plan of a keyed lookup is its shape's — ``movie($0, $1)`` —
    and routes by the values of whoever asks: two inputs of one plan land on
    their own partitions, a placeholder nobody bound stays dynamic."""
    service = _service(instance, shards=4)
    text = "Qk(mid) :- movie(mid, t, '{}', '{}'), rating(mid, 5)"
    pairs = sorted({(row[2], row[3]) for row in instance.database.relation("movie")})
    first, other = next(
        (a, b) for a in pairs for b in pairs if shard_of(a, 4) != shard_of(b, 4)
    )
    for pair in (first, other):
        explanation = service.explain(text.format(*pair))
        assert explanation.shard_set.single_shard
        assert explanation.shard_set.shards == {shard_of(pair, 4)}
        assert service.query(text.format(*pair)).shards_touched == (shard_of(pair, 4),)
    assert len(service.plan_cache) == 1
    entry = next(iter(dict(service.plan_cache.entries()).values()))
    router = service._router
    assert router.route(entry.plan).dynamic_relations == ("movie",)
    assert router.affinity(entry.plan) is None
    bindings = dict(zip(("$0", "$1"), other))
    assert router.affinity(entry.plan, bindings) == shard_of(other, 4)
    assert router.route(entry.plan, {"$0": other[0]}).dynamic_relations == ("movie",)
    prepared = service.prepare("Qk(mid) :- movie(mid, t, :studio, '2014'), rating(mid, 5)")
    assert service.explain(prepared.query).shard_set.dynamic_relations == ("movie",)
    service.close()


def test_keyed_mix_is_pruned_to_one_of_four_shards_with_identical_rows_and_dxi(
    gs_1000, gs_mix
):
    """Every query of the keyed mix routes to one partition; with the full
    fan-out union added, rows and Dξ equal ``shards=1`` on the pristine, the
    written and the restored state."""
    q0 = gs.query_q0()
    reference, sharded = _service(gs_1000, shards=1), _service(gs_1000, shards=4)
    keyed = _observed(sharded, gs_mix)
    assert (sum(len(r) for r, _ in keyed), sum(f for _, f in keyed)) == (24, 288)
    assert sharded.explain(q0).shard_set.single_shard
    assert sharded.query(q0).shards_touched == (3,)
    stats = sharded.stats.snapshot()
    assert (stats.single_shard_queries, stats.fanout_queries) == (13, 0)
    assert stats.shards_pruned == 13 * 3

    mix = gs_mix + [_fanout_query(gs_1000.database)]
    assert sharded.query(mix[-1]).shards_touched == (0, 1, 2, 3)
    pristine = _observed(sharded, mix)
    assert pristine == _observed(reference, mix) and pristine[:-1] == keyed
    sharded.apply(_WRITE)
    written = _observed(sharded, mix)
    assert written == _observed(reference, mix) and written[-1] != pristine[-1]
    sharded.apply(_WRITE.inverted())
    assert _observed(sharded, mix) == _observed(reference, mix) == pristine
    assert sharded.stats.snapshot().fanout_queries == 4
    reference.close()
    sharded.close()


def test_query_many_reads_one_version_across_partitions_under_a_concurrent_writer(
    gs_1000, gs_mix
):
    """Four pool workers answer fan-out and pruned queries while a writer
    thread keeps applying a batch and its inverse: no error, every answer is
    the pristine or the written version whole (never a movie partition of one
    and a rating partition of the other), and the settled state is bit-identical."""
    service = _service(gs_1000, shards=4)
    mix = [_fanout_query(gs_1000.database)] * 12 + gs_mix
    pristine = _observed(service, mix)
    service.apply(_WRITE)
    written = _observed(service, mix)
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

    writer = threading.Thread(target=write)
    writer.start()
    try:
        bursts = [service.query_many(mix, max_workers=4) for _ in range(6)]
    finally:
        done.set()
        writer.join()
    assert not errors, errors
    for answers in bursts:
        for answer, old, new in zip(answers, pristine, written):
            assert (answer.rows, answer.tuples_fetched) in (old, new)
    assert service.stats.snapshot().fanout_queries > 0
    assert _observed(service, mix) == pristine
    service.close()


def test_unsharded_and_single_shard_answers_report_no_fanout(instance):
    service = _service(instance, shards=1)
    answer = service.query(gs.query_q0())
    assert answer.shards_total == 1
    assert answer.shards_touched == ()  # nothing is partitioned at N=1


# --------------------------------------------------------------------------- #
# The persistent worker pool
# --------------------------------------------------------------------------- #


def test_query_many_matches_serial_and_reuses_the_pool(instance):
    queries = _workload(instance)[:24]
    serial = _service(instance, shards=4)
    parallel = _service(instance, shards=4)
    expected = [serial.query(q) for q in queries]
    answers = parallel.query_many(queries, max_workers=4)
    assert [a.rows for a in answers] == [a.rows for a in expected]
    assert [a.tuples_fetched for a in answers] == [a.tuples_fetched for a in expected]
    pool = parallel._shard_executor
    assert pool is not None and pool.started
    parallel.query_many(queries, max_workers=4)
    assert parallel._shard_executor is pool  # persistent, not per-call
    parallel.close()
    assert parallel._shard_executor is None


def test_query_many_pool_grows_but_never_shrinks(instance):
    service = _service(instance, shards=4)
    queries = _workload(instance)[:8]
    service.query_many(queries, max_workers=2)
    first = service._shard_executor
    assert first is not None and first.max_workers == 2
    service.query_many(queries, max_workers=3)
    second = service._shard_executor
    assert second is not first and second.max_workers == 3
    service.query_many(queries, max_workers=2)
    assert service._shard_executor is second
    service.close()


def test_query_many_on_single_partition_service_uses_persistent_pool(instance):
    service = _service(instance, shards=1)
    queries = _workload(instance)[:8]
    expected = [service.query(q).rows for q in queries]
    assert [a.rows for a in service.query_many(queries, max_workers=4)] == expected
    assert service._shard_executor is not None
    service.close()


def test_shard_executor_affinity_preserves_order_and_propagates_errors():
    executor = ShardExecutor(3)
    tasks = [lambda i=i: i * i for i in range(10)]
    affinities = [0, 1, None, 0, 2, None, 1, 0, None, 2]
    assert executor.map_with_affinity(tasks, affinities) == [i * i for i in range(10)]

    def boom() -> int:
        raise RuntimeError("shard task failed")

    with pytest.raises(RuntimeError, match="shard task failed"):
        executor.map_with_affinity([tasks[0], boom], [0, 0])
    with pytest.raises(ValueError):
        executor.map_with_affinity(tasks, affinities[:-1])
    executor.shutdown()
    assert not executor.started


def test_context_manager_closes_the_service(instance):
    with _service(instance, shards=2) as service:
        service.query_many(_workload(instance)[:4], max_workers=2)
        assert service._shard_executor is not None
    assert service._shard_executor is None


# --------------------------------------------------------------------------- #
# Plan retention across writes
# --------------------------------------------------------------------------- #


def test_plans_stay_cached_and_compiled_across_a_foreign_write(instance):
    q0 = gs.query_q0()
    writer = _service(instance, shards=4)
    observer = _service(instance, shards=4, codegen_warmup=1)
    for _ in range(2):
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
        assert len(answer.shards_touched) == 1  # still single-shard routed
        with _service(instance, shards=4, codegen=False) as fresh:
            expected = fresh.query(q0)
        assert not expected.cache_hit
        assert answer.rows == expected.rows
        assert answer.tuples_fetched == expected.tuples_fetched
    finally:
        writer.apply(
            UpdateBatch([Deletion("movie", row), Deletion("rating", rating)])
        )
        writer.close()
        observer.close()
