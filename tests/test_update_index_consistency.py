"""Property-style tests: deltas keep every derived structure consistent.

After applying a random update batch through the storage layer, the
incrementally maintained structures must agree with from-scratch rebuilds:

* the access-constraint index — the snapshot version, advanced from the
  overlay staged during each transaction — vs. a snapshot freshly built
  from the post-update database, bucket for bucket and support count for
  support count;
* the relations' cached secondary hash indexes vs. freshly built ones;
* the cached ``Relation.tuples`` frozen view and per-relation statistics vs.
  recomputation;
* maintained views (compiled delta plans consuming the transaction's
  :class:`~repro.storage.deltas.DeltaStream`) vs. full re-evaluation — for
  counting-mode views including the derivation *counts*, and for the DRed
  fallback paths (self-joins, unions).
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algebra.parser import parse_cq, parse_ucq
from repro.algebra.views import View, ViewSet
from repro.engine.service.maintenance import ViewMaintainer
from repro.storage.indexes import IndexSet
from repro.storage.instance import Database
from repro.storage.snapshots import SnapshotManager
from repro.storage.statistics import (
    discover_access_constraints,
    relation_statistics,
)
from repro.storage.updates import UpdateBatch, random_update_batch
from repro.workloads import cdr, graph_search as gs, skewed


def _fresh_copy(database: Database) -> Database:
    return Database.from_facts(database.schema, database.facts)


def _assert_index_versions_agree(maintained, database, access) -> None:
    """``maintained`` (a published snapshot) equals a fresh build of every
    index: same buckets, same supporting-row counts, same lookups."""
    fresh = SnapshotManager(database, None, access).current
    for constraint in access:
        left = maintained.index_for(constraint)
        right = fresh.index_for(constraint)
        assert left.buckets == right.buckets, constraint
        for key in left.buckets:
            assert left.lookup(key) == right.lookup(key), (constraint, key)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_access_indexes_track_applied_deltas(seed):
    instance = gs.generate(num_persons=120, num_movies=80, seed=seed)
    database = instance.database
    access = gs.access_schema(n0=instance.n0, with_like_key=True)
    # Built BEFORE the updates; every apply advances it from its overlay.
    manager = database.enable_snapshots(access)

    batch = random_update_batch(
        database, size=60, seed=seed, access_schema=access, insert_ratio=0.6
    )
    inserted, deleted = batch.apply_to(database)
    assert inserted + deleted > 0

    _assert_index_versions_agree(manager.current, database, access)

    # Undo the batch: the maintained indexes must roll back too.
    batch.inverted().apply_to(database)
    _assert_index_versions_agree(manager.current, database, access)


WORKLOADS = {
    # two-attribute keys, three constraints on one relation
    "cdr": lambda seed: (
        cdr.generate(num_customers=60, num_days=3, seed=seed).database,
        cdr.access_schema(),
    ),
    # one hot key holding most of the rows next to many cold ones
    "skewed": lambda seed: (
        skewed.generate(hot_fans=100, users=600, seed=seed).database,
        skewed.access_schema(),
    ),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_access_indexes_track_applied_deltas_on_other_workloads(workload, seed):
    database, access = WORKLOADS[workload](seed)
    manager = database.enable_snapshots(access)
    batch = random_update_batch(
        database, size=60, seed=seed, access_schema=access, insert_ratio=0.6
    )
    for step in (batch, batch.inverted()):
        inserted, deleted = step.apply_to(database)
        assert inserted + deleted > 0
        _assert_index_versions_agree(manager.current, database, access)


@pytest.mark.parametrize("seed", [2, 5])
def test_secondary_indexes_and_statistics_survive_deltas(seed):
    instance = gs.generate(num_persons=100, num_movies=60, seed=seed)
    database = instance.database

    # Warm a secondary index and the statistics on every relation.
    warmed = {
        name: database.relation(name).index_on((0,))
        for name in database.schema.names
    }
    for name in database.schema.names:
        database.relation(name).statistics()

    batch = random_update_batch(database, size=40, seed=seed)
    batch.apply_to(database)

    for name in database.schema.names:
        relation = database.relation(name)
        # Cached frozen view matches the live tuple set.
        assert relation.tuples == frozenset(iter(relation))
        # The warmed index was maintained in place, not rebuilt.
        assert database.relation(name).index_on((0,)) is warmed[name]
        fresh = {}
        for row in relation:
            fresh.setdefault((row[0],), set()).add(row)
        assert {k: set(v) for k, v in warmed[name].items()} == fresh
        # Statistics agree with a from-scratch single-pass recomputation.
        assert relation.statistics() == relation_statistics(
            _fresh_copy(database).relation(name)
        )


def _statistics_state(relation):
    """Value counts and every column's raw histogram, before any lazy rebuild
    (private fields on purpose: this exact state is what is compared)."""
    histograms = [
        (h._lows, h._highs, h._counts, h._distincts, h._total, h._distinct_total)
        for h in (column.histogram for column in relation._column_summaries)
    ]
    return relation._value_counts, histograms


_ROW = st.tuples(st.integers(0, 30), st.integers(0, 5))


@settings(max_examples=60, deadline=None)
@given(
    initial=st.sets(_ROW, max_size=30),
    updates=st.lists(
        st.tuples(st.booleans(), st.integers(0, 40), st.integers(0, 7)), max_size=40
    ),
)
# A row inserted and deleted inside one transaction, above the top bucket:
# netted away, yet a row-at-a-time replay widens the top edge.
@example(initial={(1, 1), (2, 2)}, updates=[(True, 99, 9), (False, 99, 9)])
# A value that leaves (its last row goes) and re-enters in the same batch.
@example(initial={(5, 1), (6, 1)}, updates=[(False, 5, 1), (True, 5, 2)])
# A value above the top bucket that stays.
@example(initial={(1, 1), (2, 2)}, updates=[(True, 200, 0)])
# An empty relation: the first insertion opens the first bucket.
@example(initial=set(), updates=[(True, 3, 3), (True, 4, 4), (False, 3, 3)])
def test_set_at_a_time_statistics_equal_the_per_row_replay(initial, updates):
    """One netted batch leaves value counts and histograms exactly where
    applying the same updates one transaction at a time does, so every
    estimate the planners read is identical."""
    from repro.algebra.schema import schema_from_spec
    from repro.storage.updates import Deletion, Insertion

    schema = schema_from_spec({"R": ("a", "b")})
    batched, replayed = Database(schema, {"R": initial}), Database(schema, {"R": initial})
    for database in (batched, replayed):
        database.relation("R").statistics()  # histograms live before the writes
    batch = [
        (Insertion if insert else Deletion)("R", (a, b)) for insert, a, b in updates
    ]
    batched.apply(batch)
    for update in batch:
        replayed.apply([update])

    left, right = batched.relation("R"), replayed.relation("R")
    assert left.tuples == right.tuples
    assert _statistics_state(left) == _statistics_state(right)
    left_stats, right_stats = left.statistics(), right.statistics()
    assert left_stats == right_stats == relation_statistics(left)
    for position in (0, 1):
        for value in range(-1, 205):
            probe = ((position,), {position: value})
            assert left_stats.estimated_matches_with(
                *probe
            ) == right_stats.estimated_matches_with(*probe)


def test_discovered_constraints_stay_indexable_under_updates():
    instance = gs.generate(num_persons=60, num_movies=40, seed=9)
    database = instance.database
    mined = discover_access_constraints(
        database, max_x_size=1, max_bound=200, relations=("rating", "movie")
    )
    assert len(tuple(mined)) > 0
    manager = database.enable_snapshots(mined)
    batch = random_update_batch(database, size=30, seed=9, access_schema=mined)
    batch.apply_to(database)
    _assert_index_versions_agree(manager.current, database, mined)


def test_access_index_does_not_memoise_missing_keys():
    from repro.algebra.schema import schema_from_spec
    from repro.core.access import AccessConstraint, AccessSchema

    schema = schema_from_spec({"R": ("a", "b")})
    database = Database(schema, {"R": [(1, 10)]})
    constraint = AccessConstraint("R", ("a",), ("b",), 5)
    indexes = IndexSet(database, AccessSchema([constraint]))
    index = indexes.index_for(constraint)
    for miss in range(1000):
        assert index.lookup((f"absent-{miss}",)) == frozenset()
    assert len(index._frozen) <= 1  # noqa: SLF001 - misses are not cached
    # A hit still memoises its frozen view.
    assert index.lookup((1,)) == {(1, 10)}
    assert (1,) in index._frozen  # noqa: SLF001


def test_inplace_set_operators_keep_caches_consistent():
    from repro.algebra.schema import schema_from_spec
    from repro.core.access import AccessConstraint, AccessSchema

    schema = schema_from_spec({"R": ("a", "b")})
    database = Database(schema, {"R": [(1, 10), (2, 20), (3, 30)]})
    relation = database.relation("R")
    constraint = AccessConstraint("R", ("a",), ("b",), 5)
    indexes = IndexSet(database, AccessSchema([constraint]))
    relation.index_on((0,))
    relation.statistics()

    relation._tuples -= {(2, 20)}  # noqa: SLF001 - in-place mutator bypass
    relation._tuples |= {(4, 40)}  # noqa: SLF001
    relation._tuples ^= {(4, 40), (5, 50)}  # noqa: SLF001 - drops 4, adds 5

    assert relation.tuples == {(1, 10), (3, 30), (5, 50)}
    assert indexes.fetch(constraint, (2,)) == frozenset()
    assert indexes.fetch(constraint, (5,)) == {(5, 50)}
    assert dict(relation.index_on((0,))) == {(1,): [(1, 10)], (3,): [(3, 30)], (5,): [(5, 50)]}
    assert relation.statistics() == relation_statistics(
        _fresh_copy(database).relation("R")
    )


def test_concurrent_queries_share_lazy_index_builds():
    """query_many-style read-only concurrency must not corrupt index caches."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.algebra.evaluation import evaluate_cq
    from repro.algebra.parser import parse_cq

    instance = gs.generate(num_persons=300, num_movies=150, seed=4)
    database = instance.database
    queries = [
        parse_cq("Q(mid) :- movie(mid, t, 'Universal', '2014'), rating(mid, 5)"),
        parse_cq("Q(mid) :- movie(mid, t, 'Sony', '2013'), rating(mid, 4)"),
        parse_cq("Q(p) :- person(p, n, 'NASA'), like(p, m, 'movie')"),
    ] * 8
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda q: evaluate_cq(q, database), queries))
    for query, rows in zip(queries, results):
        assert rows == evaluate_cq(query, database.facts), query.name


def test_random_batches_keep_maintained_views_row_identical():
    """Graph-search views (counting + DRed modes) vs. recomputation."""
    for seed in (3, 11, 19):
        instance = gs.generate(num_persons=120, num_movies=80, seed=seed)
        database = instance.database
        maintainer = ViewMaintainer(gs.views(), database, subscribe=True)
        assert maintainer.mode("V1") == "counting"  # no self-join, single CQ
        batch = random_update_batch(
            database, size=60, seed=seed, access_schema=gs.access_schema()
        )
        batch.apply_to(database)
        assert maintainer.verify(), seed  # rows AND derivation counts
        batch.inverted().apply_to(database)
        assert maintainer.verify(), seed  # rollback maintained too


def _edge_db(seed: int) -> Database:
    from repro.algebra.schema import schema_from_spec
    from repro.storage.generators import rng

    generator = rng(seed)
    schema = schema_from_spec({"E": ("src", "dst"), "L": ("node", "tag")})
    database = Database(schema)
    for _ in range(60):
        database.add("E", (generator.randint(0, 12), generator.randint(0, 12)))
    for node in range(0, 13, 2):
        database.add("L", (node, f"t{node % 3}"))
    return database


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_batches_keep_self_join_and_union_views_exact(seed):
    """Property: the DRed fallback (self-joins, unions) matches recomputation
    after any random batch, including multi-relation mixed batches."""
    database = _edge_db(seed)
    views = ViewSet(
        (
            View("P2", parse_cq("P2(x, z) :- E(x, y), E(y, z)")),  # self-join
            View(
                "VU",
                parse_ucq("V(x) :- E(x, y), L(y, t); V(x) :- L(x, t)"),  # union
            ),
            View("VC", parse_cq("VC(x, t) :- E(x, y), L(y, t)")),  # counting
        )
    )
    maintainer = ViewMaintainer(views, database, subscribe=True)
    assert maintainer.mode("P2") == "dred"
    assert maintainer.mode("VU") == "dred"
    assert maintainer.mode("VC") == "counting"
    batch = random_update_batch(database, size=24, seed=seed, insert_ratio=0.45)
    batch.apply_to(database)
    assert maintainer.verify()
    batch.inverted().apply_to(database)
    assert maintainer.verify()


def test_deletion_keeps_projection_while_supported():
    """A projection disappears only when its last supporting tuple does."""
    from repro.algebra.schema import schema_from_spec
    from repro.core.access import AccessConstraint, AccessSchema
    from repro.storage.updates import Deletion

    schema = schema_from_spec({"R": ("a", "b", "c")})
    database = Database(schema, {"R": [(1, 10, "u"), (1, 10, "v")]})
    constraint = AccessConstraint("R", ("a",), ("b",), 5)
    indexes = IndexSet(database, AccessSchema([constraint]))
    assert indexes.fetch(constraint, (1,)) == {(1, 10)}
    # Two base tuples support the projection (1, 10): deleting one keeps it.
    UpdateBatch([Deletion("R", (1, 10, "u"))]).apply_to(database)
    assert indexes.fetch(constraint, (1,)) == {(1, 10)}
    UpdateBatch([Deletion("R", (1, 10, "v"))]).apply_to(database)
    assert indexes.fetch(constraint, (1,)) == frozenset()
