"""Differential tests: the set-at-a-time write path equals the ordered replay.

``Database.apply`` nets each relation's batch at once and checks admission
per ``(constraint, key)``; only rows named more than once and keys within
reach of their bound replay update by update.  Its contract is still the
ordered one: updates apply in order with set semantics, and each insertion is
admitted against the running state.  :func:`_reference` below is that
contract, one update at a time, over plain Python sets; every test compares
the real write path against it (or against the same batch applied one
update per transaction).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algebra.evaluation import evaluate_ucq
from repro.algebra.parser import parse_cq
from repro.algebra.schema import schema_from_spec
from repro.algebra.views import View, ViewSet
from repro.core.access import AccessConstraint, AccessSchema
from repro.engine.service import QueryService
from repro.errors import SchemaError
from repro.storage.instance import Database
from repro.storage.snapshots import SnapshotManager
from repro.storage.statistics import relation_statistics
from repro.storage.updates import Deletion, Insertion, UpdateBatch

from conftest import folded_statistics, scanned_statistics

SCHEMA = schema_from_spec(
    {
        "rating": ("mid", "rank"),
        "like": ("pid", "mid"),
        "movie": ("mid", "studio"),
        "tag": ("t",),
    }
)
ACCESS = AccessSchema(
    [
        AccessConstraint("rating", ("mid",), ("rank",), 1),
        # Two constraints on one relation: a skipped insertion couples keys.
        AccessConstraint("like", ("pid",), ("mid",), 2),
        AccessConstraint("like", ("mid",), ("pid",), 2),
        AccessConstraint("movie", ("studio",), ("mid",), 3),
    ]
)
VIEWS = ViewSet(
    (
        View("VR", parse_cq("VR(m, r) :- movie(m, s), rating(m, r)")),
        View("VL", parse_cq("VL(p, s) :- like(p, m), movie(m, s)")),
    )
)

# Small domains, so rows repeat and keys reach their bounds.
_ROWS = {
    "rating": st.tuples(st.integers(0, 4), st.integers(0, 2)),
    "like": st.tuples(st.integers(0, 3), st.integers(0, 4)),
    "movie": st.tuples(st.integers(0, 5), st.sampled_from("ab")),
    "tag": st.tuples(st.integers(0, 3)),
}
_INITIAL = st.fixed_dictionaries(
    {name: st.sets(rows, max_size=8) for name, rows in _ROWS.items()}
)
_UPDATES = st.lists(
    st.one_of(
        *(st.tuples(st.just(name), st.booleans(), rows) for name, rows in _ROWS.items())
    ),
    max_size=40,
)


def _batch(updates) -> list:
    return [
        (Insertion if insert else Deletion)(name, row) for name, insert, row in updates
    ]


def _admissible(rows, row, relation) -> bool:
    """Would ``row`` keep every constraint on its relation, given ``rows``?"""
    schema = SCHEMA.relation(relation)
    for constraint in ACCESS.for_relation(relation):
        x, y = schema.positions(constraint.x), schema.positions(constraint.y)
        key = tuple(row[p] for p in x)
        values = {tuple(t[p] for p in y) for t in rows if tuple(t[p] for p in x) == key}
        values.add(tuple(row[p] for p in y))
        if len(values) > constraint.bound:
            return False
    return True


def _reference(initial, batch, bounded: bool):
    """``Database.apply``'s ordered semantics, one update at a time."""
    pre = {name: frozenset(initial.get(name, ())) for name in SCHEMA.names}
    state = {name: set(rows) for name, rows in pre.items()}
    first: dict[str, int] = {}
    counts = Counter(inserted=0, deleted=0, skipped=0)
    for position, update in enumerate(batch):
        name, row = update.relation, update.row
        if bounded and update.is_insertion and not _admissible(state[name], row, name):
            counts["skipped"] += 1
            continue
        if update.is_insertion == (row in state[name]):
            continue  # set semantics: a no-op
        if update.is_insertion:
            state[name].add(row)
            counts["inserted"] += 1
        else:
            state[name].discard(row)
            counts["deleted"] += 1
        first.setdefault(name, position)
    net = {name: (state[name] - pre[name], pre[name] - state[name]) for name in state}
    order = tuple(n for n in sorted(first, key=first.get) if any(net[n]))
    return state, net, order, counts


def _fold(database: Database) -> None:
    for name in SCHEMA.names:
        folded_statistics(database.relation(name))


def _database(initial) -> tuple[Database, SnapshotManager]:
    database = Database(SCHEMA, initial)
    manager = database.enable_snapshots(ACCESS)
    database.statistics()  # statistics live before the writes
    return database, manager


def _assert_matches_reference(database, manager, stream, reference) -> None:
    state, net, order, counts = reference
    for name in SCHEMA.names:
        assert set(stream.inserted(name)) == net[name][0], name
        assert set(stream.deleted(name)) == net[name][1], name
    assert stream.relations == order
    assert (
        stream.applied_insertions,
        stream.applied_deletions,
        stream.skipped_inadmissible,
    ) == (counts["inserted"], counts["deleted"], counts["skipped"])
    assert database.facts == {name: frozenset(rows) for name, rows in state.items()}
    published, fresh = manager.current, SnapshotManager(database, None, ACCESS).current
    assert published.facts == fresh.facts
    for constraint in ACCESS:
        left, right = published.index_for(constraint), fresh.index_for(constraint)
        assert left.buckets == right.buckets, constraint


_EMPTY = {name: set() for name in _ROWS}


@settings(max_examples=80, deadline=None)
@given(initial=_INITIAL, updates=_UPDATES, bounded=st.booleans())
@example(
    initial=_EMPTY,
    updates=[
        # insert -> delete -> insert of one row, and a bound-1 key taken twice
        ("rating", True, (1, 1)),
        ("rating", False, (1, 1)),
        ("rating", True, (1, 1)),
        ("rating", True, (1, 2)),  # bound 1: mid 1 already has rank 1
        ("tag", True, (0,)),
        ("tag", False, (0,)),
    ],
    bounded=True,
)
@example(
    initial={**_EMPTY, "like": {(0, 0), (0, 1)}},
    updates=[
        ("like", True, (0, 2)),  # pid 0 at its bound: skipped ...
        ("like", True, (1, 2)),  # ... so mid 2 still has room here
        ("like", False, (0, 0)),
        ("like", True, (0, 3)),  # room again for pid 0
        ("movie", False, (9, "a")),  # a no-op: movie is never touched
    ],
    bounded=True,
)
@example(
    initial={**_EMPTY, "movie": {(0, "a")}},
    # movie's first update is a no-op, so tag is touched first
    updates=[("movie", False, (5, "b")), ("tag", True, (1,)), ("movie", True, (1, "a"))],
    bounded=False,
)
def test_set_path_equals_the_ordered_replay(initial, updates, bounded):
    """Net sets, first-touch order, counts, rows, snapshot indexes and
    folded statistics all equal the per-update reference."""
    batch = _batch(updates)
    reference = _reference(initial, batch, bounded)

    database, manager = _database(initial)
    admit = manager.admits if bounded else None
    stream = database.apply(batch, admit=admit)
    _assert_matches_reference(database, manager, stream, reference)

    # Statistics: one fold after the batch equals folding after each update
    # applied as its own transaction, and a fresh scan — rows the batch
    # inserted and deleted again change no count.
    replayed, replayed_manager = _database(initial)
    for update in batch:
        replayed.apply([update], admit=replayed_manager.admits if bounded else None)
        _fold(replayed)
    for name in SCHEMA.names:
        left, right = database.relation(name), replayed.relation(name)
        state = folded_statistics(left)
        assert state == folded_statistics(right) == scanned_statistics(left), name
        assert left.statistics() == right.statistics() == relation_statistics(left)


@settings(max_examples=40, deadline=None)
@given(initial=_INITIAL, updates=_UPDATES)
def test_a_foreign_admit_is_called_once_per_update_in_order(initial, updates):
    """Any predicate other than a registered manager's ``admits`` replays
    the batch in order: one call per update, against the running state."""
    batch = _batch(updates)
    database, manager = _database(initial)
    calls = []

    def admit(update):
        calls.append(update)
        return manager.admits(update)

    stream = database.apply(batch, admit=admit)
    assert calls == batch
    reference = _reference(initial, batch, True)
    _assert_matches_reference(database, manager, stream, reference)


@pytest.mark.parametrize(
    "malformed", [Insertion("rating", (1, 2, 3)), Deletion("nope", (1,))]
)
def test_a_malformed_update_at_the_end_leaves_everything_all_pre(malformed):
    initial = {"rating": {(0, 1)}, "like": {(0, 0)}, "movie": {(0, "a")}, "tag": set()}
    database, manager = _database(initial)
    facts, version = database.facts, manager.current
    statistics = {name: database.relation(name).statistics() for name in SCHEMA.names}
    notified = []

    class Observer:
        def on_delta(self, stream):
            notified.append(stream)

    observer = Observer()
    database.subscribe(observer)
    batch = _batch(
        [("rating", True, (1, 1)), ("like", False, (0, 0)), ("tag", True, (2,))]
    ) + [malformed]
    for admit in (manager.admits, None, lambda update: True):
        with pytest.raises(SchemaError):
            database.apply(batch, admit=admit)
        assert database.facts == facts
        assert manager.current is version
        assert manager._overlay is None
        assert not notified
        for name in SCHEMA.names:
            assert database.relation(name).statistics() is statistics[name]


def _satisfying(initial) -> dict[str, set[tuple]]:
    """``initial`` thinned greedily until it satisfies the access schema."""
    kept: dict[str, set[tuple]] = {}
    for name, rows in initial.items():
        kept[name] = set()
        for row in sorted(rows, key=repr):
            if _admissible(kept[name], row, name):
                kept[name].add(row)
    return kept


@settings(max_examples=30, deadline=None)
@given(initial=_INITIAL, updates=_UPDATES)
def test_views_equal_recomputation_after_a_service_apply(initial, updates):
    initial = _satisfying(initial)
    batch = _batch(updates)
    _, _, _, counts = _reference(initial, batch, True)
    database = Database(SCHEMA, initial)
    service = QueryService(database, ACCESS, VIEWS)
    report = service.apply(UpdateBatch(batch))
    assert (report.inserted, report.deleted, report.skipped_inadmissible) == (
        counts["inserted"],
        counts["deleted"],
        counts["skipped"],
    )
    assert database.satisfies(ACCESS)
    assert service.maintainer.verify()
    for view in VIEWS:
        expected = evaluate_ucq(view.as_ucq(), database.facts)
        assert service.view_cache[view.name] == expected
