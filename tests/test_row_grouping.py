"""One C-keyed grouping pass builds every index over a row set, and the
service reads ``D |= A`` off the constraint indexes it builds anyway.

The reference implementations below are the per-row builds the helpers of
:mod:`repro.algebra.rows` replaced (a ``tuple(row[p] for p in …)`` key per
row); the properties pin the new builds to them — contents, support counts
and insertion order alike.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.rows import count_projections, group_rows, projections, row_getter
from repro.algebra.schema import schema_from_spec
from repro.core.access import AccessConstraint, AccessSchema
from repro.engine.service import QueryService
from repro.errors import EvaluationError
from repro.exec.cq_compiler import FactsSource
from repro.storage.instance import Database
from repro.storage.snapshots import ConstraintIndexVersion, RelationVersion, SnapshotManager
from repro.storage.updates import Deletion, Insertion, _RunningBuckets, random_update_batch
from repro.workloads import graph_search as gs

ATTRIBUTES = ("a", "b", "c", "d")


# --------------------------------------------------------------------------- #
# The per-row builds, as they were
# --------------------------------------------------------------------------- #


def reference_build(rows, x_positions, out_positions):
    buckets = {}
    for row in rows:
        key = tuple(row[p] for p in x_positions)
        value = tuple(row[p] for p in out_positions)
        counts = buckets.setdefault(key, {})
        counts[value] = counts.get(value, 0) + 1
    return buckets


def reference_violations(constraint, rows, x_positions, y_positions):
    groups = {}
    for row in rows:
        key = tuple(row[p] for p in x_positions)
        groups.setdefault(key, set()).add(tuple(row[p] for p in y_positions))
    return [
        f"{constraint.relation}: X={key} has {len(values)} distinct Y-values, "
        f"bound is {constraint.bound}"
        for key, values in groups.items()
        if len(values) > constraint.bound
    ]


def reference_index(rows, positions):
    index = {}
    for row in rows:
        index.setdefault(tuple(row[p] for p in positions), []).append(row)
    return index


def ordered(buckets):
    """Buckets with their insertion order made part of equality."""
    return [(key, list(counts.items())) for key, counts in buckets.items()]


# --------------------------------------------------------------------------- #
# Strategies: relations of arity 1-4 over few values, constraints with empty,
# one-position and multi-position X, Y overlapping X or not
# --------------------------------------------------------------------------- #


@st.composite
def relations(draw):
    arity = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(0, 3) for _ in range(arity)]), max_size=30
        )
    )
    return ATTRIBUTES[:arity], rows


@st.composite
def constrained_relations(draw):
    attributes, rows = draw(relations())
    x = draw(st.lists(st.sampled_from(attributes), unique=True, max_size=len(attributes)))
    y = draw(st.lists(st.sampled_from(attributes), unique=True, max_size=len(attributes)))
    bound = draw(st.integers(1, 3))
    schema = schema_from_spec({"R": attributes})
    return schema, AccessConstraint("R", x, y, bound), rows


def position_lists(arity):
    return st.lists(st.integers(0, arity - 1), max_size=3)


# --------------------------------------------------------------------------- #
# Properties against the per-row builds
# --------------------------------------------------------------------------- #


@settings(max_examples=150, deadline=None)
@given(constrained_relations())
def test_the_constraint_index_equals_the_per_row_build(case):
    schema, constraint, rows = case
    relation = schema.relation("R")
    built = ConstraintIndexVersion.build(constraint, schema, rows).buckets
    expected = reference_build(
        rows,
        relation.positions(constraint.x),
        relation.positions(constraint.output_attributes),
    )
    assert ordered(built) == ordered(expected)


@settings(max_examples=150, deadline=None)
@given(constrained_relations())
def test_the_bucket_verdict_equals_the_facts_verdict(case):
    schema, constraint, rows = case
    relation = schema.relation("R")
    expected = reference_violations(
        constraint, rows, relation.positions(constraint.x), relation.positions(constraint.y)
    )
    buckets = ConstraintIndexVersion.build(constraint, schema, rows).buckets
    assert list(constraint.violations_in(buckets)) == expected
    assert list(constraint.violations({"R": rows}, schema)) == expected
    assert constraint.satisfied_by({"R": rows}, schema) == (not expected)


@settings(max_examples=150, deadline=None)
@given(relations(), st.data())
def test_every_secondary_index_equals_the_per_row_grouping(case, data):
    attributes, rows = case
    positions = tuple(data.draw(position_lists(len(attributes))))
    expected = reference_index(rows, positions)
    assert list(group_rows(rows, positions).items()) == list(expected.items())
    assert list(projections(rows, positions)) == list(map(row_getter(positions), rows))
    assert list(map(row_getter(positions), rows)) == [
        tuple(row[p] for p in positions) for row in rows
    ]

    database = Database(schema_from_spec({"R": attributes}), {"R": rows})
    stored = database.relation("R")
    live_order = reference_index(stored._tuples, positions)
    assert list(stored.index_on(positions).items()) == list(live_order.items())
    version = RelationVersion(stored.tuples)
    assert list(version.index_on(positions).items()) == list(
        reference_index(version.rows, positions).items()
    )
    assert list(
        FactsSource({"R": rows}).index("R", positions, len(attributes)).items()
    ) == list(expected.items())
    assert stored.project(attributes[p] for p in positions) == set(
        reference_index(stored._tuples, positions)
    )


@settings(max_examples=100, deadline=None)
@given(constrained_relations(), st.lists(st.tuples(st.booleans(), st.integers(0, 29))))
def test_running_buckets_admit_what_a_scan_of_the_running_state_admits(case, moves):
    """The update generator's running buckets decide a candidate insertion
    as a scan of the whole running state did, after any moves."""
    schema, constraint, rows = case
    relation = schema.relation("R")
    x_positions = relation.positions(constraint.x)
    y_positions = relation.positions(constraint.y)
    state = set(rows)
    running = _RunningBuckets(constraint, relation, state)
    for insert, index in moves:
        if not rows:
            break
        row = rows[index % len(rows)]
        if insert and row not in state:
            state.add(row)
            running.move(row, 1)
        elif not insert and row in state:
            state.discard(row)
            running.move(row, -1)
        for candidate in rows:
            key = tuple(candidate[p] for p in x_positions)
            values = {
                tuple(r[p] for p in y_positions)
                for r in state
                if tuple(r[p] for p in x_positions) == key
            }
            values.add(tuple(candidate[p] for p in y_positions))
            assert running.admits(candidate) == (len(values) <= constraint.bound)


def test_count_projections_keeps_support_counts():
    rows = [(1, "x"), (1, "y"), (1, "x"), (2, "x")]
    assert ordered(count_projections(rows, (0,), (1,))) == [
        ((1,), [(("x",), 2), (("y",), 1)]),
        ((2,), [(("x",), 1)]),
    ]
    assert ordered(count_projections(rows, (), (0,))) == [((), [((1,), 3), ((2,), 1)])]


# --------------------------------------------------------------------------- #
# D |= A at construction
# --------------------------------------------------------------------------- #

SCHEMA = schema_from_spec({"R": ("a", "b")})
PAIRS = AccessSchema([AccessConstraint("R", ("a",), ("b",), 2)])
SINGLE = AccessSchema([AccessConstraint("R", ("a",), ("b",), 1)])


def test_a_bucket_of_exactly_n_passes_and_one_of_n_plus_one_fails():
    database = Database(SCHEMA, {"R": {(1, 1), (1, 2), (2, 1)}})
    assert database.satisfies(PAIRS)
    QueryService(database, PAIRS)

    database = Database(SCHEMA, {"R": {(1, 1), (1, 2), (1, 3), (2, 1)}})
    assert not database.satisfies(PAIRS)
    assert database.violations(PAIRS) == ["R: X=(1,) has 3 distinct Y-values, bound is 2"]
    with pytest.raises(EvaluationError) as refused:
        QueryService(database, PAIRS)
    assert str(refused.value) == (
        "database does not satisfy the access schema: "
        "R: X=(1,) has 3 distinct Y-values, bound is 2"
    )


def test_a_refused_database_names_its_first_five_violations_as_before():
    rows = {(key, value) for key in range(7) for value in range(2)}
    database = Database(SCHEMA, {"R": rows})
    expected = reference_violations(
        SINGLE.constraints[0], database.relation("R").tuples, (0,), (1,)
    )
    assert len(expected) == 7
    assert database.violations(SINGLE) == expected
    with pytest.raises(EvaluationError) as refused:
        QueryService(database, SINGLE)
    assert str(refused.value) == (
        "database does not satisfy the access schema: " + "; ".join(expected[:5])
    )


def test_a_refused_construction_leaves_no_manager_behind(monkeypatch):
    database = Database(SCHEMA, {"R": {(1, 1), (1, 2), (1, 3)}})
    with pytest.raises(EvaluationError) as refused:
        QueryService(database, PAIRS)
    # The held traceback keeps the half-built service, and so its manager,
    # alive: only the explicit deregistration takes it off the database.
    assert refused.traceback
    assert database._managers() == []

    advanced = []
    original = SnapshotManager.advance
    monkeypatch.setattr(
        SnapshotManager,
        "advance",
        lambda self, stream: advanced.append(self) or original(self, stream),
    )
    database.apply([Deletion("R", (1, 3))])
    assert advanced == []

    service = QueryService(database, PAIRS)
    assert len(database._managers()) == 1
    assert service.query("Q(y) :- R(1, y)").rows == {(1,), (2,)}
    database.apply([Insertion("R", (2, 5))])
    assert len(advanced) == 1


def test_the_constructor_does_not_regroup_the_data(monkeypatch):
    """``D |= A`` is read off the version-0 index buckets: the facts-based
    check is never called."""

    def regroup(self, facts, schema):
        raise AssertionError("the constructor grouped the data a second time")

    monkeypatch.setattr(AccessConstraint, "violations", regroup)
    database = Database(SCHEMA, {"R": {(1, 1), (1, 2), (2, 1)}})
    QueryService(database, PAIRS)
    with pytest.raises(EvaluationError):
        QueryService(Database(SCHEMA, {"R": {(1, 1), (1, 2), (1, 3)}}), PAIRS)


def test_check_constraints_false_only_skips_the_check():
    database = Database(SCHEMA, {"R": {(1, 1), (1, 2), (1, 3)}})
    service = QueryService(database, PAIRS, check_constraints=False)
    assert len(database._managers()) == 1
    assert service.query("Q(y) :- R(1, y)").rows == {(1,), (2,), (3,)}


# --------------------------------------------------------------------------- #
# Held statistics and the update generator
# --------------------------------------------------------------------------- #


def test_held_statistics_do_not_change_under_their_holder():
    relation = Database(SCHEMA, {"R": {(1, 1), (1, 2), (2, 3)}}).relation("R")
    held = relation.statistics()
    column = held.columns[0]
    before = (column.distinct, column.estimate_eq(1), column.total, column.square_sum)
    assert before == (2, 2.0, 3, 5)

    relation.add((3, 4))
    relation.add((1, 5))
    fresh = relation.statistics()
    assert (fresh.columns[0].distinct, fresh.columns[0].estimate_eq(1)) == (3, 3.0)
    assert fresh.distinct == (3, 5)
    assert (column.distinct, column.estimate_eq(1), column.total, column.square_sum) == before
    assert column.estimate_eq(3) == column.average_bucket() == 1.5
    assert held.distinct == (2, 3)


@pytest.mark.parametrize(
    ("seed", "ratio", "digest"),
    [
        (11, 0.8, "6440430a90ea0c8db7a51e6c2228a17d04879ee13193b449a35ab872e6b77f97"),
        (12, 0.5, "796b234d2a3db84bafa02731632b7aad2a0dd71c0f1127b75b24a537f304b144"),
    ],
)
def test_update_draws_are_unchanged_by_the_running_buckets(seed, ratio, digest):
    """The generator's draws are pinned to what it drew while it still
    scanned the running state per candidate insertion."""
    database = gs.generate(num_persons=200, num_movies=100, seed=seed).database
    batch = random_update_batch(
        database, 300, insert_ratio=ratio, seed=seed, access_schema=gs.access_schema()
    )
    text = "\n".join(map(str, batch))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    after = database.copy()
    batch.apply_to(after)
    assert after.satisfies(gs.access_schema())
