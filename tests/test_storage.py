"""Unit tests for the storage layer: instances, indices, statistics."""

import pytest

from repro.algebra.schema import schema_from_spec
from repro.core.access import AccessConstraint, AccessSchema
from repro.errors import AccessConstraintError, SchemaError
from repro.storage.generators import rng, zipf_index
from repro.storage.indexes import IndexSet
from repro.storage.instance import Database, Relation
from repro.storage.statistics import (
    constraint_bound,
    discover_access_constraints,
    verify_expected_schema,
)


@pytest.fixture
def schema():
    return schema_from_spec({"R": ("a", "b", "c"), "S": ("x",)})


@pytest.fixture
def database(schema):
    db = Database(schema)
    db.add_many("R", [(1, 10, "u"), (1, 11, "v"), (2, 20, "u"), (2, 20, "w")])
    db.add("S", ("only",))
    return db


def test_relation_arity_check(schema):
    relation = Relation(schema.relation("S"))
    relation.add(("ok",))
    with pytest.raises(SchemaError):
        relation.add(("too", "long"))
    assert len(relation) == 1
    assert ("ok",) in relation


def test_database_population_and_sizes(database):
    assert database.size == 5
    assert database.relation_sizes() == {"R": 4, "S": 1}
    assert database.relation("R").project(("a",)) == {(1,), (2,)}
    with pytest.raises(SchemaError):
        database.add("T", (1,))


def test_database_facts_and_active_domain(database):
    facts = database.facts
    assert facts["S"] == {("only",)}
    assert {1, 2, "u", "only"} <= database.active_domain()


def test_database_copy_is_independent(database):
    clone = database.copy()
    clone.add("S", ("second",))
    assert database.relation_sizes()["S"] == 1
    assert clone.relation_sizes()["S"] == 2


def test_satisfaction_of_access_schema(database):
    ok = AccessSchema([AccessConstraint("R", ("a",), ("b",), 2)])
    assert database.satisfies(ok)
    tight = AccessSchema([AccessConstraint("R", ("a",), ("b",), 1)])
    assert not database.satisfies(tight)
    assert database.violations(tight)


def test_duplicate_tuples_are_set_semantics(schema):
    db = Database(schema)
    db.add("S", ("v",))
    db.add("S", ("v",))
    assert db.size == 1


def _index_version(database, constraint):
    """The constraint's index: its version in a freshly built snapshot."""
    manager = database.enable_snapshots(AccessSchema([constraint]))
    return manager.current.index_for(constraint)


def test_constraint_index_version_lookup(database):
    constraint = AccessConstraint("R", ("a",), ("b",), 2)
    index = _index_version(database, constraint)
    assert index.lookup((1,)) == {(1, 10), (1, 11)}
    assert index.lookup((99,)) == frozenset()
    assert max(len(bucket) for bucket in index.buckets.values()) == 2
    assert constraint.output_attributes == ("a", "b")
    # Admission reads the raw bucket: projection -> supporting-row count.
    assert index.bucket((2,)) == {(2, 20): 2}
    assert index.bucket((99,)) == {}


def test_constraint_index_version_with_empty_key(database):
    constraint = AccessConstraint("S", (), ("x",), 5)
    assert _index_version(database, constraint).lookup(()) == {("only",)}


def test_index_set_fetch_and_unknown_constraint(database):
    access = AccessSchema([AccessConstraint("R", ("a",), ("b",), 2)])
    indexes = IndexSet(database, access)
    constraint = access.constraints[0]
    assert indexes.fetch(constraint, (2,)) == {(2, 20)}
    other = AccessConstraint("R", ("b",), ("c",), 5)
    with pytest.raises(AccessConstraintError):
        indexes.fetch(other, (10,))


def test_index_set_validates_constraints_against_schema(database):
    bad = AccessSchema([AccessConstraint("R", ("missing",), ("b",), 1)])
    with pytest.raises(AccessConstraintError):
        IndexSet(database, bad)


def test_constraint_bound_measures_tight_bound(database):
    assert constraint_bound(database, "R", ("a",), ("b",)) == 2
    assert constraint_bound(database, "R", ("a", "b"), ("c",)) == 2  # (2,20) -> u,w
    assert constraint_bound(database, "S", (), ("x",)) == 1


def test_discover_access_constraints(database):
    discovered = discover_access_constraints(database, max_x_size=1, max_bound=10)
    as_set = {(c.relation, c.x, c.y, c.bound) for c in discovered}
    assert ("R", ("a",), ("b",), 2) in as_set
    assert ("S", (), ("x",), 1) in as_set
    # Every discovered constraint is actually satisfied by the data.
    assert database.satisfies(discovered)


def test_verify_expected_schema(database):
    access = AccessSchema([AccessConstraint("R", ("a",), ("b",), 5)])
    measured = verify_expected_schema(database, access)
    assert list(measured.values()) == [2]


def _zipf_index_reference(generator, n, skew):
    """The per-sample weight loop ``zipf_index`` replaced, kept as the oracle."""
    if n <= 1:
        return 0
    weights = [1.0 / ((i + 1) ** skew) for i in range(n)]
    target = generator.random() * sum(weights)
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if cumulative >= target:
            return index
    return n - 1


@pytest.mark.parametrize("skew", [1.0, 1.1, 1.2])
@pytest.mark.parametrize("n", [1, 2, 7, 120, 1500])
def test_zipf_index_is_bit_identical_to_the_weight_loop(n, skew):
    fast, slow = rng(n), rng(n)
    assert [zipf_index(fast, n, skew) for _ in range(300)] == [
        _zipf_index_reference(slow, n, skew) for _ in range(300)
    ]
