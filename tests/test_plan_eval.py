"""Unit tests for plan execution and Dξ (fetched-tuple) accounting."""

import pytest

from repro.algebra.schema import schema_from_spec
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.plan_eval import PlanExecutor, execute_plan
from repro.core.plans import (
    AttributeEqualsAttribute,
    AttributeEqualsConstant,
    ConstantScan,
    DifferenceNode,
    FetchNode,
    ProductNode,
    ProjectNode,
    RenameNode,
    SelectNode,
    UnionNode,
    ViewScan,
)
from repro.errors import PlanError
from repro.storage.indexes import IndexSet
from repro.storage.instance import Database

SCHEMA = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
ACCESS = AccessSchema(
    (
        AccessConstraint("R", ("a",), ("b",), 2),
        AccessConstraint("S", ("b",), ("c",), 1),
        AccessConstraint("S", (), ("b", "c"), 10),
    )
)


@pytest.fixture
def database():
    db = Database(SCHEMA)
    db.add_many("R", [(1, 10), (1, 11), (2, 20), (3, 30)])
    db.add_many("S", [(10, "p"), (11, "q"), (20, "r"), (30, "s")])
    return db


@pytest.fixture
def executor(database):
    return PlanExecutor(SCHEMA, ACCESS, IndexSet(database, ACCESS), {"V": {(10,), (99,)}})


def test_constant_and_view_scans(executor):
    assert executor.execute(ConstantScan(5, "c")).rows == {(5,)}
    result = executor.execute(ViewScan("V", ("b",)))
    assert result.rows == {(10,), (99,)}
    assert result.stats.tuples_fetched == 0
    assert result.stats.view_tuples_scanned == 2


def test_missing_view_raises(executor):
    with pytest.raises(PlanError):
        executor.execute(ViewScan("W", ("b",)))


def test_fetch_counts_io(executor):
    plan = FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",))
    result = executor.execute(plan)
    assert result.rows == {(1, 10), (1, 11)}
    assert result.stats.fetch_calls == 1
    assert result.stats.tuples_fetched == 2
    assert result.stats.per_relation == {"R": 2}


def test_fetch_with_empty_key(executor):
    plan = FetchNode(None, "S", (), ("b", "c"))
    result = executor.execute(plan)
    assert len(result.rows) == 4
    assert result.stats.fetch_calls == 1
    assert result.stats.tuples_fetched == 4


def test_chained_fetches_accumulate_io(executor):
    movies = FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",))
    keys = ProjectNode(movies, ("b",))
    ratings = FetchNode(keys, "S", ("b",), ("c",))
    result = executor.execute(ratings)
    assert result.rows == {(10, "p"), (11, "q")}
    assert result.stats.fetch_calls == 3  # 1 for R + 2 keys for S
    assert result.stats.tuples_fetched == 4
    assert result.stats.per_relation == {"R": 2, "S": 2}


def test_fetch_without_covering_constraint_fails(executor):
    plan = FetchNode(ConstantScan(10, attribute="b"), "R", ("b",), ("a",))
    with pytest.raises(PlanError):
        executor.execute(plan)


def test_select_project_rename_product(executor):
    base = FetchNode(None, "S", (), ("b", "c"))
    selected = SelectNode(base, (AttributeEqualsConstant("c", "p"),))
    assert executor.execute(selected).rows == {(10, "p")}
    negated = SelectNode(base, (AttributeEqualsConstant("c", "p", negated=True),))
    assert len(executor.execute(negated).rows) == 3
    renamed = RenameNode(base, {"b": "key"})
    assert executor.execute(renamed).attributes == ("key", "c")
    product = ProductNode(ConstantScan(1, "l"), ConstantScan(2, "r"))
    assert executor.execute(product).rows == {(1, 2)}


def test_attribute_equality_selection(executor):
    both = ProductNode(
        RenameNode(ProjectNode(FetchNode(None, "S", (), ("b", "c")), ("b",)), {"b": "b1"}),
        ProjectNode(FetchNode(None, "S", (), ("b", "c")), ("b",)),
    )
    equal = SelectNode(both, (AttributeEqualsAttribute("b1", "b"),))
    assert len(executor.execute(equal).rows) == 4


def test_union_and_difference(executor):
    one = ProjectNode(FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",)), ("b",))
    two = ProjectNode(FetchNode(ConstantScan(2, attribute="a"), "R", ("a",), ("b",)), ("b",))
    union = UnionNode(one, two)
    assert executor.execute(union).rows == {(10,), (11,), (20,)}
    difference = DifferenceNode(union, two)
    assert executor.execute(difference).rows == {(10,), (11,)}


def test_execute_plan_wrapper(database):
    plan = FetchNode(ConstantScan(3, attribute="a"), "R", ("a",), ("b",))
    result = execute_plan(plan, SCHEMA, ACCESS, IndexSet(database, ACCESS))
    assert result.rows == {(3, 30)}
    assert len(result) == 1


def test_dx_is_independent_of_database_size():
    """The scale-independence property: Dξ stays constant as |D| grows."""
    small = Database(SCHEMA)
    small.add_many("R", [(1, 10), (1, 11)])
    small.add_many("S", [(10, "p"), (11, "q")])
    big = Database(SCHEMA)
    big.add_many("R", [(1, 10), (1, 11)] + [(i, i * 10) for i in range(5, 400)])
    big.add_many("S", [(10, "p"), (11, "q")] + [(i * 10, f"v{i}") for i in range(5, 400)])

    plan = FetchNode(
        ProjectNode(FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",)), ("b",)),
        "S",
        ("b",),
        ("c",),
    )
    small_stats = execute_plan(plan, SCHEMA, ACCESS, IndexSet(small, ACCESS)).stats
    big_stats = execute_plan(plan, SCHEMA, ACCESS, IndexSet(big, ACCESS)).stats
    assert small_stats.tuples_fetched == big_stats.tuples_fetched == 4
