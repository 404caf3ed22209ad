"""Unit tests for the execution kernel (repro.exec): operators and compilers."""

import pytest

from repro.algebra.parser import parse_cq
from repro.algebra.schema import schema_from_spec
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.plan_eval import PlanExecutor
from repro.core.plans import (
    AttributeEqualsConstant,
    ConstantScan,
    FetchNode,
    ProjectNode,
    SelectNode,
)
from repro.exec import (
    Distinct,
    HashJoin,
    IOMeter,
    Materialize,
    Project,
    Scan,
    Select,
    SemiJoin,
    Union,
)
from repro.exec.operators import IndexLookup
from repro.storage.indexes import IndexSet
from repro.storage.instance import Database


# --------------------------------------------------------------------------- #
# Operators
# --------------------------------------------------------------------------- #


def test_scan_records_view_io_once_per_open():
    meter = IOMeter()
    scan = Scan(frozenset({(1,), (2,), (3,)}), meter=meter)
    assert sorted(scan.rows()) == [(1,), (2,), (3,)]
    assert meter.view_tuples_scanned == 3
    assert meter.tuples_fetched == 0


def test_hash_join_on_positions_and_cross_product():
    left = Scan([(1, "a"), (2, "b")])
    right = Scan([("a", 10), ("a", 11), ("c", 12)])
    joined = sorted(HashJoin(left, right, (1,), (0,)).rows())
    assert joined == [(1, "a", "a", 10), (1, "a", "a", 11)]
    # Empty keys: single bucket = cross product.
    cross = set(HashJoin(Scan([(1,), (2,)]), Scan([(3,), (4,)]), (), ()).rows())
    assert cross == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_semi_join_and_anti_semi_join():
    left = Scan([(1, "x"), (2, "y"), (3, "z")])
    right = Scan([("x", 0), ("z", 0)])
    assert sorted(SemiJoin(left, right, (1,), (0,)).rows()) == [(1, "x"), (3, "z")]
    left2 = Scan([(1, "x"), (2, "y"), (3, "z")])
    right2 = Scan([("x", 0), ("z", 0)])
    assert sorted(SemiJoin(left2, right2, (1,), (0,), anti=True).rows()) == [(2, "y")]
    # Degenerate empty-key case: everything passes iff the right side is empty.
    assert list(SemiJoin(Scan([(1,)]), Scan([]), (), (), anti=True).rows()) == [(1,)]
    assert list(SemiJoin(Scan([(1,)]), Scan([]), (), ()).rows()) == []


def test_project_select_union_distinct_materialize():
    rows = [(1, 2), (1, 3), (2, 2)]
    assert sorted(Distinct(Project(Scan(rows), (0,))).rows()) == [(1,), (2,)]
    assert list(Select(Scan(rows), lambda r: r[0] == r[1]).rows()) == [(2, 2)]
    union = Distinct(Union((Scan([(1,)]), Scan([(1,), (2,)]))))
    assert sorted(union.rows()) == [(1,), (2,)]
    materialized = Materialize(Scan(rows))
    assert sorted(materialized.rows()) == sorted(rows)
    assert sorted(materialized.rows()) == sorted(rows)  # restartable


def test_operators_are_restartable():
    op = Distinct(Project(Scan([(1, 2), (1, 3)]), (0,)))
    assert list(op.rows()) == [(1,)]
    assert list(op.rows()) == [(1,)]


def test_index_lookup_dedupes_keys_and_charges_meter():
    schema = schema_from_spec({"R": ("a", "b")})
    database = Database(schema, {"R": [(1, 10), (1, 11), (2, 20)]})
    constraint = AccessConstraint("R", ("a",), ("b",), 2)
    provider = IndexSet(database, AccessSchema([constraint]))
    meter = IOMeter()
    # Child emits duplicate keys; only distinct keys are fetched (S_j is a set).
    lookup = IndexLookup(
        Scan([(1,), (1,), (2,)]), "R", constraint, provider, (0,), (0, 1), meter
    )
    assert sorted(lookup.rows()) == [(1, 10), (1, 11), (2, 20)]
    assert meter.fetch_calls == 2
    assert meter.tuples_fetched == 3
    assert meter.per_relation == {"R": 3}


# --------------------------------------------------------------------------- #
# Compilers: plan executor and CQ evaluation run on the same kernel
# --------------------------------------------------------------------------- #


@pytest.fixture
def small_db():
    schema = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
    return Database(
        schema, {"R": [(1, 10), (2, 20), (2, 21)], "S": [(10, "x"), (21, "y")]}
    )


def test_plan_executor_compiles_to_operator_tree(small_db):
    constraint = AccessConstraint("R", ("a",), ("b",), 2)
    access = AccessSchema([constraint])
    provider = IndexSet(small_db, access)
    executor = PlanExecutor(small_db.schema, access, provider)
    plan = ProjectNode(
        SelectNode(
            FetchNode(ConstantScan(2, attribute="a"), "R", ("a",), ("b",)),
            (AttributeEqualsConstant("b", 20),),
        ),
        ("b",),
    )
    operator = executor.compile(plan)
    assert sorted(operator.rows()) == [(20,)]
    result = executor.execute(plan)
    assert result.rows == {(20,)}
    assert result.stats.tuples_fetched == 2  # both R(2, ·) tuples cross the index


def test_evaluate_cq_identical_over_database_and_plain_facts(small_db):
    from repro.algebra.evaluation import evaluate_cq

    query = parse_cq("Q(a, c) :- R(a, b), S(b, c)")
    via_database = evaluate_cq(query, small_db)
    via_mapping = evaluate_cq(query, small_db.facts)
    assert via_database == via_mapping == {(1, "x"), (2, "y")}


def test_evaluate_cq_uses_cached_secondary_indexes(small_db):
    from repro.algebra.evaluation import evaluate_cq

    query = parse_cq("Q(b) :- R(2, b)")
    assert evaluate_cq(query, small_db) == {(20,), (21,)}
    # The constant probe built (and cached) a secondary index on column 0.
    relation = small_db.relation("R")
    assert (0,) in relation._indexes  # noqa: SLF001 - asserting the cache
    # The cached index is maintained: new tuples are visible immediately.
    small_db.add("R", (2, 22))
    assert evaluate_cq(query, small_db) == {(20,), (21,), (22,)}
