"""Unit tests for plan execution and Dξ (fetched-tuple) accounting.

Every plan runs twice: through the ``Dξ`` reference (``conftest.reference``)
and through its compiled closure, and the two must agree on the rows and
on every meter field.
"""

import pytest

from repro.algebra.schema import schema_from_spec
from repro.core.access import AccessConstraint, AccessSchema
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
from repro.exec.codegen import compile_plan_closure
from repro.exec.iometer import IOMeter
from repro.storage.indexes import IndexSet
from repro.storage.instance import Database

from conftest import reference

SCHEMA = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
ACCESS = AccessSchema(
    (
        AccessConstraint("R", ("a",), ("b",), 2),
        AccessConstraint("S", ("b",), ("c",), 1),
        AccessConstraint("S", (), ("b", "c"), 10),
    )
)
VIEWS = {"V": frozenset({(10,), (99,)})}


@pytest.fixture
def database():
    db = Database(SCHEMA)
    db.add_many("R", [(1, 10), (1, 11), (2, 20), (3, 30)])
    db.add_many("S", [(10, "p"), (11, "q"), (20, "r"), (30, "s")])
    return db


def compiled(plan, provider, views=VIEWS):
    meter = IOMeter()
    return compile_plan_closure(plan, ACCESS).execute(provider, views, meter), meter


def run(plan, provider, views=VIEWS):
    """The reference's result, after checking the compiled closure agrees."""
    expected = reference(plan, ACCESS, provider, views)
    assert compiled(plan, provider, views) == (expected.rows, expected.stats)
    return expected


@pytest.fixture
def provider(database):
    return IndexSet(database, ACCESS)


@pytest.fixture
def execute(provider):
    return lambda plan: run(plan, provider)


def test_constant_and_view_scans(execute):
    assert execute(ConstantScan(5, "c")).rows == {(5,)}
    result = execute(ViewScan("V", ("b",)))
    assert result.rows == {(10,), (99,)}
    assert result.stats.tuples_fetched == 0
    assert result.stats.view_tuples_scanned == 2


def test_missing_view_raises(provider):
    with pytest.raises(PlanError):
        reference(ViewScan("W", ("b",)), ACCESS, provider, VIEWS)
    with pytest.raises(PlanError):
        compiled(ViewScan("W", ("b",)), provider)


def test_fetch_counts_io(execute):
    plan = FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",))
    result = execute(plan)
    assert result.rows == {(1, 10), (1, 11)}
    assert result.stats.fetch_calls == 1
    assert result.stats.tuples_fetched == 2
    assert result.stats.per_relation == {"R": 2}


def test_fetch_with_empty_key(execute):
    plan = FetchNode(None, "S", (), ("b", "c"))
    result = execute(plan)
    assert len(result.rows) == 4
    assert result.stats.fetch_calls == 1
    assert result.stats.tuples_fetched == 4


def test_chained_fetches_accumulate_io(execute):
    movies = FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",))
    keys = ProjectNode(movies, ("b",))
    ratings = FetchNode(keys, "S", ("b",), ("c",))
    result = execute(ratings)
    assert result.rows == {(10, "p"), (11, "q")}
    assert result.stats.fetch_calls == 3  # 1 for R + 2 keys for S
    assert result.stats.tuples_fetched == 4
    assert result.stats.per_relation == {"R": 2, "S": 2}


def test_fetch_without_covering_constraint_fails(provider):
    plan = FetchNode(ConstantScan(10, attribute="b"), "R", ("b",), ("a",))
    with pytest.raises(PlanError):
        reference(plan, ACCESS, provider, VIEWS)
    with pytest.raises(PlanError):
        compiled(plan, provider)


def test_select_project_rename_product(execute):
    base = FetchNode(None, "S", (), ("b", "c"))
    selected = SelectNode(base, (AttributeEqualsConstant("c", "p"),))
    assert execute(selected).rows == {(10, "p")}
    negated = SelectNode(base, (AttributeEqualsConstant("c", "p", negated=True),))
    assert len(execute(negated).rows) == 3
    renamed = RenameNode(base, {"b": "key"})
    assert execute(renamed).attributes == ("key", "c")
    product = ProductNode(ConstantScan(1, "l"), ConstantScan(2, "r"))
    assert execute(product).rows == {(1, 2)}


def test_attribute_equality_selection(execute):
    both = ProductNode(
        RenameNode(ProjectNode(FetchNode(None, "S", (), ("b", "c")), ("b",)), {"b": "b1"}),
        ProjectNode(FetchNode(None, "S", (), ("b", "c")), ("b",)),
    )
    equal = SelectNode(both, (AttributeEqualsAttribute("b1", "b"),))
    assert len(execute(equal).rows) == 4


def test_union_and_difference(execute):
    one = ProjectNode(FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",)), ("b",))
    two = ProjectNode(FetchNode(ConstantScan(2, attribute="a"), "R", ("a",), ("b",)), ("b",))
    union = UnionNode(one, two)
    assert execute(union).rows == {(10,), (11,), (20,)}
    difference = DifferenceNode(union, two)
    assert execute(difference).rows == {(10,), (11,)}


def test_execution_result_len(execute):
    plan = FetchNode(ConstantScan(3, attribute="a"), "R", ("a",), ("b",))
    result = execute(plan)
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
    small_stats = run(plan, IndexSet(small, ACCESS)).stats
    big_stats = run(plan, IndexSet(big, ACCESS)).stats
    assert small_stats.tuples_fetched == big_stats.tuples_fetched == 4


# --------------------------------------------------------------------------- #
# Kernel behaviour of the compiled closure: view charges, joins, difference,
# deduplication, restarts and per-key fetches
# --------------------------------------------------------------------------- #


def test_each_view_occurrence_is_charged(execute):
    """A view scan charges ``|V|`` once per occurrence in the plan, and no
    base tuple is fetched."""
    once = execute(ViewScan("V", ("b",)))
    assert once.stats.view_tuples_scanned == 2
    twice = execute(UnionNode(ViewScan("V", ("b",)), ViewScan("V", ("b",))))
    assert twice.rows == {(10,), (99,)}
    assert twice.stats.view_tuples_scanned == 4
    assert twice.stats.tuples_fetched == twice.stats.fetch_calls == 0


def test_equality_over_a_product_joins_and_a_bare_product_crosses(execute):
    """``σ[b1 = b](L × R)`` keeps only the matching pairs; ``L × R`` with no
    selection is the full cross product."""
    left = RenameNode(FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",)), {"b": "b1"})
    right = FetchNode(None, "S", (), ("b", "c"))
    joined = execute(SelectNode(ProductNode(left, right), (AttributeEqualsAttribute("b1", "b"),)))
    assert joined.rows == {(1, 10, 10, "p"), (1, 11, 11, "q")}
    cross = execute(ProductNode(ConstantScan(1, "l"), ViewScan("V", ("b",))))
    assert cross.rows == {(1, 10), (1, 99)}


def test_difference_keeps_exactly_the_rows_absent_on_the_right(execute):
    """``L \\ R`` is the anti-semi-join of equal schemas: an empty right side
    keeps every row, a right side equal to the left keeps none, and a
    partial overlap removes only the shared rows."""
    keys = ProjectNode(FetchNode(None, "S", (), ("b", "c")), ("b",))
    none = SelectNode(keys, (AttributeEqualsConstant("b", -1),))
    assert execute(DifferenceNode(keys, none)).rows == {(10,), (11,), (20,), (30,)}
    assert execute(DifferenceNode(keys, keys)).rows == set()
    view = ViewScan("V", ("b",))
    assert execute(DifferenceNode(keys, view)).rows == {(11,), (20,), (30,)}
    assert execute(DifferenceNode(view, keys)).rows == {(99,)}


def test_projection_and_union_are_sets(execute):
    """π and ∪ return sets: projecting ``R(1, ·)`` onto ``a`` gives one row,
    and overlapping union branches contribute each row once."""
    fetched = FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",))
    assert execute(ProjectNode(fetched, ("a",))).rows == {(1,)}
    overlap = UnionNode(ViewScan("V", ("b",)), ProjectNode(FetchNode(None, "S", (), ("b", "c")), ("b",)))
    assert execute(overlap).rows == {(10,), (11,), (20,), (30,), (99,)}


def test_a_compiled_closure_can_run_again(provider):
    """One compiled closure runs any number of times: each run returns the
    same rows, and a meter shared between runs is charged once per run."""
    plan = FetchNode(
        ProjectNode(FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",)), ("b",)),
        "S",
        ("b",),
        ("c",),
    )
    closure = compile_plan_closure(plan, ACCESS)
    first, second, shared = IOMeter(), IOMeter(), IOMeter()
    rows = closure.execute(provider, VIEWS, first)
    assert closure.execute(provider, VIEWS, second) == rows == {(10, "p"), (11, "q")}
    assert first == second == reference(plan, ACCESS, provider, VIEWS).stats
    closure.execute(provider, VIEWS, shared)
    closure.execute(provider, VIEWS, shared)
    assert shared.fetch_calls == 2 * first.fetch_calls
    assert shared.tuples_fetched == 2 * first.tuples_fetched
    assert shared.per_relation == {r: 2 * n for r, n in first.per_relation.items()}


def test_fetch_probes_each_distinct_key_once(execute):
    """A fetch whose input repeats a key probes the index once for it: the
    input below carries ``b = 10`` on four rows, and ``S`` is probed once."""
    repeated = ProjectNode(
        ProductNode(ConstantScan(10, "b"), RenameNode(FetchNode(None, "S", (), ("b", "c")), {"b": "b2"})),
        ("b",),
    )
    result = execute(FetchNode(repeated, "S", ("b",), ("c",)))
    assert result.rows == {(10, "p")}
    assert result.stats.per_relation == {"S": 4 + 1}
    assert result.stats.fetch_calls == 2  # one for the full S scan, one for b = 10
    assert result.stats.tuples_fetched == 5
