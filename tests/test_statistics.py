"""Exact column statistics and the probe estimates priced from them.

A relation's column statistics are its per-column value counts plus, per
column, the running second moment Σc² over those counts.  Every estimate
the planners read is one of three: a known constant's exact count, the
average bucket ``total / distinct`` (a bound variable, a ``Param``, or a
value with no rows), or the second moment ``Σc² / Σc`` (a constant the
planner shares its plan across).
"""

import pytest

from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Param
from repro.storage.instance import Database
from repro.storage.statistics import relation_statistics

from conftest import folded_statistics, scanned_statistics

SCHEMA = schema_from_spec({"R": ("a", "b")})

# Column a: "x" three times, "y" once — 4 rows, 2 distinct, Σc² = 9 + 1.
ROWS = {("x", 1), ("x", 2), ("x", 3), ("y", 4)}


def _relation(rows=ROWS):
    return Database(SCHEMA, {"R": set(rows)}).relation("R")


def test_column_statistics_are_the_exact_counts_and_their_second_moment():
    statistics = _relation().statistics()
    column, keys = statistics.columns
    assert (column.distinct, column.total, column.square_sum) == (2, 4, 10)
    assert (column.estimate_eq("x"), column.estimate_eq("y")) == (3.0, 1.0)
    assert column.estimate_eq("z") == column.average_bucket() == 2.0
    assert column.skewed_bucket() == 10 / 4
    assert (keys.distinct, keys.square_sum, keys.skewed_bucket()) == (4, 4, 1.0)
    assert statistics.distinct == (2, 4) and statistics.cardinality == 4


def test_an_empty_relation_prices_every_probe_at_zero():
    statistics = _relation(()).statistics()
    column = statistics.columns[0]
    assert (column.distinct, column.total, column.square_sum) == (0, 0, 0)
    assert column.estimate_eq("x") == column.average_bucket() == 0.0
    assert column.skewed_bucket() == 0.0
    assert statistics.estimated_matches_with([0], {0: "x"}) == 0.0
    assert statistics.estimated_matches_with([0], {0: "x"}, unread=(0,)) == 0.0


@pytest.mark.parametrize(
    ("positions", "constants", "unread", "expected"),
    [
        pytest.param([0], {0: "x"}, (), 3.0, id="known-constant"),
        pytest.param([0], {0: "z"}, (), 2.0, id="constant-with-no-rows"),
        pytest.param([0], {0: Param("key")}, (), 2.0, id="param"),
        pytest.param([0], {0: "y"}, (0,), 2.5, id="unread-constant"),
        pytest.param([0], None, (), 2.0, id="bound-variable"),
        pytest.param([0, 1], {0: "x", 1: 1}, (), 0.75, id="two-constants"),
    ],
)
def test_each_probe_kind_is_priced_by_its_own_estimate(
    positions, constants, unread, expected
):
    """A known constant by its exact count; a value with no rows, a
    ``Param`` and a bound variable by the average bucket; an unread
    constant by the second moment, whatever its own count — positions
    multiply as independent selectivities."""
    statistics = _relation().statistics()
    estimate = statistics.estimated_matches_with(positions, constants, unread)
    assert estimate == pytest.approx(expected)


def test_statistics_without_columns_degrade_to_the_classical_estimate():
    relation = _relation()
    scanned = relation_statistics(relation)
    assert scanned.columns is None
    assert scanned == relation.statistics()  # columns do not take part in ==
    for positions in ([0], [1], [0, 1]):
        classical = scanned.estimated_matches(positions)
        assert scanned.estimated_matches_with(positions, {0: "x"}, (1,)) == classical
    assert scanned.estimated_matches([0]) == 2.0


def test_a_value_that_leaves_and_returns_is_folded_out_and_back_in():
    """Deleting a value's last row takes it out of the distinct count and
    its square out of the second moment; re-inserting one row brings it
    back with count 1 — the folded state equals a fresh scan throughout."""
    relation = _relation()
    relation.statistics()  # counts live before the writes
    for row in [("x", 1), ("x", 2), ("x", 3)]:
        relation.discard(row)
    column = relation.statistics().columns[0]
    assert (column.distinct, column.total, column.square_sum) == (1, 1, 1)
    assert column.estimate_eq("x") == column.average_bucket() == 1.0
    assert folded_statistics(relation) == scanned_statistics(relation)

    relation.add(("x", 9))
    column = relation.statistics().columns[0]
    assert (column.distinct, column.total, column.square_sum) == (2, 2, 2)
    assert column.estimate_eq("x") == 1.0
    assert folded_statistics(relation) == scanned_statistics(relation)
    assert relation.statistics() == relation_statistics(relation)
