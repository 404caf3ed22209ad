"""Tests for the SQL translation layer, cross-validated against SQLite.

Every generated statement is executed on an in-memory SQLite database loaded
from the same :class:`repro.storage.instance.Database`, and the result is
compared with the ``Dξ`` reference (``conftest.reference``) or the CQ
evaluator — the strongest form of validation available without a commercial
DBMS.  The last section checks the SQL oracle (``conftest.SQLOracle``) that
other test modules use to cross-check the service's answers.
"""

from __future__ import annotations

import pytest

from repro.algebra.evaluation import evaluate_cq, evaluate_ucq
from repro.algebra.parser import parse_cq, parse_ucq
from repro.core.plans import (
    AttributeEqualsConstant,
    ConstantScan,
    DifferenceNode,
    FetchNode,
    ProjectNode,
    SelectNode,
    UnionNode,
    ViewScan,
)
from repro.engine.service import QueryService
from repro.engine.sql import (
    cq_to_sql,
    create_index_statements,
    materialize_view_statements,
    plan_to_sql,
    quote_identifier,
    quote_literal,
    ucq_to_sql,
    view_table_name,
)
from repro.errors import UnsupportedQueryError
from repro.storage.indexes import IndexSet
from repro.workloads import cdr, example63, graph_search as gs

from conftest import SQLOracle, load_sqlite, reference


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def run_sql(connection, sql_text):
    return {tuple(row) for row in connection.execute(sql_text).fetchall()}


@pytest.fixture(scope="module")
def gs_instance():
    return gs.generate(num_persons=300, num_movies=150, seed=5)


@pytest.fixture(scope="module")
def gs_service(gs_instance):
    return QueryService(gs_instance.database, gs.access_schema(), gs.views())


# --------------------------------------------------------------------------- #
# Lexical helpers
# --------------------------------------------------------------------------- #


def test_quote_identifier_escapes_quotes():
    assert quote_identifier('we"ird') == '"we""ird"'


def test_quote_literal_kinds():
    assert quote_literal("o'hara") == "'o''hara'"
    assert quote_literal(5) == "5"
    assert quote_literal(2.5) == "2.5"
    assert quote_literal(None) == "NULL"
    assert quote_literal(True) == "1"


# --------------------------------------------------------------------------- #
# CQ / UCQ translation
# --------------------------------------------------------------------------- #


def test_cq_to_sql_matches_evaluator(gs_instance):
    query = gs.query_q0()
    sql_text = cq_to_sql(query, gs.schema())
    connection = load_sqlite(gs_instance.database)
    assert run_sql(connection, sql_text) == evaluate_cq(query, gs_instance.database.facts)


def test_cq_to_sql_with_constants_in_head(gs_instance):
    query = parse_cq("Q(x, 'tag') :- rating(x, 5)")
    sql_text = cq_to_sql(query, gs.schema())
    connection = load_sqlite(gs_instance.database)
    assert run_sql(connection, sql_text) == evaluate_cq(query, gs_instance.database.facts)


def test_boolean_cq_to_sql(gs_instance):
    query = parse_cq("Q() :- rating(x, 5)")
    sql_text = cq_to_sql(query, gs.schema())
    connection = load_sqlite(gs_instance.database)
    rows = run_sql(connection, sql_text)
    expected = evaluate_cq(query, gs_instance.database.facts)
    assert bool(rows) == bool(expected)


def test_unsatisfiable_cq_rejected():
    query = parse_cq("Q(x) :- rating(x, y), y = 1, y = 2")
    with pytest.raises(UnsupportedQueryError):
        cq_to_sql(query, gs.schema())


def test_ucq_to_sql_matches_evaluator(gs_instance):
    union = parse_ucq(
        "Q(x) :- rating(x, 5) ; Q(x) :- movie(x, y, 'Universal', '2014')"
    )
    sql_text = ucq_to_sql(union, gs.schema())
    connection = load_sqlite(gs_instance.database)
    assert run_sql(connection, sql_text) == evaluate_ucq(union, gs_instance.database.facts)


# --------------------------------------------------------------------------- #
# Plan translation
# --------------------------------------------------------------------------- #


def test_figure1_plan_to_sql_matches_executor(gs_instance, gs_service):
    plan = gs.figure1_plan()
    translation = plan_to_sql(plan, gs.schema(), gs.views(), gs.access_schema())
    assert translation.columns == ("mid",)
    assert any("movie" in comment for comment in translation.fetch_comments)

    connection = load_sqlite(
        gs_instance.database, gs.access_schema(), gs.views(), gs_service.view_cache
    )
    sql_rows = run_sql(connection, translation.text)

    indexes = IndexSet(gs_instance.database, gs.access_schema())
    executed = reference(plan, gs.access_schema(), indexes, gs_service.view_cache)
    assert sql_rows == set(executed.rows)
    # And both agree with the original query.
    assert sql_rows == evaluate_cq(gs.query_q0(), gs_instance.database.facts)


def test_plan_sql_has_one_cte_per_node(gs_instance):
    plan = gs.figure1_plan()
    translation = plan_to_sql(plan, gs.schema(), gs.views(), gs.access_schema())
    assert translation.text.count(" AS (") == plan.size()


def test_constant_and_select_plan_sql(gs_instance):
    plan = SelectNode(
        FetchNode(ConstantScan("m_000001", attribute="mid"), "rating", ("mid",), ("rank",)),
        (AttributeEqualsConstant("rank", 5),),
    )
    translation = plan_to_sql(plan, gs.schema(), None, gs.access_schema())
    connection = load_sqlite(gs_instance.database)
    sql_rows = run_sql(connection, translation.text)
    indexes = IndexSet(gs_instance.database, gs.access_schema())
    executed = reference(plan, gs.access_schema(), indexes, {})
    assert sql_rows == set(executed.rows)


def test_union_and_difference_plan_sql(gs_instance, gs_service):
    ratings = FetchNode(ConstantScan("m_000001", attribute="mid"), "rating", ("mid",), ("rank",))
    high = ProjectNode(SelectNode(ratings, (AttributeEqualsConstant("rank", 5),)), ("mid",))
    ratings2 = FetchNode(ConstantScan("m_000002", attribute="mid"), "rating", ("mid",), ("rank",))
    other = ProjectNode(ratings2, ("mid",))
    for plan in (UnionNode(high, other), DifferenceNode(other, high)):
        translation = plan_to_sql(plan, gs.schema(), None, gs.access_schema())
        connection = load_sqlite(gs_instance.database)
        sql_rows = run_sql(connection, translation.text)
        indexes = IndexSet(gs_instance.database, gs.access_schema())
        executed = reference(plan, gs.access_schema(), indexes, {})
        assert sql_rows == set(executed.rows)


def test_boolean_plan_sql_marker_column(gs_instance, gs_service):
    plan = ProjectNode(ViewScan("V1", ("mid",)), ())
    translation = plan_to_sql(plan, gs.schema(), gs.views(), gs.access_schema())
    assert translation.columns == ()
    assert translation.marker_column is not None
    connection = load_sqlite(
        gs_instance.database, None, gs.views(), gs_service.view_cache
    )
    rows = run_sql(connection, translation.text)
    assert bool(rows) == bool(gs_service.view_cache["V1"])


def test_example63_fo_plan_sql(gs_instance):
    """The Example 6.3 FO plan (V3 \\ V1) ∪ V2 runs on SQLite via EXCEPT/UNION."""
    from repro.algebra.terms import Variable
    from repro.storage.instance import Database

    canonical = example63.canonical_instance_of(example63.query_q())
    # The canonical instance uses labelled nulls (Variable objects) as values;
    # SQLite needs primitive values, so rename them to strings.
    sanitized = {
        name: {
            tuple(f"null_{v.name}" if isinstance(v, Variable) else v for v in row)
            for row in rows
        }
        for name, rows in canonical.facts.items()
    }
    instance = Database.from_facts(example63.schema(), sanitized)
    views = example63.views()
    service = QueryService(instance, example63.access_schema(), views)
    plan = example63.fo_plan()
    translation = plan_to_sql(plan, example63.schema(), views, example63.access_schema())
    connection = load_sqlite(instance, None, views, service.view_cache)
    sql_rows = run_sql(connection, translation.text)
    assert bool(sql_rows) == bool(service.execute_plan(plan).rows)


def test_view_table_name_and_materialisation(gs_service):
    statements = materialize_view_statements(gs.views(), gs_service.view_cache)
    names = {create.split('"')[1] for create, _insert, _rows in statements}
    assert view_table_name("V1") in names
    assert view_table_name("V2") in names


def test_create_index_statements_skip_empty_x():
    from repro.workloads import reductions as red

    access = red.bop_reduction(red.unsatisfiable_example()).access_schema
    statements = create_index_statements(access, red.gadget_schema())
    # Only the Ro constraint has a non-empty X.
    assert len(statements) == 1
    assert "Ro" in statements[0]


# --------------------------------------------------------------------------- #
# The SQL oracle against the service, on the paper's workloads
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def gs_oracle():
    data = gs.generate(num_persons=1_500, num_movies=400, seed=5)
    with QueryService(data.database, gs.access_schema(n0=data.n0), gs.views()) as service:
        yield service, SQLOracle(service)


@pytest.fixture(scope="module")
def cdr_oracle():
    instance = cdr.generate(num_customers=120, num_days=4, seed=9)
    with QueryService(instance.database, cdr.access_schema(), cdr.views()) as service:
        yield service, SQLOracle(service), instance


@pytest.mark.parametrize(
    "size", [(1_500, 400, 5), (300, 100, 6)], ids=["1500-persons", "300-persons"]
)
def test_oracle_agrees_with_q0(size):
    persons, movies, seed = size
    data = gs.generate(num_persons=persons, num_movies=movies, seed=seed)
    with QueryService(data.database, gs.access_schema(n0=data.n0), gs.views()) as service:
        answer = service.query(gs.query_q0())
        assert answer.used_bounded_plan and answer.backend == "memory"
        assert SQLOracle(service).rows(answer, gs.query_q0()) == answer.rows


def test_oracle_agrees_with_the_figure1_plan(gs_oracle):
    service, oracle = gs_oracle
    plan = gs.figure1_plan()
    assert oracle.plan_rows(plan) == service.execute_plan(plan).rows


def test_oracle_agrees_with_the_q0_fallback(gs_oracle):
    service, oracle = gs_oracle
    answer = service.query(gs.query_q0(), planners=())
    assert not answer.used_bounded_plan
    assert oracle.rows(answer, gs.query_q0()) == answer.rows


def test_oracle_agrees_on_the_cdr_workload(cdr_oracle):
    service, oracle, instance = cdr_oracle
    for query in cdr.workload(instance, count=8, seed=21):
        answer = service.query(query)
        assert oracle.rows(answer, query) == answer.rows, query.name
    assert oracle.loads == 1  # one data version, one load


def test_oracle_agrees_on_a_boolean_query(gs_oracle):
    service, oracle = gs_oracle
    boolean = "Q() :- movie(mid, t, 'Universal', '2014')"
    answer = service.query(boolean)
    assert oracle.rows(answer, boolean) == answer.rows
    assert oracle.query_rows(boolean) == answer.rows


def test_oracle_agrees_with_a_prepared_parameter(gs_oracle):
    service, oracle = gs_oracle
    text = "Q(mid) :- movie(mid, t, :studio, '2014'), rating(mid, 5)"
    answer = service.prepare(text).execute(studio="Universal")
    binding = {"studio": "Universal"}
    assert answer.rows
    assert oracle.rows(answer, text, binding) == answer.rows
    assert oracle.query_rows(text, binding) == answer.rows
