"""Tests for QueryService's answer/baseline contract and the naive baseline."""

import pytest

from repro.algebra.atoms import RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.fo import atom, conj, eq, exists, neg
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Variable
from repro.algebra.views import ViewSet
from repro.core.access import AccessConstraint, AccessSchema
from repro.engine.baseline import NaiveEngine
from repro.engine.service import QueryService
from repro.errors import EvaluationError
from repro.storage.instance import Database

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

SCHEMA = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
ACCESS = AccessSchema(
    (
        AccessConstraint("R", ("a",), ("b",), 2),
        AccessConstraint("S", ("b",), ("c",), 1),
    )
)


def make_db(extra_rows: int = 0) -> Database:
    db = Database(SCHEMA)
    db.add_many("R", [(1, 10), (1, 11), (2, 20)])
    db.add_many("S", [(10, "p"), (11, "q"), (20, "r")])
    for i in range(extra_rows):
        db.add("R", (100 + i, 1000 + i))
        db.add("S", (1000 + i, f"x{i}"))
    return db


def anchored_chain():
    return ConjunctiveQuery(
        head=(Z,),
        atoms=(RelationAtom("R", (Constant(1), Y)), RelationAtom("S", (Y, Z))),
        name="chain",
    )


def open_scan():
    return ConjunctiveQuery(
        head=(Y, Z), atoms=(RelationAtom("S", (Y, Z)),), name="scan_all"
    )


def test_engine_answers_with_bounded_plan_and_matches_baseline():
    service = QueryService(make_db(), ACCESS, ViewSet(()))
    answer = service.query(anchored_chain())
    assert answer.used_bounded_plan
    assert answer.rows == {("p",), ("q",)}
    assert answer.tuples_fetched > 0
    assert answer.tuples_scanned == 0
    baseline = service.baseline(anchored_chain())
    assert baseline.rows == answer.rows
    assert baseline.tuples_scanned == make_db().size


def test_engine_falls_back_to_full_scan():
    service = QueryService(make_db(), ACCESS, ViewSet(()))
    answer = service.query(open_scan())
    assert not answer.used_bounded_plan
    assert answer.tuples_scanned > 0
    assert answer.rows == {(10, "p"), (11, "q"), (20, "r")}
    assert answer.reason


def test_bounded_io_is_scale_independent_while_scan_grows():
    small_service = QueryService(make_db(0), ACCESS, ViewSet(()))
    big_service = QueryService(make_db(500), ACCESS, ViewSet(()))
    query = anchored_chain()
    small = small_service.query(query)
    big = big_service.query(query)
    assert small.used_bounded_plan and big.used_bounded_plan
    assert small.tuples_fetched == big.tuples_fetched
    assert big_service.baseline(query).tuples_scanned > small_service.baseline(query).tuples_scanned


def test_engine_rejects_database_violating_access_schema():
    db = make_db()
    db.add("R", (1, 12))
    db.add("R", (1, 13))  # key 1 now has 4 b-values > bound 2
    with pytest.raises(EvaluationError):
        QueryService(db, ACCESS, ViewSet(()))
    # Unless the check is explicitly disabled.
    QueryService(db, ACCESS, ViewSet(()), check_constraints=False)


def test_engine_materialises_views(gs_instance, gs_access, gs_views):
    service = QueryService(gs_instance.database, gs_access, gs_views)
    assert set(service.view_cache) == {"V1", "V2"}
    assert service.view_cache_size == sum(len(v) for v in service.view_cache.values())


def test_engine_explain_returns_plan_or_none():
    service = QueryService(make_db(), ACCESS, ViewSet(()))
    assert service.explain(anchored_chain()).plan is not None
    assert service.explain(open_scan()).plan is None


def test_engine_answer_fo_via_topped_plan():
    service = QueryService(make_db(), ACCESS, ViewSet(()))
    query = conj(atom("R", Constant(1), Y), neg(exists([Z], conj(atom("S", Y, Z), eq(Z, "p")))))
    answer = service.query(query, head=(Y,), max_size=None)
    # y values reachable from key 1 whose S-value is not "p": only 11.
    assert answer.rows == {(11,)}
    assert answer.used_bounded_plan


def test_engine_answer_fo_falls_back_when_not_topped():
    service = QueryService(make_db(), ACCESS, ViewSet(()))
    query = atom("R", X, Y)  # unanchored: not topped without views
    answer = service.query(query, head=(X, Y))
    assert not answer.used_bounded_plan
    assert answer.rows == {(1, 10), (1, 11), (2, 20)}


def test_naive_engine_scan_cost_counts_atom_scans():
    db = make_db()
    naive = NaiveEngine(db)
    assert naive.scan_cost(anchored_chain()) == db.size
    two_r = ConjunctiveQuery(
        head=(Y,), atoms=(RelationAtom("R", (X, Y)), RelationAtom("R", (Y, Z)))
    )
    assert naive.scan_cost(two_r) == 2 * len(db.relation("R"))


def test_naive_engine_fo_answers():
    db = make_db()
    naive = NaiveEngine(db)
    result = naive.answer_fo(atom("R", Constant(1), Y), head=(Y,))
    assert result.rows == {(10,), (11,)}
    assert result.tuples_scanned == len(db.relation("R"))
