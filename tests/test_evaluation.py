"""Unit tests for CQ/UCQ/Yannakakis evaluation over fact sets."""

import pytest

from repro.algebra.atoms import EqualityAtom, RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.evaluation import (
    active_domain,
    evaluate_cq,
    evaluate_cq_yannakakis,
    evaluate_ucq,
)
from repro.algebra.terms import Constant, Variable
from repro.algebra.ucq import UnionQuery
from repro.errors import EvaluationError, QueryError

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

FACTS = {
    "R": {(1, 10), (1, 11), (2, 20)},
    "S": {(10, "a"), (11, "b"), (20, "c"), (30, "d")},
}


def path_query():
    return ConjunctiveQuery(
        head=(X, Z),
        atoms=(RelationAtom("R", (X, Y)), RelationAtom("S", (Y, Z))),
    )


def test_evaluate_join():
    assert evaluate_cq(path_query(), FACTS) == {(1, "a"), (1, "b"), (2, "c")}


def test_evaluate_with_constant_selection():
    q = ConjunctiveQuery(
        head=(Y,),
        atoms=(RelationAtom("R", (Constant(1), Y)),),
    )
    assert evaluate_cq(q, FACTS) == {(10,), (11,)}


def test_evaluate_boolean_query():
    q = ConjunctiveQuery(head=(), atoms=(RelationAtom("S", (Constant(30), Y)),))
    assert evaluate_cq(q, FACTS) == {()}
    q_empty = ConjunctiveQuery(head=(), atoms=(RelationAtom("S", (Constant(99), Y)),))
    assert evaluate_cq(q_empty, FACTS) == set()


def test_evaluate_respects_equalities():
    q = ConjunctiveQuery(
        head=(X,),
        atoms=(RelationAtom("R", (X, Y)),),
        equalities=(EqualityAtom(Y, Constant(20)),),
    )
    assert evaluate_cq(q, FACTS) == {(2,)}


def test_evaluate_constant_head_positions():
    q = ConjunctiveQuery(
        head=(Constant("tag"), X),
        atoms=(RelationAtom("R", (X, Constant(20))),),
    )
    assert evaluate_cq(q, FACTS) == {("tag", 2)}


def test_unsatisfiable_query_evaluates_to_empty():
    q = ConjunctiveQuery(
        head=(X,),
        atoms=(RelationAtom("R", (X, Y)),),
        equalities=(EqualityAtom(X, Constant(1)), EqualityAtom(X, Constant(5))),
    )
    assert evaluate_cq(q, FACTS) == set()


def test_unsafe_head_variable_raises():
    q = ConjunctiveQuery(head=(Z,), atoms=(RelationAtom("R", (X, Y)),))
    with pytest.raises(EvaluationError):
        evaluate_cq(q, FACTS)


def test_evaluate_ucq_unions_answers():
    q1 = ConjunctiveQuery(head=(X,), atoms=(RelationAtom("R", (X, Constant(10))),))
    q2 = ConjunctiveQuery(head=(X,), atoms=(RelationAtom("R", (X, Constant(20))),))
    union = UnionQuery((q1, q2))
    assert evaluate_ucq(union, FACTS) == {(1,), (2,)}
    assert evaluate_ucq(q1, FACTS) == {(1,)}


def test_yannakakis_agrees_with_generic_evaluation():
    q = path_query()
    assert evaluate_cq_yannakakis(q, FACTS) == evaluate_cq(q, FACTS)


def test_yannakakis_rejects_cyclic_queries():
    triangle = ConjunctiveQuery(
        head=(),
        atoms=(
            RelationAtom("E", (X, Y)),
            RelationAtom("E", (Y, Z)),
            RelationAtom("E", (Z, X)),
        ),
    )
    with pytest.raises(QueryError):
        evaluate_cq_yannakakis(triangle, {"E": {(1, 2)}})


def test_yannakakis_star_query_with_dangling_tuples():
    facts = {
        "R": {(1, 2), (5, 6)},
        "S": {(1, 3)},
        "T": {(1, 4), (7, 8)},
    }
    q = ConjunctiveQuery(
        head=(X,),
        atoms=(
            RelationAtom("R", (X, Y)),
            RelationAtom("S", (X, Z)),
            RelationAtom("T", (X, Variable("w"))),
        ),
    )
    assert evaluate_cq_yannakakis(q, facts) == {(1,)}
    assert evaluate_cq(q, facts) == {(1,)}


def test_yannakakis_path_with_dangling_ends_and_head_constant():
    """On a three-atom path, rows dangling at either end are reduced away,
    and a head constant becomes a literal column of every answer."""
    w = Variable("w")
    facts = {
        "R": {(1, 10), (2, 20), (3, 99)},
        "S": {(10, 100), (20, 200), (50, 500)},
        "T": {(100, "a"), (100, "b"), (300, "c")},
    }
    q = ConjunctiveQuery(
        head=(X, Constant("k"), w),
        atoms=(
            RelationAtom("R", (X, Y)),
            RelationAtom("S", (Y, Z)),
            RelationAtom("T", (Z, w)),
        ),
    )
    expected = {(1, "k", "a"), (1, "k", "b")}
    assert evaluate_cq_yannakakis(q, facts) == expected
    assert evaluate_cq(q, facts) == expected


def test_missing_relation_treated_as_empty():
    q = ConjunctiveQuery(head=(X,), atoms=(RelationAtom("Missing", (X,)),))
    assert evaluate_cq(q, FACTS) == set()


def test_active_domain():
    domain = active_domain(FACTS, extra=["zzz"])
    assert {1, 2, 10, "a", "zzz"} <= domain
