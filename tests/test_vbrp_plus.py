"""Tests for cross-language bounded rewriting VBRP+(L1, L2) (Section 6)."""

import pytest

from repro.algebra.atoms import RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Variable
from repro.algebra.views import View, ViewSet
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.plans import (
    CQ,
    EFO_PLUS,
    FO,
    UCQ,
    ConstantScan,
    DifferenceNode,
    FetchNode,
    ProjectNode,
    UnionNode,
    ViewScan,
)
from repro.core.vbrp_plus import decide_vbrp_plus, verify_cross_language_rewriting
from repro.errors import UnsupportedQueryError

SCHEMA = schema_from_spec({"R": ("a", "b")})
ACCESS = AccessSchema((AccessConstraint("R", ("a",), ("b",), 2),))
NO_VIEWS = ViewSet(())
X, Y = Variable("x"), Variable("y")


def anchored_query():
    return ConjunctiveQuery(head=(Y,), atoms=(RelationAtom("R", (Constant(1), Y)),))


def test_l1_must_be_contained_in_l2():
    with pytest.raises(UnsupportedQueryError):
        decide_vbrp_plus(
            anchored_query(), NO_VIEWS, ACCESS, SCHEMA, 3,
            source_language=UCQ, target_language=CQ,
        )
    with pytest.raises(UnsupportedQueryError):
        decide_vbrp_plus(
            anchored_query(), NO_VIEWS, ACCESS, SCHEMA, 3,
            source_language=FO, target_language=FO,
        )


def test_cq_to_ucq_rewriting_found_when_cq_one_exists():
    """Theorem 6.1's shape: a richer target language keeps the CQ rewriting."""
    for target in (CQ, UCQ, EFO_PLUS):
        result = decide_vbrp_plus(
            anchored_query(), NO_VIEWS, ACCESS, SCHEMA, 3,
            source_language=CQ, target_language=target,
        )
        assert result.has_rewriting, target
        assert result.exact
        assert result.plan is not None


def test_cq_to_fo_search_is_marked_inexact_on_failure():
    open_query = ConjunctiveQuery(head=(Y,), atoms=(RelationAtom("R", (X, Y)),))
    result = decide_vbrp_plus(
        open_query, NO_VIEWS, ACCESS, SCHEMA, 3,
        source_language=CQ, target_language=FO,
    )
    assert not result.has_rewriting
    assert not result.exact  # FO-only plans were not explored exhaustively


def test_verify_cross_language_rewriting_checks_size_language_conformance():
    query = anchored_query()
    plan = ProjectNode(FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",)), ("b",))
    assert verify_cross_language_rewriting(plan, query, NO_VIEWS, ACCESS, SCHEMA, 3, UCQ)
    assert not verify_cross_language_rewriting(plan, query, NO_VIEWS, ACCESS, SCHEMA, 2, UCQ)

    union_plan = UnionNode(plan, ProjectNode(
        FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",)), ("b",)
    ))
    # A UCQ plan is not acceptable when the target language is CQ.
    assert not verify_cross_language_rewriting(union_plan, query, NO_VIEWS, ACCESS, SCHEMA, 9, CQ)
    assert verify_cross_language_rewriting(union_plan, query, NO_VIEWS, ACCESS, SCHEMA, 9, UCQ)


def test_verify_cross_language_rejects_wrong_plans():
    query = anchored_query()
    wrong = ProjectNode(FetchNode(ConstantScan(2, attribute="a"), "R", ("a",), ("b",)), ("b",))
    assert not verify_cross_language_rewriting(wrong, query, NO_VIEWS, ACCESS, SCHEMA, 5, UCQ)


def test_fo_plan_verification_accepts_conforming_difference_plan():
    """FO plans (with difference) pass the structural checks; their
    A-equivalence must be argued separately, as the docstring says."""
    view = View("VB", ConjunctiveQuery(head=(Y,), atoms=(RelationAtom("R", (Constant(1), Y)),)))
    views = ViewSet((view,))
    boolean_query = ConjunctiveQuery(head=(), atoms=(RelationAtom("R", (Constant(1), Y)),))
    left = ProjectNode(ViewScan("VB", ("y",)), ())
    right = ProjectNode(ViewScan("VB", ("y",)), ())
    plan = DifferenceNode(left, right)
    assert plan.language() == FO
    assert verify_cross_language_rewriting(plan, boolean_query, views, ACCESS, SCHEMA, 9, FO)
    assert not verify_cross_language_rewriting(plan, boolean_query, views, ACCESS, SCHEMA, 9, EFO_PLUS)
