"""Tests for the VBRP decision procedures (Theorem 3.1 upper bound, Lemma 3.12,
Theorem 4.2's AlgMP/AlgACQ) on small, fully checkable instances."""

import pytest

from repro.algebra.atoms import RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Variable
from repro.algebra.views import View, ViewSet
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.plans import CQ, UCQ, ConstantScan, FetchNode, ProjectNode, ViewScan
from repro.core.vbrp import (
    PlanSearchSpace,
    alg_acq,
    alg_mp,
    decide_vbrp,
    enumerate_candidate_plans,
    is_bounded_rewriting,
)
from repro.errors import UnsupportedQueryError

SCHEMA = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
X, Y, Z = Variable("x"), Variable("y"), Variable("z")

ACCESS = AccessSchema(
    (
        AccessConstraint("R", ("a",), ("b",), 2),
        AccessConstraint("S", ("b",), ("c",), 1),
    )
)
NO_VIEWS = ViewSet(())


def anchored_query():
    """Q(y) :- R(1, y): boundedly rewritable with a 2-node plan."""
    return ConjunctiveQuery(
        head=(Y,), atoms=(RelationAtom("R", (Constant(1), Y)),), name="anchored"
    )


def unanchored_query():
    """Q(y) :- R(x, y): no bounded rewriting without helpful views."""
    return ConjunctiveQuery(head=(Y,), atoms=(RelationAtom("R", (X, Y)),), name="open")


def test_enumerate_candidate_plans_is_deduplicated_and_size_bounded():
    space = PlanSearchSpace(constants=(1,))
    plans = enumerate_candidate_plans(SCHEMA, NO_VIEWS, ACCESS, 3, space, language=CQ)
    assert plans
    assert all(plan.size() <= 3 for plan in plans)
    keys = set()
    for plan in plans:
        keys.add(plan.pretty())
    assert len(keys) == len(plans)
    # Larger M strictly enlarges the candidate space (Table I's cost shape).
    fewer, more = (
        enumerate_candidate_plans(SCHEMA, NO_VIEWS, ACCESS, m, space, language=CQ)
        for m in (2, 4)
    )
    assert len(fewer) < len(plans) < len(more)


def test_decide_vbrp_finds_anchored_rewriting():
    result = decide_vbrp(anchored_query(), NO_VIEWS, ACCESS, SCHEMA, max_size=3, language=CQ)
    assert result.has_rewriting
    assert result.plan is not None
    assert result.plan.size() <= 3
    assert is_bounded_rewriting(result.plan, anchored_query(), NO_VIEWS, ACCESS, SCHEMA, 3)


def test_decide_vbrp_rejects_unanchored_query():
    result = decide_vbrp(unanchored_query(), NO_VIEWS, ACCESS, SCHEMA, max_size=3, language=CQ)
    assert not result.has_rewriting
    assert result.plan is None


def test_decide_vbrp_uses_view_when_needed():
    """The unanchored query becomes rewritable when the view caches it."""
    view = View("VY", ConjunctiveQuery(head=(Y,), atoms=(RelationAtom("R", (X, Y)),)))
    views = ViewSet((view,))
    result = decide_vbrp(unanchored_query(), views, ACCESS, SCHEMA, max_size=2, language=CQ)
    assert result.has_rewriting
    assert result.plan.view_names() == {"VY"}


def test_decide_vbrp_respects_max_size():
    """The anchored two-step query has an M-bounded rewriting iff M ≥ 5
    (const, fetch, π, fetch, π)."""
    query = ConjunctiveQuery(
        head=(Z,),
        atoms=(RelationAtom("R", (Constant(1), Y)), RelationAtom("S", (Y, Z))),
        name="two_step",
    )
    for max_size in (3, 4, 5):
        result = decide_vbrp(query, NO_VIEWS, ACCESS, SCHEMA, max_size=max_size, language=CQ)
        assert result.has_rewriting == (max_size >= 5), max_size
    assert result.plan.size() == 5


def test_decide_vbrp_with_explicit_candidates():
    """The fixed-QPQ setting of Theorem 3.11."""
    query = anchored_query()
    good_plan = FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",))
    good = ProjectNode(good_plan, ("b",))
    unrelated = ConstantScan(5, attribute="c")
    result = decide_vbrp(
        query, NO_VIEWS, ACCESS, SCHEMA, max_size=3, language=CQ,
        candidate_plans=[unrelated, good],
    )
    assert result.has_rewriting
    assert result.plan is good


def test_decide_vbrp_for_fo_requires_candidates():
    with pytest.raises(UnsupportedQueryError):
        decide_vbrp(anchored_query(), NO_VIEWS, ACCESS, SCHEMA, max_size=2, language="FO")


def test_vbrp_result_counts_candidates():
    result = decide_vbrp(anchored_query(), NO_VIEWS, ACCESS, SCHEMA, max_size=2, language=CQ)
    assert result.candidates > 0
    assert result.conforming >= 1


def test_alg_mp_finds_unique_maximum_plan():
    query = anchored_query()
    fetch = FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",))
    full = ProjectNode(fetch, ("b",))
    narrowed = ProjectNode(
        FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), ("b",)), ("b",)
    )
    result = alg_mp(query, [full, narrowed], NO_VIEWS, ACCESS, SCHEMA)
    assert result.maximum is not None


def test_alg_mp_reports_no_candidates():
    query = anchored_query()
    result = alg_mp(query, [ConstantScan(9, "c")], NO_VIEWS, ACCESS, SCHEMA)
    assert result.maximum is None
    assert "no conforming" in result.reason


def test_alg_acq_agrees_with_decide_vbrp():
    query = anchored_query()
    via_acq = alg_acq(query, NO_VIEWS, ACCESS, SCHEMA, max_size=3)
    via_generic = decide_vbrp(query, NO_VIEWS, ACCESS, SCHEMA, max_size=3, language=CQ)
    assert via_acq.has_rewriting == via_generic.has_rewriting is True

    open_query = unanchored_query()
    assert not alg_acq(open_query, NO_VIEWS, ACCESS, SCHEMA, max_size=3).has_rewriting


def test_alg_acq_rejects_cyclic_queries():
    triangle = ConjunctiveQuery(
        head=(),
        atoms=(
            RelationAtom("R", (X, Y)),
            RelationAtom("R", (Y, Z)),
            RelationAtom("R", (Z, X)),
        ),
    )
    with pytest.raises(UnsupportedQueryError):
        alg_acq(triangle, NO_VIEWS, ACCESS, SCHEMA, max_size=2)


def test_ucq_rewriting_of_a_ucq_query():
    """A hand-built union plan is recognised as a UCQ rewriting of a UCQ query."""
    from repro.algebra.ucq import UnionQuery
    from repro.core.plans import UnionNode

    q1 = ConjunctiveQuery(head=(Y,), atoms=(RelationAtom("R", (Constant(1), Y)),))
    q2 = ConjunctiveQuery(head=(Y,), atoms=(RelationAtom("R", (Constant(2), Y)),))
    union = UnionQuery((q1, q2), name="u")

    def branch(value):
        return ProjectNode(
            FetchNode(ConstantScan(value, attribute="a"), "R", ("a",), ("b",)), ("b",)
        )

    union_plan = UnionNode(branch(1), branch(2))
    assert union_plan.language() == "UCQ"
    result = decide_vbrp(
        union, NO_VIEWS, ACCESS, SCHEMA, max_size=7, language=UCQ,
        candidate_plans=[branch(1), union_plan],
    )
    assert result.has_rewriting
    assert result.plan is union_plan
    # A CQ plan alone cannot express the union.
    cq_only = decide_vbrp(
        union, NO_VIEWS, ACCESS, SCHEMA, max_size=7, language=CQ,
        candidate_plans=[branch(1), branch(2)],
    )
    assert not cq_only.has_rewriting
