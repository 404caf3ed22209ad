"""End-to-end tests reproducing Examples 1.1, 2.2, 2.3 and 3.3 of the paper."""

import pytest

from repro.algebra.atoms import RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.terms import Constant, Variable
from repro.algebra.views import ViewSet
from repro.core.bounded_output import has_bounded_output
from repro.core.conformance import conforms_to
from repro.core.equivalence import a_equivalent
from repro.core.rewriting import plan_to_ucq, unfold_view_atoms
from repro.engine.service import QueryService
from repro.errors import AccessConstraintError
from repro.workloads import graph_search as gs


def test_generated_data_satisfies_a0(gs_instance, gs_access):
    assert gs_instance.database.satisfies(gs_access)
    assert gs_instance.database.satisfies(gs.access_schema(with_like_key=True))


def test_generate_refuses_more_movies_than_a0_admits():
    # 7 studios x 11 years x n0 movies fit under movie((studio, release) -> mid, n0).
    full = gs.generate(num_persons=5, num_movies=77 * 2 - 3, n0=2)
    assert full.database.satisfies(gs.access_schema(n0=2))
    with pytest.raises(AccessConstraintError, match="exceed the 154"):
        gs.generate(num_persons=5, num_movies=77 * 2 - 2, n0=2)


def test_q0_is_not_boundedly_evaluable_without_views(gs_q0, gs_access, gs_schema):
    """Example 1.1: under A0 alone, Q0 has no bounded plan (person/like are free)."""
    from repro.engine.optimizer import build_bounded_plan

    outcome = build_bounded_plan(gs_q0, ViewSet(()), gs_access, gs_schema)
    assert not outcome.found


def test_v1_does_not_have_bounded_output(gs_access, gs_schema, gs_views):
    """V1 itself is not boundedly evaluable / has unbounded output under A0."""
    v1 = gs_views.view("V1")
    assert not has_bounded_output(v1.as_ucq(), gs_access, gs_schema)


def test_figure1_plan_is_an_11_bounded_rewriting(gs_q0, gs_access, gs_schema, gs_views):
    """Example 2.2: ξ0 conforms to A0, answers Q0 and fetches at most 2·N0 tuples."""
    plan = gs.figure1_plan()
    assert plan.size() <= 13  # 11 in the paper's counting, +2 explicit renames here
    report = conforms_to(plan, gs_access, gs_schema, gs_views, compute_bound=True)
    assert report.conforms
    assert report.fetch_bound == 2 * 100


def test_figure1_plan_expresses_example_23_rewriting(gs_q0, gs_access, gs_schema, gs_views):
    """Example 2.3: ξ0 expresses Qξ(mid) = movie(mid,·,U,2014) ∧ V1(mid) ∧ rating(mid,5),
    which is a CQ rewriting of Q0 using V1, A-equivalent to Q0 under A0."""
    plan = gs.figure1_plan()
    expressed = plan_to_ucq(plan, gs_schema, gs_views, unfold_views=True)
    assert a_equivalent(expressed, gs_q0, gs_access, gs_schema)

    # The rewriting written over the view relation, as in the paper.
    mid, ym = Variable("mid"), Variable("ym")
    q_xi = ConjunctiveQuery(
        head=(mid,),
        atoms=(
            RelationAtom("movie", (mid, ym, Constant("Universal"), Constant("2014"))),
            RelationAtom("V1", (mid,)),
            RelationAtom("rating", (mid, Constant(5))),
        ),
        name="Q_xi",
    )
    unfolded = unfold_view_atoms(q_xi, gs_views)
    assert a_equivalent(unfolded, gs_q0, gs_access, gs_schema)


def test_figure1_plan_answers_match_direct_evaluation(gs_instance, gs_q0, gs_access, gs_schema, gs_views):
    service = QueryService(gs_instance.database, gs_access, gs_views)
    result = service.execute_plan(gs.figure1_plan())
    plan_rows, stats = result.rows, result.stats
    baseline = service.baseline(gs_q0)
    assert plan_rows == baseline.rows
    assert len(plan_rows) >= 3  # planted answers
    assert stats.tuples_fetched <= 2 * gs_instance.n0
    assert stats.tuples_fetched < baseline.tuples_scanned


def test_engine_finds_bounded_plan_for_q0(gs_instance, gs_q0, gs_access, gs_views):
    service = QueryService(gs_instance.database, gs_access, gs_views)
    answer = service.query(gs_q0)
    assert answer.used_bounded_plan
    assert answer.rows == service.baseline(gs_q0).rows
    assert answer.tuples_scanned == 0


def test_io_gap_grows_with_data():
    """The scale-independence claim of Fig. 1 on a 10x pair: ξ0 and the planned
    Q0 fetch at most 2·N0 tuples at either size, the baseline reads all of D."""
    q0, access, views = gs.query_q0(), gs.access_schema(), gs.views()
    scanned = []
    for persons, movies in ((150, 100), (1500, 1000)):
        instance = gs.generate(num_persons=persons, num_movies=movies, seed=3)
        service = QueryService(instance.database, access, views)
        answer = service.query(q0)
        assert answer.used_bounded_plan
        assert answer.tuples_fetched <= 2 * instance.n0
        figure1 = service.execute_plan(gs.figure1_plan())
        assert figure1.rows == answer.rows
        assert figure1.stats.tuples_fetched <= 2 * instance.n0
        scanned.append(service.baseline(q0).tuples_scanned)
        assert scanned[-1] >= instance.database.size
    assert scanned[1] >= 10 * scanned[0]


def test_example_33_v2_bounded_output_depends_on_constraints(gs_schema, gs_views):
    """Example 3.3(a): the rewriting via V2 needs V2 to have bounded output,
    i.e. a constraint bounding the number of NASA employees."""
    v2 = gs_views.view("V2")
    base = gs.access_schema(with_like_key=True)
    assert not has_bounded_output(v2.as_ucq(), base, gs_schema)
    from repro.core.access import AccessConstraint

    with_cap = base.extended_with(
        [AccessConstraint("person", ("affiliation",), ("pid",), 50)]
    )
    assert has_bounded_output(v2.as_ucq(), with_cap, gs_schema)


def test_example_33_rewriting_with_v2_under_extended_schema(gs_instance, gs_q0, gs_schema):
    """Example 3.3(a): with A1 plus a cap on NASA employees, Q0 can be
    answered through V2 as well; the service's plan stays correct."""
    from repro.core.access import AccessConstraint

    access = gs.access_schema(with_like_key=True).extended_with(
        [AccessConstraint("person", ("affiliation",), ("pid", "name"), 50)]
    )
    if not gs_instance.database.satisfies(access):
        pytest.skip("generated instance has more than 50 NASA employees")
    views = ViewSet((gs.view_v2(),))
    service = QueryService(gs_instance.database, access, views)
    answer = service.query(gs_q0)
    assert answer.rows == service.baseline(gs_q0).rows
