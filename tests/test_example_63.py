"""Example 6.3: a CQ with a 5-bounded rewriting in FO but none in UCQ.

The example is about the *language* of the rewriting: with Boolean views V1,
V2, V3 it exhibits Q such that the FO plan (V3 \\ V1) ∪ V2 is a 5-bounded
rewriting while no 5-bounded UCQ rewriting exists.  The A-equivalence parts of
the argument involve queries that are too large for the exact element-query
sweep, so these tests validate the example the way the paper itself does: by
checking the claimed relationships on witness instances satisfying A, and by
checking the structural side conditions (conformance, size, language) of the
FO plan exactly.  The construction lives in :mod:`repro.workloads.example63`.
"""

import pytest

from repro.algebra.evaluation import evaluate_cq, evaluate_ucq
from repro.core.vbrp_plus import verify_cross_language_rewriting
from repro.storage.indexes import IndexSet
from repro.storage.instance import Database
from repro.workloads import example63 as ex

from conftest import reference


@pytest.fixture(scope="module")
def setting():
    return ex.schema(), ex.access_schema(), ex.query_q(), ex.views()


def test_tableaux_satisfy_the_access_schema(setting):
    schema, access, q, views = setting
    assert access.satisfied_by(q.tableau().facts(), schema)
    assert access.satisfied_by(
        views.view("V1").as_ucq().disjuncts[0].tableau().facts(), schema
    )


def test_q_and_v1_are_incomparable_on_witness_instances(setting):
    """Q ⋢_A V1 and V1 ⋢_A Q, witnessed by their canonical instances."""
    schema, access, q, views = setting
    v1 = views.view("V1").as_ucq().disjuncts[0]
    dq = ex.canonical_instance_of(q)
    dv = ex.canonical_instance_of(v1)
    assert dq.satisfies(access) and dv.satisfies(access)
    assert evaluate_cq(q, dq.facts) == {()}
    assert evaluate_cq(v1, dq.facts) == set()  # Q true, V1 false: Q ⋢ V1
    assert evaluate_cq(v1, dv.facts) == {()}
    assert evaluate_cq(q, dv.facts) == set()  # V1 true, Q false: V1 ⋢ Q


def test_v2_and_v3_relate_to_q_as_claimed(setting):
    """V2 behaves as V1 ∧ Q and V3 as V1 ∪ Q on the witness instances."""
    schema, access, q, views = setting
    v1 = views.view("V1").as_ucq()
    v2 = views.view("V2").as_ucq()
    v3 = views.view("V3").as_ucq()
    for db in ex.witness_instances():
        assert db.satisfies(access)
        q_ans = evaluate_cq(q, db.facts)
        v1_ans = evaluate_ucq(v1, db.facts)
        assert evaluate_ucq(v2, db.facts) == (q_ans & v1_ans)
        assert evaluate_ucq(v3, db.facts) == (q_ans | v1_ans)


def test_fo_rewriting_agrees_with_q_on_witness_instances(setting):
    """Q_FO = (V3 \\ V1) ∪ V2 agrees with Q on instances satisfying A."""
    schema, access, q, views = setting
    plan = ex.fo_plan()
    assert plan.size() == 5
    assert plan.language() == "FO"

    for db in ex.witness_instances():
        view_cache = {
            view.name: frozenset(evaluate_ucq(view.as_ucq(), db.facts)) for view in views
        }
        plan_answer = reference(plan, access, IndexSet(db, access), view_cache).rows
        direct_answer = evaluate_cq(q, db.facts)
        assert plan_answer == frozenset(direct_answer)


def test_fo_plan_passes_structural_checks(setting):
    schema, access, q, views = setting
    assert verify_cross_language_rewriting(ex.fo_plan(), q, views, access, schema, 5, "FO")
    # It is *not* acceptable as a UCQ-language rewriting (it uses difference).
    assert not verify_cross_language_rewriting(ex.fo_plan(), q, views, access, schema, 5, "UCQ")


def test_boolean_views_cannot_feed_fetches(setting):
    """The example's argument that UCQ rewritings cannot fetch: the views are
    Boolean, so no values are available to drive an index access."""
    schema, access, q, views = setting
    for view in views:
        assert view.arity == 0


def test_the_28_atom_view_is_ordered_by_the_beam_compiles_and_maintains(setting):
    """V2's body has 28 atoms, past the subset search's exact limit: its
    loop nest is ordered by the width-1 beam — a permutation of the body —
    and the service materialises it and maintains it through writes that
    empty it and fill it again, equal to recomputation after each."""
    from repro.algebra.join_order import MAX_EXACT_ITEMS
    from repro.engine.service import QueryService
    from repro.exec.cq_compiler import FactsSource, order_atoms
    from repro.storage.updates import Deletion, UpdateBatch

    schema, access, q, views = setting
    database = ex.witness_instances()[-1]
    body = views.view("V2").as_ucq().disjuncts[0].normalize()
    assert len(body.atoms) == 28 > MAX_EXACT_ITEMS
    order = order_atoms(body.atoms, FactsSource(database))
    assert sorted(order, key=repr) == sorted(body.atoms, key=repr)
    with QueryService(database, access, views) as service:
        assert service.view_cache["V2"] == frozenset({()})
        k1 = sorted(database.relation("K1"))
        removal = UpdateBatch([Deletion("K1", row) for row in k1])
        for batch, expected in ((removal, frozenset()), (removal.inverted(), {()})):
            service.apply(batch)
            assert service.view_cache["V2"] == expected
            assert service.maintainer.verify()
