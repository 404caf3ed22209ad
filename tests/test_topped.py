"""Tests for the topped-query effective syntax (Section 5.2, Theorem 5.1)."""

import pytest

from repro.algebra.atoms import RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.fo import atom, conj, disj, eq, evaluate_fo, exists, neg
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Variable
from repro.algebra.views import View, ViewSet
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.topped import analyze_topped, is_topped, topped_plan
from repro.engine.service import QueryService
from repro.errors import QueryError
from repro.storage.indexes import IndexSet
from repro.storage.instance import Database
from repro.storage.updates import Insertion

from conftest import reference

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")

SCHEMA = schema_from_spec({"R": ("a", "b"), "T": ("c", "e")})
ACCESS = AccessSchema(
    (
        AccessConstraint("R", ("a",), ("b",), 3),
        AccessConstraint("T", ("c",), ("e",), 3),
    )
)
NO_VIEWS = ViewSet(())


def make_database():
    db = Database(SCHEMA)
    db.add_many("R", [(1, 1), (2, 2), (1, 7), (3, 3), (7, 8)])
    db.add_many("T", [(1, 1), (1, 5), (2, 9), (4, 1)])
    return db


def check_plan_matches_fo(query, head, views=NO_VIEWS, schema=SCHEMA, access=ACCESS, db=None):
    """Execute the generated plan and compare with active-domain FO evaluation."""
    plan = topped_plan(query, head, schema, views, access)
    assert plan is not None, "query should be topped"
    database = db if db is not None else make_database()
    assert database.satisfies(access)
    view_cache = {}
    for view in views:
        from repro.algebra.evaluation import evaluate_ucq

        view_cache[view.name] = evaluate_ucq(view.as_ucq(), database.facts)
    result = reference(plan, access, IndexSet(database, access), view_cache)
    # Evaluate the query directly; view atoms read from the materialised cache.
    facts = dict(database.facts)
    facts.update(view_cache)
    expected = evaluate_fo(query, facts, head=head)
    assert result.rows == expected
    return plan, result


def test_constant_equality_is_topped():
    query = eq(X, 1)
    assert is_topped(query, SCHEMA, NO_VIEWS, ACCESS, max_size=2)
    analysis = analyze_topped(query, SCHEMA, NO_VIEWS, ACCESS)
    assert analysis.covered and analysis.size == 1


def test_anchored_atom_is_topped_and_plan_is_correct():
    # ∃b-free version: Q(y) = R(1, y).
    query = atom("R", Constant(1), Y)
    assert is_topped(query, SCHEMA, NO_VIEWS, ACCESS, max_size=4)
    check_plan_matches_fo(query, head=(Y,))


def test_unanchored_atom_is_not_topped_without_views():
    query = atom("R", X, Y)
    assert not is_topped(query, SCHEMA, NO_VIEWS, ACCESS, max_size=10)


def test_view_atom_is_always_topped():
    view = View("VR", ConjunctiveQuery(head=(X, Y), atoms=(RelationAtom("R", (X, Y)),)))
    views = ViewSet((view,))
    query = atom("VR", X, Y)
    assert is_topped(query, SCHEMA, views, ACCESS, max_size=2)
    check_plan_matches_fo(query, head=(X, Y), views=views)


def test_value_propagation_through_conjunction_case_4a():
    """Q(y, z) = R(1, y) ∧ T(y, z): z is reachable only by propagating y."""
    query = conj(atom("R", Constant(1), Y), atom("T", Y, Z))
    assert is_topped(query, SCHEMA, NO_VIEWS, ACCESS, max_size=10)
    check_plan_matches_fo(query, head=(Y, Z))


def test_existential_projection_case_7c():
    query = exists([Z], conj(atom("R", Constant(1), Y), atom("T", Y, Z)))
    assert is_topped(query, SCHEMA, NO_VIEWS, ACCESS, max_size=10)
    check_plan_matches_fo(query, head=(Y,))


def test_disjunction_requires_same_free_variables():
    good = disj(atom("R", Constant(1), Y), atom("R", Constant(2), Y))
    assert is_topped(good, SCHEMA, NO_VIEWS, ACCESS, max_size=12)
    check_plan_matches_fo(good, head=(Y,))
    bad = disj(atom("R", Constant(1), Y), atom("R", Constant(2), Z))
    assert not is_topped(bad, SCHEMA, NO_VIEWS, ACCESS, max_size=12)


def test_negation_difference_case_6():
    """Q(y) = R(1, y) ∧ ¬R(2, y)."""
    query = conj(atom("R", Constant(1), Y), neg(atom("R", Constant(2), Y)))
    assert is_topped(query, SCHEMA, NO_VIEWS, ACCESS, max_size=12)
    check_plan_matches_fo(query, head=(Y,))


def test_negation_with_value_propagation_case_6b():
    """Q(y) = R(1, y) ∧ ¬T(y, 5): the negated atom is only reachable by
    propagating y from the positive part (case 6b with K = 1)."""
    query = conj(atom("R", Constant(1), Y), neg(exists([Z], conj(atom("T", Y, Z), eq(Z, 5)))))
    # The inner conjunct has size 2 > K=1, so raise the cut-off.
    assert is_topped(query, SCHEMA, NO_VIEWS, ACCESS, max_size=30, inner_size_cutoff=2)
    plan = topped_plan(query, (Y,), SCHEMA, NO_VIEWS, ACCESS, inner_size_cutoff=2)
    assert plan is not None
    database = make_database()
    rows = reference(plan, ACCESS, IndexSet(database, ACCESS), {}).rows
    assert rows == evaluate_fo(query, database.facts, head=(Y,))


def test_inner_size_cutoff_admits_conjuncts_of_up_to_k_atoms_as_written():
    """The K cut-off of case 4c: R(1, y) ∧ (T(y, z0) ∧ R(z0, z1) ∧ ...) with a
    w-atom inner conjunct is topped as written iff K ≥ w."""
    for width in (2, 4, 6):
        chain, last = [], Y
        for index in range(width):
            target = Variable(f"z{index}")
            chain.append(atom("T" if index % 2 == 0 else "R", last, target))
            last = target
        query = conj(atom("R", Constant(1), Y), conj(*chain))
        for cutoff in (1, 2, 4, 8):
            plan = topped_plan(
                query, (last,), SCHEMA, NO_VIEWS, ACCESS, inner_size_cutoff=cutoff
            )
            assert (plan is not None) == (cutoff >= width), (width, cutoff)


def test_size_estimate_respects_bound_m():
    query = conj(atom("R", Constant(1), Y), atom("T", Y, Z))
    analysis = analyze_topped(query, SCHEMA, NO_VIEWS, ACCESS)
    assert analysis.covered
    assert is_topped(query, SCHEMA, NO_VIEWS, ACCESS, max_size=int(analysis.size))
    assert not is_topped(query, SCHEMA, NO_VIEWS, ACCESS, max_size=int(analysis.size) - 1)


def test_pure_negation_is_not_topped():
    assert not is_topped(neg(atom("R", X, Y)), SCHEMA, NO_VIEWS, ACCESS, max_size=10)


def test_plan_fetches_constant_amount():
    query = conj(atom("R", Constant(1), Y), atom("T", Y, Z))
    plan = topped_plan(query, (Y, Z), SCHEMA, NO_VIEWS, ACCESS)
    small = make_database()
    big = make_database()
    big.add_many("R", [(100 + i, 200 + i) for i in range(300)])
    big.add_many("T", [(200 + i, 300 + i) for i in range(300)])
    assert big.satisfies(ACCESS)

    def fetched(db):
        return reference(plan, ACCESS, IndexSet(db, ACCESS), {}).stats.tuples_fetched

    assert fetched(small) == fetched(big)


def test_example_53_query_q3_is_topped():
    """Example 5.3: q3(z) = q4(z) ∧ ¬∃w R(z, w) over R1 = {R(A,B), T(C,E)}.

    q4(z) = ∃x∃y (V3(x, y) ∧ x = 1 ∧ R(y, z)) with the view
    V3(x, y) = R(y, y) ∧ T(x, y); A2 = {R(A -> B, N), T(C -> E, N)}.
    """
    schema = schema_from_spec({"R": ("A", "B"), "T": ("C", "E")})
    access = AccessSchema(
        (
            AccessConstraint("R", ("A",), ("B",), 3),
            AccessConstraint("T", ("C",), ("E",), 3),
        )
    )
    v3 = View(
        "V3",
        ConjunctiveQuery(
            head=(X, Y),
            atoms=(RelationAtom("R", (Y, Y)), RelationAtom("T", (X, Y))),
            name="V3_def",
        ),
    )
    views = ViewSet((v3,))
    q4 = exists([X, Y], conj(atom("V3", X, Y), eq(X, 1), atom("R", Y, Z)))
    q3 = conj(q4, neg(exists([W], atom("R", Z, W))))

    # The paper's counting gives size 13; the estimate stays within 20.
    assert is_topped(q3, schema, views, access, max_size=20, inner_size_cutoff=1)
    plan = topped_plan(q3, (Z,), schema, views, access)
    assert plan is not None

    # Execute on an instance satisfying A2 and compare with direct evaluation.
    db = Database(schema)
    db.add_many("R", [(7, 7), (7, 3), (2, 9), (9, 1), (5, 5)])
    db.add_many("T", [(1, 7), (1, 5), (2, 7)])
    assert db.satisfies(access)
    from repro.algebra.evaluation import evaluate_ucq

    view_cache = {"V3": evaluate_ucq(v3.as_ucq(), db.facts)}
    rows = reference(plan, access, IndexSet(db, access), view_cache).rows
    facts = dict(db.facts)
    facts.update(view_cache)
    expected = evaluate_fo(q3, facts, head=(Z,))
    assert rows == expected
    assert (3,) in expected  # z = 3 has an incoming R-edge from 7 but no outgoing one

    # The same query through the serving path: topped queries are written
    # over R ∪ V, so an FO query may name the view as an atom.
    service = QueryService(db, access, views)
    answer = service.query(q3, head=(Z,))
    assert answer.used_bounded_plan and answer.rows == rows
    assert service.query(q3, head=(Z,)).cache_hit
    assert service.query(q3, head=(Z,)).execution_tier == "compiled"
    # Writes to the view's base relations change V3, not the plan: the entry
    # and its closure stay and read the maintained view.
    for update in (Insertion("R", (5, 4)), Insertion("T", (2, 5))):
        service.apply([update])
        kept = service.query(q3, head=(Z,))
        assert kept.cache_hit and kept.execution_tier == "compiled"
        facts = dict(db.facts)
        facts.update(service.view_cache)
        assert kept.rows == evaluate_fo(q3, facts, head=(Z,))
        with QueryService(db, access, views) as fresh:
            entry, _ = fresh.plan(q3, head=(Z,))
            replanned = fresh.execute_plan(entry.plan)
        assert (kept.rows, kept.tuples_fetched) == (
            replanned.rows, replanned.stats.tuples_fetched
        )
    assert (4,) in kept.rows
    # Without a bounded plan there is nothing to answer from: the full-scan
    # baseline cannot read views.
    with pytest.raises(QueryError, match="cannot read views"):
        service.query(conj(atom("V3", X, Y), atom("R", Z, W)), head=(X, Y, Z, W))
