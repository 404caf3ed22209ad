"""Property-based tests (hypothesis) for the core data structures and invariants.

The strategies generate small random schemas, instances, access constraints
and conjunctive queries, and check the paper's structural invariants:

* containment is reflexive and transitive, and evaluation is monotone w.r.t.
  containment;
* the tableau/canonical-database duality (a CQ always "answers itself");
* element queries are contained in their query and their tableaux satisfy A;
* ``cov`` is monotone in the access schema, and bounded-output answers are
  consistent with brute-force evaluation growth;
* bounded-plan answers agree with the naive baseline on every generated
  instance (the end-to-end soundness property of the service).
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.atoms import RelationAtom
from repro.algebra.containment import cq_contained_in
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.evaluation import evaluate_cq
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Variable
from repro.algebra.views import ViewSet
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.bounded_output import covered_variables, has_bounded_output
from repro.core.element_queries import element_queries
from repro.engine.service import QueryService
from repro.storage.instance import Database

SCHEMA = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
RELATIONS = {"R": 2, "S": 2}

VALUES = st.integers(min_value=0, max_value=4)
VARIABLES = st.sampled_from([Variable(name) for name in "uvwxyz"])
TERMS = st.one_of(VARIABLES, VALUES.map(Constant))

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@st.composite
def relation_atoms(draw):
    name = draw(st.sampled_from(sorted(RELATIONS)))
    terms = draw(st.tuples(*[TERMS for _ in range(RELATIONS[name])]))
    return RelationAtom(name, terms)


@st.composite
def conjunctive_queries(draw, max_atoms=3):
    atoms = tuple(draw(st.lists(relation_atoms(), min_size=1, max_size=max_atoms)))
    variables = sorted(
        {t for atom in atoms for t in atom.variables}, key=lambda v: v.name
    )
    if variables:
        head_size = draw(st.integers(min_value=0, max_value=min(2, len(variables))))
        head = tuple(variables[:head_size])
    else:
        head = ()
    return ConjunctiveQuery(head=head, atoms=atoms, name="Qrand")


@st.composite
def small_databases(draw, max_rows=6):
    db = Database(SCHEMA)
    for name, arity in RELATIONS.items():
        rows = draw(
            st.lists(st.tuples(*[VALUES for _ in range(arity)]), min_size=0, max_size=max_rows)
        )
        db.add_many(name, rows)
    return db


@st.composite
def access_schemas(draw):
    constraints = []
    if draw(st.booleans()):
        constraints.append(AccessConstraint("R", ("a",), ("b",), draw(st.integers(1, 3))))
    if draw(st.booleans()):
        constraints.append(AccessConstraint("S", ("b",), ("c",), draw(st.integers(1, 3))))
    if draw(st.booleans()):
        constraints.append(AccessConstraint("S", (), ("b", "c"), draw(st.integers(1, 5))))
    return AccessSchema(constraints)


# --------------------------------------------------------------------------- #
# Containment and evaluation
# --------------------------------------------------------------------------- #


@SETTINGS
@given(query=conjunctive_queries())
def test_containment_is_reflexive(query):
    assert cq_contained_in(query, query)


@SETTINGS
@given(query=conjunctive_queries(), database=small_databases())
def test_query_answers_its_own_canonical_database(query, database):
    """The summary is always an answer of Q over its tableau (Chandra–Merlin)."""
    tableau = query.tableau()
    answers = evaluate_cq(query, tableau.facts())
    assert tableau.summary_values() in answers
    del database


@SETTINGS
@given(q1=conjunctive_queries(max_atoms=2), q2=conjunctive_queries(max_atoms=2),
       database=small_databases())
def test_containment_implies_answer_inclusion(q1, q2, database):
    if q1.head_arity != q2.head_arity:
        return
    if cq_contained_in(q1, q2):
        assert evaluate_cq(q1, database.facts) <= evaluate_cq(q2, database.facts)


@SETTINGS
@given(query=conjunctive_queries(), database=small_databases(), extra=small_databases(max_rows=3))
def test_cq_evaluation_is_monotone_in_the_data(query, database, extra):
    merged = database.copy()
    for name, rows in extra.facts.items():
        merged.add_many(name, rows)
    assert evaluate_cq(query, database.facts) <= evaluate_cq(query, merged.facts)


# --------------------------------------------------------------------------- #
# Element queries, cov and bounded output
# --------------------------------------------------------------------------- #


@SETTINGS
@given(query=conjunctive_queries(max_atoms=2), access=access_schemas())
def test_element_queries_invariants(query, access):
    for element in element_queries(query, access, SCHEMA):
        assert cq_contained_in(element, query)
        assert access.satisfied_by(element.tableau().facts(), SCHEMA)


@SETTINGS
@given(query=conjunctive_queries(max_atoms=2), access=access_schemas())
def test_cov_is_monotone_in_the_access_schema(query, access):
    weaker = AccessSchema(tuple(access)[:1])
    assert covered_variables(query, weaker, SCHEMA) <= covered_variables(query, access, SCHEMA)


@SETTINGS
@given(query=conjunctive_queries(max_atoms=2))
def test_queries_with_constant_keys_only_have_bounded_output_when_cov_says_so(query):
    """Consistency of the two BOP paths: the quick sufficient check never
    contradicts the exact element-query decision."""
    access = AccessSchema(
        (
            AccessConstraint("R", ("a",), ("b",), 2),
            AccessConstraint("S", ("b",), ("c",), 2),
        )
    )
    covered = covered_variables(query.normalize(), access, SCHEMA)
    head_vars = {t for t in query.normalize().head if isinstance(t, Variable)}
    if head_vars <= covered:
        assert has_bounded_output(query, access, SCHEMA)


# --------------------------------------------------------------------------- #
# End-to-end service soundness
# --------------------------------------------------------------------------- #


@SETTINGS
@given(database=small_databases(), anchor=VALUES, day=VALUES)
def test_engine_bounded_answers_agree_with_baseline(database, anchor, day):
    access = AccessSchema(
        (
            AccessConstraint("R", ("a",), ("b",), 10),
            AccessConstraint("S", ("b",), ("c",), 10),
        )
    )
    y, z = Variable("y"), Variable("z")
    query = ConjunctiveQuery(
        head=(z,),
        atoms=(RelationAtom("R", (Constant(anchor), y)), RelationAtom("S", (y, z))),
        name="anchored",
    )
    service = QueryService(database, access, ViewSet(()), check_constraints=False)
    answer = service.query(query)
    assert answer.rows == service.baseline(query).rows
    del day
