"""Differential tests: the disjunctive chase against the paper's definition.

``iter_minimal_element_queries`` replaced the exhaustive equality-pattern sweep
inside the bounded-output, A-containment and A-satisfiability procedures.  The
sweep (``element_queries``) stays as the definition and is the oracle here:
on seeded random CQs × random access schemas the decisions must coincide.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.atoms import RelationAtom
from repro.algebra.containment import contained_in, cq_contained_in_ucq
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.parser import parse_cq
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Variable
from repro.algebra.ucq import as_union
from repro.core import bounded_output as bounded_output_module
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.bounded_output import covered_variables, cq_bounded_output
from repro.core.element_queries import (
    ElementQueryBudget,
    element_queries,
    iter_minimal_element_queries,
)
from repro.core.equivalence import a_contained_in, is_a_satisfiable
from repro.engine import optimizer
from repro.engine.optimizer import build_bounded_plan
from repro.errors import BudgetExceededError
from repro.workloads import cdr

SCHEMA = schema_from_spec({"R": ("a", "b"), "S": ("a", "b", "c"), "T": ("a", "b")})
VARIABLES = [Variable(name) for name in "uvwxyz"]


def random_cq(generator: random.Random, name: str = "Q") -> ConjunctiveQuery:
    """≤ 4 atoms over ≤ 2 relations (so relations repeat), ≤ 6 variables, ≤ 2 constants."""
    relations = generator.sample(sorted(SCHEMA.names), generator.randint(1, 2))
    variables = VARIABLES[: generator.randint(2, 6)]
    constants = [Constant(value) for value in generator.sample(range(4), generator.randint(0, 2))]
    atoms = []
    for _ in range(generator.randint(1, 4)):
        relation = SCHEMA.relation(generator.choice(relations))
        terms = [
            generator.choice(constants)
            if constants and generator.random() < 0.2
            else generator.choice(variables)
            for _ in relation.attributes
        ]
        atoms.append(RelationAtom(relation.name, terms))
    body_variables = sorted({v for atom in atoms for v in atom.variables}, key=lambda v: v.name)
    head = generator.sample(body_variables, min(len(body_variables), generator.randint(0, 2)))
    return ConjunctiveQuery(head=head, atoms=atoms, name=name)


def random_access_schema(generator: random.Random) -> AccessSchema:
    constraints = []
    for _ in range(generator.randint(1, 3)):
        relation = SCHEMA.relation(generator.choice(sorted(SCHEMA.names)))
        attributes = list(relation.attributes)
        generator.shuffle(attributes)
        split = generator.randint(0, len(attributes) - 1)
        x, y = attributes[:split], attributes[split:]
        constraints.append(
            AccessConstraint(relation.name, x, y[: generator.randint(1, len(y))], generator.randint(1, 3))
        )
    return AccessSchema(constraints)


def tableau_key(query: ConjunctiveQuery):
    tableau = query.tableau()
    return tableau.atoms, tableau.summary


def uncovered_head(query: ConjunctiveQuery, access: AccessSchema) -> set[Variable]:
    head = {t for t in query.tableau().summary if isinstance(t, Variable)}
    return head - covered_variables(query, access, SCHEMA)


def test_bounded_output_agrees_with_the_exhaustive_sweep():
    generator = random.Random(20160626)
    unbounded = branching = 0
    for index in range(2000):
        query = random_cq(generator, f"Q{index}")
        access = random_access_schema(generator)
        swept = element_queries(query, access, SCHEMA)
        swept_keys = {tableau_key(e) for e in swept}
        leaves = list(iter_minimal_element_queries(query, access, SCHEMA))
        context = f"{query} under {access!r}"

        assert bool(leaves) == bool(swept), context
        assert {tableau_key(leaf) for leaf in leaves} <= swept_keys, context
        branching += len(leaves) > 1

        expected = all(not uncovered_head(e, access) for e in swept)
        witness = cq_bounded_output(query, access, SCHEMA)
        assert witness.bounded == expected, context
        if not witness.bounded:
            unbounded += 1
            assert witness.counterexample is not None
            assert tableau_key(witness.counterexample) in swept_keys, context
            assert witness.uncovered, context
            assert witness.uncovered <= uncovered_head(witness.counterexample, access), context
    # The sample must exercise both verdicts and genuine branching (N < atoms).
    assert unbounded > 200 and 2000 - unbounded > 200
    assert branching > 20


def swept_a_contained_in(query, container, access) -> bool:
    """The pre-chase general case of ``a_contained_in``, kept as the reference."""
    return all(
        cq_contained_in_ucq(element, as_union(container))
        for element in element_queries(query, access, SCHEMA)
    )


def related_container(generator: random.Random, query: ConjunctiveQuery) -> ConjunctiveQuery:
    """A coarsening of ``query`` — A-contains it only when ``A`` forces the merge — or a random CQ."""
    terms = sorted(query.variables, key=lambda v: v.name) + sorted(query.constants, key=repr)
    if generator.random() < 0.3 or len(terms) < 2:
        other = random_cq(generator, "C")
        return ConjunctiveQuery(head=(), atoms=other.atoms, name="C")
    drop, keep = generator.sample(terms, 2)
    if isinstance(drop, Constant):
        drop, keep = keep, drop
    if isinstance(drop, Constant):
        return query
    merged = query.substitute({drop: keep})
    return ConjunctiveQuery(head=merged.head, atoms=merged.atoms, name="C")


def test_a_containment_and_satisfiability_agree_with_the_exhaustive_sweep():
    generator = random.Random(4)
    general = {True: 0, False: 0}
    for index in range(1200):
        query = random_cq(generator, f"L{index}")
        query = ConjunctiveQuery(head=(), atoms=query.atoms, name=query.name)
        container = related_container(generator, query)
        access = random_access_schema(generator)
        context = f"{query} in {container} under {access!r}"
        expected = swept_a_contained_in(query, container, access)
        assert a_contained_in(query, container, access, SCHEMA) == expected, context
        if not access.is_fd_only and not contained_in(query, container):
            general[expected] += 1
        assert is_a_satisfiable(query, access, SCHEMA) == bool(
            element_queries(query, access, SCHEMA)
        ), context
    # Enough pairs must get past the classical and FD-only fast paths, with both verdicts.
    assert min(general.values()) > 20, general


CDR_SCHEMA = cdr.schema()
CDR_ACCESS = cdr.access_schema()
CDR_TEMPLATES = {
    "calls_region": (
        "Q(callee, region) :- call('p7', callee, 6, duration, cell), cell(cell, region, city)"
    ),
    "callee_profile": (
        "Q(callee, plan) :- call('p7', callee, 6, duration, cell), "
        "customer(callee, name, plan, region)"
    ),
    "premium_callers": (
        "Q(caller) :- call(caller, 'p7', 6, duration, cell), "
        "customer(caller, name, 'premium', region)"
    ),
    "region_analysis": (
        "Q(caller, callee) :- call(caller, callee, day, duration, cell), "
        "customer(caller, name1, plan1, 'north'), customer(callee, name2, plan2, 'south')"
    ),
}
#: The view-assisted fetch input of ``premium_callers``: V_premium ⋈ V_daily, unfolded.
PREMIUM_CALLERS_INPUT = (
    "Q(phone, 6) :- customer(phone, name, 'premium', region), "
    "call(phone, callee, 6, duration, cell)"
)


def test_premium_callers_fetch_input_is_decided_within_a_tiny_budget():
    query = parse_cq(PREMIUM_CALLERS_INPUT)
    tiny = ElementQueryBudget(max_partitions=16)
    witness = cq_bounded_output(query, CDR_ACCESS, CDR_SCHEMA, tiny)
    assert not witness.bounded
    assert witness.uncovered == {Variable("phone")}
    # The definition needs more than a thousand equality patterns for the same input.
    with pytest.raises(BudgetExceededError):
        element_queries(query, CDR_ACCESS, CDR_SCHEMA, ElementQueryBudget(max_partitions=1000))


def test_each_fetch_input_is_decided_once_per_planning_run(monkeypatch):
    """Candidate fragments and the assembled plan share inputs; the memo must not change plans."""
    decisions = 0
    inputs: set = set()
    real_decide = bounded_output_module.cq_bounded_output
    real_conforms_to = optimizer.conforms_to

    def counting_decide(*args, **kwargs):
        nonlocal decisions
        decisions += 1
        return real_decide(*args, **kwargs)

    def recording(plan, *args, **kwargs):
        inputs.update(f.child for f in plan.fetch_nodes() if f.x_attrs)
        return real_conforms_to(plan, *args, **kwargs)

    def memo_disabled(plan, *args, memo=None, **kwargs):
        return real_conforms_to(plan, *args, **kwargs)

    monkeypatch.setattr(bounded_output_module, "cq_bounded_output", counting_decide)
    views = cdr.views()
    saved = 0
    for name, source in CDR_TEMPLATES.items():
        query = parse_cq(source)
        decisions = 0
        inputs.clear()
        monkeypatch.setattr(optimizer, "conforms_to", recording)
        outcome = build_bounded_plan(query, views, CDR_ACCESS, CDR_SCHEMA)
        assert decisions <= len(inputs), name
        memoised = decisions

        decisions = 0
        monkeypatch.setattr(optimizer, "conforms_to", memo_disabled)
        reference = build_bounded_plan(query, views, CDR_ACCESS, CDR_SCHEMA)
        saved += decisions - memoised
        assert outcome.plan == reference.plan, name
        assert outcome.reason == reference.reason, name
        assert outcome.found == (name != "region_analysis")
    assert saved > 0


def test_rejected_access_paths_are_named_in_the_reason():
    query = parse_cq(CDR_TEMPLATES["region_analysis"])
    outcome = build_bounded_plan(query, cdr.views(), CDR_ACCESS, CDR_SCHEMA)
    assert not outcome.found
    assert outcome.rejected
    assert all(entry in outcome.reason for entry in outcome.rejected)
    assert "call((caller, day) -> (callee), 20) rejected" in outcome.reason
    assert "caller, day uncovered in" in outcome.reason

    # A budget overrun folded into "does not conform" is no longer silent either.
    starved = build_bounded_plan(
        query, cdr.views(), CDR_ACCESS, CDR_SCHEMA, budget=ElementQueryBudget(max_partitions=0)
    )
    assert not starved.found
    assert "exceeded its budget" in starved.reason
