"""The bounded output problem (BOP) and covered variables.

A query ``V`` has *bounded output* under an access schema ``A`` when there is
a constant ``N`` with ``|V(D)| <= N`` for every instance ``D |= A``
(Section 3.1).  Deciding BOP is coNP-complete for CQ/UCQ/∃FO+ and undecidable
for FO (Theorem 3.4); the decision procedure implemented here follows the
paper's characterisation:

* ``cov(Q, A)`` — the *covered variables* of a CQ whose tableau satisfies
  ``A`` — is computed by the PTIME fixpoint of Section 3.1;
* Lemma 3.6: a CQ satisfying ``A`` has bounded output iff all non-constant
  head variables are covered;
* Lemma 3.7: a CQ/UCQ/∃FO+ query has bounded output iff *every* element query
  of every disjunct has all its head variables covered.

Lemma 3.7 is decided on the *minimal* element queries only (the leaves of the
chase in :func:`~repro.core.element_queries.iter_minimal_element_queries`,
whose module docstring has the argument): coverage survives merging, so a head
variable uncovered in some element query is uncovered in a leaf — usually the
un-merged query.  An :class:`ElementQueryBudget` therefore counts chase nodes.

The module also computes a concrete numeric bound on the output size (the
product of the constraint bounds along the cov derivation), used by the
examples to reproduce statements such as "Q0 can be answered by fetching at
most 2·N0 tuples".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..algebra.cq import ConjunctiveQuery
from ..algebra.schema import DatabaseSchema
from ..algebra.terms import Constant, Variable
from ..algebra.ucq import QueryLike, as_union
from ..errors import UnsupportedQueryError
from .access import AccessSchema
from .element_queries import ElementQueryBudget, iter_minimal_element_queries


def covered_variables(
    query: ConjunctiveQuery,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
) -> frozenset[Variable]:
    """The set ``cov(Q, A)`` of covered (non-constant) variables of ``query``.

    Fixpoint computation: a variable in the ``Y``-positions of an atom
    ``R(x̄, ȳ, z̄)`` becomes covered as soon as all non-constant variables in
    the ``X``-positions are covered, for some constraint ``R(X -> Y, N)``.
    """
    normalized = query.normalize()
    covered: set[Variable] = set()
    changed = True
    while changed:
        changed = False
        for atom in normalized.atoms:
            relation = schema.relation(atom.relation)
            for constraint in access_schema.for_relation(atom.relation):
                x_positions = relation.positions(constraint.x)
                y_positions = relation.positions(constraint.y)
                x_terms = [atom.terms[p] for p in x_positions]
                if all(
                    isinstance(t, Constant) or t in covered for t in x_terms
                ):
                    for position in y_positions:
                        term = atom.terms[position]
                        if isinstance(term, Variable) and term not in covered:
                            covered.add(term)
                            changed = True
    return frozenset(covered)


def coverage_bounds(
    query: ConjunctiveQuery,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
) -> dict[Variable, int]:
    """For each covered variable, an upper bound on its number of valuations.

    The bound of a variable added through constraint ``R(X -> Y, N)`` is
    ``N * prod(bounds of the X-variables)``; constants count as 1.  This is
    the quantity the paper uses informally ("at most N1·N0 + 2·N0 tuples").
    The bounds are upper bounds, not tight counts.
    """
    normalized = query.normalize()
    bounds: dict[Variable, int] = {}
    changed = True
    while changed:
        changed = False
        for atom in normalized.atoms:
            relation = schema.relation(atom.relation)
            for constraint in access_schema.for_relation(atom.relation):
                x_positions = relation.positions(constraint.x)
                y_positions = relation.positions(constraint.y)
                x_terms = [atom.terms[p] for p in x_positions]
                if not all(isinstance(t, Constant) or t in bounds for t in x_terms):
                    continue
                key_bound = 1
                for term in x_terms:
                    if isinstance(term, Variable):
                        key_bound *= bounds[term]
                candidate = key_bound * constraint.bound
                for position in y_positions:
                    term = atom.terms[position]
                    if isinstance(term, Variable):
                        if term not in bounds or candidate < bounds[term]:
                            bounds[term] = candidate
                            changed = True
    return bounds


@dataclass(frozen=True)
class BoundedOutputWitness:
    """Outcome of a bounded-output check.

    ``bounded`` is the decision; when the answer is negative,
    ``counterexample`` is a minimal element query with an uncovered head variable
    (the NP witness of the complement problem in Theorem 3.4);
    ``output_bound`` is a numeric upper bound on the output size when the
    answer is positive (``None`` when only the decision was requested).
    """

    bounded: bool
    counterexample: ConjunctiveQuery | None = None
    uncovered: frozenset[Variable] = frozenset()
    output_bound: int | None = None


def cq_bounded_output(
    query: ConjunctiveQuery,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None = None,
    compute_bound: bool = True,
) -> BoundedOutputWitness:
    """Lemma 3.7 specialised to a single CQ.

    A fast *sufficient* check runs first: if every head variable of the query
    itself (after applying the FD-shaped constraints) is covered, the query
    has bounded output — the ⇐ direction of Lemma 3.6 does not need the
    tableau to satisfy ``A``.  Only when that check fails does the exact
    procedure of Lemma 3.7 run, over the minimal element queries.
    """
    if not query.is_satisfiable():
        return BoundedOutputWitness(bounded=True, output_bound=0)

    quick = _quick_bounded_check(query, access_schema, schema, compute_bound)
    if quick is not None:
        return quick

    overall_bound = 0
    found_element_query = False
    for element_query in iter_minimal_element_queries(query, access_schema, schema, budget):
        found_element_query = True
        covered = covered_variables(element_query, access_schema, schema)
        head_variables = {
            term for term in element_query.tableau().summary if isinstance(term, Variable)
        }
        uncovered = frozenset(head_variables - covered)
        if uncovered:
            return BoundedOutputWitness(
                bounded=False, counterexample=element_query, uncovered=uncovered
            )
        if compute_bound:
            bounds = coverage_bounds(element_query, access_schema, schema)
            element_bound = 1
            for term in element_query.tableau().summary:
                if isinstance(term, Variable):
                    element_bound *= bounds.get(term, 1)
            overall_bound += element_bound
    if not found_element_query:
        # No element query: Q is A-unsatisfiable, hence empty on all D |= A.
        return BoundedOutputWitness(bounded=True, output_bound=0)
    return BoundedOutputWitness(
        bounded=True, output_bound=overall_bound if compute_bound else None
    )


def _quick_bounded_check(
    query: ConjunctiveQuery,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    compute_bound: bool,
) -> BoundedOutputWitness | None:
    """Sufficient PTIME test: head variables covered in the query itself.

    Returns a positive witness when the test succeeds and ``None`` when it is
    inconclusive (the query may still be bounded thanks to equalities forced
    by ``A`` on its element queries).  The FD-shaped constraints are chased in
    first, which both tightens the tableau and can turn head variables into
    constants.
    """
    from .chase import chase_applying_fds  # local import to avoid a cycle at module load

    candidate = query
    if any(c.bound == 1 for c in access_schema):
        chased = chase_applying_fds(query, access_schema, schema)
        if chased is None:
            # The chase equated two distinct constants: the query is
            # A-unsatisfiable, hence empty (and trivially bounded) on D |= A.
            return BoundedOutputWitness(bounded=True, output_bound=0)
        candidate = chased
    covered = covered_variables(candidate, access_schema, schema)
    head_variables = {
        term for term in candidate.normalize().head if isinstance(term, Variable)
    }
    if not head_variables <= covered:
        return None
    if not compute_bound:
        return BoundedOutputWitness(bounded=True)
    bounds = coverage_bounds(candidate, access_schema, schema)
    bound = 1
    for term in candidate.normalize().head:
        if isinstance(term, Variable):
            bound *= bounds.get(term, 1)
    return BoundedOutputWitness(bounded=True, output_bound=bound)


def has_bounded_output(
    query: QueryLike,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None = None,
) -> bool:
    """Decide BOP for a CQ or UCQ (Theorem 3.4 decision procedure).

    ∃FO+ queries should first be converted to UCQ with
    :func:`repro.algebra.fo.to_ucq`; full FO is undecidable — use the
    size-bounded effective syntax (:mod:`repro.core.size_bounded`) instead.
    """
    return bounded_output_witness(
        query, access_schema, schema, budget, compute_bound=False
    ).bounded


def bounded_output_witness(
    query: QueryLike,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None = None,
    compute_bound: bool = True,
) -> BoundedOutputWitness:
    """Like :func:`has_bounded_output` but returns the full witness object."""
    union = as_union(query)
    total_bound = 0
    for disjunct in union.disjuncts:
        witness = cq_bounded_output(disjunct, access_schema, schema, budget, compute_bound)
        if not witness.bounded:
            return witness
        total_bound += witness.output_bound or 0
    return BoundedOutputWitness(
        bounded=True, output_bound=total_bound if compute_bound else None
    )


def output_bound_estimate(
    query: QueryLike,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None = None,
) -> int | None:
    """Numeric upper bound on ``|Q(D)|`` over all ``D |= A`` (``None`` if unbounded)."""
    witness = bounded_output_witness(query, access_schema, schema, budget)
    return witness.output_bound if witness.bounded else None
