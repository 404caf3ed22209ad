"""A-containment and A-equivalence of queries (Lemma 3.2).

Under an access schema ``A``, ``Q1 ⊑_A Q2`` holds when ``Q1(D) ⊆ Q2(D)`` for
all instances ``D |= A`` — a weaker requirement than classical containment.
The paper shows the problem is Πp2-complete for CQ/UCQ/∃FO+; the decision
procedure implemented here is the one underlying the upper bound:

    ``Q1 ⊑_A Q2``  iff  every (satisfiable) element query of every disjunct of
    ``Q1`` is *classically* contained in ``Q2``.

Only the *minimal* element queries need testing (the leaves of the chase in
:func:`repro.core.element_queries.iter_minimal_element_queries`): every
element query ``Qe`` is a coarsening of some leaf ``L``, so ``Qe ⊆ L ⊆ Q2``.

Two sound shortcuts keep the common cases cheap:

* classical containment implies A-containment (checked first);
* when ``A`` consists of FDs only, chasing ``Q1`` with the FDs gives a single
  query ``Q1_A`` with ``Q1 ⊑_A Q2  iff  Q1_A ⊆ Q2`` (Corollary 4.4), avoiding
  the branching chase altogether.
"""

from __future__ import annotations

from ..algebra.containment import contained_in, cq_contained_in_ucq
from ..algebra.cq import ConjunctiveQuery
from ..algebra.schema import DatabaseSchema
from ..algebra.ucq import QueryLike, UnionQuery, as_union
from .access import AccessSchema
from .chase import chase_with_fds
from .element_queries import ElementQueryBudget, has_element_query, iter_minimal_element_queries


def a_contained_in(
    query: QueryLike,
    container: QueryLike,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None = None,
) -> bool:
    """Decide ``query ⊑_A container`` for CQ/UCQ queries."""
    left = as_union(query)
    right = as_union(container)

    # Without constraints, A-containment *is* classical containment.
    if not access_schema:
        return contained_in(left, right)

    # Sound fast path: classical containment implies A-containment.
    if contained_in(left, right):
        return True

    # Complete fast path for FD-only access schemas (Corollary 4.4).
    if access_schema.is_fd_only:
        for disjunct in left.disjuncts:
            chased = chase_with_fds(disjunct, access_schema, schema)
            if chased is None:
                continue  # Disjunct is A-unsatisfiable: contained in anything.
            if not cq_contained_in_ucq(chased, right):
                return False
        return True

    # General case: the minimal element queries of every disjunct.
    for disjunct in left.disjuncts:
        for element_query in iter_minimal_element_queries(
            disjunct, access_schema, schema, budget
        ):
            if not cq_contained_in_ucq(element_query, right):
                return False
    return True


def a_equivalent(
    query: QueryLike,
    other: QueryLike,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None = None,
) -> bool:
    """Decide ``query ≡_A other`` (mutual A-containment)."""
    return a_contained_in(query, other, access_schema, schema, budget) and a_contained_in(
        other, query, access_schema, schema, budget
    )


def is_a_satisfiable(
    query: QueryLike,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None = None,
) -> bool:
    """Is there an instance ``D |= A`` on which the query returns an answer?

    Equivalently, the query is *not* A-equivalent to the empty query.  A CQ is
    A-satisfiable iff it has at least one element query (its tableau, possibly
    after equating some terms, satisfies ``A``).
    """
    union = as_union(query)
    if not access_schema:
        return any(d.is_satisfiable() for d in union.disjuncts)
    for disjunct in union.disjuncts:
        if not disjunct.is_satisfiable():
            continue
        if access_schema.is_fd_only:
            if chase_with_fds(disjunct, access_schema, schema) is not None:
                return True
            continue
        if has_element_query(disjunct, access_schema, schema, budget):
            return True
    return False


def a_equivalent_to_empty(
    query: QueryLike,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None = None,
) -> bool:
    """``Q ≡_A ∅`` — the query returns no answer on any instance satisfying A."""
    return not is_a_satisfiable(query, access_schema, schema, budget)
