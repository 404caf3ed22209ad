"""Chasing tableaux with FD-shaped access constraints.

When every constraint of the access schema has bound ``N = 1`` (functional
dependencies with an index), the tableau of a CQ can be *chased*: whenever two
atoms of the same relation agree on the ``X`` attributes of a constraint
``R(X -> Y, 1)`` but disagree on ``Y``, the ``Y`` terms are unified.  The
chase terminates, the result ``Q_A`` is A-equivalent to ``Q`` and its tableau
satisfies ``A`` (Corollary 4.4 and Proposition 4.5 build on this), which makes
A-containment checkable by a single classical containment test instead of an
exponential element-query sweep.
"""

from __future__ import annotations

from ..algebra.cq import ConjunctiveQuery
from ..algebra.schema import DatabaseSchema
from ..errors import UnsupportedQueryError
from .access import AccessSchema
from .element_queries import iter_minimal_element_queries


def chase_with_fds(
    query: ConjunctiveQuery,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
) -> ConjunctiveQuery | None:
    """Chase the query's tableau with the FD-shaped constraints of ``A``.

    Only constraints with ``bound == 1`` participate (constraints with larger
    bounds impose no equalities).  Returns the chased, normalised query, or
    ``None`` when the chase fails — i.e. the query is A-unsatisfiable.

    Raises :class:`UnsupportedQueryError` when called with an access schema
    that is not FD-only, to avoid silently producing a query that is *not*
    A-equivalent to the input.
    """
    if not access_schema.is_fd_only:
        raise UnsupportedQueryError(
            "chase_with_fds requires an FD-only access schema; use the "
            "element-query based procedures for general access schemas"
        )
    return chase_applying_fds(query, access_schema, schema)


def chase_applying_fds(
    query: ConjunctiveQuery,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
) -> ConjunctiveQuery | None:
    """Apply the FD-shaped constraints (``bound == 1``) of any access schema.

    Unlike :func:`chase_with_fds` this does not require the schema to be
    FD-only; it simply ignores the non-FD constraints.  The result is always
    A-contained in the original query and A-equivalent to it (the equalities
    applied are forced by ``A``), but its tableau is only guaranteed to
    satisfy ``A`` when the schema is FD-only.
    """
    fds = AccessSchema(c for c in access_schema if c.bound == 1)
    # FDs never branch: the disjunctive chase has at most one leaf, and none
    # exactly when two distinct constants would have to be equated.
    for leaf in iter_minimal_element_queries(query, fds, schema):
        return ConjunctiveQuery(head=leaf.head, atoms=leaf.atoms, name=f"{query.name}_chased")
    return None
