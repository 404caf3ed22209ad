"""Query evaluation over fact sets.

This module provides the evaluation substrate used everywhere in the library:

* :func:`evaluate_cq` — conjunctive-query evaluation;
* :func:`evaluate_ucq` — union of the disjuncts' answers;
* :func:`evaluate_cq_yannakakis` — Yannakakis' algorithm for *acyclic* CQs
  (full reducer via semi-joins along a join tree, then join);
* :func:`evaluate_fo` — active-domain evaluation of full first-order queries
  (lives in :mod:`repro.algebra.fo`; exponential in quantifier rank, as
  expected for FO over the active domain).

:func:`evaluate_cq` and :func:`evaluate_ucq` are thin front ends over the
loop-nest kernel (:func:`repro.exec.cq_compiler.compile_cq`): each
satisfiable disjunct becomes one generated, ``exec``-compiled nest of
scans and index probes that adds its head tuples to one set — the same
kernel the service's full-scan fallback, the baseline engine and view
materialisation run.  Yannakakis' evaluator keeps the operator kernel
(:mod:`repro.exec.operators`): semi-join reductions over materialised atoms.

A *fact set* is a mapping ``relation name -> collection of value tuples``;
:class:`repro.storage.instance.Database` exposes exactly this shape through
``.facts`` — but the evaluators also accept the :class:`Database` itself
(joins probe the relations' cached secondary hash indexes and the greedy
join order consults the maintained cardinality/distinct statistics) or a
pinned :class:`~repro.storage.snapshots.DatabaseSnapshot` (joins probe the
version's own memoised indexes).
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping

from ..errors import QueryError
from ..exec.cq_compiler import FactsSource, atom_scan, compile_cq, head_projection
from ..exec.operators import HashJoin, Operator, Project, Scan, SemiJoin
from .acyclicity import join_tree
from .cq import ConjunctiveQuery
from .terms import Variable
from .ucq import UnionQuery

FactSet = Mapping[str, Collection[tuple]]

#: Inputs the evaluators accept: a fact mapping, a whole Database or a snapshot.
FactsLike = FactSet  # plus a Database or a DatabaseSnapshot (duck-typed)


# --------------------------------------------------------------------------- #
# Conjunctive query evaluation
# --------------------------------------------------------------------------- #


def evaluate_cq(query: ConjunctiveQuery, facts: FactsLike) -> set[tuple]:
    """Evaluate a conjunctive query over a fact set (a ``Database`` or a
    ``DatabaseSnapshot``).

    Returns the set of answer tuples (set semantics).  An unsatisfiable query
    yields the empty set; a query with an empty body yields its head tuple
    when the head is fully constant (the "constant query" of the paper) and
    raises otherwise.  A ``Param`` constant is a plain value here.
    """
    source = FactsSource(facts)
    return compile_cq(query, source).run(source)


def evaluate_ucq(query: UnionQuery | ConjunctiveQuery, facts: FactsLike) -> set[tuple]:
    """Evaluate a UCQ (or CQ) over a fact set (a ``Database`` or a
    ``DatabaseSnapshot``): the union of the disjuncts' answers."""
    source = FactsSource(facts)
    return compile_cq(query, source).run(source)


# --------------------------------------------------------------------------- #
# Yannakakis' algorithm for acyclic CQs
# --------------------------------------------------------------------------- #


def _shared_positions(
    left: tuple[Variable, ...], right: tuple[Variable, ...]
) -> tuple[list[int], list[int]]:
    shared = [variable for variable in left if variable in right]
    return (
        [left.index(variable) for variable in shared],
        [right.index(variable) for variable in shared],
    )


def evaluate_cq_yannakakis(query: ConjunctiveQuery, facts: FactsLike) -> set[tuple]:
    """Evaluate an acyclic CQ with Yannakakis' semi-join programme.

    Each atom is materialised (projected onto its variables), parents are
    reduced by their children and children by their reduced parents with
    :class:`~repro.exec.operators.SemiJoin` along the join tree, and the
    fully reduced relations are hash-joined.  Raises :class:`QueryError`
    when the query is not acyclic.
    """
    if not query.is_satisfiable():
        return set()
    normalized = query.normalize()
    tree = join_tree(normalized)
    if tree is None:
        raise QueryError(f"query {query.name!r} is not acyclic")
    if not normalized.atoms:
        return evaluate_cq(normalized, facts)

    source = FactsSource(facts)
    schemas: dict[int, tuple[Variable, ...]] = {}
    relations: dict[int, list[tuple]] = {}
    for index, atom in enumerate(normalized.atoms):
        operator, schemas[index] = atom_scan(atom, source)
        relations[index] = list(operator.rows())

    def reduce(target: int, by: int) -> None:
        left_key, right_key = _shared_positions(schemas[target], schemas[by])
        relations[target] = list(
            SemiJoin(
                Scan(relations[target]), Scan(relations[by]), left_key, right_key
            ).rows()
        )

    # Upward pass: reduce each parent by its children (post-order).
    order = tree.post_order()
    for node in order:
        parent = tree.parent.get(node)
        if parent is not None:
            reduce(parent, node)
    # Downward pass: reduce children by their (already reduced) parents.
    for node in reversed(order):
        parent = tree.parent.get(node)
        if parent is not None:
            reduce(node, parent)

    # Final join over the fully reduced relations (now safe to join directly).
    current: Operator = Scan(relations[order[0]])
    schema = schemas[order[0]]
    for index in order[1:]:
        right_schema = schemas[index]
        left_key, right_key = _shared_positions(schema, right_schema)
        joined: Operator = HashJoin(current, Scan(relations[index]), left_key, right_key)
        fresh = [
            position
            for position, variable in enumerate(right_schema)
            if variable not in schema
        ]
        kept = tuple(range(len(schema))) + tuple(len(schema) + p for p in fresh)
        current = Project(joined, kept)
        schema = schema + tuple(right_schema[p] for p in fresh)
    return set(head_projection(current, schema, normalized.head).rows())


# --------------------------------------------------------------------------- #
# Active-domain FO evaluation (definition lives in fo.py to avoid a cycle)
# --------------------------------------------------------------------------- #


def active_domain(facts: FactSet, extra: Iterable[object] = ()) -> set[object]:
    """The set of all values occurring in the facts, plus ``extra`` values."""
    domain: set[object] = set(extra)
    for tuples in facts.values():
        for row in tuples:
            domain.update(row)
    return domain
