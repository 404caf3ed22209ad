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
materialisation run.  Yannakakis' evaluator works on plain sets, lists and
dicts: semi-join reductions over materialised atoms, then hash joins.

A *fact set* is a mapping ``relation name -> collection of value tuples``;
:class:`repro.storage.instance.Database` exposes exactly this shape through
``.facts`` — but the evaluators also accept the :class:`Database` itself
(joins probe the relations' cached secondary hash indexes and the join
order consults the maintained cardinality/distinct statistics) or a
pinned :class:`~repro.storage.snapshots.DatabaseSnapshot` (joins probe the
version's own memoised indexes).
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping

from ..errors import EvaluationError, QueryError
from ..exec.cq_compiler import FactsSource, Row, compile_cq
from .acyclicity import join_tree
from .atoms import RelationAtom
from .cq import ConjunctiveQuery
from .terms import Constant, Variable
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


def _atom_relation(
    atom: RelationAtom, source: FactsSource
) -> tuple[tuple[Variable, ...], list[Row]]:
    """One atom as a relation over its distinct variables.

    Constant positions are served from an index keyed on them, rows of
    another arity never reach it, repeated variables are enforced, and the
    columns are the atom's variables in first-occurrence order.
    """
    arity = len(atom.terms)
    constants: list[tuple[int, object]] = []
    first: dict[Variable, int] = {}
    repeats: list[tuple[int, int]] = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            constants.append((position, term.value))
        elif term in first:
            repeats.append((first[term], position))
        else:
            first[term] = position
    if constants:
        index = source.index(atom.relation, [p for p, _ in constants], arity)
        rows: Iterable[Row] = index.get(tuple(v for _, v in constants), ())
    else:
        rows = source.scan(atom.relation, arity)
    kept = tuple(first.values())
    projected = {
        tuple(row[p] for p in kept)
        for row in rows
        if all(row[i] == row[j] for i, j in repeats)
    }
    return tuple(first), list(projected)


def evaluate_cq_yannakakis(query: ConjunctiveQuery, facts: FactsLike) -> set[tuple]:
    """Evaluate an acyclic CQ with Yannakakis' semi-join programme.

    Each atom is materialised (projected onto its variables), parents are
    reduced by their children and children by their reduced parents along
    the join tree, and the fully reduced relations are hash-joined, each
    after its parent: the reducer leaves no dangling rows, so no
    intermediate result is larger than the full join, and the evaluation
    stays polynomial (Lemma 4.3(b) relies on it).  Raises
    :class:`QueryError` when the query is not acyclic.
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
    relations: dict[int, list[Row]] = {}
    for index, atom in enumerate(normalized.atoms):
        schemas[index], relations[index] = _atom_relation(atom, source)

    def reduce(target: int, by: int) -> None:
        left_key, right_key = _shared_positions(schemas[target], schemas[by])
        keys = {tuple(row[p] for p in right_key) for row in relations[by]}
        relations[target] = [
            row for row in relations[target] if tuple(row[p] for p in left_key) in keys
        ]

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

    # Final join over the fully reduced relations, each node after its parent.
    first, *rest = reversed(order)
    schema, rows = schemas[first], relations[first]
    for index in rest:
        right_schema = schemas[index]
        left_key, right_key = _shared_positions(schema, right_schema)
        fresh = [p for p, variable in enumerate(right_schema) if variable not in schema]
        table: dict[Row, list[Row]] = {}
        for row in relations[index]:
            table.setdefault(tuple(row[p] for p in right_key), []).append(
                tuple(row[p] for p in fresh)
            )
        rows = [
            left + extra
            for left in rows
            for extra in table.get(tuple(left[p] for p in left_key), ())
        ]
        schema = schema + tuple(right_schema[p] for p in fresh)

    # Head constants become literal columns; an unsafe head variable raises
    # only when a row reaches the head, as in the loop-nest kernel.
    position_of = {variable: index for index, variable in enumerate(schema)}
    spec: list[tuple[int | None, object]] = []
    for term in normalized.head:
        if isinstance(term, Constant):
            spec.append((None, term.value))
        elif term in position_of:
            spec.append((position_of[term], None))
        elif rows:
            raise EvaluationError(f"unsafe head variable {term} has no binding")
        else:
            return set()
    return {tuple(row[i] if i is not None else v for i, v in spec) for row in rows}


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
