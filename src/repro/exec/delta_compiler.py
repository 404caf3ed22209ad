"""Rewrite view definitions into delta rules and support checks — plain CQs.

Incremental maintenance needs two kinds of query per CQ disjunct of a view,
and both are ordinary conjunctive queries (DBToaster's observation that a
first-order delta is a query like any other — Ahmad et al., VLDB 2012 — and
DRed's re-derivation by an existence query — Gupta, Mumick and
Subrahmanian, SIGMOD 1993):

* one **delta rule** per body atom ``i``: the disjunct with atom ``i``
  renamed to :func:`delta_relation` of its relation.  Served the net delta
  rows of that relation under the Δ name, it produces every head row of a
  valuation that maps atom ``i`` to a delta row — once per valuation, which
  is what counting maintenance accumulates;
* one **support check**: the disjunct with a :data:`SEED_RELATION` atom over
  the head terms in front.  Served candidate head rows under that name, it
  returns the candidates the body still derives — DRed's re-derivation
  after over-deletion.

This module generates no code.  :class:`~repro.engine.service.maintenance.
ViewMaintainer` compiles every rule and check with
:func:`repro.exec.cq_compiler.compile_cq` (the Δ or seed atom pinned as the
outermost loop, the rest ordered like any query) once, when the view is
materialised, after :func:`repro.analysis.verify_delta_program` has checked
the rewrite.

Which maintenance strategy a view gets:

* **counting** (:func:`counting_eligible`) — single-CQ views without
  self-joins keep a ``row → number of derivations`` multiset; deletions just
  decrement counts, and a row leaves the view exactly when its count reaches
  zero.  Unsound in general for self-joins (one base tuple can appear in
  several atom positions of the same valuation) and deliberately not used
  across UCQ disjuncts, so
* **DRed** — everything else CQ/UCQ-shaped over-deletes the rows whose
  derivations may use a deleted tuple (candidates intersected with the
  current view) and re-derives survivors through the support check.
"""

from __future__ import annotations

from typing import Sequence

from ..algebra.atoms import RelationAtom
from ..algebra.cq import ConjunctiveQuery
from ..errors import DeltaCompilationError

#: Name of a support check's seed atom, served the candidate head rows.  A
#: delta relation's name is never this bare prefix.
SEED_RELATION = "Δ"


def delta_relation(relation: str) -> str:
    """The name a delta rule's Δ atom reads ``relation``'s net delta rows under."""
    return SEED_RELATION + relation


class CompiledDisjunct:
    """The delta rules (one per body atom, in atom order) and the support
    check of one normalised CQ disjunct."""

    def __init__(self, disjunct: ConjunctiveQuery) -> None:
        self.disjunct = disjunct
        atoms = disjunct.atoms
        self.rules: tuple[ConjunctiveQuery, ...] = tuple(
            ConjunctiveQuery(
                head=disjunct.head,
                atoms=atoms[:index]
                + (RelationAtom(delta_relation(atom.relation), atom.terms),)
                + atoms[index + 1 :],
                name=f"{disjunct.name}_delta{index}",
            )
            for index, atom in enumerate(atoms)
        )
        self.support = ConjunctiveQuery(
            head=disjunct.head,
            atoms=(RelationAtom(SEED_RELATION, disjunct.head),) + atoms,
            name=f"{disjunct.name}_support",
        )
        self.relations = frozenset(atom.relation for atom in atoms)


class CompiledViewDelta:
    """A view's delta program: per-disjunct rules plus the chosen strategy."""

    def __init__(self, name: str, disjuncts: Sequence[ConjunctiveQuery]) -> None:
        self.name = name
        self.disjuncts = tuple(CompiledDisjunct(d) for d in disjuncts)
        self.counting = counting_eligible(disjuncts)
        self.relations = frozenset(
            relation for disjunct in self.disjuncts for relation in disjunct.relations
        )

    @property
    def mode(self) -> str:
        return "counting" if self.counting else "dred"


def counting_eligible(disjuncts: Sequence[ConjunctiveQuery]) -> bool:
    """Counting maintenance is used for single-CQ views without self-joins;
    everything else falls back to DRed (see the module docstring)."""
    if len(disjuncts) != 1:
        return False
    names = [atom.relation for atom in disjuncts[0].atoms]
    return len(names) == len(set(names))


def compile_view_delta(
    name: str, disjuncts: Sequence[ConjunctiveQuery]
) -> CompiledViewDelta:
    """Rewrite the (already normalised) disjuncts of a CQ/UCQ view.

    Raises :class:`~repro.errors.DeltaCompilationError` (a subclass of
    :class:`~repro.errors.UnsupportedQueryError`) naming the view for a
    disjunct without relation atoms: there is nothing to anchor a delta on.
    Everything else about the rewrite — relations, arities, a safe head — is
    checked by :func:`repro.analysis.verify_delta_program`.
    """
    for disjunct in disjuncts:
        if not disjunct.atoms:
            raise DeltaCompilationError(
                f"view {name!r} has a disjunct without relation atoms; "
                "incremental maintenance needs at least one body atom",
                view_name=name,
            )
    return CompiledViewDelta(name, disjuncts)
