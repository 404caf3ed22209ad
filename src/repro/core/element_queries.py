"""Element queries of a conjunctive query under an access schema.

Section 3.1 of the paper regards a CQ ``Q`` posed on instances satisfying an
access schema ``A`` as a union of special CQs ``Qe = Q ∧ ψ``, its *element
queries*: ``ψ`` is a conjunction of equalities among the variables and
constants of ``Q`` such that the tableau of ``Qe`` — viewed as an instance in
which the remaining variables are pairwise-distinct constants — satisfies
``A``.  Key facts used throughout the library:

* every element query is (classically) contained in ``Q``;
* ``Q`` is A-equivalent to the union of its (satisfiable) element queries;
* a CQ has at most exponentially many element queries, which is the source of
  the coNP/Σp3 lower bounds of Theorems 3.4 and 3.1.

:func:`iter_element_queries` is that *definition*, a sweep over every
equality pattern (Bell-number many).  The decision procedures (bounded
output, A-containment, A-satisfiability) instead call
:func:`iter_minimal_element_queries`, a disjunctive chase: start from the
normalised query; while the tableau violates some ``R(X -> Y, N)`` — ``N+1``
atoms agreeing on ``X`` with pairwise distinct ``Y``-tuples — branch on each
of the ``C(N+1, 2)`` pairs and unify the two ``Y``-tuples; a node without a
violation is a *leaf*, an element query.  Deciding on the leaves is exact:

* *Completeness.*  An element query ``Qe = Q ∧ ψ`` satisfies ``A``, so for
  every violated group met on the way ``ψ`` already equates two of its
  ``N+1`` ``Y``-tuples; following that branch keeps the current node a
  refinement of ``ψ``.  Hence every element query is a coarsening (the image
  of a leaf under further merging), and leaves exist iff element queries do.
* *Monotonicity.*  If ``h`` merges a leaf ``L`` into ``Qe`` then
  ``h(cov(L, A)) ⊆ cov(Qe, A) ∪ constants`` (induction on the cov fixpoint:
  the image of an atom has covered-or-constant ``X``-terms).  "All head
  variables covered in every element query" (Lemma 3.7) therefore holds iff
  it holds in every leaf, and a counterexample, when there is one, is found
  among the leaves — usually at the root.
* *Bound.*  ``Qe ⊆ L`` classically, so ``Q ≡_A ⋃ leaves``: containment in a
  third query is decided on the leaves, and summing output bounds over the
  leaves gives an upper bound no larger than the sum over all element queries.

Both enumerations are exponential in the worst case; an
:class:`ElementQueryBudget` keeps them predictable and raises
:class:`repro.errors.BudgetExceededError` when exceeded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from ..algebra.atoms import RelationAtom
from ..algebra.cq import ConjunctiveQuery
from ..algebra.schema import DatabaseSchema
from ..algebra.terms import Constant, Term, Variable
from ..errors import BudgetExceededError
from .access import AccessConstraint, AccessSchema


@dataclass
class ElementQueryBudget:
    """Budget for element-query enumeration.

    ``max_partitions`` bounds the number of candidate equality patterns
    examined — chase nodes for :func:`iter_minimal_element_queries`, whole
    partitions for :func:`iter_element_queries`; ``max_element_queries``
    bounds the number of element queries produced (both per top-level call).
    """

    max_partitions: int = 500_000
    max_element_queries: int = 100_000

    def partitions_guard(self, count: int) -> None:
        if count > self.max_partitions:
            raise BudgetExceededError(
                f"element-query enumeration examined more than {self.max_partitions} "
                "equality patterns; raise the ElementQueryBudget or use the "
                "effective-syntax path"
            )

    def results_guard(self, count: int) -> None:
        if count > self.max_element_queries:
            raise BudgetExceededError(
                f"more than {self.max_element_queries} element queries produced; "
                "raise the ElementQueryBudget or use the effective-syntax path"
            )


DEFAULT_BUDGET = ElementQueryBudget()


def _iter_partitions(
    variables: Sequence[Variable],
    constants: Sequence[Constant],
    budget: ElementQueryBudget,
) -> Iterator[list[list[Term]]]:
    """Enumerate partitions of the query's terms into equality classes.

    Each distinct constant seeds its own block (two constants can never be
    equated — such element queries are unsatisfiable and skipped outright);
    variables are then placed either into an existing block or into a new one,
    in restricted-growth order so every partition is produced exactly once.
    """
    seed_blocks: list[list[Term]] = [[constant] for constant in constants]
    examined = 0

    def place(index: int, blocks: list[list[Term]], new_blocks: int) -> Iterator[list[list[Term]]]:
        nonlocal examined
        if index == len(variables):
            examined += 1
            budget.partitions_guard(examined)
            yield [list(block) for block in blocks]
            return
        variable = variables[index]
        # Join any existing block.
        for block in blocks:
            block.append(variable)
            yield from place(index + 1, blocks, new_blocks)
            block.pop()
        # Open a new block (restricted growth: new blocks are appended in order).
        blocks.append([variable])
        yield from place(index + 1, blocks, new_blocks + 1)
        blocks.pop()

    yield from place(0, seed_blocks, 0)


def _partition_substitution(blocks: list[list[Term]]) -> dict[Term, Term]:
    """Map every term of each block to the block's representative.

    The representative is the block's constant when present, otherwise the
    variable with the smallest name (for deterministic output).
    """
    mapping: dict[Term, Term] = {}
    for block in blocks:
        constants = [t for t in block if isinstance(t, Constant)]
        if constants:
            representative: Term = constants[0]
        else:
            representative = min(
                (t for t in block if isinstance(t, Variable)), key=lambda v: v.name
            )
        for term in block:
            if term != representative:
                mapping[term] = representative
    return mapping


def iter_element_queries(
    query: ConjunctiveQuery,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None = None,
) -> Iterator[ConjunctiveQuery]:
    """Yield the (satisfiable, deduplicated) element queries of ``query``.

    Element queries are yielded in their normalised form: the equalities of
    ``ψ`` are already folded into the atoms, so ``Qe.tableau()`` is the
    tableau the paper reasons about.  Deduplication is by tableau, since
    different equality patterns can induce the same tableau.
    """
    budget = budget or DEFAULT_BUDGET
    if not query.is_satisfiable():
        return
    normalized = query.normalize()
    variables = sorted(normalized.variables, key=lambda v: v.name)
    constants = sorted(normalized.constants, key=lambda c: repr(c.value))

    seen: set[tuple[frozenset, tuple]] = set()
    produced = 0
    for blocks in _iter_partitions(variables, constants, budget):
        mapping = _partition_substitution(blocks)
        candidate = normalized.substitute(mapping).normalize()
        tableau = candidate.tableau()
        key = (tableau.atoms, tableau.summary)
        if key in seen:
            continue
        if not access_schema.satisfied_by(tableau.facts(), schema):
            continue
        seen.add(key)
        produced += 1
        budget.results_guard(produced)
        yield ConjunctiveQuery(
            head=candidate.head,
            atoms=candidate.atoms,
            equalities=(),
            name=f"{query.name}_e{produced}",
        )


def element_queries(
    query: ConjunctiveQuery,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None = None,
) -> list[ConjunctiveQuery]:
    """Materialise all element queries (see :func:`iter_element_queries`)."""
    return list(iter_element_queries(query, access_schema, schema, budget))


def _violated_group(
    atoms: Sequence[RelationAtom],
    constraints: Sequence[AccessConstraint],
    schema: DatabaseSchema,
) -> list[tuple[Term, ...]] | None:
    """``N + 1`` pairwise distinct ``Y``-tuples sharing an ``X``-tuple, if any
    (variables read as pairwise distinct constants)."""
    for constraint in constraints:
        x_positions, y_positions = constraint.positions(schema)
        groups: dict[tuple[Term, ...], dict[tuple[Term, ...], None]] = {}
        for atom in atoms:
            if atom.relation != constraint.relation:
                continue
            y_tuples = groups.setdefault(tuple(atom.terms[p] for p in x_positions), {})
            y_tuples[tuple(atom.terms[p] for p in y_positions)] = None
            if len(y_tuples) > constraint.bound:
                return list(y_tuples)
    return None


def _unifier(left: Sequence[Term], right: Sequence[Term]) -> dict[Term, Term] | None:
    """Substitution equating two term tuples termwise, ``None`` on a constant clash.

    Representatives follow :func:`_partition_substitution` (the constant, else
    the smallest variable name), so a leaf is literally one of
    :func:`iter_element_queries`' results.
    """
    parent: dict[Term, Term] = {}

    def find(term: Term) -> Term:
        while term in parent:
            term = parent[term]
        return term

    for a, b in zip(left, right):
        keep, drop = find(a), find(b)
        if keep == drop:
            continue
        if isinstance(drop, Constant):
            if isinstance(keep, Constant):
                return None
            keep, drop = drop, keep
        elif isinstance(keep, Variable) and drop.name < keep.name:
            keep, drop = drop, keep
        parent[drop] = keep
    return {term: find(term) for term in parent}


def iter_minimal_element_queries(
    query: ConjunctiveQuery,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None = None,
) -> Iterator[ConjunctiveQuery]:
    """Yield the leaves of the disjunctive chase of ``query`` with ``A``.

    Every leaf is an element query (normalised, atoms deduplicated) and every
    element query is a coarsening of some leaf; the module docstring says why
    deciding on the leaves is exact.  ``budget.max_partitions`` bounds the
    chase nodes examined.
    """
    budget = budget or DEFAULT_BUDGET
    if not query.is_satisfiable():
        return
    root = query.normalize()
    atoms_per_relation = Counter(atom.relation for atom in root.atoms)
    # Merging never adds atoms, so a constraint with fewer than N+1 atoms on
    # its relation can never be violated; FDs first, they do not branch.
    constraints = sorted(
        (c for c in access_schema if atoms_per_relation[c.relation] > c.bound),
        key=lambda c: c.bound,
    )

    root_atoms = tuple(dict.fromkeys(root.atoms))
    pending = [(root_atoms, root.head)]
    seen = {(frozenset(root_atoms), root.head)}
    examined = produced = 0
    while pending:
        atoms, head = pending.pop()
        examined += 1
        budget.partitions_guard(examined)
        group = _violated_group(atoms, constraints, schema)
        if group is None:
            produced += 1
            budget.results_guard(produced)
            yield ConjunctiveQuery(head=head, atoms=atoms, name=f"{query.name}_m{produced}")
            continue
        for left, right in combinations(group, 2):
            mapping = _unifier(left, right)
            if mapping is None:
                continue
            merged = tuple(dict.fromkeys(atom.substitute(mapping) for atom in atoms))
            merged_head = tuple(mapping.get(term, term) for term in head)
            key = (frozenset(merged), merged_head)
            if key not in seen:
                seen.add(key)
                pending.append((merged, merged_head))


def has_element_query(
    query: ConjunctiveQuery,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None = None,
) -> bool:
    """A CQ is A-satisfiable iff it has at least one element query.

    (``Q ≡_A ∅`` — the empty query — exactly when no equality pattern makes
    its tableau satisfy ``A``.)
    """
    for _ in iter_minimal_element_queries(query, access_schema, schema, budget):
        return True
    return False
