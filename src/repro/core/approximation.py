"""Approximate query answering with a bounded resource ratio α.

The paper's concluding section sketches two relaxations of bounded
evaluation that this module implements:

* instead of requiring the accessed fragment ``D_Q`` to have *constant* size,
  allow it to be an **α-fraction** of the data: ``|D_Q| ≤ α·|D|`` for a
  "resource ratio" ``α ∈ [0, 1]`` chosen from the available budget;
* compute **approximate answers** ``Q(D_Q)`` together with a deterministic
  accuracy measure relating them to the exact answers ``Q(D)``.

For monotone queries (CQ/UCQ) every answer computed over a sub-instance is an
exact answer (``Q(D_Q) ⊆ Q(D)``), so approximation only loses *recall*, never
precision; the accuracy measures below quantify exactly that, plus the
distance-based ``η`` bound of the paper's formulation ("for any t ∈ Q(D)
there exists s ∈ Q(D_Q) within distance η, and conversely").

The fragment ``D_Q`` is built *data-driven*, in the spirit of [Cao & Fan
2017]: fetches anchored at the query's constants go first (they are the
cheapest and the most informative), values retrieved this way anchor further
fetches (the same propagation the bounded plans use), and any remaining
budget is spent on a deterministic sample of the relations the query still
needs.  All access is counted, so ``|D_Q| ≤ α·|D|`` holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ..algebra.cq import ConjunctiveQuery
from ..algebra.evaluation import evaluate_ucq
from ..algebra.schema import DatabaseSchema
from ..algebra.terms import Constant, Variable
from ..algebra.ucq import QueryLike, as_union
from ..errors import EvaluationError
from ..storage.generators import rng
from ..storage.instance import Database
from .access import AccessSchema


# --------------------------------------------------------------------------- #
# Resource budgets
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ResourceRatio:
    """A resource ratio ``α ∈ [0, 1]``: the fraction of ``|D|`` we may access."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise EvaluationError(f"resource ratio must lie in [0, 1], got {self.alpha}")

    def budget_for(self, database: Database) -> int:
        """The tuple budget ``⌈α·|D|⌉`` for a concrete database."""
        return math.ceil(self.alpha * database.size)


# --------------------------------------------------------------------------- #
# Approximate answers
# --------------------------------------------------------------------------- #


@dataclass
class ApproximateAnswer:
    """Result of :func:`approximate_answer`.

    ``rows`` are the answers computed over the accessed fragment; for CQ/UCQ
    they are guaranteed to be exact answers (``precision = 1``).
    ``tuples_accessed`` is ``|D_Q|``; ``budget`` the cap it respected;
    ``fragment_sizes`` breaks the fragment down by relation.
    """

    rows: frozenset[tuple]
    tuples_accessed: int
    budget: int
    alpha: float
    fragment_sizes: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)


class _FragmentBuilder:
    """Accumulates the accessed fragment ``D_Q`` under a tuple budget."""

    def __init__(self, database: Database, budget: int) -> None:
        self.database = database
        self.budget = budget
        self.fragment: dict[str, set[tuple]] = {name: set() for name in database.schema.names}
        self.accessed = 0

    @property
    def exhausted(self) -> bool:
        return self.accessed >= self.budget

    def add(self, relation: str, rows: Iterable[tuple]) -> None:
        for row in rows:
            if self.exhausted:
                return
            if row not in self.fragment[relation]:
                self.fragment[relation].add(row)
                self.accessed += 1

    def facts(self) -> dict[str, set[tuple]]:
        return self.fragment

    def sizes(self) -> dict[str, int]:
        return {name: len(rows) for name, rows in self.fragment.items() if rows}


def _anchored_fetches(
    disjunct: ConjunctiveQuery,
    database: Database,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    builder: _FragmentBuilder,
) -> dict[Variable, set[object]]:
    """Fetch tuples for atoms whose constraint keys are grounded, propagating values.

    Returns the bindings collected for covered variables, which later rounds
    use as anchors.  Every tuple added to the fragment goes through an access
    constraint's index semantics (group the relation by the key attributes),
    so the fetch sizes are governed by the constraint bounds.
    """
    bindings: dict[Variable, set[object]] = {}
    changed = True
    while changed and not builder.exhausted:
        changed = False
        for atom in disjunct.atoms:
            relation = schema.relation(atom.relation)
            for constraint in access_schema.for_relation(atom.relation):
                x_positions = relation.positions(constraint.x)
                key_terms = [atom.terms[p] for p in x_positions]
                key_values: list[set[object]] = []
                grounded = True
                for term in key_terms:
                    if isinstance(term, Constant):
                        key_values.append({term.value})
                    elif term in bindings:
                        key_values.append(bindings[term])
                    else:
                        grounded = False
                        break
                if not grounded:
                    continue
                matches = _index_lookup(database, atom.relation, x_positions, key_values)
                before = builder.accessed
                builder.add(atom.relation, matches)
                if builder.accessed == before:
                    continue
                changed = True
                for row in matches:
                    for position, term in enumerate(atom.terms):
                        if isinstance(term, Variable):
                            bindings.setdefault(term, set()).add(row[position])
                if builder.exhausted:
                    return bindings
    return bindings


def _index_lookup(
    database: Database,
    relation: str,
    x_positions: Sequence[int],
    key_values: Sequence[set[object]],
) -> list[tuple]:
    """All tuples of ``relation`` whose key attributes take one of the given values."""
    matches = []
    for row in database.relation(relation):
        if all(row[p] in allowed for p, allowed in zip(x_positions, key_values)):
            matches.append(row)
    return matches


def approximate_answer(
    query: QueryLike,
    database: Database,
    access_schema: AccessSchema,
    alpha: float,
    seed: int = 0,
) -> ApproximateAnswer:
    """Answer ``query`` by accessing at most ``⌈α·|D|⌉`` tuples of ``database``.

    The fragment is built in three phases — constant-anchored fetches, value
    propagation, and a deterministic sample of the still-needed relations —
    and the query is then evaluated over the fragment only.  With ``α = 1``
    the answer is exact; smaller ``α`` trades recall for access.
    """
    ratio = ResourceRatio(alpha)
    budget = ratio.budget_for(database)
    schema = database.schema
    union = as_union(query)
    builder = _FragmentBuilder(database, budget)
    generator = rng(seed)

    # Phases 1 + 2: anchored fetches with value propagation, per disjunct.
    for disjunct in union.satisfiable_disjuncts():
        if builder.exhausted:
            break
        _anchored_fetches(disjunct.normalize(), database, access_schema, schema, builder)

    # Phase 3: spend any remaining budget on the relations the query touches.
    if not builder.exhausted:
        needed = sorted(union.relation_names)
        for relation in needed:
            if builder.exhausted:
                break
            rows = sorted(database.relation(relation).tuples, key=repr)
            generator.shuffle(rows)
            builder.add(relation, rows)

    rows = evaluate_ucq(union, builder.facts())
    return ApproximateAnswer(
        rows=frozenset(rows),
        tuples_accessed=builder.accessed,
        budget=budget,
        alpha=alpha,
        fragment_sizes=builder.sizes(),
    )


# --------------------------------------------------------------------------- #
# Accuracy measures
# --------------------------------------------------------------------------- #


def answer_coverage(approximate: Iterable[tuple], exact: Iterable[tuple]) -> float:
    """Recall of the approximate answers: ``|approx ∩ exact| / |exact|``.

    Returns 1.0 when the exact answer set is empty (nothing was missed).
    """
    exact_set = set(map(tuple, exact))
    if not exact_set:
        return 1.0
    approx_set = set(map(tuple, approximate))
    return len(approx_set & exact_set) / len(exact_set)


def answer_precision(approximate: Iterable[tuple], exact: Iterable[tuple]) -> float:
    """Precision of the approximate answers (1.0 for monotone queries)."""
    approx_set = set(map(tuple, approximate))
    if not approx_set:
        return 1.0
    exact_set = set(map(tuple, exact))
    return len(approx_set & exact_set) / len(approx_set)


def normalized_hamming(left: Sequence[object], right: Sequence[object]) -> float:
    """Fraction of positions on which two equal-arity tuples disagree."""
    if len(left) != len(right):
        raise EvaluationError("distance requires tuples of equal arity")
    if not left:
        return 0.0
    return sum(1 for a, b in zip(left, right) if a != b) / len(left)


Distance = Callable[[Sequence[object], Sequence[object]], float]


def distance_bound(
    approximate: Iterable[tuple],
    exact: Iterable[tuple],
    distance: Distance = normalized_hamming,
) -> float | None:
    """The deterministic accuracy bound ``η`` of the paper's formulation.

    ``η`` is the symmetric Hausdorff-style bound: every exact answer has an
    approximate answer within ``η`` and vice versa.  Returns ``0.0`` when both
    sets are empty and ``None`` when exactly one of them is (no finite bound
    exists).
    """
    approx_list = [tuple(row) for row in approximate]
    exact_list = [tuple(row) for row in exact]
    if not approx_list and not exact_list:
        return 0.0
    if not approx_list or not exact_list:
        return None
    forward = max(min(distance(t, s) for s in approx_list) for t in exact_list)
    backward = max(min(distance(s, t) for t in exact_list) for s in approx_list)
    return max(forward, backward)


@dataclass
class AccuracyPoint:
    """One point of an accuracy sweep: resource ratio vs. answer quality."""

    alpha: float
    budget: int
    tuples_accessed: int
    coverage: float
    precision: float
    eta: float | None
    answers: int
    exact_answers: int


def accuracy_sweep(
    query: QueryLike,
    database: Database,
    access_schema: AccessSchema,
    alphas: Sequence[float],
    seed: int = 0,
    distance: Distance = normalized_hamming,
) -> list[AccuracyPoint]:
    """Evaluate the recall/accuracy of approximate answering across ratios.

    As ``α`` grows the coverage should rise monotonically towards 1 (reaching
    1 at ``α = 1``) while the accessed fraction stays at or below ``α``.
    """
    exact = evaluate_ucq(as_union(query), database.facts)
    points = []
    for alpha in alphas:
        answer = approximate_answer(query, database, access_schema, alpha, seed)
        points.append(
            AccuracyPoint(
                alpha=alpha,
                budget=answer.budget,
                tuples_accessed=answer.tuples_accessed,
                coverage=answer_coverage(answer.rows, exact),
                precision=answer_precision(answer.rows, exact),
                eta=distance_bound(answer.rows, exact, distance),
                answers=len(answer.rows),
                exact_answers=len(exact),
            )
        )
    return points
