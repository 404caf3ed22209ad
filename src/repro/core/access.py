"""Access schemas: cardinality constraints with associated indices.

An *access constraint* ``R(X -> Y, N)`` (paper, Section 2) states that

* for every ``X``-value ``ā`` occurring in an instance ``D`` of ``R``, there
  are at most ``N`` distinct ``Y``-projections among the tuples with
  ``t[X] = ā``; and
* an index exists that, given ``ā``, returns all ``XY``-projections
  ``D_{R:XY}(X = ā)`` in ``O(N)`` time.

Functional dependencies with an index are the special case ``N = 1``.  An
*access schema* ``A`` is a finite set of access constraints; an instance
satisfies ``A`` when it satisfies every constraint.

The satisfaction test here works over plain *fact sets* (mappings from
relation names to collections of value tuples) so it applies uniformly to
materialised databases (:class:`repro.storage.instance.Database`) and to
query tableaux (where the remaining variables act as distinct labelled
nulls) — the latter is exactly what the element-query machinery of
Section 3.1 needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from ..algebra.schema import DatabaseSchema, RelationSchema
from ..errors import AccessConstraintError

FactSet = Mapping[str, Collection[tuple]]


@dataclass(frozen=True)
class AccessConstraint:
    """An access constraint ``relation(x -> y, bound)``.

    >>> phi1 = AccessConstraint("movie", ("studio", "release"), ("mid",), 100)
    >>> phi1.is_functional_dependency
    False
    """

    relation: str
    x: tuple[str, ...]
    y: tuple[str, ...]
    bound: int

    def __init__(
        self,
        relation: str,
        x: Iterable[str],
        y: Iterable[str],
        bound: int,
    ) -> None:
        x_attrs = tuple(x)
        y_attrs = tuple(y)
        if bound < 1:
            raise AccessConstraintError(
                f"access constraint on {relation!r} must have bound >= 1, got {bound}"
            )
        if len(set(x_attrs)) != len(x_attrs) or len(set(y_attrs)) != len(y_attrs):
            raise AccessConstraintError(
                f"access constraint on {relation!r} repeats attributes: X={x_attrs}, Y={y_attrs}"
            )
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "x", x_attrs)
        object.__setattr__(self, "y", y_attrs)
        object.__setattr__(self, "bound", int(bound))

    # ------------------------------------------------------------------ #

    @property
    def is_functional_dependency(self) -> bool:
        """True when the constraint is an FD with index, i.e. ``N = 1``."""
        return self.bound == 1

    @property
    def output_attributes(self) -> tuple[str, ...]:
        """Attributes returned by a fetch through this constraint: ``X ∪ Y``."""
        return self.x + tuple(a for a in self.y if a not in self.x)

    def validate(self, schema: DatabaseSchema) -> None:
        relation = schema.relation(self.relation)
        for attribute in self.x + self.y:
            if attribute not in relation.attributes:
                raise AccessConstraintError(
                    f"constraint {self} refers to unknown attribute {attribute!r} "
                    f"of relation {self.relation!r}"
                )

    def positions(self, schema: DatabaseSchema) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Return the (X positions, Y positions) within the relation schema."""
        relation = schema.relation(self.relation)
        return relation.positions(self.x), relation.positions(self.y)

    def covers_fetch(self, x_attrs: Sequence[str], y_attrs: Sequence[str]) -> bool:
        """Can a ``fetch(X ∈ S, R, Y)`` operation be served by this constraint?

        Following Section 2, a fetch with input attributes ``x_attrs`` and
        output attributes ``y_attrs`` conforms to the constraint when the
        fetch keys coincide with the constraint's ``X`` and the requested
        attributes are contained in ``X ∪ Y``.
        """
        return set(x_attrs) == set(self.x) and set(y_attrs) <= set(self.x) | set(self.y)

    def satisfied_by(self, facts: FactSet, schema: DatabaseSchema) -> bool:
        """Check the cardinality part of the constraint over a fact set."""
        return not any(True for _ in self.violations(facts, schema))

    def violations(self, facts: FactSet, schema: DatabaseSchema) -> Iterator[str]:
        """Yield human-readable descriptions of the violated groups."""
        x_positions, y_positions = self.positions(schema)
        groups: dict[tuple, set[tuple]] = {}
        for row in facts.get(self.relation, ()):
            key = tuple(row[p] for p in x_positions)
            value = tuple(row[p] for p in y_positions)
            groups.setdefault(key, set()).add(value)
        for key, values in groups.items():
            if len(values) > self.bound:
                yield (
                    f"{self.relation}: X={key} has {len(values)} distinct Y-values, "
                    f"bound is {self.bound}"
                )

    def __str__(self) -> str:
        x = ", ".join(self.x) if self.x else "∅"
        y = ", ".join(self.y)
        return f"{self.relation}(({x}) -> ({y}), {self.bound})"


class AccessSchema:
    """A set of access constraints over a database schema."""

    def __init__(self, constraints: Iterable[AccessConstraint] = ()) -> None:
        self._constraints: tuple[AccessConstraint, ...] = tuple(constraints)
        by_relation: dict[str, list[AccessConstraint]] = {}
        for constraint in self._constraints:
            by_relation.setdefault(constraint.relation, []).append(constraint)
        self._by_relation = {name: tuple(group) for name, group in by_relation.items()}

    @property
    def constraints(self) -> tuple[AccessConstraint, ...]:
        return self._constraints

    def __iter__(self) -> Iterator[AccessConstraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __bool__(self) -> bool:
        return bool(self._constraints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessSchema):
            return NotImplemented
        return set(self._constraints) == set(other._constraints)

    def __hash__(self) -> int:
        return hash(frozenset(self._constraints))

    def for_relation(self, relation: str) -> tuple[AccessConstraint, ...]:
        return self._by_relation.get(relation, ())

    @property
    def relations(self) -> frozenset[str]:
        return frozenset(c.relation for c in self._constraints)

    @property
    def is_fd_only(self) -> bool:
        """True when every constraint is an FD (``N = 1``), cf. Corollary 4.4."""
        return all(c.is_functional_dependency for c in self._constraints)

    @property
    def max_bound(self) -> int:
        """The largest N among the constraints (0 for an empty schema)."""
        return max((c.bound for c in self._constraints), default=0)

    def validate(self, schema: DatabaseSchema) -> None:
        for constraint in self._constraints:
            constraint.validate(schema)

    def satisfied_by(self, facts: FactSet, schema: DatabaseSchema) -> bool:
        """True when the fact set satisfies every constraint (``D |= A``)."""
        return all(c.satisfied_by(facts, schema) for c in self._constraints)

    def violations(self, facts: FactSet, schema: DatabaseSchema) -> list[str]:
        messages: list[str] = []
        for constraint in self._constraints:
            messages.extend(constraint.violations(facts, schema))
        return messages

    def find_covering(
        self, relation: str, x_attrs: Sequence[str], y_attrs: Sequence[str]
    ) -> AccessConstraint | None:
        """Return a constraint that can serve ``fetch(x_attrs ∈ _, relation, y_attrs)``."""
        for constraint in self.for_relation(relation):
            if constraint.covers_fetch(x_attrs, y_attrs):
                return constraint
        return None

    def extended_with(self, constraints: Iterable[AccessConstraint]) -> "AccessSchema":
        return AccessSchema(self._constraints + tuple(constraints))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "AccessSchema(" + "; ".join(str(c) for c in self._constraints) + ")"


def access_constraint(
    relation: str,
    x: Iterable[str] | str,
    y: Iterable[str] | str,
    bound: int,
) -> AccessConstraint:
    """Convenience constructor accepting whitespace-separated attribute strings.

    >>> str(access_constraint("rating", "mid", "rank", 1))
    'rating((mid) -> (rank), 1)'
    """
    if isinstance(x, str):
        x = x.split()
    if isinstance(y, str):
        y = y.split()
    return AccessConstraint(relation, tuple(x), tuple(y), bound)


def tableau_satisfies(tableau_facts: FactSet, access_schema: AccessSchema, schema: DatabaseSchema) -> bool:
    """Satisfaction of an access schema by a tableau's fact set.

    Variables inside the facts are treated as pairwise distinct constants,
    which is exactly the convention used when defining element queries
    ("we view T_Qe as an instance of R, by treating variables as constants").
    """
    return access_schema.satisfied_by(tableau_facts, schema)
