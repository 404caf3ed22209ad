"""Update streams: insertions and deletions applied to database instances.

The paper's future-work section singles out *bounded view maintenance*:
"incrementally maintain V(D) by accessing a bounded amount of data in D, in
response to changes to D".  This module provides the change model those
features build on:

* :class:`Insertion` / :class:`Deletion` — single-tuple updates;
* :class:`UpdateBatch` — an ordered sequence of updates with helpers to apply
  it to a :class:`repro.storage.instance.Database` and to group it per
  relation;
* :func:`random_update_batch` — a reproducible generator of mixed
  insert/delete workloads whose insertions recombine values already present
  in the data (so the batch remains schema-typed and, when an access schema
  is supplied, keeps the instance inside ``D |= A``).

The incremental maintenance machinery itself lives in
:mod:`repro.engine.service.maintenance`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Sequence

from ..algebra.rows import count_projections, row_getter
from ..algebra.schema import RelationSchema
from ..core.access import AccessConstraint, AccessSchema
from ..errors import SchemaError
from .generators import rng
from .instance import Database


@dataclass(frozen=True)
class Insertion:
    """Insert ``row`` into ``relation``."""

    relation: str
    row: tuple

    def __init__(self, relation: str, row: Iterable[object]) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "row", tuple(row))

    @property
    def is_insertion(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"+{self.relation}{self.row}"


@dataclass(frozen=True)
class Deletion:
    """Delete ``row`` from ``relation``."""

    relation: str
    row: tuple

    def __init__(self, relation: str, row: Iterable[object]) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "row", tuple(row))

    @property
    def is_insertion(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"-{self.relation}{self.row}"


Update = Insertion | Deletion


@dataclass(frozen=True)
class UpdateBatch:
    """An ordered batch of single-tuple updates."""

    updates: tuple[Update, ...]

    def __init__(self, updates: Iterable[Update]) -> None:
        object.__setattr__(self, "updates", tuple(updates))

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[Update]:
        return iter(self.updates)

    @property
    def insertions(self) -> tuple[Insertion, ...]:
        return tuple(u for u in self.updates if isinstance(u, Insertion))

    @property
    def deletions(self) -> tuple[Deletion, ...]:
        return tuple(u for u in self.updates if isinstance(u, Deletion))

    @property
    def relations(self) -> frozenset[str]:
        return frozenset(u.relation for u in self.updates)

    def per_relation(self) -> dict[str, list[Update]]:
        grouped: dict[str, list[Update]] = {}
        for update in self.updates:
            grouped.setdefault(update.relation, []).append(update)
        return grouped

    # ------------------------------------------------------------------ #

    def validate(self, database: Database) -> None:
        """Check arities against the database schema (raises :class:`SchemaError`)."""
        for update in self.updates:
            relation = database.schema.relation(update.relation)
            if len(update.row) != relation.arity:
                raise SchemaError(
                    f"update {update} has arity {len(update.row)}, relation "
                    f"{update.relation!r} expects {relation.arity}"
                )

    def apply_to(self, database: Database) -> tuple[int, int]:
        """Apply the batch in order; returns ``(inserted, deleted)`` counts.

        Inserting an existing tuple or deleting an absent one is a no-op (set
        semantics), and is not counted.  The batch is applied as one
        transaction through :meth:`repro.storage.instance.Database.apply`:
        each applied update incrementally maintains the relation's caches,
        secondary indexes, statistics and any registered access-constraint
        indexes, and subscribed delta observers (materialised views, plan
        caches, backends) receive the netted
        :class:`~repro.storage.deltas.DeltaStream` once at the end.
        """
        stream = database.apply(self.updates)
        return stream.applied_insertions, stream.applied_deletions

    def inverted(self) -> "UpdateBatch":
        """The batch undoing this one (insertions become deletions and vice versa)."""
        flipped: list[Update] = []
        for update in reversed(self.updates):
            if isinstance(update, Insertion):
                flipped.append(Deletion(update.relation, update.row))
            else:
                flipped.append(Insertion(update.relation, update.row))
        return UpdateBatch(flipped)


def delete_row(database: Database, relation: str, row: Sequence[object]) -> bool:
    """Remove one tuple from a database relation (returns whether it was present)."""
    return database.relation(relation).discard(row)


def random_update_batch(
    database: Database,
    size: int,
    insert_ratio: float = 0.5,
    seed: int = 0,
    relations: Sequence[str] | None = None,
    access_schema: AccessSchema | None = None,
) -> UpdateBatch:
    """Generate a reproducible batch of mixed insertions and deletions.

    Deletions pick tuples currently in the database; insertions recombine
    attribute values from two existing tuples of the same relation (a common
    way to produce realistic, well-typed synthetic updates).  When
    ``access_schema`` is given, candidate insertions that would violate one of
    its constraints (checked against the running state of the batch) are
    skipped, so applying the batch preserves ``D |= A``.
    """
    generator = rng(seed)
    names = list(relations) if relations is not None else list(database.schema.names)
    names = [name for name in names if len(database.relation(name)) >= 2]
    if not names:
        raise SchemaError("random_update_batch needs at least one relation with >= 2 tuples")

    # Working copy of the fact sets so the batch is internally consistent,
    # and per drawn relation its rows in repr order (the order draws pick
    # from), kept sorted under the batch's own updates with their reprs
    # alongside, and the running buckets of its access constraints.
    state: dict[str, set[tuple]] = {
        name: set(database.relation(name).tuples) for name in database.schema.names
    }
    ordered: dict[str, tuple[list[str], list[tuple]]] = {}
    running: dict[str, list[_RunningBuckets]] = {}
    updates: list[Update] = []
    attempts = 0
    while len(updates) < size and attempts < 50 * size:
        attempts += 1
        relation_name = generator.choice(names)
        rows = state[relation_name]
        if not rows:
            continue
        drawn = ordered.get(relation_name)
        if drawn is None:
            by_repr = sorted(rows, key=repr)
            drawn = ordered[relation_name] = ([repr(row) for row in by_repr], by_repr)
            relation = database.schema.relation(relation_name)
            running[relation_name] = [
                _RunningBuckets(constraint, relation, rows)
                for constraint in (
                    access_schema.for_relation(relation_name) if access_schema else ()
                )
            ]
        reprs, by_repr = drawn
        constrained = running[relation_name]
        if generator.random() < insert_ratio:
            if len(rows) < 2:
                continue
            first, second = generator.sample(by_repr, 2)
            candidate = tuple(
                first[i] if generator.random() < 0.5 else second[i] for i in range(len(first))
            )
            if candidate in rows:
                continue
            if not all(buckets.admits(candidate) for buckets in constrained):
                continue
            rows.add(candidate)
            for buckets in constrained:
                buckets.move(candidate, 1)
            key = repr(candidate)
            index = bisect_left(reprs, key)
            reprs.insert(index, key)
            by_repr.insert(index, candidate)
            updates.append(Insertion(relation_name, candidate))
        else:
            victim = generator.choice(by_repr)
            rows.discard(victim)
            for buckets in constrained:
                buckets.move(victim, -1)
            index = bisect_left(reprs, repr(victim))
            del reprs[index], by_repr[index]
            updates.append(Deletion(relation_name, victim))
    return UpdateBatch(updates)


class _RunningBuckets:
    """One access constraint's buckets over a relation's running state:
    per ``X``-value, each ``Y``-value with the number of rows behind it —
    seeded in one pass, then moved row by row with the batch's updates."""

    __slots__ = ("bound", "key_of", "value_of", "buckets")

    def __init__(
        self, constraint: AccessConstraint, relation: RelationSchema, rows: Collection[tuple]
    ) -> None:
        x_positions = relation.positions(constraint.x)
        y_positions = relation.positions(constraint.y)
        self.bound = constraint.bound
        self.key_of = row_getter(x_positions)
        self.value_of = row_getter(y_positions)
        self.buckets = count_projections(rows, x_positions, y_positions)

    def admits(self, candidate: tuple) -> bool:
        """Would adding ``candidate`` keep its key within the bound?"""
        values = self.buckets.get(self.key_of(candidate), {})
        return len(values) + (self.value_of(candidate) not in values) <= self.bound

    def move(self, row: tuple, sign: int) -> None:
        """Count ``row`` in (``sign`` 1) or out (``sign`` -1)."""
        key = self.key_of(row)
        values = self.buckets.setdefault(key, {})
        value = self.value_of(row)
        count = values.get(value, 0) + sign
        if count:
            values[value] = count
        else:
            del values[value]
            if not values:
                del self.buckets[key]
