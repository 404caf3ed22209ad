"""Indices realising access constraints.

Each access constraint ``R(X -> Y, N)`` comes with an index: a function that,
given an ``X``-value ``ā``, returns the ``XY``-projections
``D_{R:XY}(X = ā)`` in ``O(N)`` time.  :class:`AccessIndex` is a hash index
implementing exactly that contract; :class:`IndexSet` bundles the indices for
a whole access schema over one database and is the *fetch provider* used by
the bounded-plan executor.

The indices are maintained **incrementally**: every :class:`AccessIndex`
registers itself as an observer of its relation, so single-tuple updates
(e.g. :meth:`repro.storage.updates.UpdateBatch.apply_to`) touch exactly one
bucket per index instead of forcing a rebuild of the whole
:class:`IndexSet`.  Deletions are O(1) through per-projection support
counts: a projection disappears exactly when its last supporting base tuple
does.
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping, Sequence

from ..core.access import AccessConstraint, AccessSchema
from ..errors import AccessConstraintError
from .instance import Database

_EMPTY: frozenset[tuple] = frozenset()


class AccessIndex:
    """A hash index from ``X``-values to ``X ∪ Y`` projections for one constraint."""

    def __init__(self, constraint: AccessConstraint, database: Database) -> None:
        self.constraint = constraint
        relation = database.relation(constraint.relation)
        schema = relation.schema
        self._x_positions = schema.positions(constraint.x)
        out_attrs = constraint.output_attributes
        self._out_positions = schema.positions(out_attrs)
        self.output_attributes = out_attrs
        # Positions of the constraint's Y attributes inside the stored
        # XY-projections (used by the bucket-local admissibility check).
        self._y_in_out = tuple(out_attrs.index(a) for a in constraint.y)
        # Per key: projection -> number of supporting base tuples.
        self._buckets: dict[tuple, dict[tuple, int]] = {}
        # Frozen per-key views handed out by lookup(), invalidated per key.
        self._frozen: dict[tuple, frozenset[tuple]] = {}
        for row in relation:
            self.on_insert(row)
        relation.register_observer(self)

    # ------------------------------------------------------------------ #
    # Maintenance hooks (driven by the relation on every mutation)
    # ------------------------------------------------------------------ #

    def on_insert(self, row: tuple) -> None:
        key = tuple(row[p] for p in self._x_positions)
        value = tuple(row[p] for p in self._out_positions)
        counts = self._buckets.setdefault(key, {})
        counts[value] = counts.get(value, 0) + 1
        self._frozen.pop(key, None)

    def on_delete(self, row: tuple) -> None:
        key = tuple(row[p] for p in self._x_positions)
        counts = self._buckets.get(key)
        if counts is None:
            return
        value = tuple(row[p] for p in self._out_positions)
        remaining = counts.get(value)
        if remaining is None:
            return
        if remaining <= 1:
            del counts[value]
            if not counts:
                del self._buckets[key]
        else:
            counts[value] = remaining - 1
        self._frozen.pop(key, None)

    # ------------------------------------------------------------------ #

    def lookup(self, key: Sequence[object]) -> frozenset[tuple]:
        """Return ``D_{R:XY}(X = key)`` — the XY-projections for this key."""
        key = tuple(key)
        frozen = self._frozen.get(key)
        if frozen is None:
            bucket = self._buckets.get(key)
            if bucket is None:
                # Do NOT memoise misses: probe keys come from arbitrary plan
                # rows, and caching every absent key would grow without bound.
                return _EMPTY
            frozen = frozenset(bucket)
            self._frozen[key] = frozen
        return frozen

    def lookup_many(self, keys: Iterable[tuple]) -> list[frozenset[tuple]]:
        """``[lookup(key) for key in keys]``: one call for a fetch step's batch."""
        return list(map(self.lookup, keys))

    def admits(self, row: tuple) -> bool:
        """Would inserting ``row`` keep this constraint satisfied?

        Inspects only the one bucket the row's ``X``-value hashes to — the
        check reads a bounded number of index entries (at most ``N`` distinct
        projections), never the relation.  Re-inserting an existing
        ``Y``-value never violates the bound.
        """
        key = tuple(row[p] for p in self._x_positions)
        bucket = self._buckets.get(key)
        if bucket is None:
            return self.constraint.bound >= 1
        y_in_out = self._y_in_out
        out_positions = self._out_positions
        values = {tuple(value[i] for i in y_in_out) for value in bucket}
        values.add(tuple(row[out_positions[i]] for i in y_in_out))
        return len(values) <= self.constraint.bound

    @property
    def keys(self) -> frozenset[tuple]:
        return frozenset(self._buckets)

    def max_group_size(self) -> int:
        """Largest number of distinct XY-projections of any group (≤ N when D |= A)."""
        return max((len(v) for v in self._buckets.values()), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"AccessIndex({self.constraint}, {len(self._buckets)} keys)"


class IndexSet:
    """All indices of an access schema over one database.

    The executor charges I/O only for tuples retrieved through these indices
    (the bag ``Dξ`` of the paper); scans of cached views are free.  The set
    stays consistent under updates applied through the storage layer (see
    the module docstring) — rebuilding it after a delta is never required.
    """

    def __init__(self, database: Database, access_schema: AccessSchema) -> None:
        access_schema.validate(database.schema)
        self.database = database
        self.access_schema = access_schema
        self._indices: dict[AccessConstraint, AccessIndex] = {}
        for constraint in access_schema:
            self._indices[constraint] = AccessIndex(constraint, database)

    def index_for(self, constraint: AccessConstraint) -> AccessIndex:
        try:
            return self._indices[constraint]
        except KeyError as exc:
            raise AccessConstraintError(
                f"no index built for constraint {constraint}; it is not part of the access schema"
            ) from exc

    def fetch(self, constraint: AccessConstraint, key: Sequence[object]) -> frozenset[tuple]:
        """Fetch ``D_{R:XY}(X = key)`` through the constraint's index."""
        return self.index_for(constraint).lookup(key)

    def fetch_many(
        self, constraint: AccessConstraint, keys: Collection[tuple]
    ) -> list[frozenset[tuple]]:
        """``[fetch(constraint, key) for key in keys]`` with one index resolution."""
        return self.index_for(constraint).lookup_many(keys)

    def admissible(self, update: object) -> bool:
        """Would applying ``update`` keep every constraint satisfied?

        The bounded-admissibility check of the write path: only the buckets
        the update's key values hash to are inspected, so checking
        ``D ⊕ ΔD |= A`` reads a bounded number of index entries.  Deletions
        are always admissible.
        """
        if not getattr(update, "is_insertion", False):
            return True
        row = tuple(update.row)  # type: ignore[attr-defined]
        for constraint in self.access_schema.for_relation(update.relation):  # type: ignore[attr-defined]
            if not self._indices[constraint].admits(row):
                return False
        return True

    @property
    def facts(self) -> Mapping[str, frozenset[tuple]]:
        """Direct access to the underlying facts (used only by the *naive* baseline)."""
        return self.database.facts

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"IndexSet({len(self._indices)} indices over {self.database!r})"
