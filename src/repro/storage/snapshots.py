"""MVCC snapshots: immutable versions of a database instance.

A :class:`DatabaseSnapshot` is a fully immutable picture of the instance —
per-relation row versions plus per-access-constraint index versions — and
:class:`SnapshotManager` publishes a new one per committed
:meth:`repro.storage.instance.Database.apply` transaction with a single
reference swap.  Readers pin the current snapshot for their whole execution,
so they never block on, nor observe, an in-flight write; writers never wait
for readers.

The snapshot version is the *only* access-constraint index.  Every fetch is
served from a :class:`ConstraintIndexVersion`, and so is the write path's
bounded admissibility check.  While a transaction runs, its manager stages
the transaction's effective changes into an overlay keyed by
``(constraint, key)`` — each relation's netted batch at once
(:meth:`SnapshotManager.stage_batch`), and only the updates replayed in order
one at a time.  Admission is decided per ``(constraint, key)``: a key whose
bucket plus the projections the batch inserts on it stays within the bound
admits the batch in any order (:meth:`SnapshotManager.in_reach`); on the
other keys :meth:`SnapshotManager.admits` reads the current version's bucket
plus that overlay — a bounded number of index entries.
:meth:`SnapshotManager.advance` then applies the same overlay copy-on-write:
only the relations and indexes the transaction touched get a new version,
and inside an index only the touched keys' buckets are copied.

Version 0 is built from live storage when the manager is made: one pass
per constraint over its relation's rows, keyed in C
(:meth:`ConstraintIndexVersion.build`).  That is the one ``O(|D|)`` cost a
bounded engine pays, and it is paid once: a
:class:`~repro.engine.service.QueryService` checks ``D |= A`` on these
version-0 buckets (at most ``N`` projections per key) rather than grouping
the data a second time.

A snapshot satisfies the fetch-provider protocol
(:class:`~repro.core.plan_eval.FetchProvider`), so a compiled plan reads a
pinned snapshot directly.
"""

from __future__ import annotations

import threading
from collections import Counter
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Mapping, Sequence

from ..algebra.rows import count_projections, group_rows, row_getter
from ..algebra.schema import DatabaseSchema
from ..core.access import AccessConstraint, AccessSchema
from ..errors import AccessConstraintError
from .deltas import DeltaStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (instance imports us)
    from .instance import Database

_EMPTY: frozenset[tuple] = frozenset()
_NO_BUCKET: Mapping[tuple, int] = MappingProxyType({})
_NO_KEYS: Mapping[tuple, Mapping[tuple, int]] = MappingProxyType({})
_first = itemgetter(0)


def _every_row(row: tuple) -> bool:
    return True


#: Upper bound on the secondary indexes kept per relation — per live
#: :class:`~repro.storage.instance.Relation` and per :class:`RelationVersion`
#: (FIFO eviction: compiled pipelines resolve their indexes per execution, so
#: an evicted index only costs a rebuild on its next use).
MAX_CACHED_INDEXES = 8


class ShardingLayout:
    """Unused by ``src/``; ``bench/staged.py`` still derives one to pass to
    :class:`SnapshotManager`, which ignores it — goes with ROADMAP item 1."""

    @classmethod
    def derive(
        cls, schema: DatabaseSchema, access_schema: AccessSchema, shard_count: int
    ) -> "ShardingLayout":
        return cls()


class RelationVersion:
    """One immutable version of a relation's rows, with its own secondary
    hash indexes (:meth:`index_on`)."""

    __slots__ = ("rows", "_indexes")

    def __init__(self, rows: frozenset[tuple]) -> None:
        self.rows = rows
        # Secondary indexes of this version, built on first probe.  This
        # memo is the only mutable state of a version; concurrent readers
        # may race to build the same index from the same rows, which is
        # benign under the GIL.  A new version starts empty: carrying
        # indexes across versions is ROADMAP item 17.
        self._indexes: dict[tuple[int, ...], dict[tuple, list[tuple]]] = {}

    def apply(
        self, inserted: Iterable[tuple], deleted: Iterable[tuple]
    ) -> "RelationVersion":
        """The next version after a netted delta."""
        return RelationVersion(self.rows.difference(deleted).union(inserted))

    def index_on(self, positions: Sequence[int]) -> Mapping[tuple, Sequence[tuple]]:
        """This version's rows hashed on the values at ``positions`` (a
        tuple key; absent keys have no rows).

        Built lazily, once per version, and memoised — at most
        ``MAX_CACHED_INDEXES`` per version, the cap of
        :meth:`~repro.storage.instance.Relation.index_on`.
        """
        key = tuple(positions)
        index = self._indexes.get(key)
        if index is None:
            index = group_rows(self.rows, key)
            indexes = self._indexes
            if len(indexes) >= MAX_CACHED_INDEXES:
                # list() snapshots the keys in one step: a racing reader's
                # insert cannot break the iteration.
                for stale in list(indexes)[: len(indexes) - MAX_CACHED_INDEXES + 1]:
                    indexes.pop(stale, None)
            indexes[key] = index
        return index


class ConstraintIndexVersion:
    """One immutable version of an access-constraint index.

    Per key, a bucket maps each XY-projection to its supporting-tuple count
    (so deleting one of several base rows behind the same projection keeps
    it alive).
    """

    __slots__ = ("constraint", "buckets", "_frozen")

    def __init__(
        self,
        constraint: AccessConstraint,
        buckets: dict[tuple, dict[tuple, int]],
        frozen: dict[tuple, frozenset[tuple]] | None = None,
    ) -> None:
        self.constraint = constraint
        self.buckets = buckets
        # Per-key frozen lookup results.  This memo is the only mutable state
        # of a version; concurrent readers may race to fill the same key with
        # the same value, which is benign under the GIL.
        self._frozen = {} if frozen is None else frozen

    @classmethod
    def build(
        cls,
        constraint: AccessConstraint,
        schema: DatabaseSchema,
        rows: Collection[tuple],
    ) -> "ConstraintIndexVersion":
        """The index of ``rows``, in one C-keyed pass
        (:func:`~repro.algebra.rows.count_projections`): per ``X``-value, each
        ``X ∪ Y``-projection with the number of rows behind it, buckets and
        projections in row iteration order.  Version 0 of a service's
        snapshots is built here, and :meth:`SnapshotManager.refresh`
        rebuilds drifted relations here; the service reads ``D |= A`` off
        the buckets (:meth:`~repro.core.access.AccessConstraint.violations_in`).
        """
        relation = schema.relation(constraint.relation)
        buckets = count_projections(
            rows,
            relation.positions(constraint.x),
            relation.positions(constraint.output_attributes),
        )
        return cls(constraint, buckets)

    def lookup(self, key: tuple) -> frozenset[tuple]:
        frozen = self._frozen.get(key)
        if frozen is None:
            bucket = self.buckets.get(key)
            if bucket is None:
                # Misses are not memoised: probe keys come from arbitrary
                # plan rows, and caching every absent key would grow without
                # bound.
                return _EMPTY
            frozen = frozenset(bucket)
            self._frozen[key] = frozen
        return frozen

    def lookup_many(self, keys: Iterable[tuple]) -> list[frozenset[tuple]]:
        """``[lookup(key) for key in keys]``: one call for a fetch step's batch."""
        return list(map(self.lookup, keys))

    def bucket(self, key: tuple) -> Mapping[tuple, int]:
        """``key``'s projection -> support-count bucket (empty on a miss)."""
        return self.buckets.get(key, _NO_BUCKET)

    def apply(
        self, changes: Mapping[tuple, Mapping[tuple, int]]
    ) -> "ConstraintIndexVersion":
        """The next version after a staged per-key delta.

        ``changes`` maps each touched key to ``{projection: net support
        change}`` — the overlay :class:`SnapshotManager` staged while the
        transaction ran.  Copy-on-write: the outer bucket dict is copied
        once, and only changed keys copy their inner count dicts.  The
        frozen-lookup memo carries over minus the changed keys.
        """
        buckets = dict(self.buckets)
        frozen = dict(self._frozen)
        for key, deltas in changes.items():
            if not deltas:
                continue
            counts = dict(buckets.get(key, _NO_BUCKET))
            for value, delta in deltas.items():
                remaining = counts.get(value, 0) + delta
                if remaining > 0:
                    counts[value] = remaining
                else:
                    counts.pop(value, None)
            if counts:
                buckets[key] = counts
            else:
                buckets.pop(key, None)
            frozen.pop(key, None)
        return ConstraintIndexVersion(self.constraint, buckets, frozen)


class DatabaseSnapshot:
    """A fully immutable version of a database instance.

    Serves the executor's fetch-provider protocol directly (``fetch`` /
    ``fetch_many``).
    """

    __slots__ = ("version", "relations", "indexes")

    def __init__(
        self,
        version: int,
        relations: Mapping[str, RelationVersion],
        indexes: Mapping[AccessConstraint, ConstraintIndexVersion],
    ) -> None:
        self.version = version
        self.relations = relations
        self.indexes = indexes

    def index_for(self, constraint: AccessConstraint) -> ConstraintIndexVersion:
        try:
            return self.indexes[constraint]
        except KeyError as exc:
            raise AccessConstraintError(
                f"no snapshot index for constraint {constraint}; it is not "
                "part of the access schema"
            ) from exc

    def fetch(
        self, constraint: AccessConstraint, key: Sequence[object]
    ) -> frozenset[tuple]:
        """``D_{R:XY}(X = key)`` as of this snapshot version."""
        return self.index_for(constraint).lookup(tuple(key))

    def fetch_many(
        self, constraint: AccessConstraint, keys: Collection[tuple]
    ) -> list[frozenset[tuple]]:
        """``[fetch(constraint, key) for key in keys]`` with one index resolution."""
        return self.index_for(constraint).lookup_many(keys)

    @property
    def facts(self) -> dict[str, frozenset[tuple]]:
        return {name: version.rows for name, version in self.relations.items()}


class SnapshotManager:
    """Builds, advances and publishes the snapshot chain of one database.

    Inside a :meth:`Database.apply` transaction (under its write lock) the
    manager is the write path's constraint index: phase 1 asks it which of a
    relation's rows need the ordered admission check (:meth:`in_reach`),
    replays those one at a time through :meth:`admits` and
    :meth:`stage_batch`, and folds the rest of each relation's netted batch
    in at once;
    phase 2 calls :meth:`advance` once storage reached the post-transaction
    state — it applies the overlay copy-on-write and publishes the next
    version with a single reference assignment, the only synchronisation
    point readers ever see.  ``stale``/``refresh`` cover out-of-band
    mutations (direct ``Relation.add`` outside a transaction): per-relation
    mutation counters are compared against the counters recorded at the last
    build, and drifted relations are rebuilt wholesale from live storage —
    never while a transaction is mid-batch.
    """

    def __init__(
        self,
        database: "Database",
        layout: object,
        constraints: Iterable[AccessConstraint],
    ) -> None:
        # ``layout`` is ignored: bench/staged.py still passes a
        # ShardingLayout — goes with ROADMAP item 1.
        self.database = database
        self._constraints = tuple(constraints)
        # Per relation: (constraint, key of a row, XY-projection of a row,
        # Y-value of a projection) — what staging and admission read a row by.
        self._staging: dict[str, list[tuple]] = {}
        for constraint in self._constraints:
            relation = database.schema.relation(constraint.relation)
            output = constraint.output_attributes
            self._staging.setdefault(constraint.relation, []).append(
                (
                    constraint,
                    row_getter(relation.positions(constraint.x)),
                    row_getter(relation.positions(output)),
                    row_getter(tuple(output.index(a) for a in constraint.y)),
                )
            )
        # The running transaction's overlay, constraint -> key ->
        # {projection: net support change}; None while nothing is staged.
        self._overlay: dict[AccessConstraint, dict[tuple, dict[tuple, int]]] | None
        self._overlay = None
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._current = self._build_full(version=0)

    # ------------------------------------------------------------------ #

    @property
    def current(self) -> DatabaseSnapshot:
        return self._current

    def reader(self) -> DatabaseSnapshot:
        """Pin the currently published snapshot (alias for readability)."""
        return self._current

    # ------------------------------------------------------------------ #

    def _build_full(self, version: int) -> DatabaseSnapshot:
        database = self.database
        relations: dict[str, RelationVersion] = {}
        counters: dict[str, int] = {}
        for name in database.schema.names:
            relation = database.relation(name)
            relations[name] = RelationVersion(relation.tuples)
            counters[name] = relation.mutation_count
        indexes = {
            constraint: ConstraintIndexVersion.build(
                constraint, database.schema, relations[constraint.relation].rows
            )
            for constraint in self._constraints
        }
        self._counters = counters
        return DatabaseSnapshot(version, relations, indexes)

    # ------------------------------------------------------------------ #
    # The write path: staging, admission, advance
    # ------------------------------------------------------------------ #

    def abandon(self) -> None:
        """Drop the overlay (a no-op once :meth:`advance` consumed it)."""
        self._overlay = None

    def stage_batch(
        self, relation: str, inserted: Collection[tuple], deleted: Collection[tuple]
    ) -> None:
        """Fold effective insertions ``inserted`` and deletions ``deleted``
        of ``relation`` into the overlay of every constraint on it: a
        relation's netted batch at once, or one update replayed in order
        (so that the next update's :meth:`admits` sees it)."""
        overlay = self._overlay
        if overlay is None:
            overlay = self._overlay = {}
        for constraint, key_of, projection_of, _ in self._staging.get(relation, ()):
            per_key = overlay.get(constraint)
            if per_key is None:
                per_key = overlay[constraint] = {}
            for sign, rows in ((1, inserted), (-1, deleted)):
                for key, value in zip(map(key_of, rows), map(projection_of, rows)):
                    changes = per_key.get(key)
                    if changes is None:
                        changes = per_key[key] = {}
                    net = changes.get(value, 0) + sign
                    if net:
                        changes[value] = net
                    else:
                        del changes[value]

    def in_reach(
        self, relation: str, inserted: Sequence[tuple]
    ) -> Callable[[tuple], bool] | None:
        """Which rows of ``relation`` must be admitted one update at a time?

        ``inserted`` are the rows the batch inserts into ``relation``.  Per
        ``(constraint, key)``: the key's projections in the current version,
        plus its staged entries, plus the distinct projections ``inserted``
        adds on it.  While that total stays within the bound, no order of the
        batch can give the key more Y-values than the bound, so every
        insertion on it is admissible.  Returns ``None`` when that holds for
        every key, else a predicate selecting the rows on keys within reach
        of their bound — all rows, when the relation has two or more
        constraints, because a skipped insertion couples its keys across
        constraints.
        """
        staging = self._staging.get(relation)
        if not staging or not inserted:
            return None
        overlay = self._overlay or {}
        indexes = self._current.indexes
        for constraint, key_of, projection_of, _ in staging:
            bucket = indexes[constraint].bucket
            staged = overlay.get(constraint, _NO_KEYS)
            pairs = set(zip(map(key_of, inserted), map(projection_of, inserted)))
            touched = Counter(map(_first, pairs))
            bound = constraint.bound
            hot = {
                key
                for key, count in touched.items()
                if len(bucket(key)) + len(staged.get(key, _NO_BUCKET)) + count > bound
            }
            if hot:
                if len(staging) > 1:
                    return _every_row
                return lambda row: key_of(row) in hot
        return None

    def admits(self, update: object) -> bool:
        """Would applying ``update`` keep every constraint satisfied?

        The ordered admissibility check of the write path: per constraint on
        the update's relation, it reads the row's ``X``-value bucket in the
        current version plus the transaction's overlay for that key — at
        most ``N`` distinct projections plus what this transaction staged,
        never the relation.  When those are fewer than the bound, the row
        cannot add a Y-value too many and no set is built.  Re-inserting an
        existing ``Y``-value never violates the bound; deletions are always
        admissible.
        """
        if not update.is_insertion:  # type: ignore[attr-defined]
            return True
        row = tuple(update.row)  # type: ignore[attr-defined]
        overlay = self._overlay or {}
        indexes = self._current.indexes
        for constraint, key_of, projection_of, value_of in self._staging.get(
            update.relation, ()  # type: ignore[attr-defined]
        ):
            key = key_of(row)
            bucket = indexes[constraint].bucket(key)
            staged = overlay.get(constraint, _NO_KEYS).get(key, _NO_BUCKET)
            if len(bucket) + len(staged) < constraint.bound:
                continue
            projections = set(bucket)
            for value, delta in staged.items():
                if bucket.get(value, 0) + delta > 0:
                    projections.add(value)
                else:
                    projections.discard(value)
            values = set(map(value_of, projections))
            values.add(value_of(projection_of(row)))
            if len(values) > constraint.bound:
                return False
        return True

    def advance(self, stream: DeltaStream) -> DatabaseSnapshot:
        """Build and publish the next version from one committed delta.

        Index versions take the overlay staged during the transaction; a
        manager that did not see the transaction run (not registered with
        the database) stages it from ``stream`` first.
        """
        with self._lock:
            if self._overlay is None:
                for name in stream.relations:
                    self.stage_batch(name, stream.inserted(name), stream.deleted(name))
            overlay = self._overlay or {}
            self._overlay = None
            current = self._current
            relations = dict(current.relations)
            indexes = dict(current.indexes)
            for name in stream.relations:
                relations[name] = relations[name].apply(
                    stream.inserted(name), stream.deleted(name)
                )
                # A transaction applies one delta per relation, so a relation
                # in sync before it is in sync after; one with an out-of-band
                # write still pending stays stale and is rebuilt on refresh().
                count = self.database.relation(name).mutation_count
                if self._counters.get(name) == count - 1:
                    self._counters[name] = count
            for constraint, changes in overlay.items():
                if any(changes.values()):
                    indexes[constraint] = indexes[constraint].apply(changes)
            snapshot = DatabaseSnapshot(current.version + 1, relations, indexes)
            self._current = snapshot  # the atomic publish
            return snapshot

    # ------------------------------------------------------------------ #

    def stale(self) -> bool:
        """Did any relation mutate outside the transactional write path?

        Cheap (one integer compare per relation) and suppressed while a
        transaction is mid-batch: ``advance`` records the post-batch counters
        before the write lock is released, so the transactional path never
        reads as stale.
        """
        if self.database._applying:
            return False
        counters = self._counters
        for name, relation in self.database._relations.items():
            if relation.mutation_count != counters.get(name, -1):
                return True
        return False

    def refresh(self) -> DatabaseSnapshot:
        """Rebuild drifted relations from live storage and publish.

        Takes the database's write lock first, so a rebuild never observes a
        transaction mid-batch; re-checks drift under the lock (another reader
        may have refreshed already, or the drift may have been absorbed by a
        transactional ``advance``).
        """
        with self.database._write_lock:
            with self._lock:
                current = self._current
                drifted = [
                    name
                    for name, relation in self.database._relations.items()
                    if relation.mutation_count != self._counters.get(name, -1)
                ]
                if not drifted:
                    return current
                relations = dict(current.relations)
                indexes = dict(current.indexes)
                for name in drifted:
                    relation = self.database.relation(name)
                    relations[name] = RelationVersion(relation.tuples)
                    for constraint in current.indexes:
                        if constraint.relation == name:
                            indexes[constraint] = ConstraintIndexVersion.build(
                                constraint, self.database.schema, relation.tuples
                            )
                    self._counters[name] = relation.mutation_count
                snapshot = DatabaseSnapshot(current.version + 1, relations, indexes)
                self._current = snapshot
                return snapshot
