"""MVCC snapshots: immutable, hash-sharded versions of a database instance.

A :class:`DatabaseSnapshot` is a fully immutable picture of the instance —
per-relation row versions plus per-access-constraint index versions — and
:class:`SnapshotManager` publishes a new one per committed
:meth:`repro.storage.instance.Database.apply` transaction with a single
reference swap.  Readers pin the current snapshot for their whole execution,
so they never block on, nor observe, an in-flight write; writers never wait
for readers.

The snapshot version is the *only* access-constraint index.  Every fetch is
served from a :class:`ConstraintIndexVersion`, and so is the write path's
bounded admissibility check: while a transaction runs, its manager stages
each effective update into an overlay keyed by ``(constraint, key)``, and
:meth:`SnapshotManager.admits` reads the current version's bucket plus that
overlay — a bounded number of index entries.  :meth:`SnapshotManager.advance`
then applies the same overlay copy-on-write: only the shards and index keys
the transaction touched are copied.

Sharding rides the same structures.  A :class:`ShardingLayout` partitions
each relation's tuples and each access-constraint index's buckets by a
deterministic hash of the constraint's own ``X`` (key) columns into N
shards.  Constraints whose bound is small (``bound <= global_bound``, e.g.
``rating(mid -> rank, 1)``) or that have no key columns are *global*
reference data: the paper's bound caps their bucket size, so they are kept
shard-neutral and every worker reads them freely.  Because a fetch under
``R(X -> Y, N)`` is keyed on exactly the columns the partition hashes, each
fetch probes exactly one shard — rows and ``Dξ`` accounting are bit-identical
to unsharded execution *by construction*, and the shard set a bounded plan
touches can be derived statically from its fetch certificates
(:mod:`repro.analysis.sharding`).

A snapshot (or its metered, per-execution :meth:`DatabaseSnapshot.bound_to`
binding) satisfies the executor's fetch-provider protocol, so both the
interpreted kernel and the compiled closures resolve against a pinned
snapshot unchanged.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

from ..algebra.schema import DatabaseSchema
from ..core.access import AccessConstraint, AccessSchema
from ..errors import AccessConstraintError
from .deltas import DeltaStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (instance imports us)
    from .instance import Database

_EMPTY: frozenset[tuple] = frozenset()
_NO_BUCKET: Mapping[tuple, int] = MappingProxyType({})


def shard_of(key: Sequence[object], shard_count: int) -> int:
    """The shard owning ``key`` — deterministic across processes.

    The builtin ``hash`` is salted per process (``PYTHONHASHSEED``), which
    would make committed shard-placement invariants unreproducible; CRC32 of
    the key's ``repr`` is stable, cheap, and spreads the realistic key types
    (strings, ints, tuples thereof) well enough for load balancing.
    """
    if shard_count <= 1:
        return 0
    return zlib.crc32(repr(tuple(key)).encode("utf-8")) % shard_count


@dataclass(frozen=True)
class ShardingLayout:
    """How one access schema partitions a database into N shards.

    ``partitioned`` holds the constraints whose index buckets (and owning
    relation's rows) are spread by ``hash(X-key) % shard_count``; every other
    constraint is served from the shard-neutral global tier.
    ``relation_positions`` maps each partitioned relation to the tuple
    positions of its primary partition columns (the ``X`` of its
    largest-bound partitioned constraint).
    """

    shard_count: int
    partitioned: frozenset[AccessConstraint]
    relation_positions: Mapping[str, tuple[int, ...]]

    @classmethod
    def derive(
        cls,
        schema: DatabaseSchema,
        access_schema: AccessSchema,
        shard_count: int,
        *,
        global_bound: int = 1,
    ) -> "ShardingLayout":
        """Classify every constraint of ``access_schema`` for ``shard_count`` shards.

        A constraint is partitioned when it has key columns and its bound
        exceeds ``global_bound`` — small-bound constraints are reference
        lookups whose buckets the paper caps at ``bound`` tuples, so
        replicating them globally costs little and keeps plans that chain
        through them single-shard.  With ``shard_count <= 1`` everything is
        global (one shard holds all data either way).
        """
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        partitioned: set[AccessConstraint] = set()
        if shard_count > 1:
            for constraint in access_schema:
                if constraint.x and constraint.bound > global_bound:
                    partitioned.add(constraint)
        positions: dict[str, tuple[int, ...]] = {}
        for constraint in sorted(
            partitioned, key=lambda c: (c.bound, c.relation, c.x)
        ):
            # Highest bound wins (sorted ascending, later overwrites): the
            # relation's rows co-locate with its coarsest partitioned index.
            relation = schema.relation(constraint.relation)
            positions[constraint.relation] = relation.positions(constraint.x)
        return cls(
            shard_count=shard_count,
            partitioned=frozenset(partitioned),
            relation_positions=positions,
        )

    def constraint_is_partitioned(self, constraint: AccessConstraint) -> bool:
        return constraint in self.partitioned

    def shard_of_key(self, key: Sequence[object]) -> int:
        return shard_of(key, self.shard_count)


#: Layout of an unsharded (single-shard) database — everything global.
def single_shard_layout() -> ShardingLayout:
    return ShardingLayout(
        shard_count=1, partitioned=frozenset(), relation_positions={}
    )


class RelationVersion:
    """One immutable version of a relation's rows, partitioned into shards.

    ``shards`` is a tuple of frozensets; unpartitioned (global) relations
    have exactly one.  ``apply`` builds the next version copy-on-write: only
    shards that a delta actually touches are rebuilt.
    """

    __slots__ = ("name", "positions", "shards", "_rows")

    def __init__(
        self,
        name: str,
        positions: tuple[int, ...] | None,
        shards: tuple[frozenset[tuple], ...],
    ) -> None:
        self.name = name
        self.positions = positions
        self.shards = shards
        self._rows: frozenset[tuple] | None = None

    @classmethod
    def build(
        cls,
        name: str,
        rows: Iterable[tuple],
        positions: tuple[int, ...] | None,
        shard_count: int,
    ) -> "RelationVersion":
        if positions is None or shard_count <= 1:
            return cls(name, None, (frozenset(rows),))
        buckets: list[set[tuple]] = [set() for _ in range(shard_count)]
        for row in rows:
            key = tuple(row[p] for p in positions)
            buckets[shard_of(key, shard_count)].add(row)
        return cls(name, positions, tuple(frozenset(b) for b in buckets))

    def shard_of_row(self, row: tuple) -> int:
        if self.positions is None:
            return 0
        key = tuple(row[p] for p in self.positions)
        return shard_of(key, len(self.shards))

    @property
    def rows(self) -> frozenset[tuple]:
        """All rows of this version (lazy union of the shard partitions)."""
        rows = self._rows
        if rows is None:
            rows = self.shards[0] if len(self.shards) == 1 else frozenset().union(
                *self.shards
            )
            self._rows = rows
        return rows

    def apply(
        self, inserted: frozenset[tuple], deleted: frozenset[tuple]
    ) -> "RelationVersion":
        """The next version after a netted delta (copy-on-write per shard)."""
        changed: dict[int, tuple[list[tuple], list[tuple]]] = {}
        for row in inserted:
            changed.setdefault(self.shard_of_row(row), ([], []))[0].append(row)
        for row in deleted:
            changed.setdefault(self.shard_of_row(row), ([], []))[1].append(row)
        shards = list(self.shards)
        for index, (added, removed) in changed.items():
            shards[index] = (shards[index] - frozenset(removed)) | frozenset(added)
        return RelationVersion(self.name, self.positions, tuple(shards))

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)


class ConstraintIndexVersion:
    """One immutable version of an access-constraint index, sharded by key.

    Per key, a bucket maps each XY-projection to its supporting-tuple count
    (so deleting one of several base rows behind the same projection keeps
    it alive).  Partitioned indexes spread their buckets by
    ``hash(key) % shard_count``; global ones keep a single shard.  ``lookup``
    therefore probes exactly one shard and returns the same frozenset an
    unsharded index would.
    """

    __slots__ = (
        "constraint",
        "partitioned",
        "shards",
        "_frozen",
    )

    def __init__(
        self,
        constraint: AccessConstraint,
        partitioned: bool,
        shards: tuple[dict[tuple, dict[tuple, int]], ...],
        frozen: dict[tuple, frozenset[tuple]] | None = None,
    ) -> None:
        self.constraint = constraint
        self.partitioned = partitioned
        self.shards = shards
        # Per-key frozen lookup results.  This memo is the only mutable state
        # of a version; concurrent readers may race to fill the same key with
        # the same value, which is benign under the GIL.
        self._frozen = {} if frozen is None else frozen

    @classmethod
    def build(
        cls,
        constraint: AccessConstraint,
        schema: DatabaseSchema,
        rows: Iterable[tuple],
        partitioned: bool,
        shard_count: int,
    ) -> "ConstraintIndexVersion":
        relation = schema.relation(constraint.relation)
        x_positions = relation.positions(constraint.x)
        out_positions = relation.positions(constraint.output_attributes)
        count = shard_count if partitioned else 1
        shards: tuple[dict[tuple, dict[tuple, int]], ...] = tuple(
            {} for _ in range(count)
        )
        for row in rows:
            key = tuple(row[p] for p in x_positions)
            value = tuple(row[p] for p in out_positions)
            counts = shards[shard_of(key, count)].setdefault(key, {})
            counts[value] = counts.get(value, 0) + 1
        return cls(constraint, partitioned, shards)

    def shard_for_key(self, key: tuple) -> int | None:
        """The shard a lookup of ``key`` probes, or ``None`` for global data."""
        if not self.partitioned:
            return None
        return shard_of(key, len(self.shards))

    def lookup(self, key: tuple) -> frozenset[tuple]:
        frozen = self._frozen.get(key)
        if frozen is None:
            shard = self.shards[shard_of(key, len(self.shards))]
            bucket = shard.get(key)
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
        return self.shards[shard_of(key, len(self.shards))].get(key, _NO_BUCKET)

    def apply(
        self, changes: Mapping[tuple, Mapping[tuple, int]]
    ) -> "ConstraintIndexVersion":
        """The next version after a staged per-key delta.

        ``changes`` maps each touched key to ``{projection: net support
        change}`` — the overlay :class:`SnapshotManager` staged while the
        transaction ran.  Copy-on-write: only shards owning a changed key
        copy their outer bucket dict, and only changed keys copy their inner
        count dicts.  The frozen-lookup memo carries over minus the changed
        keys.
        """
        count = len(self.shards)
        shards = list(self.shards)
        copied: set[int] = set()
        frozen = dict(self._frozen)
        for key, deltas in changes.items():
            if not deltas:
                continue
            index = shard_of(key, count)
            if index not in copied:
                shards[index] = dict(shards[index])
                copied.add(index)
            shard = shards[index]
            counts = dict(shard.get(key, _NO_BUCKET))
            for value, delta in deltas.items():
                remaining = counts.get(value, 0) + delta
                if remaining > 0:
                    counts[value] = remaining
                else:
                    counts.pop(value, None)
            if counts:
                shard[key] = counts
            else:
                shard.pop(key, None)
            frozen.pop(key, None)
        return ConstraintIndexVersion(
            self.constraint, self.partitioned, tuple(shards), frozen
        )


class DatabaseSnapshot:
    """A fully immutable version of a database instance.

    Serves the executor's fetch-provider protocol directly (``fetch`` /
    ``fetch_many``); :meth:`bound_to` wraps it with per-execution shard
    accounting for a given :class:`~repro.exec.iometer.IOMeter`.
    """

    __slots__ = ("version", "layout", "relations", "indexes")

    def __init__(
        self,
        version: int,
        layout: ShardingLayout,
        relations: Mapping[str, RelationVersion],
        indexes: Mapping[AccessConstraint, ConstraintIndexVersion],
    ) -> None:
        self.version = version
        self.layout = layout
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

    def bound_to(self, meter: object) -> "BoundSnapshotReader":
        """A per-execution reader charging shard touches to ``meter``."""
        return BoundSnapshotReader(self, meter)

    @property
    def facts(self) -> dict[str, frozenset[tuple]]:
        return {name: version.rows for name, version in self.relations.items()}


class BoundSnapshotReader:
    """A snapshot pinned for one execution, recording shards touched.

    Satisfies the fetch-provider protocol; every probe of a *partitioned*
    index reports the owning shard to the execution's meter
    (``record_shard``), which is how actual shard sets become observable and
    comparable against the router's static prediction.  Global (reference)
    lookups are shard-neutral and report nothing.
    """

    __slots__ = ("snapshot", "_meter")

    def __init__(self, snapshot: DatabaseSnapshot, meter: object) -> None:
        self.snapshot = snapshot
        self._meter = meter

    def fetch(
        self, constraint: AccessConstraint, key: Sequence[object]
    ) -> frozenset[tuple]:
        index = self.snapshot.index_for(constraint)
        key = tuple(key)
        shard = index.shard_for_key(key)
        if shard is not None:
            self._meter.record_shard(shard)
        return index.lookup(key)

    def fetch_many(
        self, constraint: AccessConstraint, keys: Collection[tuple]
    ) -> list[frozenset[tuple]]:
        """``[fetch(constraint, key) for key in keys]``: the index is resolved
        once, and every key still reports its shard."""
        index = self.snapshot.index_for(constraint)
        if index.partitioned:
            record_shard = self._meter.record_shard
            for key in keys:
                record_shard(index.shard_for_key(key))
        return index.lookup_many(keys)


class SnapshotManager:
    """Builds, advances and publishes the snapshot chain of one database.

    Inside a :meth:`Database.apply` transaction (under its write lock) the
    manager is the write path's constraint index: phase 1 folds every
    effective update into an overlay (:meth:`stage`) and asks
    :meth:`admits`, and phase 2 calls :meth:`advance` once storage
    reached the post-transaction state — it applies the overlay
    copy-on-write and publishes the next version with a single reference
    assignment, the only synchronisation point readers ever see.  ``stale``/``refresh`` cover
    out-of-band mutations (direct ``Relation.add`` outside a transaction):
    per-relation mutation counters are compared against the counters recorded
    at the last build, and drifted relations are rebuilt wholesale from live
    storage — never while a transaction is mid-batch.
    """

    def __init__(
        self,
        database: "Database",
        layout: ShardingLayout,
        constraints: Iterable[AccessConstraint],
    ) -> None:
        self.database = database
        self.layout = layout
        self._constraints = tuple(constraints)
        # Per relation: (constraint, X positions, XY positions, positions of
        # Y inside XY) — what staging and admission compute a row's key,
        # projection and Y-value from.
        self._staging: dict[str, list[tuple]] = {}
        for constraint in self._constraints:
            relation = database.schema.relation(constraint.relation)
            output = constraint.output_attributes
            self._staging.setdefault(constraint.relation, []).append(
                (
                    constraint,
                    relation.positions(constraint.x),
                    relation.positions(output),
                    tuple(output.index(a) for a in constraint.y),
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
        layout = self.layout
        database = self.database
        relations: dict[str, RelationVersion] = {}
        counters: dict[str, int] = {}
        for name in database.schema.names:
            relation = database.relation(name)
            relations[name] = RelationVersion.build(
                name,
                relation.tuples,
                layout.relation_positions.get(name),
                layout.shard_count,
            )
            counters[name] = relation.mutation_count
        indexes = {
            constraint: ConstraintIndexVersion.build(
                constraint,
                database.schema,
                relations[constraint.relation].rows,
                layout.constraint_is_partitioned(constraint),
                layout.shard_count,
            )
            for constraint in self._constraints
        }
        self._counters = counters
        return DatabaseSnapshot(version, layout, relations, indexes)

    # ------------------------------------------------------------------ #
    # The write path: staging, admission, advance
    # ------------------------------------------------------------------ #

    def abandon(self) -> None:
        """Drop the overlay (a no-op once :meth:`advance` consumed it)."""
        self._overlay = None

    def stage(self, relation: str, row: tuple, sign: int) -> None:
        """Fold one effective insertion (``sign=1``) or deletion (``-1``)
        of ``row`` into the overlay of every constraint on ``relation``."""
        overlay = self._overlay
        if overlay is None:
            overlay = self._overlay = {}
        for constraint, x_positions, out_positions, _ in self._staging.get(
            relation, ()
        ):
            per_key = overlay.get(constraint)
            if per_key is None:
                per_key = overlay[constraint] = {}
            key = tuple(row[p] for p in x_positions)
            changes = per_key.get(key)
            if changes is None:
                changes = per_key[key] = {}
            value = tuple(row[p] for p in out_positions)
            net = changes.get(value, 0) + sign
            if net:
                changes[value] = net
            else:
                del changes[value]

    def admits(self, update: object) -> bool:
        """Would applying ``update`` keep every constraint satisfied?

        The bounded-admissibility check of the write path: per constraint on
        the update's relation, it reads the one bucket the row's ``X``-value
        hashes to in the current version, plus the transaction's overlay for
        that key — at most ``N`` distinct projections plus what this
        transaction staged, never the relation.  Re-inserting an existing
        ``Y``-value never violates the bound; deletions are always
        admissible.
        """
        if not update.is_insertion:  # type: ignore[attr-defined]
            return True
        row = tuple(update.row)  # type: ignore[attr-defined]
        overlay = self._overlay or {}
        indexes = self._current.indexes
        for constraint, x_positions, out_positions, y_in_out in self._staging.get(
            update.relation, ()  # type: ignore[attr-defined]
        ):
            key = tuple(row[p] for p in x_positions)
            bucket = indexes[constraint].bucket(key)
            projections = set(bucket)
            for value, delta in overlay.get(constraint, {}).get(key, {}).items():
                if bucket.get(value, 0) + delta > 0:
                    projections.add(value)
                else:
                    projections.discard(value)
            values = {tuple(value[i] for i in y_in_out) for value in projections}
            values.add(tuple(row[out_positions[i]] for i in y_in_out))
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
                    for row in stream.inserted(name):
                        self.stage(name, row, 1)
                    for row in stream.deleted(name):
                        self.stage(name, row, -1)
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
            snapshot = DatabaseSnapshot(
                current.version + 1, current.layout, relations, indexes
            )
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
                layout = self.layout
                relations = dict(current.relations)
                indexes = dict(current.indexes)
                for name in drifted:
                    relation = self.database.relation(name)
                    relations[name] = RelationVersion.build(
                        name,
                        relation.tuples,
                        layout.relation_positions.get(name),
                        layout.shard_count,
                    )
                    for constraint, index in current.indexes.items():
                        if constraint.relation == name:
                            indexes[constraint] = ConstraintIndexVersion.build(
                                constraint,
                                self.database.schema,
                                relations[name].rows,
                                index.partitioned,
                                layout.shard_count,
                            )
                    self._counters[name] = relation.mutation_count
                snapshot = DatabaseSnapshot(
                    current.version + 1, layout, relations, indexes
                )
                self._current = snapshot
                return snapshot
