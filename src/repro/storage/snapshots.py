"""MVCC snapshots: immutable, hash-sharded versions of a database instance.

The PR 2 frozen-tuple views (``Relation.tuples``) gave single reads a stable
set to iterate; this module promotes them into real multi-version concurrency
control.  A :class:`DatabaseSnapshot` is a fully immutable picture of the
instance — per-relation row versions plus per-access-constraint index
versions — and :class:`SnapshotManager` publishes a new one per committed
:meth:`repro.storage.instance.Database.apply` transaction with a single
reference swap.  Readers pin the current snapshot for their whole execution,
so they never block on, nor observe, an in-flight write; writers never wait
for readers.  Building the next version is copy-on-write from the netted
:class:`~repro.storage.deltas.DeltaStream`: only the shards and index keys a
batch touched are copied.

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
interpreted kernel and the codegen tier's late-bound runtime resolve against
a pinned snapshot unchanged.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

from ..algebra.schema import DatabaseSchema
from ..core.access import AccessConstraint, AccessSchema
from ..errors import AccessConstraintError
from .deltas import DeltaStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (instance imports us)
    from .instance import Database

_EMPTY: frozenset[tuple] = frozenset()


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

    The buckets mirror :class:`~repro.storage.indexes.AccessIndex`: per key,
    a mapping of XY-projection -> supporting-tuple count (so deleting one of
    several base rows behind the same projection keeps it alive).  Partitioned
    indexes spread their buckets by ``hash(key) % shard_count``; global ones
    keep a single shard.  ``lookup`` therefore probes exactly one shard and
    returns the same frozenset an unsharded index would.
    """

    __slots__ = (
        "constraint",
        "partitioned",
        "_x_positions",
        "_out_positions",
        "shards",
        "_frozen",
    )

    def __init__(
        self,
        constraint: AccessConstraint,
        partitioned: bool,
        x_positions: tuple[int, ...],
        out_positions: tuple[int, ...],
        shards: tuple[dict[tuple, dict[tuple, int]], ...],
        frozen: dict[tuple, frozenset[tuple]] | None = None,
    ) -> None:
        self.constraint = constraint
        self.partitioned = partitioned
        self._x_positions = x_positions
        self._out_positions = out_positions
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
        return cls(constraint, partitioned, x_positions, out_positions, shards)

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
                # Misses are not memoised (unbounded key space), matching
                # AccessIndex.lookup.
                return _EMPTY
            frozen = frozenset(bucket)
            self._frozen[key] = frozen
        return frozen

    def lookup_many(self, keys: Iterable[tuple]) -> list[frozenset[tuple]]:
        """``[lookup(key) for key in keys]``: one call for a fetch step's batch."""
        return list(map(self.lookup, keys))

    def apply(
        self, inserted: frozenset[tuple], deleted: frozenset[tuple]
    ) -> "ConstraintIndexVersion":
        """The next version after a netted delta on the base relation.

        Copy-on-write: only shards owning a changed key copy their outer
        bucket dict, and only changed keys copy their inner count dicts.  The
        frozen-lookup memo carries over minus the changed keys.
        """
        x_positions = self._x_positions
        out_positions = self._out_positions
        count = len(self.shards)
        changes: dict[int, dict[tuple, list[tuple[tuple, int]]]] = {}
        for rows, delta in ((inserted, 1), (deleted, -1)):
            for row in rows:
                key = tuple(row[p] for p in x_positions)
                value = tuple(row[p] for p in out_positions)
                changes.setdefault(shard_of(key, count), {}).setdefault(
                    key, []
                ).append((value, delta))
        shards = list(self.shards)
        frozen = dict(self._frozen)
        for shard_index, per_key in changes.items():
            shard = dict(shards[shard_index])
            for key, updates in per_key.items():
                counts = dict(shard.get(key, ()))
                for value, delta in updates:
                    remaining = counts.get(value, 0) + delta
                    if remaining <= 0:
                        counts.pop(value, None)
                    else:
                        counts[value] = remaining
                if counts:
                    shard[key] = counts
                else:
                    shard.pop(key, None)
                frozen.pop(key, None)
            shards[shard_index] = shard
        return ConstraintIndexVersion(
            self.constraint,
            self.partitioned,
            x_positions,
            out_positions,
            tuple(shards),
            frozen,
        )


class DatabaseSnapshot:
    """A fully immutable version of a database instance.

    Serves the executor's fetch-provider protocol directly (``fetch``), so a
    pinned snapshot slots in wherever an
    :class:`~repro.storage.indexes.IndexSet` does; :meth:`bound_to` wraps it
    with per-execution shard accounting for a given
    :class:`~repro.exec.iometer.IOMeter`.
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

    ``advance`` is called by :meth:`Database.apply` after the storage layer
    reached the post-transaction state (still inside the write transaction):
    it derives the next version copy-on-write from the netted delta and
    publishes it with a single reference assignment — the only
    synchronisation point readers ever see.  ``stale``/``refresh`` cover
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

    def advance(self, stream: DeltaStream) -> DatabaseSnapshot:
        """Build and publish the next version from one committed delta."""
        with self._lock:
            current = self._current
            relations = dict(current.relations)
            indexes = dict(current.indexes)
            for name in stream.relations:
                inserted = stream.inserted(name)
                deleted = stream.deleted(name)
                if not inserted and not deleted:
                    continue
                relations[name] = relations[name].apply(inserted, deleted)
                for constraint, index in current.indexes.items():
                    if constraint.relation == name:
                        indexes[constraint] = index.apply(inserted, deleted)
                self._counters[name] = self.database.relation(name).mutation_count
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
