"""Database instances: in-memory relations with set semantics.

A :class:`Database` is a set-semantics instance of a
:class:`repro.algebra.schema.DatabaseSchema`.  It exposes the ``facts``
mapping consumed by every evaluation and decision procedure in the library,
and implements ``D |= A`` satisfaction of access schemas.

Relations are more than plain tuple sets: each one lazily builds secondary
hash indexes (:meth:`Relation.index_on` — the probe side of the execution
kernel's joins) and per-relation cardinality/distinct statistics
(:meth:`Relation.statistics` — consumed by the greedy join orderers and the
service planners), both kept consistent under single-tuple mutations.
Access-constraint indexes (:class:`repro.storage.indexes.AccessIndex`)
register themselves as observers and are maintained incrementally too, so
applying an update batch never forces a full index rebuild.

Change propagation has two granularities, one protocol: per-row observers
(indexes, statistics) ride the relation-level hooks, while transaction-level
observers (materialised views, plan caches, execution backends) subscribe to
the database (:meth:`Database.subscribe`) and receive one netted
:class:`~repro.storage.deltas.DeltaStream` per committed :meth:`Database.apply`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..algebra.schema import DatabaseSchema, RelationSchema
from ..core.access import AccessSchema
from ..errors import SchemaError
from .deltas import DeltaStream
from .histograms import ColumnStatistics
from .statistics import RelationStatistics

#: Upper bound on cached secondary indexes per relation (FIFO eviction).
#: Compiled query pipelines resolve their indexes per execution, so evicting
#: a cold index only costs a rebuild on its next use.
_MAX_CACHED_INDEXES = 8


class _TrackedSet(set):
    """The tuple set of a :class:`Relation`; mutations notify the owner.

    Storage-internal code (and a few long-standing tests) mutate
    ``relation._tuples`` directly; routing the set's own mutators through
    the relation keeps the cached frozen view, the secondary indexes, the
    statistics and every registered access-constraint index consistent no
    matter how a tuple enters or leaves the relation.
    """

    __slots__ = ("_relation",)

    def __init__(self, relation: "Relation") -> None:
        super().__init__()
        self._relation = relation

    def add(self, row: tuple) -> None:
        if row in self:
            return
        super().add(row)
        self._relation._after_insert(row)

    def discard(self, row: tuple) -> None:
        if row not in self:
            return
        super().discard(row)
        self._relation._after_delete(row)

    def remove(self, row: tuple) -> None:
        if row not in self:
            raise KeyError(row)
        self.discard(row)

    def pop(self) -> tuple:
        row = super().pop()
        self._relation._after_delete(row)
        return row

    def clear(self) -> None:
        for row in list(self):
            self.discard(row)

    def update(self, *iterables: Iterable[tuple]) -> None:
        for iterable in iterables:
            for row in iterable:
                self.add(row)

    def difference_update(self, *iterables: Iterable[tuple]) -> None:
        for iterable in iterables:
            for row in iterable:
                self.discard(row)

    def intersection_update(self, *iterables: Iterable[tuple]) -> None:
        keep = set.intersection(*(set(i) for i in iterables)) if iterables else set(self)
        for row in list(self):
            if row not in keep:
                self.discard(row)

    def symmetric_difference_update(self, iterable: Iterable[tuple]) -> None:
        for row in set(iterable):
            if row in self:
                self.discard(row)
            else:
                self.add(row)

    def __ior__(self, other):  # noqa: ANN001 - mirrors set's signature
        self.update(other)
        return self

    def __isub__(self, other):  # noqa: ANN001
        self.difference_update(other)
        return self

    def __iand__(self, other):  # noqa: ANN001
        self.intersection_update(other)
        return self

    def __ixor__(self, other):  # noqa: ANN001
        self.symmetric_difference_update(other)
        return self


class Relation:
    """An instance of a single relation schema (a set of tuples)."""

    def __init__(self, schema: RelationSchema, tuples: Iterable[tuple] = ()) -> None:
        self.schema = schema
        self._tuples: _TrackedSet = _TrackedSet(self)
        self._frozen: frozenset[tuple] | None = None
        self._indexes: dict[tuple[int, ...], dict[tuple, list[tuple]]] = {}
        self._statistics: RelationStatistics | None = None
        # Per-position value -> count multiset backing statistics(); built
        # lazily, then maintained in place so statistics stay O(arity) to
        # refresh after a delta instead of O(|relation|).
        self._value_counts: list[dict[object, int]] | None = None
        # Per-position distribution summaries (equi-depth histogram +
        # distinct sketch).  Built lazily alongside the value counts on the
        # first statistics() read, then maintained per row through the same
        # _after_insert/_after_delete hooks that keep indexes fresh inside a
        # Database.apply transaction — writes touch one bucket, never
        # rebuild; drifted summaries rebuild lazily on the next read.  The
        # hooks run before snapshots publish and observers fire, so planner
        # reads are consistent with the MVCC version they pin.
        self._column_summaries: list[ColumnStatistics] | None = None
        self._observers: list[weakref.ref] = []
        # Monotone mutation counter: snapshot managers compare it against the
        # value recorded at their last build to detect out-of-band mutations
        # (direct add/discard outside a Database.apply transaction).
        self._mutations = 0
        # Serialises lazy index/statistics builds: concurrent *read-only*
        # queries (query_many's thread pool) may race to build the same
        # cache.  Mutations remain single-writer, as before.
        self._build_lock = threading.Lock()
        for row in tuples:
            self.add(row)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, row: Iterable[object]) -> None:
        row = tuple(row)
        if len(row) != self.schema.arity:
            raise SchemaError(
                f"tuple {row!r} has arity {len(row)}, relation {self.schema.name!r} "
                f"expects {self.schema.arity}"
            )
        self._tuples.add(row)

    def add_many(self, rows: Iterable[Iterable[object]]) -> None:
        for row in rows:
            self.add(row)

    def discard(self, row: Iterable[object]) -> bool:
        """Remove one tuple; returns whether it was present."""
        row = tuple(row)
        if row in self._tuples:
            self._tuples.discard(row)
            return True
        return False

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    @property
    def tuples(self) -> frozenset[tuple]:
        """The relation as a frozen set (cached; invalidated on mutation)."""
        if self._frozen is None:
            self._frozen = frozenset(self._tuples)
        return self._frozen

    def project(self, attributes: Iterable[str]) -> set[tuple]:
        positions = self.schema.positions(attributes)
        return {tuple(row[p] for p in positions) for row in self._tuples}

    def index_on(self, positions: Sequence[int]) -> Mapping[tuple, Sequence[tuple]]:
        """Secondary hash index keyed on the values at ``positions``.

        Built lazily on first use, cached (at most ``_MAX_CACHED_INDEXES``
        per relation) and maintained incrementally under mutations — the
        execution kernel's joins probe these instead of re-hashing the
        relation on every query.
        """
        key = tuple(positions)
        index = self._indexes.get(key)
        if index is None:
            with self._build_lock:
                index = self._indexes.get(key)
                if index is None:
                    index = {}
                    for row in self._tuples:
                        index.setdefault(tuple(row[p] for p in key), []).append(row)
                    while len(self._indexes) >= _MAX_CACHED_INDEXES:
                        self._indexes.pop(next(iter(self._indexes)), None)
                    self._indexes[key] = index
        return index

    def statistics(self) -> RelationStatistics:
        """Cardinality and per-attribute distinct counts (cached).

        The backing per-position value counts are built once and maintained
        under mutations, so refreshing the statistics after a delta costs
        O(arity), not a relation scan.
        """
        statistics = self._statistics
        if statistics is None:
            counts = self._value_counts
            if counts is None:
                with self._build_lock:
                    counts = self._value_counts
                    if counts is None:
                        counts = [{} for _ in range(self.schema.arity)]
                        for row in self._tuples:
                            for position, per_value in enumerate(counts):
                                value = row[position]
                                per_value[value] = per_value.get(value, 0) + 1
                        self._value_counts = counts
            summaries = self._column_summaries
            if summaries is None:
                with self._build_lock:
                    summaries = self._column_summaries
                    if summaries is None:
                        summaries = [ColumnStatistics(per_value) for per_value in counts]
                        self._column_summaries = summaries
            statistics = RelationStatistics(
                cardinality=len(self._tuples),
                distinct=tuple(len(per_value) for per_value in counts),
                columns=tuple(summary.fresh() for summary in summaries),
            )
            self._statistics = statistics
        return statistics

    # ------------------------------------------------------------------ #
    # Change propagation
    # ------------------------------------------------------------------ #

    def register_observer(self, observer: object) -> None:
        """Register an object with ``on_insert(row)``/``on_delete(row)`` hooks.

        Observers are held weakly: an access-constraint index that goes out
        of scope stops being maintained without explicit deregistration.
        """
        self._observers.append(weakref.ref(observer))

    @property
    def mutation_count(self) -> int:
        """How many single-tuple mutations this relation has seen."""
        return self._mutations

    def _after_insert(self, row: tuple) -> None:
        self._mutations += 1
        self._frozen = None
        self._statistics = None
        counts = self._value_counts
        if counts is not None:
            summaries = self._column_summaries
            for position, per_value in enumerate(counts):
                value = row[position]
                updated = per_value.get(value, 0) + 1
                per_value[value] = updated
                if summaries is not None:
                    summaries[position].on_insert(value, updated == 1)
        for positions, index in list(self._indexes.items()):
            index.setdefault(tuple(row[p] for p in positions), []).append(row)
        self._notify("on_insert", row)

    def _after_delete(self, row: tuple) -> None:
        self._mutations += 1
        self._frozen = None
        self._statistics = None
        counts = self._value_counts
        if counts is not None:
            summaries = self._column_summaries
            for position, per_value in enumerate(counts):
                value = row[position]
                remaining = per_value.get(value, 0) - 1
                if remaining <= 0:
                    per_value.pop(value, None)
                else:
                    per_value[value] = remaining
                if summaries is not None:
                    summaries[position].on_delete(value, remaining <= 0)
        for positions, index in list(self._indexes.items()):
            key = tuple(row[p] for p in positions)
            bucket = index.get(key)
            if bucket is not None:
                try:
                    bucket.remove(row)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not bucket:
                    del index[key]
        self._notify("on_delete", row)

    def _notify(self, hook: str, row: tuple) -> None:
        if not self._observers:
            return
        alive: list[weakref.ref] = []
        for reference in self._observers:
            observer = reference()
            if observer is None:
                continue
            getattr(observer, hook)(row)
            alive.append(reference)
        if len(alive) != len(self._observers):
            self._observers = alive

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._tuples)

    def __contains__(self, row: object) -> bool:
        return row in self._tuples

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Relation({self.schema.name}, {len(self)} tuples)"


class Database:
    """A database instance over a schema.

    >>> from repro.algebra.schema import schema_from_spec
    >>> schema = schema_from_spec({"rating": ("mid", "rank")})
    >>> db = Database(schema)
    >>> db.add("rating", ("m1", 5))
    >>> db.size
    1
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        facts: Mapping[str, Iterable[tuple]] | None = None,
    ) -> None:
        self.schema = schema
        self._relations: dict[str, Relation] = {
            relation.name: Relation(relation) for relation in schema
        }
        # Transaction-level delta observers (weakly held, like the per-row
        # relation observers): each committed apply() notifies them once.
        self._delta_observers: list[weakref.ref] = []
        # MVCC support: apply() is single-writer (the lock), the _applying
        # flag marks the mid-batch window (snapshot staleness checks are
        # suppressed while it is set), and registered snapshot managers are
        # advanced — new version built and published — before delta
        # observers run, so observers can pin the post-batch snapshot.
        self._write_lock = threading.RLock()
        self._applying = False
        self._snapshot_managers: list[weakref.ref] = []
        if facts:
            for name, rows in facts.items():
                self.add_many(name, rows)

    # ------------------------------------------------------------------ #
    # Population
    # ------------------------------------------------------------------ #

    def add(self, relation: str, row: Iterable[object]) -> None:
        self._relation(relation).add(row)

    def add_many(self, relation: str, rows: Iterable[Iterable[object]]) -> None:
        self._relation(relation).add_many(rows)

    def _relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError as exc:
            raise SchemaError(
                f"unknown relation {name!r}; known: {sorted(self._relations)}"
            ) from exc

    # ------------------------------------------------------------------ #
    # The delta-stream protocol (transaction-level change propagation)
    # ------------------------------------------------------------------ #

    def subscribe(self, observer: object) -> None:
        """Subscribe an ``on_delta(stream)`` observer to committed transactions.

        Observers are held weakly, mirroring the per-row relation observers: a
        query service that goes out of scope stops being notified without
        explicit deregistration.  Notification happens once per non-empty
        :meth:`apply`, after the database (and every per-row-maintained
        structure) reached the post-transaction state.
        """
        self._delta_observers.append(weakref.ref(observer))

    def unsubscribe(self, observer: object) -> None:
        self._delta_observers = [
            reference
            for reference in self._delta_observers
            if reference() is not None and reference() is not observer
        ]

    def apply(
        self,
        updates: Iterable[object],
        *,
        admit: Callable[[object], bool] | None = None,
    ) -> DeltaStream:
        """Apply a batch of single-tuple updates as one transaction.

        ``updates`` is any iterable of :class:`~repro.storage.updates.Insertion`
        / :class:`~repro.storage.updates.Deletion` objects (duck-typed on
        ``relation`` / ``row`` / ``is_insertion``), applied in order with set
        semantics — inserting a present tuple or deleting an absent one is a
        no-op.  ``admit`` is an optional per-update predicate evaluated
        against the *running* state right before each update (the service's
        bounded admissibility check); rejected updates are skipped and counted
        on the returned stream.

        Every applied update maintains the relation's caches, secondary
        indexes, statistics and access-constraint indexes in place (the
        per-row observer path); after the whole batch, subscribed
        transaction-level observers receive the netted :class:`DeltaStream`
        exactly once.
        """
        stream = DeltaStream()
        with self._write_lock:
            self._applying = True
            try:
                for update in updates:
                    relation = self._relation(update.relation)
                    row = tuple(update.row)
                    if admit is not None and not admit(update):
                        stream.skipped_inadmissible += 1
                        continue
                    if update.is_insertion:
                        if row not in relation:
                            relation.add(row)
                            stream.record_insert(update.relation, row)
                    else:
                        if relation.discard(row):
                            stream.record_delete(update.relation, row)
            finally:
                # An exception mid-batch (bad arity, unknown relation) leaves
                # the earlier updates applied — observers must still see that
                # partial stream, or views and caches silently go stale.
                # Snapshots advance first (while _applying still suppresses
                # staleness rebuilds), then the flag drops, then observers run
                # — they can pin the already-published post-batch snapshot.
                try:
                    if not stream.is_empty:
                        self._advance_snapshots(stream)
                finally:
                    self._applying = False
                if not stream.is_empty:
                    self._notify_delta(stream)
        return stream

    def _advance_snapshots(self, stream: DeltaStream) -> None:
        if not self._snapshot_managers:
            return
        alive: list[weakref.ref] = []
        for reference in self._snapshot_managers:
            manager = reference()
            if manager is None:
                continue
            manager.advance(stream)
            alive.append(reference)
        if len(alive) != len(self._snapshot_managers):
            self._snapshot_managers = alive

    def enable_snapshots(self, layout, access_schema: AccessSchema):
        """Register (and return) an MVCC snapshot manager for this database.

        ``layout`` is a :class:`~repro.storage.snapshots.ShardingLayout`;
        the manager immediately builds and publishes version 0 from the
        current data and is advanced by every committed :meth:`apply`.
        Managers are held weakly, mirroring the observer protocols: a
        service that goes away stops paying the per-transaction advance.
        """
        from .snapshots import SnapshotManager

        with self._write_lock:
            manager = SnapshotManager(self, layout, access_schema)
            self._snapshot_managers.append(weakref.ref(manager))
        return manager

    def disable_snapshots(self, manager: object) -> None:
        """Stop advancing ``manager`` (the counterpart of :meth:`unsubscribe`).

        The manager keeps serving its last published version and still heals
        through ``stale``/``refresh`` when asked; it just no longer charges
        every :meth:`apply` a copy-on-write advance.
        """
        with self._write_lock:
            self._snapshot_managers = [
                reference
                for reference in self._snapshot_managers
                if reference() is not None and reference() is not manager
            ]

    def _notify_delta(self, stream: DeltaStream) -> None:
        if not self._delta_observers:
            return
        alive: list[weakref.ref] = []
        for reference in self._delta_observers:
            observer = reference()
            if observer is None:
                continue
            observer.on_delta(stream)
            alive.append(reference)
        if len(alive) != len(self._delta_observers):
            self._delta_observers = alive

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def relation(self, name: str) -> Relation:
        return self._relation(name)

    @property
    def facts(self) -> dict[str, frozenset[tuple]]:
        """The instance as a fact set (relation name -> set of tuples)."""
        return {name: relation.tuples for name, relation in self._relations.items()}

    @property
    def size(self) -> int:
        """Total number of tuples (|D| in the paper)."""
        return sum(len(relation) for relation in self._relations.values())

    def relation_sizes(self) -> dict[str, int]:
        return {name: len(relation) for name, relation in self._relations.items()}

    def statistics(self) -> dict[str, RelationStatistics]:
        """Per-relation statistics (each cached on its relation)."""
        return {name: relation.statistics() for name, relation in self._relations.items()}

    def active_domain(self) -> set[object]:
        domain: set[object] = set()
        for relation in self._relations.values():
            for row in relation:
                domain.update(row)
        return domain

    # ------------------------------------------------------------------ #
    # Access schema satisfaction
    # ------------------------------------------------------------------ #

    def satisfies(self, access_schema: AccessSchema) -> bool:
        """``D |= A``: the instance satisfies every access constraint."""
        return access_schema.satisfied_by(self.facts, self.schema)

    def violations(self, access_schema: AccessSchema) -> list[str]:
        return access_schema.violations(self.facts, self.schema)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_facts(
        cls, schema: DatabaseSchema, facts: Mapping[str, Iterable[tuple]]
    ) -> "Database":
        return cls(schema, facts)

    def copy(self) -> "Database":
        return Database.from_facts(self.schema, self.facts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        sizes = ", ".join(f"{n}={len(r)}" for n, r in self._relations.items())
        return f"Database({sizes})"
