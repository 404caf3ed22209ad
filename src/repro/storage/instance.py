"""Database instances: in-memory relations with set semantics.

A :class:`Database` is a set-semantics instance of a
:class:`repro.algebra.schema.DatabaseSchema`.  It exposes the ``facts``
mapping consumed by every evaluation and decision procedure in the library,
and implements ``D |= A`` satisfaction of access schemas.

Relations are more than plain tuple sets: each one lazily builds secondary
hash indexes (:meth:`Relation.index_on` — the probe side of the execution
kernel's joins) and per-relation cardinality/distinct statistics with
per-column histograms (:meth:`Relation.statistics` — consumed by the join
orderers and the service planners).

There is one write path, and it is set-at-a-time.  :meth:`Database.apply`
runs a transaction in two phases: phase 1 walks the updates once — schema
checks, set membership against the live rows plus the transaction's net
changes so far, and the admission predicate — and nets them into a
:class:`~repro.storage.deltas.DeltaStream`; phase 2 hands each touched
relation its netted ``(added, removed)`` once (:meth:`Relation.apply_delta`),
which maintains the row set, the value counts, the histograms (one bucket
lookup per changed value) and the secondary indexes per batch.  An
out-of-band ``Relation.add`` / ``discard`` is a one-row batch through the
same method.  Access-constraint indexes are not kept here at all: the MVCC
snapshot version (:mod:`repro.storage.snapshots`) is the only one, advanced
from the overlay its manager staged during phase 1.  Transaction-level
observers (materialised views, execution backends) subscribe to the
database (:meth:`Database.subscribe`) and receive the netted stream once per
committed :meth:`Database.apply`.
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from ..algebra.schema import DatabaseSchema, RelationSchema
from ..core.access import AccessSchema
from ..errors import SchemaError
from .deltas import DeltaStream
from .histograms import ColumnStatistics
from .snapshots import MAX_CACHED_INDEXES
from .statistics import RelationStatistics


class _TrackedSet(set):
    """The tuple set of a :class:`Relation`; its mutators write through it.

    Storage-internal code (and a few long-standing tests) mutate
    ``relation._tuples`` directly; each in-place mutator becomes one batch
    through :meth:`Relation.apply_delta`, so the cached frozen view, the
    secondary indexes and the statistics stay consistent no matter how a
    tuple enters or leaves the relation.
    """

    __slots__ = ("_relation",)

    def __init__(self, relation: "Relation") -> None:
        super().__init__()
        self._relation = relation

    def _write(self, added: Collection[tuple], removed: Collection[tuple]) -> None:
        if added or removed:
            self._relation.apply_delta(added, removed)

    def add(self, row: tuple) -> None:
        if row not in self:
            self._write((row,), ())

    def discard(self, row: tuple) -> None:
        if row in self:
            self._write((), (row,))

    def remove(self, row: tuple) -> None:
        if row not in self:
            raise KeyError(row)
        self._write((), (row,))

    def pop(self) -> tuple:
        if not self:
            raise KeyError("pop from an empty set")
        row = next(iter(self))
        self._write((), (row,))
        return row

    def clear(self) -> None:
        self._write((), set(self))

    def update(self, *iterables: Iterable[tuple]) -> None:
        self._write(set().union(*iterables).difference(self), ())

    def difference_update(self, *iterables: Iterable[tuple]) -> None:
        self._write((), set().union(*iterables).intersection(self))

    def intersection_update(self, *iterables: Iterable[tuple]) -> None:
        self._write((), self.difference(self.intersection(*iterables)))

    def symmetric_difference_update(self, iterable: Iterable[tuple]) -> None:
        other = set(iterable)
        self._write(other.difference(self), other.intersection(self))

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
        # Per-position equi-depth histograms, built lazily alongside the
        # value counts on the first statistics() read, then maintained by
        # apply_delta — one bucket per changed value, never a rebuild;
        # drifted histograms rebuild lazily on the next read.  apply_delta
        # runs before snapshots publish and observers fire, so planner reads
        # are consistent with the MVCC version they pin.
        self._column_summaries: list[ColumnStatistics] | None = None
        # Monotone delta counter: snapshot managers compare it against the
        # value recorded at their last build to detect out-of-band mutations
        # (direct add/discard outside a Database.apply transaction).
        self._mutations = 0
        # Serialises lazy index/statistics builds: concurrent *read-only*
        # queries may race to build the same cache.  Mutations remain
        # single-writer, as before.
        self._build_lock = threading.Lock()
        self.add_many(tuples)

    # ------------------------------------------------------------------ #
    # Mutation: one set-at-a-time write path
    # ------------------------------------------------------------------ #

    def _checked(self, row: Iterable[object]) -> tuple:
        """``row`` as a tuple, or :class:`SchemaError` on a wrong arity."""
        row = tuple(row)
        if len(row) != self.schema.arity:
            raise SchemaError(
                f"tuple {row!r} has arity {len(row)}, relation {self.schema.name!r} "
                f"expects {self.schema.arity}"
            )
        return row

    def add(self, row: Iterable[object]) -> None:
        row = self._checked(row)
        if row not in self._tuples:
            self.apply_delta((row,), ())

    def add_many(self, rows: Iterable[Iterable[object]]) -> None:
        """Insert every row (all arities checked first) as one batch."""
        fresh = {self._checked(row) for row in rows}
        fresh.difference_update(self._tuples)
        if fresh:
            self.apply_delta(fresh, ())

    def discard(self, row: Iterable[object]) -> bool:
        """Remove one tuple; returns whether it was present."""
        row = tuple(row)
        if row not in self._tuples:
            return False
        self.apply_delta((), (row,))
        return True

    def apply_delta(
        self,
        added: Collection[tuple],
        removed: Collection[tuple],
        transient: Iterable[tuple] = (),
    ) -> None:
        """Apply one netted delta: the relation's only write path.

        ``added`` rows must be absent, ``removed`` rows present, and the two
        disjoint — :meth:`Database.apply` hands over each relation's netted
        transaction, :meth:`add` / :meth:`discard` a one-row batch.  The row
        set changes by two set operations; value counts and histograms by
        one net count per distinct value (one histogram bucket lookup per
        value, not per row); secondary indexes per batch.  ``transient``
        rows were inserted and deleted again inside the transaction: they
        leave every count alone but are located in the histograms all the
        same, so the buckets end exactly where a row-at-a-time replay of the
        transaction would leave them.
        """
        if added or removed:
            tuples = self._tuples
            set.difference_update(tuples, removed)
            set.update(tuples, added)
            self._mutations += 1
            self._frozen = None
            self._statistics = None
        counts = self._value_counts
        if counts is not None:
            summaries = self._column_summaries
            for position, per_value in enumerate(counts):
                value_of = itemgetter(position)
                net = Counter(map(value_of, added))
                net.subtract(Counter(map(value_of, removed)))
                histogram = summaries[position].histogram if summaries else None
                if histogram is not None:
                    for value in map(value_of, transient):
                        net.setdefault(value, 0)
                for value, change in net.items():
                    before = per_value.get(value, 0)
                    after = before + change
                    if after > 0:
                        per_value[value] = after
                    elif before:
                        del per_value[value]
                    if histogram is not None:
                        histogram.shift(value, change, (after > 0) - (before > 0))
        for positions, index in list(self._indexes.items()):
            if removed:
                gone: dict[tuple, set[tuple]] = {}
                for row in removed:
                    gone.setdefault(tuple(row[p] for p in positions), set()).add(row)
                for key, rows in gone.items():
                    kept = [row for row in index.get(key, ()) if row not in rows]
                    if kept:
                        index[key] = kept
                    else:
                        index.pop(key, None)
            for row in added:
                index.setdefault(tuple(row[p] for p in positions), []).append(row)

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

        Built lazily on first use, cached (at most ``MAX_CACHED_INDEXES``
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
                    while len(self._indexes) >= MAX_CACHED_INDEXES:
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

    @property
    def mutation_count(self) -> int:
        """How many non-empty deltas this relation has applied (a one-row
        write is one)."""
        return self._mutations

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
        # Transaction-level delta observers (weakly held): each committed
        # apply() notifies them once.
        self._delta_observers: list[weakref.ref] = []
        # MVCC support: apply() is single-writer (the lock), the _applying
        # flag marks the window between storage apply and snapshot publish
        # (snapshot staleness checks are suppressed while it is set), and
        # registered snapshot managers are advanced — new version built and
        # published — before delta observers run, so observers can pin the
        # post-batch snapshot.
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

        Observers are held weakly: a query service that goes out of scope
        stops being notified without explicit deregistration.  Notification
        happens once per non-empty :meth:`apply`, after the database (rows,
        statistics, secondary indexes and published snapshots) reached the
        post-transaction state.
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
        bounded admissibility check,
        :meth:`~repro.storage.snapshots.SnapshotManager.admits`); rejected
        updates are skipped and counted on the returned stream.

        Two phases.  Phase 1 (:meth:`_net`) walks the updates once and nets
        them into the stream, staging each effective update into every
        snapshot manager's overlay; it raises :class:`SchemaError` on an
        unknown relation or a wrong arity before anything is written, so a
        malformed batch leaves storage, snapshots and subscribers all-pre.
        Phase 2 hands each touched relation its netted delta once
        (:meth:`Relation.apply_delta`), advances the snapshot managers from
        their overlays, and notifies the subscribed transaction-level
        observers with the netted :class:`DeltaStream` exactly once.
        """
        with self._write_lock:
            managers = self._managers()
            try:
                stream, transient = self._net(updates, admit, managers)
                # Snapshots advance while _applying suppresses staleness
                # rebuilds; then the flag drops and observers run — they can
                # pin the already-published post-batch snapshot.
                self._applying = True
                try:
                    for name in stream.relations:
                        self._relations[name].apply_delta(
                            stream.inserted(name),
                            stream.deleted(name),
                            transient.pop(name, ()),
                        )
                    for name, rows in transient.items():  # netted away entirely
                        self._relations[name].apply_delta((), (), rows)
                    if not stream.is_empty:
                        for manager in managers:
                            manager.advance(stream)
                finally:
                    self._applying = False
            finally:
                for manager in managers:
                    manager.abandon()
            if not stream.is_empty:
                self._notify_delta(stream)
        return stream

    def _net(
        self,
        updates: Iterable[object],
        admit: Callable[[object], bool] | None,
        managers: Sequence[object],
    ) -> tuple[DeltaStream, dict[str, list[tuple]]]:
        """Phase 1 of :meth:`apply`: the netted stream, and per relation the
        rows inserted and deleted again inside the transaction.  Reads
        storage, writes nothing but the stream and the managers' overlays."""
        stream = DeltaStream()
        transient: dict[str, list[tuple]] = {}
        for update in updates:
            name = update.relation
            relation = self._relation(name)
            row = relation._checked(update.row)
            if admit is not None and not admit(update):
                stream.skipped_inadmissible += 1
                continue
            if update.is_insertion:
                if stream.holds(name, row, relation._tuples):
                    continue
                stream.record_insert(name, row)
                sign = 1
            else:
                if not stream.holds(name, row, relation._tuples):
                    continue
                if stream.record_delete(name, row):
                    transient.setdefault(name, []).append(row)
                sign = -1
            for manager in managers:
                manager.stage(name, row, sign)
        return stream, transient

    def _managers(self) -> list:
        """The live snapshot managers (dead weak references pruned)."""
        managers = [reference() for reference in self._snapshot_managers]
        alive = [manager for manager in managers if manager is not None]
        if len(alive) != len(managers):
            self._snapshot_managers = [weakref.ref(manager) for manager in alive]
        return alive

    def enable_snapshots(self, access_schema: AccessSchema):
        """Register (and return) an MVCC snapshot manager for this database.

        The manager immediately builds and publishes version 0 from the
        current data and is advanced by every committed :meth:`apply`.
        Managers are held weakly, mirroring the observer protocol: a
        service that goes away stops paying the per-transaction advance.
        """
        from .snapshots import SnapshotManager

        with self._write_lock:
            manager = SnapshotManager(self, None, access_schema)
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
