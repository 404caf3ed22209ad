"""Database instances: in-memory relations with set semantics.

A :class:`Database` is a set-semantics instance of a
:class:`repro.algebra.schema.DatabaseSchema`.  It exposes the ``facts``
mapping consumed by every evaluation and decision procedure in the library,
and implements ``D |= A`` satisfaction of access schemas.

Relations are more than plain tuple sets: each one lazily builds secondary
hash indexes (:meth:`Relation.index_on` — the probe side of the execution
kernel's joins) and per-relation cardinality/distinct statistics with exact
per-column value counts (:meth:`Relation.statistics` — consumed by the join
orderers and the service planners).

There is one write path, and it is set-at-a-time.  :meth:`Database.apply`
runs a transaction in two phases.  Phase 1 (:meth:`Database._net`) checks
every update's schema, groups the updates per relation, and nets each
relation's batch at once into a :class:`~repro.storage.deltas.DeltaStream`:
rows the batch names once by set operations against the live rows, and only
the updates that must run in order — a row named more than once, a key
within reach of its access bound, a foreign admission predicate — one at a
time.  Phase 2 hands each touched relation its netted ``(added, removed)``
once (:meth:`Relation.apply_delta`), which maintains the row set and the
secondary indexes per batch and accumulates each column's net value changes;
column statistics fold those in on read (:meth:`Relation.statistics`), not
on every write.  An out-of-band ``Relation.add`` / ``discard`` is a one-row
batch through the same method.  Access-constraint indexes are not kept here
at all: the MVCC snapshot version (:mod:`repro.storage.snapshots`) is the
only one, advanced from the overlay its manager staged during phase 1.
Transaction-level observers (materialised views, execution backends)
subscribe to the database (:meth:`Database.subscribe`) and receive the
netted stream once per committed :meth:`Database.apply`.
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
from .snapshots import MAX_CACHED_INDEXES, row_getter
from .statistics import ColumnStatistics, RelationStatistics


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
        # Per-position value -> count multisets and their running second
        # moments (the sum of the squared counts) backing statistics():
        # built on the first read, then brought up to date by later reads
        # (_fold_statistics), never by a write.  Writes only add to
        # _pending: per position, the net count change of every value
        # touched since the last read.
        self._value_counts: list[dict[object, int]] | None = None
        self._square_sums: list[int] | None = None
        self._pending: list[Counter] | None = None
        # Monotone delta counter: snapshot managers compare it against the
        # value recorded at their last build to detect out-of-band mutations
        # (direct add/discard outside a Database.apply transaction).
        self._mutations = 0
        # Serialises lazy index/statistics builds (concurrent *read-only*
        # queries may race to build the same cache) and the statistics
        # fold against a write's accumulation.  Mutations remain
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

    def apply_delta(self, added: Collection[tuple], removed: Collection[tuple]) -> None:
        """Apply one netted delta: the relation's only write path.

        ``added`` rows must be absent, ``removed`` rows present, and the two
        disjoint — :meth:`Database.apply` hands over each relation's netted
        transaction, :meth:`add` / :meth:`discard` a one-row batch.  The row
        set changes by two set operations and the secondary indexes per
        batch.  Column statistics are not touched: once they have been read,
        each column's net value changes accumulate for the next
        :meth:`statistics` read to fold in.
        """
        if not (added or removed):
            return
        with self._build_lock:
            tuples = self._tuples
            set.difference_update(tuples, removed)
            set.update(tuples, added)
            self._mutations += 1
            self._frozen = None
            self._statistics = None
            pending = self._pending
            if pending is not None:
                for position, net in enumerate(pending):
                    value_of = itemgetter(position)
                    net.update(map(value_of, added))
                    net.subtract(map(value_of, removed))
            for positions, index in list(self._indexes.items()):
                key_of = row_getter(positions)
                if removed:
                    gone: dict[tuple, set[tuple]] = {}
                    for key, row in zip(map(key_of, removed), removed):
                        gone.setdefault(key, set()).add(row)
                    for key, rows in gone.items():
                        kept = [row for row in index.get(key, ()) if row not in rows]
                        if kept:
                            index[key] = kept
                        else:
                            index.pop(key, None)
                for key, row in zip(map(key_of, added), added):
                    index.setdefault(key, []).append(row)

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
                    key_of = row_getter(key)
                    for row in self._tuples:
                        index.setdefault(key_of(row), []).append(row)
                    while len(self._indexes) >= MAX_CACHED_INDEXES:
                        self._indexes.pop(next(iter(self._indexes)), None)
                    self._indexes[key] = index
        return index

    def statistics(self) -> RelationStatistics:
        """Cardinality, per-attribute distinct counts and exact column value
        counts (cached until the next write).

        The first read builds per-position value counts and their second
        moments in one scan; every later read first folds in the value
        changes written since the previous one (:meth:`_fold_statistics`),
        so a read after any number of writes costs O(arity + values
        touched), not a scan.
        """
        statistics = self._statistics
        if statistics is None:
            with self._build_lock:
                statistics = self._statistics
                if statistics is None:
                    if self._value_counts is None:
                        counts = [{} for _ in range(self.schema.arity)]
                        for row in self._tuples:
                            for position, per_value in enumerate(counts):
                                value = row[position]
                                per_value[value] = per_value.get(value, 0) + 1
                        self._value_counts = counts
                        self._square_sums = [
                            sum(count * count for count in per_value.values())
                            for per_value in counts
                        ]
                        self._pending = [Counter() for _ in counts]
                    else:
                        self._fold_statistics()
                    cardinality = len(self._tuples)
                    statistics = RelationStatistics(
                        cardinality=cardinality,
                        distinct=tuple(map(len, self._value_counts)),
                        columns=tuple(
                            ColumnStatistics(per_value, cardinality, square_sum)
                            for per_value, square_sum in zip(
                                self._value_counts, self._square_sums
                            )
                        ),
                    )
                    self._statistics = statistics
        return statistics

    def _fold_statistics(self) -> None:
        """Fold the value changes written since the last read into the value
        counts and their second moments, O(1) per changed value.

        Counts add, so folding many transactions at once ends where folding
        each in turn would.  The caller holds ``_build_lock``.
        """
        pending = self._pending
        square_sums = self._square_sums
        if pending is None or square_sums is None:
            return
        for position, (per_value, net) in enumerate(zip(self._value_counts, pending)):
            square_sum = square_sums[position]
            for value, change in net.items():
                if not change:
                    continue
                before = per_value.get(value, 0)
                after = before + change
                if after > 0:
                    per_value[value] = after
                else:
                    del per_value[value]
                square_sum += after * after - before * before
            square_sums[position] = square_sum
            net.clear()

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
        against the *running* state right before each update; rejected
        updates are skipped and counted on the returned stream.  The
        service's bounded admissibility check is a registered snapshot
        manager's :meth:`~repro.storage.snapshots.SnapshotManager.admits`:
        that manager decides per ``(constraint, key)`` and only the keys
        within reach of their bound are checked update by update.  Any other
        predicate is called once per update, in order.

        Two phases.  Phase 1 (:meth:`_net`) nets the updates into the stream,
        one relation's batch at a time, and stages each relation's netted
        batch into every snapshot manager's overlay; it raises
        :class:`SchemaError` on an unknown relation or a wrong arity before
        anything is staged, so a malformed batch leaves storage, snapshots
        and subscribers all-pre.  Phase 2 hands each touched relation its
        netted delta once (:meth:`Relation.apply_delta`), advances the
        snapshot managers from their overlays, and notifies the subscribed
        transaction-level observers with the netted :class:`DeltaStream`
        exactly once.
        """
        with self._write_lock:
            managers = self._managers()
            try:
                stream = self._net(updates, admit, managers)
                # Snapshots advance while _applying suppresses staleness
                # rebuilds; then the flag drops and observers run — they can
                # pin the already-published post-batch snapshot.
                self._applying = True
                try:
                    for name in stream.relations:
                        self._relations[name].apply_delta(
                            stream.inserted(name), stream.deleted(name)
                        )
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
    ) -> DeltaStream:
        """Phase 1 of :meth:`apply`: the netted stream.  Reads storage,
        writes nothing but the stream and the managers' overlays.

        Every update is schema-checked first.  Relations are independent —
        each access constraint and each net set belongs to one relation — so
        the updates are then netted one relation's batch at a time.  Rows
        the batch names once, on keys no order of the batch can push past
        their bound, net by set operations against the live rows and are
        staged at once; the rest replay in order (:meth:`_replay`).
        """
        # One step per update, in batch order:
        # (position, relation, row, is_insertion, update).
        steps: list[tuple] = []
        batches: dict[str, list[tuple]] = {}
        arities: dict[str, int] = {}
        for position, update in enumerate(updates):
            name = update.relation
            row = tuple(update.row)
            batch = batches.get(name)
            if batch is None:
                batch = batches[name] = []
                arities[name] = self._relation(name).schema.arity
            if len(row) != arities[name]:
                self._relations[name]._checked(row)  # raises SchemaError
            step = (position, name, row, update.is_insertion, update)
            steps.append(step)
            batch.append(step)
        stream = DeltaStream()
        admitting = next((m for m in managers if admit == m.admits), None)
        if admit is not None and admitting is None:
            self._replay(stream, steps, admit, managers)
            return stream
        for name, batch in batches.items():
            reach = None
            if admitting is not None:
                reach = admitting.in_reach(name, [step[2] for step in batch if step[3]])
            rows = [step[2] for step in batch]
            repeated = set()
            if len(set(rows)) < len(rows):
                repeated = {row for row, count in Counter(rows).items() if count > 1}
            if reach is None and not repeated:
                once, ordered = batch, ()
            else:
                once, ordered = [], []
                for step in batch:
                    row = step[2]
                    if row in repeated or (reach is not None and reach(row)):
                        ordered.append(step)
                    else:
                        once.append(step)
            if once:
                live = self._relations[name]._tuples
                added = {step[2] for step in once if step[3]}
                added.difference_update(live)
                removed = {step[2] for step in once if not step[3]}
                removed.intersection_update(live)
                if added or removed:
                    first = next(s[0] for s in once if (s[2] in live) != s[3])
                    stream.record_net(name, added, removed, first)
                    for manager in managers:
                        manager.stage_batch(name, added, removed)
            if ordered:
                self._replay(stream, ordered, admit, managers)
        return stream

    def _replay(
        self,
        stream: DeltaStream,
        steps: Iterable[tuple],
        admit: Callable[[object], bool] | None,
        managers: Sequence[object],
    ) -> None:
        """The ordered write path, one update at a time: ``admit`` against
        the running state, set membership against the live rows plus the
        stream's net sets, and each effective update recorded on the stream
        and staged into every manager's overlay (which the next update's
        :meth:`~repro.storage.snapshots.SnapshotManager.admits` reads)."""
        relations = self._relations
        for position, name, row, is_insertion, update in steps:
            if admit is not None and not admit(update):
                stream.skipped_inadmissible += 1
                continue
            live = relations[name]._tuples
            if is_insertion:
                if stream.holds(name, row, live):
                    continue
                stream.record_insert(name, row, position)
                change = ((row,), ())
            else:
                if not stream.holds(name, row, live):
                    continue
                stream.record_delete(name, row, position)
                change = ((), (row,))
            for manager in managers:
                manager.stage_batch(name, *change)

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
