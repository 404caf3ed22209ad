"""The delta-stream protocol: net per-transaction changes, observable.

Bounded view maintenance (the paper's Section 8 follow-up) needs one shared
change channel: indexes, statistics, snapshots, materialised views and
execution backends all have to learn *what changed* without re-reading the
database.  This module defines that channel:

* :class:`DeltaStream` — the net effect of one transaction (a batch of
  single-tuple updates applied with set semantics), grouped per relation in
  first-touch order.  "Net" means a tuple inserted and later deleted inside
  the same transaction cancels out: the stream is exactly
  ``D_after − D_before`` per relation, which is the precondition for the
  counting/telescoping delta rules of :mod:`repro.exec.delta_compiler`,
  which the maintainer compiles as ordinary loop nests.
* :class:`DeltaObserver` — the subscriber protocol.  Observers register with
  :meth:`repro.storage.instance.Database.subscribe` and receive one
  ``on_delta(stream)`` call per committed transaction, *after* the database
  reached the new state.

The stream is also the write path's working set.  Phase 1 of
:meth:`~repro.storage.instance.Database.apply` nets each relation's batch
into it set-at-a-time (:meth:`DeltaStream.record_net`: rows the batch names
once, against the live rows); only the updates that must run in order — a
row named more than once, a key within reach of its access bound, a foreign
admission predicate — are replayed one at a time through
:meth:`DeltaStream.holds` and ``record_insert`` / ``record_delete``.  Phase
2 then hands each relation its netted ``(inserted, deleted)`` once, and
storage, secondary indexes, snapshots, materialised views and the execution
backend all consume that same netted batch.
"""

from __future__ import annotations

from typing import Collection, Container, Protocol, runtime_checkable

#: A data row (kept structural: storage does not import the exec kernel).
Row = tuple[object, ...]

_EMPTY: tuple[Row, ...] = ()


class DeltaStream:
    """Net per-relation changes of one committed transaction.

    Built by phase 1 of :meth:`repro.storage.instance.Database.apply`, one
    relation's batch at a time: :meth:`record_net` for the rows the batch
    names once, ``record_insert`` / ``record_delete`` for the updates
    replayed in order.  Consumers should treat it as read-only.
    ``relations`` is in first-touch order — by the batch position of each
    relation's first effective update — which observers use as the
    processing order of the telescoped delta rules.
    """

    __slots__ = (
        "_inserted",
        "_deleted",
        "_inserted_rows",
        "_deleted_rows",
        "_order",
        "_relations",
        "_touched",
        "applied_insertions",
        "applied_deletions",
        "skipped_inadmissible",
    )

    def __init__(self) -> None:
        self._inserted: dict[str, set[Row]] = {}
        self._deleted: dict[str, set[Row]] = {}
        # Per-relation tuple caches of the net rows.  Maintenance reads
        # ``inserted()``/``deleted()`` once per delta rule per direction, so
        # rebuilding a tuple from the set on every call is measurable on hot
        # update paths; a write to either direction drops *both* caches for
        # the relation, because netting mutates the opposite set.
        self._inserted_rows: dict[str, tuple[Row, ...]] = {}
        self._deleted_rows: dict[str, tuple[Row, ...]] = {}
        # Per relation, the batch position of its first effective update:
        # ``relations`` lists relations in that (first-touch) order.
        self._order: dict[str, int] = {}
        # ``relations`` / ``touched`` as last read; every recording drops them.
        self._relations: tuple[str, ...] | None = None
        self._touched: frozenset[str] | None = None
        #: Effective (non-no-op) insertions/deletions applied, before netting.
        self.applied_insertions: int = 0
        self.applied_deletions: int = 0
        #: Updates rejected by the transaction's admissibility predicate.
        self.skipped_inadmissible: int = 0

    # ------------------------------------------------------------------ #
    # Recording (storage layer only)
    # ------------------------------------------------------------------ #

    def _touch(self, relation: str, position: int | None) -> None:
        """Note an effective update of ``relation`` at batch ``position``
        (by default after every update recorded so far), and drop the
        relation's cached row tuples and the memoised relation names."""
        if position is None:
            position = self.applied
        if position < self._order.get(relation, position + 1):
            self._order[relation] = position
        self._inserted_rows.pop(relation, None)
        self._deleted_rows.pop(relation, None)
        self._relations = self._touched = None

    def record_insert(
        self, relation: str, row: Row, position: int | None = None
    ) -> None:
        """Record one applied insertion (the row was absent before)."""
        self._touch(relation, position)
        self.applied_insertions += 1
        deleted = self._deleted.get(relation)
        if deleted is not None and row in deleted:
            deleted.discard(row)  # was present pre-transaction: net zero
        else:
            self._inserted.setdefault(relation, set()).add(row)

    def record_delete(self, relation: str, row: Row, position: int | None = None) -> None:
        """Record one applied deletion (the row was present before)."""
        self._touch(relation, position)
        self.applied_deletions += 1
        inserted = self._inserted.get(relation)
        if inserted is not None and row in inserted:
            inserted.discard(row)  # added by this transaction: net zero
        else:
            self._deleted.setdefault(relation, set()).add(row)

    def record_net(
        self,
        relation: str,
        inserted: Collection[Row],
        deleted: Collection[Row],
        position: int,
    ) -> None:
        """Record a batch of applied updates on rows the transaction names
        once: ``inserted`` were absent before, ``deleted`` present, and
        ``position`` is the batch position of the first of them.  No row
        here may be recorded by another call of the same transaction."""
        if not inserted and not deleted:
            return
        self._touch(relation, position)
        self.applied_insertions += len(inserted)
        self.applied_deletions += len(deleted)
        if inserted:
            self._inserted.setdefault(relation, set()).update(inserted)
        if deleted:
            self._deleted.setdefault(relation, set()).update(deleted)

    def holds(self, relation: str, row: Row, live: Container[Row]) -> bool:
        """Is ``row`` in ``relation`` once the net changes recorded so far
        are laid over ``live``, the relation's pre-transaction rows?"""
        inserted = self._inserted.get(relation)
        if inserted is not None and row in inserted:
            return True
        deleted = self._deleted.get(relation)
        return row in live and (deleted is None or row not in deleted)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    @property
    def relations(self) -> tuple[str, ...]:
        """Relations with a non-empty net change, in first-touch order."""
        if self._relations is None:
            order = self._order
            self._relations = tuple(
                name
                for name in sorted(order, key=order.__getitem__)
                if self._inserted.get(name) or self._deleted.get(name)
            )
        return self._relations

    @property
    def touched(self) -> frozenset[str]:
        """Relation names with a non-empty net change."""
        if self._touched is None:
            self._touched = frozenset(self.relations)
        return self._touched

    def inserted(self, relation: str) -> tuple[Row, ...]:
        """Net-inserted rows: absent before the transaction, present after."""
        cached = self._inserted_rows.get(relation)
        if cached is None:
            rows = self._inserted.get(relation)
            cached = tuple(rows) if rows else _EMPTY
            self._inserted_rows[relation] = cached
        return cached

    def deleted(self, relation: str) -> tuple[Row, ...]:
        """Net-deleted rows: present before the transaction, absent after."""
        cached = self._deleted_rows.get(relation)
        if cached is None:
            rows = self._deleted.get(relation)
            cached = tuple(rows) if rows else _EMPTY
            self._deleted_rows[relation] = cached
        return cached

    @property
    def is_empty(self) -> bool:
        return not any(self._inserted.values()) and not any(self._deleted.values())

    @property
    def applied(self) -> int:
        """Effective single-tuple updates applied (set-semantics no-ops excluded)."""
        return self.applied_insertions + self.applied_deletions

    @property
    def net_size(self) -> int:
        """Total number of net row changes across all relations."""
        return sum(len(rows) for rows in self._inserted.values()) + sum(
            len(rows) for rows in self._deleted.values()
        )

    def __len__(self) -> int:
        return self.net_size

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        parts = ", ".join(
            f"{name}(+{len(self._inserted.get(name, ()))}/-{len(self._deleted.get(name, ()))})"
            for name in self.relations
        )
        return f"DeltaStream({parts or 'empty'})"


@runtime_checkable
class DeltaObserver(Protocol):
    """Anything that wants the net delta of every committed transaction."""

    def on_delta(self, stream: DeltaStream) -> None:
        """Called once per non-empty transaction, after the database reached
        the new state (statistics, secondary indexes and snapshots included)."""
        ...
