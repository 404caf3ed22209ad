"""Indices realising access constraints: a fetch/admission facade.

Each access constraint ``R(X -> Y, N)`` comes with an index: a function that,
given an ``X``-value ``ā``, returns the ``XY``-projections
``D_{R:XY}(X = ā)`` in ``O(N)`` time.  There is one such index per
constraint, and it is the MVCC snapshot version
(:class:`~repro.storage.snapshots.ConstraintIndexVersion`), advanced by every
:meth:`~repro.storage.instance.Database.apply` from the overlay its
:class:`~repro.storage.snapshots.SnapshotManager` staged.

:class:`IndexSet` is a thin facade over such a manager — the current
version's ``fetch`` / ``fetch_many`` and the manager's bounded admissibility
check — kept because benchmark and test code construct it by name.  It goes
with ROADMAP item 1.
"""

from __future__ import annotations

from typing import Collection, Mapping, Sequence

from ..core.access import AccessConstraint, AccessSchema
from .instance import Database
from .snapshots import ConstraintIndexVersion, DatabaseSnapshot, SnapshotManager


class IndexSet:
    """The access-constraint indices of one database, read off its snapshots.

    ``snapshots`` is the manager to read; by default a new one is registered
    with ``database``.  Reads heal a stale manager first (an
    out-of-band ``Relation.add``), so the facade always serves live data.
    """

    def __init__(
        self,
        database: Database,
        access_schema: AccessSchema,
        snapshots: SnapshotManager | None = None,
    ) -> None:
        access_schema.validate(database.schema)
        self.database = database
        self.access_schema = access_schema
        if snapshots is None:
            snapshots = database.enable_snapshots(access_schema)
        self._snapshots = snapshots

    def _current(self) -> DatabaseSnapshot:
        snapshots = self._snapshots
        return snapshots.refresh() if snapshots.stale() else snapshots.current

    def index_for(self, constraint: AccessConstraint) -> ConstraintIndexVersion:
        return self._current().index_for(constraint)

    def fetch(self, constraint: AccessConstraint, key: Sequence[object]) -> frozenset[tuple]:
        """Fetch ``D_{R:XY}(X = key)`` through the constraint's index."""
        return self._current().fetch(constraint, key)

    def fetch_many(
        self, constraint: AccessConstraint, keys: Collection[tuple]
    ) -> list[frozenset[tuple]]:
        """``[fetch(constraint, key) for key in keys]`` with one index resolution."""
        return self._current().fetch_many(constraint, keys)

    def admissible(self, update: object) -> bool:
        """Would applying ``update`` keep every constraint satisfied?
        (:meth:`SnapshotManager.admits`, on a healed manager.)"""
        self._current()
        return self._snapshots.admits(update)

    @property
    def facts(self) -> Mapping[str, frozenset[tuple]]:
        """Direct access to the underlying facts (used only by the *naive* baseline)."""
        return self.database.facts
