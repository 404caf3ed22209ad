"""Versioned on-disk persistence for planning outcomes.

Planning is the expensive part of serving a bounded query; the plans
themselves are immutable, picklable trees.  A :class:`PlanStore` lets a
:class:`~repro.engine.service.QueryService` write its plan cache to disk on
``close()`` and reload it at startup, so a restarted service answers a
previously planned query without re-planning it.

Staleness is decided by two signatures recorded next to the payload:

* the **statistics fingerprint** (:func:`repro.storage.statistics.
  statistics_fingerprint`) — plans chosen by the cost-based planner are
  data-dependent, so a store written against different table cardinalities
  must not be replayed;
* the **planner-chain signature** — a store written by a different chain
  (different planners, or differently configured ones) keys different
  outcomes.

A mismatch on either is *not* an error: :meth:`PlanStore.load` returns no
entries and the service plans afresh.  The same goes for an unknown (future)
``format_version`` — an older binary reading a newer store discards it.
Known *older* versions are migrated forward through :data:`MIGRATIONS`.
Only an unreadable payload — truncated file, garbage bytes, a pickle that
does not decode to the expected shape — raises :class:`PlanStoreError`, so
callers can distinguish "nothing useful here" from "this file is damaged".

This module deliberately imports neither :mod:`repro.exec` nor the service's
cache module: compiled closures are never persisted (they are rebuilt from
the stored plan by the service), and the store speaks only in primitive
:class:`StoredEntry` records the service maps to/from its cache entries.
"""

from __future__ import annotations

import io
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable

from ...errors import PlanStoreError

#: Current payload format.  Bump when the entry shape changes and add a
#: migration below so stores written by older versions keep loading.
FORMAT_VERSION = 2

_MAGIC = b"RPLS"


def _migrate_v1(payload: dict) -> dict:
    """v1 → v2: entries predate the cost-model provenance fields."""
    for entry in payload.get("entries", []):
        entry.setdefault("estimated_fetches", None)
        entry.setdefault("fetch_estimates", ())
        entry.setdefault("order_report", None)
    payload["format_version"] = 2
    return payload


#: Forward migrations keyed by *source* version: a payload at version ``v``
#: is piped through ``MIGRATIONS[v]``, then ``MIGRATIONS[v + 1]``, ... until
#: it reaches :data:`FORMAT_VERSION`.
MIGRATIONS: dict[int, Callable[[dict], dict]] = {
    1: _migrate_v1,
}


@dataclass
class StoredEntry:
    """One persisted planning outcome, in store-native (primitive) form.

    ``plan`` and ``order_report`` are pickled object trees (plan nodes are
    plain module-level dataclasses); everything else is builtin scalars and
    containers.  Compiled closures are never persisted: the loading service
    verifies and recompiles every plan it restores.
    """

    cache_key: tuple
    plan: Any
    planner: str | None
    reason: str = ""
    parameters: frozenset = frozenset()
    # Unused by src/ and not persisted; bench/staged.py still passes them —
    # goes with ROADMAP item 1.
    dependencies: frozenset = frozenset()
    codegen_state: str = "pending"
    executions: int = 0
    estimated_fetches: float | None = None
    fetch_estimates: tuple = ()
    order_report: Any = None

    def to_dict(self) -> dict:
        return {
            "cache_key": self.cache_key,
            "plan": self.plan,
            "planner": self.planner,
            "reason": self.reason,
            "parameters": self.parameters,
            "executions": self.executions,
            "estimated_fetches": self.estimated_fetches,
            "fetch_estimates": self.fetch_estimates,
            "order_report": self.order_report,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "StoredEntry":
        return cls(
            cache_key=tuple(raw["cache_key"]),
            plan=raw["plan"],
            planner=raw.get("planner"),
            reason=raw.get("reason", ""),
            parameters=frozenset(raw.get("parameters", ())),
            executions=int(raw.get("executions", 0)),
            estimated_fetches=raw.get("estimated_fetches"),
            fetch_estimates=tuple(raw.get("fetch_estimates", ())),
            order_report=raw.get("order_report"),
        )


@dataclass
class PlanStore:
    """Load/save a set of :class:`StoredEntry` records at ``path``.

    ``loaded``/``saved`` count entries moved in each direction (for tests
    and diagnostics); they are not persisted.
    """

    path: str
    loaded: int = field(default=0, compare=False)
    saved: int = field(default=0, compare=False)

    # ------------------------------------------------------------------ load
    def load(self, fingerprint: str, chain_signature: tuple) -> list[StoredEntry]:
        """Read the store, returning ``[]`` when absent or stale.

        Raises :class:`PlanStoreError` only when the file exists but cannot
        be decoded (truncation, corruption, wrong magic, non-dict payload).
        """
        try:
            with open(self.path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return []
        except OSError as error:
            raise PlanStoreError(f"cannot read plan store {self.path!r}: {error}") from error

        if not blob.startswith(_MAGIC):
            raise PlanStoreError(
                f"plan store {self.path!r} is not a plan-store file (bad magic)"
            )
        try:
            payload = pickle.load(io.BytesIO(blob[len(_MAGIC):]))
        except Exception as error:  # pickle raises a zoo of exception types
            raise PlanStoreError(
                f"plan store {self.path!r} is corrupt or truncated: {error}"
            ) from error
        if not isinstance(payload, dict) or "format_version" not in payload:
            raise PlanStoreError(f"plan store {self.path!r} has an unrecognised payload")

        version = payload["format_version"]
        if not isinstance(version, int) or version > FORMAT_VERSION:
            # A future (or nonsensical) version: written by a newer binary.
            # Discard rather than guess at its entry shape.
            return []
        while version < FORMAT_VERSION:
            migrate = MIGRATIONS.get(version)
            if migrate is None:
                return []  # an ancient version with no migration path
            payload = migrate(payload)
            version = payload["format_version"]

        if payload.get("fingerprint") != fingerprint:
            return []  # data changed since the store was written
        if tuple(payload.get("chain_signature", ())) != tuple(chain_signature):
            return []  # planned by a different planner chain

        entries = [StoredEntry.from_dict(raw) for raw in payload.get("entries", [])]
        self.loaded += len(entries)
        return entries

    # ------------------------------------------------------------------ save
    def save(
        self,
        fingerprint: str,
        chain_signature: tuple,
        entries: list[StoredEntry],
    ) -> None:
        """Atomically write the store (tmp file + ``os.replace``)."""
        payload = {
            "format_version": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "chain_signature": tuple(chain_signature),
            "entries": [entry.to_dict() for entry in entries],
        }
        blob = _MAGIC + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        descriptor, tmp_path = tempfile.mkstemp(dir=directory, suffix=".plans.tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.saved += len(entries)
