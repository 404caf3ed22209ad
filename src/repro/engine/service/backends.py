"""Execution backends: where a (bounded or baseline) query actually runs.

Section 5.1 of the paper describes two deployment modes for bounded plans:
executing them directly against in-memory indices, and translating them to
SQL so a DBMS follows the plan via index joins.  The service models both
behind one :class:`ExecutionBackend` protocol:

* :class:`InMemoryBackend` — the plan executor of
  :mod:`repro.core.plan_eval` over hash indices and the cached views, with
  exact per-fetch I/O accounting.  Both the plan path and the full-scan
  baseline compile to the shared execution kernel (:mod:`repro.exec`), so
  the memory backend and the CQ evaluators share one join/fetch semantics;
* :class:`SQLiteBackend` — plans rendered through
  :func:`repro.engine.sql.plan_to_sql` and executed on an in-memory SQLite
  database loaded with the relations, the access-constraint indices and the
  materialised views.

Backends are selectable per service (``QueryService(backend="sqlite")``) or
per call (``service.query(q, backend="sqlite")``); both must return
row-identical results, which the test suite cross-validates on the
graph-search and CDR workloads.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import Collection, Mapping, Protocol, Sequence, runtime_checkable

from ...algebra.fo import FOQuery
from ...algebra.terms import Variable
from ...algebra.ucq import QueryLike, as_union
from ...algebra.views import ViewSet
from ...core.access import AccessSchema
from ...core.plan_eval import ExecutionResult, FetchProvider, FetchStats, PlanExecutor
from ...core.plans import PlanNode
from ...errors import UnsupportedQueryError
from ...exec.codegen import CompiledPlan
from ...storage.instance import Database
from ..baseline import BaselineResult, NaiveEngine
from ..sql import (
    create_index_statements,
    create_table_statements,
    insert_statements,
    materialize_view_statements,
    plan_to_sql,
    quote_identifier,
    ucq_to_sql,
    view_table_name,
)


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything able to execute bounded plans and full-scan baselines."""

    name: str

    def execute_plan(self, plan: PlanNode) -> ExecutionResult:
        """Run a bounded plan, returning rows plus I/O accounting."""
        ...

    def execute_baseline(self, query: QueryLike) -> BaselineResult:
        """Run a CQ/UCQ without a plan (the full-scan fallback)."""
        ...

    def execute_baseline_fo(self, query: FOQuery, head: Sequence[Variable]) -> BaselineResult:
        """Run an FO query without a plan (active-domain semantics)."""
        ...


class InMemoryBackend:
    """The reference backend: :class:`PlanExecutor` over hash indices.

    The executor is built once and reused across calls (it is stateless per
    execution); :meth:`refresh` swaps in new indices or a new view cache when
    the underlying data changes (the incremental-maintenance path).
    """

    name = "memory"

    def __init__(
        self,
        database: Database,
        access_schema: AccessSchema,
        provider: FetchProvider,
        view_cache: Mapping[str, Collection[tuple]],
    ) -> None:
        self.database = database
        self.access_schema = access_schema
        self._naive = NaiveEngine(database)
        self._executor = PlanExecutor(
            database.schema, access_schema, provider, view_cache
        )

    # ------------------------------------------------------------------ #

    @property
    def view_cache(self) -> dict[str, frozenset[tuple]]:
        return self._executor.view_cache

    @property
    def provider(self) -> FetchProvider:
        return self._executor.provider

    def refresh(
        self,
        provider: FetchProvider | None = None,
        view_cache: Mapping[str, Collection[tuple]] | None = None,
    ) -> None:
        """Swap the fetch provider and/or view cache (after data changes)."""
        self._executor = PlanExecutor(
            self.database.schema,
            self.access_schema,
            provider if provider is not None else self._executor.provider,
            view_cache if view_cache is not None else self._executor.view_cache,
        )

    # ------------------------------------------------------------------ #

    def execute_plan(self, plan: PlanNode) -> ExecutionResult:
        return self._executor.execute(plan)

    def execute_compiled(
        self,
        compiled: CompiledPlan,
        params: Mapping[str, object] | None = None,
    ) -> ExecutionResult:
        """Run a codegen closure against the current provider and view cache.

        The closure is data-independent: the provider and view cache are
        late-bound per execution, so a closure compiled before a write keeps
        reading the refreshed state afterwards.  Accounting is a fresh
        :class:`FetchStats` per call, exactly like :meth:`execute_plan`.
        """
        # One read of the executor reference: refresh() swaps the whole
        # executor atomically, and reading provider and view_cache through
        # two separate self._executor reads could pair a pre-refresh provider
        # with a post-refresh view cache (a torn runtime under concurrent
        # writes).
        executor = self._executor
        stats = FetchStats()
        provider = executor.provider
        bind = getattr(provider, "bound_to", None)
        if bind is not None:
            provider = bind(stats)
        rows = compiled.execute(provider, executor.view_cache, stats, params)
        return ExecutionResult(attributes=compiled.attributes, rows=rows, stats=stats)

    def execute_baseline(self, query: QueryLike) -> BaselineResult:
        return self._naive.answer(query)

    def execute_baseline_fo(self, query: FOQuery, head: Sequence[Variable]) -> BaselineResult:
        return self._naive.answer_fo(query, head)


class SQLiteBackend:
    """Plans translated to SQL and executed on an in-memory SQLite database.

    The database is loaded lazily on first use: tables for every relation,
    one composite index per access constraint (the fetch paths), and one
    ``mv_*`` table per materialised view.  :meth:`invalidate` drops the
    connection so the next call reloads from the (possibly updated) source
    :class:`Database`.

    SQLite executes whole statements, so per-fetch tuple accounting is not
    observable; ``ExecutionResult.stats`` reports zero fetched tuples and the
    baseline reports the same scan-cost model as :class:`NaiveEngine` (one
    full pass per query atom) to keep comparisons meaningful.
    """

    name = "sqlite"

    def __init__(
        self,
        database: Database,
        access_schema: AccessSchema,
        views: ViewSet,
        view_cache: Mapping[str, Collection[tuple]],
    ) -> None:
        self.database = database
        self.access_schema = access_schema
        self.views = views
        self._view_cache = {name: frozenset(rows) for name, rows in view_cache.items()}
        self._naive = NaiveEngine(database)
        self._lock = threading.RLock()
        self._connection: sqlite3.Connection | None = None

    # ------------------------------------------------------------------ #

    def _connect(self) -> sqlite3.Connection:
        with self._lock:
            if self._connection is not None:
                return self._connection
            connection = sqlite3.connect(":memory:", check_same_thread=False)
            cursor = connection.cursor()
            for statement in create_table_statements(self.database.schema):
                cursor.execute(statement)
            for statement in create_index_statements(self.access_schema, self.database.schema):
                cursor.execute(statement)
            for statement, rows in insert_statements(self.database):
                cursor.executemany(statement, rows)
            for create, insert, rows in materialize_view_statements(
                self.views, self._view_cache
            ):
                cursor.execute(create)
                if rows:
                    cursor.executemany(insert, rows)
            connection.commit()
            self._connection = connection
            return connection

    def invalidate(self) -> None:
        """Drop the loaded database (it reloads lazily on the next call)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def apply_delta(self, stream, view_deltas: Collection = ()) -> None:
        """Fold a committed transaction into the loaded SQLite database.

        The incremental write path: instead of dropping the connection (a
        full reload of every relation, index and materialised view on the
        next query), net row changes are applied with parameterised
        ``DELETE``/``INSERT`` statements, and ``mv_*`` tables are patched
        from the per-view deltas.  ``stream`` is a
        :class:`~repro.storage.deltas.DeltaStream`; ``view_deltas`` the
        :class:`~repro.engine.service.maintenance.ViewDelta` list of the same
        transaction.  A backend that has not loaded yet only refreshes its
        view-row snapshot — the lazy load will read the new state anyway.
        """
        with self._lock:
            for delta in view_deltas:
                rows = self._view_cache.get(delta.view, frozenset())
                self._view_cache[delta.view] = (rows - delta.removed) | delta.added
            connection = self._connection
            if connection is None:
                return
            cursor = connection.cursor()
            for relation in stream.relations:
                schema = self.database.schema.relation(relation)
                table = quote_identifier(relation)
                deleted = stream.deleted(relation)
                if deleted:
                    # "IS ?" (not "= ?"): null-safe equality, so rows holding
                    # None are removable from the mirror too.
                    where = " AND ".join(
                        f"{quote_identifier(a)} IS ?" for a in schema.attributes
                    )
                    cursor.executemany(
                        f"DELETE FROM {table} WHERE {where}", [tuple(r) for r in deleted]
                    )
                inserted = stream.inserted(relation)
                if inserted:
                    placeholders = ", ".join("?" for _ in schema.attributes)
                    cursor.executemany(
                        f"INSERT INTO {table} VALUES ({placeholders})",
                        [tuple(r) for r in inserted],
                    )
            for delta in view_deltas:
                if delta.is_empty or delta.view not in self.views:
                    continue
                view = self.views.view(delta.view)
                table = quote_identifier(view_table_name(delta.view))
                attributes = view.attributes if view.arity else ("__exists",)
                if delta.removed:
                    where = " AND ".join(f"{quote_identifier(a)} IS ?" for a in attributes)
                    cursor.executemany(
                        f"DELETE FROM {table} WHERE {where}",
                        [tuple(r) if r else (1,) for r in delta.removed],
                    )
                if delta.added:
                    placeholders = ", ".join("?" for _ in attributes)
                    cursor.executemany(
                        f"INSERT INTO {table} VALUES ({placeholders})",
                        [tuple(r) if r else (1,) for r in delta.added],
                    )
            connection.commit()

    def close(self) -> None:
        self.invalidate()

    # ------------------------------------------------------------------ #

    def execute_plan(self, plan: PlanNode) -> ExecutionResult:
        translation = plan_to_sql(
            plan, self.database.schema, self.views, self.access_schema
        )
        # Connection lookup and execution under ONE (reentrant) lock
        # acquisition: a concurrent invalidate() may otherwise close the
        # connection between the two steps.
        with self._lock:
            fetched = self._connect().execute(translation.text).fetchall()
        if translation.marker_column is not None:
            rows = frozenset({()} if fetched else set())
        else:
            rows = frozenset(tuple(row) for row in fetched)
        return ExecutionResult(attributes=plan.attributes, rows=rows, stats=FetchStats())

    def execute_baseline(self, query: QueryLike) -> BaselineResult:
        union = as_union(query)
        statement = ucq_to_sql(union, self.database.schema)
        started = time.perf_counter()
        with self._lock:
            fetched = self._connect().execute(statement).fetchall()
        if union.is_boolean:
            rows = frozenset({()} if fetched else set())
        else:
            rows = frozenset(tuple(row) for row in fetched)
        return BaselineResult(
            rows=rows,
            tuples_scanned=self._naive.scan_cost(union),
            elapsed_seconds=time.perf_counter() - started,
        )

    def execute_baseline_fo(self, query: FOQuery, head: Sequence[Variable]) -> BaselineResult:
        # General FO (negation, universal quantification) has no direct SQL
        # rendering here; fall back to the in-memory active-domain evaluator.
        return self._naive.answer_fo(query, head)


def make_backend(
    kind: str,
    database: Database,
    access_schema: AccessSchema,
    views: ViewSet,
    provider: FetchProvider,
    view_cache: Mapping[str, Collection[tuple]],
) -> ExecutionBackend:
    """Construct a backend by name (``"memory"`` or ``"sqlite"``)."""
    if kind == InMemoryBackend.name:
        return InMemoryBackend(database, access_schema, provider, view_cache)
    if kind == SQLiteBackend.name:
        return SQLiteBackend(database, access_schema, views, view_cache)
    raise UnsupportedQueryError(
        f"unknown execution backend {kind!r}; available backends are 'memory', 'sqlite'"
    )
