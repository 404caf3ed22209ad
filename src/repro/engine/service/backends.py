"""The execution backend: where a (bounded or baseline) query actually runs.

Section 5.1 of the paper gives two deployment modes for bounded plans:
executing them directly against in-memory indices, and translating them to
SQL so a DBMS follows the plan via index joins.  The service serves the
first one, :class:`InMemoryBackend` — the plan executor of
:mod:`repro.core.plan_eval` over hash indices and the cached views, with
exact per-fetch I/O accounting.  Both the plan path and the full-scan
baseline compile to the shared execution kernel (:mod:`repro.exec`), so
the backend and the CQ evaluators share one join/fetch semantics.

The second mode is :func:`repro.engine.sql.plan_to_sql`; it is not a
serving backend (SQL text cannot meter ``Dξ``), and the test suite runs its
output on stdlib ``sqlite3`` as an independent oracle for the rows.
"""

from __future__ import annotations

from typing import Collection, Mapping, Sequence

from ...algebra.fo import FOQuery
from ...algebra.terms import Variable
from ...algebra.ucq import QueryLike
from ...core.access import AccessSchema
from ...core.plan_eval import ExecutionResult, FetchProvider, FetchStats, PlanExecutor
from ...core.plans import PlanNode
from ...exec.codegen import CompiledPlan
from ...storage.instance import Database
from ..baseline import BaselineResult, NaiveEngine


class InMemoryBackend:
    """The serving backend: :class:`PlanExecutor` over hash indices.

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
        rows = compiled.execute(executor.provider, executor.view_cache, stats, params)
        return ExecutionResult(attributes=compiled.attributes, rows=rows, stats=stats)

    def execute_baseline(self, query: QueryLike) -> BaselineResult:
        return self._naive.answer(query)

    def execute_baseline_fo(self, query: FOQuery, head: Sequence[Variable]) -> BaselineResult:
        return self._naive.answer_fo(query, head)
