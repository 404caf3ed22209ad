"""The execution backend: where a (bounded or baseline) query actually runs.

Section 5.1 of the paper gives two deployment modes for bounded plans:
executing them directly against in-memory indices, and translating them to
SQL so a DBMS follows the plan via index joins.  The service serves the
first one, :class:`InMemoryBackend` — a plan's compiled closure
(:mod:`repro.exec.codegen`) over hash indices and the cached views, with
exact per-fetch I/O accounting.  Every read runs against the
:class:`~repro.storage.snapshots.DatabaseSnapshot` the backend pins: a
bounded plan's compiled closure fetches from it, and the full-scan
fallback's loop nest (:mod:`repro.exec.cq_compiler`, through
:class:`~repro.engine.baseline.NaiveEngine`) scans and probes the same
version — never the live ``Database``, which a concurrent writer may be
half-way through changing (lint rule ``kernel.live-read``).  Only the join
order of a per-call :meth:`InMemoryBackend.execute_baseline` reads live
statistics, which affects estimates, never rows.

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
from ...core.plan_eval import ExecutionResult, FetchProvider, FetchStats
from ...core.plans import PlanNode
from ...exec.codegen import CompiledPlan, compile_plan_closure
from ...exec.cq_compiler import CQKernel
from ...storage.instance import Database
from ...storage.snapshots import RelationVersion
from ..baseline import BaselineResult, NaiveEngine


class InMemoryBackend:
    """The serving backend: compiled closures and loop nests over hash
    indices.

    The backend publishes one immutable ``(provider, views)`` pair;
    :meth:`refresh` swaps in the next pair with a single reference
    assignment when the underlying data changes (the incremental-maintenance
    path).  The provider is the pinned
    :class:`~repro.storage.snapshots.DatabaseSnapshot`: the full-scan paths
    read their rows from it too.  Each cached view is published as one
    :class:`~repro.storage.snapshots.RelationVersion` of its rows, whose
    hash indexes compiled closures probe (built lazily, once per version):
    a refresh keeps the version of every view whose row set it already
    holds — the maintainer re-freezes only the views a transaction changed
    — so only a changed view starts a new version with no indexes.
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
        self._state: tuple[FetchProvider, Mapping[str, RelationVersion]] = (
            provider,
            _versions(view_cache, {}),
        )

    # ------------------------------------------------------------------ #

    @property
    def views(self) -> Mapping[str, RelationVersion]:
        """The published version of each cached view."""
        return self._state[1]

    @property
    def provider(self) -> FetchProvider:
        return self._state[0]

    def refresh(
        self,
        provider: FetchProvider | None = None,
        view_cache: Mapping[str, Collection[tuple]] | None = None,
    ) -> None:
        """Publish a new fetch provider and/or view rows (after data
        changes), as the maintainer's snapshot holds them."""
        current_provider, current_views = self._state
        self._state = (
            provider if provider is not None else current_provider,
            current_views if view_cache is None else _versions(view_cache, current_views),
        )

    # ------------------------------------------------------------------ #

    def execute_plan(self, plan: PlanNode) -> ExecutionResult:
        """Compile ``plan`` for this call and run it like
        :meth:`execute_compiled`.  The plan is not verified here: the
        service admits a plan before it reaches the backend."""
        return self.execute_compiled(compile_plan_closure(plan, self.access_schema))

    def execute_compiled(
        self,
        compiled: CompiledPlan,
        params: Mapping[str, object] | None = None,
    ) -> ExecutionResult:
        """Run a codegen closure against the current provider and views.

        The closure is data-independent: the provider and views are
        late-bound per execution, so a closure compiled before a write keeps
        reading the refreshed state afterwards.  Accounting is a fresh
        :class:`FetchStats` per call.
        """
        # One read of the published pair: refresh() swaps it atomically, and
        # reading provider and views through two separate attribute reads
        # could pair a pre-refresh provider with post-refresh views (a torn
        # runtime under concurrent writes).
        provider, views = self._state
        stats = FetchStats()
        rows = compiled.execute(provider, views, stats, params)
        return ExecutionResult(attributes=compiled.attributes, rows=rows, stats=stats)

    def execute_baseline(self, query: QueryLike) -> BaselineResult:
        """Answer a CQ/UCQ by full scan of the pinned snapshot, compiling its
        loop nest for this call (a repeated shape reuses the generated
        function).  The join order reads the live statistics: estimates
        only."""
        return NaiveEngine(self.provider, self.database.statistics()).answer(query)

    def execute_fallback(
        self, kernel: CQKernel, params: Mapping[str, object] | None = None
    ) -> BaselineResult:
        """Run an admitted fallback kernel on the pinned snapshot — the
        version a bounded plan of the same read would fetch from."""
        return NaiveEngine(self.provider).run(kernel, params)

    def execute_baseline_fo(self, query: FOQuery, head: Sequence[Variable]) -> BaselineResult:
        """Evaluate an FO query over the pinned snapshot's facts."""
        return NaiveEngine(self.provider).answer_fo(query, head)


def _versions(
    view_cache: Mapping[str, Collection[tuple]], current: Mapping[str, RelationVersion]
) -> dict[str, RelationVersion]:
    """One version per view: the current one while it holds these very
    rows, else a new version of them."""
    versions: dict[str, RelationVersion] = {}
    for name, rows in view_cache.items():
        version = current.get(name)
        if version is None or version.rows is not rows:
            version = RelationVersion(frozenset(rows))
        versions[name] = version
    return versions
