"""The traced run: spans, and a staged pipeline built from public calls.

``QueryService`` has no spans of its own yet (ROADMAP item 4), so the
per-layer numbers are taken from outside: :class:`StagedPipeline` serves the
same operations as the service, stage by stage, through the public function
of each layer — parse, canonical key, plan cache, planner chain, fetch
estimate, codegen eligibility and compilation, backend execution or the
full-scan baseline, stats recording; and for writes storage apply, snapshot
advance, view maintenance and plan invalidation.  Every call is wrapped in a
span.  The harness checks each staged answer against the real service's, so
the stages are known to do the service's work; what the service does beyond
them (locks, snapshot sync, re-plan observation, report objects) is the
*envelope*, reported as the untraced latency minus the staged layers.

The tier lifecycle (interpreted until a plan has run ``codegen_warmup``
times, then verified and compiled) and the cache key follow
``QueryService._execute``/``plan``; defaults are read off a real service so
a changed default moves the staged numbers with the end-to-end ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.algebra.parser import parse_query
from repro.analysis import codegen_eligibility
from repro.core.plan_eval import plan_parameters
from repro.core.plans import FetchNode, ViewScan
from repro.engine.optimizer import estimate_plan_fetches
from repro.engine.service import (
    Answer,
    CachedPlan,
    InMemoryBackend,
    LRUPlanCache,
    MaintenanceStats,
    PlanningContext,
    PlanStore,
    QueryService,
    ServiceStats,
    StoredEntry,
    ViewMaintainer,
    canonical_query_key,
    planner_signature,
)
from repro.errors import PlanError, UnsupportedQueryError
from repro.exec.codegen import compile_plan_closure
from repro.storage.indexes import IndexSet
from repro.storage.instance import Database
from repro.storage.snapshots import ShardingLayout, SnapshotManager
from repro.storage.statistics import statistics_fingerprint
from repro.storage.updates import UpdateBatch

#: Span name of one whole staged operation; its self time is the staged glue.
REQUEST = "request"


class Tracer:
    """In-memory span recorder: ``[name, start, end, parent, request]``.

    ``parent`` is the index of the enclosing span (``-1`` at top level) and
    ``request`` the identifier shared by all spans of one operation.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._open = -1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.spans)
        record = [self.name, 0.0, 0.0, tracer._open, tracer.request]
        tracer.spans.append(record)
        tracer._open = self.index
        record[1] = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        record = self.tracer.spans[self.index]
        record[2] = end
        self.tracer._open = record[3]


@dataclass
class StagedWrite:
    """What one staged write did (the harness compares it with the service)."""

    applied: int
    skipped_inadmissible: int
    evicted: int
    delta_queries: int
    tier_runs: dict[str, int]


class StagedPipeline:
    """The service's read and write paths, one public call per stage."""

    def __init__(self, database: Database, service: QueryService, tracer: Tracer) -> None:
        self.tracer = tracer
        self.database = database
        self.access_schema = service.access_schema
        self.views = service.views
        self.planners = service.planners
        self.codegen_warmup = service.codegen_warmup
        self.inner_size_cutoff = service.inner_size_cutoff
        self.chain_signature = tuple(planner_signature(p) for p in self.planners)
        self.setup_seconds: dict[str, float] = {}
        started = time.perf_counter()
        self.indexes = IndexSet(database, self.access_schema)
        self.setup_seconds["indexes"] = time.perf_counter() - started
        # The constructor Database.enable_snapshots wraps; not registered
        # with the database, so Database.apply and advance() are timed apart.
        layout = ShardingLayout.derive(database.schema, self.access_schema, 1)
        started = time.perf_counter()
        self.snapshots = SnapshotManager(database, layout, self.access_schema)
        self.setup_seconds["snapshots"] = time.perf_counter() - started
        started = time.perf_counter()
        self.maintainer = ViewMaintainer(
            self.views, database, codegen_warmup=self.codegen_warmup
        )
        self.setup_seconds["views"] = time.perf_counter() - started
        self.view_cache = self.maintainer.snapshot()
        self.backend = InMemoryBackend(
            database, self.access_schema, self.snapshots.reader(), self.view_cache
        )
        self.cache = LRUPlanCache(service.plan_cache.capacity)
        self.stats = ServiceStats()
        self.plan_attempts = 0
        self.plans_found = 0

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def query(self, text: str) -> Answer:
        tracer = self.tracer
        tracer.request += 1
        with tracer.span(REQUEST):
            started = time.perf_counter()
            with tracer.span("parser.parse"):
                resolved = parse_query(text)
            with tracer.span("cache.canonical"):
                canonical = canonical_query_key(resolved)
            key = (canonical, self.chain_signature, None, None, self.inner_size_cutoff)
            with tracer.span("cache.lookup"):
                entry = self.cache.get(key)
            hit = entry is not None
            if entry is None:
                entry = self._plan(resolved)
                entry.cache_key = key
                with tracer.span("cache.lookup"):
                    self.cache.put(key, entry)
            backend = self.backend
            if entry.plan is not None:
                entry.executions += 1
                if (
                    entry.compiled is None
                    and entry.codegen_state == "pending"
                    and entry.executions > self.codegen_warmup
                ):
                    self._compile(resolved, entry)
                if entry.compiled is not None:
                    with tracer.span("exec.compiled"):
                        result = backend.execute_compiled(entry.compiled, None)
                    tier = "compiled"
                else:
                    with tracer.span("exec.interpreted"):
                        result = backend.execute_plan(entry.plan)
                    tier = "interpreted"
                answer = Answer(
                    rows=result.rows,
                    used_bounded_plan=True,
                    plan=entry.plan,
                    planner=entry.planner,
                    backend=backend.name,
                    cache_hit=hit,
                    tuples_fetched=result.stats.tuples_fetched,
                    tuples_scanned=0,
                    view_tuples_scanned=result.stats.view_tuples_scanned,
                    elapsed_seconds=time.perf_counter() - started,
                    reason=entry.reason,
                    execution_tier=tier,
                    shards_touched=tuple(sorted(result.stats.shards_touched)),
                    shards_total=1,
                )
            else:
                with tracer.span("baseline.scan"):
                    base = backend.execute_baseline(resolved)
                answer = Answer(
                    rows=base.rows,
                    used_bounded_plan=False,
                    plan=None,
                    planner=None,
                    backend=backend.name,
                    cache_hit=hit,
                    tuples_fetched=0,
                    tuples_scanned=base.tuples_scanned,
                    view_tuples_scanned=0,
                    elapsed_seconds=time.perf_counter() - started,
                    reason=entry.reason,
                )
            with tracer.span("stats.record"):
                self.stats.record(answer)
        return answer

    def _plan(self, resolved) -> CachedPlan:
        tracer = self.tracer
        context = PlanningContext(
            schema=self.database.schema,
            views=self.views,
            access_schema=self.access_schema,
            inner_size_cutoff=self.inner_size_cutoff,
            statistics=self.database.statistics(),
        )
        reasons = []
        for planner in self.planners:
            if not planner.can_plan(resolved):
                continue
            self.plan_attempts += 1
            with tracer.span("planners." + planner.name):
                result = planner.plan(resolved, None, None, context)
            if not result.found:
                reasons.append(f"{planner.name}: {result.reason}")
                continue
            self.plans_found += 1
            with tracer.span("optimizer.estimate"):
                estimate = estimate_plan_fetches(
                    result.plan,
                    context.statistics,
                    context.schema,
                    view_sizes={n: len(rows) for n, rows in self.view_cache.items()},
                )
            return CachedPlan(
                plan=result.plan,
                planner=result.planner,
                reason=f"bounded plan produced by planner {result.planner!r}",
                parameters=plan_parameters(result.plan),
                dependencies=self._dependencies(resolved, result.plan),
                order_report=result.order_report,
                estimated_fetches=estimate.total_fetched,
                fetch_estimates=estimate.fetches,
            )
        return CachedPlan(
            plan=None,
            planner=None,
            reason="; ".join(reasons),
            dependencies=self._dependencies(resolved, None),
        )

    def _dependencies(self, resolved, plan) -> frozenset[str]:
        """Relations and views whose change must evict the planning outcome."""
        names = set(resolved.relation_names)
        if plan is not None:
            for node in plan.iter_nodes():
                if isinstance(node, FetchNode):
                    names.add(node.relation)
                elif isinstance(node, ViewScan):
                    names.add(node.view_name)
                    names |= self.views.view(node.view_name).definition.relation_names
        return frozenset(names)

    def _compile(self, resolved, entry: CachedPlan) -> None:
        tracer = self.tracer
        with tracer.span("analysis.eligibility"):
            report = codegen_eligibility(
                entry.plan,
                self.database.schema,
                views=self.views,
                access_schema=self.access_schema,
                expected_arity=resolved.head_arity,
            )
        if not report.ok:
            entry.codegen_state = "ineligible"
            return
        try:
            with tracer.span("codegen.compile"):
                entry.compiled = compile_plan_closure(entry.plan, self.access_schema)
        except (PlanError, UnsupportedQueryError):
            entry.codegen_state = "ineligible"
            return
        entry.codegen_state = "compiled"

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def apply(self, batch: UpdateBatch) -> StagedWrite:
        tracer = self.tracer
        tracer.request += 1
        with tracer.span(REQUEST):
            batch.validate(self.database)
            with tracer.span("storage.apply"):
                stream = self.database.apply(batch, admit=self.indexes.admissible)
            with tracer.span("snapshots.advance"):
                self.snapshots.advance(stream)
            stats = MaintenanceStats()
            with tracer.span("maintenance.apply"):
                deltas = self.maintainer.apply_stream(stream, stats)
            self.stats.record_maintenance(stats)
            touched = set(stream.touched)
            touched.update(delta.view for delta in deltas)
            with tracer.span("cache.invalidate"):
                evicted = self.cache.invalidate(touched)
            if deltas:
                self.view_cache = self.maintainer.snapshot()
            self.backend.refresh(
                provider=self.snapshots.reader(), view_cache=self.view_cache
            )
        return StagedWrite(
            applied=stream.applied,
            skipped_inadmissible=stream.skipped_inadmissible,
            evicted=evicted,
            delta_queries=stats.delta_queries,
            tier_runs=dict(stats.tier_runs),
        )

    # ------------------------------------------------------------------ #
    # Plan store
    # ------------------------------------------------------------------ #

    def plan_store_roundtrip(self, path: str) -> tuple[float, float]:
        """Seconds to save, then load, the found plans of the staged cache."""
        records = [
            StoredEntry(
                cache_key=key,
                plan=entry.plan,
                planner=entry.planner,
                reason=entry.reason,
                parameters=entry.parameters,
                dependencies=entry.dependencies,
                executions=entry.executions,
                codegen_state=entry.codegen_state,
                estimated_fetches=entry.estimated_fetches,
                fetch_estimates=tuple(entry.fetch_estimates),
                order_report=entry.order_report,
            )
            for key, entry in self.cache.entries()
            if entry.plan is not None
        ]
        fingerprint = statistics_fingerprint(self.database.statistics())
        store = PlanStore(path)
        started = time.perf_counter()
        store.save(fingerprint, self.chain_signature, records)
        saved = time.perf_counter()
        loaded = store.load(fingerprint, self.chain_signature)
        done = time.perf_counter()
        if len(loaded) != len(records):
            raise AssertionError("plan store did not return what was saved")
        return saved - started, done - saved
