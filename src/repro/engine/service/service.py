"""The unified serving surface: :class:`QueryService`.

One object, one entry point.  ``QueryService.query`` accepts a CQ, a UCQ, an
FO query or a Datalog-style source string, resolves it once per distinct
input (parse, validation against the schema, canonical form — memoised, see
:mod:`.resolve`), plans it through a configurable planner chain (see
:mod:`.planners`), caches the planning outcome in an LRU plan cache keyed by
the query's canonical form (see :mod:`.cache`), executes
the plan on a selectable backend (see :mod:`.backends`) and falls back to the
full-scan baseline when no bounded plan exists — always reporting which path
was taken and how much data it touched.

Prepared queries (:meth:`QueryService.prepare` → :class:`PreparedQuery`)
support named constants (``:name`` in the textual syntax,
``Constant(Param("name"))`` programmatically): the query is planned once and
re-executed with different constant bindings without ever re-planning.

::

    service = QueryService(database, access_schema, views)
    answer = service.query("Q(m) :- movie(m, t, 'Universal', '2014')")
    prepared = service.prepare("Q(m) :- movie(m, t, :studio, '2014')")
    rows = prepared.execute(studio="Universal").rows
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace as dataclass_replace
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from ...algebra.cq import ConjunctiveQuery
from ...algebra.fo import FOQuery
from ...algebra.terms import Variable
from ...algebra.fo import is_positive_existential, to_ucq
from ...algebra.ucq import UnionQuery
from ...algebra.views import View, ViewSet
from ...analysis import (
    BoundednessCounterexample,
    Diagnostic,
    Explanation,
    codegen_eligibility,
    fetch_certificates,
    lint_query,
    verify_plan,
)
from ...analysis.sharding import PlanShardSet
from ...core.access import AccessSchema
from ...core.bounded_evaluability import bounded_evaluability_report
from ...core.conformance import conforms_to
from ...core.element_queries import ElementQueryBudget
from ...core.plan_eval import (
    ExecutionResult,
    bind_plan,
    plan_parameters,
)
from ...core.plans import PlanNode, UnionNode
from ...errors import (
    EvaluationError,
    PlanError,
    PlanStoreError,
    PlanVerificationError,
    QueryError,
    UnsupportedQueryError,
)
from ...exec.codegen import compile_plan_closure
from ...storage.deltas import DeltaStream
from ...storage.indexes import IndexSet
from ...storage.instance import Database
from ...storage.snapshots import ShardingLayout, SnapshotManager
from ...storage.statistics import statistics_fingerprint
from ...storage.updates import Update, UpdateBatch
from ..optimizer import estimate_plan_fetches
from .backends import ExecutionBackend, InMemoryBackend, SQLiteBackend, make_backend
from .cache import CachedPlan, LRUPlanCache
from .plan_store import PlanStore, StoredEntry
from .maintenance import (
    MaintenanceExplanation,
    MaintenanceReport,
    MaintenanceStats,
    ViewDelta,
    ViewMaintainer,
)
from .planners import (
    Planner,
    PlanningContext,
    Query,
    planner_signature,
    resolve_planners,
)
from .resolve import EntryView, QueryInput, ResolvedQuery, ResolveStage
from .sharding import ShardExecutor, ShardRouter
from .stats import ServiceStats


class _LazyPlan:
    """``Answer.plan``: a plan, ``None``, or — until first read — the shared
    cache entry as the input sees it (:class:`EntryView`).  Putting an
    input's values back into a plan shared across constants costs more than
    a compiled execution, so it happens only when somebody looks.  (Raising
    on class access is how a descriptor tells ``dataclass`` that the field
    has no default.)"""

    def __get__(self, answer: "Answer | None", owner: type | None = None) -> PlanNode | None:
        if answer is None:
            raise AttributeError("plan")
        plan = answer.__dict__["plan"]
        if isinstance(plan, EntryView):
            plan = answer.__dict__["plan"] = plan.plan
        return plan

    def __set__(self, answer: "Answer", plan: object) -> None:
        answer.__dict__["plan"] = plan


@dataclass
class Answer:
    """Answer of :class:`QueryService.query` with full provenance.

    ``planner`` names the strategy that produced the plan (``None`` on the
    fallback path); ``backend`` names where the query ran; ``cache_hit`` is
    true when planning was skipped — this query's *shape* was planned before
    (by this text or by one that differs only in liftable constants), or an
    already-planned :class:`PreparedQuery` ran; ``reason`` explains the
    outcome in either case — it is never silently empty.
    """

    rows: frozenset[tuple]
    used_bounded_plan: bool
    #: The literal, self-contained plan that answered (bound on first read).
    plan: _LazyPlan = _LazyPlan()
    planner: str | None
    backend: str
    cache_hit: bool
    tuples_fetched: int
    tuples_scanned: int
    view_tuples_scanned: int
    elapsed_seconds: float
    reason: str = ""
    #: Which execution tier produced the rows: ``"interpreted"`` (the
    #: operator-tree kernel) or ``"compiled"`` (a codegen closure).  Both
    #: tiers are bit-identical in rows *and* in ``Dξ`` accounting; the tier
    #: only changes how fast the answer arrived.
    execution_tier: str = "interpreted"
    #: Sharded snapshot serving: the ids of the partitions the execution's
    #: index lookups actually probed (empty for single-partition services,
    #: fallback answers and reference-tier-only plans) and the service's
    #: shard count — ``shards_total - len(shards_touched)`` partitions were
    #: pruned for this answer.
    shards_touched: tuple[int, ...] = ()
    shards_total: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def data_accessed(self) -> int:
        """Tuples read from the underlying database (fetched or scanned)."""
        return self.tuples_fetched + self.tuples_scanned


def _constant_blind(chain: Sequence[Planner]) -> bool:
    """May outcomes of this chain be shared across query constants?"""
    return all(getattr(planner, "constant_blind", False) for planner in chain)


def _validate_bindings(
    declared: frozenset[str], given: Mapping[str, object], what: str
) -> None:
    """Reject missing or unknown parameter bindings with a uniform message."""
    missing = sorted(declared - set(given))
    if missing:
        raise QueryError(f"{what} is missing bindings for parameters {missing}")
    unknown = sorted(set(given) - declared)
    if unknown:
        raise QueryError(
            f"{what} has no parameters named {unknown}; declared parameters "
            f"are {sorted(declared)}"
        )


@dataclass
class PreparedQuery:
    """A query planned once, executable many times with different constants.

    Obtained from :meth:`QueryService.prepare`.  ``parameters`` lists the
    named placeholders that must be bound on every :meth:`execute` call; a
    query without parameters simply re-executes its cached plan.  Literal
    constants are bound by the service itself (the cached plan is the
    shape's, see :mod:`.resolve`) and never show up here.
    """

    service: "QueryService"
    record: ResolvedQuery
    head: tuple[Variable, ...] | None
    entry: CachedPlan
    backend: str | None
    planned_from_cache: bool = False
    _executed: bool = False

    @property
    def query(self) -> Query:
        return self.record.query

    @property
    def parameters(self) -> frozenset[str]:
        return self.record.parameters

    @property
    def plan(self) -> PlanNode | None:
        return self.record.literal_plan(self.entry) if self.entry.found else None

    @property
    def is_bounded(self) -> bool:
        return self.entry.found

    def execute(
        self,
        backend: str | None = None,
        *,
        params: Mapping[str, object] | None = None,
        **kwargs: object,
    ) -> Answer:
        """Execute the prepared plan with values bound to its placeholders.

        Bindings are given as keyword arguments (``prepared.execute(studio=
        "Universal")``) or — for parameter names that collide with this
        method's own keywords, such as ``backend`` — through the explicit
        ``params`` mapping.  The two may be mixed but not overlap.
        """
        bindings = dict(params or {})
        overlap = sorted(set(bindings) & set(kwargs))
        if overlap:
            raise QueryError(f"parameters {overlap} bound both in params= and as keywords")
        bindings.update(kwargs)
        _validate_bindings(self.parameters, bindings, "prepared query")
        # The first execution inherits the prepare-time cache outcome (the
        # planning work happened then); every later one genuinely skips
        # planning, so the stats report it as a hit.
        cache_hit = self.planned_from_cache or self._executed
        self._executed = True
        return self.service._execute(
            self.record,
            self.head,
            self.entry,
            cache_hit=cache_hit,
            backend_name=backend or self.backend,
            started=time.perf_counter(),
            params=bindings or None,
        )


class QueryService:
    """One entry point for answering queries over a database with views.

    Construction materialises the views, builds the access-constraint indices
    and sets up the planner chain, the plan cache and the execution backends;
    afterwards :meth:`query`, :meth:`prepare` and :meth:`query_many` serve
    any mix of CQ/UCQ/FO/string queries, and :meth:`apply` is the matching
    write path: the service subscribes to the database's delta stream, so
    every committed transaction incrementally maintains the views (compiled
    delta plans) and feeds the same delta to the backends.  The plan cache
    is not part of the write path: whether a query has a bounded plan, and
    which one, is a function of the query, the access schema and the views —
    never of the data — and compiled closures late-bind snapshot and view
    cache per execution, so the read after a write is a compiled cache hit.
    A planning outcome leaves by LRU, by ``plan_cache.clear()`` (assigning
    :attr:`budget`) or by adaptive re-planning, nothing else.

    Every entry point (:meth:`query`, :meth:`prepare`, :meth:`explain`,
    :meth:`lint`, :meth:`baseline`, :meth:`plan`, :meth:`query_many`) takes
    its input through one memoised resolve stage first
    (:class:`~repro.engine.service.resolve.ResolveStage`): a repeated source
    string or held query object is parsed, validated and canonicalised once,
    and an input that does not fit the schema raises a typed error
    (:class:`~repro.errors.SchemaError` for a wrong arity,
    :class:`~repro.errors.QueryError` for an unknown relation or an unsafe
    head) instead of silently answering empty.

    Parameters
    ----------
    planners:
        The fallback chain — planner names (``"heuristic"``, ``"exact"``,
        ``"topped"`` or anything registered via
        :func:`~repro.engine.service.planners.register_planner`) and/or
        ready strategy objects, tried in order.  Defaults to
        ``("heuristic", "topped")``.
    backend:
        Default execution backend, ``"memory"`` or ``"sqlite"``; overridable
        per call.
    plan_cache_size:
        Capacity of the LRU plan cache; ``0`` disables plan caching.
    codegen:
        Enable the codegen execution tier: cached plans that keep getting
        executed are compiled into specialized closures (bit-identical rows
        and ``Dξ`` accounting, several times faster).  Only backends
        exposing ``execute_compiled`` take the fast path; others keep
        interpreting.
    codegen_warmup:
        How many interpreted executions a cached plan must see before it is
        compiled.  ``0`` compiles on first execution; the default leaves
        one-shot queries on the (compile-free) interpreted tier.
    shards:
        Number of hash partitions, an integer ``>= 1``.  Every read is
        pinned to an immutable MVCC snapshot of the database
        (:mod:`repro.storage.snapshots`): writers build the next version
        copy-on-write and publish it atomically, so concurrent readers never
        observe a half-applied transaction.  With ``shards > 1`` the
        access-constraint indexes are additionally hash-partitioned on their
        key columns; the router prunes partitions statically from the plan's
        boundedness certificates, and ``explain()``/:attr:`Answer
        .shards_touched` report the pruning.
    plan_store:
        A :class:`~repro.engine.service.plan_store.PlanStore` (or a path
        string) persisting planning outcomes across restarts: loaded here —
        entries whose statistics fingerprint and planner-chain signature
        still match are replayed into the plan cache (plans previously on
        the compiled tier are eagerly recompiled, so the first
        post-restart execution already runs compiled) — and written back by
        :meth:`close`.  A corrupt store file is ignored (the typed
        :class:`~repro.errors.PlanStoreError` is recorded on
        ``plan_store_error``) and the service plans from scratch.
    replan_factor:
        Adaptive re-planning threshold: a warm execution whose actual Dξ
        misses the cost model's estimate by more than this factor (either
        direction) triggers re-planning with per-relation corrections and
        an atomic cache-entry swap.  ``max_replans`` bounds how often one
        entry may be replaced without a write in between (runaway
        oscillation guard; a miss after a write is new evidence and gets the
        full budget again).
    """

    def __init__(
        self,
        database: Database,
        access_schema: AccessSchema,
        views: ViewSet | Sequence[View] = (),
        *,
        planners: Sequence[str | Planner] | None = None,
        backend: str = "memory",
        plan_cache_size: int = 128,
        check_constraints: bool = True,
        budget: ElementQueryBudget | None = None,
        inner_size_cutoff: int = 2,
        verify_plans: bool = False,
        codegen: bool = True,
        codegen_warmup: int = 2,
        shards: int = 1,
        plan_store: PlanStore | str | None = None,
        replan_factor: float = 10.0,
        max_replans: int = 3,
    ) -> None:
        self.database = database
        self.access_schema = access_schema
        self.views = views if isinstance(views, ViewSet) else ViewSet(views)
        self._budget = budget
        self.inner_size_cutoff = inner_size_cutoff
        # Debug mode: statically verify every freshly planned physical plan
        # (schema bookkeeping, access-constraint conformance, boundedness)
        # before it enters the plan cache; see repro.analysis.verify_plan.
        self.verify_plans = verify_plans
        self.codegen = codegen
        self.codegen_warmup = codegen_warmup
        # Serialises warmup counting and compilation: two threads hitting the
        # same cached entry must not compile it twice (or race the counter).
        self._codegen_lock = threading.Lock()
        access_schema.validate(database.schema)
        if check_constraints and not database.satisfies(access_schema):
            violations = database.violations(access_schema)
            raise EvaluationError(
                "database does not satisfy the access schema: " + "; ".join(violations[:5])
            )
        if not isinstance(shards, int) or shards < 1:
            raise QueryError(
                f"shards must be an integer >= 1, got {shards!r}; shards=1 is "
                "the single-partition default"
            )
        # Reads are served from immutable snapshot versions advanced by
        # Database.apply; the live indices are the write path's
        # admissibility surface.
        self._indexes = IndexSet(database, access_schema)
        layout = ShardingLayout.derive(database.schema, access_schema, shards)
        self._snapshots: SnapshotManager = database.enable_snapshots(
            layout, access_schema
        )
        self._router = ShardRouter(access_schema, layout)
        # The persistent query_many worker pool: created lazily on the first
        # parallel batch, reused for the service's lifetime, released by
        # close().
        self._pool_lock = threading.Lock()
        self._shard_executor: ShardExecutor | None = None
        # The write path rides the same tier switch: compiled maintenance
        # kernels after the same warmup, gated by the delta-program verifier.
        self.maintainer = ViewMaintainer(
            self.views, database, codegen=codegen, codegen_warmup=codegen_warmup
        )
        self._view_cache = self.maintainer.snapshot()
        self.planners = resolve_planners(planners)
        # Warm-hit fast paths: the resolve stage memoises everything that
        # depends only on the input (see .resolve), and the default planner
        # chain's signature is computed once instead of per call.
        self._resolver = ResolveStage(database.schema, self.views)
        self._chain_signature: tuple[object, tuple[tuple, bool]] | None = None
        self.plan_cache = LRUPlanCache(plan_cache_size)
        self.stats = ServiceStats()
        self.default_backend = backend
        self._backends: dict[str, ExecutionBackend] = {}
        self._backend_lock = threading.Lock()
        self._default_backend_obj: ExecutionBackend | None = None
        self._default_backend_obj = self._backend(backend)  # fail fast on unknown names
        # Maintenance accounting of the most recent delta notification,
        # consumed by apply() to build its report.
        self._last_maintenance: tuple[MaintenanceStats, list[ViewDelta]] | None = None
        # Adaptive re-planning (optimizer v2): threshold, per-entry cap and
        # a lock serialising the replace itself (the cache's replace() is
        # already atomic; the lock keeps two threads from both planning).
        self.replan_factor = replan_factor
        self.max_replans = max_replans
        self._replan_lock = threading.Lock()
        # Persistent plan store: load surviving entries before serving
        # starts, write the cache back on close().
        self.plan_store: PlanStore | None = (
            PlanStore(plan_store) if isinstance(plan_store, str) else plan_store
        )
        self.plan_store_error: str = ""
        self._load_plan_store()
        # The service is a transaction-level delta observer: ANY writer that
        # goes through Database.apply (QueryService.apply, UpdateBatch.apply_to,
        # another service on the same database) keeps this service's views
        # and backends fresh.
        database.subscribe(self)

    # ------------------------------------------------------------------ #
    # State: views, indices, backends
    # ------------------------------------------------------------------ #

    @property
    def context(self) -> PlanningContext:
        """The planning context, rebuilt from the current settings on each read.

        ``budget`` and ``inner_size_cutoff`` stay live: mutating them affects
        the next planning run (matching the v1.0 engine, which read them per
        call) instead of being frozen at construction.  ``statistics`` reads
        the storage layer's cached per-relation statistics, so cost-based
        planner decisions track the current data.
        """
        return PlanningContext(
            schema=self.database.schema,
            views=self.views,
            access_schema=self.access_schema,
            budget=self._budget,
            inner_size_cutoff=self.inner_size_cutoff,
            statistics=self.database.statistics(),
        )

    @property
    def budget(self) -> ElementQueryBudget | None:
        """Planning budget; assignment clears the plan cache (cached outcomes
        may depend on the budget under which they were planned)."""
        return self._budget

    @budget.setter
    def budget(self, budget: ElementQueryBudget | None) -> None:
        self._budget = budget
        self.plan_cache.clear()

    @property
    def view_cache(self) -> Mapping[str, frozenset[tuple]]:
        """The materialised view rows, keyed by view name (read-only mapping).

        Execution backends hold their own reference to these rows, so
        in-place mutation could silently serve stale results — the returned
        proxy therefore rejects item assignment.  The rows change only
        through writes (:meth:`apply` or any ``Database.apply``).
        """
        return MappingProxyType(self._view_cache)

    @property
    def indexes(self) -> IndexSet:
        """The live access-constraint indices (observer-maintained); reads
        are served from snapshots, writes check admissibility here."""
        return self._indexes

    @property
    def view_cache_size(self) -> int:
        """Total number of cached view tuples (|V(D)|)."""
        return sum(len(rows) for rows in self._view_cache.values())

    @property
    def shard_count(self) -> int:
        """Number of hash partitions the snapshots are split into."""
        return self._router.shard_count

    def _sync_serving(self) -> None:
        """Catch out-of-band mutations before serving from a snapshot.

        Writes through :meth:`Database.apply` advance the snapshot inside the
        transaction; direct ``Relation.insert``/``delete`` calls bypass the
        delta stream, so the snapshot manager compares per-relation mutation
        counters and rebuilds the drifted relations here.  The check is two
        integer loads per relation on the (overwhelmingly common) clean path.
        """
        if self._snapshots.stale():
            provider = self._snapshots.refresh()
            with self._backend_lock:
                backends = list(self._backends.values())
            for backend in backends:
                if isinstance(backend, InMemoryBackend):
                    backend.refresh(provider=provider, view_cache=self._view_cache)

    def _backend(self, name: str | None) -> ExecutionBackend:
        name = name or self.default_backend
        if name == self.default_backend and self._default_backend_obj is not None:
            # Backends are refreshed in place (refresh/invalidate/apply_delta)
            # and never replaced, so the cached reference stays valid; this
            # skips a lock acquisition on every warm query.
            return self._default_backend_obj
        with self._backend_lock:
            backend = self._backends.get(name)
            if backend is None:
                backend = make_backend(
                    name,
                    self.database,
                    self.access_schema,
                    self.views,
                    self._snapshots.reader(),
                    self._view_cache,
                )
                self._backends[name] = backend
        return backend

    # ------------------------------------------------------------------ #
    # The write path: first-class updates through the delta stream
    # ------------------------------------------------------------------ #

    def apply(
        self,
        batch: UpdateBatch | Iterable[Update],
        *,
        enforce_admissible: bool = True,
    ) -> MaintenanceReport:
        """Apply a batch of single-tuple updates as one transaction.

        The first-class write API.  With ``enforce_admissible`` (the
        default), insertions that would violate an access constraint are
        skipped and counted in the report — the check inspects only the
        index buckets the update touches, keeping ``D |= A`` with bounded
        work.  Applying the admitted updates maintains, in order: the
        relations' caches, secondary indexes and statistics plus every
        access-constraint index (per-row observers); then, via the committed
        :class:`~repro.storage.deltas.DeltaStream`, the materialised views
        (compiled delta plans — counting where sound, DRed otherwise) and
        the execution backends (the SQLite backend replays the same delta
        instead of reloading).  Cached plans and their compiled closures are
        data-independent and stay where they are.
        """
        updates = batch if isinstance(batch, UpdateBatch) else UpdateBatch(batch)
        updates.validate(self.database)
        self._last_maintenance = None
        stream = self.database.apply(
            updates, admit=self._indexes.admissible if enforce_admissible else None
        )
        maintenance = self._last_maintenance
        self._last_maintenance = None
        if maintenance is not None:
            stats, deltas = maintenance
        else:  # nothing changed: the observer was never notified
            stats, deltas = MaintenanceStats(), []
        return MaintenanceReport(
            applied=stream.applied,
            skipped_inadmissible=stream.skipped_inadmissible,
            inserted=stream.applied_insertions,
            deleted=stream.applied_deletions,
            stats=stats,
            view_deltas=deltas,
        )

    def on_delta(self, stream: DeltaStream) -> None:
        """Delta-stream observer hook: fold one committed transaction in.

        Called by :meth:`repro.storage.instance.Database.apply` after the
        storage layer reached the post-transaction state — whether the write
        came through :meth:`apply` or from another writer sharing the
        database.
        """
        stats = MaintenanceStats()
        deltas = self.maintainer.apply_stream(stream, stats)
        self.stats.record_maintenance(stats)
        if deltas:
            self._view_cache = self.maintainer.snapshot()
        with self._backend_lock:
            backends = list(self._backends.values())
        # Database.apply advanced the snapshot manager before notifying
        # observers, so reader() is already the post-transaction version.
        provider = self._snapshots.reader()
        for backend in backends:
            if isinstance(backend, InMemoryBackend):
                backend.refresh(provider=provider, view_cache=self._view_cache)
            elif isinstance(backend, SQLiteBackend):
                backend.apply_delta(stream, deltas)
        self._last_maintenance = (stats, deltas)

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #

    def _resolve(self, query: QueryInput) -> tuple[ResolvedQuery, bool]:
        """The resolve stage: the input's record, and whether the memo served
        it (counted in :attr:`stats` either way)."""
        record, memo_hit = self._resolver.resolve(query)
        self.stats.record_resolve(memo_hit)
        return record, memo_hit

    def _resolve_bound(
        self, query: QueryInput, params: Mapping[str, object] | None
    ) -> ResolvedQuery:
        """Resolve an input about to execute: ``params`` must bind exactly
        its declared parameters."""
        record, _ = self._resolve(query)
        if record.parameters or params:
            _validate_bindings(
                record.parameters,
                params or {},
                "query (pass params= or use prepare() for repeated execution)",
            )
        return record

    def plan(
        self,
        query: QueryInput,
        *,
        head: Sequence[Variable] | None = None,
        max_size: int | None = None,
        planners: Sequence[str | Planner] | None = None,
        use_cache: bool = True,
    ) -> tuple[CachedPlan, bool]:
        """Plan a query through the chain; returns (outcome, was_cache_hit).
        The outcome is the live cache entry, ``plan`` bound to this input's
        own constants when the entry is shared across them."""
        record, _ = self._resolve(query)
        entry, hit = self._plan(record, head, max_size, planners, use_cache)
        return record.view_of(entry), hit

    def _plan(
        self,
        record: ResolvedQuery,
        head: Sequence[Variable] | None,
        max_size: int | None,
        planners: Sequence[str | Planner] | None,
        use_cache: bool = True,
    ) -> tuple[CachedPlan, bool]:
        """The cache → plan/verify stages for one resolved input.

        A plan may be shared across constants iff nothing that chose it read
        them: a chain of constant-blind planners plans the input's *shape*
        under the shape key, any other chain the query as written under the
        literal key.  Either outcome executes with the record's bindings.
        """
        if planners is None:
            chain = self.planners
            chain_signature, shared = self._default_chain()
        else:
            chain = resolve_planners(planners)
            chain_signature = tuple(planner_signature(p) for p in chain)
            shared = _constant_blind(chain)
        planned = record.shape if shared else record.query
        key = (
            record.shape_key if shared else record.canonical,
            chain_signature,
            tuple(v.name for v in head) if head is not None else None,
            max_size,
            self.inner_size_cutoff,
        )
        if use_cache:
            cached = self.plan_cache.get(key)
            if cached is not None:
                if cached.restored:
                    # First hit on an entry replayed from the persistent
                    # plan store: planning (and possibly compilation) was
                    # skipped thanks to the store — count it once.
                    cached.restored = False
                    self.stats.record_plan_store_hit()
                return cached, True
        entry = self._run_chain(planned, head, max_size, chain, None, record.bindings)
        if entry.plan is None and any(
            name in self.views for name in planned.relation_names
        ):
            raise QueryError(
                f"no bounded plan for {self._query_name(planned)!r}, which reads "
                "views, and the full-scan baseline cannot read views: "
                + entry.reason
            )
        entry.cache_key = key if use_cache else None
        if self.verify_plans and entry.plan is not None:
            self._verify_entry(record.query, record.literal_plan(entry), head)
        if use_cache:
            self.plan_cache.put(key, entry)
        return entry, False

    def _default_chain(self) -> tuple[tuple, bool]:
        """The default chain's cache-key signature and whether its plans are
        shared across constants, computed once per chain."""
        chain = self.planners
        cached = self._chain_signature
        if cached is None or cached[0] is not chain:
            signature = tuple(planner_signature(p) for p in chain)
            cached = (chain, (signature, _constant_blind(chain)))
            self._chain_signature = cached
        return cached[1]

    def _run_chain(
        self,
        resolved: Query,
        head: Sequence[Variable] | None,
        max_size: int | None,
        chain: Sequence[Planner],
        corrections: Mapping[str, float] | None,
        bindings: Mapping[str, object],
    ) -> CachedPlan:
        """Run the planner chain once and build the cache entry.

        The planning context — including the snapshot-consistent statistics
        read — is built once for the whole chain, so every planner (and the
        post-planning cardinality estimate below) prices the same data.
        ``corrections`` is non-None only on the adaptive re-planning path.
        ``bindings`` are the asking input's lifted values: the plan may be
        shared across constants, its *estimate* is priced for them.
        """
        context = self.context
        if corrections:
            context = dataclass_replace(context, corrections=dict(corrections))
        reasons: list[str] = []
        entry: CachedPlan | None = None
        applicable = False
        for planner in chain:
            if not planner.can_plan(resolved):
                continue
            applicable = True
            result = planner.plan(resolved, head, max_size, context)
            if result.found:
                entry = CachedPlan(
                    plan=result.plan,
                    planner=result.planner,
                    reason=f"bounded plan produced by planner {result.planner!r}",
                    parameters=plan_parameters(result.plan),
                    order_report=result.order_report,
                )
                break
            reasons.append(f"{planner.name}: {result.reason or 'no bounded plan found'}")
        if entry is None:
            if not applicable:
                reasons.append(
                    "no planner in the chain "
                    f"({', '.join(p.name for p in chain) or 'empty'}) accepts "
                    f"{type(resolved).__name__} queries"
                )
            entry = CachedPlan(plan=None, planner=None, reason="; ".join(reasons))
        if entry.plan is not None and context.statistics is not None:
            # Record the cost model's prediction next to the plan: the warm
            # path compares it against the IOMeter's actual Dξ and triggers
            # adaptive re-planning on a >replan_factor miss.
            estimate = estimate_plan_fetches(
                entry.plan,
                context.statistics,
                context.schema,
                view_sizes={
                    name: len(rows) for name, rows in self._view_cache.items()
                },
                corrections=corrections,
                bindings=bindings,
            )
            entry.estimated_fetches = estimate.total_fetched
            entry.fetch_estimates = estimate.fetches
        return entry

    def _verify_entry(
        self, resolved: Query, plan: PlanNode, head: Sequence[Variable] | None
    ) -> None:
        """``verify_plans=True`` hook: statically check a fresh plan before
        it is cached, raising :class:`PlanVerificationError` on findings."""
        report = verify_plan(
            plan,
            self.database.schema,
            views=self.views,
            access_schema=self.access_schema,
            budget=self._budget,
            expected_arity=self._head_arity(resolved, head),
            subject=self._query_name(resolved),
        )
        if not report.ok:
            raise PlanVerificationError(
                f"plan verification failed for {self._query_name(resolved)!r}: "
                + "; ".join(str(d) for d in report.errors),
                diagnostics=tuple(report.errors),
                query_name=self._query_name(resolved),
            )

    def _compile_entry(
        self, entry: CachedPlan, expected_arity: int, subject: str
    ) -> None:
        """Try to compile a cache entry's plan to a specialized closure.

        The one compile gate, used for warmed-up entries (called with
        :attr:`_codegen_lock` held) and for formerly-compiled entries
        restored from the plan store (closures are never persisted; the gate
        runs again because the store could have been written under different
        analysis settings).  The gate is
        :func:`repro.analysis.codegen_eligibility` — the full plan-verifier
        discipline, because the closure compiler bypasses the interpreted
        operator constructors and their invariant checks.  A refusal (or a
        compile failure) marks the entry ``"ineligible"`` so the hot path
        never retries it; the plan simply keeps interpreting.
        """
        plan = entry.plan
        assert plan is not None
        report = codegen_eligibility(
            plan,
            self.database.schema,
            views=self.views,
            access_schema=self.access_schema,
            budget=self._budget,
            expected_arity=expected_arity,
            subject=subject,
        )
        if not report.ok:
            entry.codegen_state = "ineligible"
            entry.codegen_reason = "; ".join(str(d) for d in report.errors)
            return
        try:
            entry.compiled = compile_plan_closure(plan, self.access_schema)
        except (PlanError, UnsupportedQueryError) as exc:
            entry.codegen_state = "ineligible"
            entry.codegen_reason = f"closure compilation failed: {exc}"
            return
        entry.codegen_state = "compiled"
        entry.codegen_reason = ""

    # ------------------------------------------------------------------ #
    # Adaptive re-planning (optimizer v2)
    # ------------------------------------------------------------------ #

    def _observe_execution(
        self,
        record: ResolvedQuery,
        head: tuple[Variable, ...] | None,
        entry: CachedPlan,
        cache_hit: bool,
        stats: object,
    ) -> None:
        """Fold one execution's actual Dξ into the entry; re-plan on a miss.

        Only *warm* executions can trigger re-planning — a cold one just ran
        the planner against the same statistics the estimate came from, so a
        miss there is a model error re-planning cannot fix.  Both directions
        count: an actual more than ``replan_factor`` times the estimate
        means the plan is fetching far more than the model priced (the
        classic misordered-join signature), an actual that far *below* a
        non-trivial estimate means the model walked the plan into the
        pessimistic corner and a cheaper order likely exists.  The observed
        per-relation actuals become multiplicative corrections for the
        re-planning run (Leis et al., VLDB 2015), and the replacement entry
        swaps in atomically — racing readers keep the retired plan for the
        execution they already started, which stays correct (both plans
        answer the same query).
        """
        actual = int(getattr(stats, "tuples_fetched", 0))
        per_relation = dict(getattr(stats, "per_relation", {}) or {})
        entry.actual_fetches = actual
        entry.actual_per_relation = per_relation
        if not cache_hit or entry.estimated_fetches is None or entry.cache_key is None:
            return
        estimated = max(float(entry.estimated_fetches), 1.0)
        observed = float(actual)
        overshoot = observed > estimated * self.replan_factor
        undershoot = (
            estimated >= 100.0
            and observed >= 1.0
            and observed * self.replan_factor < estimated
        )
        if not overshoot and not undershoot:
            return
        direction = "over" if overshoot else "under"
        reason = (
            f"actual Dξ {actual} vs estimated {entry.estimated_fetches:.1f} "
            f"({direction}shot the {self.replan_factor:g}x re-plan threshold)"
        )
        self._replan(record, head, entry, reason, per_relation)

    def _replan(
        self,
        record: ResolvedQuery,
        head: tuple[Variable, ...] | None,
        entry: CachedPlan,
        reason: str,
        per_relation: Mapping[str, int],
    ) -> None:
        """Re-run the default chain with observed corrections, swap the entry."""
        key = entry.cache_key
        assert key is not None and entry.plan is not None
        if len(key) < 4 or key[1] != self._default_chain()[0]:
            # Planned under an explicit per-call chain whose planner objects
            # are gone; re-planning would change which strategies answer.
            return
        # The oscillation guard's budget is per write epoch: a mis-estimate
        # seen at a later snapshot version than the entry's last re-plan is
        # new evidence and starts from zero; one at the same version means
        # the corrected model is chasing its own tail.
        version = self._snapshots.current.version
        spent = entry.replans if entry.replan_version == version else 0
        if spent >= self.max_replans:
            return
        # Corrections are pure model-error multipliers: actual Dξ over what
        # the model predicts for the *executed* plan under the *current*
        # statistics.  Re-pricing the old plan here (rather than reusing the
        # plan-time estimate) keeps data growth out of the multiplier — the
        # fresh statistics already carry it, and folding it in twice would
        # overshoot the corrected model into oscillation.
        current = estimate_plan_fetches(
            entry.plan,
            self.database.statistics(),
            self.database.schema,
            view_sizes={name: len(rows) for name, rows in self._view_cache.items()},
            bindings=record.bindings,
        )
        estimated_by_relation: dict[str, float] = {}
        for fetch in current.fetches:
            estimated_by_relation[fetch.relation] = (
                estimated_by_relation.get(fetch.relation, 0.0) + fetch.fetched
            )
        corrections = {
            relation: max(float(count), 1.0)
            / max(estimated_by_relation.get(relation, 0.0), 1.0)
            for relation, count in per_relation.items()
        }
        # What the entry was planned from: the shape under a shape key.
        planned = record.shape if key[0] == record.shape_key else record.query
        with self._replan_lock:
            max_size = key[3] if len(key) > 3 else None
            fresh = self._run_chain(
                planned, head, max_size, self.planners, corrections, record.bindings
            )
            if fresh.plan is None:
                return  # the corrected model found nothing better to swap in
            if fresh.plan == entry.plan:
                # The plan it was meant to replace (the greedy builder
                # ignores corrections): the attempt is charged to the budget
                # and the re-priced estimate adopted; entry, warm-up and
                # closure stay.
                entry.estimated_fetches = fresh.estimated_fetches
                entry.fetch_estimates = fresh.fetch_estimates
                fresh = entry
            elif self.verify_plans:
                self._verify_entry(record.query, record.literal_plan(fresh), head)
            fresh.cache_key = key
            fresh.replans = spent + 1
            fresh.replan_version = version
            fresh.replan_reason = reason
            if fresh is entry or self.plan_cache.replace(key, entry, fresh):
                self.stats.record_replan()

    # ------------------------------------------------------------------ #
    # Persistent plan store
    # ------------------------------------------------------------------ #

    def _load_plan_store(self) -> None:
        """Replay surviving stored outcomes into the plan cache at startup.

        The store itself rejects stale payloads (statistics fingerprint or
        chain-signature mismatch → no entries); a damaged file is recorded
        on :attr:`plan_store_error` and otherwise ignored — a cache must
        never stop the service from starting.  Entries that were on the
        compiled tier when saved are recompiled eagerly, so the first
        post-restart execution already runs the compiled closure.
        """
        store = self.plan_store
        if store is None:
            return
        fingerprint = statistics_fingerprint(self.database.statistics())
        try:
            stored = store.load(fingerprint, self._default_chain()[0])
        except PlanStoreError as error:
            self.plan_store_error = str(error)
            return
        for record in stored:
            entry = CachedPlan(
                plan=record.plan,
                planner=record.planner,
                reason=record.reason,
                parameters=frozenset(record.parameters),
                executions=record.executions,
                codegen_state=(
                    record.codegen_state
                    if record.codegen_state != "compiled"
                    else "pending"
                ),
                codegen_reason=record.codegen_reason,
                estimated_fetches=record.estimated_fetches,
                fetch_estimates=tuple(record.fetch_estimates),
                replans=record.replans,
                replan_reason=record.replan_reason,
                order_report=record.order_report,
                cache_key=tuple(record.cache_key),
                restored=True,
            )
            if (
                record.codegen_state == "compiled"
                and self.codegen
                and record.plan is not None
            ):
                self._compile_entry(entry, len(record.plan.attributes), subject="")
            self.plan_cache.put(tuple(record.cache_key), entry)

    def _save_plan_store(self) -> None:
        """Write the found planning outcomes back to the store (on close)."""
        store = self.plan_store
        if store is None:
            return
        chain_signature = self._default_chain()[0]
        records: list[StoredEntry] = []
        for key, entry in self.plan_cache.entries():
            if entry.plan is None:
                continue  # negative outcomes are cheap to rediscover
            if len(key) < 2 or key[1] != chain_signature:
                continue  # planned under an explicit per-call chain
            records.append(
                StoredEntry(
                    cache_key=key,
                    plan=entry.plan,
                    planner=entry.planner,
                    reason=entry.reason,
                    parameters=entry.parameters,
                    executions=entry.executions,
                    codegen_state=entry.codegen_state,
                    codegen_reason=entry.codegen_reason,
                    estimated_fetches=entry.estimated_fetches,
                    fetch_estimates=tuple(entry.fetch_estimates),
                    replans=entry.replans,
                    replan_reason=entry.replan_reason,
                    order_report=entry.order_report,
                )
            )
        fingerprint = statistics_fingerprint(self.database.statistics())
        try:
            store.save(fingerprint, chain_signature, records)
        except OSError as error:
            self.plan_store_error = str(error)

    @staticmethod
    def _query_name(resolved: Query) -> str:
        name = getattr(resolved, "name", None)
        return name if isinstance(name, str) else type(resolved).__name__

    @staticmethod
    def _head_arity(resolved: Query, head: Sequence[Variable] | None) -> int:
        if head is not None:
            return len(head)
        if isinstance(resolved, (ConjunctiveQuery, UnionQuery)):
            return resolved.head_arity
        return len(resolved.free_variables)

    def explain(
        self,
        query: QueryInput,
        *,
        head: Sequence[Variable] | None = None,
        max_size: int | None = None,
        planners: Sequence[str | Planner] | None = None,
    ) -> Explanation:
        """Statically diagnose a query: plan, certificates, lints.

        Plans the query through the chain (hitting the plan cache like
        :meth:`query` would) and returns an :class:`Explanation` carrying the
        plan with per-fetch boundedness certificates and the worst-case fetch
        bound when one was found, or the planner chain's reasons plus — when
        derivable — an uncovered-variable counterexample when not.  Query
        lints ride along either way.  Nothing here touches the data.

        The plan shown is the cached one with this input's constants put
        back; ``bindings`` lists them when the outcome is the shape's, shared
        by every input that differs only in those values (which is how a
        text never seen before can be a ``cache_hit``).
        """
        record, memo_hit = self._resolve(query)
        resolved = record.query
        entry, cache_hit = self._plan(record, head, max_size, planners)
        lints = tuple(lint_query(resolved))
        name = self._query_name(resolved)
        if entry.plan is None:
            return Explanation(
                query_name=name,
                plan=None,
                reason=record.spell(entry.reason),
                cache_hit=cache_hit,
                resolve_memo_hit=memo_hit,
                counterexample=self._counterexample(resolved),
                lints=lints,
            )
        plan = record.literal_plan(entry)
        conformance = conforms_to(
            plan,
            self.access_schema,
            self.database.schema,
            self.views,
            self._budget,
            compute_bound=True,
        )
        certificates = fetch_certificates(
            plan,
            self.database.schema,
            views=self.views,
            access_schema=self.access_schema,
            budget=self._budget,
        )
        # Cost-model provenance, flattened to plain tuples: per-fetch
        # estimates with the IOMeter's last per-relation actuals, and the
        # cost-based orderer's chosen-vs-rejected join orders.
        per_relation = entry.actual_per_relation or {}
        operator_estimates = tuple(
            (fe.access, float(fe.fetched), per_relation.get(fe.relation))
            for fe in entry.fetch_estimates
        )
        report = entry.order_report
        order_strategy = str(getattr(report, "strategy", "")) if report is not None else ""
        join_orders = tuple(
            (candidate.description, float(candidate.cost), bool(candidate.chosen))
            for candidate in (getattr(report, "considered", ()) or ())
        )
        return Explanation(
            query_name=name,
            plan=plan,
            bindings={
                slot: value
                for slot, value in record.bindings.items()
                if slot in entry.parameters
            },
            planner=entry.planner or "",
            reason=entry.reason,
            cache_hit=cache_hit,
            resolve_memo_hit=memo_hit,
            fetch_bound=conformance.fetch_bound,
            certificates=tuple(certificates),
            lints=lints,
            execution_tier="compiled" if entry.compiled is not None else "interpreted",
            codegen_state=entry.codegen_state if self.codegen else "disabled",
            executions=entry.executions,
            codegen_warmup=self.codegen_warmup,
            compile_seconds=(
                entry.compiled.compile_seconds if entry.compiled is not None else None
            ),
            codegen_reason=entry.codegen_reason,
            shard_set=self._router.route(entry.plan, record.bindings),
            estimated_fetches=entry.estimated_fetches,
            actual_fetches=entry.actual_fetches,
            operator_estimates=operator_estimates,
            order_strategy=order_strategy,
            join_orders=join_orders,
            replans=entry.replans,
            replan_reason=entry.replan_reason,
        )

    def _counterexample(self, resolved: Query) -> BoundednessCounterexample | None:
        """The uncovered-variable evidence for a query with no bounded plan.

        Uses the PTIME syntactic check (``cov(Q, A)``): when it names
        unreachable variables they are a genuine obstruction for plans over
        the base relations.  FO queries outside the positive-existential
        fragment yield no counterexample (``None``).
        """
        query: ConjunctiveQuery | UnionQuery
        if isinstance(resolved, (ConjunctiveQuery, UnionQuery)):
            query = resolved
        elif is_positive_existential(resolved):
            try:
                query = to_ucq(resolved, sorted(resolved.free_variables, key=str))
            except (QueryError, UnsupportedQueryError):
                return None
        else:
            return None
        report = bounded_evaluability_report(
            query, self.access_schema, self.database.schema
        )
        if report.effectively_bounded or not report.unreachable_variables:
            return None
        return BoundednessCounterexample(
            uncovered=tuple(sorted(v.name for v in report.unreachable_variables)),
            reasons=tuple(report.reasons),
        )

    def lint(self, query: QueryInput) -> list[Diagnostic]:
        """Advisory lints for a query (see :func:`repro.analysis.lint_query`)."""
        record, _ = self._resolve(query)
        return lint_query(record.query)

    def explain_maintenance(self, view_name: str) -> MaintenanceExplanation:
        """How one maintained view is kept fresh: strategy, execution tier
        and the codegen lifecycle state (see
        :class:`~repro.engine.service.maintenance.MaintenanceExplanation`)."""
        return self.maintainer.explain(view_name)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    def query(
        self,
        query: QueryInput,
        *,
        head: Sequence[Variable] | None = None,
        max_size: int | None = None,
        backend: str | None = None,
        planners: Sequence[str | Planner] | None = None,
        use_cache: bool = True,
        params: Mapping[str, object] | None = None,
    ) -> Answer:
        """Answer any query through the planner chain, cache and backend.

        ``query`` may be a :class:`ConjunctiveQuery`, a :class:`UnionQuery`,
        an :class:`FOQuery` or a source string (parsed with
        :func:`repro.algebra.parser.parse_query`).  ``head`` fixes the output
        attributes of FO queries (defaults to the free variables sorted by
        name).  ``params`` binds named :class:`Param` placeholders for this
        call; queries with unbound parameters are rejected — prepare them
        instead.
        """
        started = time.perf_counter()
        record = self._resolve_bound(query, params)
        entry, hit = self._plan(record, head, max_size, planners, use_cache)
        return self._execute(
            record,
            tuple(head) if head is not None else None,
            entry,
            cache_hit=hit,
            backend_name=backend,
            started=started,
            params=params or None,
        )

    def prepare(
        self,
        query: QueryInput,
        *,
        head: Sequence[Variable] | None = None,
        max_size: int | None = None,
        backend: str | None = None,
        planners: Sequence[str | Planner] | None = None,
    ) -> PreparedQuery:
        """Plan a (possibly parameterised) query once for repeated execution."""
        record, _ = self._resolve(query)
        entry, hit = self._plan(record, head, max_size, planners)
        return PreparedQuery(
            service=self,
            record=record,
            head=tuple(head) if head is not None else None,
            entry=entry,
            backend=backend,
            planned_from_cache=hit,
        )

    def query_many(
        self,
        queries: Iterable[QueryInput],
        *,
        max_workers: int = 4,
        backend: str | None = None,
        planners: Sequence[str | Planner] | None = None,
        use_cache: bool = True,
    ) -> list[Answer]:
        """Answer a batch of queries over a thread pool, preserving order.

        All answers are folded into :attr:`stats`; per-query provenance is in
        the returned list.  The plan cache and the statistics are
        thread-safe; the SQLite backend serialises statement execution behind
        a lock.

        The thread pool is persistent: created lazily on the first parallel
        batch and reused for the service's lifetime (grown, never shrunk,
        when a later call asks for more workers), so bursts of small batches
        do not pay thread spawn/teardown per call.  :meth:`close` releases
        it.  On a sharded service each query is additionally planned and
        routed up front: single-shard-routable queries with the same shard
        affinity run serially inside one worker task (their probes hit the
        same partition's hot buckets back-to-back), everything else gets an
        individual task.
        """
        items = list(queries)
        if not items:
            return []
        workers = max(1, min(max_workers, len(items)))

        def run(item: QueryInput) -> Answer:
            return self.query(
                item, backend=backend, planners=planners, use_cache=use_cache
            )

        if workers == 1:
            return [run(item) for item in items]
        pool = self._worker_pool(workers)
        router = self._router
        if router.shard_count <= 1:
            return pool.map_with_affinity(
                [lambda item=item: run(item) for item in items],
                [None] * len(items),
            )
        # Sharded dispatch.  Planning happens here on the caller thread —
        # once per item, against the shared plan cache, with the exact
        # validation query() performs — so routing can group work before
        # anything is submitted and cache statistics match the serial path.
        tasks: list = []
        affinities: list[int | None] = []
        for item in items:
            started = time.perf_counter()
            record = self._resolve_bound(item, None)
            entry, hit = self._plan(record, None, None, planners, use_cache)
            affinities.append(
                router.affinity(entry.plan, record.bindings)
                if entry.plan is not None
                else None
            )

            def task(
                record: ResolvedQuery = record,
                entry: CachedPlan = entry,
                hit: bool = hit,
                started: float = started,
            ) -> Answer:
                return self._execute(
                    record,
                    None,
                    entry,
                    cache_hit=hit,
                    backend_name=backend,
                    started=started,
                    params=None,
                )

            tasks.append(task)
        return pool.map_with_affinity(tasks, affinities)

    def _worker_pool(self, workers: int) -> ShardExecutor:
        """The persistent batch-serving pool, grown on demand."""
        with self._pool_lock:
            pool = self._shard_executor
            if pool is None:
                pool = ShardExecutor(workers)
                self._shard_executor = pool
            elif pool.max_workers < workers:
                old = pool
                pool = ShardExecutor(workers)
                self._shard_executor = pool
                # Retire the smaller pool once its in-flight tasks drain;
                # growth is rare (a caller raising max_workers mid-life).
                old.shutdown()
            return pool

    def close(self) -> None:
        """Release serving resources; the service stays usable afterwards.

        Shuts the persistent ``query_many`` pool down (it is recreated
        lazily if another batch arrives), closes backends that hold
        resources (the SQLite connection), unsubscribes from the database's
        delta stream and deregisters its snapshot manager — after
        ``close()`` the service no longer maintains its views on foreign
        writes (nor charges them a snapshot advance), so treat it as retired.
        Usable as a context manager: ``with QueryService(...) as service:``.
        When a persistent plan store is configured, the plan cache is
        written back to it first (atomically), so the next service over the
        same (unchanged) data restarts warm.
        """
        self._save_plan_store()
        with self._pool_lock:
            pool, self._shard_executor = self._shard_executor, None
        if pool is not None:
            pool.shutdown()
        with self._backend_lock:
            backends = list(self._backends.values())
        for backend in backends:
            closer = getattr(backend, "close", None)
            if callable(closer):
                closer()
        self.database.unsubscribe(self)
        self.database.disable_snapshots(self._snapshots)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Direct execution (hand-built plans, baseline comparisons)
    # ------------------------------------------------------------------ #

    def execute_plan(
        self,
        plan: PlanNode,
        *,
        backend: str | None = None,
        params: Mapping[str, object] | None = None,
    ):
        """Execute a (possibly hand-built) plan directly on a backend.

        Returns the backend's :class:`~repro.core.plan_eval.ExecutionResult`
        (rows, attributes, fetch statistics).  ``params`` binds any named
        :class:`Param` placeholders the plan contains; a plan with unbound
        parameters is rejected (it could only return wrong, empty results).
        """
        if params:
            plan = bind_plan(plan, dict(params))
        unbound = plan_parameters(plan)
        if unbound:
            raise QueryError(f"plan has unbound parameters {sorted(unbound)}")
        self._sync_serving()
        return self._execute_union_fanout(self._backend(backend), plan)

    def baseline(self, query: QueryInput, *, backend: str | None = None):
        """Answer a CQ/UCQ by full scan, bypassing planning entirely.

        Returns the backend's :class:`~repro.engine.baseline.BaselineResult`
        — the comparison point for the paper's scale-independence claims.
        """
        record, _ = self._resolve(query)
        resolved = record.query
        if isinstance(resolved, FOQuery):
            raise QueryError(
                "baseline() answers CQ/UCQ; for FO queries use query(..., planners=())"
            )
        unbound = sorted(record.parameters)
        if unbound:
            raise QueryError(
                f"baseline query has unbound parameters {unbound}; bind them "
                "through prepare()/query(params=...) instead"
            )
        return self._backend(backend).execute_baseline(resolved)

    # ------------------------------------------------------------------ #

    def _execute_union_fanout(
        self, backend: ExecutionBackend, plan: PlanNode
    ) -> ExecutionResult:
        """Execute a plan, fanning a top-level union out per disjunct.

        On a sharded in-memory service a UCQ plan's disjuncts typically land
        on different partitions; executing them as separate units and
        unioning the partial results is the fan-out the router reports.  The
        merge is bit-identical to whole-plan execution: union disjuncts
        share no operator instances (per-fetch dedup state is per instance
        either way), union requires identical attribute tuples on both
        sides, and the per-disjunct meters are folded with ``merged_with``
        in disjunct order.
        """
        if (
            self._router.shard_count <= 1
            or not isinstance(plan, UnionNode)
            or not isinstance(backend, InMemoryBackend)
        ):
            return backend.execute_plan(plan)
        disjuncts: list[PlanNode] = []
        pending: list[PlanNode] = [plan]
        while pending:
            node = pending.pop()
            if isinstance(node, UnionNode):
                pending.extend((node.right, node.left))
            else:
                disjuncts.append(node)
        rows: frozenset[tuple] = frozenset()
        stats = None
        for disjunct in disjuncts:
            partial = backend.execute_plan(disjunct)
            rows |= partial.rows
            stats = partial.stats if stats is None else stats.merged_with(partial.stats)
        assert stats is not None
        return ExecutionResult(attributes=plan.attributes, rows=rows, stats=stats)

    def _execute(
        self,
        record: ResolvedQuery,
        head: tuple[Variable, ...] | None,
        entry: CachedPlan,
        *,
        cache_hit: bool,
        backend_name: str | None,
        started: float,
        params: Mapping[str, object] | None,
    ) -> Answer:
        """Run ``entry`` for one input; ``params`` are the caller's
        (validated) values for its declared parameters."""
        self._sync_serving()
        backend = self._backend(backend_name)
        if entry.found:
            plan = entry.plan
            assert plan is not None
            # The plan may be the shape's: it runs with the values lifted
            # out of this input next to the caller's.
            bindings = record.bindings
            if params:
                bindings = {**bindings, **params} if bindings else params
            # Codegen tier: only backends exposing execute_compiled can run
            # closures (SQLite executes SQL text, not Python), and the plan
            # must have warmed up and verified first.  The compiled path
            # never calls bind_plan — the closure resolves parameter values
            # from the bindings once per execution.
            runner = getattr(backend, "execute_compiled", None)
            compiled = None
            if self.codegen and runner is not None:
                compiled = entry.compiled
                if compiled is not None or entry.codegen_state != "pending":
                    # Warm path, lock-free: the entry already left the warmup
                    # phase (compiled or parked ineligible), so the counter no
                    # longer gates anything — a racy += is only a statistic.
                    entry.executions += 1
                else:
                    with self._codegen_lock:
                        entry.executions += 1
                        if (
                            entry.compiled is None
                            and entry.codegen_state == "pending"
                            and entry.executions > self.codegen_warmup
                        ):
                            self._compile_entry(
                                entry,
                                self._head_arity(record.query, head),
                                self._query_name(record.query),
                            )
                        compiled = entry.compiled
            literal: object
            if compiled is not None:
                result = runner(compiled, bindings)
                tier = "compiled"
                # Answer.plan binds on first read (memoised on the record).
                literal = record.view_of(entry) if record.bindings else plan
            else:
                # The bound plan that actually executes.
                literal = bind_plan(plan, bindings) if params else record.literal_plan(entry)
                result = self._execute_union_fanout(backend, literal)
                tier = "interpreted"
            answer = Answer(
                rows=result.rows,
                used_bounded_plan=True,
                plan=literal,
                planner=entry.planner,
                backend=backend.name,
                cache_hit=cache_hit,
                tuples_fetched=result.stats.tuples_fetched,
                tuples_scanned=0,
                view_tuples_scanned=result.stats.view_tuples_scanned,
                elapsed_seconds=time.perf_counter() - started,
                reason=entry.reason or f"bounded plan produced by planner {entry.planner!r}",
                execution_tier=tier,
                shards_touched=tuple(sorted(result.stats.shards_touched)),
                shards_total=self.shard_count,
            )
            self._observe_execution(record, head, entry, cache_hit, result.stats)
        else:
            bound = record.bound_query(params)
            if isinstance(bound, FOQuery):
                fo_head = (
                    head
                    if head is not None
                    else tuple(sorted(bound.free_variables, key=lambda v: v.name))
                )
                base = backend.execute_baseline_fo(bound, fo_head)
            else:
                base = backend.execute_baseline(bound)
            answer = Answer(
                rows=base.rows,
                used_bounded_plan=False,
                plan=None,
                planner=None,
                backend=backend.name,
                cache_hit=cache_hit,
                tuples_fetched=0,
                tuples_scanned=base.tuples_scanned,
                view_tuples_scanned=0,
                elapsed_seconds=time.perf_counter() - started,
                reason=record.spell(entry.reason) or "no bounded plan found",
            )
        self.stats.record(answer)
        return answer
