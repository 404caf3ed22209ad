"""The unified serving surface: :class:`QueryService`.

One object, one entry point.  ``QueryService.query`` accepts a CQ, a UCQ, an
FO query or a Datalog-style source string, resolves it once per distinct
input (parse, validation against the schema, canonical form — memoised, see
:mod:`.resolve`), plans it through a configurable planner chain (see
:mod:`.planners`), caches the planning outcome in an LRU plan cache keyed by
the query's canonical form (see :mod:`.cache`), executes
the plan on the in-memory backend (see :mod:`.backends`) and falls back to the
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

import time
from collections import Counter
from dataclasses import dataclass
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
)
from ...core.access import AccessSchema
from ...core.bounded_evaluability import bounded_evaluability_report
from ...core.conformance import conforms_to
from ...core.element_queries import ElementQueryBudget
from ...core.plan_eval import bind_plan, plan_parameters
from ...core.plans import PlanNode
from ...errors import (
    EvaluationError,
    PlanError,
    PlanStoreError,
    PlanVerificationError,
    QueryError,
    UnsupportedQueryError,
)
from ...exec.codegen import compile_plan_closure
from ...exec.cq_compiler import FactsSource, compile_cq
from ...storage.deltas import DeltaStream
from ...storage.indexes import IndexSet
from ...storage.instance import Database
from ...storage.snapshots import SnapshotManager
from ...storage.statistics import statistics_fingerprint
from ...storage.updates import Update, UpdateBatch
from ..optimizer import estimate_plan_fetches
from .backends import InMemoryBackend
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
        if isinstance(plan, (EntryView, _BindOnRead)):
            plan = answer.__dict__["plan"] = plan.plan
        return plan

    def __set__(self, answer: "Answer", plan: object) -> None:
        answer.__dict__["plan"] = plan


class _BindOnRead:
    """``Answer.plan`` of an execution with ``params=``: the executed plan
    with the caller's values (and any lifted ones) put in on first read."""

    __slots__ = ("_plan", "_bindings")

    def __init__(self, plan: PlanNode, bindings: Mapping[str, object]) -> None:
        self._plan = plan
        self._bindings = bindings

    @property
    def plan(self) -> PlanNode:
        return bind_plan(self._plan, dict(self._bindings))


@dataclass
class Answer:
    """Answer of :class:`QueryService.query` with full provenance.

    ``planner`` names the strategy that produced the plan (``None`` on the
    fallback path); ``cache_hit`` is true when planning was skipped — this
    query's *shape* was planned before (by this text or by one that differs
    only in liftable constants), or an already-planned
    :class:`PreparedQuery` ran; ``reason`` explains the outcome in either
    case — it is never silently empty.
    """

    rows: frozenset[tuple]
    used_bounded_plan: bool
    #: The literal, self-contained plan that answered (bound on first read).
    plan: _LazyPlan = _LazyPlan()
    planner: str | None
    #: Always ``"memory"``: ``bench/staged.py`` still sets it — goes with
    #: ROADMAP item 1 PR B.
    backend: str
    cache_hit: bool
    tuples_fetched: int
    tuples_scanned: int
    view_tuples_scanned: int
    elapsed_seconds: float
    reason: str = ""
    #: Which execution tier produced the rows: ``"compiled"`` for every
    #: answer (a bounded plan's codegen closure, or a CQ/UCQ fallback's
    #: admitted loop nest) except an FO fallback, which is
    #: ``"interpreted"`` (the active-domain evaluation).
    execution_tier: str = "interpreted"
    #: Always empty / zero: ``bench/staged.py`` still sets them — goes with
    #: ROADMAP item 1.
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
        entry = self.entry
        return self.record.literal_plan(entry) if entry.found else None

    @property
    def is_bounded(self) -> bool:
        return self.entry.found

    def execute(
        self,
        *,
        params: Mapping[str, object] | None = None,
        **kwargs: object,
    ) -> Answer:
        """Execute the prepared plan with values bound to its placeholders.

        Bindings are given as keyword arguments (``prepared.execute(studio=
        "Universal")``) or — for a parameter named ``params`` — through the
        explicit ``params`` mapping.  The two may be mixed but not overlap.
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
            started=time.perf_counter(),
            params=bindings or None,
        )


class QueryService:
    """One entry point for answering queries over a database with views.

    Construction materialises the views, builds the access-constraint indices
    and sets up the planner chain, the plan cache and the execution backend;
    afterwards :meth:`query`, :meth:`prepare` and :meth:`query_many` serve
    any mix of CQ/UCQ/FO/string queries, and :meth:`apply` is the matching
    write path: the service subscribes to the database's delta stream, so
    every committed transaction incrementally maintains the views (compiled
    delta plans) and refreshes the backend.  The plan cache is not part of
    the write path: whether a query has a bounded plan, and which one, is a
    function of the query, the access schema and the views — never of the
    data — and compiled closures late-bind snapshot and view cache per
    execution, so the read after a write is a compiled cache hit.
    A planning outcome leaves by LRU or by ``plan_cache.clear()`` (assigning
    :attr:`budget`), nothing else.  Plans are chosen once, from the exact
    column statistics at planning time, and never corrected afterwards: a
    bounded plan's ``Dξ`` is capped by its certificate, whatever ``|D|``.

    Every entry point (:meth:`query`, :meth:`prepare`, :meth:`explain`,
    :meth:`lint`, :meth:`baseline`, :meth:`plan`, :meth:`query_many`) takes
    its input through one memoised resolve stage first
    (:class:`~repro.engine.service.resolve.ResolveStage`): a repeated source
    string or held query object is parsed, validated and canonicalised once,
    and an input that does not fit the schema raises a typed error
    (:class:`~repro.errors.SchemaError` for a wrong arity,
    :class:`~repro.errors.QueryError` for an unknown relation or an unsafe
    head) instead of silently answering empty.

    Every found plan is admitted once, when its cache entry is made —
    fresh or restored from the plan store: it is verified
    (schema bookkeeping, access-constraint conformance, boundedness; see
    :func:`repro.analysis.codegen_eligibility`) and compiled into a
    closure, which serves it from the first execution on.  A plan the
    verifier refuses raises :class:`~repro.errors.PlanVerificationError`,
    one the compiler refuses :class:`~repro.errors.PlanError`.

    Parameters
    ----------
    planners:
        The fallback chain — planner names (``"heuristic"``, ``"exact"``,
        ``"topped"`` or anything registered via
        :func:`~repro.engine.service.planners.register_planner`) and/or
        ready strategy objects, tried in order.  Defaults to
        ``("heuristic", "topped")``.
    plan_cache_size:
        Capacity of the LRU plan cache; ``0`` disables plan caching.
    check_constraints:
        Refuse a database that violates the access schema (``D |= A`` is
        the paper's standing assumption).  The check reads the version-0
        snapshot indexes the service builds anyway — a key whose bucket
        holds more than ``N`` projections violates its constraint — so it
        costs one pass over the buckets, not over the data.  A refused
        database raises :class:`~repro.errors.EvaluationError` naming the
        first five violated groups, and keeps no snapshot manager of this
        service registered.  ``False`` skips only the check.
    plan_store:
        A :class:`~repro.engine.service.plan_store.PlanStore` (or a path
        string) persisting planning outcomes across restarts: loaded here —
        entries whose statistics fingerprint and planner-chain signature
        still match are admitted like fresh plans and replayed into the
        plan cache — and written back by :meth:`close`.  A corrupt store
        file is ignored (the typed :class:`~repro.errors.PlanStoreError` is
        recorded on ``plan_store_error``) and the service plans from
        scratch; a stored plan that fails admission is dropped, named on
        ``plan_store_error``, and planned afresh on first use.
    """

    # Unused by src/; bench/staged.py still reads it — goes with ROADMAP item 1.
    codegen_warmup = 0

    def __init__(
        self,
        database: Database,
        access_schema: AccessSchema,
        views: ViewSet | Sequence[View] = (),
        *,
        planners: Sequence[str | Planner] | None = None,
        plan_cache_size: int = 128,
        check_constraints: bool = True,
        budget: ElementQueryBudget | None = None,
        inner_size_cutoff: int = 2,
        plan_store: PlanStore | str | None = None,
    ) -> None:
        self.database = database
        self.access_schema = access_schema
        self.views = views if isinstance(views, ViewSet) else ViewSet(views)
        self._budget = budget
        self.inner_size_cutoff = inner_size_cutoff
        access_schema.validate(database.schema)
        # Every read is pinned to an immutable MVCC snapshot version
        # (repro.storage.snapshots), advanced by Database.apply and published
        # atomically, so a concurrent reader never observes a half-applied
        # transaction; the same versions are the write path's admissibility
        # surface (the only access-constraint index).
        self._snapshots: SnapshotManager = database.enable_snapshots(access_schema)
        if check_constraints:
            # D |= A, read off the version-0 index buckets just built.
            indexes = self._snapshots.current.indexes
            violations = [
                message
                for constraint in access_schema
                for message in constraint.violations_in(indexes[constraint].buckets)
            ]
            if violations:
                database.disable_snapshots(self._snapshots)
                raise EvaluationError(
                    "database does not satisfy the access schema: "
                    + "; ".join(violations[:5])
                )
        self._indexes = IndexSet(database, access_schema, self._snapshots)
        # The write path's delta programs are verified and compiled here,
        # when the views are materialised.
        self.maintainer = ViewMaintainer(self.views, database)
        self._view_cache = self.maintainer.snapshot()
        self.planners = resolve_planners(planners)
        # Warm-hit fast paths: the resolve stage memoises everything that
        # depends only on the input (see .resolve), and the default planner
        # chain's signature is computed once instead of per call.
        self._resolver = ResolveStage(database.schema, self.views)
        self._chain_signature: tuple[object, tuple[tuple, bool]] | None = None
        self.plan_cache = LRUPlanCache(plan_cache_size)
        self.stats = ServiceStats()
        self._backend = InMemoryBackend(
            database, access_schema, self._snapshots.reader(), self._view_cache
        )
        # Maintenance accounting of the most recent delta notification,
        # consumed by apply() to build its report.
        self._last_maintenance: tuple[MaintenanceStats, list[ViewDelta]] | None = None
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
        # and backend fresh.
        database.subscribe(self)

    # ------------------------------------------------------------------ #
    # State: views, indices, backend
    # ------------------------------------------------------------------ #

    @property
    def context(self) -> PlanningContext:
        """The planning context, rebuilt from the current settings on each read.

        ``budget`` and ``inner_size_cutoff`` stay live: mutating them affects
        the next planning run (matching the v1.0 engine, which read them per
        call) instead of being frozen at construction.  ``statistics`` reads
        the storage layer's cached per-relation statistics, so cost-based
        planner decisions track the current data.  That read is of the live
        ``Database``, not of a pinned snapshot: a concurrent write can shift
        an estimate (and so a plan or a join order), never a row — versioned
        statistics are ROADMAP item 17.
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

        The execution backend holds its own reference to these rows, so
        in-place mutation could silently serve stale results — the returned
        proxy therefore rejects item assignment.  The rows change only
        through writes (:meth:`apply` or any ``Database.apply``).
        """
        return MappingProxyType(self._view_cache)

    @property
    def indexes(self) -> IndexSet:
        """The access-constraint indices as a fetch provider over this
        service's snapshots (always the current version)."""
        return self._indexes

    @property
    def view_cache_size(self) -> int:
        """Total number of cached view tuples (|V(D)|)."""
        return sum(len(rows) for rows in self._view_cache.values())

    def _sync_serving(self) -> None:
        """Catch out-of-band mutations before serving from a snapshot.

        Writes through :meth:`Database.apply` advance the snapshot inside the
        transaction; direct ``Relation.add``/``discard`` calls bypass the
        delta stream, so the snapshot manager compares per-relation mutation
        counters and rebuilds the drifted relations here.  The check is two
        integer loads per relation on the (overwhelmingly common) clean path.
        """
        if self._snapshots.stale():
            self._backend.refresh(
                provider=self._snapshots.refresh(), view_cache=self._view_cache
            )

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
        skipped and counted in the report — the check reads only the
        snapshot index buckets the update touches plus the transaction's own
        staged changes, keeping ``D |= A`` with bounded work.  A malformed
        update (unknown relation, wrong arity) raises before anything is
        written.  The netted transaction then maintains, in order: each
        touched relation's rows and secondary indexes (one set-at-a-time
        delta per relation; column statistics fold it in on their next
        read); the snapshot, advanced from the staged overlay; and, via the
        committed
        :class:`~repro.storage.deltas.DeltaStream`, the materialised views
        (compiled delta plans — counting where sound, DRed otherwise) and
        the execution backend.  Cached plans and their compiled closures are
        data-independent and stay where they are.
        """
        # Admission reads the published version: heal an out-of-band write
        # into it first.
        self._sync_serving()
        self._last_maintenance = None
        stream = self.database.apply(
            batch, admit=self._snapshots.admits if enforce_admissible else None
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
        # Database.apply advanced the snapshot manager before notifying
        # observers, so reader() is already the post-transaction version.
        self._backend.refresh(
            provider=self._snapshots.reader(), view_cache=self._view_cache
        )
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
        entry = self._run_chain(planned, head, max_size, chain, record.bindings)
        if entry.plan is None and any(
            name in self.views for name in planned.relation_names
        ):
            raise QueryError(
                f"no bounded plan for {self._query_name(planned)!r}, which reads "
                "views, and the full-scan baseline cannot read views: "
                + entry.reason
            )
        if entry.plan is not None:
            self._admit(entry, record.query, head)
        elif isinstance(planned, (ConjunctiveQuery, UnionQuery)):
            # The fallback is admitted like a plan: its loop nest is compiled
            # once per shape, with every ``$k`` / ``:name`` slot bound and
            # read from the bindings on each execution.  The join order reads
            # the live sizes and statistics — estimates, never rows.
            entry.kernel = compile_cq(planned, FactsSource(self.database), slots=True)
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
        bindings: Mapping[str, object],
    ) -> CachedPlan:
        """Run the planner chain once and build the cache entry.

        The planning context — including the snapshot-consistent statistics
        read — is built once for the whole chain, so every planner (and the
        post-planning cardinality estimate below) prices the same data.
        ``bindings`` are the asking input's lifted values: the plan may be
        shared across constants, its *estimate* is priced for them.
        """
        context = self.context
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
            # Record the cost model's prediction next to the plan, for
            # explain() to show beside the IOMeter's actual Dξ.
            estimate = estimate_plan_fetches(
                entry.plan,
                context.statistics,
                context.schema,
                view_sizes={
                    name: len(rows) for name, rows in self._view_cache.items()
                },
                bindings=bindings,
            )
            entry.estimated_fetches = estimate.total_fetched
            entry.fetch_estimates = estimate.fetches
        return entry

    def _admit(
        self,
        entry: CachedPlan,
        resolved: Query | None,
        head: Sequence[Variable] | None,
    ) -> None:
        """Verify an entry's plan, then compile it — once, when the entry is
        made (fresh or restored; ``resolved`` is ``None`` for a restored
        plan, whose query is not kept).

        A refusal of :meth:`_verify` raises :class:`PlanVerificationError`;
        a plan the compiler rejects raises :class:`PlanError`.
        """
        plan = entry.plan
        assert plan is not None
        if resolved is None:
            subject, arity = f"stored plan {plan.label()}", len(plan.attributes)
        else:
            subject, arity = self._query_name(resolved), self._head_arity(resolved, head)
        self._verify(plan, arity, subject)
        entry.compiled = compile_plan_closure(plan, self.access_schema)

    def _verify(self, plan: PlanNode, arity: int | None, subject: str) -> None:
        """The admission gate every plan passes before it is compiled.

        The verifier is :func:`repro.analysis.codegen_eligibility`, the full
        :func:`~repro.analysis.verify_plan` discipline (views, access schema,
        boundedness within the service's budget, and the head arity when
        ``arity`` is given).  The closure compiler checks nothing more than
        that a fetch is covered and its attributes exist, so this is the one
        guard against a plan that does not conform; a refusal raises
        :class:`PlanVerificationError`.
        """
        report = codegen_eligibility(
            plan,
            self.database.schema,
            views=self.views,
            access_schema=self.access_schema,
            budget=self._budget,
            expected_arity=arity,
            subject=subject,
        )
        if not report.ok:
            raise PlanVerificationError(
                f"plan verification failed for {subject!r}: "
                + "; ".join(str(d) for d in report.errors),
                diagnostics=tuple(report.errors),
                query_name=subject,
            )

    # ------------------------------------------------------------------ #
    # Persistent plan store
    # ------------------------------------------------------------------ #

    def _load_plan_store(self) -> None:
        """Replay surviving stored outcomes into the plan cache at startup.

        The store itself rejects stale payloads (statistics fingerprint or
        chain-signature mismatch → no entries); a damaged file is recorded
        on :attr:`plan_store_error` and otherwise ignored — a cache must
        never stop the service from starting.  Every restored plan is
        admitted like a fresh one (closures are never persisted), so the
        first post-restart execution already runs compiled; a plan that
        fails admission is dropped and named on :attr:`plan_store_error`,
        and its query is planned afresh on first use.
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
        dropped: list[str] = []
        for record in stored:
            entry = CachedPlan(
                plan=record.plan,
                planner=record.planner,
                reason=record.reason,
                parameters=frozenset(record.parameters),
                executions=record.executions,
                estimated_fetches=record.estimated_fetches,
                fetch_estimates=tuple(record.fetch_estimates),
                order_report=record.order_report,
                restored=True,
            )
            try:
                if not isinstance(record.plan, PlanNode):
                    raise PlanError(f"stored entry holds no plan: {record.plan!r}")
                self._admit(entry, None, None)
            except PlanError as error:
                dropped.append(str(error))
                continue
            self.plan_cache.put(tuple(record.cache_key), entry)
        if dropped:
            self.plan_store_error = (
                f"dropped {len(dropped)} stored plan(s): " + "; ".join(dropped)
            )

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
                    estimated_fetches=entry.estimated_fetches,
                    fetch_estimates=tuple(entry.fetch_estimates),
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
        lints ride along either way.  No rows are read; planning reads the
        live statistics (see :attr:`context`), which affects estimates only.

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
                execution_tier="compiled" if entry.kernel is not None else "interpreted",
                executions=entry.executions,
                compile_seconds=(
                    entry.kernel.compile_seconds if entry.kernel is not None else None
                ),
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
        # Cost-model provenance, flattened to plain tuples: per relation,
        # its fetch operators' summed estimates beside the IOMeter's last
        # actual for the relation (the meter does not split a relation's
        # tuples by operator), and the cost-based orderer's
        # chosen-vs-rejected join orders.
        per_relation = entry.actual_per_relation or {}
        operators: dict[str, Counter[str]] = {}
        estimated: dict[str, float] = {}
        for fe in entry.fetch_estimates:
            operators.setdefault(fe.relation, Counter())[fe.access] += 1
            estimated[fe.relation] = estimated.get(fe.relation, 0.0) + fe.fetched
        operator_estimates = tuple(
            (
                " + ".join(
                    access if count == 1 else f"{access} ×{count}"
                    for access, count in accesses.items()
                ),
                estimated[relation],
                per_relation.get(relation),
            )
            for relation, accesses in operators.items()
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
            execution_tier="compiled",
            executions=entry.executions,
            compile_seconds=entry.compiled.compile_seconds,
            estimated_fetches=entry.estimated_fetches,
            actual_fetches=entry.actual_fetches,
            operator_estimates=operator_estimates,
            order_strategy=order_strategy,
            join_orders=join_orders,
            kernel_notes=entry.compiled.notes,
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
        """How one maintained view is kept fresh: strategy and execution tier
        (see :class:`~repro.engine.service.maintenance.MaintenanceExplanation`)."""
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
            started=started,
            params=params or None,
        )

    def prepare(
        self,
        query: QueryInput,
        *,
        head: Sequence[Variable] | None = None,
        max_size: int | None = None,
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
            planned_from_cache=hit,
        )

    def query_many(
        self,
        queries: Iterable[QueryInput],
        *,
        planners: Sequence[str | Planner] | None = None,
        use_cache: bool = True,
    ) -> list[Answer]:
        """Answer a batch of queries in order: :meth:`query` for each.

        All answers are folded into :attr:`stats`; per-query provenance is in
        the returned list.  The service is thread-safe, so callers wanting
        concurrency run :meth:`query` from their own threads; every read pins
        one snapshot version.
        """
        return [
            self.query(item, planners=planners, use_cache=use_cache)
            for item in queries
        ]

    def close(self) -> None:
        """Release serving resources; the service stays usable afterwards.

        Unsubscribes from the database's delta stream and deregisters its
        snapshot manager — after ``close()`` the service no longer maintains
        its views on foreign writes (nor charges them a snapshot advance), so
        treat it as retired.
        Usable as a context manager: ``with QueryService(...) as service:``.
        When a persistent plan store is configured, the plan cache is
        written back to it first (atomically), so the next service over the
        same (unchanged) data restarts warm.
        """
        self._save_plan_store()
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
        params: Mapping[str, object] | None = None,
    ):
        """Execute a (possibly hand-built) plan the way the service runs its
        own: admitted, compiled, and run on the pinned snapshot.

        Returns the backend's :class:`~repro.core.plan_eval.ExecutionResult`
        (rows, attributes, fetch statistics).  ``params`` binds any named
        :class:`Param` placeholders the plan contains; a plan with unbound
        parameters is rejected (it could only return wrong, empty results).
        The bound plan then passes the same gate as a cached plan
        (:meth:`_verify`, with no expected arity): a plan that does not
        conform to the access schema or the views raises
        :class:`PlanVerificationError` before any data is touched.  The
        closure is compiled per call; nothing is memoised.
        """
        if params:
            plan = bind_plan(plan, dict(params))
        unbound = plan_parameters(plan)
        if unbound:
            raise QueryError(f"plan has unbound parameters {sorted(unbound)}")
        self._verify(plan, None, f"hand-built plan {plan.label()}")
        self._sync_serving()
        return self._backend.execute_plan(plan)

    def baseline(self, query: QueryInput):
        """Answer a CQ/UCQ by full scan, bypassing planning entirely.

        Returns the backend's :class:`~repro.engine.baseline.BaselineResult`
        — the comparison point for the paper's scale-independence claims.
        It reads the snapshot a query would pin, never the live ``Database``.
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
        self._sync_serving()
        return self._backend.execute_baseline(resolved)

    # ------------------------------------------------------------------ #

    def _execute(
        self,
        record: ResolvedQuery,
        head: tuple[Variable, ...] | None,
        entry: CachedPlan,
        *,
        cache_hit: bool,
        started: float,
        params: Mapping[str, object] | None,
    ) -> Answer:
        """Run ``entry`` for one input; ``params`` are the caller's
        (validated) values for its declared parameters."""
        self._sync_serving()
        backend = self._backend
        if entry.found:
            plan = entry.plan
            assert plan is not None
            # The plan may be the shape's: it runs with the values lifted
            # out of this input next to the caller's.
            bindings = record.bindings
            if params:
                bindings = {**bindings, **params} if bindings else params
            # The admitted closure never calls bind_plan — it resolves
            # parameter values from the bindings once per execution.  The
            # counter is only a statistic, so a racy += is fine.
            entry.executions += 1
            result = backend.execute_compiled(entry.compiled, bindings)
            answer = Answer(
                rows=result.rows,
                used_bounded_plan=True,
                # Answer.plan binds on first read (memoised on the record when
                # only lifted values go in).
                plan=(
                    _BindOnRead(plan, bindings)
                    if params
                    else record.view_of(entry) if record.bindings else plan
                ),
                planner=entry.planner,
                backend=backend.name,
                cache_hit=cache_hit,
                tuples_fetched=result.stats.tuples_fetched,
                tuples_scanned=0,
                view_tuples_scanned=result.stats.view_tuples_scanned,
                elapsed_seconds=time.perf_counter() - started,
                reason=entry.reason or f"bounded plan produced by planner {entry.planner!r}",
                execution_tier="compiled",
            )
            # The IOMeter's actuals, for explain() to show beside the
            # plan-time estimate.
            entry.actual_fetches = result.stats.tuples_fetched
            entry.actual_per_relation = result.stats.per_relation
        else:
            kernel = entry.kernel
            if kernel is not None:
                # The admitted loop nest over the pinned snapshot; slot values
                # come from the bindings, like a compiled plan's.
                bindings = record.bindings
                if params:
                    bindings = {**bindings, **params} if bindings else params
                entry.executions += 1
                base = backend.execute_fallback(kernel, bindings)
                tier = "compiled"
            else:
                bound = record.bound_query(params)
                assert isinstance(bound, FOQuery)
                fo_head = (
                    head
                    if head is not None
                    else tuple(sorted(bound.free_variables, key=lambda v: v.name))
                )
                base = backend.execute_baseline_fo(bound, fo_head)
                tier = "interpreted"
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
                execution_tier=tier,
            )
        self.stats.record(answer)
        return answer
