"""The maintenance kernel: materialised views kept fresh by delta streams.

:class:`ViewMaintainer` owns the materialised rows of a
:class:`~repro.algebra.views.ViewSet` and updates them from the netted
:class:`~repro.storage.deltas.DeltaStream` of each committed transaction.
Every CQ/UCQ view is compiled **once**, when it is materialised
(:mod:`repro.exec.delta_compiler`): into per-relation delta rules, which
are statically verified and then generated into nested-loop kernels; at
maintenance time only the lookups are resolved, against one of three
relation states:

* *live* — the post-transaction database (its maintained secondary indexes);
* *pre-transaction* — live minus the net insertions plus the net deletions
  of a changed relation.  Counting maintenance processes the changed
  relations in first-touch order and evaluates not-yet-processed relations
  in their pre-transaction state (the classic telescoping sum
  ``ΔQ = Σ_k Q(R₁ⁿᵉʷ … ΔR_k … R_nᵒˡᵈ)``), which makes multi-relation batches
  exact — no derivation is counted twice or missed;
* *augmented* — live plus the net deletions, the superset DRed uses to
  enumerate every derivation that may have died.

Strategies per view (see :func:`repro.exec.delta_compiler.counting_eligible`):

* ``counting`` — single-CQ views without self-joins keep a
  ``row → derivation count`` multiset; a deletion decrements counts and a
  row leaves the view exactly when its count reaches zero.  No re-derivation
  at all on the common path.
* ``dred`` — self-joins and UCQ views: insertions add the rows derivable
  through the inserted tuples, deletions over-delete candidates
  (semi-joined against the cached rows) and re-derive survivors through the
  generated support probe.
* ``recompute`` — FO views (negation, universal quantification) are
  re-evaluated when a relation they mention changes; deltas of FO views are
  not bounded in general.

:class:`MaintenanceStats`, :class:`ViewDelta` and :class:`MaintenanceReport`
are the accounting surface :meth:`QueryService.apply` reports through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ...algebra.evaluation import evaluate_ucq
from ...algebra.fo import evaluate_fo
from ...algebra.terms import Variable
from ...algebra.views import View, ViewSet
from ...analysis import delta_codegen_eligibility
from ...errors import DeltaCompilationError, SchemaError
from ...exec.cq_compiler import FactsSource, compile_cq
from ...exec.delta_compiler import (
    CompiledViewDelta,
    LookupResolver,
    MaintenanceKernels,
    compile_maintenance,
    compile_view_delta,
    metered_resolver,
)
from ...exec.iometer import IOMeter
from ...storage.deltas import DeltaStream
from ...storage.instance import Database


@dataclass
class ViewDelta:
    """Rows added to / removed from one view by a transaction."""

    view: str
    added: frozenset[tuple] = frozenset()
    removed: frozenset[tuple] = frozenset()

    @property
    def is_empty(self) -> bool:
        return not self.added and not self.removed


@dataclass
class MaintenanceStats:
    """Work accounting of one maintenance run (or a merged sequence of runs).

    ``delta_queries`` counts delta-kernel executions, ``support_checks`` the
    per-row re-derivation probes of the DRed fallback; both stay small when
    the views are selective — the quantity bounded view maintenance is
    about.  Counting-mode deletions never re-derive, so a counting view
    contributes zero support checks.
    """

    updates: int = 0
    delta_queries: int = 0
    support_checks: int = 0
    rows_added: int = 0
    rows_removed: int = 0
    #: Maintenance-tier tally per *touched* view per run: ``"compiled"``
    #: (generated kernels) or ``"recompute"`` (FO views).  Untouched views
    #: count nowhere.
    tier_runs: dict[str, int] = field(default_factory=dict)

    def merged_with(self, other: "MaintenanceStats") -> "MaintenanceStats":
        merged_tiers = dict(self.tier_runs)
        for tier, count in other.tier_runs.items():
            merged_tiers[tier] = merged_tiers.get(tier, 0) + count
        return MaintenanceStats(
            updates=self.updates + other.updates,
            delta_queries=self.delta_queries + other.delta_queries,
            support_checks=self.support_checks + other.support_checks,
            rows_added=self.rows_added + other.rows_added,
            rows_removed=self.rows_removed + other.rows_removed,
            tier_runs=merged_tiers,
        )


@dataclass
class MaintenanceReport:
    """Outcome of applying one batch through the first-class write path."""

    applied: int
    skipped_inadmissible: int
    inserted: int
    deleted: int
    stats: MaintenanceStats
    view_deltas: list[ViewDelta] = field(default_factory=list)


@dataclass
class MaintenanceExplanation:
    """How one view is maintained (the write-side ``explain``).

    ``mode`` is ``"counting"``, ``"dred"`` or ``"recompute"``; ``tier`` is
    ``"compiled"`` (generated kernels) for CQ/UCQ views and ``"recompute"``
    for FO views.
    """

    view: str
    mode: str
    tier: str


# --------------------------------------------------------------------------- #
# Lookup resolvers over the three relation states
# --------------------------------------------------------------------------- #


def _index_rows_by_key(
    rows: Sequence[tuple], positions: tuple[int, ...]
) -> dict[tuple, list[tuple]]:
    index: dict[tuple, list[tuple]] = {}
    for row in rows:
        index.setdefault(tuple(row[p] for p in positions), []).append(row)
    return index


class _StateResolvers:
    """Lookup resolvers for one delta stream over one facts source.

    With a ``meter``, every resolver is wrapped by
    :func:`~repro.exec.delta_compiler.metered_resolver`, the single charging
    boundary of the delta kernels.  Without one (the default on the write
    hot path), the resolvers are returned unwrapped and metering costs
    nothing.
    """

    def __init__(
        self,
        source: FactsSource,
        stream: DeltaStream,
        meter: IOMeter | None = None,
    ) -> None:
        self._source = source
        self._stream = stream
        self._changed = stream.touched
        self._meter = meter

    def _metered(self, resolve: LookupResolver) -> LookupResolver:
        if self._meter is None:
            return resolve
        return metered_resolver(resolve, self._meter)

    def live(self) -> LookupResolver:
        return self._metered(self._source.lookup)

    def pre_transaction(self, unprocessed: frozenset[str]) -> LookupResolver:
        """Changed relations in ``unprocessed`` are served pre-state."""
        source, stream = self._source, self._stream
        rewind = self._changed & unprocessed
        if not rewind:
            return self._metered(source.lookup)

        def resolve(relation: str, positions: tuple[int, ...], arity: int):
            live = source.lookup(relation, positions, arity)
            if relation not in rewind:
                return live
            inserted = set(stream.inserted(relation))
            deleted = _index_rows_by_key(stream.deleted(relation), positions)

            def lookup(key: tuple) -> list[tuple]:
                rows = [row for row in live(key) if row not in inserted]
                rows.extend(deleted.get(key, ()))
                return rows

            return lookup

        return self._metered(resolve)

    def augmented(self) -> LookupResolver:
        """Every changed relation serves live rows plus its net deletions."""
        source, stream = self._source, self._stream
        with_deletions = frozenset(
            name for name in self._changed if stream.deleted(name)
        )
        if not with_deletions:
            return self._metered(source.lookup)

        def resolve(relation: str, positions: tuple[int, ...], arity: int):
            live = source.lookup(relation, positions, arity)
            if relation not in with_deletions:
                return live
            deleted = _index_rows_by_key(stream.deleted(relation), positions)

            def lookup(key: tuple) -> list[tuple]:
                rows = list(live(key))
                rows.extend(deleted.get(key, ()))
                return rows

            return lookup

        return self._metered(resolve)


# --------------------------------------------------------------------------- #
# The maintainer
# --------------------------------------------------------------------------- #


class ViewMaintainer:
    """Materialised view rows maintained from committed delta streams.

    Construction compiles and materialises every view (counting views with
    derivation counts); :meth:`apply_stream` folds in the net changes of one
    transaction.
    """

    def __init__(
        self,
        views: ViewSet | Sequence[View],
        database: Database,
        *,
        subscribe: bool = False,
        # Unused by src/; bench/staged.py still passes it — goes with ROADMAP item 1.
        codegen_warmup: int = 0,
    ) -> None:
        """With ``subscribe=True`` the maintainer registers itself on the
        database's delta stream and follows every committed transaction on
        its own.  :class:`~repro.engine.service.QueryService` leaves it
        ``False`` and drives :meth:`apply_stream` from its own subscription,
        so one notification updates views, plan cache and backends in order.

        Counting maintenance is exact only when every delivered stream
        reflects *effective* changes — guaranteed for streams built by
        :meth:`Database.apply`; do not hand-build streams claiming changes
        that did not happen.

        Each CQ/UCQ view's delta program is compiled here, statically
        verified (:func:`repro.analysis.delta_codegen_eligibility`) and
        generated into nested-loop kernels
        (:func:`repro.exec.delta_compiler.compile_maintenance`) that every
        touching stream runs on.  A view failing any of these steps raises
        :class:`~repro.errors.DeltaCompilationError` naming it.
        """
        self.views = views if isinstance(views, ViewSet) else ViewSet(views)
        self.database = database
        self._source = FactsSource(database)
        self._modes: dict[str, str] = {}
        self._rows: dict[str, set[tuple]] = {}
        self._counts: dict[str, dict[tuple, int]] = {}
        self._frozen: dict[str, frozenset[tuple] | None] = {}
        self._compiled: dict[str, CompiledViewDelta] = {}
        self._kernels: dict[str, MaintenanceKernels] = {}
        self._fo_relations: dict[str, frozenset[str]] = {}
        for view in self.views:
            self._materialise(view)
        if subscribe:
            database.subscribe(self)

    def on_delta(self, stream: DeltaStream) -> None:
        """Delta-observer hook (active when constructed with ``subscribe=True``)."""
        self.apply_stream(stream)

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #

    def _materialise(self, view: View) -> None:
        name = view.name
        if view.language in ("CQ", "UCQ"):
            disjuncts = tuple(d.normalize() for d in view.as_ucq().disjuncts)
            compiled = self._compile(name, disjuncts)
            self._modes[name] = compiled.mode
            if compiled.counting:
                counts = self._count_derivations(disjuncts[0])
                self._counts[name] = counts
                self._rows[name] = set(counts)
            else:
                self._rows[name] = set(evaluate_ucq(view.as_ucq(), self.database))
        else:
            self._modes[name] = "recompute"
            self._fo_relations[name] = view.definition.relation_names
            self._rows[name] = set(self._evaluate_fo(view))
        self._frozen[name] = None

    def _compile(self, name: str, disjuncts: tuple) -> CompiledViewDelta:
        """Compile, verify and generate one view's delta program."""
        compiled = compile_view_delta(name, disjuncts)
        report = delta_codegen_eligibility(compiled, self.database.schema)
        if not report.ok:
            first = report.errors[0]
            raise DeltaCompilationError(
                f"view {name!r}: delta program failed verification: "
                f"{first.code}: {first.message}",
                view_name=name,
            )
        self._compiled[name] = compiled
        self._kernels[name] = compile_maintenance(compiled)
        return compiled

    def _count_derivations(self, disjunct) -> dict[tuple, int]:
        """``head row → number of body valuations`` for one normalised CQ:
        the loop-nest kernel in counting mode."""
        source = self._source
        return compile_cq(disjunct, source, counting=True).count(source)

    def _evaluate_fo(self, view: View) -> frozenset[tuple]:
        head = [t for t in view.head if isinstance(t, Variable)]
        return frozenset(evaluate_fo(view.as_fo(), self.database.facts, head))

    def explain(self, view_name: str) -> MaintenanceExplanation:
        """The maintenance strategy and execution tier of one view."""
        name = self._known(view_name)
        mode = self._modes[name]
        tier = "recompute" if mode == "recompute" else "compiled"
        return MaintenanceExplanation(view=name, mode=mode, tier=tier)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def _known(self, view_name: str) -> str:
        if view_name not in self._rows:
            raise SchemaError(
                f"maintainer has no view named {view_name!r}; maintained views "
                f"are {sorted(self._rows)}"
            )
        return view_name

    def mode(self, view_name: str) -> str:
        """``"counting"``, ``"dred"`` or ``"recompute"`` for one view."""
        return self._modes[self._known(view_name)]

    @property
    def modes(self) -> Mapping[str, str]:
        return dict(self._modes)

    def rows(self, view_name: str) -> frozenset[tuple]:
        frozen = self._frozen[self._known(view_name)]
        if frozen is None:
            frozen = frozenset(self._rows[view_name])
            self._frozen[view_name] = frozen
        return frozen

    def counts(self, view_name: str) -> Mapping[tuple, int]:
        """Derivation counts of a counting-mode view (read-only)."""
        if self.mode(view_name) != "counting":
            raise SchemaError(
                f"view {view_name!r} is maintained in "
                f"{self._modes[view_name]!r} mode and keeps no derivation counts"
            )
        return dict(self._counts[view_name])

    def compiled_delta(self, view_name: str) -> CompiledViewDelta:
        """The compiled delta program of one CQ/UCQ view.

        The static checker :func:`repro.analysis.verify_delta_program`
        consumes this.  FO views are maintained by recomputation and have no
        delta program — asking for one raises :class:`SchemaError`.
        """
        if self.mode(view_name) == "recompute":
            raise SchemaError(
                f"view {view_name!r} is an FO view maintained by recomputation; "
                "it has no compiled delta program"
            )
        return self._compiled[view_name]

    def snapshot(self) -> dict[str, frozenset[tuple]]:
        """The cache in the shape expected by the plan executor/backends.

        Per-view frozen sets are cached and invalidated per transaction, so
        a snapshot after a batch that touched one view re-freezes one view.
        """
        return {name: self.rows(name) for name in self._rows}

    @property
    def total_rows(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def apply_stream(
        self,
        stream: DeltaStream,
        stats: MaintenanceStats | None = None,
        *,
        meter: IOMeter | None = None,
    ) -> list[ViewDelta]:
        """Fold one committed transaction into every maintained view.

        Must be called *after* the stream's changes reached the database
        (the delta rules read the post-state through the live lookups and
        reconstruct pre-state views from the stream where the telescoping
        requires it).  Returns the per-view row changes, skipping views the
        transaction does not affect.

        With a ``meter``, every delta-kernel and support probe charges its
        returned rows as ``Dξ`` fetches (see
        :func:`repro.exec.delta_compiler.metered_resolver`).
        """
        stats = stats if stats is not None else MaintenanceStats()
        stats.updates += stream.applied
        if stream.is_empty:
            return []
        resolvers = _StateResolvers(self._source, stream, meter)
        touched = stream.touched
        tier_runs = stats.tier_runs
        deltas: list[ViewDelta] = []
        for view in self.views:
            mode = self._modes[view.name]
            if mode == "recompute":
                if touched & self._fo_relations[view.name]:
                    delta = self._recompute_fo(view)
                    tier_runs["recompute"] = tier_runs.get("recompute", 0) + 1
                else:
                    delta = ViewDelta(view=view.name)
            elif not (touched & self._compiled[view.name].relations):
                delta = ViewDelta(view=view.name)
            else:
                kernels = self._kernels[view.name]
                tier_runs["compiled"] = tier_runs.get("compiled", 0) + 1
                if mode == "counting":
                    delta = self._apply_counting(view.name, kernels, stream, resolvers, stats)
                else:
                    delta = self._apply_dred(view.name, kernels, stream, resolvers, stats)
            if not delta.is_empty:
                self._frozen[view.name] = None
                deltas.append(delta)
            stats.rows_added += len(delta.added)
            stats.rows_removed += len(delta.removed)
        return deltas

    def _apply_counting(
        self,
        name: str,
        kernels: MaintenanceKernels,
        stream: DeltaStream,
        resolvers: _StateResolvers,
        stats: MaintenanceStats,
    ) -> ViewDelta:
        (disjunct,) = kernels.disjuncts
        relations = stream.relations
        delta_counts: dict[tuple, int] = {}
        for index, relation in enumerate(relations):
            rules = disjunct.rules.get(relation)
            if not rules:
                continue
            # Telescoping: changed relations after this one are evaluated in
            # their pre-transaction state, everything else live (post-state).
            resolve = resolvers.pre_transaction(frozenset(relations[index + 1 :]))
            inserted = stream.inserted(relation)
            deleted = stream.deleted(relation)
            for rule in rules:
                if inserted:
                    stats.delta_queries += 1
                    rule.count(inserted, resolve, delta_counts, 1)
                if deleted:
                    stats.delta_queries += 1
                    rule.count(deleted, resolve, delta_counts, -1)
        if not delta_counts:
            return ViewDelta(view=name)
        counts = self._counts[name]
        current = self._rows[name]
        added: set[tuple] = set()
        removed: set[tuple] = set()
        for row, delta in delta_counts.items():
            if not delta:
                continue
            updated = counts.get(row, 0) + delta
            if updated > 0:
                counts[row] = updated
                if row not in current:
                    current.add(row)
                    added.add(row)
            else:
                # A correct telescoped delta never drives a count negative;
                # clamping keeps the row set consistent regardless.
                counts.pop(row, None)
                if row in current:
                    current.discard(row)
                    removed.add(row)
        return ViewDelta(view=name, added=frozenset(added), removed=frozenset(removed))

    def _apply_dred(
        self,
        name: str,
        kernels: MaintenanceKernels,
        stream: DeltaStream,
        resolvers: _StateResolvers,
        stats: MaintenanceStats,
    ) -> ViewDelta:
        current = self._rows[name]
        live = resolvers.live()
        augmented = resolvers.augmented()

        # Insertion rules run against the post-state: every valuation they
        # produce is a real derivation, and set insertion is idempotent.
        added: set[tuple] = set()
        # Deletion rules run against the live-plus-deleted superset, so every
        # derivation that may have died yields its head row as a candidate.
        affected: set[tuple] = set()
        for relation in stream.relations:
            inserted = stream.inserted(relation)
            deleted = stream.deleted(relation)
            for disjunct in kernels.disjuncts:
                for rule in disjunct.rules.get(relation, ()):
                    if inserted:
                        stats.delta_queries += 1
                        rule.insert(inserted, live, current, added)
                    if deleted:
                        stats.delta_queries += 1
                        # An empty view has no candidates: probe nothing.
                        if current:
                            rule.affected(deleted, augmented, current, affected)
        current.update(added)

        removed: set[tuple] = set()
        for row in affected:
            if row in added:
                continue  # freshly derived from the post-state: supported
            stats.support_checks += 1
            if not any(disjunct.supported(row, live) for disjunct in kernels.disjuncts):
                removed.add(row)
        current.difference_update(removed)
        return ViewDelta(view=name, added=frozenset(added), removed=frozenset(removed))

    def _recompute_fo(self, view: View) -> ViewDelta:
        fresh = self._evaluate_fo(view)
        current = self._rows[view.name]
        added = frozenset(fresh - current)
        removed = frozenset(current - fresh)
        self._rows[view.name] = set(fresh)
        return ViewDelta(view=view.name, added=added, removed=removed)

    # ------------------------------------------------------------------ #
    # Verification: the reference the delta kernels are checked against
    # ------------------------------------------------------------------ #

    def recompute(self) -> dict[str, frozenset[tuple]]:
        """Recompute every view from scratch (the reference and the
        benchmark baseline)."""
        fresh: dict[str, frozenset[tuple]] = {}
        for view in self.views:
            if view.language in ("CQ", "UCQ"):
                fresh[view.name] = frozenset(evaluate_ucq(view.as_ucq(), self.database))
            else:
                fresh[view.name] = self._evaluate_fo(view)
        return fresh

    def verify(self) -> bool:
        """Maintained rows — and counting-mode derivation counts — must match
        a from-scratch recomputation."""
        for name, rows in self.recompute().items():
            if frozenset(self._rows[name]) != rows:
                return False
        for view in self.views:
            if self._modes[view.name] != "counting":
                continue
            disjuncts = tuple(d.normalize() for d in view.as_ucq().disjuncts)
            if self._count_derivations(disjuncts[0]) != self._counts[view.name]:
                return False
        return True
