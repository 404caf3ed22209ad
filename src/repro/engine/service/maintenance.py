"""The maintenance kernel: materialised views kept fresh by delta streams.

:class:`ViewMaintainer` owns the materialised rows of a
:class:`~repro.algebra.views.ViewSet` and updates them from the netted
:class:`~repro.storage.deltas.DeltaStream` of each committed transaction.
Every CQ/UCQ view is compiled **once**, when it is materialised:
:mod:`repro.exec.delta_compiler` rewrites each disjunct into one delta rule
per body atom and one support check — plain conjunctive queries — which are
statically verified and compiled by :func:`repro.exec.cq_compiler.compile_cq`
like any query, the Δ or seed atom pinned as the outermost loop.  At
maintenance time a nest runs against one of three relation states, each a
:class:`~repro.exec.cq_compiler.FactsSource` over the database and the
stream:

* *live* — the post-transaction database (its maintained secondary indexes);
* *pre-transaction* — live minus the net insertions plus the net deletions
  of a changed relation, rewound per probed key.  Counting maintenance
  processes the changed relations in first-touch order and evaluates
  not-yet-processed relations in their pre-transaction state (the classic
  telescoping sum ``ΔQ = Σ_k Q(R₁ⁿᵉʷ … ΔR_k … R_nᵒˡᵈ)``), which makes
  multi-relation batches exact — no derivation is counted twice or missed;
* *augmented* — live plus the net deletions, the superset DRed uses to
  enumerate every derivation that may have died.

Strategies per view (see :func:`repro.exec.delta_compiler.counting_eligible`):

* ``counting`` — single-CQ views without self-joins keep a
  ``row → derivation count`` multiset; a deletion decrements counts and a
  row leaves the view exactly when its count reaches zero.  No re-derivation
  at all on the common path.
* ``dred`` — self-joins and UCQ views: insertions add the rows derivable
  through the inserted tuples, deletions over-delete candidates
  (intersected with the cached rows) and re-derive survivors through the
  support check, one run over all candidates per disjunct.
* ``recompute`` — FO views (negation, universal quantification) are
  re-evaluated when a relation they mention changes; deltas of FO views are
  not bounded in general.

:class:`MaintenanceStats`, :class:`ViewDelta` and :class:`MaintenanceReport`
are the accounting surface :meth:`QueryService.apply` reports through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Collection, Iterator, Mapping, Sequence, cast

from ...algebra.evaluation import evaluate_ucq
from ...algebra.fo import evaluate_fo
from ...algebra.rows import group_rows
from ...algebra.terms import Variable
from ...algebra.views import View, ViewSet
from ...analysis import delta_codegen_eligibility
from ...errors import DeltaCompilationError, SchemaError
from ...exec.cq_compiler import CQKernel, FactsSource, compile_cq
from ...exec.delta_compiler import (
    SEED_RELATION,
    CompiledViewDelta,
    compile_view_delta,
    delta_relation,
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

    ``delta_queries`` counts delta-rule runs, ``support_checks`` the
    candidate rows the DRed fallback re-derives; both stay small when
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
    #: (compiled loop nests) or ``"recompute"`` (FO views).  Untouched views
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
    ``"compiled"`` (compiled loop nests) for CQ/UCQ views and ``"recompute"``
    for FO views.
    """

    view: str
    mode: str
    tier: str


# --------------------------------------------------------------------------- #
# The three relation states, as facts sources for the maintenance nests
# --------------------------------------------------------------------------- #


#: Charges a read of a stored relation to the meter: the rows it returned.
_Charge = Callable[[int], None]


def _index_rows_by_key(
    rows: Sequence[tuple], positions: tuple[int, ...]
) -> dict[tuple, list[tuple]]:
    """A transaction's deleted rows of one relation, hashed on
    ``positions`` — built once per committed stream and key positions."""
    return group_rows(rows, positions)


class _RewoundIndex(Mapping[tuple, Sequence[tuple]]):
    """One secondary index of a relation state, rewound per probed key: the
    live rows minus ``hidden`` (net insertions) plus ``extra`` (net
    deletions, by key) — never a copy of the relation.  With ``charge``,
    every ``get`` and membership test charges the key's rows as a fetch."""

    __slots__ = ("_live", "_hidden", "_extra", "_charge")

    def __init__(
        self,
        live: Mapping[tuple, Sequence[tuple]],
        hidden: Collection[tuple],
        extra: Mapping[tuple, Sequence[tuple]],
        charge: _Charge | None,
    ) -> None:
        self._live = live
        self._hidden = hidden
        self._extra = extra
        self._charge = charge

    def get(self, key: tuple, default: Any = None) -> Any:
        rows = self._live.get(key, ())
        if self._hidden:
            rows = [row for row in rows if row not in self._hidden]
        extra = self._extra.get(key)
        if extra:
            rows = [*rows, *extra]
        if self._charge is not None:
            self._charge(len(rows))
        return rows if rows else default

    def __contains__(self, key: object) -> bool:
        return bool(self.get(cast(tuple, key)))

    def __getitem__(self, key: tuple) -> Sequence[tuple]:
        rows = self.get(key)
        if rows is None:
            raise KeyError(key)
        return cast(Sequence[tuple], rows)

    def __iter__(self) -> Iterator[tuple]:
        hidden, extra = self._hidden, self._extra
        for key, rows in self._live.items():
            if key in extra or any(row not in hidden for row in rows):
                yield key
        yield from (key for key in extra if key not in self._live)

    def __len__(self) -> int:
        return sum(1 for _ in self)


class _RewoundRows(Collection[tuple]):
    """A scanned relation state: live rows minus ``hidden`` plus ``extra``.
    With ``charge``, each scan and each emptiness test charges every row."""

    __slots__ = ("_live", "_hidden", "_extra", "_charge")

    def __init__(
        self,
        live: Collection[tuple],
        hidden: Collection[tuple],
        extra: Collection[tuple],
        charge: _Charge | None,
    ) -> None:
        self._live = live
        self._hidden = hidden
        self._extra = extra
        self._charge = charge

    def __len__(self) -> int:
        # Net insertions are live rows, net deletions are not.
        return len(self._live) - len(self._hidden) + len(self._extra)

    def __bool__(self) -> bool:
        size = len(self)
        if self._charge is not None:
            self._charge(size)
        return size > 0

    def __iter__(self) -> Iterator[tuple]:
        if self._charge is not None:
            self._charge(len(self))
        hidden = self._hidden
        yield from (row for row in self._live if row not in hidden)
        yield from self._extra

    def __contains__(self, row: object) -> bool:
        return row in self._extra or (row in self._live and row not in self._hidden)


class _States:
    """The relation states of one committed transaction.

    Each state is a :class:`_State` facts source over the database and the
    stream; the rewind sets are built once per stream and shared, since
    every nest of every view probes the same few (relation, positions)
    pairs.  With a ``meter``, every state charges what its nests read of the
    stored relations (see :class:`_State`); without one — the write hot
    path — live reads go straight to the relations' indexes.
    """

    def __init__(
        self, database: Database, stream: DeltaStream, meter: IOMeter | None
    ) -> None:
        self.database = database
        self.stream = stream
        self.meter = meter
        self._inserted: dict[str, frozenset[tuple]] = {}
        self._deleted: dict[tuple[str, tuple[int, ...]], dict[tuple, list[tuple]]] = {}

    def inserted(self, relation: str) -> frozenset[tuple]:
        rows = self._inserted.get(relation)
        if rows is None:
            rows = self._inserted[relation] = frozenset(self.stream.inserted(relation))
        return rows

    def deleted(
        self, relation: str, positions: tuple[int, ...]
    ) -> dict[tuple, list[tuple]]:
        index = self._deleted.get((relation, positions))
        if index is None:
            index = self._deleted[(relation, positions)] = _index_rows_by_key(
                self.stream.deleted(relation), positions
            )
        return index

    def live(self) -> "_State":
        return _State(self, frozenset(), hide_inserted=False)

    def pre_transaction(self, unprocessed: frozenset[str]) -> "_State":
        """Changed relations in ``unprocessed`` are served pre-state."""
        return _State(self, self.stream.touched & unprocessed, hide_inserted=True)

    def augmented(self) -> "_State":
        """Every changed relation serves live rows plus its net deletions."""
        return _State(self, self.stream.touched, hide_inserted=False)


class _State(FactsSource):
    """One relation state as a facts source: live rows, except that each
    relation in ``rewound`` also serves its net deletions and, with
    ``hide_inserted``, hides its net insertions.

    The rows in hand — a delta rule's net delta rows, a support check's
    candidate head rows — are served under their Δ name (:meth:`serve`)
    and charged nothing.  With the stream's meter, every probe, membership
    test and scan of a stored relation charges the rows it returns as a
    ``Dξ`` fetch.
    """

    def __init__(
        self,
        states: _States,
        rewound: frozenset[str],
        *,
        hide_inserted: bool,
    ) -> None:
        super().__init__(states.database)
        self._states = states
        self._rewound = rewound
        self._hide_inserted = hide_inserted
        self._given_name: str | None = None
        self._given: Collection[tuple] = ()

    def serve(self, name: str, rows: Collection[tuple]) -> "_State":
        """Serve ``rows`` as relation ``name`` — in place of the rows served
        before — and return this state (the nests of one view run one after
        another, so a state is reused rather than copied per run).  Only a
        nest's pinned outermost atom reads them, and ``compile_cq`` scans
        that atom."""
        self._given_name = name
        self._given = rows
        return self

    def _rewind(
        self, name: str, positions: tuple[int, ...]
    ) -> tuple[Collection[tuple], Mapping[tuple, list[tuple]], _Charge | None]:
        """What ``name`` hides and adds in this state, probed on
        ``positions``, and what charges its reads (``None``: unmetered)."""
        meter = self._states.meter
        charge = partial(meter.record_fetch, name) if meter is not None else None
        if name not in self._rewound:
            return (), {}, charge
        hidden = self._states.inserted(name) if self._hide_inserted else ()
        return hidden, self._states.deleted(name, positions), charge

    def index(
        self, name: str, positions: Sequence[int], arity: int
    ) -> Mapping[tuple, Sequence[tuple]]:
        live = super().index(name, positions, arity)
        if name not in self._rewound and self._states.meter is None:
            return live
        hidden, extra, charge = self._rewind(name, tuple(positions))
        if not extra and not hidden and charge is None:
            return live
        return _RewoundIndex(live, hidden, extra, charge)

    def scan(self, name: str, arity: int) -> Collection[tuple]:
        if name == self._given_name:
            return self._given
        # The relation's maintained key-less index, not a frozen copy.
        live = super().index(name, (), arity).get((), ())
        hidden, extra, charge = self._rewind(name, ())
        if not extra and not hidden and charge is None:
            return live
        return _RewoundRows(live, hidden, extra.get((), ()), charge)


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

        Each CQ/UCQ view's delta program is rewritten here, statically
        verified (:func:`repro.analysis.delta_codegen_eligibility`) and
        compiled into loop nests (:func:`repro.exec.cq_compiler.compile_cq`)
        that every touching stream runs.  A view failing any of these steps
        raises :class:`~repro.errors.DeltaCompilationError` naming it.
        """
        self.views = views if isinstance(views, ViewSet) else ViewSet(views)
        self.database = database
        self._source = FactsSource(database)
        self._modes: dict[str, str] = {}
        self._rows: dict[str, set[tuple]] = {}
        self._counts: dict[str, dict[tuple, int]] = {}
        self._frozen: dict[str, frozenset[tuple] | None] = {}
        self._compiled: dict[str, CompiledViewDelta] = {}
        #: Per view: the delta-rule nests per changed relation, and (DRed
        #: views) one support-check nest per disjunct.
        self._rules: dict[str, dict[str, list[CQKernel]]] = {}
        self._support: dict[str, tuple[CQKernel, ...]] = {}
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
        """Rewrite, verify and compile one view's delta program: every delta
        rule and support check is a loop nest of :func:`compile_cq`, its Δ
        or seed atom the outermost loop."""
        compiled = compile_view_delta(name, disjuncts)
        report = delta_codegen_eligibility(compiled, self.database.schema)
        if not report.ok:
            first = report.errors[0]
            raise DeltaCompilationError(
                f"view {name!r}: delta program failed verification: "
                f"{first.code}: {first.message}",
                view_name=name,
            )
        source, counting = self._source, compiled.counting
        rules: dict[str, list[CQKernel]] = {}
        try:
            for disjunct in compiled.disjuncts:
                for index, rule in enumerate(disjunct.rules):
                    rules.setdefault(disjunct.disjunct.atoms[index].relation, []).append(
                        compile_cq(rule, source, counting=counting, first=index)
                    )
            support = () if counting else tuple(
                compile_cq(disjunct.support, source, first=0)
                for disjunct in compiled.disjuncts
            )
        except (SyntaxError, ValueError) as exc:
            raise DeltaCompilationError(
                f"view {name!r}: compiling the maintenance nests failed: {exc}",
                view_name=name,
            ) from exc
        self._compiled[name] = compiled
        self._rules[name] = rules
        self._support[name] = support
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

        With a ``meter``, every probe, membership test and scan a delta rule
        or support check makes of a stored relation charges its rows as
        ``Dξ`` fetches; the delta and candidate rows in hand are free.
        """
        stats = stats if stats is not None else MaintenanceStats()
        stats.updates += stream.applied
        if stream.is_empty:
            return []
        states = _States(self.database, stream, meter)
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
                tier_runs["compiled"] = tier_runs.get("compiled", 0) + 1
                if mode == "counting":
                    delta = self._apply_counting(view.name, states, stats)
                else:
                    delta = self._apply_dred(view.name, states, stats)
            if not delta.is_empty:
                self._frozen[view.name] = None
                deltas.append(delta)
            stats.rows_added += len(delta.added)
            stats.rows_removed += len(delta.removed)
        return deltas

    def _apply_counting(
        self, name: str, states: _States, stats: MaintenanceStats
    ) -> ViewDelta:
        stream = states.stream
        relations = stream.relations
        delta_counts: dict[tuple, int] = {}
        for index, relation in enumerate(relations):
            rules = self._rules[name].get(relation)
            if not rules:
                continue
            # Telescoping: changed relations after this one are evaluated in
            # their pre-transaction state, everything else live (post-state).
            state = states.pre_transaction(frozenset(relations[index + 1 :]))
            changes = ((1, stream.inserted(relation)), (-1, stream.deleted(relation)))
            for sign, rows in changes:
                if not rows:
                    continue
                served = state.serve(delta_relation(relation), rows)
                for rule in rules:
                    stats.delta_queries += 1
                    for row, count in rule.count(served).items():
                        delta_counts[row] = delta_counts.get(row, 0) + sign * count
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
        self, name: str, states: _States, stats: MaintenanceStats
    ) -> ViewDelta:
        stream = states.stream
        current = self._rows[name]
        live = states.live()
        augmented = states.augmented()

        # Insertion rules run against the post-state: every valuation they
        # produce is a real derivation, and set insertion is idempotent.
        added: set[tuple] = set()
        # Deletion rules run against the live-plus-deleted superset, so every
        # derivation that may have died yields its head row as a candidate.
        affected: set[tuple] = set()
        for relation in stream.relations:
            rules = self._rules[name].get(relation, ())
            delta = delta_relation(relation)
            inserted = stream.inserted(relation)
            deleted = stream.deleted(relation)
            for rule in rules:
                if inserted:
                    stats.delta_queries += 1
                    added |= rule.run(live.serve(delta, inserted)) - current
                if deleted:
                    stats.delta_queries += 1
                    # An empty view has no candidates: probe nothing.
                    if current:
                        affected |= rule.run(augmented.serve(delta, deleted)) & current
        current.update(added)

        # Rows freshly derived from the post-state are supported; every
        # other candidate is re-derived by one support-check run per
        # disjunct over the candidates still unsupported.
        removed = affected - added
        stats.support_checks += len(removed)
        for support in self._support[name]:
            if not removed:
                break
            removed -= support.run(live.serve(SEED_RELATION, removed))
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
    # Verification: the reference the maintenance nests are checked against
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
