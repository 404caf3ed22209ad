"""Codegen: compile physical plans to specialized closures.

This is the one way a plan runs — the service's admitted plans and the
hand-built plans of ``QueryService.execute_plan`` alike.  A plan is lowered
(:mod:`repro.exec.lowering`) and compiled into a tree of fused closures in
the spirit of data-centric code generation (Neumann, VLDB 2011), working
set-at-a-time: selections and residual join filters run inside the
producing loop, projections are built inline (``itemgetter``, never a
Python call per row), and a fetch step deduplicates its whole key batch
and hands it to the provider in one ``fetch_many`` call.

No step builds or tests a row the plan's output cannot depend on.  The
compiler pushes the columns each consumer reads down the plan, and three
rules follow, all decided at compile time:

* a non-negated ``σ[a = v]`` on a fetch key attribute whose value comes
  from constant scans giving ``a`` the same constant or ``Param`` is
  *implied* and dropped (a ``Param`` keeps one ``v == v`` test per
  execution, so a value unequal to itself still returns nothing);
* in a join, a probe-side factor with no read column outside the join key
  is a *semi-join filter* (Yannakakis, VLDB 1981): only its key parts are
  tested, and its part of the output comes from the surviving build key;
* a factor with no read column at all is an *emptiness guard*.

Cached views are read from their published version
(:class:`~repro.core.plan_eval.ViewVersion`: rows plus hash indexes the
version memoises), reached by duck typing — this module imports no storage:

* a ``σ`` whose non-negated checks include ``attribute = constant`` or
  ``attribute = Param`` over a view leaf (through a ``π``/``ρ`` chain) is a
  *view probe*: one lookup of the version's index on those positions,
  the other checks filtering the bucket (a key value unequal to itself,
  such as ``NaN``, finds nothing);
* a view read onto some of its columns is the key set of the version's
  index on them, not a projection rebuilt per execution.

Two invariants make the closures a faithful reading of the plan:

*Exact ``Dξ``.*  The paper's cost metric is the bag of tuples pulled
through access-constraint indexes.  A fetch charges once per *distinct* key
(``S_j`` has set semantics, so charging is order-independent over the key
set), and a cached-view read charges once per plan occurrence per
execution — the whole view, or for a view probe the rows its bucket holds
(``view_tuples_scanned``; views are not part of ``Dξ``) — every subtree
is evaluated exactly once, with no common subexpression shared.  The test
suite's recursive reference evaluator (``tests/conftest.py::reference``)
charges the same points, and the :class:`~repro.exec.iometer.IOMeter`
counters must match it field for field.

*Data-independent artifacts.*  Closures close over positions, constraints
and extractors — never over data.  Provider, view cache, meter and parameter
bindings arrive late, per execution, through a :class:`Runtime`, so a
closure compiled once stays valid across write transactions (the backend
hands in the current storage state each time) and a prepared query can run
it with fresh parameter bindings without re-binding the plan tree.

Set semantics: every step returns distinct rows (non-injective steps —
fetch, projection, union — dedup inline; the rest preserve distinctness).
"""

from __future__ import annotations

import time
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, product
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, Sequence

from ..algebra.rows import row_getter
from ..algebra.terms import Param
from ..core.access import AccessSchema
from ..core.plan_eval import FetchProvider, ViewVersion
from ..core.plans import (
    ConstantScan,
    DifferenceNode,
    FetchNode,
    PlanNode,
    ProductNode,
    ProjectNode,
    RenameNode,
    SelectNode,
    UnionNode,
    ViewScan,
)
from ..errors import PlanError
from .iometer import IOMeter
from .lowering import (
    AttributeCheck,
    Check,
    ConstantCheck,
    Row,
    attribute_position,
    constant_row,
    implied_checks,
    lower_fetch,
    lower_join,
    lower_predicates,
)


class Runtime:
    """Late-bound state of one compiled-plan execution.

    A fresh ``Runtime`` per execution is what keeps compiled artifacts
    data-independent: the closure tree never sees storage or bindings at
    compile time, so cache-held closures survive writes and rebinds.
    ``provider`` is the only storage surface a closure may touch (the
    metered fetch protocol, :class:`~repro.core.plan_eval.FetchProvider`);
    ``views`` maps each cached view to its published
    :class:`~repro.core.plan_eval.ViewVersion`, read only by steps that
    charge ``record_view_scan``.  ``params`` holds the execution's
    parameter values by slot — resolved from the caller's bindings once, in
    :meth:`CompiledPlan.execute`; steps and predicates index into it.
    """

    __slots__ = ("provider", "views", "meter", "params")

    def __init__(
        self,
        provider: FetchProvider,
        views: Mapping[str, ViewVersion],
        meter: IOMeter,
        params: tuple[object, ...],
    ) -> None:
        self.provider = provider
        self.views = views
        self.meter = meter
        self.params = params


#: One compiled plan node: runtime in, distinct rows out.
Step = Callable[[Runtime], Collection[Row]]

_RowPredicate = Callable[[Row], bool]
_PredicateFactory = Callable[[Runtime], _RowPredicate]
#: Parameter name → slot in ``Runtime.params``, filled while compiling.
_Slots = dict[str, int]


@dataclass(frozen=True)
class CompiledPlan:
    """A physical plan compiled to a closure tree, plus its run contract.

    ``parameters`` are the :class:`~repro.algebra.terms.Param` names the
    closure resolves at execution time — callers pass bindings instead of
    rewriting the plan; ``slots`` lists them in ``Runtime.params`` order.
    ``compile_seconds`` is the wall-clock cost of building the closure tree
    and ``notes`` what the kernel does instead of the plan's letter, by the
    path of the node (child indices from the root): a dropped implied
    check, a semi-join filter, an emptiness guard, a view probe — both
    surfaced by ``QueryService.explain``.
    """

    attributes: tuple[str, ...]
    parameters: frozenset[str]
    compile_seconds: float
    step: Step
    slots: tuple[str, ...] = ()
    notes: Mapping[tuple[int, ...], str] = field(default_factory=dict)

    def execute(
        self,
        provider: FetchProvider,
        views: Mapping[str, ViewVersion],
        meter: IOMeter,
        params: Mapping[str, object] | None = None,
    ) -> frozenset[Row]:
        """Run the closure tree against the *current* storage state."""
        bindings: Mapping[str, object] = params or {}
        try:
            values = tuple(map(bindings.__getitem__, self.slots))
        except KeyError:
            missing = sorted(self.parameters - bindings.keys())
            raise PlanError(
                "compiled plan is missing parameter bindings: " + ", ".join(missing)
            ) from None
        return frozenset(self.step(Runtime(provider, views, meter, values)))


def compile_plan_closure(plan: PlanNode, access_schema: AccessSchema) -> CompiledPlan:
    """Compile a plan tree into a :class:`CompiledPlan`.

    Fetches without a covering access constraint and attribute references the
    input does not produce are rejected here as
    :class:`~repro.errors.PlanError`, before any data is touched.  Nothing
    else is checked: callers admit a plan through
    :func:`repro.analysis.codegen_eligibility` first.  Unbound parameters
    are *not* errors: they become the compiled plan's ``parameters``
    contract.
    """
    started = time.perf_counter()
    compiler = _Compiler(access_schema)
    step = compiler.step(plan, ())
    return CompiledPlan(
        attributes=plan.attributes,
        parameters=frozenset(compiler.parameters),
        compile_seconds=time.perf_counter() - started,
        step=step,
        slots=tuple(compiler.parameters),
        notes=compiler.notes,
    )


# --------------------------------------------------------------------------- #
# Predicates
# --------------------------------------------------------------------------- #


def _constant_predicate(position: int, value: object, negated: bool) -> _RowPredicate:
    def check(row: Row) -> bool:
        return (row[position] == value) != negated

    return check


def _attribute_predicate(left: int, right: int, negated: bool) -> _RowPredicate:
    def check(row: Row) -> bool:
        return (row[left] == row[right]) != negated

    return check


def _conjunction(predicates: Sequence[_RowPredicate]) -> _RowPredicate:
    if len(predicates) == 1:
        return predicates[0]
    closures = tuple(predicates)

    def check(row: Row) -> bool:
        return all(closure(row) for closure in closures)

    return check


def _remap_check(check: Check, positions: Mapping[int, int] | Sequence[int]) -> Check:
    """Rebase a lowered check onto another row layout."""
    if isinstance(check, ConstantCheck):
        return ConstantCheck(positions[check.position], check.value, check.negated)
    return AttributeCheck(positions[check.left], positions[check.right], check.negated)


def _predicate_factory(checks: Sequence[Check], parameters: _Slots) -> _PredicateFactory:
    """Lowered checks → a per-execution predicate builder.

    Checks against plain constants are closed at compile time.  A check
    whose constant is a :class:`Param` knows its slot at compile time and
    reads ``Runtime.params[slot]`` — no closure is built per execution, the
    compiled check is only paired with the execution's values — which is how
    prepared queries and plans shared across constants skip ``bind_plan``
    entirely on the compiled tier.
    """
    static: list[_RowPredicate] = []
    dynamic: list[tuple[int, int, bool]] = []
    for check in checks:
        if isinstance(check, ConstantCheck):
            if isinstance(check.value, Param):
                slot = parameters.setdefault(check.value.name, len(parameters))
                dynamic.append((check.position, slot, check.negated))
            else:
                static.append(
                    _constant_predicate(check.position, check.value, check.negated)
                )
        else:
            static.append(_attribute_predicate(check.left, check.right, check.negated))

    if not dynamic:
        predicate = _conjunction(static)
        return lambda runtime: predicate

    if not static and len(dynamic) == 1:
        ((position, slot, negated),) = dynamic

        def check_one(values: tuple[object, ...], row: Row) -> bool:
            return (row[position] == values[slot]) != negated

        return lambda runtime: partial(check_one, runtime.params)

    fixed = _conjunction(static) if static else None
    bound = tuple(dynamic)

    def check_all(values: tuple[object, ...], row: Row) -> bool:
        for position, slot, negated in bound:
            if (row[position] == values[slot]) == negated:
                return False
        return fixed is None or fixed(row)

    return lambda runtime: partial(check_all, runtime.params)


# --------------------------------------------------------------------------- #
# Plan nodes → steps
# --------------------------------------------------------------------------- #

#: A node's place in its plan: the child indices from the root down.
_NodePath = tuple[int, ...]

_UNIT: tuple[Row, ...] = ((),)
_GUARD = "emptiness guard"
_SEMI_JOIN = "semi-join filter"


def _unit_step(runtime: Runtime) -> Collection[Row]:
    """The one empty row: the input of ``fetch(∅, R, Y)``."""
    return _UNIT


def _projector(columns: tuple[int, ...]) -> Callable[[Iterable[Row]], Collection[Row]]:
    """Rows → their distinct projections onto ``columns``, built inline.

    No columns is an emptiness test: the one empty row if any row exists.
    """
    if not columns:
        return lambda rows: _UNIT if next(iter(rows), None) is not None else ()
    get = itemgetter(*columns)
    if len(columns) == 1:
        return lambda rows: set(zip(map(get, rows)))  # 1-tuples, built in C
    return lambda rows: set(map(get, rows))


def _unchain(
    node: PlanNode, path: _NodePath, positions: list[int]
) -> tuple[PlanNode, _NodePath, list[int]]:
    """The node below a ``π``/``ρ`` chain, its path, and where ``positions``
    of ``node`` sit in it: ``π ∘ π`` composes positionally and ``ρ`` keeps
    positions."""
    while isinstance(node, (ProjectNode, RenameNode)):
        if isinstance(node, ProjectNode):
            inner = [
                attribute_position(node.child.attributes, a, "projection")
                for a in node.kept
            ]
            positions = [inner[p] for p in positions]
        node, path = node.child, path + (0,)
    return node, path, positions


def _missing_view(view_name: str) -> PlanError:
    return PlanError(f"view {view_name!r} is not materialised in the view cache")


def _narrowing(columns: tuple[int, ...] | None, node: PlanNode) -> tuple[int, ...] | None:
    """``columns``, or ``None`` when they read all of ``node`` as laid out."""
    if columns is not None and columns == tuple(range(len(node.attributes))):
        return None
    return columns


def _product_factors(
    node: PlanNode, path: _NodePath
) -> list[tuple[PlanNode, _NodePath]]:
    """The leaves of a left-deep product chain and their paths, in
    concatenation order.

    ``×(×(×(A,B),C),D)`` flattens to ``[A, B, C, D]``; a product appearing as
    a *right* child stays one factor — planners build their chains
    left-deep.  Any other node is a chain of one.
    """
    factors: list[tuple[PlanNode, _NodePath]] = []
    while isinstance(node, ProductNode):
        factors.append((node.right, path + (1,)))
        node, path = node.left, path + (0,)
    factors.append((node, path))
    factors.reverse()
    return factors


def _factor_starts(factors: Sequence[tuple[PlanNode, _NodePath]]) -> list[int]:
    """Column offsets of the factors: factor ``i`` spans ``[s[i], s[i+1])``."""
    return [0, *accumulate(len(factor.attributes) for factor, _ in factors)]


def _concat(parts: Sequence[Row]) -> Row:
    """One crossed row from its parts, in order: the one place rows are
    concatenated."""
    return tuple(chain.from_iterable(parts))


#: ``(keys, members) ->`` the build keys whose part is a member.
_KeyFilter = Callable[[Collection[Row], Collection[object]], list[Row]]


def _key_filter(slots: Sequence[int], key_width: int) -> _KeyFilter:
    """The key filter of a factor holding the key parts at ``slots``; its
    members are the factor's rows (or groups) keyed by that part."""
    parts: Callable[[Collection[Row]], Iterable[Row]]
    if list(slots) == list(range(key_width)):
        parts = iter
    elif len(slots) == 1:
        get = itemgetter(*slots)
        parts = lambda keys: zip(map(get, keys))
    else:
        part = row_getter(slots)
        parts = lambda keys: map(part, keys)
    return lambda keys, members: list(
        compress(keys, map(members.__contains__, parts(keys)))
    )


def _fetch_collector(
    output: tuple[int, ...], width: int, factory: _PredicateFactory | None
) -> Callable[[Runtime, list[frozenset[Row]]], Collection[Row]]:
    """How a fetch step turns its batch of provider results into rows:
    filtered by the kept checks, projected onto ``output`` inline."""
    whole = output == tuple(range(width))
    if factory is not None:
        project: Callable[[Iterable[Row]], Collection[Row]] = (
            set if whole else _projector(output)
        )
        return lambda runtime, batches: project(
            filter(factory(runtime), chain.from_iterable(batches))
        )
    if whole:
        return lambda runtime, batches: (
            batches[0] if len(batches) == 1 else set().union(*batches)
        )
    project = _projector(output)
    return lambda runtime, batches: project(chain.from_iterable(batches))


class _Compiler:
    """One plan's compilation: the parameter slots and the kernel notes
    (path → what the kernel does there instead of the plan's letter),
    filled in as the steps are built.

    Every step takes the *columns* its consumer reads — positions of the
    node's attributes, ``None`` for all of them — and returns the distinct
    rows projected onto them, so a column nobody reads is never built.
    Every subtree is still evaluated once per occurrence, whatever is read
    of it, so the charging points are the plan's.
    """

    def __init__(self, access_schema: AccessSchema) -> None:
        self.access_schema = access_schema
        self.parameters: _Slots = {}
        self.notes: dict[_NodePath, str] = {}

    def slot(self, name: str) -> int:
        return self.parameters.setdefault(name, len(self.parameters))

    def step(
        self, node: PlanNode, path: _NodePath, columns: tuple[int, ...] | None = None
    ) -> Step:
        if isinstance(node, (ConstantScan, ProductNode)):
            row = constant_row(node)
            if row is not None:
                return self._constant(row, columns)

        if isinstance(node, ViewScan):
            return self._view(node.view_name, _narrowing(columns, node))

        if isinstance(node, FetchNode):
            return self._fetch(node, path, columns)

        if isinstance(node, (ProjectNode, RenameNode)):
            # A chain of them is one projection of the node below — read
            # only where the consumer reads it.
            if columns is None and isinstance(node, RenameNode):
                return self.step(node.child, path + (0,))
            positions = list(range(len(node.kept)) if columns is None else columns)
            node, path, positions = _unchain(node, path, positions)
            return self.step(node, path, tuple(positions))

        if isinstance(node, SelectNode):
            if isinstance(node.child, ProductNode):
                return self._join(node, path, columns)
            if isinstance(node.child, FetchNode):
                return self._fetch(node.child, path + (0,), columns, node, path)
            return self._select(node, path, _narrowing(columns, node))

        if isinstance(node, ProductNode):
            return self._product(node, path, columns)

        if isinstance(node, UnionNode):
            # π distributes over ∪.
            left = self.step(node.left, path + (0,), columns)
            right = self.step(node.right, path + (1,), columns)

            def step_union(runtime: Runtime) -> Collection[Row]:
                out = set(left(runtime))
                out.update(right(runtime))
                return out

            return step_union

        if isinstance(node, DifferenceNode):
            left = self.step(node.left, path + (0,))
            right = self.step(node.right, path + (1,))
            columns = _narrowing(columns, node)
            project = None if columns is None else _projector(columns)

            def step_difference(runtime: Runtime) -> Collection[Row]:
                exclude = set(right(runtime))
                rows = [row for row in left(runtime) if row not in exclude]
                return rows if project is None else project(rows)

            return step_difference

        raise PlanError(f"unknown plan node type {type(node).__name__}")

    def _constant(self, row: Row, columns: tuple[int, ...] | None) -> Step:
        """A subtree of constant scans: its one row, parameters read per
        execution."""
        slots = [self.slot(v.name) if isinstance(v, Param) else None for v in row]
        if columns is not None:
            row, slots = tuple(row[p] for p in columns), [slots[p] for p in columns]
        if all(slot is None for slot in slots):
            rows = (row,)
            return lambda runtime: rows
        if len(row) == 1:
            (slot,) = slots
            return lambda runtime: ((runtime.params[slot],),)
        spec = tuple(zip(row, slots))

        def step_constant(runtime: Runtime) -> Collection[Row]:
            values = runtime.params
            return (tuple([v if s is None else values[s] for v, s in spec]),)

        return step_constant

    def _view(self, view_name: str, columns: tuple[int, ...] | None) -> Step:
        """A whole view read, charged ``|V|``: its rows, or read onto
        ``columns`` the key set of the version's index on them."""

        def step_view(runtime: Runtime) -> Collection[Row]:
            view = runtime.views.get(view_name)
            if view is None:
                raise _missing_view(view_name)
            runtime.meter.record_view_scan(len(view.rows))
            return view.rows if columns is None else view.index_on(columns).keys()

        return step_view

    def _select(
        self, node: SelectNode, path: _NodePath, columns: tuple[int, ...] | None
    ) -> Step:
        checks = lower_predicates(node.predicates, node.child.attributes, "selection")
        leaf = node.child
        while isinstance(leaf, (ProjectNode, RenameNode)):
            leaf = leaf.child
        if isinstance(leaf, ViewScan) and any(
            isinstance(c, ConstantCheck) and not c.negated for c in checks
        ):
            return self._probe(node, path, checks, columns)
        factory = _predicate_factory(checks, self.parameters)
        child = self.step(node.child, path + (0,))
        project = None if columns is None else _projector(columns)

        def step_select(runtime: Runtime) -> Collection[Row]:
            rows = filter(factory(runtime), child(runtime))
            return list(rows) if project is None else project(rows)

        return step_select

    def _probe(
        self,
        node: SelectNode,
        path: _NodePath,
        checks: Sequence[Check],
        columns: tuple[int, ...] | None,
    ) -> Step:
        """``σ`` over a view leaf, keyed: one probe of the view version's
        index on the positions of the non-negated constant and ``Param``
        checks, the other checks filtering the bucket.  It charges the rows
        the bucket holds; a key value unequal to itself (``NaN``) finds
        nothing, as ``==`` would."""
        attributes = node.child.attributes
        leaf, _, positions = _unchain(node.child, path, list(range(len(attributes))))
        assert isinstance(leaf, ViewScan)
        keyed = [c for c in checks if isinstance(c, ConstantCheck) and not c.negated]
        residual = [
            _remap_check(c, positions)
            for c in checks
            if not (isinstance(c, ConstantCheck) and not c.negated)
        ]
        self.notes[path] = "view probe: " + ", ".join(attributes[c.position] for c in keyed)
        on = tuple(positions[c.position] for c in keyed)
        spec = tuple(
            (c.value, self.slot(c.value.name) if isinstance(c.value, Param) else None)
            for c in keyed
        )
        factory = _predicate_factory(residual, self.parameters) if residual else None
        output = tuple(positions if columns is None else [positions[c] for c in columns])
        project = None if output == tuple(range(len(leaf.attributes))) else _projector(output)
        view_name = leaf.view_name

        def step_probe(runtime: Runtime) -> Collection[Row]:
            view = runtime.views.get(view_name)
            if view is None:
                raise _missing_view(view_name)
            values = runtime.params
            key = tuple([v if s is None else values[s] for v, s in spec])
            # Element-wise: a tuple equals itself even holding a NaN.
            found = all(v == v for v in key)
            bucket = view.index_on(on).get(key, ()) if found else ()
            runtime.meter.record_view_scan(len(bucket))
            if factory is not None:
                rows = filter(factory(runtime), bucket)
                return list(rows) if project is None else project(rows)
            return bucket if project is None else project(bucket)

        return step_probe

    def _fetch(
        self,
        node: FetchNode,
        path: _NodePath,
        columns: tuple[int, ...] | None,
        select: SelectNode | None = None,
        select_path: _NodePath = (),
    ) -> Step:
        """Batched ``fetch``, with a selection over it fused into its loop.

        The child is read as the fetch's key columns, so its rows are the
        distinct keys (the paper's ``S_j`` has set semantics; ``fetch(∅, R,
        Y)`` is the batch of the one empty key), handed to
        ``provider.fetch_many`` in one call.  Each key's result is still
        charged as one logical fetch — the contract the kernel linter
        enforces on this module.  A check the fetch key implies
        (:func:`~repro.exec.lowering.implied_checks`) is dropped; one on a
        ``Param`` leaves a reflexivity test of its value per execution.  The
        kept checks and the consumer's ``columns`` are remapped onto the
        provider's row layout and run inline.
        """
        lowered = lower_fetch(node, self.access_schema)
        constraint, relation = lowered.constraint, node.relation
        predicates = () if select is None else select.predicates
        implied = implied_checks(predicates, node)
        if implied:
            self.notes[select_path] = "implied check dropped: " + ", ".join(
                p.attribute for p in implied
            )
        reflexive = tuple(
            self.slot(p.value.name) for p in implied if isinstance(p.value, Param)
        )
        checks = lower_predicates(
            [p for p in predicates if p not in implied], node.attributes, "selection"
        )
        factory = (
            _predicate_factory(
                [_remap_check(c, lowered.output_positions) for c in checks],
                self.parameters,
            )
            if checks
            else None
        )
        output = lowered.output_positions
        if columns is not None:
            output = tuple(output[p] for p in columns)
        collect = _fetch_collector(output, len(constraint.output_attributes), factory)
        child = (
            self.step(node.child, path + (0,), lowered.key_positions)
            if node.child is not None
            else _unit_step
        )

        def step_fetch(runtime: Runtime) -> Collection[Row]:
            keys = child(runtime)
            if not keys:
                return ()  # an empty batch is no fetch at all
            batches = runtime.provider.fetch_many(constraint, keys)
            record_fetch = runtime.meter.record_fetch
            for fetched in batches:
                record_fetch(relation, len(fetched))
            for slot in reflexive:
                value = runtime.params[slot]
                if not value == value:
                    return ()  # the dropped check fails on every row
            return collect(runtime, batches)

        return step_fetch

    def _product(
        self, node: ProductNode, path: _NodePath, columns: tuple[int, ...] | None
    ) -> Step:
        """A bare product: every factor evaluated once, the factors the
        consumer reads crossed, the others only tested for emptiness."""
        factors = _product_factors(node, path)
        starts = _factor_starts(factors)
        read = tuple(range(starts[-1])) if columns is None else columns
        steps: list[Step] = []
        crossed: list[int] = []
        wide: list[int] = []
        for index, (factor, factor_path) in enumerate(factors):
            low, high = starts[index], starts[index + 1]
            live = sorted({p for p in read if low <= p < high})
            if live:
                crossed.append(index)
                wide.extend(live)
            else:
                self.notes[factor_path] = _GUARD
            steps.append(self.step(factor, factor_path, tuple(p - low for p in live)))
        project = None if list(read) == wide else _projector(tuple(map(wide.index, read)))

        def step_product(runtime: Runtime) -> Collection[Row]:
            results = [step(runtime) for step in steps]
            if not all(results):
                return ()
            if len(crossed) == 1:
                rows = results[crossed[0]]
            else:
                rows = list(map(_concat, product(*[results[i] for i in crossed])))
            return rows if project is None else project(rows)

        return step_product

    def _join(
        self, node: SelectNode, path: _NodePath, columns: tuple[int, ...] | None
    ) -> Step:
        """``σ[k = k'](chain × build)`` as one hash join that builds only the
        rows its consumer reads.

        The build side (right input) is read as its join key plus the live
        columns no key holds: a set of keys, or buckets when such columns
        exist.  Live columns are the consumer's ``columns`` plus the
        residual's.  Each factor of the probe side's left-deep product chain
        (any other input is a chain of one) is evaluated once and plays one
        role, fixed here:

        * **semi-join filter** — keyed, no live column outside the key: its
          key parts form a set the build keys are tested against, and its
          part of the output row comes from the surviving build key
          (Yannakakis' rule: a factor whose columns only filter is never a
          product factor);
        * **crossed** — live columns outside the key: grouped by its key
          part (one group when it holds none), and the group behind each
          surviving key crossed;
        * **emptiness guard** — no live column: only tested for emptiness.

        Filters run smallest first.  Rows are concatenated (``_concat``)
        only where something is crossed; otherwise the surviving build keys
        are the output.  Every factor is evaluated even when another is
        empty, so every charging point fires as over the materialised
        product.
        """
        product_node = node.child
        assert isinstance(product_node, ProductNode)
        lowered = lower_join(node)
        left_key, right_key = lowered.left_key, lowered.right_key
        key_width = len(left_key)
        split = len(product_node.left.attributes)
        width = split + len(product_node.right.attributes)
        out = tuple(range(width)) if columns is None else columns
        live = set(out)
        for check in lowered.residual:
            if isinstance(check, ConstantCheck):
                live.add(check.position)
            else:
                live.update((check.left, check.right))

        # Each live column's place in the assembled ("wide") row: the build
        # key, then every crossed factor's columns, then the build side's.
        wide: dict[int, int] = {}
        for slot, position in enumerate(left_key):
            wide.setdefault(position, slot)
        for slot, position in enumerate(right_key):
            wide.setdefault(split + position, slot)
        width = key_width  # of the wide row, from here on

        factors = _product_factors(product_node.left, path + (0, 0))
        starts = _factor_starts(factors)
        steps: list[Step] = []
        filters: list[tuple[int, _KeyFilter]] = []
        crossed: list[tuple[int, int, _KeyFilter, Callable[[Row], Row] | None]] = []
        guards: list[int] = []
        for index, (factor, factor_path) in enumerate(factors):
            low, high = starts[index], starts[index + 1]
            slots = [s for s, p in enumerate(left_key) if low <= p < high]
            rest = sorted(p for p in live if low <= p < high and p not in wide)
            for position in rest:
                wide[position] = width
                width += 1
            keyed = tuple(left_key[s] - low for s in slots)
            steps.append(
                self.step(factor, factor_path, keyed + tuple(p - low for p in rest))
            )
            if rest:
                whole = slots == list(range(key_width))
                part = None if whole else row_getter(slots)
                crossed.append((index, len(slots), _key_filter(slots, key_width), part))
            elif slots:
                filters.append((index, _key_filter(slots, key_width)))
                self.notes[factor_path] = _SEMI_JOIN
            else:
                guards.append(index)
                self.notes[factor_path] = _GUARD
        right_rest = sorted(p for p in live if p >= split and p not in wide)
        for position in right_rest:
            wide[position] = width
            width += 1
        bucketed = bool(right_rest)
        build = self.step(
            product_node.right,
            path + (0, 1),
            right_key + tuple(p - split for p in right_rest),
        )
        factory = (
            _predicate_factory(
                [_remap_check(c, wide) for c in lowered.residual], self.parameters
            )
            if lowered.residual
            else None
        )
        final = tuple(wide[p] for p in out)
        project = None if final == tuple(range(width)) else _projector(final)

        def step_join(runtime: Runtime) -> Collection[Row]:
            rows = build(runtime)
            results = [step(runtime) for step in steps]
            if not rows or (guards and not all([results[i] for i in guards])):
                return ()
            keys: Collection[Row] = rows
            table: dict[Row, list[Row]] = {}
            if bucketed:
                for row in rows:
                    table.setdefault(row[:key_width], []).append(row[key_width:])
                keys = table
            order = filters
            if len(filters) > 1:  # smallest first
                order = sorted(filters, key=lambda f: len(results[f[0]]))
            for index, keep in order:
                members = results[index]
                if not isinstance(members, AbstractSet):
                    members = set(members)
                keys = keep(keys, members)
            groups: list[dict[Row, list[Row]]] = []
            for index, size, keep, _ in crossed:
                group: dict[Row, list[Row]] = {}
                for row in results[index]:
                    group.setdefault(row[:size], []).append(row[size:])
                groups.append(group)
                keys = keep(keys, group)
            joined: Collection[Row] = keys
            if crossed or bucketed:
                joined = []
                for key in keys:
                    parts: list[Collection[Row]] = [(key,)]
                    for group, (_, _, _, part) in zip(groups, crossed):
                        parts.append(group[key if part is None else part(key)])
                    if bucketed:
                        parts.append(table[key])
                    joined.extend(map(_concat, product(*parts)))
            if factory is not None:
                joined = list(filter(factory(runtime), joined))
            return joined if project is None else project(joined)

        return step_join


__all__ = [
    "CompiledPlan",
    "Runtime",
    "Step",
    "compile_plan_closure",
]
