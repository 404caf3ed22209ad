"""Codegen execution tier: compile physical plans to specialized closures.

The interpreted kernel (:mod:`repro.exec.operators`) is the reference
implementation: every row pays ``open``/``next``/``close`` dispatch,
generator resumption, and per-operator reshaping.  This module compiles the
*same* physical plans — through the *same* lowering pass
(:mod:`repro.exec.lowering`) — into a tree of fused closures in the spirit
of data-centric codegen, working set-at-a-time: selections and residual
join filters run inside the producing loop, projections are precomputed
``itemgetter``s, a fetch step deduplicates its whole key batch and hands it
to the provider in one ``fetch_many`` call, semi-joins build a key set, and
a join over a product chain never materialises the product it only filters.

Two invariants make the tier safe to swap in for the interpreter:

*Bit-identical ``Dξ``.*  The paper's cost metric is the bag of tuples pulled
through access-constraint indexes.  The interpreted driver fully drains its
operator tree, ``IndexLookup`` charges once per *distinct* key (``S_j`` has
set semantics, so charging is order-independent over the key set), and a
cached-view scan charges once per plan occurrence per execution.  The
compiled closures preserve exactly those charging points — same constraint,
same distinct-key set (one ``record_fetch`` per key of the batch), same
per-occurrence view-scan, every subtree evaluated exactly once — so
:class:`~repro.exec.iometer.IOMeter` counters match the interpreted tree
field for field, not just approximately.

*Data-independent artifacts.*  Closures close over positions, constraints
and extractors — never over data.  Provider, view cache, meter and parameter
bindings arrive late, per execution, through a :class:`Runtime`, so a
closure compiled once stays valid across write transactions (the backend
hands in the current storage state each time) and a prepared query can run
it with fresh parameter bindings without re-binding the plan tree.

Set semantics follows the interpreter's ``Distinct`` discipline: every step
returns distinct rows (non-injective steps — fetch, projection, union —
dedup inline; the rest preserve distinctness), so result cardinalities match
the operator tree's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, product
from operator import itemgetter
from typing import Any, Callable, Collection, Mapping, Sequence, cast

from ..algebra.terms import Param
from ..core.access import AccessSchema
from ..core.plan_eval import FetchProvider
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
    LoweredJoin,
    Row,
    attribute_position,
    key_extractor,
    lower_fetch,
    lower_join,
    lower_predicates,
    tuple_extractor,
)


class Runtime:
    """Late-bound state of one compiled-plan execution.

    A fresh ``Runtime`` per execution is what keeps compiled artifacts
    data-independent: the closure tree never sees storage or bindings at
    compile time, so cache-held closures survive writes and rebinds.
    ``provider`` is the only storage surface a closure may touch (the
    metered fetch protocol, :class:`~repro.core.plan_eval.FetchProvider`).
    ``params`` holds the execution's parameter values by slot — resolved
    from the caller's bindings once, in :meth:`CompiledPlan.execute`; steps
    and predicates index into it.
    """

    __slots__ = ("provider", "views", "meter", "params")

    def __init__(
        self,
        provider: FetchProvider,
        views: Mapping[str, Collection[Row]],
        meter: IOMeter,
        params: tuple[object, ...],
    ) -> None:
        self.provider = provider
        self.views = views
        self.meter = meter
        self.params = params


#: One compiled plan node: runtime in, distinct rows out.
Step = Callable[[Runtime], Collection[Row]]


def compile_closure_source(
    source: str,
    namespace: dict[str, Any],
    entry: str,
    *,
    filename: str = "<repro-codegen>",
) -> Callable[..., Any]:
    """``exec`` generated function source and return its entry callable.

    The shared closure-building substrate of the codegen tier: both the plan
    compiler and the delta compiler (:mod:`repro.exec.delta_compiler`) build
    fused loop nests as Python source whose free names — relation names, key
    positions, pinned constants — live in ``namespace``, never in the source
    text itself.  That keeps generated artifacts data-independent (the source
    mentions positions and constraint shapes only) and safe: no runtime value
    is ever interpolated into code.
    """
    code = compile(source, filename, "exec")
    exec(code, namespace)  # noqa: S102 - the source is generated, not user input
    return cast("Callable[..., Any]", namespace[entry])

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
    (surfaced by ``QueryService.explain``).
    """

    attributes: tuple[str, ...]
    parameters: frozenset[str]
    compile_seconds: float
    step: Step
    slots: tuple[str, ...] = ()

    def execute(
        self,
        provider: FetchProvider,
        views: Mapping[str, Collection[Row]],
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
    :class:`~repro.errors.PlanError`, before any data is touched — the same
    guards the interpreted compiler applies.  Unbound parameters are *not*
    errors: they become the compiled plan's ``parameters`` contract.
    """
    started = time.perf_counter()
    parameters: _Slots = {}
    step = _compile_step(plan, access_schema, parameters)
    return CompiledPlan(
        attributes=plan.attributes,
        parameters=frozenset(parameters),
        compile_seconds=time.perf_counter() - started,
        step=step,
        slots=tuple(parameters),
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


def _compile_step(
    node: PlanNode, access_schema: AccessSchema, parameters: _Slots
) -> Step:
    def recurse(child: PlanNode) -> Step:
        return _compile_step(child, access_schema, parameters)

    if isinstance(node, ConstantScan):
        value = node.value
        if isinstance(value, Param):
            slot = parameters.setdefault(value.name, len(parameters))

            def step_param(runtime: Runtime) -> Collection[Row]:
                return ((runtime.params[slot],),)

            return step_param
        rows: tuple[Row, ...] = ((value,),)

        def step_constant(runtime: Runtime) -> Collection[Row]:
            return rows

        return step_constant

    if isinstance(node, ViewScan):
        view_name = node.view_name

        def step_view(runtime: Runtime) -> Collection[Row]:
            try:
                cached = runtime.views[view_name]
            except KeyError:
                raise PlanError(
                    f"view {view_name!r} is not materialised in the view cache"
                ) from None
            runtime.meter.record_view_scan(len(cached))
            return cached

        return step_view

    if isinstance(node, FetchNode):
        return _compile_fetch(node, access_schema, parameters)

    if isinstance(node, ProjectNode):
        # π ∘ π composes positionally; collapsing the chain drops one
        # intermediate set per level without changing the final set.
        positions = [
            attribute_position(node.child.attributes, a, "projection")
            for a in node.kept
        ]
        child_node: PlanNode = node.child
        while isinstance(child_node, (ProjectNode, RenameNode)):
            if isinstance(child_node, ProjectNode):
                inner = [
                    attribute_position(child_node.child.attributes, a, "projection")
                    for a in child_node.kept
                ]
                positions = [inner[p] for p in positions]
            # renames change names, not positions — skip through them
            child_node = child_node.child

        if isinstance(child_node, SelectNode) and isinstance(
            child_node.child, ProductNode
        ):
            return _compile_join(
                child_node.child,
                lower_join(child_node),
                access_schema,
                parameters,
                project=tuple(positions),
            )
        fused = (
            _compile_factor_projection(
                child_node, tuple(positions), access_schema, parameters
            )
            if isinstance(child_node, ProductNode)
            else _fuse_fetch(child_node, access_schema, parameters, tuple(positions))
        )
        if fused is not None:
            return fused

        child = recurse(child_node)
        if positions == list(range(len(child_node.attributes))):
            return child  # an identity π: every step's rows are distinct
        project = tuple_extractor(tuple(positions))

        def step_project(runtime: Runtime) -> Collection[Row]:
            return set(map(project, child(runtime)))

        return step_project

    if isinstance(node, SelectNode):
        if isinstance(node.child, ProductNode):
            return _compile_join(
                node.child, lower_join(node), access_schema, parameters
            )
        if isinstance(node.child, FetchNode):
            fused = _fuse_fetch(node, access_schema, parameters, None)
            assert fused is not None
            return fused
        checks = lower_predicates(node.predicates, node.child.attributes, "selection")
        factory = _predicate_factory(checks, parameters)
        child = recurse(node.child)

        def step_select(runtime: Runtime) -> Collection[Row]:
            return list(filter(factory(runtime), child(runtime)))

        return step_select

    if isinstance(node, RenameNode):
        return recurse(node.child)

    if isinstance(node, ProductNode):
        # A bare product: every factor of the chain once, crossed in order.
        first, *rest = [recurse(factor) for factor in _product_factors(node)]

        def step_product(runtime: Runtime) -> Collection[Row]:
            rows = first(runtime)
            for step in rest:
                right = step(runtime)
                rows = [left + row for left in rows for row in right]
            return rows

        return step_product

    if isinstance(node, UnionNode):
        left = recurse(node.left)
        right = recurse(node.right)

        def step_union(runtime: Runtime) -> Collection[Row]:
            out = set(left(runtime))
            out.update(right(runtime))
            return out

        return step_union

    if isinstance(node, DifferenceNode):
        left = recurse(node.left)
        right = recurse(node.right)

        def step_difference(runtime: Runtime) -> Collection[Row]:
            exclude = set(right(runtime))
            return [row for row in left(runtime) if row not in exclude]

        return step_difference

    raise PlanError(f"unknown plan node type {type(node).__name__}")


def _fuse_fetch(
    node: PlanNode,
    access_schema: AccessSchema,
    parameters: _Slots,
    project_positions: tuple[int, ...] | None,
) -> Step | None:
    """Try to fuse a ``[π](σ)(fetch)`` chain into one fetch loop.

    Selection predicates and projections over a fetch node's output read
    columns the provider row already carries, so both remap through the
    fetch's output positions and run directly on provider rows — no
    intermediate collections, and the filter commutes with the final dedup.
    The fetch charging point is untouched.
    """
    checks: tuple[Check, ...] = ()
    fetch_node: FetchNode
    if isinstance(node, FetchNode):
        fetch_node = node
    elif isinstance(node, SelectNode) and isinstance(node.child, FetchNode):
        fetch_node = node.child
        checks = lower_predicates(node.predicates, fetch_node.attributes, "selection")
    else:
        return None
    return _compile_fetch(
        fetch_node,
        access_schema,
        parameters,
        checks=checks,
        project_positions=project_positions,
    )


def _remap_check(check: Check, positions: tuple[int, ...]) -> Check:
    """Rebase a lowered check from fetch-output layout to provider layout."""
    if isinstance(check, ConstantCheck):
        return ConstantCheck(positions[check.position], check.value, check.negated)
    return AttributeCheck(positions[check.left], positions[check.right], check.negated)


def _compile_fetch(
    node: FetchNode,
    access_schema: AccessSchema,
    parameters: _Slots,
    checks: tuple[Check, ...] = (),
    project_positions: tuple[int, ...] | None = None,
) -> Step:
    """Batched ``fetch``: one deduplicated key batch, one provider call.

    The child's keys are deduplicated by one ``set`` (distinct keys only —
    the paper's ``S_j`` has set semantics; ``fetch(∅, R, Y)`` is the batch
    of the one empty key) and handed to ``provider.fetch_many``, which
    resolves the constraint's index once per call.  Each key's result is
    still charged as one logical fetch, in the same loop that collects it —
    the contract the kernel linter enforces on this module.  Fused selection
    ``checks`` and ``project_positions`` (both over the fetch node's output
    layout) are remapped onto the provider's row layout; an unfiltered fetch
    whose result layout is the provider's own merges the provider's sets as
    they are.
    """
    lowered = lower_fetch(node, access_schema)
    constraint, relation = lowered.constraint, node.relation
    output = lowered.output_positions
    if project_positions is not None:
        output = tuple(output[p] for p in project_positions)
    whole_row = output == tuple(range(len(constraint.output_attributes)))
    project = tuple_extractor(output)
    child = (
        _compile_step(node.child, access_schema, parameters)
        if node.child is not None
        else _unit_step
    )
    extract_key = tuple_extractor(lowered.key_positions)

    if not checks:

        def step_fetch(runtime: Runtime) -> Collection[Row]:
            keys = set(map(extract_key, child(runtime)))
            if not keys:
                return keys  # an empty batch is no fetch at all
            record_fetch = runtime.meter.record_fetch
            out: set[Row] = set()
            for fetched in runtime.provider.fetch_many(constraint, keys):
                record_fetch(relation, len(fetched))
                out.update(fetched if whole_row else map(project, fetched))
            return out

        return step_fetch

    factory = _predicate_factory(
        tuple(_remap_check(c, lowered.output_positions) for c in checks), parameters
    )

    def step_fetch_filtered(runtime: Runtime) -> Collection[Row]:
        keys = set(map(extract_key, child(runtime)))
        if not keys:
            return keys  # an empty batch is no fetch at all
        record_fetch = runtime.meter.record_fetch
        keep = factory(runtime)
        out: set[Row] = set()
        add = out.add
        for fetched in runtime.provider.fetch_many(constraint, keys):
            record_fetch(relation, len(fetched))
            for row in fetched:
                if keep(row):
                    add(project(row))
        return out

    return step_fetch_filtered


_UNIT: tuple[Row, ...] = ((),)


def _unit_step(runtime: Runtime) -> Collection[Row]:
    """The one empty row: the input of ``fetch(∅, R, Y)``."""
    return _UNIT


#: ``(runtime, table) ->`` the probe-side rows whose join key is in
#: ``table`` (the build side's key set or bucket dict).
_Probe = Callable[[Runtime, Collection[object]], Collection[Row]]


def _product_factors(node: PlanNode) -> list[PlanNode]:
    """The leaves of a left-deep product chain, in concatenation order.

    ``×(×(×(A,B),C),D)`` flattens to ``[A, B, C, D]``; a product appearing as
    a *right* child stays one (materialised) factor — planners build their
    chains left-deep.
    """
    factors: list[PlanNode] = []
    while isinstance(node, ProductNode):
        factors.insert(0, node.right)
        node = node.left
    factors.insert(0, node)
    return factors


def _factor_starts(factors: Sequence[PlanNode]) -> list[int]:
    """Column offsets of the factors: factor ``i`` spans ``[s[i], s[i+1])``."""
    return [0, *accumulate(len(factor.attributes) for factor in factors)]


def _concat(parts: tuple[Row, ...]) -> Row:
    return sum(parts, ())


def _compile_factor_projection(
    node: ProductNode,
    positions: tuple[int, ...],
    access_schema: AccessSchema,
    parameters: _Slots,
) -> Step | None:
    """``π`` over a product whose kept columns all come from one factor.

    ``π(A × B)`` onto columns of ``A`` is ``π(A)`` when ``B`` is non-empty and
    empty otherwise, so the product is never built.  Every factor is still
    evaluated once per execution, for charging parity with the interpreter.
    """
    factors = _product_factors(node)
    starts = _factor_starts(factors)
    kept = next(
        (
            index
            for index in range(len(factors))
            if all(starts[index] <= p < starts[index + 1] for p in positions)
        ),
        None,
    )
    if kept is None:
        return None
    steps = [_compile_step(factor, access_schema, parameters) for factor in factors]
    project = tuple_extractor(tuple(p - starts[kept] for p in positions))

    def step_project_factor(runtime: Runtime) -> Collection[Row]:
        results = [step(runtime) for step in steps]
        return set(map(project, results[kept])) if all(results) else ()

    return step_project_factor


def _compile_probe(
    node: PlanNode,
    left_key: tuple[int, ...],
    access_schema: AccessSchema,
    parameters: _Slots,
) -> _Probe:
    """The probe side of a hash join: only the rows whose key matches.

    A plain input is evaluated and filtered by key membership.  A left-deep
    product chain ``×(×(A, B), C)`` — planners emit ``σ[k = k'](chain ×
    build)`` for multi-atom joins — is never materialised to be filtered.
    When one factor holds the whole key, that factor is filtered and the
    survivors are crossed with the other factors.  When the key spans
    several factors, each keyed factor is grouped by its part of the key,
    the build side's keys are filtered factor by factor (smallest group
    first, so the most selective factor prunes first), and only the
    combinations behind a surviving key are concatenated, crossed with the
    factors that hold no key column.  Every factor is still evaluated
    exactly once per execution — even when another is empty — so every
    fetch and view-scan charging point fires exactly as the interpreted
    ``HashJoin`` over the materialised product.
    """
    if not left_key or not isinstance(node, ProductNode):
        step = _compile_step(node, access_schema, parameters)
        key = key_extractor(left_key)

        def probe_rows(runtime: Runtime, table: Collection[object]) -> Collection[Row]:
            return [row for row in step(runtime) if key(row) in table]

        return probe_rows

    factors = _product_factors(node)
    starts = _factor_starts(factors)
    steps = [_compile_step(factor, access_schema, parameters) for factor in factors]
    # Per keyed factor: its index, the key part of its rows, and the same
    # part of a build-side key.
    keyed: list[tuple[int, Callable[[Row], object], Callable[[object], object]]] = []
    for index in range(len(factors)):
        slots = [
            j
            for j, p in enumerate(left_key)
            if starts[index] <= p < starts[index + 1]
        ]
        if slots:
            row_part = key_extractor([left_key[j] - starts[index] for j in slots])
            key_part = cast("Callable[[object], object]", itemgetter(*slots))
            keyed.append((index, row_part, key_part))

    if len(keyed) == 1:
        # One factor holds the whole key: filter it, cross the rest once.
        ((keyed_index, keyed_part, _),) = keyed

        def probe_factor(runtime: Runtime, table: Collection[object]) -> Collection[Row]:
            lists = [step(runtime) for step in steps]
            lists[keyed_index] = [
                row for row in lists[keyed_index] if keyed_part(row) in table
            ]
            return list(map(_concat, product(*lists)))

        return probe_factor

    def probe_chain(runtime: Runtime, table: Collection[object]) -> Collection[Row]:
        rows = [step(runtime) for step in steps]
        groups: list[tuple[dict[object, list[Row]], Callable[[object], object], int]] = []
        for index, row_part, key_part in keyed:
            grouped: dict[object, list[Row]] = {}
            for row in rows[index]:
                grouped.setdefault(row_part(row), []).append(row)
            groups.append((grouped, key_part, index))
        groups.sort(key=lambda group: len(group[0]))
        keys: Collection[object] = table
        for grouped, key_part, _ in groups:
            keys = [key for key in keys if key_part(key) in grouped]
        lists: list[Collection[Row]] = list(rows)
        out: list[Row] = []
        for key in keys:
            for grouped, key_part, index in groups:
                lists[index] = grouped[key_part(key)]
            out.extend(map(_concat, product(*lists)))
        return out

    return probe_chain


def _compile_join(
    node: ProductNode,
    lowered: LoweredJoin,
    access_schema: AccessSchema,
    parameters: _Slots,
    project: tuple[int, ...] | None = None,
) -> Step:
    """Hash join with residual filter and projection fused into its loop.

    The build side (right input) is evaluated once per execution; the probe
    side (:func:`_compile_probe`) returns only the left rows whose key it
    holds.  Empty keys degrade to a cross product through a single bucket,
    mirroring the interpreter's ``HashJoin``.  When every projected column
    comes from the probe side and there is no residual, the join is a
    semi-join and the build side is a key set, not buckets: every right
    match projects to the same row, which the set would dedup anyway.
    """
    right = _compile_step(node.right, access_schema, parameters)
    right_key = key_extractor(lowered.right_key)
    probe = _compile_probe(node.left, lowered.left_key, access_schema, parameters)
    left_width = len(node.left.attributes)

    if (
        project is not None
        and not lowered.residual
        and all(p < left_width for p in project)
    ):
        extract = tuple_extractor(project)
        # A multi-column key spanning the whole build row is the row itself.
        whole_row = len(lowered.right_key) > 1 and lowered.right_key == tuple(
            range(len(node.right.attributes))
        )

        def step_join_semi(runtime: Runtime) -> Collection[Row]:
            rows = right(runtime)
            keys = set(rows) if whole_row else set(map(right_key, rows))
            return set(map(extract, probe(runtime, keys)))

        return step_join_semi

    left_key = key_extractor(lowered.left_key)
    factory = (
        _predicate_factory(lowered.residual, parameters) if lowered.residual else None
    )
    projector = tuple_extractor(project) if project is not None else None

    def step_join(runtime: Runtime) -> Collection[Row]:
        table: dict[object, list[Row]] = {}
        bucket_for = table.setdefault
        for row in right(runtime):
            bucket_for(right_key(row), []).append(row)
        joined = [
            left_row + right_row
            for left_row in probe(runtime, table)
            for right_row in table[left_key(left_row)]
        ]
        if factory is not None:
            joined = list(filter(factory(runtime), joined))
        return joined if projector is None else set(map(projector, joined))

    return step_join


__all__ = [
    "CompiledPlan",
    "Runtime",
    "Step",
    "compile_closure_source",
    "compile_plan_closure",
]
