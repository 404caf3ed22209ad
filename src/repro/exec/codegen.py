"""Codegen execution tier: compile physical plans to specialized closures.

The interpreted kernel (:mod:`repro.exec.operators`) is the reference
implementation: every row pays ``open``/``next``/``close`` dispatch,
generator resumption, and per-operator reshaping.  This module compiles the
*same* physical plans — through the *same* lowering pass
(:mod:`repro.exec.lowering`) — into a tree of fused closures in the spirit
of data-centric codegen: selections and residual join filters run inside the
producing loop, projections are precomputed ``itemgetter``s, hash tables are
built once per execution, and the ``IndexLookup`` key-dedup is inlined next
to the fetch it guards.

Two invariants make the tier safe to swap in for the interpreter:

*Bit-identical ``Dξ``.*  The paper's cost metric is the bag of tuples pulled
through access-constraint indexes.  The interpreted driver fully drains its
operator tree, ``IndexLookup`` charges once per *distinct* key (``S_j`` has
set semantics, so charging is order-independent over the key set), and a
cached-view scan charges once per plan occurrence per execution.  The
compiled closures preserve exactly those charging points — same constraint,
same distinct-key set, same per-occurrence view-scan — so
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
from itertools import product as _iter_product
from typing import Any, Callable, Collection, Iterator, Mapping, Protocol, Sequence, cast

from ..algebra.terms import Param
from ..core.access import AccessConstraint, AccessSchema
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


class FetchProviderLike(Protocol):
    """The only storage surface a compiled closure may touch: metered fetch."""

    def fetch(
        self, constraint: AccessConstraint, key: Sequence[object]
    ) -> frozenset[Row]:
        """Return ``D_{R:XY}(X = key)`` for the constraint's relation."""
        ...


class Runtime:
    """Late-bound state of one compiled-plan execution.

    A fresh ``Runtime`` per execution is what keeps compiled artifacts
    data-independent: the closure tree never sees storage or bindings at
    compile time, so cache-held closures survive writes and rebinds.
    ``params`` holds the execution's parameter values by slot — resolved
    from the caller's bindings once, in :meth:`CompiledPlan.execute`; steps
    and predicates index into it.
    """

    __slots__ = ("provider", "views", "meter", "params")

    def __init__(
        self,
        provider: FetchProviderLike,
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
        provider: FetchProviderLike,
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
        fused = _fuse_fetch(child_node, access_schema, parameters, tuple(positions))
        if fused is not None:
            return fused

        project = tuple_extractor(tuple(positions))
        child = recurse(child_node)

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
        return _compile_join(node, LoweredJoin((), (), ()), access_schema, parameters)

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
    """``fetch`` with the interpreter's key-dedup and charging points inlined.

    One seen-set guards the fetch (distinct keys only — the paper's ``S_j``
    has set semantics), and every returned tuple is charged to the meter in
    the same loop that pulls it, which is exactly the contract the kernel
    linter enforces on this module.  Fused selection ``checks`` and the fused
    ``project_positions`` (both expressed over the fetch node's output
    layout) are remapped onto the provider's row layout.
    """
    lowered = lower_fetch(node, access_schema)
    constraint, relation = lowered.constraint, node.relation
    output = lowered.output_positions
    if project_positions is not None:
        output = tuple(lowered.output_positions[p] for p in project_positions)
    project = tuple_extractor(output)
    factory = (
        _predicate_factory(
            tuple(_remap_check(c, lowered.output_positions) for c in checks),
            parameters,
        )
        if checks
        else None
    )

    if node.child is None:
        if factory is None:

            def step_fetch_empty(runtime: Runtime) -> Collection[Row]:
                fetched = runtime.provider.fetch(constraint, ())
                runtime.meter.record_fetch(relation, len(fetched))
                return set(map(project, fetched))

            return step_fetch_empty

        empty_factory = factory

        def step_fetch_empty_filtered(runtime: Runtime) -> Collection[Row]:
            fetched = runtime.provider.fetch(constraint, ())
            runtime.meter.record_fetch(relation, len(fetched))
            keep = empty_factory(runtime)
            return {project(row) for row in fetched if keep(row)}

        return step_fetch_empty_filtered

    child = _compile_step(node.child, access_schema, parameters)
    extract_key = tuple_extractor(lowered.key_positions)

    if factory is None:

        def step_fetch(runtime: Runtime) -> Collection[Row]:
            fetch = runtime.provider.fetch
            record_fetch = runtime.meter.record_fetch
            seen: set[Row] = set()
            mark = seen.add
            out: set[Row] = set()
            collect = out.update
            for row in child(runtime):
                key = extract_key(row)
                if key in seen:
                    continue
                mark(key)
                fetched = fetch(constraint, key)
                record_fetch(relation, len(fetched))
                collect(map(project, fetched))
            return out

        return step_fetch

    fetch_factory = factory

    def step_fetch_filtered(runtime: Runtime) -> Collection[Row]:
        fetch = runtime.provider.fetch
        record_fetch = runtime.meter.record_fetch
        keep = fetch_factory(runtime)
        seen: set[Row] = set()
        mark = seen.add
        out: set[Row] = set()
        add = out.add
        for row in child(runtime):
            key = extract_key(row)
            if key in seen:
                continue
            mark(key)
            fetched = fetch(constraint, key)
            record_fetch(relation, len(fetched))
            for fetched_row in fetched:
                if keep(fetched_row):
                    add(project(fetched_row))
        return out

    return step_fetch_filtered


#: Yields ``(left_row, bucket)`` for the left rows whose key has a match.
_MatchIter = Callable[
    [Runtime, Callable[[object], "list[Row] | None"]],
    "Iterator[tuple[Row, list[Row]]]",
]


def _product_factors(node: PlanNode) -> list[PlanNode]:
    """The leaves of a left-deep product chain, in concatenation order.

    ``×(×(×(A,B),C),D)`` flattens to ``[A, B, C, D]``; a product appearing as
    a *right* child stays one (materialised) factor — planners build their
    chains left-deep, and anything else falls back to the generic join.
    """
    factors: list[PlanNode] = []
    while isinstance(node, ProductNode):
        factors.insert(0, node.right)
        node = node.left
    factors.insert(0, node)
    return factors


def _factored_matches(
    product: ProductNode,
    lowered: LoweredJoin,
    access_schema: AccessSchema,
    parameters: _Slots,
) -> _MatchIter | None:
    """Probe-first iteration when the probe side is itself a cross product.

    Planners routinely emit ``σ[k = k'](×(A × B, C))`` — and, for wider
    queries, arbitrary left-deep chains ``σ(×(×(×(A,B),C),D))`` — with the
    whole join key coming from one factor of the bare inner chain.
    Materialising the chain just to probe it wastes the full cross-product's
    concatenations; instead the keyed factor probes first and the other
    factors are expanded only on a match.  Every factor is still evaluated
    exactly once per execution — even when another factor is empty — so every
    fetch/view-scan charging point fires exactly as the interpreted
    ``HashJoin`` over the materialised product would.
    """
    inner = product.left
    if not isinstance(inner, ProductNode) or not lowered.left_key:
        return None
    factors = _product_factors(inner)
    offsets: list[int] = []
    offset = 0
    for factor in factors:
        offsets.append(offset)
        offset += len(factor.attributes)
    keyed_index = next(
        (
            index
            for index, factor in enumerate(factors)
            if all(
                offsets[index] <= p < offsets[index] + len(factor.attributes)
                for p in lowered.left_key
            )
        ),
        None,
    )
    if keyed_index is None:
        # The key spans factor boundaries.  Fall back to the coarse two-way
        # split at the top of the chain — the keyed "factor" is then itself a
        # (materialised) product, which is still better than materialising
        # the whole chain when the key lives in a prefix or suffix of it.
        split = len(inner.left.attributes)
        keyed_first = all(p < split for p in lowered.left_key)
        if not keyed_first and not all(p >= split for p in lowered.left_key):
            return None
        first = _compile_step(inner.left, access_schema, parameters)
        second = _compile_step(inner.right, access_schema, parameters)
        if keyed_first:
            key = key_extractor(lowered.left_key)

            def matches_first(
                runtime: Runtime, probe: Callable[[object], list[Row] | None]
            ) -> Iterator[tuple[Row, list[Row]]]:
                expand = second(runtime)
                for keyed_row in first(runtime):
                    bucket = probe(key(keyed_row))
                    if bucket:
                        for other_row in expand:
                            yield keyed_row + other_row, bucket

            return matches_first

        key = key_extractor(tuple(p - split for p in lowered.left_key))

        def matches_second(
            runtime: Runtime, probe: Callable[[object], list[Row] | None]
        ) -> Iterator[tuple[Row, list[Row]]]:
            expand = first(runtime)
            for keyed_row in second(runtime):
                bucket = probe(key(keyed_row))
                if bucket:
                    for other_row in expand:
                        yield other_row + keyed_row, bucket

        return matches_second

    steps = [_compile_step(factor, access_schema, parameters) for factor in factors]
    key = key_extractor(tuple(p - offsets[keyed_index] for p in lowered.left_key))
    keyed_step = steps[keyed_index]

    if len(factors) == 2:
        # Two factors: keep the allocation-free loops of the original
        # one-level factoring (no per-match itertools machinery).
        other_step = steps[1 - keyed_index]
        if keyed_index == 0:

            def matches_two_first(
                runtime: Runtime, probe: Callable[[object], list[Row] | None]
            ) -> Iterator[tuple[Row, list[Row]]]:
                expand = other_step(runtime)
                for keyed_row in keyed_step(runtime):
                    bucket = probe(key(keyed_row))
                    if bucket:
                        for other_row in expand:
                            yield keyed_row + other_row, bucket

            return matches_two_first

        def matches_two_second(
            runtime: Runtime, probe: Callable[[object], list[Row] | None]
        ) -> Iterator[tuple[Row, list[Row]]]:
            expand = other_step(runtime)
            for keyed_row in keyed_step(runtime):
                bucket = probe(key(keyed_row))
                if bucket:
                    for other_row in expand:
                        yield other_row + keyed_row, bucket

        return matches_two_second

    before_steps = steps[:keyed_index]
    after_steps = steps[keyed_index + 1 :]
    prefix_count = len(before_steps)

    def matches_chain(
        runtime: Runtime, probe: Callable[[object], list[Row] | None]
    ) -> Iterator[tuple[Row, list[Row]]]:
        # Every factor evaluates exactly once per execution, up front —
        # charging parity with the materialised chain — then only keyed rows
        # whose bucket matches pay for the cross-product expansion.
        others = [tuple(step(runtime)) for step in before_steps]
        others.extend(tuple(step(runtime)) for step in after_steps)
        for keyed_row in keyed_step(runtime):
            bucket = probe(key(keyed_row))
            if bucket:
                for combo in _iter_product(*others):
                    row: Row = ()
                    for part in combo[:prefix_count]:
                        row += part
                    row += keyed_row
                    for part in combo[prefix_count:]:
                        row += part
                    yield row, bucket

    return matches_chain


def _compile_join(
    product: ProductNode,
    lowered: LoweredJoin,
    access_schema: AccessSchema,
    parameters: _Slots,
    project: tuple[int, ...] | None = None,
) -> Step:
    """Hash join with residual filter and projection fused into the probe loop.

    The build side (right input) is hashed once per execution; empty keys
    degrade to a cross product through a single bucket, mirroring the
    interpreter's ``HashJoin``.  With ``project`` set the join emits the
    projected rows directly into the output set; when every projected column
    comes from the probe side and there is no residual, the inner loop
    collapses to a bucket-existence test (a semi-join — every right match
    projects to the same row, which the set would dedup anyway).
    """
    right = _compile_step(product.right, access_schema, parameters)
    right_key = key_extractor(lowered.right_key)
    factory = (
        _predicate_factory(lowered.residual, parameters) if lowered.residual else None
    )
    matches = _factored_matches(product, lowered, access_schema, parameters)
    if matches is not None:
        return _compile_factored_join(
            matches, right, right_key, factory,
            len(product.left.attributes), project,
        )
    left = _compile_step(product.left, access_schema, parameters)
    left_key = key_extractor(lowered.left_key)

    if project is not None:
        left_width = len(product.left.attributes)
        if factory is None and all(p < left_width for p in project):
            extract = tuple_extractor(project)

            def step_join_semi(runtime: Runtime) -> Collection[Row]:
                table: dict[object, list[Row]] = {}
                bucket_for = table.setdefault
                for row in right(runtime):
                    bucket_for(right_key(row), []).append(row)
                probe = table.get
                out: set[Row] = set()
                add = out.add
                for left_row in left(runtime):
                    if probe(left_key(left_row)):
                        add(extract(left_row))
                return out

            return step_join_semi

        projector = tuple_extractor(project)
        project_factory = factory

        def step_join_project(runtime: Runtime) -> Collection[Row]:
            table: dict[object, list[Row]] = {}
            bucket_for = table.setdefault
            for row in right(runtime):
                bucket_for(right_key(row), []).append(row)
            probe = table.get
            keep = project_factory(runtime) if project_factory is not None else None
            out: set[Row] = set()
            add = out.add
            for left_row in left(runtime):
                bucket = probe(left_key(left_row))
                if bucket:
                    for right_row in bucket:
                        joined = left_row + right_row
                        if keep is None or keep(joined):
                            add(projector(joined))
            return out

        return step_join_project

    if factory is None:

        def step_join(runtime: Runtime) -> Collection[Row]:
            table: dict[object, list[Row]] = {}
            bucket_for = table.setdefault
            for row in right(runtime):
                bucket_for(right_key(row), []).append(row)
            probe = table.get
            out: list[Row] = []
            emit = out.append
            for left_row in left(runtime):
                bucket = probe(left_key(left_row))
                if bucket:
                    for right_row in bucket:
                        emit(left_row + right_row)
            return out

        return step_join

    residual_factory = factory

    def step_join_filtered(runtime: Runtime) -> Collection[Row]:
        table: dict[object, list[Row]] = {}
        bucket_for = table.setdefault
        for row in right(runtime):
            bucket_for(right_key(row), []).append(row)
        probe = table.get
        keep = residual_factory(runtime)
        out: list[Row] = []
        emit = out.append
        for left_row in left(runtime):
            bucket = probe(left_key(left_row))
            if bucket:
                for right_row in bucket:
                    joined = left_row + right_row
                    if keep(joined):
                        emit(joined)
        return out

    return step_join_filtered


def _compile_factored_join(
    matches: _MatchIter,
    right: Step,
    right_key: Callable[[Row], object],
    factory: Callable[[Runtime], Callable[[Row], bool]] | None,
    left_width: int,
    project: tuple[int, ...] | None,
) -> Step:
    """Join variants fed by a :func:`_factored_matches` probe-first iterator.

    Same four shapes as the inline loops in :func:`_compile_join`, but the
    probe side arrives pre-filtered to key matches, so the per-row loops only
    run on rows that will actually join.
    """
    if project is not None:
        if factory is None and all(p < left_width for p in project):
            extract = tuple_extractor(project)

            def step_factored_semi(runtime: Runtime) -> Collection[Row]:
                table: dict[object, list[Row]] = {}
                bucket_for = table.setdefault
                for row in right(runtime):
                    bucket_for(right_key(row), []).append(row)
                out: set[Row] = set()
                add = out.add
                for left_row, _bucket in matches(runtime, table.get):
                    add(extract(left_row))
                return out

            return step_factored_semi

        projector = tuple_extractor(project)
        project_factory = factory

        def step_factored_project(runtime: Runtime) -> Collection[Row]:
            table: dict[object, list[Row]] = {}
            bucket_for = table.setdefault
            for row in right(runtime):
                bucket_for(right_key(row), []).append(row)
            keep = project_factory(runtime) if project_factory is not None else None
            out: set[Row] = set()
            add = out.add
            for left_row, bucket in matches(runtime, table.get):
                for right_row in bucket:
                    joined = left_row + right_row
                    if keep is None or keep(joined):
                        add(projector(joined))
            return out

        return step_factored_project

    if factory is None:

        def step_factored_join(runtime: Runtime) -> Collection[Row]:
            table: dict[object, list[Row]] = {}
            bucket_for = table.setdefault
            for row in right(runtime):
                bucket_for(right_key(row), []).append(row)
            out: list[Row] = []
            emit = out.append
            for left_row, bucket in matches(runtime, table.get):
                for right_row in bucket:
                    emit(left_row + right_row)
            return out

        return step_factored_join

    residual_factory = factory

    def step_factored_filtered(runtime: Runtime) -> Collection[Row]:
        table: dict[object, list[Row]] = {}
        bucket_for = table.setdefault
        for row in right(runtime):
            bucket_for(right_key(row), []).append(row)
        keep = residual_factory(runtime)
        out: list[Row] = []
        emit = out.append
        for left_row, bucket in matches(runtime, table.get):
            for right_row in bucket:
                joined = left_row + right_row
                if keep(joined):
                    emit(joined)
        return out

    return step_factored_filtered


__all__ = [
    "CompiledPlan",
    "FetchProviderLike",
    "Runtime",
    "Step",
    "compile_closure_source",
    "compile_plan_closure",
]
