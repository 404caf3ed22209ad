"""Compile view definitions into per-relation delta kernels — once.

The incremental-maintenance layer used to re-derive a fresh anchored delta
query per single tuple and push it through the generic CQ evaluator
(normalisation, greedy ordering and pipeline construction per update).  This
module moves all of that work to *compile time*, DBToaster-style: each CQ
disjunct of a view is compiled once into the static structure of

* one :class:`DeltaRule` per body atom — given the net delta rows of that
  atom's relation, the head rows derivable *through* those rows, with
  multiplicities (one output per valuation, no ``Distinct``): a seed filter
  and projection, then one precompiled lookup-join stage per remaining atom;
* one :class:`SupportCheck` — an existence test "is this head row still
  derivable?", used by the DRed fallback after over-deletion;

which :func:`repro.analysis.verify_delta_program` checks and
:func:`compile_maintenance` turns into generated nested-loop kernels.

Only the *lookups* are late-bound: every stage resolves its key→rows probe
through a ``LookupResolver`` at execution time, so the same kernel runs
against the live secondary indexes of the database, against the
reconstructed *pre-transaction* state (telescoped counting over multi-relation
batches) or against the live-plus-deleted superset (DRed candidate
generation).  Resolving per execution also keeps the kernels correct when a
relation evicts and lazily rebuilds a cached secondary index.

Which maintenance strategy a view gets:

* **counting** (:func:`counting_eligible`) — single-CQ views without
  self-joins keep a ``row → number of derivations`` multiset; deletions just
  decrement counts, and a row leaves the view exactly when its count reaches
  zero.  Unsound in general for self-joins (one base tuple can appear in
  several atom positions of the same valuation) and deliberately not used
  across UCQ disjuncts, so
* **DRed** — everything else CQ/UCQ-shaped over-deletes the rows whose
  derivations may use a deleted tuple (candidates intersected with the
  current view, inlined as a membership test) and re-derives survivors
  through the generated :class:`SupportCheck` probe.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Collection, Mapping, Sequence, cast

from ..algebra.atoms import RelationAtom
from ..algebra.cq import ConjunctiveQuery
from ..algebra.terms import Constant, Variable
from ..errors import DeltaCompilationError
from .codegen import compile_closure_source
from .iometer import IOMeter
from .lowering import Row

#: ``resolver(relation, key_positions, arity) -> (key -> matching rows)``.
#: Implementations decide *which state* of the relation the probe sees.
LookupResolver = Callable[[str, tuple[int, ...], int], Callable[[Row], Sequence[Row]]]

#: One head/key column: either a pipeline position or a pinned constant.
ColumnSpec = tuple[int | None, object]

#: Generated maintenance kernels (see :func:`compile_maintenance`):
#: counting increment/decrement over a delta-count dict, DRed insert/affected
#: collection into a set, and the per-row support probe.
CountKernel = Callable[[Collection[Row], "LookupResolver", "dict[Row, int]", int], None]
SetKernel = Callable[[Collection[Row], "LookupResolver", Collection[Row], "set[Row]"], None]
SupportKernel = Callable[[Row, "LookupResolver"], bool]


def metered_resolver(resolve: LookupResolver, meter: IOMeter) -> LookupResolver:
    """Charge every probe's returned rows to ``meter`` as a ``Dξ`` fetch.

    The wrapper sits at the *resolver boundary*: a generated kernel probes
    exactly once per partial binding, and resolving itself is charged
    nothing, so the meter counts every tuple a kernel pulls and nothing
    else.
    """

    def resolved(
        relation: str, positions: tuple[int, ...], arity: int
    ) -> Callable[[Row], Sequence[Row]]:
        lookup = resolve(relation, positions, arity)
        record = meter.record_fetch

        def metered(key: Row) -> Sequence[Row]:
            rows = lookup(key)
            record(relation, len(rows))
            return rows

        return metered

    return resolved


# --------------------------------------------------------------------------- #
# Stage compilation (static join stages of the delta rules)
# --------------------------------------------------------------------------- #


class _JoinStage:
    """One precompiled lookup-join extension of a variable-row pipeline.

    Static structure only: which relation is probed on which positions
    (``bound_positions``, keyed by ``_key_spec``), which duplicate-variable
    pairs the right row must satisfy, and which of its columns extend the
    pipeline (``kept``, ``fresh_variables``).  The delta-program verifier
    inspects it, the kernel generator emits one probe loop from it.
    """

    __slots__ = (
        "relation",
        "arity",
        "bound_positions",
        "_key_spec",
        "_pairs",
        "_fresh_positions",
        "kept",
        "fresh_variables",
    )

    def __init__(
        self,
        schema: tuple[Variable, ...],
        atom: RelationAtom,
    ) -> None:
        self.relation = atom.relation
        self.arity = len(atom.terms)
        width = len(schema)
        position_of = {variable: index for index, variable in enumerate(schema)}

        bound_positions: list[int] = []
        key_spec: list[ColumnSpec] = []  # (pipeline position, constant)
        fresh_first: dict[Variable, int] = {}
        duplicate_pairs: list[tuple[int, int]] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                bound_positions.append(position)
                key_spec.append((None, term.value))
            elif term in position_of:
                bound_positions.append(position)
                key_spec.append((position_of[term], None))
            elif term in fresh_first:
                duplicate_pairs.append((fresh_first[term], position))
            else:
                fresh_first[term] = position
        self.bound_positions = tuple(bound_positions)
        self._key_spec = tuple(key_spec)
        self._pairs = tuple(duplicate_pairs)
        self._fresh_positions = tuple(fresh_first.values())
        self.kept = tuple(range(width)) + tuple(width + p for p in fresh_first.values())
        self.fresh_variables = tuple(fresh_first)


def _order_remaining(
    bound: set[Variable], atoms: Sequence[RelationAtom]
) -> list[RelationAtom]:
    """Greedy static join order: stay connected, most-bound atoms first.

    Compile-time ordering cannot consult live statistics (the rule outlives
    any one database state), so it optimises what it can see: the number of
    bound positions, then the number of fresh variables introduced.
    """
    remaining = list(atoms)
    ordered: list[RelationAtom] = []
    bound = set(bound)
    while remaining:

        def score(atom: RelationAtom) -> tuple[int, int, int]:
            bound_count = sum(
                1
                for term in atom.terms
                if isinstance(term, Constant) or term in bound
            )
            fresh = len({t for t in atom.variables if t not in bound})
            return (-bound_count, fresh, len(atom.terms))

        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound.update(best.variables)
    return ordered


def _head_spec(
    schema: tuple[Variable, ...],
    head: Sequence[object],
    view_name: str,
) -> tuple[ColumnSpec, ...]:
    """Positional head-projection spec (the static, inspectable half)."""
    position_of = {variable: index for index, variable in enumerate(schema)}
    spec: list[ColumnSpec] = []
    for term in head:
        if isinstance(term, Constant):
            spec.append((None, term.value))
        elif term in position_of:
            spec.append((position_of[term], None))
        else:
            raise DeltaCompilationError(
                f"view disjunct {view_name!r}: head term {term} is not bound "
                "by the body; unsafe views cannot be incrementally maintained",
                view_name=view_name,
            )
    return tuple(spec)


# --------------------------------------------------------------------------- #
# Delta rules
# --------------------------------------------------------------------------- #


class DeltaRule:
    """The delta plan of one (disjunct, body-atom) pair, compiled once.

    Given the net delta rows of the atom's relation, the rule's kernels
    (:class:`RuleKernels`) produce every head row of a valuation that maps
    this atom to a delta row — with multiplicity: a row appears once per
    valuation, which is exactly the quantity counting-based maintenance
    accumulates.  The states the remaining atoms are evaluated against are
    chosen by the caller through the ``resolve`` argument (live /
    pre-transaction / augmented).
    """

    def __init__(self, disjunct: ConjunctiveQuery, atom_index: int) -> None:
        atoms = disjunct.atoms
        if not 0 <= atom_index < len(atoms):
            raise DeltaCompilationError(
                f"view disjunct {disjunct.name!r} has {len(atoms)} body atoms; "
                f"cannot compile a delta rule for atom index {atom_index}",
                view_name=disjunct.name,
            )
        atom = atoms[atom_index]
        self.relation = atom.relation
        self.atom_index = atom_index
        self._arity = len(atom.terms)

        # Seed: delta rows of the bound atom, filtered on the atom's
        # constants and repeated variables, projected to its distinct
        # variables in first-occurrence order.
        constant_positions: list[tuple[int, object]] = []
        first_occurrence: dict[Variable, int] = {}
        duplicate_pairs: list[tuple[int, int]] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                constant_positions.append((position, term.value))
            elif term in first_occurrence:
                duplicate_pairs.append((first_occurrence[term], position))
            else:
                first_occurrence[term] = position
        self._seed_constants = tuple(constant_positions)
        self._seed_pairs = tuple(duplicate_pairs)
        self._seed_positions = tuple(first_occurrence.values())

        schema = tuple(first_occurrence)
        remaining = [a for i, a in enumerate(atoms) if i != atom_index]
        self._stages: list[_JoinStage] = []
        for other in _order_remaining(set(schema), remaining):
            stage = _JoinStage(schema, other)
            self._stages.append(stage)
            schema = schema + stage.fresh_variables
        self._head_spec = _head_spec(schema, disjunct.head, disjunct.name)

    # Static structure, exposed for the delta-program verifier
    # (:func:`repro.analysis.verify_delta_program`).

    @property
    def arity(self) -> int:
        """Arity the rule's anchor atom was compiled against."""
        return self._arity

    @property
    def seed_positions(self) -> tuple[int, ...]:
        """Delta-row positions seeding the pipeline (first variable occurrences)."""
        return self._seed_positions

    @property
    def stages(self) -> tuple[_JoinStage, ...]:
        """The precompiled join stages, in execution order."""
        return tuple(self._stages)

    @property
    def head_spec(self) -> tuple[ColumnSpec, ...]:
        """Head projection as ``(pipeline position | None, constant)`` pairs."""
        return self._head_spec


class SupportCheck:
    """Compiled existence test: is a head row still derivable in a disjunct?

    The head binding becomes the seed row of the pipeline (constants are
    checked, repeated head variables enforced), the whole body is joined in a
    precompiled order, and the first surviving row proves support — the
    generated probe (:func:`_support_kernel`) returns at once.
    """

    def __init__(self, disjunct: ConjunctiveQuery) -> None:
        first_occurrence: dict[Variable, int] = {}
        constant_positions: list[tuple[int, object]] = []
        duplicate_pairs: list[tuple[int, int]] = []
        for position, term in enumerate(disjunct.head):
            if isinstance(term, Constant):
                constant_positions.append((position, term.value))
            elif term in first_occurrence:
                duplicate_pairs.append((first_occurrence[term], position))
            else:
                first_occurrence[term] = position
        self._constants = tuple(constant_positions)
        self._duplicates = tuple(duplicate_pairs)
        self._seed_positions = tuple(first_occurrence.values())

        schema = tuple(first_occurrence)
        self._stages: list[_JoinStage] = []
        for atom in _order_remaining(set(schema), disjunct.atoms):
            stage = _JoinStage(schema, atom)
            self._stages.append(stage)
            schema = schema + stage.fresh_variables

    @property
    def stages(self) -> tuple[_JoinStage, ...]:
        """The precompiled join stages, in execution order."""
        return tuple(self._stages)


# --------------------------------------------------------------------------- #
# Whole-view compilation
# --------------------------------------------------------------------------- #


class CompiledDisjunct:
    """All delta rules of one normalised CQ disjunct, grouped per relation."""

    def __init__(self, disjunct: ConjunctiveQuery) -> None:
        self.disjunct = disjunct
        rules: dict[str, list[DeltaRule]] = {}
        for index, atom in enumerate(disjunct.atoms):
            rules.setdefault(atom.relation, []).append(DeltaRule(disjunct, index))
        self.rules: dict[str, tuple[DeltaRule, ...]] = {
            name: tuple(per_atom) for name, per_atom in rules.items()
        }
        self.support = SupportCheck(disjunct)

    @property
    def relations(self) -> frozenset[str]:
        return frozenset(self.rules)


class CompiledViewDelta:
    """A view's delta program: per-relation rules plus the chosen strategy."""

    def __init__(self, name: str, disjuncts: Sequence[ConjunctiveQuery]) -> None:
        self.name = name
        self.disjuncts = tuple(CompiledDisjunct(d) for d in disjuncts)
        self.counting = len(disjuncts) == 1 and not _has_self_join(disjuncts[0])

    @property
    def mode(self) -> str:
        return "counting" if self.counting else "dred"

    @property
    def relations(self) -> frozenset[str]:
        return frozenset(
            name for disjunct in self.disjuncts for name in disjunct.relations
        )


def _has_self_join(disjunct: ConjunctiveQuery) -> bool:
    names = [atom.relation for atom in disjunct.atoms]
    return len(names) != len(set(names))


def counting_eligible(disjuncts: Sequence[ConjunctiveQuery]) -> bool:
    """Counting maintenance is used for single-CQ views without self-joins;
    everything else falls back to DRed (see the module docstring)."""
    return len(disjuncts) == 1 and not _has_self_join(disjuncts[0])


def compile_view_delta(
    name: str, disjuncts: Sequence[ConjunctiveQuery]
) -> CompiledViewDelta:
    """Compile the (already normalised) disjuncts of a CQ/UCQ view.

    Raises :class:`~repro.errors.DeltaCompilationError` (a subclass of
    :class:`~repro.errors.UnsupportedQueryError`) for bodies without relation
    atoms (nothing to anchor a delta on) and for unsafe heads; the error
    carries the offending view name.
    """
    for disjunct in disjuncts:
        if not disjunct.atoms:
            raise DeltaCompilationError(
                f"view {name!r} has a disjunct without relation atoms; "
                "incremental maintenance needs at least one body atom",
                view_name=name,
            )
    return CompiledViewDelta(name, disjuncts)


# --------------------------------------------------------------------------- #
# Generated maintenance kernels
# --------------------------------------------------------------------------- #
#
# The classes above already avoid per-update planning; the kernels below also
# avoid per-row *interpretation*.  :func:`compile_maintenance` turns every
# delta rule into one fused nested-loop function — seed filter, join-key
# construction, duplicate-variable guards, head projection and the sink
# (counting increment/decrement, DRed insert, DRed candidate∩view semi-join)
# all inlined as generated source, ``exec``'d through
# :func:`repro.exec.codegen.compile_closure_source`.
#
# Discipline, identical to the read-side codegen tier:
#
# * **data independence** — the source text mentions tuple positions and
#   control flow only; relation names, key positions, arities and pinned
#   constants are passed through the exec namespace (``_R*``/``_B*``/``_A*``,
#   ``_SC*``/``_K*``/``_H*``), never interpolated into code.  The kernels are
#   therefore reusable across database states and survive index
#   eviction/rebuild: every execution late-binds storage through ``resolve``.
# * **Dξ accounting** — a kernel probes each stage lookup exactly once per
#   partial binding; with :func:`metered_resolver` wrapped around the
#   resolver, every probe's rows are charged.  Resolving the stage lookups
#   themselves is uncharged, so the kernels resolve all stages up front.


class _KernelSource:
    """Accumulates generated source lines plus their ``exec`` namespace."""

    __slots__ = ("namespace", "_lines", "_counter")

    def __init__(self) -> None:
        self.namespace: dict[str, Any] = {}
        self._lines: list[str] = []
        self._counter = 0

    def const(self, value: object, prefix: str) -> str:
        """Bind ``value`` in the namespace; the source sees only the name."""
        name = f"_{prefix}{self._counter}"
        self._counter += 1
        self.namespace[name] = value
        return name

    def emit(self, indent: int, text: str) -> None:
        self._lines.append("    " * indent + text)

    @property
    def source(self) -> str:
        return "\n".join(self._lines) + "\n"


def _tuple_literal(exprs: Sequence[str]) -> str:
    if not exprs:
        return "()"
    if len(exprs) == 1:
        return f"({exprs[0]},)"
    return "(" + ", ".join(exprs) + ")"


#: Probe loops one generated function nests.  CPython refuses more than 20
#: statically nested blocks per function, so a longer join chain continues
#: in a nested helper ``_n<j>`` per further run of stages.
_STAGES_PER_FUNCTION = 16

#: ``sink(col_exprs, indent)`` emits the innermost statements of a nest.
_Sink = Callable[[list[str], int], None]


def _emit_stage_loops(
    ks: _KernelSource,
    stages: Sequence[_JoinStage],
    start: int,
    col_exprs: list[str],
    indent: int,
    sink: _Sink,
    probe: bool,
) -> None:
    """Emit one nested probe loop per join stage from ``start``, then
    ``sink`` innermost — or, past :data:`_STAGES_PER_FUNCTION` stages, a
    call of the helper that nests the rest (see :func:`_emit_stage_helpers`).

    ``col_exprs`` maps each pipeline-schema position to the expression that
    reads it inside the innermost loop (seed columns first, then each stage's
    fresh columns); the list is extended in place as stages nest.  With
    ``probe`` (the support check) a helper's truth value is a found
    derivation, which unwinds the caller too.
    """
    end = min(start + _STAGES_PER_FUNCTION, len(stages))
    for j in range(start, end):
        stage = stages[j]
        key_exprs = [
            col_exprs[position] if position is not None else ks.const(value, "K")
            for position, value in stage._key_spec
        ]
        ks.emit(indent, f"for t{j} in _l{j}({_tuple_literal(key_exprs)}):")
        indent += 1
        for a, b in stage._pairs:
            ks.emit(indent, f"if t{j}[{a}] != t{j}[{b}]:")
            ks.emit(indent + 1, "continue")
        col_exprs.extend(f"t{j}[{q}]" for q in stage._fresh_positions)
    if end == len(stages):
        sink(col_exprs, indent)
    elif probe:
        ks.emit(indent, f"if _n{end}({', '.join(col_exprs)}):")
        ks.emit(indent + 1, "return True")
    else:
        ks.emit(indent, f"_n{end}({', '.join(col_exprs)})")


def _emit_stage_helpers(
    ks: _KernelSource,
    stages: Sequence[_JoinStage],
    width: int,
    indent: int,
    sink: _Sink,
    probe: bool,
) -> None:
    """Define the helper ``_n<j>(c0, …)`` nesting the stages from ``j`` on,
    for every ``j`` past the first :data:`_STAGES_PER_FUNCTION` stages.

    The helpers are closures of the kernel (lookups and sink state are its
    locals) and take the columns bound so far; ``width`` is the seed's.
    Emitted before the kernel's own loops, none exist for a short chain.
    """
    for start in range(_STAGES_PER_FUNCTION, len(stages), _STAGES_PER_FUNCTION):
        bound = width + sum(len(s._fresh_positions) for s in stages[:start])
        params = [f"c{i}" for i in range(bound)]
        ks.emit(indent, f"def _n{start}({', '.join(params)}):")
        _emit_stage_loops(ks, stages, start, params, indent + 1, sink, probe)
        if probe:
            ks.emit(indent + 1, "return False")


def _emit_stage_resolves(
    ks: _KernelSource, stages: Sequence[_JoinStage], indent: int
) -> None:
    for j, stage in enumerate(stages):
        rel = ks.const(stage.relation, "R")
        bound = ks.const(stage.bound_positions, "B")
        arity = ks.const(stage.arity, "A")
        ks.emit(indent, f"_l{j} = resolve({rel}, {bound}, {arity})")


def _rule_kernel(rule: DeltaRule, kind: str) -> tuple[Callable[..., Any], str]:
    """Generate one fused maintenance kernel for ``rule``.

    ``kind`` selects the sink: ``"count"`` applies ``sign`` to a delta-count
    dict (counting maintenance, shared by the insert and delete directions),
    ``"insert"`` collects head rows absent from the current view (DRed
    insertion), ``"affected"`` collects head rows present in the current view
    (DRed over-deletion candidates — the candidate∩view semi-join inlined as
    a membership test against the maintained set).
    """
    ks = _KernelSource()
    stages = rule._stages
    if kind == "count":
        ks.emit(0, "def _kernel(delta_rows, resolve, counts, sign):")
    elif kind == "insert":
        ks.emit(0, "def _kernel(delta_rows, resolve, current, added):")
    else:
        ks.emit(0, "def _kernel(delta_rows, resolve, current, affected):")
    _emit_stage_resolves(ks, stages, 1)
    if kind == "count":
        ks.emit(1, "_get = counts.get")
    else:
        ks.emit(1, "_add = added.add" if kind == "insert" else "_add = affected.add")

    def sink(col_exprs: list[str], indent: int) -> None:
        head_exprs = [
            col_exprs[position] if position is not None else ks.const(value, "H")
            for position, value in rule._head_spec
        ]
        ks.emit(indent, f"h = {_tuple_literal(head_exprs)}")
        if kind == "count":
            ks.emit(indent, "counts[h] = _get(h, 0) + sign")
        elif kind == "insert":
            ks.emit(indent, "if h not in current:")
            ks.emit(indent + 1, "_add(h)")
        else:
            ks.emit(indent, "if h in current:")
            ks.emit(indent + 1, "_add(h)")

    _emit_stage_helpers(ks, stages, len(rule._seed_positions), 1, sink, probe=False)
    ks.emit(1, "for d in delta_rows:")
    for position, value in rule._seed_constants:
        name = ks.const(value, "SC")
        ks.emit(2, f"if d[{position}] != {name}:")
        ks.emit(3, "continue")
    for first, later in rule._seed_pairs:
        ks.emit(2, f"if d[{first}] != d[{later}]:")
        ks.emit(3, "continue")
    col_exprs = [f"d[{p}]" for p in rule._seed_positions]
    _emit_stage_loops(ks, stages, 0, col_exprs, 2, sink, probe=False)
    kernel = compile_closure_source(
        ks.source, ks.namespace, "_kernel", filename=f"<repro-delta-{kind}>"
    )
    return kernel, ks.source


def _support_kernel(check: SupportCheck) -> tuple[SupportKernel, str]:
    """Generate the DFS support probe as one nested loop with early return.

    Guards run before any stage lookup is resolved, and ``return True`` in
    the innermost loop unwinds at the first full valuation, so only the
    prefix of the search space up to the first derivation is explored.
    """
    ks = _KernelSource()
    stages = check._stages
    ks.emit(0, "def _kernel(row, resolve):")
    for position, value in check._constants:
        name = ks.const(value, "SC")
        ks.emit(1, f"if row[{position}] != {name}:")
        ks.emit(2, "return False")
    for first, later in check._duplicates:
        ks.emit(1, f"if row[{first}] != row[{later}]:")
        ks.emit(2, "return False")
    if not stages:
        ks.emit(1, "return True")
    else:

        def sink(col_exprs: list[str], indent: int) -> None:
            ks.emit(indent, "return True")

        _emit_stage_resolves(ks, stages, 1)
        width = len(check._seed_positions)
        _emit_stage_helpers(ks, stages, width, 1, sink, probe=True)
        col_exprs = [f"row[{p}]" for p in check._seed_positions]
        _emit_stage_loops(ks, stages, 0, col_exprs, 1, sink, probe=True)
        ks.emit(1, "return False")
    kernel = compile_closure_source(
        ks.source, ks.namespace, "_kernel", filename="<repro-delta-support>"
    )
    return cast(SupportKernel, kernel), ks.source


class RuleKernels:
    """The three generated sinks of one delta rule, plus their source text."""

    __slots__ = ("count", "insert", "affected", "sources")

    def __init__(self, rule: DeltaRule) -> None:
        count, count_src = _rule_kernel(rule, "count")
        insert, insert_src = _rule_kernel(rule, "insert")
        affected, affected_src = _rule_kernel(rule, "affected")
        self.count = cast(CountKernel, count)
        self.insert = cast(SetKernel, insert)
        self.affected = cast(SetKernel, affected)
        #: kind → generated source, for tests and ``explain``-style debugging.
        self.sources: Mapping[str, str] = {
            "count": count_src,
            "insert": insert_src,
            "affected": affected_src,
        }


class DisjunctKernels:
    """Generated kernels of one disjunct, aligned with
    :attr:`CompiledDisjunct.rules` (same relation keys, same rule order)."""

    __slots__ = ("rules", "supported", "support_source")

    def __init__(self, disjunct: CompiledDisjunct) -> None:
        self.rules: dict[str, tuple[RuleKernels, ...]] = {
            name: tuple(RuleKernels(rule) for rule in per_atom)
            for name, per_atom in disjunct.rules.items()
        }
        self.supported, self.support_source = _support_kernel(disjunct.support)


class MaintenanceKernels:
    """A view's delta program compiled to generated nested-loop kernels."""

    __slots__ = ("name", "counting", "disjuncts", "compile_seconds")

    def __init__(
        self,
        name: str,
        counting: bool,
        disjuncts: tuple[DisjunctKernels, ...],
        compile_seconds: float,
    ) -> None:
        self.name = name
        self.counting = counting
        self.disjuncts = disjuncts
        self.compile_seconds = compile_seconds


def compile_maintenance(compiled: CompiledViewDelta) -> MaintenanceKernels:
    """Compile a view's delta program into generated maintenance kernels.

    Raises :class:`~repro.errors.DeltaCompilationError` naming the view when
    the generated source of a rule does not compile (what ``compile()``
    raises for bad source: :class:`SyntaxError` or :class:`ValueError`);
    any other exception is a bug and propagates as itself.
    """
    started = time.perf_counter()
    try:
        disjuncts = tuple(DisjunctKernels(d) for d in compiled.disjuncts)
    except (SyntaxError, ValueError) as exc:
        raise DeltaCompilationError(
            f"view {compiled.name!r}: generating maintenance kernels failed: {exc}",
            view_name=compiled.name,
        ) from exc
    return MaintenanceKernels(
        compiled.name,
        compiled.counting,
        disjuncts,
        time.perf_counter() - started,
    )
