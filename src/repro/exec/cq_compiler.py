"""Compile conjunctive queries to fused loop-nest closures over a facts source.

This is the library's one CQ/UCQ evaluator.
:func:`repro.algebra.evaluation.evaluate_cq` and ``evaluate_ucq``, view
materialisation, derivation counting and every maintenance nest — the delta
rules and support checks :mod:`repro.exec.delta_compiler` rewrites a view
into (:class:`~repro.engine.service.maintenance.ViewMaintainer`) — the full-scan
baseline (:class:`~repro.engine.baseline.NaiveEngine`) and the service's
fallback for queries without a bounded plan all run :func:`compile_cq`'s
output: one generated function per normalised disjunct, in the spirit of
data-centric code generation (Neumann, "Efficiently Compiling Efficient
Query Plans for Modern Hardware", VLDB 2011):

* one ``for`` per body atom, in the join order :func:`order_atoms` finds
  with the subset search the plan builder also uses, over a scan of the
  relation or a probe of a secondary hash index keyed on the atom's bound
  positions (constants, parameter slots and variables bound by earlier
  atoms);
* rows are unpacked into locals; a repeated fresh variable is an inlined
  ``continue`` guard (so is a constant of a pinned outermost atom, whose
  rows are scanned, not indexed), and the access path hands the nest only
  rows of the atom's arity;
* an atom none of whose fresh variables a later atom or the head reads is an
  existence test (``key in index``, or ``any(...)`` when it carries a
  repeated-variable check), not a loop;
* the head tuple is added to one set — or, in counting mode, its derivation
  count bumped (``counts[row] += 1``; counting never takes the existence
  shortcut, every valuation counts).

Generated source mentions positions and control flow only.  Constant values
and parameter slots reach a nest as one value vector per execution, and its
access paths (row collections, index dicts) are resolved against the facts
source per execution, so equal shapes generate equal source and share one
function (a bounded memo, :data:`KERNEL_MEMO_LIMIT`), and a kernel compiled
once runs against any version of the data.

The facts source abstracts over the three shapes evaluation accepts:

* a plain fact mapping ``relation name -> collection of tuples`` (tableaux,
  canonical databases, test fixtures) — indexes are built per resolution,
  and rows of the wrong arity are dropped;
* a :class:`repro.storage.snapshots.DatabaseSnapshot` — probes read the
  version's own memoised secondary indexes
  (:meth:`~repro.storage.snapshots.RelationVersion.index_on`);
* a live :class:`repro.storage.instance.Database` — probes read the
  relation's maintained secondary indexes
  (:meth:`~repro.storage.instance.Relation.index_on`), and the join order
  consults its cardinality/distinct statistics instead of raw sizes.

All three are duck-typed, so this module never imports :mod:`repro.storage`.
"""

from __future__ import annotations

import time
from types import MappingProxyType
from typing import Any, Callable, Collection, Iterator, Mapping, Sequence, cast

from ..algebra.atoms import RelationAtom
from ..algebra.cq import ConjunctiveQuery
from ..algebra.join_order import MAX_EXACT_ITEMS, search_order
from ..algebra.rows import group_rows
from ..algebra.terms import Constant, Param, Term, Variable
from ..errors import EvaluationError, SchemaError

#: A data row.
Row = tuple[object, ...]
_EMPTY_INDEX: Mapping[Row, Sequence[Row]] = MappingProxyType({})


class FactsSource:
    """Uniform rows / index / statistics access over a database, a snapshot
    or a fact map.

    ``statistics`` (relation name -> relation statistics) overrides what the
    join order reads: a reader of a snapshot, which keeps no statistics,
    passes the live ones — they only ever steer estimates, never rows.  The
    storage side is duck-typed (``relation`` + ``schema`` for a database,
    ``relations`` + ``version`` for a snapshot) so this module never imports
    :mod:`repro.storage`; the handles are ``Any`` for the same reason.
    """

    def __init__(
        self, facts: object, statistics: Mapping[str, Any] | None = None
    ) -> None:
        self._database: Any = None
        self._versions: Mapping[str, Any] | None = None
        self._mapping: Mapping[str, Collection[Row]] | None = None
        if hasattr(facts, "relation") and hasattr(facts, "schema"):
            self._database = facts
        elif hasattr(facts, "relations") and hasattr(facts, "version"):
            self._versions = cast(Any, facts).relations
        else:
            self._mapping = cast("Mapping[str, Collection[Row]]", facts)
        self._statistics = statistics

    # ------------------------------------------------------------------ #

    def _relation(self, name: str) -> Any:
        """The stored relation behind ``name``, or ``None`` when absent (or
        when the source is not a database)."""
        if self._database is None:
            return None
        try:
            return self._database.relation(name)
        except (SchemaError, KeyError):  # unknown relation: same as a missing key
            return None

    def size(self, name: str) -> int:
        """How many rows ``name`` holds (0 when absent)."""
        if self._database is not None:
            relation = self._relation(name)
            return len(relation) if relation is not None else 0
        if self._versions is not None:
            version = self._versions.get(name)
            return len(version.rows) if version is not None else 0
        assert self._mapping is not None
        return len(self._mapping.get(name, ()))

    def mapping(self) -> Mapping[str, Collection[Row]]:
        """The source as a fact mapping (what FO evaluation reads)."""
        if self._database is not None:
            return cast(Mapping[str, Collection[Row]], self._database.facts)
        if self._versions is not None:
            return {name: version.rows for name, version in self._versions.items()}
        assert self._mapping is not None
        return self._mapping

    def statistics(self, name: str) -> Any:
        """Per-relation statistics, when given or maintained by the source."""
        if self._statistics is not None:
            return self._statistics.get(name)
        relation = self._relation(name)
        if relation is None:
            return None
        statistics = getattr(relation, "statistics", None)
        return statistics() if callable(statistics) else None

    def _stored(self, name: str, arity: int) -> Any:
        """The relation or version behind ``name`` when its rows have
        ``arity`` columns; ``None`` when absent or of another arity."""
        if self._database is not None:
            relation = self._relation(name)
            if relation is None or relation.schema.arity != arity:
                return None
            return relation
        assert self._versions is not None
        version = self._versions.get(name)
        if version is None:
            return None
        rows = version.rows
        # Storage enforces one arity per relation: one row tells it.
        if rows and len(next(iter(rows))) != arity:
            return None
        return version

    def scan(self, name: str, arity: int) -> Collection[Row]:
        """The rows of ``name`` that have ``arity`` columns."""
        if self._mapping is None:
            stored = self._stored(name, arity)
            if stored is None:
                return ()
            return cast(
                "Collection[Row]",
                stored.tuples if self._database is not None else stored.rows,
            )
        rows = self._mapping.get(name, ())
        if all(len(row) == arity for row in rows):
            return rows
        return [row for row in rows if len(row) == arity]

    def index(
        self, name: str, positions: Sequence[int], arity: int
    ) -> Mapping[Row, Sequence[Row]]:
        """A hash index of the ``arity``-column rows of ``name`` keyed on the
        values at ``positions`` (a tuple); keys with no rows are absent.

        A database serves the relation's cached secondary index (built
        lazily, maintained under updates), a snapshot the version's memoised
        one (built lazily, once per version); a plain mapping is indexed per
        call.
        """
        key_positions = tuple(positions)
        if self._mapping is None:
            stored = self._stored(name, arity)
            if stored is None:
                return _EMPTY_INDEX
            return cast("Mapping[Row, Sequence[Row]]", stored.index_on(key_positions))
        return group_rows(self.scan(name, arity), key_positions)


# --------------------------------------------------------------------------- #
# Join ordering (the shared subset search, priced per loop)
# --------------------------------------------------------------------------- #


def order_atoms(
    atoms: Sequence[RelationAtom], source: FactsSource, first: int | None = None
) -> list[RelationAtom]:
    """The nest's join order: :func:`~repro.algebra.join_order.search_order`
    over the atoms, each step a loop over a scan or a secondary-index probe.

    An atom whose bound positions (constants, parameter slots and variables
    of earlier atoms) form key ``K`` costs one probe plus its expected
    matches per prefix row, or a full scan per prefix row when ``K`` is
    empty; the prefix then grows by the matches.  Expected matches come from
    the source's statistics, a constant key priced at the column's
    second-moment bucket (never by its value, so one order serves every
    value of a shape) and a variable key at the average bucket; without
    statistics, a relation of ``n`` rows probed on ``k`` of ``a`` columns
    is taken to match ``n ** (1 - k / a)`` rows.  Nests above
    :data:`~repro.algebra.join_order.MAX_EXACT_ITEMS` atoms are ordered by
    the search's width-1 beam.

    ``first`` keeps ``atoms[first]`` as the outermost loop and orders the
    rest per row of it: a maintenance nest's delta or seed atom reads rows
    in hand, not the relation the order is priced against, so the order
    must not depend on what the statistics say about it.
    """
    sizes = [float(source.size(atom.relation)) for atom in atoms]
    statistics = [source.statistics(atom.relation) for atom in atoms]
    matches: dict[tuple[int, tuple[int, ...]], float] = {}

    def per_key(index: int, key: tuple[int, ...]) -> float:
        estimate = matches.get((index, key))
        if estimate is None:
            atom, stats = atoms[index], statistics[index]
            if stats is None:
                estimate = float(sizes[index] ** (1.0 - len(key) / len(atom.terms)))
            else:
                constants = [p for p in key if isinstance(atom.terms[p], Constant)]
                estimate = float(stats.estimated_matches_with(key, unread=constants))
            matches[(index, key)] = estimate
        return estimate

    def extend(
        state: tuple[float, frozenset[Variable]], covered: frozenset[int], index: int
    ) -> Iterator[tuple[None, float, tuple[float, frozenset[Variable]]]]:
        rows, bound = state
        atom = atoms[index]
        key = tuple(
            position
            for position, term in enumerate(atom.terms)
            if isinstance(term, Constant) or term in bound
        )
        found = per_key(index, key) if key else sizes[index]
        cost = rows * (1.0 + found) if key else rows * found
        yield None, cost, (max(rows * found, 1e-3), bound.union(atom.variables))

    items = [index for index in range(len(atoms)) if index != first]
    start: tuple[float, frozenset[Variable]] = (1.0, frozenset())
    if first is not None:
        start = (1.0, frozenset(atoms[first].variables))
    result = search_order(items, start, extend, MAX_EXACT_ITEMS)
    assert result is not None  # every atom can always be scanned
    ordered = [atoms[index] for index, _ in result.order]
    return ordered if first is None else [atoms[first], *ordered]


# --------------------------------------------------------------------------- #
# The fused loop-nest kernel
# --------------------------------------------------------------------------- #

#: Generated nest functions by source text.  The memo is cleared, not
#: trimmed, when it reaches this many sources.
KERNEL_MEMO_LIMIT = 256
_FUNCTIONS: dict[str, Callable[..., None]] = {}

#: Loops one generated function nests.  CPython refuses more than 20
#: statically nested blocks per function, so a longer chain continues in a
#: nested helper ``_n<j>`` that takes the variables bound so far.
_LOOPS_PER_FUNCTION = 16


def _function(source: str) -> Callable[..., None]:
    """The compiled nest for ``source``, ``exec``'d once per distinct text.

    The text is generated from positions only — no runtime value is ever
    interpolated into it — so ``exec`` runs nothing but the loop nest.
    """
    function = _FUNCTIONS.get(source)
    if function is None:
        namespace: dict[str, Any] = {}
        exec(compile(source, "<repro-cq>", "exec"), namespace)  # noqa: S102
        function = cast(Callable[..., None], namespace["_nest"])
        if len(_FUNCTIONS) >= KERNEL_MEMO_LIMIT:
            _FUNCTIONS.clear()
        _FUNCTIONS[source] = function
    return function


def _tuple(exprs: Sequence[str]) -> str:
    if len(exprs) == 1:
        return f"({exprs[0]},)"
    return "(" + ", ".join(exprs) + ")"


class _Nest:
    """One normalised disjunct compiled: its function, its access paths
    (relation, key positions — ``()`` is a scan — and arity, per atom in
    join order) and its value vector (constants, with ``Param``
    placeholders at ``slots``)."""

    __slots__ = ("function", "source", "accesses", "values", "slots", "unsafe")

    def __init__(
        self,
        source: str,
        accesses: tuple[tuple[str, tuple[int, ...], int], ...],
        values: tuple[object, ...],
        slots: tuple[tuple[int, str], ...],
        unsafe: Term | None,
    ) -> None:
        self.function = _function(source)
        self.source = source
        self.accesses = accesses
        self.values = values
        self.slots = slots
        self.unsafe = unsafe

    def run(
        self,
        source: FactsSource,
        bindings: Mapping[str, object],
        out: object,
    ) -> None:
        values: Sequence[object] = self.values
        if self.slots:
            filled = list(values)
            for index, name in self.slots:
                filled[index] = bindings[name]
            values = filled
        paths = [
            source.index(relation, positions, arity)
            if positions
            else source.scan(relation, arity)
            for relation, positions, arity in self.accesses
        ]
        self.function(paths, values, out)


def _generate(
    order: Sequence[RelationAtom],
    head: Sequence[Term],
    counting: bool,
    slots: bool,
    scan_first: bool,
) -> _Nest:
    """Generate the loop nest of one normalised disjunct, atoms in ``order``.

    With ``scan_first`` the first atom's constants filter one scan instead
    of keying an index: its rows are in hand and read once per run, so
    indexing them would cost more than the one pass."""
    values: list[object] = []
    value_names: dict[tuple[type, object], str] = {}
    slot_list: list[tuple[int, str]] = []

    def constant(term: Constant) -> str:
        value = term.value
        name = value_names.get((type(value), value))
        if name is None:
            name = value_names[(type(value), value)] = f"_c{len(values)}"
            if slots and isinstance(value, Param):
                slot_list.append((len(values), value.name))
            values.append(value)
        return name

    guards: list[str] = []  # loop-invariant existence tests, run first
    helpers: list[str] = []
    body: list[str] = []
    accesses: list[tuple[str, tuple[int, ...], int]] = []
    bound: dict[Variable, str] = {}
    head_variables = {term for term in head if isinstance(term, Variable)}

    lines, indent, loops = body, 1, 0
    for j, atom in enumerate(order):
        later: set[Variable] = set(head_variables)
        for other in order[j + 1 :]:
            later.update(other.variables)
        key_positions: list[int] = []
        key_exprs: list[str] = []
        fresh: dict[Variable, str] = {}
        fresh_at: dict[Variable, int] = {}
        targets: list[str] = []
        # (position, value in the loop, value in an existence test): a
        # repeat of a fresh variable, or a filtered constant.
        checks: list[tuple[int, str, str]] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant) and scan_first and j == 0:
                name = constant(term)
                checks.append((position, name, name))
                targets.append(f"_r{j}_{position}")
            elif isinstance(term, Constant):
                key_positions.append(position)
                key_exprs.append(constant(term))
                targets.append("_")
            elif term in bound:
                key_positions.append(position)
                key_exprs.append(bound[term])
                targets.append("_")
            elif term in fresh:
                checks.append((position, fresh[term], f"_t[{fresh_at[term]}]"))
                targets.append(f"_r{j}_{position}")
            else:
                fresh[term] = f"v{len(bound) + len(fresh)}"
                fresh_at[term] = position
                targets.append(fresh[term])
        accesses.append((atom.relation, tuple(key_positions), len(atom.terms)))
        key = _tuple(key_exprs) if key_exprs else ""
        rows = f"_g{j}({key}, ())" if key else f"_p{j}"
        pad = "    " * indent
        if not counting and not later.intersection(fresh):
            # An existence test: nothing downstream reads this atom's rows.
            if checks:
                test = " and ".join(
                    f"_t[{position}] == {value}" for position, _, value in checks
                )
                failed = f"not any({test} for _t in {rows})"
            else:
                failed = f"{key} not in _p{j}" if key else f"not _p{j}"
            if not key:
                guards.append(f"    if {failed}:")
                continue
            lines.append(f"{pad}if {failed}:")
            lines.append(f"{pad}    " + ("continue" if loops else "return"))
            continue
        if loops == _LOOPS_PER_FUNCTION:
            # Continue the nest in a helper closure of the kernel.
            names = ", ".join(bound.values())
            lines.append(f"{pad}_n{j}({names})")
            helpers.append(f"    def _n{j}({names}):")
            lines, indent, loops = helpers, 2, 0
            pad = "    " * indent
        target = _tuple(targets) if targets else "()"
        lines.append(f"{pad}for {target} in {rows}:")
        indent += 1
        loops += 1
        for position, value, _ in checks:
            lines.append(f"{pad}    if _r{j}_{position} != {value}:")
            lines.append(f"{pad}        continue")
        bound.update(fresh)

    unsafe: Term | None = None
    head_exprs: list[str] = []
    for term in head:
        if isinstance(term, Constant):
            head_exprs.append(constant(term))
        elif term in bound:
            head_exprs.append(bound[term])
        else:
            # Raised only when a row reaches the head: the nest collects the
            # empty tuple instead, and the kernel raises if it got one.
            unsafe = term
            head_exprs = []
            break
    row = _tuple(head_exprs) if head_exprs else "()"
    pad = "    " * indent
    if counting:
        lines.append(f"{pad}_h = {row}")
        lines.append(f"{pad}_out[_h] = _get(_h, 0) + 1")
    else:
        lines.append(f"{pad}_add({row})")

    source = ["def _nest(_a, _c, _out):"]
    source += [f"    _c{i} = _c[{i}]" for i in range(len(values))]
    for j, (_, positions, _) in enumerate(accesses):
        source.append(f"    _p{j} = _a[{j}]")
        if positions:
            source.append(f"    _g{j} = _p{j}.get")
    source.append("    _get = _out.get" if counting else "    _add = _out.add")
    for guard in guards:
        source += [guard, "        return"]
    source += helpers
    source += body
    return _Nest(
        "\n".join(source) + "\n",
        tuple(accesses),
        tuple(values),
        tuple(slot_list),
        unsafe,
    )


class CQKernel:
    """A CQ or UCQ compiled to one fused loop nest per satisfiable disjunct.

    Data-independent: run it against any facts source — a mapping, a live
    database or a pinned snapshot — with the caller's values for its
    ``parameters`` (the ``Param`` slots, compiled with ``slots=True``).
    ``relations`` lists every body atom's relation, per disjunct as written
    (what the full-scan cost model charges).
    """

    __slots__ = ("_nests", "relations", "parameters", "compile_seconds")

    def __init__(
        self,
        nests: tuple[_Nest, ...],
        relations: tuple[str, ...],
        compile_seconds: float,
    ) -> None:
        self._nests = nests
        self.relations = relations
        self.parameters = frozenset(name for nest in nests for _, name in nest.slots)
        self.compile_seconds = compile_seconds

    @property
    def sources(self) -> tuple[str, ...]:
        """The generated source of each nest (for tests and debugging)."""
        return tuple(nest.source for nest in self._nests)

    def run(
        self, source: FactsSource, bindings: Mapping[str, object] | None = None
    ) -> set[Row]:
        """The answer set over ``source`` (a kernel compiled without
        ``counting``)."""
        answers: set[Row] = set()
        for nest in self._nests:
            if nest.unsafe is None:
                nest.run(source, bindings or {}, answers)
                continue
            reached: set[Row] = set()
            nest.run(source, bindings or {}, reached)
            if reached:
                raise EvaluationError(
                    f"unsafe head variable {nest.unsafe} has no binding"
                )
        return answers

    def count(self, source: FactsSource) -> dict[Row, int]:
        """``head row -> number of body valuations`` over ``source`` (a
        kernel compiled with ``counting``)."""
        counts: dict[Row, int] = {}
        for nest in self._nests:
            nest.run(source, {}, counts)
        return counts


def compile_cq(
    query: object,
    source: FactsSource,
    *,
    slots: bool = False,
    counting: bool = False,
    first: int | None = None,
) -> CQKernel:
    """Compile a :class:`ConjunctiveQuery` or a UCQ (anything with
    ``disjuncts``) into a :class:`CQKernel`.

    ``source`` only steers the join order (its sizes and statistics); the
    kernel runs against any source.  With ``slots``, every ``Param``
    constant is a parameter read from the bindings on each run; without,
    it is a plain value, as everywhere else in the algebra.  ``counting``
    builds a derivation counter (single CQs without an unsafe head).
    ``first`` is the index of a body atom kept as the outermost loop (see
    :func:`order_atoms`; the maintenance nests pin their delta or seed
    atom), whose constants filter a scan of its rows rather than key an
    index.
    """
    started = time.perf_counter()
    disjuncts: Sequence[ConjunctiveQuery] = getattr(query, "disjuncts", (query,))
    nests: list[_Nest] = []
    relations: list[str] = []
    for disjunct in disjuncts:
        relations.extend(atom.relation for atom in disjunct.atoms)
        if not disjunct.is_satisfiable():
            continue
        normalized = disjunct.normalize()
        order = order_atoms(normalized.atoms, source, first)
        nests.append(
            _generate(order, normalized.head, counting, slots, first is not None)
        )
    return CQKernel(tuple(nests), tuple(relations), time.perf_counter() - started)
