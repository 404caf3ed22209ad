"""The resolve stage: everything a query costs before its plan is looked up.

Parsing the source text, the type check, the unknown-relation check, schema
validation (atom arities, safe heads), the plan-cache key and the declared
``:param`` names depend only on the input, the schema and the views — never
on the data — so :class:`ResolveStage` computes them once per distinct input
and memoises the :class:`ResolvedQuery`: under the source string itself for
text, under object identity for a held
``ConjunctiveQuery``/``UnionQuery``/``FOQuery``.  A warm string query then
costs one dict lookup before the plan cache instead of a parse, a validation
and a canonicalisation of a text whose plan is already compiled.

The key is that of the query's *shape*.  Whether a bounded rewriting exists,
and which one the builders find, depends on which positions hold constants
and on whether a constant meets one written in a view definition — never on
the value itself.  So every liftable constant of a CQ/UCQ becomes an
auto-parameter slot ``$0, $1, …`` (equal values share a slot: the shape keeps
the equality pattern), the record carries the binding vector ``slot →
value``, and the service plans a shape once and executes it with each input's
bindings, the way it always executed a ``PreparedQuery``.  A constant stays
literal exactly when it can matter to planning: it equals a constant of some
view definition, or it is a declared ``:name`` parameter already.  FO queries
are not lifted.

This is the only module of the service package that calls ``parse_query`` and
``canonical_query_key`` or constructs a ``Param`` (lint rule
``kernel.service-resolve``): no entry point may re-parse, mint a slot or
build a binding vector behind the memo.  An input that fails any check raises
and is never stored, so it fails the same way on every call.  Nothing stored
depends on data, so writes invalidate nothing here; plain ``dict`` get/set
under the GIL is all the synchronisation concurrent readers need (a racing
miss resolves twice to equal records).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ...algebra.cq import ConjunctiveQuery
from ...algebra.fo import FOQuery
from ...algebra.parser import parse_query
from ...algebra.schema import DatabaseSchema
from ...algebra.terms import Constant, Param, Term
from ...algebra.ucq import UnionQuery
from ...algebra.views import ViewSet
from ...core.plan_eval import bind_plan
from ...core.plans import PlanNode
from ...errors import QueryError
from .cache import CachedPlan, canonical_query_key
from .planners import Query

QueryInput = str | Query

#: The memo is cleared, not trimmed, when it reaches this many inputs: a
#: working set that large gains little from the memo and the next pass over
#: a smaller one refills it at one miss per input.
RESOLVE_MEMO_LIMIT = 1024

#: Auto-parameter slots are named ``$0, $1, …``: the ``:name`` grammar cannot
#: produce a ``$``, so a slot never collides with a declared parameter.
SLOT_PREFIX = "$"
_SLOTS = tuple(Param(f"{SLOT_PREFIX}{index}") for index in range(16))


def _substitute(query: Query, mapping: Mapping[Term, Term]) -> Query:
    """Replace constants of a query wherever they occur."""
    if isinstance(query, UnionQuery):
        return UnionQuery(
            tuple(d.substitute(mapping) for d in query.disjuncts), name=query.name
        )
    return query.substitute(mapping)


@dataclass
class ResolvedQuery:
    """One validated input: the query as written (what the full-scan
    fallback, lints and messages read), the canonical key of its shape, the
    lifted values by slot name and the *declared* ``:name`` placeholders —
    the slots are never a caller's business."""

    query: Query
    shape_key: tuple
    bindings: Mapping[str, object]
    parameters: frozenset[str]
    # Memos, each dropped when the thing it was derived from is replaced.
    _shape: Query | None = field(default=None, repr=False, compare=False)
    _literal: tuple | None = field(default=None, repr=False, compare=False)
    _view: "EntryView | None" = field(default=None, repr=False, compare=False)

    @property
    def shape(self) -> Query:
        """What a constant-blind chain plans: the query with each lifted
        constant replaced by its slot (built on first use — a never-seen
        text of a planned shape is served without it)."""
        if not self.bindings:
            return self.query
        shape = self._shape
        if shape is None:
            shape = self._shape = _substitute(
                self.query,
                {
                    Constant(value): Constant(Param(slot))
                    for slot, value in self.bindings.items()
                },
            )
        return shape

    @property
    def canonical(self) -> tuple:
        """The literal-sensitive key: what a value-reading chain is keyed by."""
        return (self.shape_key, tuple(self.bindings.values()))

    def literal_plan(self, entry: CachedPlan) -> PlanNode:
        """The entry's plan as a self-contained plan of this input: lifted
        values put back, declared parameters left as placeholders.

        ``bind_plan`` costs more than a compiled execution, so nothing on the
        compiled serving path calls this (:attr:`Answer.plan` does, on first
        read) and the result is memoised per plan object.  The entry
        remembers its latest binding too, so an equal query held as another
        object gets the very same plan back.
        """
        plan = entry.plan
        assert plan is not None
        if not self.bindings:
            return plan
        memo = self._literal
        if memo is None or memo[0] is not plan:
            values = tuple(self.bindings.values())
            latest = entry.literal
            if latest is None or latest[0] is not plan or latest[1] != values:
                declared = {name: Param(name) for name in self.parameters}
                bound = bind_plan(plan, {**declared, **self.bindings})
                latest = entry.literal = (plan, values, bound)
            memo = self._literal = (plan, latest[2])
        return memo[1]

    def view_of(self, entry: CachedPlan) -> "CachedPlan | EntryView":
        """``entry`` as this input sees it (the same view every time)."""
        if not self.bindings:
            return entry
        view = self._view
        if view is None or view._entry is not entry:
            view = self._view = EntryView(entry, self)
        return view

    def spell(self, text: str) -> str:
        """``text`` — a planner's words about the shape — with this input's
        values in place of the slot names (``$10`` before ``$1``)."""
        for slot, value in reversed(self.bindings.items()):
            text = text.replace(f":{slot}", repr(value))
        return text

    def bound_query(self, params: Mapping[str, object] | None) -> Query:
        """The query as written, with values for its declared parameters."""
        if not params:
            return self.query
        return _substitute(
            self.query,
            {Constant(Param(name)): Constant(value) for name, value in params.items()},
        )


class EntryView:
    """A cache entry shared across constants as one input sees it — what
    :meth:`QueryService.plan` hands out.  Every attribute reads and writes
    through to the live entry, except that ``plan`` comes back with the
    input's own constants, so it executes and verifies stand-alone."""

    def __init__(self, entry: CachedPlan, record: ResolvedQuery) -> None:
        self.__dict__.update(_entry=entry, _record=record)

    def __getattr__(self, name: str) -> object:
        if name.startswith("_"):  # copy/pickle probes on a bare instance
            raise AttributeError(name)
        value = getattr(self._entry, name)
        if name == "plan" and value is not None:
            value = self._record.literal_plan(self._entry)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        setattr(self._entry, name, value)


class ResolveStage:
    """Memoised ``parse → check → validate → shape`` for one service."""

    def __init__(self, schema: DatabaseSchema, views: ViewSet) -> None:
        self._schema = schema
        self._views = views
        self._known_relations = frozenset(r.name for r in schema)
        # Values a view definition mentions stay literal in every shape.
        self._view_constants: frozenset[object] = frozenset(
            constant.value
            for view in views
            for constant in (
                *view.definition.constants,
                *(t for t in view.head if isinstance(t, Constant)),
            )
        )
        # Source strings and id()s of held query objects share the dict: a
        # str key never equals an int key.  An identity record holds its
        # query object, so the id cannot be reused while the record lives.
        self._memo: dict[str | int, ResolvedQuery] = {}

    def __len__(self) -> int:
        return len(self._memo)

    def resolve(self, source: QueryInput) -> tuple[ResolvedQuery, bool]:
        """The record for ``source`` and whether the memo served it."""
        is_text = isinstance(source, str)
        key = source if is_text else id(source)
        record = self._memo.get(key)
        if record is not None and (is_text or record.query is source):
            return record, True
        query = parse_query(source) if is_text else source
        self._check(query)
        record = self._shape(query)
        if len(self._memo) >= RESOLVE_MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = record
        return record, False

    def _shape(self, query: Query) -> ResolvedQuery:
        """Key a query by its shape and collect the values lifted out of it,
        in one canonicalisation walk: slots are numbered by first occurrence
        in canonical order, so inputs that differ only in liftable values,
        variable names or how an equality is written share a shape key."""
        literal = self._view_constants
        slots: dict[object, Param] = {}
        declared: set[str] = set()

        def lift(value: object) -> object:
            if isinstance(value, Param):
                declared.add(value.name)
            elif value not in literal:
                slot = slots.get(value)
                if slot is None:
                    index = len(slots)
                    slot = slots[value] = (
                        _SLOTS[index]
                        if index < len(_SLOTS)
                        else Param(f"{SLOT_PREFIX}{index}")
                    )
                return slot
            return value

        shape_key = canonical_query_key(query, lift)
        disjuncts = getattr(query, "disjuncts", (query,))
        if isinstance(query, FOQuery) or any(d.equalities for d in disjuncts):
            # The walk does not visit an FO formula, nor an equality that
            # normalisation folded away without a trace.
            declared.update(
                c.value.name for c in query.constants if isinstance(c.value, Param)
            )
        if declared and any(name.startswith(SLOT_PREFIX) for name in declared):
            raise QueryError(
                f"parameter names starting with {SLOT_PREFIX!r} are reserved for "
                f"the service's own auto-parameter slots, got {sorted(declared)}"
            )
        return ResolvedQuery(
            query=query,
            shape_key=shape_key,
            bindings={slot.name: value for value, slot in slots.items()},
            parameters=frozenset(declared),
        )

    def _check(self, query: object) -> None:
        """Reject what can never be answered: a non-query, an unknown
        relation, an atom of the wrong arity, an unsafe head."""
        if not isinstance(query, (ConjunctiveQuery, UnionQuery, FOQuery)):
            raise QueryError(
                f"cannot answer a query of type {type(query).__name__}; expected "
                "a CQ, UCQ, FO query or a source string"
            )
        unknown = sorted(query.relation_names - self._known_relations)
        if isinstance(query, FOQuery):
            # Topped queries are written over R ∪ V (Section 5).
            unknown = [name for name in unknown if name not in self._views]
        if unknown:
            hint = ""
            if any(name in self._views for name in unknown):
                hint = (
                    "; views are scanned by plans automatically and cannot be "
                    "queried as atoms in a CQ/UCQ — write the query over the "
                    "base relations"
                )
            raise QueryError(f"query references unknown relations {unknown}{hint}")
        if not isinstance(query, FOQuery):
            query.validate(self._schema)
