"""The resolve stage: everything a query costs before its plan is looked up.

Parsing the source text, the type check, the unknown-relation check, schema
validation (atom arities, safe heads), the canonical plan-cache key and the
declared ``:param`` names depend only on the input, the schema and the view
names — never on the data — so :class:`ResolveStage` computes them once per
distinct input and memoises the immutable :class:`ResolvedQuery`: under the
source string itself for text, under object identity for a held
``ConjunctiveQuery``/``UnionQuery``/``FOQuery``.  A warm string query then
costs one dict lookup before the plan cache instead of a parse, a validation
and a canonicalisation of a text whose plan is already compiled.

This is the only module of the service package that calls ``parse_query`` and
``canonical_query_key`` (lint rule ``kernel.service-resolve``): no entry point
may re-parse behind the memo.  An input that fails any check raises and is
never stored, so it fails the same way on every call.  Nothing stored depends
on data, so writes invalidate nothing here; plain ``dict`` get/set under the
GIL is all the synchronisation concurrent readers need (a racing miss
resolves twice to equal records).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...algebra.cq import ConjunctiveQuery
from ...algebra.fo import FOQuery
from ...algebra.parser import parse_query
from ...algebra.schema import DatabaseSchema
from ...algebra.terms import is_parameter
from ...algebra.ucq import UnionQuery
from ...algebra.views import ViewSet
from ...errors import QueryError
from .cache import canonical_query_key
from .planners import Query

QueryInput = str | Query

#: The memo is cleared, not trimmed, when it reaches this many inputs: a
#: working set that large gains little from the memo and the next pass over
#: a smaller one refills it at one miss per input.
RESOLVE_MEMO_LIMIT = 1024


@dataclass(frozen=True)
class ResolvedQuery:
    """One validated input: the query object, its canonical plan-cache key
    and the names of its ``:param`` placeholders."""

    query: Query
    canonical: tuple
    parameters: frozenset[str]


class ResolveStage:
    """Memoised ``parse → check → validate → canonicalise`` for one service."""

    def __init__(self, schema: DatabaseSchema, views: ViewSet) -> None:
        self._schema = schema
        self._views = views
        self._known_relations = frozenset(r.name for r in schema)
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
        record = ResolvedQuery(
            query=query,
            canonical=canonical_query_key(query),
            parameters=frozenset(
                c.value.name for c in query.constants if is_parameter(c)
            ),
        )
        if len(self._memo) >= RESOLVE_MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = record
        return record, False

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
