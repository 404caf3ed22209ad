"""Translating bounded query plans (and CQs) into SQL.

Section 5.1 of the paper describes how bounded rewriting is deployed on top
of a commercial DBMS: "this can be carried out by translating ξ into an
equivalent SQL query Q_ξ, which is passed to the underlying DBMS.  By
implementing fetch operations in terms of index joins and using join hints
or virtual views to enforce the join orders, we can enforce the DBMS to
evaluate Q_ξ by exactly following ξ."

This module performs that translation:

* :func:`plan_to_sql` — a query plan becomes a single SQL statement built
  from one common-table expression (CTE) per plan node, mirroring the plan
  tree one-to-one so the join order is syntactically pinned down; every
  ``fetch`` node is rendered as an index join and annotated with the access
  constraint that serves it;
* :func:`cq_to_sql` / :func:`ucq_to_sql` — direct SQL for CQ/UCQ queries
  (the full-scan baseline);
* :func:`create_table_statements`, :func:`create_index_statements`,
  :func:`insert_statements`, :func:`materialize_view_statements` — DDL/DML
  helpers that load a :class:`repro.storage.instance.Database`, the indices
  of an access schema and the materialised views into any SQL database.

The generated SQL sticks to the common core (CTEs, ``UNION``/``EXCEPT``,
``SELECT DISTINCT``) and is executable on SQLite out of the box, which is
what the test suite uses to cross-validate the translation against the plan
executor.  Set semantics is enforced with ``SELECT DISTINCT`` throughout,
matching the library's semantics.

Boolean (zero-attribute) plan nodes cannot become zero-column SQL relations;
they are rendered with a single marker column whose name is reported in
:class:`SQLTranslation.marker_column` (a non-empty result means *true*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..algebra.cq import ConjunctiveQuery
from ..algebra.schema import DatabaseSchema
from ..algebra.terms import Constant, Variable
from ..algebra.ucq import QueryLike, as_union
from ..algebra.views import ViewSet
from ..core.access import AccessSchema
from ..core.plans import (
    AttributeEqualsAttribute,
    AttributeEqualsConstant,
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
from ..errors import PlanError, UnsupportedQueryError
from ..storage.instance import Database


# --------------------------------------------------------------------------- #
# SQL lexical helpers
# --------------------------------------------------------------------------- #


def quote_identifier(name: str) -> str:
    """Quote an identifier for SQL (double quotes, doubling embedded quotes)."""
    return '"' + name.replace('"', '""') + '"'


def quote_literal(value: object) -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and not math.isfinite(value):
        # SQLite has no NaN (it stores one as NULL) and reads 9e999 as ∞.
        return "NULL" if math.isnan(value) else ("9e999" if value > 0 else "-9e999")
    if isinstance(value, (int, float)):
        return repr(value)
    return "'" + str(value).replace("'", "''") + "'"


def view_table_name(view_name: str) -> str:
    """The table name under which a materialised view is stored."""
    return f"mv_{view_name}"


# --------------------------------------------------------------------------- #
# Plan -> SQL
# --------------------------------------------------------------------------- #


@dataclass
class SQLTranslation:
    """A SQL rendering of a plan together with its bookkeeping.

    ``text`` is the complete statement (CTEs plus final ``SELECT``);
    ``columns`` are the output column names in order (empty for Boolean
    plans); ``marker_column`` is the name of the synthetic column emitted for
    Boolean plans (``None`` otherwise); ``fetch_comments`` lists, per fetch
    node, the access constraint annotation embedded in the SQL.
    """

    text: str
    columns: tuple[str, ...]
    marker_column: str | None = None
    fetch_comments: tuple[str, ...] = ()

    def __str__(self) -> str:
        return self.text


@dataclass
class _RenderedNode:
    """Internal: one CTE produced for a plan node."""

    cte_name: str
    columns: tuple[str, ...]
    marker: str | None


class _PlanRenderer:
    """Renders a plan tree as a ``WITH`` chain, one CTE per node."""

    def __init__(
        self,
        schema: DatabaseSchema,
        views: ViewSet | None,
        access_schema: AccessSchema | None,
    ) -> None:
        self.schema = schema
        self.views = views
        self.access_schema = access_schema
        self.ctes: list[tuple[str, str]] = []
        self.fetch_comments: list[str] = []
        self._counter = 0

    # ------------------------------------------------------------------ #

    def render(self, plan: PlanNode) -> SQLTranslation:
        rendered = self._render_node(plan)
        with_clause = ",\n".join(
            f"{name} AS (\n{body}\n)" for name, body in self.ctes
        )
        select_columns = (
            ", ".join(quote_identifier(c) for c in rendered.columns)
            if rendered.columns
            else quote_identifier(rendered.marker or "__exists")
        )
        text = f"WITH {with_clause}\nSELECT DISTINCT {select_columns} FROM {rendered.cte_name}"
        return SQLTranslation(
            text=text,
            columns=rendered.columns,
            marker_column=rendered.marker if not rendered.columns else None,
            fetch_comments=tuple(self.fetch_comments),
        )

    # ------------------------------------------------------------------ #

    def _fresh_cte(self) -> str:
        self._counter += 1
        return f"s{self._counter}"

    def _emit(self, body: str, columns: Sequence[str], marker: str | None) -> _RenderedNode:
        name = self._fresh_cte()
        self.ctes.append((name, body))
        return _RenderedNode(cte_name=name, columns=tuple(columns), marker=marker)

    def _marker_name(self) -> str:
        return f"__exists_{self._counter + 1}"

    @staticmethod
    def _column_list(rendered: _RenderedNode, alias: str | None = None) -> str:
        prefix = f"{alias}." if alias else ""
        names = rendered.columns if rendered.columns else (rendered.marker,)
        return ", ".join(f"{prefix}{quote_identifier(str(n))}" for n in names)

    # ------------------------------------------------------------------ #

    def _render_node(self, node: PlanNode) -> _RenderedNode:
        if isinstance(node, ConstantScan):
            column = node.attribute
            body = f"  SELECT {quote_literal(node.value)} AS {quote_identifier(column)}"
            return self._emit(body, (column,), None)

        if isinstance(node, ViewScan):
            table = view_table_name(node.view_name)
            columns = node.view_attributes
            if columns:
                select_list = ", ".join(quote_identifier(c) for c in columns)
                body = f"  SELECT DISTINCT {select_list} FROM {quote_identifier(table)}"
                return self._emit(body, columns, None)
            marker = self._marker_name()
            body = (
                f"  SELECT DISTINCT 1 AS {quote_identifier(marker)} "
                f"FROM {quote_identifier(table)}"
            )
            return self._emit(body, (), marker)

        if isinstance(node, FetchNode):
            return self._render_fetch(node)

        if isinstance(node, ProjectNode):
            child = self._render_node(node.child)
            if node.kept:
                select_list = ", ".join(quote_identifier(c) for c in node.kept)
                body = f"  SELECT DISTINCT {select_list} FROM {child.cte_name}"
                return self._emit(body, node.kept, None)
            marker = self._marker_name()
            body = f"  SELECT DISTINCT 1 AS {quote_identifier(marker)} FROM {child.cte_name}"
            return self._emit(body, (), marker)

        if isinstance(node, SelectNode):
            child = self._render_node(node.child)
            conditions = " AND ".join(self._predicate_sql(p) for p in node.predicates)
            body = (
                f"  SELECT DISTINCT {self._column_list(child)} FROM {child.cte_name}"
                f" WHERE {conditions}"
            )
            return self._emit(body, child.columns, child.marker)

        if isinstance(node, RenameNode):
            child = self._render_node(node.child)
            if not child.columns:
                body = f"  SELECT DISTINCT {self._column_list(child)} FROM {child.cte_name}"
                return self._emit(body, (), child.marker)
            mapping = dict(node.mapping)
            select_parts = []
            for old in child.columns:
                new = mapping.get(old, old)
                if new == old:
                    select_parts.append(quote_identifier(old))
                else:
                    select_parts.append(f"{quote_identifier(old)} AS {quote_identifier(new)}")
            body = f"  SELECT DISTINCT {', '.join(select_parts)} FROM {child.cte_name}"
            return self._emit(body, node.attributes, child.marker)

        if isinstance(node, ProductNode):
            left = self._render_node(node.left)
            right = self._render_node(node.right)
            parts = []
            if left.columns:
                parts.append(self._column_list(left, "l"))
            if right.columns:
                parts.append(self._column_list(right, "r"))
            columns = left.columns + right.columns
            marker = None
            if not parts:
                marker = self._marker_name()
                parts.append(f"1 AS {quote_identifier(marker)}")
            body = (
                f"  SELECT DISTINCT {', '.join(parts)} "
                f"FROM {left.cte_name} AS l, {right.cte_name} AS r"
            )
            return self._emit(body, columns, marker)

        if isinstance(node, (UnionNode, DifferenceNode)):
            left = self._render_node(node.left)
            right = self._render_node(node.right)
            keyword = "UNION" if isinstance(node, UnionNode) else "EXCEPT"
            body = (
                f"  SELECT DISTINCT {self._column_list(left)} FROM {left.cte_name}\n"
                f"  {keyword}\n"
                f"  SELECT DISTINCT {self._column_list(right)} FROM {right.cte_name}"
            )
            return self._emit(body, left.columns, left.marker)

        raise PlanError(f"unknown plan node type {type(node).__name__}")

    # ------------------------------------------------------------------ #

    def _render_fetch(self, node: FetchNode) -> _RenderedNode:
        relation = self.schema.relation(node.relation)
        comment = ""
        if self.access_schema is not None:
            constraint = node.covering_constraint(self.access_schema)
            if constraint is not None:
                comment = f" /* index join via {constraint} */"
                self.fetch_comments.append(str(constraint))
        output_columns = node.attributes
        select_parts = []
        for attribute in output_columns:
            select_parts.append(f"r.{quote_identifier(attribute)}")
        if node.child is None:
            body = (
                f"  SELECT DISTINCT {', '.join(select_parts)}"
                f" FROM {quote_identifier(node.relation)} AS r{comment}"
            )
            return self._emit(body, output_columns, None)
        child = self._render_node(node.child)
        join_conditions = " AND ".join(
            f"r.{quote_identifier(attr)} = c.{quote_identifier(attr)}"
            for attr in node.x_attrs
        )
        body = (
            f"  SELECT DISTINCT {', '.join(select_parts)}"
            f" FROM {child.cte_name} AS c JOIN {quote_identifier(node.relation)} AS r"
            f" ON {join_conditions}{comment}"
        )
        del relation
        return self._emit(body, output_columns, None)

    @staticmethod
    def _predicate_sql(predicate) -> str:
        if isinstance(predicate, AttributeEqualsConstant):
            operator = "<>" if predicate.negated else "="
            return f"{quote_identifier(predicate.attribute)} {operator} {quote_literal(predicate.value)}"
        if isinstance(predicate, AttributeEqualsAttribute):
            operator = "<>" if predicate.negated else "="
            return f"{quote_identifier(predicate.left)} {operator} {quote_identifier(predicate.right)}"
        raise PlanError(f"unknown predicate type {type(predicate).__name__}")


def plan_to_sql(
    plan: PlanNode,
    schema: DatabaseSchema,
    views: ViewSet | None = None,
    access_schema: AccessSchema | None = None,
) -> SQLTranslation:
    """Translate a query plan into a single SQL statement (one CTE per node).

    ``views`` is only used for validation of view arities (the SQL references
    the materialised view tables, see :func:`materialize_view_statements`);
    ``access_schema`` adds an index-join annotation to every fetch.
    """
    if views is not None:
        plan.validate(schema, views, None)
    return _PlanRenderer(schema, views, access_schema).render(plan)


# --------------------------------------------------------------------------- #
# CQ / UCQ -> SQL (the full-scan baseline)
# --------------------------------------------------------------------------- #


def cq_to_sql(query: ConjunctiveQuery, schema: DatabaseSchema) -> str:
    """Translate a CQ into a ``SELECT DISTINCT`` over joined relation aliases.

    Boolean queries produce ``SELECT DISTINCT 1 AS "__exists" ...``; the query
    is true on a database iff the statement returns a (single) row.
    """
    if not query.is_satisfiable():
        raise UnsupportedQueryError(f"query {query.name!r} is unsatisfiable")
    normalized = query.normalize()
    aliases: list[str] = []
    from_parts: list[str] = []
    where_parts: list[str] = []
    binding: dict[Variable, str] = {}

    for index, atom in enumerate(normalized.atoms):
        alias = f"t{index}"
        aliases.append(alias)
        from_parts.append(f"{quote_identifier(atom.relation)} AS {alias}")
        relation = schema.relation(atom.relation)
        for position, term in enumerate(atom.terms):
            column = f"{alias}.{quote_identifier(relation.attributes[position])}"
            if isinstance(term, Constant):
                where_parts.append(f"{column} = {quote_literal(term.value)}")
            else:
                if term in binding:
                    where_parts.append(f"{column} = {binding[term]}")
                else:
                    binding[term] = column

    select_parts: list[str] = []
    for position, term in enumerate(normalized.head):
        alias = f"a{position}"
        if isinstance(term, Constant):
            select_parts.append(f"{quote_literal(term.value)} AS {quote_identifier(alias)}")
        else:
            if term not in binding:
                raise UnsupportedQueryError(
                    f"head variable {term} of {query.name!r} does not occur in the body"
                )
            select_parts.append(f"{binding[term]} AS {quote_identifier(alias)}")
    if not select_parts:
        select_parts.append(f"1 AS {quote_identifier('__exists')}")

    text = "SELECT DISTINCT " + ", ".join(select_parts)
    if from_parts:
        text += " FROM " + ", ".join(from_parts)
    if where_parts:
        text += " WHERE " + " AND ".join(where_parts)
    return text


def ucq_to_sql(query: QueryLike, schema: DatabaseSchema) -> str:
    """Translate a CQ/UCQ into SQL (disjuncts combined with ``UNION``)."""
    union = as_union(query)
    parts = [cq_to_sql(d, schema) for d in union.satisfiable_disjuncts()]
    if not parts:
        raise UnsupportedQueryError(f"query {union.name!r} has no satisfiable disjunct")
    return "\nUNION\n".join(parts)


# --------------------------------------------------------------------------- #
# DDL / DML helpers
# --------------------------------------------------------------------------- #


def create_table_statements(schema: DatabaseSchema) -> list[str]:
    """``CREATE TABLE`` statements for every relation of the schema."""
    statements = []
    for relation in schema:
        columns = ", ".join(quote_identifier(a) for a in relation.attributes)
        statements.append(
            f"CREATE TABLE {quote_identifier(relation.name)} ({columns})"
        )
    return statements


def create_index_statements(access_schema: AccessSchema, schema: DatabaseSchema) -> list[str]:
    """``CREATE INDEX`` statements realising the indices of the access schema.

    One composite index per constraint, on the constraint's ``X`` attributes
    (constraints with empty ``X`` need no index: they are single lookups).
    """
    access_schema.validate(schema)
    statements = []
    for number, constraint in enumerate(access_schema):
        if not constraint.x:
            continue
        columns = ", ".join(quote_identifier(a) for a in constraint.x)
        statements.append(
            f"CREATE INDEX {quote_identifier(f'idx_{constraint.relation}_{number}')} "
            f"ON {quote_identifier(constraint.relation)} ({columns})"
        )
    return statements


def insert_statements(database: Database) -> list[tuple[str, list[tuple]]]:
    """Parameterised ``INSERT`` statements (statement, rows) for a database.

    Returned as ``executemany``-ready pairs so loading stays fast and safe
    from quoting issues.
    """
    statements: list[tuple[str, list[tuple]]] = []
    for name, rows in database.facts.items():
        if not rows:
            continue
        relation = database.schema.relation(name)
        placeholders = ", ".join("?" for _ in relation.attributes)
        statements.append(
            (
                f"INSERT INTO {quote_identifier(name)} VALUES ({placeholders})",
                [tuple(row) for row in rows],
            )
        )
    return statements


def materialize_view_statements(
    views: ViewSet, view_cache: Mapping[str, Sequence[tuple]]
) -> list[tuple[str, str, list[tuple]]]:
    """DDL + DML for materialised views: (create statement, insert statement, rows).

    ``view_cache`` maps view names to their computed rows (e.g.
    :attr:`repro.engine.service.QueryService.view_cache`).
    """
    statements: list[tuple[str, str, list[tuple]]] = []
    for view in views:
        table = view_table_name(view.name)
        attributes = view.attributes if view.arity else ("__exists",)
        columns = ", ".join(quote_identifier(a) for a in attributes)
        create = f"CREATE TABLE {quote_identifier(table)} ({columns})"
        placeholders = ", ".join("?" for _ in attributes)
        insert = f"INSERT INTO {quote_identifier(table)} VALUES ({placeholders})"
        rows = [tuple(row) if row else (1,) for row in view_cache.get(view.name, ())]
        statements.append((create, insert, rows))
    return statements
