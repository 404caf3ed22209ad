"""Shared fixtures: small schemas, databases and the Example 1.1 workload,
plus two references the engine is checked against: the SQL oracle
(Section 5.1's translation run on stdlib ``sqlite3``) and the ``Dξ``
reference (Section 2's plan semantics, evaluated node by node)."""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest

from repro.algebra.atoms import RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.fo import FOQuery, to_ucq
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Variable
from repro.algebra.ucq import as_union
from repro.algebra.views import View, ViewSet
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.plan_eval import ExecutionResult, bind_plan, plan_parameters
from repro.core.plans import (
    AttributeEqualsConstant,
    ConstantScan,
    DifferenceNode,
    FetchNode,
    ProductNode,
    ProjectNode,
    RenameNode,
    SelectNode,
    UnionNode,
    ViewScan,
)
from repro.engine.service import HeuristicPlanner, QueryService
from repro.engine.service.resolve import ResolveStage
from repro.engine.sql import (
    create_index_statements,
    create_table_statements,
    insert_statements,
    materialize_view_statements,
    plan_to_sql,
    ucq_to_sql,
)
from repro.errors import PlanError
from repro.exec.iometer import IOMeter
from repro.storage.instance import Database
from repro.storage.snapshots import RelationVersion
from repro.workloads import graph_search, skewed


# --------------------------------------------------------------------------- #
# The SQL oracle
# --------------------------------------------------------------------------- #


class PerValueHeuristic:
    """``HeuristicPlanner`` minus the ``constant_blind`` declaration: a chain
    holding it plans every query as written, once per value."""

    name = HeuristicPlanner.name
    signature = ("per-value", HeuristicPlanner.name)

    def __init__(self) -> None:
        self._inner = HeuristicPlanner()

    def can_plan(self, query):
        return self._inner.can_plan(query)

    def plan(self, query, head, max_size, context):
        return self._inner.plan(query, head, max_size, context)


def load_sqlite(database, access_schema=None, views=None, view_cache=None):
    """Create an in-memory SQLite database mirroring ``database`` (+ views)."""
    connection = sqlite3.connect(":memory:")
    for statement in create_table_statements(database.schema):
        connection.execute(statement)
    if access_schema is not None:
        for statement in create_index_statements(access_schema, database.schema):
            connection.execute(statement)
    for statement, rows in insert_statements(database):
        connection.executemany(statement, rows)
    if views is not None:
        for create, insert, rows in materialize_view_statements(views, view_cache or {}):
            connection.execute(create)
            if rows:
                connection.executemany(insert, rows)
    connection.commit()
    return connection


class SQLOracle:
    """A service's answers recomputed by SQL, independently of the kernel.

    Loads the service's database, access-constraint indexes and
    materialised views into stdlib ``sqlite3`` and runs
    ``plan_to_sql(answer.plan)`` for a bounded answer, ``ucq_to_sql(query)``
    for a fallback.  The connection is rebuilt once per data version: when
    a relation's rows or a view's rows are a different set than at the last
    load, whichever path wrote them.
    """

    def __init__(self, service: QueryService) -> None:
        self.service = service
        self._resolver = ResolveStage(service.database.schema, service.views)
        self._loaded: tuple = ()
        self._connection: sqlite3.Connection | None = None
        self.loads = 0

    def connection(self) -> sqlite3.Connection:
        service = self.service
        state = (
            *service.database.facts.values(),
            *service.view_cache.values(),
        )
        if self._connection is None or len(state) != len(self._loaded) or any(
            now is not then for now, then in zip(state, self._loaded)
        ):
            if self._connection is not None:
                self._connection.close()
            self._connection = load_sqlite(
                service.database, service.access_schema, service.views, service.view_cache
            )
            self._loaded = state
            self.loads += 1
        return self._connection

    def _run(self, text: str, boolean: bool) -> frozenset[tuple]:
        fetched = self.connection().execute(text).fetchall()
        if boolean:
            return frozenset({()} if fetched else ())
        return frozenset(tuple(row) for row in fetched)

    def plan_rows(self, plan, params=None) -> frozenset[tuple]:
        """The rows of ``plan`` (its ``Param`` placeholders bound by
        ``params``) through :func:`plan_to_sql`."""
        if params:
            plan = bind_plan(plan, dict(params))
        service = self.service
        translation = plan_to_sql(
            plan, service.database.schema, service.views, service.access_schema
        )
        return self._run(translation.text, translation.marker_column is not None)

    def query_rows(self, query, params=None) -> frozenset[tuple]:
        """The rows of a CQ/UCQ (object or text, or a positive-existential
        FO query) through :func:`ucq_to_sql`: the full-scan reading."""
        record, _ = self._resolver.resolve(query)
        bound = record.bound_query(params)
        if isinstance(bound, FOQuery):
            bound = to_ucq(bound, sorted(bound.free_variables, key=lambda v: v.name))
        union = as_union(bound)
        return self._run(
            ucq_to_sql(union, self.service.database.schema), union.is_boolean
        )

    def rows(self, answer, query, params=None) -> frozenset[tuple]:
        """What SQL answers for ``answer``: its plan's rows when it is
        bounded, the query's when it fell back."""
        if answer.used_bounded_plan:
            return self.plan_rows(answer.plan, params)
        return self.query_rows(query, params)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


# --------------------------------------------------------------------------- #
# The Dξ reference
# --------------------------------------------------------------------------- #


def reference(plan, access_schema, provider, view_cache) -> ExecutionResult:
    """Evaluate ``plan`` bottom-up by the letter of Section 2.

    Set semantics throughout, and every node occurrence is evaluated on its
    own (no shared subexpressions).  A fetch probes ``provider.fetch`` once
    per distinct key of its input, or once with ``()`` when it has no
    input, and charges each probe to the meter; a view scan charges ``|V|``
    per occurrence, except below a ``σ`` with non-negated constant checks
    (through a ``π``/``ρ`` chain): that ``σ`` charges the view rows meeting
    those checks, and nothing else.  Written for clarity, not speed: the
    compiled closures' rows and every meter field must equal what this
    returns.
    """
    unbound = plan_parameters(plan)
    if unbound:
        raise PlanError(f"plan has unbound parameters {sorted(unbound)}")
    meter = IOMeter()

    def column(attributes, attribute):
        if attribute not in attributes:
            raise PlanError(f"attribute {attribute!r} is not in {attributes}")
        return attributes.index(attribute)

    def holds(predicate, attributes, row):
        if isinstance(predicate, AttributeEqualsConstant):
            equal = row[column(attributes, predicate.attribute)] == predicate.value
        else:
            equal = (
                row[column(attributes, predicate.left)]
                == row[column(attributes, predicate.right)]
            )
        return equal != predicate.negated

    def view_rows(node) -> frozenset[tuple]:
        if node.view_name not in view_cache:
            raise PlanError(f"view {node.view_name!r} is not materialised")
        return view_cache[node.view_name]

    def chain_leaf(node):
        while isinstance(node, (ProjectNode, RenameNode)):
            node = node.child
        return node

    def through(node, rows) -> set[tuple]:
        """View rows carried up the ``π``/``ρ`` chain ``node``."""
        if isinstance(node, ProjectNode):
            inputs = node.child.attributes
            return {
                tuple(row[column(inputs, a)] for a in node.kept)
                for row in through(node.child, rows)
            }
        if isinstance(node, RenameNode):
            return through(node.child, rows)
        return set(rows)

    def run(node) -> set[tuple]:
        if isinstance(node, ConstantScan):
            return {(node.value,)}
        if isinstance(node, ViewScan):
            rows = view_rows(node)
            meter.record_view_scan(len(rows))
            return set(rows)
        if isinstance(node, FetchNode):
            constraint = node.covering_constraint(access_schema)
            if constraint is None:
                raise PlanError(f"fetch on {node.relation!r} has no covering constraint")
            keys = {()}
            if node.child is not None:
                inputs = node.child.attributes
                keys = {
                    tuple(row[column(inputs, a)] for a in constraint.x)
                    for row in run(node.child)
                }
            outputs = constraint.output_attributes
            rows = set()
            for key in keys:
                fetched = provider.fetch(constraint, key)
                meter.record_fetch(node.relation, len(fetched))
                rows |= {
                    tuple(row[column(outputs, a)] for a in node.attributes)
                    for row in fetched
                }
            return rows
        if isinstance(node, ProjectNode):
            inputs = node.child.attributes
            return {
                tuple(row[column(inputs, a)] for a in node.kept) for row in run(node.child)
            }
        if isinstance(node, SelectNode):
            inputs = node.child.attributes
            keyed = [
                p
                for p in node.predicates
                if isinstance(p, AttributeEqualsConstant) and not p.negated
            ]
            leaf = chain_leaf(node.child)
            if keyed and isinstance(leaf, ViewScan):
                rows = view_rows(leaf)
                meter.record_view_scan(
                    sum(
                        all(holds(p, inputs, row) for p in keyed)
                        for view_row in rows
                        for row in through(node.child, {view_row})
                    )
                )
                child = through(node.child, rows)
            else:
                child = run(node.child)
            return {
                row for row in child if all(holds(p, inputs, row) for p in node.predicates)
            }
        if isinstance(node, RenameNode):
            return run(node.child)
        if isinstance(node, ProductNode):
            left, right = run(node.left), run(node.right)
            return {a + b for a in left for b in right}
        if isinstance(node, UnionNode):
            return run(node.left) | run(node.right)
        if isinstance(node, DifferenceNode):
            return run(node.left) - run(node.right)
        raise PlanError(f"unknown plan node type {type(node).__name__}")

    rows = frozenset(run(plan))
    return ExecutionResult(attributes=plan.attributes, rows=rows, stats=meter)


def view_versions(view_cache):
    """View rows → the published versions a compiled closure reads."""
    return {name: RelationVersion(frozenset(rows)) for name, rows in view_cache.items()}


def folded_statistics(relation):
    """A relation's exact column statistics once the writes since the last
    read are folded in: per column its value counts, the cardinality, and
    per column the running sum of squared counts (private fields on
    purpose: this maintained state is what is compared)."""
    with relation._build_lock:
        relation._fold_statistics()
    return relation._value_counts, len(relation), relation._square_sums


def scanned_statistics(relation):
    """:func:`folded_statistics` recomputed from a fresh scan of the rows."""
    counts = [
        Counter(row[position] for row in relation)
        for position in range(relation.schema.arity)
    ]
    return (
        [dict(per_value) for per_value in counts],
        len(relation),
        [sum(count * count for count in per_value.values()) for per_value in counts],
    )


@pytest.fixture
def rs_schema():
    """A tiny two-relation schema R(a, b), S(b, c) used across unit tests."""
    return schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})


@pytest.fixture
def rs_database(rs_schema):
    db = Database(rs_schema)
    db.add_many("R", [(1, 10), (1, 11), (2, 20), (3, 30)])
    db.add_many("S", [(10, "x"), (11, "y"), (20, "z"), (99, "w")])
    return db


@pytest.fixture
def rs_access_schema():
    """R(a -> b, 2) and S(b -> c, 1): satisfied by ``rs_database``."""
    return AccessSchema(
        (
            AccessConstraint("R", ("a",), ("b",), 2),
            AccessConstraint("S", ("b",), ("c",), 1),
        )
    )


@pytest.fixture
def path_query():
    """Q(a, c) :- R(a, b), S(b, c)."""
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    return ConjunctiveQuery(
        head=(a, c),
        atoms=(RelationAtom("R", (a, b)), RelationAtom("S", (b, c))),
        name="path",
    )


@pytest.fixture
def anchored_path_query():
    """Q(c) :- R(1, b), S(b, c) — anchored by the constant, hence bounded."""
    b, c = Variable("b"), Variable("c")
    return ConjunctiveQuery(
        head=(c,),
        atoms=(RelationAtom("R", (Constant(1), b)), RelationAtom("S", (b, c))),
        name="anchored_path",
    )


# --------------------------------------------------------------------------- #
# Example 1.1 fixtures (small scale so every test stays fast)
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="session")
def gs_instance():
    return graph_search.generate(num_persons=200, num_movies=120, seed=5)


@pytest.fixture(scope="session")
def gs_schema():
    return graph_search.schema()


@pytest.fixture(scope="session")
def gs_access():
    return graph_search.access_schema(n0=100)


@pytest.fixture(scope="session")
def gs_views():
    return graph_search.views()


@pytest.fixture(scope="session")
def gs_q0():
    return graph_search.query_q0()


@pytest.fixture
def gs_1000():
    """1000 persons / 500 movies, seed 11 — the instance the pinned figures
    (Q0: 3 rows for Dξ 27) are defined on; built per test (12 ms), so a test
    may write to it."""
    return graph_search.generate(num_persons=1000, num_movies=500, seed=11)


def interpreted(service, query, params=None):
    """The reference answer for ``query`` on ``service``: its cached plan
    (bound by ``params``) run through :func:`reference` over the service's
    indexes and views, instead of the compiled closure that serves it."""
    entry, _ = service.plan(query)
    plan = bind_plan(entry.plan, dict(params)) if params else entry.plan
    return reference(plan, service.access_schema, service.indexes, service.view_cache)


@pytest.fixture(params=["index_set", "snapshot"])
def gs_provider(request, gs_instance, gs_access):
    """``(provider, service)`` over ``gs_instance`` for each fetch provider
    a compiled closure meets: a service's ``indexes`` (the ``IndexSet``
    facade over its snapshots), and its published snapshot read directly."""
    with QueryService(gs_instance.database, gs_access, graph_search.views()) as service:
        provider = (
            service._snapshots.reader()
            if request.param == "snapshot"
            else service.indexes
        )
        yield provider, service


@pytest.fixture(scope="session")
def skewed_small():
    """The social-feed instance at smoke size (100 hot fans, 1000 users):
    its feed query plans a join whose key spans two product factors."""
    return skewed.generate(hot_fans=100, users=1000, seed=11)


@pytest.fixture(scope="session")
def gs_mix(gs_q0):
    """Q0 and two keyed lookups, four times over: 24 rows for Dξ 288 on
    ``gs_1000``."""
    return [
        gs_q0,
        "Q(mid) :- movie(mid, t, 'Universal', '2014'), rating(mid, 5)",
        "Q(mid) :- movie(mid, t, 'Universal', '2013'), rating(mid, 4)",
    ] * 4
