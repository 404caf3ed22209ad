"""Shared fixtures: small schemas, databases and the Example 1.1 workload."""

from __future__ import annotations

import pytest

from repro.algebra.atoms import RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Variable
from repro.algebra.views import View, ViewSet
from repro.core.access import AccessConstraint, AccessSchema
from repro.engine.service import QueryService
from repro.storage.instance import Database
from repro.workloads import graph_search, skewed


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
    """The interpreted reference for ``query`` on ``service``: its cached
    plan run through the operator tree (``execute_plan``) instead of the
    compiled closure that serves it."""
    entry, _ = service.plan(query)
    return service.execute_plan(entry.plan, params=params)


@pytest.fixture(params=["index_set", "snapshot"])
def gs_provider(request, gs_instance, gs_access):
    """``(provider, view_cache)`` over ``gs_instance`` for each fetch provider
    a compiled closure meets: a service's ``indexes`` (the ``IndexSet``
    facade over its snapshots), and its published snapshot read directly."""
    with QueryService(gs_instance.database, gs_access, graph_search.views()) as service:
        provider = (
            service._snapshots.reader()
            if request.param == "snapshot"
            else service.indexes
        )
        yield provider, service.view_cache


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
