"""Plan once per query *shape*: per-shape and per-value planning agree.

The default chain is constant-blind, so the service plans each shape once
(liftable constants become auto-parameter slots in the resolve stage) and
serves every other value of that shape from the shared entry.  A planner that
merely wraps ``HeuristicPlanner`` *without* declaring constant-blindness makes
the same service plan per value, exactly as it did before shapes existed —
that pair is the differential: same rows, same ``Dξ``, same planner, same
boundedness verdict, same reason, whatever the values and the input form,
before and after a write and across a restart — and on both sides the rows
are what the SQL oracle (``conftest.SQLOracle``) computes.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.parser import parse_query
from repro.algebra.terms import Constant, Param, Variable
from repro.algebra.ucq import UnionQuery
from repro.engine.service import QueryService
from repro.errors import QueryError
from repro.storage.updates import random_update_batch
from repro.workloads import cdr, graph_search as gs
from repro.workloads.random_cq import RandomCQConfig, random_workload

from conftest import PerValueHeuristic, SQLOracle


def service_pair(database, access, views):
    """(per-shape, per-value) services over two copies of the same data."""
    return (
        QueryService(database.copy(), access, views),
        QueryService(
            database.copy(), access, views, planners=(PerValueHeuristic(), "topped")
        ),
    )


def assert_same(got, want, what):
    assert got.rows == want.rows, what
    assert (
        got.used_bounded_plan,
        got.planner,
        got.tuples_fetched,
        got.tuples_scanned,
        got.reason,
    ) == (
        want.used_bounded_plan,
        want.planner,
        want.tuples_fetched,
        want.tuples_scanned,
        want.reason,
    ), what
    assert "$" not in got.reason, what


# --------------------------------------------------------------------------- #
# Variants: the same query with other values, in another input form
# --------------------------------------------------------------------------- #


def render(query) -> str:
    """Source text of a CQ/UCQ object (``str(query)`` is not parseable)."""

    def term(t) -> str:
        if isinstance(t, Variable):
            return t.name
        return str(t.value) if isinstance(t.value, Param) else repr(t.value)

    def rule(cq) -> str:
        body = [f"{a.relation}({', '.join(map(term, a.terms))})" for a in cq.atoms]
        body += [f"{term(e.left)} = {term(e.right)}" for e in cq.equalities]
        return f"Q({', '.join(map(term, cq.head))}) :- {', '.join(body)}"

    return " ; ".join(rule(d) for d in getattr(query, "disjuncts", (query,)))


def substitute(query, mapping, name="Q"):
    """Replace terms; the result is called ``Q`` like every rendered text (a
    refusal reason quotes the name of whichever query planned the shape)."""
    if isinstance(query, UnionQuery):
        return UnionQuery(tuple(substitute(d, mapping) for d in query.disjuncts), name)
    return ConjunctiveQuery(
        tuple(mapping.get(t, t) for t in query.head),
        tuple(a.substitute(mapping) for a in query.atoms),
        tuple(e.substitute(mapping) for e in query.equalities),
        name,
    )


def variant(query, database, generator):
    """``query`` with every constant replaced by another value of a column it
    sits in (view constants included: that is how shapes come to differ)."""
    columns: dict[Constant, list] = {}
    for disjunct in getattr(query, "disjuncts", (query,)):
        for atom in disjunct.atoms:
            for position, t in enumerate(atom.terms):
                if isinstance(t, Constant) and t not in columns:
                    rows = sorted(database.relation(atom.relation), key=repr)
                    columns[t] = sorted({row[position] for row in rows}, key=repr)
    return substitute(
        query, {t: Constant(generator.choice(values)) for t, values in columns.items()}
    )


def sends(queries, database, seed, variants=2):
    """Every query and ``variants`` constant-variants of it, shuffled, each
    with the way it is sent: as an object, as text, or prepared with one
    constant turned into a declared ``:p`` next to the literal others."""
    generator = random.Random(seed)
    out = []
    for query in queries:
        for number in range(variants + 1):
            q = variant(query, database, generator) if number else substitute(query, {})
            constants = sorted(
                (c for c in q.constants if not isinstance(c.value, Param)), key=repr
            )
            mode = ("object", "text", "prepared")[(len(out) + number) % 3]
            if mode == "prepared" and constants:
                picked = generator.choice(constants)
                declared = substitute(q, {picked: Constant(Param("p"))})
                out.append((mode, render(declared), {"p": picked.value}))
            else:
                out.append((mode, q if mode == "object" else render(q), None))
    generator.shuffle(out)
    return out


def ask(service, send):
    mode, payload, params = send
    if mode == "prepared":
        prepared = service.prepare(payload)
        assert prepared.parameters <= {"p"}
        return prepared.execute(params=params) if prepared.parameters else prepared.execute()
    return service.query(payload)


def run_differential(pair, workload, seed):
    per_shape, per_value = pair
    oracles = [SQLOracle(service) for service in pair]
    try:
        for _ in range(2):  # before and after a write
            for send in workload:
                answers = [ask(service, send) for service in pair]
                assert_same(*answers, send)
                _mode, payload, params = send
                for oracle, answer in zip(oracles, answers):
                    assert oracle.rows(answer, payload, params) == answer.rows, send
            batch = random_update_batch(
                per_shape.database, 12, seed=seed, access_schema=per_shape.access_schema
            )
            assert per_shape.apply(batch).applied == per_value.apply(batch).applied
        # One plan per shape on one side, one per value on the other; the
        # shared entries answered for values they were never planned for.
        assert len(per_shape.plan_cache) < len(per_value.plan_cache)
        assert per_shape.stats.cache_hits > per_value.stats.cache_hits
    finally:
        for oracle in oracles:
            oracle.close()
        per_shape.close()
        per_value.close()


# The seed draws the constant variants each query is sent with and the write
# batches between the rounds.
@pytest.mark.parametrize("seed", [1, 4])
def test_cdr_workload_and_random_cqs_agree_per_shape_and_per_value(seed):
    instance = cdr.generate(num_customers=60, num_days=3, seed=1)
    config = RandomCQConfig(min_atoms=1, max_atoms=3, head_size=2, seed=23)
    queries = cdr.workload(instance, count=18) + [
        q
        for q in random_workload(cdr.schema(), instance.database, 16, config)
        if len(set(q.head)) == len(q.head)  # the builder wants distinct head variables
    ]
    pair = service_pair(instance.database, cdr.access_schema(), cdr.views())
    run_differential(pair, sends(queries, instance.database, seed=seed), seed=seed)


@pytest.mark.parametrize("seed", [1, 4])
def test_graph_search_mix_agrees_per_shape_and_per_value(gs_1000, gs_mix, seed):
    queries = [q if not isinstance(q, str) else parse_query(q) for q in gs_mix[:3]]
    workload = sends(queries, gs_1000.database, seed=seed, variants=3)
    pair = service_pair(gs_1000.database, gs.access_schema(), gs.views())
    per_shape = pair[0]
    run_differential(pair, workload, seed=seed)
    # 'NASA' and 'movie' are written in V1/V2 and stay literal; studio, year
    # and rank are lifted, so every variant shares its query's shape unless
    # the random values put a view constant somewhere else.
    assert per_shape.stats.snapshot().tier_uses.get("compiled", 0) > 0


# --------------------------------------------------------------------------- #
# Named collisions: which inputs share a shape, and that sharing is harmless
# --------------------------------------------------------------------------- #

CALLERS = (
    "Q(caller) :- call(caller, '{phone}', {day}, duration, cell), "
    "customer(caller, name, '{plan}', region)"
)
REGIONS = (
    "Q(caller, callee) :- call(caller, callee, day, duration, cell), "
    "customer(caller, n1, p1, '{a}'), customer(callee, n2, p2, '{b}')"
)
COLLISIONS = {
    # 'premium' is written in V_premium: it stays literal (and gets the
    # view-assisted plan), 'gold' and 'basic' share one lifted shape.
    "view-constant": (
        [CALLERS.format(phone="ph000001", day=2, plan=p) for p in ("premium", "gold", "basic")],
        2,
    ),
    # 'north' is written in V_north: literal on either side, lifted nowhere.
    "view-constant-on-one-side": (
        [
            REGIONS.format(a=a, b=b)
            for a, b in (("north", "south"), ("south", "north"), ("east", "south"), ("west", "east"))
        ],
        3,
    ),
    # Equal values share a slot, so the equality pattern is part of the shape.
    "same-constant-twice": (
        [
            f"Q(c) :- call('{a}', y, 1, d, c), customer('{b}', n, p, r)"
            for a, b in (("ph000001", "ph000001"), ("ph000001", "ph000002"), ("ph000003", "ph000003"))
        ],
        2,
    ),
    "constant-across-disjuncts": (
        [
            f"Q(y) :- call('{a}', y, 1, d, c) ; Q(y) :- call(y, '{b}', 1, d, c)"
            for a, b in (("ph000001", "ph000001"), ("ph000002", "ph000003"), ("ph000004", "ph000004"))
        ],
        2,
    ),
    "constant-in-the-head": (
        [
            f"Q('{tag}', y) :- call('{phone}', y, 2, d, c)"
            for tag, phone in (("tag", "ph000001"), ("other", "ph000002"), ("ph000003", "ph000003"))
        ],
        2,
    ),
    # 1 and '1' are different values of one slot; no call has day '1'.
    "int-versus-string": (
        [f"Q(y) :- call('ph000001', y, {day}, d, c)" for day in ("1", "'1'", "2")],
        1,
    ),
    # An equality is folded before the shape is taken; one between two equal
    # constants leaves no trace.
    "equality-atoms": (
        [
            "Q(y) :- call('ph000001', y, 2, d, c)",
            "Q(y) :- call('ph000002', y, day, d, c), day = 1",
            "Q(y) :- call(p, y, 3, d, c), p = 'ph000003', 7 = 7",
        ],
        1,
    ),
    "value-not-in-the-data": (
        [f"Q(y) :- call('{phone}', y, 2, d, c)" for phone in ("ph000001", "nobody", "ph000002")],
        1,
    ),
}


@pytest.fixture(scope="module")
def cdr_pair():
    instance = cdr.generate(num_customers=60, num_days=3, seed=1)
    pair = service_pair(instance.database, cdr.access_schema(), cdr.views())
    yield pair
    for service in pair:
        service.close()


@pytest.mark.parametrize("case", sorted(COLLISIONS))
def test_named_collision_shares_exactly_the_expected_shapes(cdr_pair, case):
    per_shape, per_value = cdr_pair
    texts, shapes = COLLISIONS[case]
    for service in cdr_pair:  # the cases share the pair, not its plans
        service.plan_cache.clear()
    for text in texts:
        got = per_shape.query(text)
        assert_same(got, per_value.query(text), text)
        assert got.rows == per_shape.baseline(text).rows, text
        if got.used_bounded_plan:  # the literal plan stands on its own
            assert per_shape.execute_plan(got.plan).rows == got.rows, text
    assert len(per_shape.plan_cache) == shapes
    assert len(per_value.plan_cache) == len(texts)


def test_unsatisfiable_equalities_are_rejected_whatever_the_values(cdr_pair):
    for service in cdr_pair:
        for text in ("Q(y) :- call(p, y, 3, d, c), 1 = 2", "Q(y) :- call(p, y, d, u, c), d = 1, d = 2"):
            with pytest.raises(QueryError, match="unsatisfiable"):
                service.query(text)


def test_slot_names_are_reserved_and_never_shown(cdr_pair):
    per_shape, _ = cdr_pair
    sneaky = parse_query("Q(y) :- call(:p, y, 2, d, c)").substitute(
        {Constant(Param("p")): Constant(Param("$0"))}
    )
    with pytest.raises(QueryError, match="reserved"):
        per_shape.query(sneaky, params={"$0": "ph000001"})
    text = "Q(y) :- call(:who, y, 2, d, c)"
    prepared = per_shape.prepare(text)
    assert prepared.parameters == frozenset({"who"})
    with pytest.raises(QueryError, match=r"missing bindings for parameters \['who'\]"):
        prepared.execute()
    per_shape.query("Q(y) :- call('ph000002', y, 1, d, c)")
    explanation = per_shape.explain("Q(y) :- call('ph000001', y, 2, d, c)")
    assert explanation.cache_hit  # a text never seen before, of a planned shape
    assert explanation.bindings == {"$0": "ph000001", "$1": 2}
    rendered = explanation.render()
    assert "plan shared across constants" in rendered
    assert "$" not in rendered.replace("$0='ph000001', $1=2", "")


# --------------------------------------------------------------------------- #
# The plan store holds shapes: a restart serves a new value of a stored shape
# --------------------------------------------------------------------------- #


def test_new_value_of_a_stored_shape_is_a_compiled_hit_after_restart(tmp_path):
    instance = cdr.generate(num_customers=60, num_days=3, seed=1)
    text = "Q(callee, region) :- call('{}', callee, {}, duration, cell), cell(cell, region, city)"

    def service():
        return QueryService(
            instance.database, cdr.access_schema(), cdr.views(),
            plan_store=str(tmp_path / "plans.bin"),
        )

    with service() as first:
        for phone, day in (("ph000001", 1), ("ph000002", 2), ("ph000003", 3)):
            assert first.query(text.format(phone, day)).execution_tier == "compiled"
        assert len(first.plan_cache) == 1
    with service() as restarted:
        assert restarted.plan_store.loaded == 1
        answer = restarted.query(text.format("ph000007", 2))  # never sent before
        assert answer.cache_hit and answer.execution_tier == "compiled"
        assert answer.rows == restarted.baseline(text.format("ph000007", 2)).rows
        assert restarted.stats.snapshot().plan_store_hits == 1
