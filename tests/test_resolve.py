"""The resolve stage: one memoised parse → check → validate → canonicalise.

The memo sits in front of the plan cache and decides nothing about plans, so
the core guarantee is differential: a service that is sent source text (memo
hits from the second call on) answers call by call exactly like one that is
sent a freshly parsed object every time (always a miss), across writes, and
both match the SQL oracle (``conftest.SQLOracle``).  The rest pins the contract down: one record per input however it
is planned, failing inputs never stored, the memo bounded, and the counters
exact under concurrent callers.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.algebra.fo import atom, conj, exists
from repro.algebra.parser import parse_query
from repro.algebra.terms import Constant, Variable
from repro.core.access import AccessConstraint, AccessSchema
from repro.engine.service import QueryService, canonical_query_key
from repro.engine.service.resolve import RESOLVE_MEMO_LIMIT, ResolvedQuery
from repro.errors import QueryError, SchemaError
from repro.storage.updates import random_update_batch
from repro.workloads import cdr, graph_search as gs

from conftest import SQLOracle

ACCESS = AccessSchema(
    (
        AccessConstraint("R", ("a",), ("b",), 2),
        AccessConstraint("S", ("b",), ("c",), 1),
    )
)
CHAIN = "Q(z) :- R(1, y), S(y, z)"
CHAIN_PARAM = "Q(z) :- R(:a, y), S(y, z)"


@pytest.fixture
def service(rs_database):
    return QueryService(rs_database, ACCESS)


# --------------------------------------------------------------------------- #
# (a) Differential: text (memo hits) versus a fresh parsed object (misses)
# --------------------------------------------------------------------------- #


def _gs_case():
    def build(**kwargs):
        instance = gs.generate(num_persons=150, num_movies=120, seed=23)
        return QueryService(
            instance.database, gs.access_schema(n0=instance.n0), gs.views(), **kwargs
        )

    texts = [
        "Q0(mid) :- person(xp, xp_name, 'NASA'), movie(mid, ym, 'Universal', '2014'), "
        "like(xp, mid, 'movie'), rating(mid, 5)",
        "Qr(mid) :- movie(mid, t, 'Paramount', '2010'), rating(mid, 4)",
        "Qk(mid, r) :- movie(mid, t, 'Universal', '2014'), rating(mid, r)",
        "Qu(mid) :- movie(mid, t, 'Sony', '2012') ; Qu(mid) :- movie(mid, t, 'MGM', '2007')",
        "Qall(xp, mid) :- like(xp, mid, 'movie'), rating(mid, 5)",  # no bounded plan
    ]
    return build, texts


def _cdr_case():
    def build(**kwargs):
        instance = cdr.generate(num_customers=60, num_days=3, seed=23)
        return QueryService(
            instance.database, cdr.access_schema(), cdr.views(), **kwargs
        )

    texts = [
        "Q(callee, region) :- call('ph000003', callee, 2, duration, cell), "
        "cell(cell, region, city)",
        "Q(callee, plan) :- call('ph000007', callee, 1, duration, cell), "
        "customer(callee, name, plan, region)",
        "Q(caller) :- call(caller, 'ph000001', 2, duration, cell), "
        "customer(caller, name, 'premium', region)",
        "Q(caller, callee) :- call(caller, callee, day, duration, cell), "
        "customer(caller, name1, plan1, 'north'), customer(callee, name2, plan2, 'south')",
    ]
    return build, texts


@pytest.mark.parametrize(
    "planners", [("heuristic", "topped"), ("cost", "topped")], ids=["heuristic", "cost"]
)
@pytest.mark.parametrize("reference", ["memory", "sqlite"])
@pytest.mark.parametrize("case", [_gs_case, _cdr_case], ids=["graph_search", "cdr"])
def test_text_and_fresh_objects_answer_identically(case, reference, planners):
    """Under a constant-blind chain (``heuristic``, plans shared per shape)
    and a per-value one (``cost``); against the ``sqlite`` reference each
    side's rows are also the SQL oracle's."""
    build, texts = case()
    by_text = build(planners=planners)
    by_object = build(planners=planners)
    text_oracle, object_oracle = SQLOracle(by_text), SQLOracle(by_object)

    def compare_all():
        for text in texts:
            got = by_text.query(text)
            query = parse_query(text)
            want = by_object.query(query)
            assert got.rows == want.rows
            if reference == "sqlite":
                assert text_oracle.rows(got, text) == got.rows, text
                assert object_oracle.rows(want, query) == want.rows, text
            assert (
                got.tuples_fetched,
                got.tuples_scanned,
                got.cache_hit,
                got.planner,
                got.execution_tier,
            ) == (
                want.tuples_fetched,
                want.tuples_scanned,
                want.cache_hit,
                want.planner,
                want.execution_tier,
            ), text

    try:
        for round_number in range(3):
            compare_all()
            compare_all()  # warm: memo hit + plan-cache hit on the text side
            batch = random_update_batch(
                by_text.database,
                12,
                seed=round_number,
                access_schema=by_text.access_schema,
            )
            for updates in (batch, batch.inverted()):
                assert by_text.apply(updates).applied == by_object.apply(updates).applied
                compare_all()
        assert by_text.stats.resolve_misses == len(texts)  # writes invalidate nothing
        assert by_text.stats.resolve_hits == by_text.stats.queries - len(texts)
        assert by_object.stats.resolve_hits == 0
        assert by_text.stats.cache_hits == by_object.stats.cache_hits
    finally:
        text_oracle.close()
        object_oracle.close()
        by_text.close()
        by_object.close()


# --------------------------------------------------------------------------- #
# (b) One record per input, however it is planned
# --------------------------------------------------------------------------- #


def test_one_record_per_text_across_planning_options(service):
    service.query(CHAIN_PARAM, params={"a": 1})
    service.query(CHAIN_PARAM, params={"a": 2}, max_size=40)
    service.query(CHAIN_PARAM, params={"a": 1}, planners=("exact",))
    service.query(CHAIN_PARAM, params={"a": 1}, use_cache=False)
    prepared = service.prepare(CHAIN_PARAM)
    assert prepared.parameters == frozenset({"a"})
    assert prepared.execute(a=1).rows == service.query(CHAIN).rows
    service.explain(CHAIN_PARAM)
    assert service.lint(CHAIN_PARAM) == []
    # Two distinct texts resolved once each; three distinct plan keys for the
    # parameterised one (default, max_size=40, the exact planner).
    assert len(service._resolver) == 2
    assert service.stats.resolve_misses == 2
    assert service.stats.resolve_hits == 6
    assert len(service.plan_cache) == 4
    record, memo_hit = service._resolver.resolve(CHAIN_PARAM)
    assert memo_hit and isinstance(record, ResolvedQuery)
    assert record is service._resolver.resolve(CHAIN_PARAM)[0]
    assert record.parameters == frozenset({"a"})
    assert prepared.query is record.query


def test_record_keys_the_shape_and_keeps_the_values_beside_it(service):
    """One walk yields the shape key and the binding vector; the shape itself
    is what a constant-blind chain plans, the literal key what any other
    chain is keyed by, and ``canonical_query_key`` stays literal-sensitive."""
    resolve = service._resolver.resolve
    one, _ = resolve("Q(z, 7) :- R(1, y), S(y, z), S(y, 7)")
    two, _ = resolve("Q(c, 'k') :- R(2, b), S(b, c), S(b, 'k')")
    assert one.bindings == {"$0": 7, "$1": 1} and two.bindings == {"$0": "k", "$1": 2}
    assert one.shape_key == two.shape_key == canonical_query_key(one.shape)
    assert one.canonical != two.canonical == (two.shape_key, ("k", 2))
    assert canonical_query_key(one.query) != canonical_query_key(two.query)
    assert str(one.shape) == "Q(?z, :$0) :- R(:$1, ?y) ∧ S(?y, ?z) ∧ S(?y, :$0)"
    assert one.query is not one.shape and one.parameters == two.parameters == frozenset()
    # Equal values share a slot; an equality is folded before slots are numbered.
    same, _ = resolve("Q(z, 5) :- R(5, y), S(y, z), S(y, w), w = 5")
    assert same.bindings == {"$0": 5} and same.shape_key != one.shape_key
    # Declared parameters stay, and nothing is lifted out of an FO query.
    mixed, _ = resolve("Q(z) :- R(:a, y), S(y, z), S(y, 3)")
    assert (mixed.parameters, mixed.bindings) == ({"a"}, {"$0": 3})
    fo, _ = resolve(exists([Variable("y")], atom("R", Constant(1), Variable("y"))))
    assert fo.bindings == {} and fo.shape is fo.query


def test_held_object_is_memoised_by_identity_across_heads(service):
    y, z = Variable("y"), Variable("z")
    fo = exists([y], conj(atom("R", Constant(1), y), atom("S", y, z)))
    first = service.query(fo)
    second = service.query(fo, head=[z])
    assert first.rows == second.rows
    assert (service.stats.resolve_misses, service.stats.resolve_hits) == (1, 1)
    # An equal but distinct object is a different input: resolved again, yet
    # it lands on the same plan-cache entry through its canonical key.
    twin = exists([y], conj(atom("R", Constant(1), y), atom("S", y, z)))
    assert service.query(twin).cache_hit
    assert service.stats.resolve_misses == 2


@pytest.mark.parametrize(
    "params, message",
    [
        (None, "missing bindings for parameters \\['a'\\]"),
        ({"a": 1, "b": 2}, "no parameters named \\['b'\\]"),
    ],
)
def test_param_validation_is_unchanged_on_cold_and_warm_inputs(service, params, message):
    for _ in range(3):  # the first call resolves, the later ones hit the memo
        with pytest.raises(QueryError, match=message):
            service.query(CHAIN_PARAM, params=params)
    with pytest.raises(QueryError, match="missing bindings"):
        service.query_many([CHAIN, CHAIN_PARAM])
    with pytest.raises(QueryError, match="unbound parameters \\['a'\\]"):
        service.baseline(CHAIN_PARAM)
    with pytest.raises(QueryError, match="no parameters named \\['a'\\]"):
        service.query(CHAIN, params={"a": 1})


# --------------------------------------------------------------------------- #
# (c) Failing inputs raise on every call and are never stored
# --------------------------------------------------------------------------- #

ENTRY_POINTS = {
    "query": lambda s, text: s.query(text),
    "prepare": lambda s, text: s.prepare(text),
    "explain": lambda s, text: s.explain(text),
    "lint": lambda s, text: s.lint(text),
    "baseline": lambda s, text: s.baseline(text),
    "query_many": lambda s, text: s.query_many([CHAIN, text]),
}
FAILING = {
    "syntax": ("Q(x :- R(x, y)", QueryError, "expected '\\)'"),
    "unknown-relation": ("Q(x) :- nosuch(x)", QueryError, "unknown relations \\['nosuch'\\]"),
    "arity": ("Q(x) :- R(x)", SchemaError, "R\\(\\?x\\) has arity 1 but relation 'R' has arity 2"),
    "unsafe-head": ("Q(w) :- R(x, 1)", QueryError, "head variable \\?w"),
}


@pytest.mark.parametrize("reference", ["memory", "sqlite"])
@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("failure", sorted(FAILING))
def test_failing_text_raises_every_time_and_is_not_stored(
    rs_database, failure, entry_point, reference
):
    """The service keeps serving afterwards: the same rows as before the
    failures, or, against the ``sqlite`` reference, the SQL oracle's rows
    on a data version the failures did not change (one load)."""
    text, error, message = FAILING[failure]
    with QueryService(rs_database, ACCESS) as service:
        oracle = SQLOracle(service)
        before = service.query(CHAIN)
        if reference == "sqlite":
            assert oracle.rows(before, CHAIN) == before.rows
        stored = len(service._resolver)
        for _ in range(3):
            with pytest.raises(error, match=message):
                ENTRY_POINTS[entry_point](service, text)
            assert len(service._resolver) == stored
        after = service.query(CHAIN)
        assert after.rows == before.rows and after.rows
        if reference == "sqlite":
            assert oracle.rows(after, CHAIN) == after.rows
            assert oracle.loads == 1
        oracle.close()


def test_failing_object_is_rejected_like_its_text(service):
    wrong_arity = parse_query("Q(x) :- R(x)")
    for _ in range(2):
        with pytest.raises(SchemaError, match="arity 1"):
            service.query(wrong_arity)
    with pytest.raises(QueryError, match="cannot answer a query of type int"):
        service.lint(42)
    assert len(service._resolver) == 0


# --------------------------------------------------------------------------- #
# (d) The memo is bounded
# --------------------------------------------------------------------------- #


def test_memo_is_cleared_at_its_limit_and_hot_text_survives(service):
    expected = service.query(CHAIN).rows
    for number in range(1100):
        service.lint(f"Q(z) :- R({number + 100}, y), S(y, z)")
        assert len(service._resolver) <= RESOLVE_MEMO_LIMIT
    assert len(service._resolver) < 1100  # it was cleared on the way
    misses = service.stats.resolve_misses
    again = service.query(CHAIN)  # dropped by the clear: resolved once more...
    assert again.rows == expected and again.cache_hit
    assert service.stats.resolve_misses == misses + 1
    assert service.query(CHAIN).rows == expected  # ...then served from the memo
    assert service.stats.resolve_misses == misses + 1


# --------------------------------------------------------------------------- #
# (e) Concurrent callers: same answers, exact counters
# --------------------------------------------------------------------------- #


def test_concurrent_callers_match_serial_and_count_every_resolve():
    """Four threads calling ``query`` on one service get the serial answers,
    and the stats count every call and every resolve exactly."""
    instance = gs.generate(num_persons=80, num_movies=120, seed=17)
    pairs = sorted({(row[2], row[3]) for row in instance.database.relation("movie")})
    templates = (  # three shapes: a different constant alone shares a plan
        "Qk(mid, r) :- movie(mid, t, '{}', '{}'), rating(mid, r)",
        "Qr(mid) :- movie(mid, t, '{}', '{}'), rating(mid, 4)",
        "Qt(t) :- movie(mid, t, '{}', '{}')",
    )
    texts = [templates[i % 3].format(*pair) for i, pair in enumerate(pairs[:6])]
    batch = texts * 50
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with QueryService(
            instance.database, gs.access_schema(n0=instance.n0), gs.views()
        ) as service, ThreadPoolExecutor(max_workers=4) as callers:
            serial = service.query_many(texts)
            service.stats.reset()
            answers = list(callers.map(service.query, batch))
            assert [a.rows for a in answers] == [a.rows for a in serial] * 50
            assert [a.tuples_fetched for a in answers] == [
                a.tuples_fetched for a in serial
            ] * 50
            snapshot = service.stats.snapshot()
            assert snapshot.queries == len(batch)
            assert snapshot.resolve_hits + snapshot.resolve_misses == len(batch)
            assert snapshot.resolve_misses == 0  # every text was resolved serially
    finally:
        sys.setswitchinterval(interval)


# --------------------------------------------------------------------------- #
# Observability
# --------------------------------------------------------------------------- #


def test_explain_and_stats_report_the_memo(service):
    cold = service.explain(CHAIN)
    warm = service.explain(CHAIN)
    assert (cold.resolve_memo_hit, warm.resolve_memo_hit) == (False, True)
    assert "resolve: memo miss" in cold.render()
    assert "resolve: memo hit" in warm.render()
    unbounded = service.explain("Q(y, z) :- S(y, z)")
    assert not unbounded.bounded and "resolve: memo miss" in unbounded.render()
    snapshot = service.stats.snapshot()
    assert (snapshot.resolve_hits, snapshot.resolve_misses) == (1, 2)
    assert "resolve_hits=1 resolve_misses=2" in str(snapshot)
    service.stats.reset()
    assert (service.stats.resolve_hits, service.stats.resolve_misses) == (0, 0)
