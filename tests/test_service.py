"""Tests for the unified QueryService: dispatch, planner chain, plan cache,
prepared queries and batch execution."""

import pytest

from repro.algebra.atoms import RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.fo import atom, conj, eq, exists, neg
from repro.algebra.parser import parse_cq, parse_query, parse_ucq
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Param, Variable
from repro.algebra.ucq import UnionQuery
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.plan_eval import bind_plan, plan_parameters
from repro.core.plans import FetchNode, ViewScan
from repro.engine.service import (
    PlanningResult,
    QueryService,
    canonical_query_key,
    register_planner,
    resolve_planners,
)
from repro.errors import PlanError, PlanVerificationError, QueryError
from repro.exec.codegen import compile_plan_closure
from repro.exec.iometer import IOMeter
from repro.storage.indexes import IndexSet
from repro.storage.instance import Database

from conftest import SQLOracle, interpreted, reference, view_versions

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

SCHEMA = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
ACCESS = AccessSchema(
    (
        AccessConstraint("R", ("a",), ("b",), 2),
        AccessConstraint("S", ("b",), ("c",), 1),
    )
)


@pytest.fixture
def service(rs_database):
    return QueryService(rs_database, ACCESS)


def anchored_chain(constant=1, name="chain"):
    return ConjunctiveQuery(
        head=(Z,),
        atoms=(RelationAtom("R", (Constant(constant), Y)), RelationAtom("S", (Y, Z))),
        name=name,
    )


def chain_shapes():
    """Three anchored queries of three different *shapes*: a plan is cached
    per shape, so a different constant alone is not a different entry."""
    anchor = RelationAtom("R", (Constant(1), Y))
    return (
        anchored_chain(1),
        ConjunctiveQuery(head=(Y,), atoms=(anchor,), name="hop"),
        ConjunctiveQuery(
            head=(Y, Z), atoms=(anchor, RelationAtom("S", (Y, Z))), name="pairs"
        ),
    )


def open_scan():
    return ConjunctiveQuery(
        head=(Y, Z), atoms=(RelationAtom("S", (Y, Z)),), name="scan_all"
    )


# --------------------------------------------------------------------------- #
# One entry point: CQ / UCQ / FO / string dispatch
# --------------------------------------------------------------------------- #


def test_query_answers_cq_through_heuristic_planner(service):
    answer = service.query(anchored_chain())
    assert answer.used_bounded_plan
    assert answer.planner == "heuristic"
    assert answer.rows == {("x",), ("y",)}
    assert answer.reason  # never silently empty, bounded or not


def test_query_answers_ucq(service):
    union = UnionQuery((anchored_chain(1), anchored_chain(2)), name="u")
    answer = service.query(union)
    assert answer.used_bounded_plan
    assert answer.planner == "heuristic"
    assert answer.rows == {("x",), ("y",), ("z",)}


def test_query_answers_fo_through_topped_planner(service):
    query = conj(
        atom("R", Constant(1), Y), neg(exists([Z], conj(atom("S", Y, Z), eq(Z, "x"))))
    )
    answer = service.query(query, head=(Y,))
    assert answer.used_bounded_plan
    assert answer.planner == "topped"
    assert answer.rows == {(11,)}


def test_query_answers_string_form(service):
    answer = service.query("Q(z) :- R(1, y), S(y, z)")
    assert answer.used_bounded_plan
    assert answer.rows == {("x",), ("y",)}
    union = service.query("Q(z) :- R(1, y), S(y, z) ; Q(z) :- R(2, y), S(y, z)")
    assert union.rows == {("x",), ("y",), ("z",)}


def test_query_rejects_unknown_input_type(service):
    with pytest.raises(QueryError):
        service.query(42)


def test_query_rejects_unknown_relations_loudly(rs_database):
    from repro.algebra.views import View
    from repro.algebra.parser import parse_cq as _parse

    view = View("V1", _parse("V1(b) :- R(1, b)"))
    service = QueryService(rs_database, ACCESS, (view,))
    # Every entry point resolves its input the same way (baseline() and
    # lint() used to skip the check and answer empty).
    for call in (service.query, service.explain, service.baseline, service.lint):
        with pytest.raises(QueryError, match="unknown relations"):
            call("Q(x) :- T(x, y)")
        # A view used as a query atom is a silent-empty trap: reject with a hint.
        with pytest.raises(QueryError, match="cannot be queried as atoms"):
            call("Q(b) :- V1(b), S(b, c)")


def test_fallback_to_baseline_keeps_reason(service):
    answer = service.query(open_scan())
    assert not answer.used_bounded_plan
    assert answer.planner is None
    assert answer.rows == {(10, "x"), (11, "y"), (20, "z"), (99, "w")}
    assert "heuristic" in answer.reason


def test_forced_fallback_with_empty_chain(service):
    answer = service.query(anchored_chain(), planners=())
    assert not answer.used_bounded_plan
    assert answer.tuples_scanned > 0
    assert "empty" in answer.reason


# --------------------------------------------------------------------------- #
# Planner chain: ordering, registry, pluggability
# --------------------------------------------------------------------------- #


class _RefusingPlanner:
    name = "refuser"

    def can_plan(self, query):
        return True

    def plan(self, query, head, max_size, context):
        return PlanningResult(plan=None, planner=self.name, reason="refuses everything")


def test_fallback_chain_tries_planners_in_order(service):
    answer = service.query(
        anchored_chain(), planners=(_RefusingPlanner(), "heuristic"), use_cache=False
    )
    assert answer.used_bounded_plan
    assert answer.planner == "heuristic"


def test_fallback_chain_collects_all_refusal_reasons(service):
    answer = service.query(
        open_scan(), planners=(_RefusingPlanner(), "heuristic"), use_cache=False
    )
    assert not answer.used_bounded_plan
    assert "refuser: refuses everything" in answer.reason
    assert "heuristic:" in answer.reason


def test_register_planner_makes_name_resolvable(service):
    register_planner("test_refuser", _RefusingPlanner)
    try:
        (planner,) = resolve_planners(["test_refuser"])
        assert planner.name == "refuser"
        answer = service.query(anchored_chain(), planners=("test_refuser",), use_cache=False)
        assert not answer.used_bounded_plan
    finally:
        from repro.engine.service import planners as planners_module

        planners_module._PLANNER_FACTORIES.pop("test_refuser", None)


def test_unknown_planner_name_raises(service):
    with pytest.raises(QueryError):
        service.query(anchored_chain(), planners=("nonexistent",))


def test_exact_planner_finds_plan(service):
    answer = service.query(
        parse_cq("Q(b) :- R(1, b)"), planners=("exact",), use_cache=False
    )
    assert answer.used_bounded_plan
    assert answer.planner == "exact"
    assert answer.rows == {(10,), (11,)}


# --------------------------------------------------------------------------- #
# Plan cache
# --------------------------------------------------------------------------- #


def test_cache_hit_returns_identical_plan_without_replanning(service):
    first = service.query(anchored_chain())
    second = service.query(anchored_chain())
    assert not first.cache_hit
    assert second.cache_hit
    assert second.plan is first.plan  # the very same object: no re-planning
    assert second.rows == first.rows
    assert service.plan_cache.stats.hits == 1
    assert service.stats.cache_hits == 1


def test_cache_hits_across_alpha_equivalent_queries(service):
    service.query(anchored_chain())
    renamed = ConjunctiveQuery(
        head=(Variable("w"),),
        atoms=(
            RelationAtom("R", (Constant(1), Variable("v"))),
            RelationAtom("S", (Variable("v"), Variable("w"))),
        ),
        name="other_name",
    )
    answer = service.query(renamed)
    assert answer.cache_hit


def test_cache_canonical_key_distinguishes_constants():
    assert canonical_query_key(anchored_chain(1)) != canonical_query_key(anchored_chain(2))
    assert canonical_query_key(anchored_chain(1)) == canonical_query_key(
        anchored_chain(1, name="x")
    )


def test_cache_eviction_at_capacity(rs_database):
    service = QueryService(rs_database, ACCESS, plan_cache_size=2)
    q1, q2, q3 = chain_shapes()
    service.query(q1)
    service.query(q2)
    service.query(q3)  # evicts q1 (LRU)
    assert service.plan_cache.stats.evictions == 1
    assert len(service.plan_cache) == 2
    assert not service.query(q1).cache_hit  # q1 was evicted: re-planned
    assert service.query(q3).cache_hit


def test_cache_disabled_with_zero_capacity(rs_database):
    service = QueryService(rs_database, ACCESS, plan_cache_size=0)
    service.query(anchored_chain())
    answer = service.query(anchored_chain())
    assert not answer.cache_hit
    assert len(service.plan_cache) == 0


def test_negative_outcomes_are_cached_too(service):
    service.query(open_scan())
    answer = service.query(open_scan())
    assert answer.cache_hit
    assert not answer.used_bounded_plan


def test_cache_distinguishes_planner_configurations(service):
    from repro.engine.service import ExactVBRPPlanner

    query = parse_cq("Q(b) :- R(1, b)")
    tiny = service.query(query, planners=(ExactVBRPPlanner(default_max_size=1),))
    assert not tiny.used_bounded_plan  # M=1 cannot express the fetch
    bigger = service.query(query, planners=(ExactVBRPPlanner(default_max_size=4),))
    assert not bigger.cache_hit  # different configuration: not the M=1 outcome
    assert bigger.used_bounded_plan


def test_exact_planner_budget_exhaustion_falls_back(service):
    from repro.engine.service import ExactVBRPPlanner

    answer = service.query(
        anchored_chain(),
        planners=(ExactVBRPPlanner(default_max_size=8), "heuristic"),
        use_cache=False,
    )
    # The exact planner blows its enumeration budget at M=8; the chain must
    # fall through to the heuristic instead of crashing the request.
    assert answer.used_bounded_plan
    assert answer.planner == "heuristic"


def test_fo_and_cq_do_not_collide_in_cache(service):
    service.query(anchored_chain())
    fo = conj(atom("R", Constant(1), Y), neg(exists([Z], conj(atom("S", Y, Z), eq(Z, "x")))))
    answer = service.query(fo, head=(Y,))
    assert not answer.cache_hit
    assert answer.planner == "topped"


# --------------------------------------------------------------------------- #
# Prepared queries and parameters
# --------------------------------------------------------------------------- #


def test_prepared_query_rebinds_constants_without_replanning(service):
    prepared = service.prepare("Q(z) :- R(:key, y), S(y, z)")
    assert prepared.is_bounded
    assert prepared.parameters == {"key"}
    one = prepared.execute(key=1)
    two = prepared.execute(key=2)
    assert one.rows == {("x",), ("y",)}
    assert two.rows == {("z",)}
    # prepare() planned fresh (a miss); every later execution skips planning.
    assert not one.cache_hit
    assert two.cache_hit
    assert service.plan_cache.stats.misses == 1


def test_prepared_query_missing_and_unknown_params_raise(service):
    prepared = service.prepare("Q(z) :- R(:key, y), S(y, z)")
    with pytest.raises(QueryError):
        prepared.execute()
    with pytest.raises(QueryError):
        prepared.execute(key=1, extra=2)


def test_prepared_query_fallback_path_binds_query(service):
    prepared = service.prepare("Q(b) :- R(a, b), S(b, :c)")  # unanchored: no plan
    assert not prepared.is_bounded
    answer = prepared.execute(c="x")
    assert not answer.used_bounded_plan
    assert answer.rows == {(10,)}


def test_query_with_unbound_parameters_is_rejected(service):
    with pytest.raises(QueryError):
        service.query("Q(z) :- R(:key, y), S(y, z)")
    with pytest.raises(QueryError):
        # baseline() must not silently evaluate Param placeholders to empty
        service.baseline("Q(z) :- R(:key, y), S(y, z)")


def test_query_with_inline_params(service):
    answer = service.query("Q(z) :- R(:key, y), S(y, z)", params={"key": 2})
    assert answer.rows == {("z",)}


def test_query_rejects_unknown_inline_params(service):
    with pytest.raises(QueryError):
        service.query("Q(z) :- R(:key, y), S(y, z)", params={"key": 2, "keyy": 3})


def test_parser_parses_parameters():
    query = parse_cq("Q(y) :- R(:k, y)")
    assert Constant(Param("k")) in query.constants
    assert isinstance(parse_query("Q(y) :- R(:k, y)"), ConjunctiveQuery)
    assert isinstance(parse_ucq("Q(y) :- R(:k, y) ; Q(y) :- S(y, :k)"), UnionQuery)


def test_prepared_params_mapping_avoids_keyword_collision(service):
    # A parameter named "backend" binds through the params= mapping and as
    # a plain keyword alike: execute() has no keyword of that name.
    prepared = service.prepare("Q(z) :- R(:backend, y), S(y, z)")
    answer = prepared.execute(params={"backend": 1})
    assert answer.rows == {("x",), ("y",)}
    by_keyword = prepared.execute(backend=1)
    assert (by_keyword.rows, by_keyword.tuples_fetched, by_keyword.plan) == (
        answer.rows,
        answer.tuples_fetched,
        answer.plan,
    )
    other = service.prepare("Q(z) :- R(:key, y), S(y, z)")
    with pytest.raises(QueryError):
        other.execute(params={"key": 1}, key=2)  # bound twice


def test_unbound_param_in_select_predicate_is_rejected(service):
    # A Param inside a selection predicate must raise, not silently filter
    # every row away.
    from repro.core.plans import (
        AttributeEqualsConstant,
        ConstantScan,
        FetchNode,
        SelectNode,
    )

    fetch = FetchNode(ConstantScan(10, attribute="b"), "S", ("b",), ("c",))
    plan = SelectNode(fetch, (AttributeEqualsConstant("c", Param("wanted")),))
    with pytest.raises(QueryError):
        service.execute_plan(plan)
    # The compiled closure refuses the unbound placeholder on its own too.
    with pytest.raises(PlanError, match="missing parameter bindings: wanted"):
        compile_plan_closure(plan, ACCESS).execute(
            service.indexes, view_versions(service.view_cache), IOMeter()
        )
    bound = service.execute_plan(plan, params={"wanted": "x"})
    assert bound.rows == {(10, "x")}
    expected = reference(
        bind_plan(plan, {"wanted": "x"}), ACCESS, service.indexes, service.view_cache
    )
    assert (bound.rows, bound.stats) == (expected.rows, expected.stats)
    assert service.execute_plan(plan, params={"wanted": "nope"}).rows == frozenset()


def test_bind_plan_validates_and_substitutes(service):
    prepared = service.prepare("Q(z) :- R(:key, y), S(y, z)")
    assert plan_parameters(prepared.plan) == {"key"}
    bound = bind_plan(prepared.plan, {"key": 1})
    assert plan_parameters(bound) == frozenset()
    with pytest.raises(PlanError):
        bind_plan(prepared.plan, {})
    with pytest.raises(QueryError):
        service.execute_plan(prepared.plan)  # unbound Param
    with pytest.raises(PlanError, match="missing parameter bindings: key"):
        # the backend's compiled closure also refuses a half-bound plan
        service._backend.execute_plan(prepared.plan)


def test_a_hand_built_plan_the_verifier_refuses_is_not_run(
    gs_instance, gs_access, gs_views
):
    """``execute_plan`` admits a plan through the gate a cached plan passes:
    fetching the rating of every movie in V1, a view without bounded
    output, is refused before it touches data — although it has rows."""
    plan = FetchNode(ViewScan("V1", ("mid",)), "rating", ("mid",), ("rank",))
    with QueryService(gs_instance.database, gs_access, gs_views) as service:
        assert reference(plan, gs_access, service.indexes, service.view_cache).rows
        with pytest.raises(PlanVerificationError) as refused:
            service.execute_plan(plan)
    codes = {diagnostic.code for diagnostic in refused.value.diagnostics}
    assert "plan.fetch.unbounded-input" in codes


# --------------------------------------------------------------------------- #
# Batch execution and statistics
# --------------------------------------------------------------------------- #


def test_query_many_preserves_order_and_aggregates_stats(service):
    # A different constant alone would share anchored_chain(1)'s entry: the
    # second query also lists its atoms the other way round (another shape).
    reordered = anchored_chain(2)
    reordered = ConjunctiveQuery(reordered.head, reordered.atoms[::-1], name="reordered")
    queries = [anchored_chain(1), reordered, anchored_chain(1), open_scan()]
    answers = service.query_many(queries)
    assert len(answers) == 4
    assert answers[0].rows == answers[2].rows == {("x",), ("y",)}
    assert answers[1].rows == {("z",)}
    assert not answers[3].used_bounded_plan
    snapshot = service.stats.snapshot()
    assert snapshot.queries == 4
    assert snapshot.cache_hits == 1  # the repeated anchored_chain(1)
    assert snapshot.bounded_answers == 3
    assert snapshot.fallback_answers == 1
    assert snapshot.planner_uses == {"heuristic": 3}
    assert snapshot.tuples_fetched > 0 and snapshot.tuples_scanned > 0
    assert snapshot.latency_p95 >= snapshot.latency_p50 >= 0.0


def _observed(answer):
    return (
        answer.rows,
        answer.used_bounded_plan,
        answer.cache_hit,
        answer.planner,
        answer.backend,
        answer.execution_tier,
        answer.tuples_fetched,
        answer.tuples_scanned,
    )


@pytest.mark.parametrize("reference", ["memory", "sqlite"])
def test_query_many_answers_what_a_loop_over_query_answers(rs_database, reference):
    """Object, text, union and unbounded inputs, repeated: the batch and
    the loop agree answer for answer and counter for counter, and, against
    the ``sqlite`` reference, every answer is what the SQL oracle computes
    for it."""
    queries = [
        anchored_chain(1),
        "Q(z) :- R(2, y), S(y, z)",  # anchored_chain(1)'s shape, as text
        parse_ucq("Q(z) :- R(1, y), S(y, z) ; Q(z) :- R(3, y), S(y, z)"),
        open_scan(),
        anchored_chain(3),
    ] * 2
    with QueryService(rs_database, ACCESS) as batched:
        answers = batched.query_many(queries)
        got = batched.stats.snapshot()
        if reference == "sqlite":
            oracle = SQLOracle(batched)
            for query, answer in zip(queries, answers):
                assert oracle.rows(answer, query) == answer.rows, query
            oracle.close()
    with QueryService(rs_database, ACCESS) as looped:
        expected = [looped.query(query) for query in queries]
        want = looped.stats.snapshot()
    assert list(map(_observed, answers)) == list(map(_observed, expected))
    assert {a.backend for a in answers} == {"memory"}
    assert (
        got.queries,
        got.cache_hits,
        got.bounded_answers,
        got.fallback_answers,
        got.planner_uses,
        got.tier_uses,
        got.tuples_fetched,
        got.tuples_scanned,
    ) == (
        want.queries,
        want.cache_hits,
        want.bounded_answers,
        want.fallback_answers,
        want.planner_uses,
        want.tier_uses,
        want.tuples_fetched,
        want.tuples_scanned,
    )


def test_query_many_stops_at_the_first_failing_query(service):
    """In order, one at a time: the query before the failure is answered and
    counted, the one after it is never planned."""
    with pytest.raises(QueryError, match="unknown relations"):
        service.query_many([anchored_chain(1), "Q(x) :- nosuch(x)", open_scan()])
    assert service.stats.snapshot().queries == 1
    assert len(service.plan_cache) == 1
    assert service.query_many([]) == []


def test_stats_reset(service):
    service.query(anchored_chain())
    service.stats.reset()
    assert service.stats.snapshot().queries == 0


# --------------------------------------------------------------------------- #
# One serving path: the removed surface stays removed
# --------------------------------------------------------------------------- #


def test_view_cache_mutation_and_assignment_are_rejected(rs_database):
    from repro.algebra.parser import parse_cq as _parse
    from repro.algebra.views import View

    view = View("V1", _parse("V1(b) :- R(1, b)"))
    service = QueryService(rs_database, ACCESS, (view,))

    # In-place mutation would silently miss the build-once backend: rejected.
    with pytest.raises(TypeError):
        service.view_cache["V1"] = frozenset()
    # View rows change through writes only; the properties are read-only.
    with pytest.raises(AttributeError):
        service.view_cache = {"V1": frozenset({(999,)})}
    with pytest.raises(AttributeError):
        service.indexes = None


def test_reason_populated_on_bounded_path(rs_database):
    answer = QueryService(rs_database, ACCESS).query(anchored_chain())
    assert answer.used_bounded_plan
    assert answer.reason  # never silently empty
    assert "heuristic" in answer.reason


def test_execute_plan_reads_the_published_pair(rs_database):
    """A hand-built plan runs on the backend's published ``(provider,
    view_cache)`` pair, read per call: reads never republish it, and the
    next call after a ``refresh`` sees the new pair."""
    service = QueryService(rs_database, ACCESS)
    backend = service._backend
    state_before = backend._state
    plan = service.query(anchored_chain()).plan
    service.query(anchored_chain(2))
    assert service.execute_plan(plan).rows == {("x",), ("y",)}
    assert backend._state is state_before  # published once, reused by reads
    other = Database(SCHEMA, {"R": [(1, 10)], "S": [(10, "new")]})
    backend.refresh(provider=IndexSet(other, ACCESS))
    assert backend.execute_plan(plan).rows == {("new",)}
    assert service.execute_plan(plan).rows == {("new",)}


def test_deprecated_shims_are_gone():
    import importlib

    import repro

    for module in ("repro.engine.session", "repro.engine.maintenance"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    removed = {
        "BoundedEngine",
        "EngineAnswer",
        "MaintainedEngine",
        "IncrementalViewCache",
        "MaintainedIndexSet",
    }
    assert not removed & set(repro.__all__)
    assert not removed & set(repro.engine.__all__)
    assert not hasattr(QueryService, "refresh_data")


# --------------------------------------------------------------------------- #
# Cost model: estimates in explain, plans chosen once, tier identity, and
# warm restart through the persistent plan store
# --------------------------------------------------------------------------- #


def test_explain_reports_estimates_and_actuals(service):
    query = anchored_chain()
    service.query(query)
    explanation = service.explain(query)
    assert explanation.estimated_fetches is not None
    assert explanation.actual_fetches is not None
    assert explanation.operator_estimates  # one line per fetch operator
    text = explanation.render()
    assert "estimated D" in text
    assert "last actual" in text


def test_a_plan_is_chosen_once_and_outlives_the_counts_it_was_priced_on(
    monkeypatch,
):
    """The feed query is planned while its hot celebrity has 10 fans; then
    990 more arrive, and the plan fetches far more than its estimate.  The
    cached entry, its closure and its plan-time estimate stay, no planner
    runs again, and every answer — prepared or not — has the full-scan
    baseline's rows and one same ``Dξ``: a bounded plan's ``Dξ`` is capped
    by its certificate, whatever ``|D|`` grows to."""
    from repro.engine.service.planners import HeuristicPlanner
    from repro.storage.updates import Insertion, UpdateBatch
    from repro.workloads import skewed

    calls = []
    plan = HeuristicPlanner.plan
    monkeypatch.setattr(
        HeuristicPlanner, "plan", lambda self, *args: calls.append(1) or plan(self, *args)
    )
    database = skewed.generate(hot_fans=10, users=1000, seed=5).database
    service = QueryService(database, skewed.access_schema(), skewed.views())
    query = skewed.query_feed()
    prepared = service.prepare(query)
    prepared.execute()
    held = prepared.entry
    closure, estimate = held.compiled, held.estimated_fetches
    service.apply(
        UpdateBatch(
            [Insertion("follows", (skewed.HOT_CELEB, f"fan{i}")) for i in range(10, 1000)]
        )
    )
    answers = [prepared.execute(), prepared.execute(), service.query(query)]
    assert len(calls) == 1
    ((_, cached),) = service.plan_cache.entries()
    assert cached is held and prepared.entry is held and held.compiled is closure
    assert held.executions == 4 and held.estimated_fetches == estimate
    rows, fetched = service.baseline(query).rows, answers[0].tuples_fetched
    assert fetched > 10 * estimate
    for answer in answers:
        assert answer.execution_tier == "compiled"
        assert (answer.rows, answer.tuples_fetched) == (rows, fetched)
    explanation = service.explain(query)
    assert explanation.estimated_fetches == estimate
    assert explanation.actual_fetches == fetched
    service.close()


@pytest.mark.parametrize("constant", [1, 4], ids=["two-keys", "no-key"])
@pytest.mark.parametrize("max_dp_atoms", [10, 0], ids=["dp", "greedy"])
def test_tiers_are_meter_identical_under_either_order(rs_database, max_dp_atoms, constant):
    """The compiled answer and the interpreted run of the same cached plan
    agree on rows and Dxi accounting, whichever orderer chose the join
    order — also when the anchor matches no ``R`` row and the answer is
    empty."""
    from repro.engine.service.planners import HeuristicPlanner

    planners = (HeuristicPlanner(max_dp_atoms=max_dp_atoms), "topped")
    query = anchored_chain(constant)
    with QueryService(rs_database, ACCESS, planners=planners) as service:
        answer = service.query(query)
        assert answer.used_bounded_plan and answer.execution_tier == "compiled"
        assert bool(answer.rows) == (constant == 1)
        result = interpreted(service, query)
        stats = result.stats
        assert (answer.rows, answer.tuples_fetched, answer.view_tuples_scanned) == (
            result.rows,
            stats.tuples_fetched,
            stats.view_tuples_scanned,
        )


def test_plan_store_restart_first_execution_is_compiled(rs_database, tmp_path):
    path = str(tmp_path / "plans.bin")
    query = anchored_chain()
    first = QueryService(rs_database, ACCESS, plan_store=path)
    expected = first.query(query)
    assert expected.execution_tier == "compiled"
    first.close()

    second = QueryService(rs_database, ACCESS, plan_store=path)
    answer = second.query(query)
    assert answer.rows == expected.rows
    assert answer.cache_hit  # no re-planning after the restart
    assert answer.execution_tier == "compiled"  # recompiled when restored
    assert second.stats.snapshot().plan_store_hits == 1
    second.close()
