"""The codegen execution tier: bit-identical rows *and* ``Dξ`` accounting.

Layers of evidence that a compiled closure realises Section 2's semantics,
checked against the ``Dξ`` reference (``conftest.reference``) and the SQL
oracle:

* unit tests on the canonical workload plans (Figure 1, Q0, CDR): rows and
  every :class:`~repro.exec.iometer.IOMeter` field identical to the
  reference's;
* service-level tests of the one tier lifecycle — every plan compiled when
  admitted and served compiled from its first execution, explain, per-tier
  stats, prepared/parameterised execution without ``bind_plan``, and
  closures that outlive writes and eviction;
* the set-at-a-time kernels — batched fetch, key-set semi-joins, join keys
  spanning product factors, ``π`` onto one factor — on the ``IndexSet``
  facade and on a snapshot read directly;
* the rows-only-where-read rules — dropped implied checks (``NaN`` kept),
  semi-join filters, emptiness guards — their ``explain()`` marks, and
  pins on Q0's and the feed query's kernels (no crossed row, no row
  predicate);
* keyed view reads — a ``σ`` with constant or ``Param`` keys over a view
  leaf probes the view version's index and charges its bucket (``NaN``
  finds nothing, ``1``/``1.0``/``True`` find what ``==`` finds), a write
  publishes a new version of the view it changes, and the CDR
  ``premium_callers`` kernel tests no ``V_daily`` row;
* a differential property test over ~200 random CQs/UCQs, each bounded
  answer also checked against the SQL oracle (``conftest.SQLOracle``),
  re-run after ``apply()`` write batches.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.algebra.fo import atom as fo_atom
from repro.algebra.parser import parse_cq, parse_query
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Param, Variable
from repro.algebra.views import View, ViewSet
from repro.algebra.ucq import UnionQuery
from repro.analysis import codegen_eligibility
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.plan_eval import FetchStats, bind_plan, plan_parameters
from repro.core.plans import (
    AttributeEqualsAttribute,
    AttributeEqualsConstant,
    ConstantScan,
    FetchNode,
    ProductNode,
    ProjectNode,
    RenameNode,
    SelectNode,
    ViewScan,
)
from repro.engine.service import QueryService
from repro.errors import PlanError
from repro.exec import codegen
from repro.exec.codegen import compile_plan_closure
from repro.storage.indexes import IndexSet
from repro.storage.instance import Database
from repro.storage.updates import Insertion, UpdateBatch, random_update_batch
from repro.workloads import cdr, graph_search, skewed
from repro.workloads.random_cq import RandomCQConfig, random_workload

from conftest import SQLOracle, interpreted, reference, view_versions


def _meters_equal(a, b) -> bool:
    return (
        a.tuples_fetched == b.tuples_fetched
        and a.fetch_calls == b.fetch_calls
        and a.per_relation == b.per_relation
        and a.view_tuples_scanned == b.view_tuples_scanned
    )


def _assert_tiers_identical(plan, service, provider=None, params=None):
    """Run ``plan``'s compiled closure over ``service``'s views and
    ``provider`` (its indexes by default), with ``params`` bound: its rows
    and every meter field must equal the ``Dξ`` reference's
    (``conftest.reference``) on the bound plan, and its rows the SQL
    oracle's."""
    provider = provider if provider is not None else service.indexes
    access, view_cache = service.access_schema, service.view_cache
    bound = bind_plan(plan, params) if params else plan
    expected = reference(bound, access, provider, view_cache)
    compiled = compile_plan_closure(plan, access)
    meter = FetchStats()
    rows = compiled.execute(provider, view_versions(view_cache), meter, params)
    assert rows == expected.rows
    assert compiled.attributes == plan.attributes
    assert _meters_equal(meter, expected.stats), (
        f"Dξ accounting diverged: compiled={meter} reference={expected.stats}"
    )
    assert SQLOracle(service).plan_rows(bound) == rows
    return rows, meter


# --------------------------------------------------------------------------- #
# Unit: canonical plans, both tiers bit-identical
# --------------------------------------------------------------------------- #


def test_figure1_plan_identical_tiers(gs_instance, gs_access):
    service = QueryService(gs_instance.database, gs_access, graph_search.views())
    rows, meter = _assert_tiers_identical(graph_search.figure1_plan(), service)
    assert rows  # the instance is seeded so Q0 is non-empty
    assert meter.tuples_fetched > 0


def test_planner_q0_identical_tiers(gs_instance, gs_access, gs_q0):
    service = QueryService(gs_instance.database, gs_access, graph_search.views())
    entry, _ = service.plan(gs_q0)
    assert entry.plan is not None
    _assert_tiers_identical(entry.plan, service)


def test_cdr_plans_identical_tiers():
    data = cdr.generate(num_customers=60, num_days=3, seed=1)
    service = QueryService(data.database, cdr.access_schema(), cdr.views())
    config = RandomCQConfig(min_atoms=1, max_atoms=3, head_size=2, seed=23)
    checked = 0
    for query in random_workload(cdr.schema(), data.database, 40, config):
        entry, _ = service.plan(query, use_cache=False)
        if entry.plan is None:
            continue
        _assert_tiers_identical(entry.plan, service)
        checked += 1
    assert checked >= 10


def test_compiled_plan_rejects_missing_bindings(gs_instance, gs_access):
    service = QueryService(gs_instance.database, gs_access, graph_search.views())
    query = parse_query('Q(m, k) :- movie(m, mn, :studio, "2014"), rating(m, k)')
    entry, _ = service.plan(query)
    assert entry.plan is not None
    compiled = compile_plan_closure(entry.plan, gs_access)
    assert compiled.parameters == frozenset({"studio"})
    with pytest.raises(PlanError, match="studio"):
        compiled.execute(service.indexes, view_versions(service.view_cache), FetchStats())


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("with_static", [False, True])
def test_parameter_checks_read_their_slot_like_bound_constants(
    gs_instance, gs_access, with_static, negated
):
    """A ``Param`` in a scan or a selection resolves to one slot of the
    execution's value tuple: whatever mix of plain, parameterised and negated
    checks a node carries, the closure run with bindings equals — rows and
    every meter field — both tiers run on the bound plan."""
    from repro.algebra.terms import Param
    from repro.core.plan_eval import bind_plan
    from repro.core.plans import (
        AttributeEqualsConstant,
        ConstantScan,
        FetchNode,
        ProductNode,
        SelectNode,
    )

    keys = ProductNode(
        ConstantScan(Param("studio"), attribute="studio"),
        ConstantScan(Param("year"), attribute="release"),
    )
    movies = FetchNode(keys, "movie", ("studio", "release"), ("mid",))
    predicates = [AttributeEqualsConstant("release", Param("year"), negated)]
    predicates.append(AttributeEqualsConstant("studio", Param("studio")))
    if with_static:
        predicates.append(AttributeEqualsConstant("mid", "no such movie", True))
    plan = SelectNode(movies, tuple(predicates))
    service = QueryService(gs_instance.database, gs_access, graph_search.views())
    views = view_versions(service.view_cache)
    compiled = compile_plan_closure(plan, gs_access)
    assert compiled.parameters == frozenset(compiled.slots) == {"studio", "year"}
    for studio, year in (("Universal", "2014"), ("Paramount", "2010"), ("nobody", "1900")):
        bindings = {"year": year, "studio": studio, "unused": 1}
        expected, meter = _assert_tiers_identical(bind_plan(plan, bindings), service)
        stats = FetchStats()
        assert compiled.execute(service.indexes, views, stats, bindings) == expected
        assert _meters_equal(stats, meter)
        assert bool(expected) == (not negated and studio != "nobody")
    with pytest.raises(PlanError, match="missing parameter bindings: studio, year"):
        compiled.execute(service.indexes, views, FetchStats(), {"unused": 1})


def test_compiled_fetch_without_constraint_rejected(gs_access):
    from repro.core.plans import FetchNode

    orphan = FetchNode(None, "person", (), ("pid", "name", "affiliation"))
    with pytest.raises(PlanError, match="covering access constraint"):
        compile_plan_closure(orphan, gs_access)


# --------------------------------------------------------------------------- #
# Service tier lifecycle: compiled when admitted; explain, stats, SQLite
# --------------------------------------------------------------------------- #


@pytest.fixture
def gs_service(gs_instance, gs_access):
    return QueryService(gs_instance.database, gs_access, graph_search.views())


def test_compiled_from_the_first_execution(gs_service, gs_q0):
    """The plan is verified and compiled when its entry is admitted, before
    any execution; every answer is the closure's, equal to the ``Dξ``
    reference of the same cached plan in rows and every meter field."""
    entry, _ = gs_service.plan(gs_q0)
    assert entry.compiled is not None and entry.executions == 0
    answers = [gs_service.query(gs_q0) for _ in range(3)]
    assert {a.execution_tier for a in answers} == {"compiled"}
    reference = interpreted(gs_service, gs_q0)
    for answer in answers:
        assert answer.rows == reference.rows
        assert answer.tuples_fetched == reference.stats.tuples_fetched
        assert answer.view_tuples_scanned == reference.stats.view_tuples_scanned
    assert entry.executions == 3


def test_tiers_agree_on_the_1000_person_instance_and_a_warm_mix_stays_compiled(
    gs_1000, gs_mix, gs_q0
):
    """Q0 is 3 rows for Dξ = 27 on either tier; 20 warm rounds of a 12-query
    mix are 240 bounded cache hits, every one served by the closure."""
    access, views = graph_search.access_schema(n0=gs_1000.n0), graph_search.views()
    service = QueryService(gs_1000.database, access, views)
    answer = service.query(gs_q0)
    reference = interpreted(service, gs_q0)
    assert (answer.execution_tier, len(answer.rows), answer.tuples_fetched) == (
        "compiled", 3, 27,
    )
    assert (reference.rows, reference.stats.tuples_fetched) == (answer.rows, 27)
    service.query_many(gs_mix)
    service.stats.reset()
    for _ in range(20):
        answers = service.query_many(gs_mix)
    assert sum(len(a.rows) for a in answers) == 24
    snapshot = service.stats.snapshot()
    assert (snapshot.cache_hit_rate, snapshot.bounded_rate) == (1.0, 1.0)
    assert snapshot.tier_uses == {"compiled": 240}


def test_compiled_q0_rows_are_the_sql_oracles(gs_service, gs_q0):
    answer = gs_service.query(gs_q0)
    assert answer.execution_tier == "compiled" and answer.rows
    oracle = SQLOracle(gs_service)
    assert oracle.rows(answer, gs_q0) == answer.rows
    oracle.close()


def test_explain_reports_the_compiled_tier_before_any_execution(gs_service, gs_q0):
    explanation = gs_service.explain(gs_q0)
    assert explanation.execution_tier == "compiled"
    assert explanation.compile_seconds is not None and explanation.compile_seconds > 0
    assert "execution tier: compiled (compiled in" in explanation.render()


def test_stats_count_executions_per_tier(gs_service, gs_q0):
    for _ in range(4):
        gs_service.query(gs_q0)
    # Not boundable under A0: a CQ fallback runs its admitted loop nest
    # (compiled), an FO fallback the active-domain evaluator (interpreted).
    gs_service.query("Q(m) :- movie(m, mn, s, r), rating(m, k)")
    gs_service.query(fo_atom("rating", Variable("m"), Constant(5)), head=(Variable("m"),))
    snapshot = gs_service.stats.snapshot()
    assert snapshot.tier_uses == {"compiled": 5, "interpreted": 1}
    gs_service.stats.reset()
    assert gs_service.stats.snapshot().tier_uses == {}


def test_fallback_tier_is_compiled_for_a_cq_and_interpreted_for_fo(gs_service):
    # Not boundable under A0: no constant anchors the movie fetch.
    unbounded = parse_query("Q(m) :- movie(m, mn, s, r), rating(m, k)")
    answer = gs_service.query(unbounded)
    assert not answer.used_bounded_plan
    assert answer.execution_tier == "compiled"
    explanation = gs_service.explain(unbounded)
    assert explanation.plan is None and explanation.execution_tier == "compiled"
    assert explanation.compile_seconds is not None
    fo = gs_service.query(
        fo_atom("rating", Variable("m"), Constant(5)), head=(Variable("m"),)
    )
    assert not fo.used_bounded_plan
    assert fo.execution_tier == "interpreted"


# --------------------------------------------------------------------------- #
# Prepared / parameterised execution (no bind_plan on the compiled tier)
# --------------------------------------------------------------------------- #


def test_prepared_query_compiles_and_matches_interpreted(gs_service, gs_instance):
    query = parse_query('Q(m, k) :- movie(m, mn, :studio, "2014"), rating(m, k)')
    prepared = gs_service.prepare(query)
    studios = sorted(
        {row[2] for row in gs_instance.database.relation("movie").tuples}
    )
    for studio in studios:
        fast = prepared.execute(studio=studio)
        slow = interpreted(gs_service, query, params={"studio": studio})
        assert fast.execution_tier == "compiled"
        assert fast.rows == slow.rows
        assert fast.tuples_fetched == slow.stats.tuples_fetched


@pytest.mark.parametrize(
    "text",
    [
        'Q(m, k) :- movie(m, mn, :studio, "2014"), rating(m, k)',
        'Q(m) :- movie(m, mn, :studio, "2014"), rating(m, 5)',  # 5 is lifted too
    ],
)
def test_answer_plan_of_a_params_execution_is_bound(gs_service, text):
    """``Answer.plan`` is the literal plan that answered: the caller's
    ``params=`` values go in on first read, as the lifted constants do
    (at the parent it still rendered ``const :studio``)."""
    prepared = gs_service.prepare(text)
    oracle = SQLOracle(gs_service)
    answers = [
        prepared.execute(params={"studio": "Universal"}),
        gs_service.query(text, params={"studio": "Universal"}),
    ]
    for answer in answers:
        assert answer.used_bounded_plan
        assert plan_parameters(answer.plan) == frozenset()
        assert ":studio" not in str(answer.plan)
        assert oracle.plan_rows(answer.plan) == answer.rows
    assert answers[0].rows == answers[1].rows
    assert plan_parameters(prepared.plan) == {"studio"}
    oracle.close()


def test_codegen_eligibility_accepts_real_plans(gs_service, gs_instance, gs_access, gs_q0):
    entry, _ = gs_service.plan(gs_q0)
    report = codegen_eligibility(
        entry.plan,
        gs_instance.database.schema,
        views=gs_service.views,
        access_schema=gs_access,
        expected_arity=1,
        subject="Q0",
    )
    assert report.ok


def test_codegen_eligibility_rejects_corrupt_plans(gs_instance, gs_access):
    from repro.core.plans import FetchNode

    report = codegen_eligibility(
        FetchNode(None, "person", (), ("pid", "name", "affiliation")),
        gs_instance.database.schema,
        views=graph_search.views(),
        access_schema=gs_access,
    )
    assert not report.ok


# --------------------------------------------------------------------------- #
# Plan lifetime: writes, LRU eviction and clear() leave closures serving
# --------------------------------------------------------------------------- #


def _fresh_interpreted(gs_instance, gs_access, query):
    """The reference after a write: a new service's plan, run by the ``Dξ``
    reference."""
    with QueryService(gs_instance.database, gs_access, graph_search.views()) as fresh:
        return interpreted(fresh, query)


def test_write_keeps_compiled_closure_serving(gs_service, gs_instance, gs_access, gs_q0):
    service = gs_service
    service.query(gs_q0)
    entry, _ = service.plan(gs_q0)
    closure, executions = entry.compiled, entry.executions
    batch = random_update_batch(gs_instance.database, size=20, seed=83)
    service.apply(batch)
    # The write touched neither the entry nor its closure ...
    assert service.plan(gs_q0)[0] is entry
    assert entry.compiled is closure and entry.executions == executions
    # ... and the closure late-binds the post-write snapshot and view cache.
    first_after = service.query(gs_q0)
    assert first_after.cache_hit and first_after.execution_tier == "compiled"
    fresh = _fresh_interpreted(gs_instance, gs_access, gs_q0)
    assert first_after.rows == fresh.rows
    assert first_after.tuples_fetched == fresh.stats.tuples_fetched
    service.apply(batch.inverted())


def test_prepared_query_stays_compiled_across_writes(gs_service, gs_instance, gs_access):
    """Prepare, write, re-execute: a held entry keeps its closure, and the
    closure answers from the post-write state (it holds no data)."""
    prepared = gs_service.prepare(graph_search.query_q0())
    prepared.execute()
    closure = prepared.entry.compiled
    batch = random_update_batch(gs_instance.database, size=20, seed=7)
    gs_service.apply(batch)
    assert prepared.entry.compiled is closure
    answer = prepared.execute()
    assert answer.cache_hit and answer.execution_tier == "compiled"
    fresh = _fresh_interpreted(gs_instance, gs_access, graph_search.query_q0())
    assert answer.rows == fresh.rows
    assert answer.tuples_fetched == fresh.stats.tuples_fetched
    gs_service.apply(batch.inverted())


def test_evicted_and_cleared_entries_keep_serving_compiled(gs_instance, gs_access, gs_q0):
    """Closures are data-independent, so an entry that left the cache — by
    LRU capacity or ``clear()`` — keeps its closure for the prepared query
    still holding it, and the next plan of the query is a fresh entry."""
    service = QueryService(
        gs_instance.database, gs_access, graph_search.views(), plan_cache_size=1
    )
    prepared = service.prepare(gs_q0)
    entry = prepared.entry
    closure = entry.compiled
    expected = interpreted(service, gs_q0)
    # LRU eviction by capacity: planning a second query pushes Q0 out.
    service.query(parse_query('Q(k) :- movie(m, mn, "Universal", "2014"), rating(m, k)'))
    assert all(cached is not entry for _, cached in service.plan_cache.entries())
    for _ in range(2):
        answer = prepared.execute()
        assert answer.execution_tier == "compiled" and answer.rows == expected.rows
    assert prepared.entry is entry and entry.compiled is closure
    service.plan_cache.clear()
    assert prepared.execute().execution_tier == "compiled"
    fresh, hit = service.plan(gs_q0)
    assert not hit and fresh.compiled is not None and fresh.compiled is not closure


# --------------------------------------------------------------------------- #
# Probe-first factoring over arbitrary left-deep product chains
# --------------------------------------------------------------------------- #


def _movies_fetch(rename: str | None = None, studio: str = "Universal"):
    """fetch(studio/2014 ∈ φ1, movie, mid) — attrs (studio, release, mid)."""
    from repro.core.plans import ConstantScan, FetchNode, ProductNode, RenameNode

    keys = ProductNode(
        ConstantScan(studio, attribute="studio"),
        ConstantScan("2014", attribute="release"),
    )
    movies = FetchNode(keys, "movie", ("studio", "release"), ("mid",))
    if rename is None:
        return movies
    return RenameNode(movies, {"mid": rename})


def _chain_select_plan(keyed: str):
    """σ over ``×(×(×(F0,F1),F2), D)`` with the join key in one chain factor.

    ``keyed`` picks which factor carries the key: ``"first"`` joins the V1
    scan of F0 against fetched movies, ``"middle"`` the constant rank of F1
    against fetched ratings, ``"last"`` the V2 scan of F2 against another V2
    scan.  In all three the join filters by the keyed factor without
    materialising the three-factor chain.
    """
    from repro.core.plans import (
        AttributeEqualsAttribute,
        ConstantScan,
        FetchNode,
        ProductNode,
        ProjectNode,
        RenameNode,
        SelectNode,
        ViewScan,
    )

    f0 = RenameNode(ViewScan("V1", ("mid",)), {"mid": "mid_a"})
    f1 = ConstantScan(5, attribute="rank_c")
    f2 = RenameNode(ViewScan("V2", ("pid",)), {"pid": "pid_b"})
    chain = ProductNode(ProductNode(f0, f1), f2)
    if keyed == "first":
        right = _movies_fetch()
        predicate = AttributeEqualsAttribute("mid_a", "mid")
    elif keyed == "middle":
        candidates = ProjectNode(_movies_fetch(), ("mid",))
        right = RenameNode(
            FetchNode(candidates, "rating", ("mid",), ("rank",)), {"mid": "mid_d"}
        )
        predicate = AttributeEqualsAttribute("rank_c", "rank")
    else:
        right = RenameNode(ViewScan("V2", ("pid",)), {"pid": "pid_d"})
        predicate = AttributeEqualsAttribute("pid_b", "pid_d")
    return SelectNode(ProductNode(chain, right), (predicate,))


@pytest.mark.parametrize("keyed", ["first", "middle", "last"])
def test_three_factor_chain_identical_tiers(gs_instance, gs_access, keyed):
    service = QueryService(gs_instance.database, gs_access, graph_search.views())
    rows, meter = _assert_tiers_identical(_chain_select_plan(keyed), service)
    assert rows  # the planted answers keep every variant non-empty


def test_four_factor_chain_identical_tiers(gs_instance, gs_access):
    from repro.core.plans import (
        AttributeEqualsAttribute,
        ConstantScan,
        ProductNode,
        RenameNode,
        SelectNode,
        ViewScan,
    )

    f0 = ConstantScan("movie", attribute="type_c")
    f1 = RenameNode(ViewScan("V1", ("mid",)), {"mid": "mid_a"})
    f2 = ConstantScan(5, attribute="rank_c")
    f3 = RenameNode(ViewScan("V2", ("pid",)), {"pid": "pid_b"})
    chain = ProductNode(ProductNode(ProductNode(f0, f1), f2), f3)
    plan = SelectNode(
        ProductNode(chain, _movies_fetch("mid_d")),
        (AttributeEqualsAttribute("mid_a", "mid_d"),),
    )
    service = QueryService(gs_instance.database, gs_access, graph_search.views())
    rows, _ = _assert_tiers_identical(plan, service)
    assert rows


def test_chain_key_spanning_factors_identical_tiers(gs_instance, gs_access):
    """The key ``(mid_a, pid_b)`` spans factors F0 and F2 of the chain, with
    F1 holding no key column: the probe groups F0 and F2 by their parts of
    the key and enumerates only the build keys whose parts both match,
    crossed with F1 — never the chain's product — bit-identically."""
    from repro.core.plans import (
        AttributeEqualsAttribute,
        ConstantScan,
        ProductNode,
        RenameNode,
        SelectNode,
        ViewScan,
    )

    f0 = RenameNode(ViewScan("V1", ("mid",)), {"mid": "mid_a"})
    f1 = ConstantScan(5, attribute="rank_c")
    f2 = RenameNode(ViewScan("V2", ("pid",)), {"pid": "pid_b"})
    chain = ProductNode(ProductNode(f0, f1), f2)
    right = RenameNode(
        ProductNode(_movies_fetch("mid_d"), ViewScan("V2", ("pid",))),
        {"pid": "pid_d"},
    )
    plan = SelectNode(
        ProductNode(chain, right),
        (
            AttributeEqualsAttribute("mid_a", "mid_d"),
            AttributeEqualsAttribute("pid_b", "pid_d"),
        ),
    )
    service = QueryService(gs_instance.database, gs_access, graph_search.views())
    rows, _ = _assert_tiers_identical(plan, service)
    assert rows


# --------------------------------------------------------------------------- #
# Set-at-a-time kernels: batched fetch, key-set semi-joins, spanning keys —
# each on the IndexSet facade and on a snapshot (``gs_provider``)
# --------------------------------------------------------------------------- #

NOBODY = "no such studio"


def _movie_ids(studio: str = "Universal", attribute: str = "mid"):
    """π[mid](fetch(studio/2014 ∈ φ1, movie)), the column named ``attribute``."""
    ids = ProjectNode(_movies_fetch(studio=studio), ("mid",))
    return ids if attribute == "mid" else RenameNode(ids, {"mid": attribute})


def _ratings(studio: str = "Universal"):
    """fetch(π[mid] movies ∈ φ2, rating) as ``(mid_d, rank_d)``: one batch
    of every movie key, empty when the studio has no movies."""
    ratings = FetchNode(_movie_ids(studio), "rating", ("mid",), ("rank",))
    return RenameNode(ratings, {"mid": "mid_d", "rank": "rank_d"})


def _nasa(attribute: str):
    return RenameNode(ViewScan("V2", ("pid",)), {"pid": attribute})


def _check_provider(gs_provider, plan):
    provider, service = gs_provider
    return _assert_tiers_identical(plan, service, provider)


def test_canonical_plans_identical_tiers_on_every_provider(
    gs_access, gs_provider, gs_instance, gs_q0
):
    service = QueryService(gs_instance.database, gs_access, graph_search.views())
    entry, _ = service.plan(gs_q0)
    for plan in (graph_search.figure1_plan(), entry.plan):
        rows, _ = _check_provider(gs_provider, plan)
        assert rows


@pytest.mark.parametrize("shape", ["join", "semi", "project", "residual"])
@pytest.mark.parametrize("span", [2, 3])
def test_key_spanning_factors_with_a_free_factor_identical_tiers(
    gs_access, gs_provider, span, shape
):
    """``σ[k = k'](chain × build)`` over the chain ``mid_a × pid_b × rank_c ×
    tag`` whose key spans two (``mid_a``, ``rank_c``) or three factors
    (plus ``pid_b``) while ``tag`` holds no key column — as a plain join, a
    semi-join, a projection keeping a build column, and with residuals."""
    chain = ProductNode(
        ProductNode(
            ProductNode(_movie_ids(attribute="mid_a"), _nasa("pid_b")),
            ConstantScan(5, attribute="rank_c"),
        ),
        ConstantScan("free", attribute="tag"),
    )
    build = _ratings()
    predicates = [
        AttributeEqualsAttribute("mid_a", "mid_d"),
        AttributeEqualsAttribute("rank_c", "rank_d"),
    ]
    if span == 3:
        build = ProductNode(build, _nasa("pid_d"))
        predicates.append(AttributeEqualsAttribute("pid_b", "pid_d"))
    if shape == "residual":
        predicates.append(AttributeEqualsConstant("tag", "free"))
        predicates.append(AttributeEqualsConstant("mid_a", "none", negated=True))
    plan = SelectNode(ProductNode(chain, build), tuple(predicates))
    if shape == "semi":
        plan = ProjectNode(plan, ("tag", "mid_a", "pid_b"))
    elif shape == "project":
        plan = ProjectNode(plan, ("pid_b", "rank_d"))
    rows, meter = _check_provider(gs_provider, plan)
    assert rows  # the planted rank-5 movies keep every variant non-empty
    assert meter.per_relation["rating"] > 0


@pytest.mark.parametrize("semi", [False, True])
@pytest.mark.parametrize("empty", ["keyed_factor", "free_factor", "build_side"])
def test_empty_inputs_still_charge_every_subtree(
    gs_access, gs_provider, empty, semi
):
    """An empty keyed factor, free factor or build side empties the join,
    yet every other subtree still runs once — its view scans and fetches
    charged as by the reference — and an empty key batch charges nothing."""
    mid_a = _movie_ids(NOBODY if empty == "keyed_factor" else "Universal", "mid_a")
    free = (
        _movie_ids(NOBODY, "tag") if empty == "free_factor" else _nasa("tag")
    )
    chain = ProductNode(ProductNode(mid_a, free), ConstantScan(5, attribute="rank_c"))
    build = _ratings(NOBODY if empty == "build_side" else "Universal")
    plan = SelectNode(
        ProductNode(chain, build),
        (
            AttributeEqualsAttribute("mid_a", "mid_d"),
            AttributeEqualsAttribute("rank_c", "rank_d"),
        ),
    )
    if semi:
        plan = ProjectNode(plan, ("mid_a",))
    rows, meter = _check_provider(gs_provider, plan)
    assert rows == frozenset()
    assert meter.fetch_calls > 0
    assert meter.view_tuples_scanned > 0 or empty == "free_factor"
    # The rating fetch of an empty movie batch is no fetch at all.
    assert ("rating" in meter.per_relation) == (empty != "build_side")


@pytest.mark.parametrize("chained", [False, True])
def test_semi_join_with_duplicate_build_keys_identical_tiers(
    gs_access, gs_provider, chained
):
    """Every rating is crossed with every NASA person, so each build key
    repeats once per person: the key set holds it once and each matching
    probe row is kept once — from a plain probe side and from a chain."""
    left = _movie_ids(attribute="mid_a")
    if chained:
        left = ProductNode(left, ConstantScan("free", attribute="tag"))
    build = ProductNode(_ratings(), _nasa("pid_d"))
    plan = ProjectNode(
        SelectNode(ProductNode(left, build), (AttributeEqualsAttribute("mid_a", "mid_d"),)),
        ("mid_a",),
    )
    rows, _ = _check_provider(gs_provider, plan)
    assert rows


@pytest.mark.parametrize("other_empty", [False, True])
def test_projection_onto_one_factor_of_a_product_identical_tiers(
    gs_access, gs_provider, other_empty
):
    """``π`` keeping only ``pid_b`` of ``pid_b × mid_a × rank_c`` is the V2
    scan when the other factors are non-empty and empty otherwise; the
    movie fetch is charged either way."""
    product = ProductNode(
        ProductNode(
            _nasa("pid_b"), _movie_ids(NOBODY if other_empty else "Universal", "mid_a")
        ),
        ConstantScan(5, attribute="rank_c"),
    )
    rows, meter = _check_provider(
        gs_provider, ProjectNode(product, ("pid_b",))
    )
    assert bool(rows) == (not other_empty)
    assert meter.fetch_calls == 1 and meter.view_tuples_scanned > 0


@pytest.mark.parametrize("negated", [False, True])
def test_parameter_checks_on_a_batched_filtered_fetch(
    gs_access, gs_provider, negated
):
    """``σ[rank = :rank]`` fused into a rating fetch whose key batch holds
    every Universal/2014 movie: the closure run with bindings equals both
    tiers run on the bound plan, rows and every meter field."""
    from repro.algebra.terms import Param
    from repro.core.plan_eval import bind_plan

    ratings = FetchNode(_movie_ids(), "rating", ("mid",), ("rank",))
    plan = ProjectNode(
        SelectNode(ratings, (AttributeEqualsConstant("rank", Param("rank"), negated),)),
        ("mid",),
    )
    provider, service = gs_provider
    compiled = compile_plan_closure(plan, gs_access)
    for rank in (5, 1, 99):
        expected, meter = _check_provider(
            gs_provider, bind_plan(plan, {"rank": rank})
        )
        stats = FetchStats()
        views = view_versions(service.view_cache)
        assert compiled.execute(provider, views, stats, {"rank": rank}) == expected
        assert _meters_equal(stats, meter)
        assert meter.per_relation["rating"] > 1  # a batch of several keys


def test_fetch_many_equals_fetch_per_key_on_every_provider(gs_instance, gs_access):
    """``fetch_many`` is ``[fetch(k) for k in keys]`` on the IndexSet facade
    and on a snapshot — rows in key order."""
    movie, rating = sorted(gs_access, key=lambda c: c.relation)
    movies = gs_instance.database.relation("movie").tuples
    batches = {
        movie: [(studio, year) for _, _, studio, year in movies][:20]
        + [(NOBODY, "2014")],
        rating: [(mid,) for mid, _, _, _ in movies][:20] + [("no such movie",)],
    }
    with QueryService(gs_instance.database, gs_access, graph_search.views()) as service:
        for constraint, keys in batches.items():
            keys = list(dict.fromkeys(keys))
            for provider in (service.indexes, service._snapshots.reader()):
                assert provider.fetch_many(constraint, keys) == [
                    provider.fetch(constraint, key) for key in keys
                ]
                assert provider.fetch_many(constraint, ()) == []


@pytest.mark.parametrize("provider", ["index_set", "snapshot"])
def test_feed_key_spanning_two_factors_identical_tiers(skewed_small, provider):
    """The planned feed query joins ``contacted`` on ``(fan, agent)``, a key
    spanning ``π[fan] × π[agent]``, and fetches ``contacted`` for
    ``π[fan]`` of that product: neither product is built, and both tiers
    agree on rows and ``Dξ``, on the IndexSet facade and on a snapshot."""
    access = skewed.access_schema()
    with QueryService(skewed_small.database, access, skewed.views()) as service:
        entry, _ = service.plan(skewed.query_feed())
        reader = (
            service._snapshots.reader() if provider == "snapshot" else service.indexes
        )
        rows, meter = _assert_tiers_identical(entry.plan, service, reader)
    assert rows and meter.per_relation["contacted"] > 0


# --------------------------------------------------------------------------- #
# Rows only where someone reads them: implied checks, semi-join filters and
# emptiness guards
# --------------------------------------------------------------------------- #

NAN = float("nan")
DROPPED = "implied check dropped"


@pytest.fixture
def predicate_calls(monkeypatch):
    """Counts every row predicate call of the closures compiled from here
    on (each goes through ``codegen._predicate_factory``)."""
    calls = Counter()
    factory_of = codegen._predicate_factory

    def counting_factory(checks, parameters):
        factory = factory_of(checks, parameters)

        def per_execution(runtime):
            predicate = factory(runtime)

            def counted(row):
                calls["row"] += 1
                return predicate(row)

            return counted

        return per_execution

    monkeypatch.setattr(codegen, "_predicate_factory", counting_factory)
    return calls


def _nan_service():
    """``R(a, b)`` under ``R(a → b, 2)``, one of its rows keyed by the very
    object ``NAN``, so an index probe with ``NAN`` finds it by identity."""
    database = Database(schema_from_spec({"R": ("a", "b")}), {"R": {(NAN, 1), (2, 3)}})
    access = AccessSchema((AccessConstraint("R", ("a",), ("b",), 2),))
    return QueryService(database, access, ViewSet(()))


def _nan_fetch(value):
    return FetchNode(ConstantScan(value, attribute="a"), "R", ("a",), ("b",))


def _universal_mid(gs_instance):
    return min(
        mid
        for mid, _, studio, year in gs_instance.database.relation("movie").tuples
        if (studio, year) == ("Universal", "2014")
    )


def _implied_case(case, gs_instance):
    """``(plan, params, dropped)`` for one ``σ[a = v](fetch(…))`` shape."""
    studio = AttributeEqualsConstant("studio", "Universal")
    if case == "same-constant":
        return SelectNode(_movies_fetch(), (studio,)), None, True
    if case == "same-param":
        check = AttributeEqualsConstant("studio", Param("s"))
        return SelectNode(_movies_fetch(studio=Param("s")), (check,)), {"s": "Universal"}, True
    if case == "negated":
        check = AttributeEqualsConstant("studio", "Universal", negated=True)
        return SelectNode(_movies_fetch(), (check,)), None, False
    if case == "other-value":
        check = AttributeEqualsConstant("studio", "Paramount")
        return SelectNode(_movies_fetch(), (check,)), None, False
    if case == "other-param":
        check = AttributeEqualsConstant("studio", Param("t"))
        plan = SelectNode(_movies_fetch(studio=Param("s")), (check,))
        return plan, {"s": "Universal", "t": "Universal"}, False
    if case == "non-constant-child":
        ratings = FetchNode(_movie_ids(), "rating", ("mid",), ("rank",))
        check = AttributeEqualsConstant("mid", _universal_mid(gs_instance))
        return SelectNode(ratings, (check,)), None, False
    if case == "nan-constant":
        plan = SelectNode(_nan_fetch(NAN), (AttributeEqualsConstant("a", NAN),))
        return plan, None, False
    assert case == "nan-param"
    plan = SelectNode(_nan_fetch(Param("p")), (AttributeEqualsConstant("a", Param("p")),))
    return plan, {"p": NAN}, True


@pytest.mark.parametrize(
    "case",
    [
        "same-constant",
        "same-param",
        "negated",
        "other-value",
        "other-param",
        "non-constant-child",
        "nan-constant",
        "nan-param",
    ],
)
def test_a_check_the_fetch_key_implies_is_dropped(
    gs_instance, gs_access, predicate_calls, case
):
    """``σ[a = v](fetch(const v))`` on a key attribute ``a``: the check is
    dropped for the same constant or ``Param`` and kept for a negated
    check, another value or parameter, a child that is not all constants,
    and a constant not equal to itself.  A dropped ``Param`` check leaves
    one reflexivity test per execution, so ``NaN`` still returns nothing
    for the row the index finds by identity.  Rows and every meter field
    equal the reference's either way."""
    plan, params, dropped = _implied_case(case, gs_instance)
    nan = case.startswith("nan")
    service = (
        _nan_service()
        if nan
        else QueryService(gs_instance.database, gs_access, graph_search.views())
    )
    rows, meter = _assert_tiers_identical(plan, service, params=params)
    compiled = compile_plan_closure(plan, service.access_schema)
    assert (DROPPED in compiled.notes.get((), "")) == dropped
    predicate_calls.clear()
    views = view_versions(service.view_cache)
    compiled.execute(service.indexes, views, FetchStats(), params)
    assert (predicate_calls["row"] == 0) == dropped
    assert meter.tuples_fetched > 0  # the check had rows to run on
    assert bool(rows) == (case in ("same-constant", "same-param", "other-param", "non-constant-child"))


@pytest.mark.parametrize("crossed", [False, True])
def test_an_all_key_factor_is_a_semi_join_filter(gs_access, gs_provider, crossed):
    """``σ[mid_a = mid_d](chain × ratings)``: ``mid_a`` holds only the join
    key, so it only filters the build keys and its column is read off the
    surviving key — alone, and next to a free factor whose column is
    crossed with each key's ratings."""
    left = _movie_ids(attribute="mid_a")
    if crossed:
        left = ProductNode(left, _nasa("pid_b"))
    plan = SelectNode(
        ProductNode(left, _ratings()), (AttributeEqualsAttribute("mid_a", "mid_d"),)
    )
    rows, _ = _check_provider(gs_provider, plan)
    assert rows and all(row[0] == row[-2] for row in rows)
    notes = compile_plan_closure(plan, gs_access).notes
    assert notes == {((0, 0, 0) if crossed else (0, 0)): "semi-join filter"}


@pytest.mark.parametrize("empty", [False, True])
def test_a_dead_factor_is_an_emptiness_guard(gs_access, gs_provider, empty):
    """``π[mid_a, rank_d]`` over ``σ[mid_a = mid_d]((mid_a × dead) ×
    ratings)`` reads no column of ``dead``: it is evaluated and charged,
    then only tested for emptiness — empty, it empties the join."""
    dead = _movie_ids(NOBODY if empty else "Universal", "dead")
    chain = ProductNode(_movie_ids(attribute="mid_a"), dead)
    plan = ProjectNode(
        SelectNode(
            ProductNode(chain, _ratings()), (AttributeEqualsAttribute("mid_a", "mid_d"),)
        ),
        ("mid_a", "rank_d"),
    )
    rows, meter = _check_provider(gs_provider, plan)
    assert bool(rows) == (not empty)
    assert meter.fetch_calls > 3  # three movie fetches, one rating batch
    notes = compile_plan_closure(plan, gs_access).notes
    assert notes[(0, 0, 0, 0)] == "semi-join filter"
    assert notes[(0, 0, 0, 1)] == "emptiness guard"


def test_q0_kernel_concatenates_no_rows(gs_1000, gs_q0, monkeypatch):
    """Q0's plan carries ``π[mid] V1 × ρ[pid→xp] π[pid] V2`` in both copies
    of its duplicated subtree, and nothing reads ``xp``: V1 is a semi-join
    filter, V2 an emptiness guard, and the kernel crosses nothing (it
    concatenated 108 rows per execution before liveness).  Neither view is
    probed — both are read whole and charged ``|V|``."""
    calls = Counter()
    concat = codegen._concat

    def counting(parts):
        calls["concat"] += 1
        return concat(parts)

    monkeypatch.setattr(codegen, "_concat", counting)
    access = graph_search.access_schema(n0=gs_1000.n0)
    with QueryService(gs_1000.database, access, graph_search.views()) as service:
        answer = service.query(gs_q0)
        assert answer.rows == SQLOracle(service).rows(answer, gs_q0)
    assert len(answer.rows) == 3 and answer.tuples_fetched == 27
    assert answer.view_tuples_scanned == 112
    assert calls["concat"] == 0


def test_feed_kernel_runs_no_row_predicate(skewed_small, predicate_calls):
    """Every check of the planned feed query is a ``σ[celeb = $0]`` or
    ``σ[team = $1]`` on rows the index returned for exactly that key: the
    closure runs no row predicate (210 calls per execution here before)."""
    query = skewed.query_feed()
    with QueryService(skewed_small.database, skewed.access_schema(), skewed.views()) as service:
        answer = service.query(query)
        assert answer.rows and answer.rows == SQLOracle(service).rows(answer, query)
    assert predicate_calls["row"] == 0


def test_explain_marks_what_the_kernel_does_instead(skewed_small, gs_1000, gs_q0):
    """``explain()`` marks each dropped implied check, semi-join filter and
    emptiness guard on the plan tree, by the compiled plan's notes."""
    with QueryService(skewed_small.database, skewed.access_schema(), skewed.views()) as service:
        explanation = service.explain(skewed.query_feed())
        entry, _ = service.plan(skewed.query_feed())
        assert explanation.kernel_notes == entry.compiled.notes
        feed = [line.strip() for line in explanation.render().splitlines()]
    assert feed.count("σ[celeb = 'c_hot']  -> (celeb, fan)  [implied check dropped: celeb]") == 2
    assert feed.count("σ[team = 't0']  -> (team, agent)  [implied check dropped: team]") == 2
    assert feed.count("π[fan]  -> (fan)  [semi-join filter]") == 1
    assert feed.count("π[agent]  -> (agent)  [semi-join filter]") == 1
    assert feed.count("π[fan]  -> (fan)  [emptiness guard]") == 1

    access = graph_search.access_schema(n0=gs_1000.n0)
    with QueryService(gs_1000.database, access, graph_search.views()) as service:
        q0 = [line.strip() for line in service.explain(gs_q0).render().splitlines()]
    assert q0.count("ρ[pid→xp]  -> (xp)  [emptiness guard]") == 2
    assert q0.count("π[mid]  -> (mid)  [semi-join filter]") == 2
    dropped = "[implied check dropped: studio, release]"
    assert sum(line.endswith(dropped) for line in q0) == 2
    assert not any(line.startswith("σ[rank = 5]") and "[" in line[12:] for line in q0)


# --------------------------------------------------------------------------- #
# Keyed view reads: a σ over a view leaf probes the view version's index
# --------------------------------------------------------------------------- #

#: ``V(a, b, c) :- R(a, b, c)``; ``a`` holds ``1``, ``1.0`` and ``True`` on
#: three rows, which ``==`` (and SQL) equate, and the one object ``NAN``.
_VIEW_ROWS = {
    (1, "p", 1),
    (1.0, "q", 2),
    (True, "r", 3),
    (2, "p", 2),
    (2, "q", 9),
    (3, "s", 3),
    (NAN, "n", 4),
}
_V = ViewScan("V", ("a", "b", "c"))
PROBE = "view probe"


def _view_service():
    """``R(a, b, c)`` with its copy ``V`` and ``U(a) :- R(a, 'zzz', c)``,
    which stays empty."""
    schema = schema_from_spec({"R": ("a", "b", "c")})
    access = AccessSchema((AccessConstraint("R", ("a",), ("b", "c"), 10),))
    views = ViewSet(
        (
            View("V", parse_cq("V(a, b, c) :- R(a, b, c)")),
            View("U", parse_cq("U(a) :- R(a, 'zzz', c)")),
        )
    )
    return QueryService(Database(schema, {"R": _VIEW_ROWS}), access, views)


def _eq(attribute, value, negated=False):
    return AttributeEqualsConstant(attribute, value, negated)


def _probe_case(case):
    """``(plan, params, view rows the probe charges)`` for one keyed read."""
    if case == "constant":
        return SelectNode(_V, (_eq("b", "p"),)), None, 2
    if case == "param":
        return SelectNode(_V, (_eq("b", Param("x")),)), {"x": "q"}, 2
    if case == "chain":
        chain = RenameNode(ProjectNode(_V, ("b", "c")), {"b": "x"})
        return ProjectNode(SelectNode(chain, (_eq("x", "p"),)), ("c",)), None, 2
    if case == "two-keys":
        checks = (_eq("a", 2), _eq("b", Param("x")))
        return SelectNode(_V, checks), {"x": "q"}, 1
    if case == "nan-constant":
        return SelectNode(_V, (_eq("a", NAN),)), None, 0
    if case == "nan-param":
        return SelectNode(_V, (_eq("a", Param("x")),)), {"x": NAN}, 0
    if case == "empty-bucket":
        return SelectNode(_V, (_eq("b", "none"),)), None, 0
    if case.startswith("key-"):
        key = {"key-1": 1, "key-1.0": 1.0, "key-True": True}[case]
        return SelectNode(_V, (_eq("a", key),)), None, 3
    assert case == "residual"
    checks = (
        _eq("a", 2),
        _eq("b", "q", negated=True),
        AttributeEqualsAttribute("c", "a"),
    )
    return SelectNode(_V, checks), None, 2


@pytest.mark.parametrize(
    "case",
    [
        "constant",
        "param",
        "chain",
        "two-keys",
        "nan-constant",
        "nan-param",
        "empty-bucket",
        "key-1",
        "key-1.0",
        "key-True",
        "residual",
    ],
)
def test_a_keyed_selection_on_a_view_probes_its_index(predicate_calls, case):
    """``σ[a = v](V)``, directly or through a ``π``/``ρ`` chain, is one probe
    of the view version's index: it charges the rows of its bucket (``NaN``
    finds none, though the view holds that very object), ``1``, ``1.0`` and
    ``True`` find the same rows as ``==``, and a negated or attribute check
    filters the bucket.  Rows and every meter field equal the reference's,
    rows the SQL oracle's."""
    plan, params, charged = _probe_case(case)
    service = _view_service()
    rows, meter = _assert_tiers_identical(plan, service, params=params)
    assert meter.view_tuples_scanned == charged < len(_VIEW_ROWS)
    assert meter.tuples_fetched == 0
    assert bool(rows) == (case not in ("nan-constant", "nan-param", "empty-bucket"))
    if case.startswith("key-"):
        assert {row[1] for row in rows} == {"p", "q", "r"}
    compiled = compile_plan_closure(plan, service.access_schema)
    path = (0,) if case == "chain" else ()
    assert compiled.notes[path].startswith(PROBE)
    predicate_calls.clear()
    compiled.execute(service.indexes, view_versions(service.view_cache), FetchStats(), params)
    assert predicate_calls["row"] == (2 if case == "residual" else 0)


def test_a_selection_without_a_key_on_a_view_scans_it(predicate_calls):
    """Only non-negated constant checks key a probe: a negated or attribute
    check alone filters the whole view, charged ``|V|``."""
    service = _view_service()
    plan = SelectNode(_V, (_eq("b", "p", negated=True), AttributeEqualsAttribute("a", "c")))
    rows, meter = _assert_tiers_identical(plan, service)
    assert rows == {(3, "s", 3)}
    assert meter.view_tuples_scanned == len(_VIEW_ROWS)
    assert PROBE not in str(compile_plan_closure(plan, service.access_schema).notes)


def test_a_probe_of_a_missing_view_raises_plan_error():
    service = _view_service()
    plan = SelectNode(ViewScan("W", ("a",)), (_eq("a", 1),))
    compiled = compile_plan_closure(plan, service.access_schema)
    with pytest.raises(PlanError, match="'W' is not materialised"):
        compiled.execute(service.indexes, view_versions(service.view_cache), FetchStats())
    with pytest.raises(PlanError, match="'W' is not materialised"):
        reference(plan, service.access_schema, service.indexes, service.view_cache)


def test_a_write_publishes_a_new_version_of_the_view_it_changes():
    """The backend publishes one version per view: a write that changes
    ``V`` starts a new version (and the next probe reads it), the unchanged
    ``U`` keeps its version and indexes, and an execution pinned to the
    older version still reads that version's rows."""
    service = _view_service()
    plan = SelectNode(_V, (_eq("b", "p"),))
    compiled = compile_plan_closure(plan, service.access_schema)
    before = service._backend.views
    first = service.execute_plan(plan)
    assert first.rows == {(1, "p", 1), (2, "p", 2)}
    service.apply(UpdateBatch([Insertion("R", (4, "p", 4))]))
    after = service._backend.views
    assert after["V"] is not before["V"] and after["U"] is before["U"]
    second = service.execute_plan(plan)
    assert second.rows == first.rows | {(4, "p", 4)}
    assert second.stats.view_tuples_scanned == 3
    _assert_tiers_identical(plan, service)
    pinned = FetchStats()
    assert compiled.execute(service.indexes, before, pinned) == first.rows
    assert pinned.view_tuples_scanned == 2


def test_premium_callers_kernel_probes_v_daily(predicate_calls):
    """``premium_callers`` reads ``σ[day = $1](V_daily)``: the kernel probes
    the view's index instead of testing each of its rows (a row predicate
    per ``V_daily`` row before) and charges the day's rows only."""
    data = cdr.generate(num_customers=100, num_days=7, seed=5)
    premium = {row[0] for row in data.database.relation("customer") if row[2] == "premium"}
    caller, callee, day = min(
        row[:3] for row in data.database.relation("call") if row[0] in premium
    )
    query = (
        f"Q(caller) :- call(caller, '{callee}', {day}, d, c), "
        "customer(caller, name, 'premium', region)"
    )
    with QueryService(data.database, cdr.access_schema(), cdr.views()) as service:
        answer = service.query(query)
        assert (caller,) in answer.rows
        assert answer.rows == SQLOracle(service).rows(answer, query)
        expected = interpreted(service, query).stats
        assert answer.view_tuples_scanned == expected.view_tuples_scanned
        views = service.view_cache
        text = service.explain(query).render()
    assert predicate_calls["row"] == 0
    daily = sum(1 for row in views["V_daily"] if row[1] == day)
    assert answer.view_tuples_scanned == len(views["V_premium"]) + daily
    assert daily < len(views["V_daily"])
    assert "σ[day = " in text and "[view probe: day]" in text


def test_explain_renders_one_line_per_fetched_relation(skewed_small):
    """The feed query fetches ``follows`` and ``staff`` through two
    operators each: each relation gets one line, its operators' summed
    estimate beside the relation's actual."""
    query = skewed.query_feed()
    with QueryService(skewed_small.database, skewed.access_schema(), skewed.views()) as service:
        service.query(query)
        explanation = service.explain(query)
        entry, _ = service.plan(query)
        actual = interpreted(service, query).stats.per_relation
    rows = {access: (est, got) for access, est, got in explanation.operator_estimates}
    assert set(rows) == {
        "follows(celeb→fan) ×2",
        "staff(team→agent) ×2",
        "contacted(agent→user)",
    }
    follows = sum(fe.fetched for fe in entry.fetch_estimates if fe.relation == "follows")
    assert rows["follows(celeb→fan) ×2"] == (follows, actual["follows"])
    text = explanation.render()
    assert text.count("follows(celeb→fan)") == 1
    assert f"follows(celeb→fan) ×2: est {follows:.1f}, actual " in text


# --------------------------------------------------------------------------- #
# Differential property test: ~200 random CQs/UCQs, SQL oracle, with writes
# --------------------------------------------------------------------------- #


def _random_mixed_workload(schema, database, count: int, seed: int):
    """~``count`` queries: random CQs plus UCQs paired from equal-arity CQs."""
    config = RandomCQConfig(
        min_atoms=1, max_atoms=3, head_size=2, constant_probability=0.6, seed=seed
    )
    cqs = [
        q
        for q in random_workload(schema, database, count, config)
        if len(set(q.head)) == len(q.head)
    ]
    queries: list = list(cqs)
    by_arity: dict[int, list] = {}
    for q in cqs:
        by_arity.setdefault(q.head_arity, []).append(q)
    made = 0
    for arity, group in sorted(by_arity.items()):
        for i in range(0, len(group) - 1, 2):
            if made >= count // 4:
                break
            queries.append(
                UnionQuery(
                    (group[i], group[i + 1]), name=f"U{arity}_{i}"
                )
            )
            made += 1
    return queries


def _check_differential(service, queries, oracle=None) -> int:
    """Compiled answers vs the ``Dξ`` reference; returns #checks.

    The reference runs the *same* cached plan object, so the comparison
    isolates execution, not planner nondeterminism.  With an ``oracle``, the plan's SQL translation must
    return the same rows too.
    """
    compiled_checks = 0
    for query in queries:
        compiled = service.query(query)
        if not compiled.used_bounded_plan:
            continue
        reference = interpreted(service, query)
        assert compiled.execution_tier == "compiled", query.name
        assert compiled.rows == reference.rows, query.name
        assert compiled.tuples_fetched == reference.stats.tuples_fetched, query.name
        assert compiled.view_tuples_scanned == reference.stats.view_tuples_scanned, (
            query.name
        )
        compiled_checks += 1
        if oracle is not None:
            assert oracle.rows(compiled, query) == compiled.rows, query.name
    return compiled_checks


def test_differential_random_workload_with_writes():
    data = cdr.generate(num_customers=60, num_days=3, seed=1)
    service = QueryService(
        data.database, cdr.access_schema(), cdr.views()
    )
    queries = _random_mixed_workload(cdr.schema(), data.database, 160, seed=31)
    assert len(queries) >= 180  # ~200 including the paired UCQs
    oracle = SQLOracle(service)
    compiled_checks = _check_differential(service, queries, oracle)
    assert compiled_checks >= 50  # the workload genuinely exercises the tier

    # After write batches the retained closures late-bind the new state,
    # and the two tiers must still agree — on every meter field.
    for seed in (101, 202):
        batch = random_update_batch(data.database, size=60, seed=seed)
        service.apply(batch)
        again = _check_differential(service, queries[:60])
        assert again >= 15
