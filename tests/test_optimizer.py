"""Tests for the heuristic bounded-plan builder (the engine's practical path)."""

import pytest

from repro.algebra.atoms import RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Variable
from repro.algebra.ucq import UnionQuery
from repro.algebra.views import View, ViewSet
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.conformance import conforms_to
from repro.core.equivalence import a_equivalent
from repro.core.plans import ConstantScan, FetchNode
from repro.core.rewriting import plan_to_ucq
from repro.engine.optimizer import build_bounded_plan, build_bounded_plan_ucq, estimate_plan_fetches
from repro.errors import UnsupportedQueryError
from repro.storage.statistics import relation_statistics

from conftest import SQLOracle

SCHEMA = schema_from_spec({"R": ("a", "b"), "S": ("b", "c"), "U": ("u", "v")})
ACCESS = AccessSchema(
    (
        AccessConstraint("R", ("a",), ("b",), 2),
        AccessConstraint("S", ("b",), ("c",), 1),
    )
)
NO_VIEWS = ViewSet(())
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def test_builds_plan_for_anchored_chain_and_it_is_equivalent():
    query = ConjunctiveQuery(
        head=(Z,),
        atoms=(RelationAtom("R", (Constant(1), Y)), RelationAtom("S", (Y, Z))),
        name="chain",
    )
    outcome = build_bounded_plan(query, NO_VIEWS, ACCESS, SCHEMA)
    assert outcome.found
    plan = outcome.plan
    assert conforms_to(plan, ACCESS, SCHEMA, NO_VIEWS).conforms
    expressed = plan_to_ucq(plan, SCHEMA, NO_VIEWS)
    assert a_equivalent(expressed, query, ACCESS, SCHEMA)


def test_reports_unfetchable_atoms():
    query = ConjunctiveQuery(
        head=(Variable("v"),),
        atoms=(RelationAtom("U", (Variable("u"), Variable("v"))),),
        name="nocover",
    )
    outcome = build_bounded_plan(query, NO_VIEWS, ACCESS, SCHEMA)
    assert not outcome.found
    assert "cannot be fetched" in outcome.reason


def test_view_enables_plan_by_covering_atoms(gs_schema, gs_access, gs_views, gs_q0):
    """Example 1.1: Q0 needs V1 to cover the person/like atoms."""
    no_views_outcome = build_bounded_plan(gs_q0, ViewSet(()), gs_access, gs_schema)
    assert not no_views_outcome.found
    with_views = build_bounded_plan(gs_q0, gs_views, gs_access, gs_schema)
    assert with_views.found
    assert "V1" in with_views.plan.view_names()
    expressed = plan_to_ucq(with_views.plan, gs_schema, gs_views)
    assert a_equivalent(expressed, gs_q0, gs_access, gs_schema)


def test_view_as_pure_filter_keeps_equivalence():
    """A view that cannot replace atoms may still be joined in as a filter
    (Example 3.3(b)); the plan stays equivalent to the query."""
    view = View(
        "VS",
        ConjunctiveQuery(head=(Y,), atoms=(RelationAtom("S", (Y, Z)),), name="vs_def"),
    )
    query = ConjunctiveQuery(
        head=(Y,),
        atoms=(RelationAtom("R", (Constant(1), Y)), RelationAtom("S", (Y, Constant("c1")))),
        name="filtered",
    )
    outcome = build_bounded_plan(query, ViewSet((view,)), ACCESS, SCHEMA)
    assert outcome.found
    expressed = plan_to_ucq(outcome.plan, SCHEMA, ViewSet((view,)))
    assert a_equivalent(expressed, query, ACCESS, SCHEMA)


def test_max_size_limits_plan():
    query = ConjunctiveQuery(
        head=(Y,), atoms=(RelationAtom("R", (Constant(1), Y)),), name="small"
    )
    outcome = build_bounded_plan(query, NO_VIEWS, ACCESS, SCHEMA, max_size=1)
    assert not outcome.found and "nodes > M" in outcome.reason
    assert build_bounded_plan(query, NO_VIEWS, ACCESS, SCHEMA, max_size=10).found


def test_duplicate_head_variables_rejected():
    query = ConjunctiveQuery(
        head=(Y, Y), atoms=(RelationAtom("R", (Constant(1), Y)),)
    )
    with pytest.raises(UnsupportedQueryError):
        build_bounded_plan(query, NO_VIEWS, ACCESS, SCHEMA)


def test_constant_head_positions_are_supported():
    query = ConjunctiveQuery(
        head=(Constant("tag"), Y),
        atoms=(RelationAtom("R", (Constant(1), Y)),),
    )
    outcome = build_bounded_plan(query, NO_VIEWS, ACCESS, SCHEMA)
    assert outcome.found
    assert len(outcome.plan.attributes) == 2


def test_ucq_plans_are_unions_of_disjunct_plans():
    q1 = ConjunctiveQuery(head=(Y,), atoms=(RelationAtom("R", (Constant(1), Y)),))
    q2 = ConjunctiveQuery(head=(Z,), atoms=(RelationAtom("R", (Constant(2), Z)),))
    union = UnionQuery((q1, q2), name="u")
    outcome = build_bounded_plan_ucq(union, NO_VIEWS, ACCESS, SCHEMA)
    assert outcome.found
    assert outcome.plan.language() in ("UCQ", "CQ")

    bad = UnionQuery(
        (q1, ConjunctiveQuery(head=(Variable("v"),), atoms=(RelationAtom("U", (Variable("u"), Variable("v"))),))),
    )
    assert not build_bounded_plan_ucq(bad, NO_VIEWS, ACCESS, SCHEMA).found


def test_estimate_survives_a_fetch_output_the_relation_does_not_name(rs_database):
    """``RelationSchema.position`` raises ``SchemaError`` for a renamed fetch
    output; the estimate then takes the fetched count as its distinct count."""
    statistics = {"R": relation_statistics(rs_database.relation("R"))}
    named, renamed = (
        estimate_plan_fetches(
            FetchNode(ConstantScan(1, attribute="a"), "R", ("a",), (output,)), statistics, SCHEMA
        )
        for output in ("b", "b_out")
    )
    assert (renamed.rows, renamed.total_fetched) == (named.rows, named.total_fetched)
    assert named.total_fetched > 0


def test_a_parameter_key_is_priced_as_an_unknown_value():
    """A ``Param`` key is a value nobody knows yet: the estimate is the
    classical cardinality / distinct one — never the share of whichever
    histogram bucket ``("Param", …)`` happens to sort into (on the mixed
    column below: between ``None`` and the integers, inside the first)."""
    from repro.algebra.terms import Param
    from repro.storage.instance import Database

    schema = schema_from_spec({"T": ("skewed", "mixed", "v")})
    database = Database(schema)
    database.add_many(
        "T",
        [
            (
                "hot" if n < 300 else f"k{n % 50}",
                None if n % 100 == 0 else (n % 45 if n % 2 else f"s{n % 77}"),
                n,
            )
            for n in range(400)
        ],
    )
    statistics = database.statistics()
    table = statistics["T"]
    assert table.columns is not None  # histograms attached: the skew-aware path
    for position, attribute in enumerate(("skewed", "mixed")):
        fetch = FetchNode(
            ConstantScan(Param("key"), attribute=attribute), "T", (attribute,), ("v",)
        )
        generic = estimate_plan_fetches(fetch, statistics, schema).total_fetched
        assert generic == pytest.approx(table.cardinality / table.distinct[position])
        assert generic == pytest.approx(table.estimated_matches([position]))
        known = estimate_plan_fetches(
            fetch, statistics, schema, bindings={"key": "hot" if position == 0 else 7}
        ).total_fetched
        assert known != pytest.approx(generic)  # a bound key is priced by its value
    hot = FetchNode(ConstantScan(Param("key"), attribute="skewed"), "T", ("skewed",), ("v",))
    bound = estimate_plan_fetches(hot, statistics, schema, bindings={"key": "hot"})
    assert bound.total_fetched == 300


def test_dp_order_fetches_a_quarter_of_the_greedy_order_on_the_skewed_feed(tmp_path):
    """E12: both orders conform and answer identically, the gap is pure Dξ; a
    restart over the plan store serves the DP plan compiled, without planning.
    The default chain orders by the DP; ``max_dp_atoms=0`` is the greedy
    builder.

    Only the DP plan goes through the SQL oracle: the greedy plan's
    misordered join takes ~11 s on SQLite
    (``test_differential_greedy_vs_dp_random_workload`` covers that pairing)."""
    from repro.analysis import verify_plan
    from repro.engine.service import HeuristicPlanner, QueryService
    from repro.workloads import skewed

    feed = skewed.generate()  # the defaults the 18 715 / 4 744 figures are defined on
    access, views, query = skewed.access_schema(), skewed.views(), skewed.query_feed()

    def default_service():
        return QueryService(
            feed.database, access, views, plan_store=str(tmp_path / "plans.bin"),
        )

    with default_service() as service:
        greedy = service.query(
            query, planners=(HeuristicPlanner(max_dp_atoms=0), "topped")
        )
        dp = service.query(query)
        assert (greedy.planner, dp.planner) == ("heuristic", "heuristic")
        assert len(dp.rows) == 292
        assert greedy.rows == dp.rows == SQLOracle(service).rows(dp, query)
        assert (greedy.tuples_fetched, dp.tuples_fetched) == (18_715, 4_744)
        explanation = service.explain(query)
        assert explanation.order_strategy == "dp"
        report = verify_plan(
            explanation.plan, feed.database.schema, views=views, access_schema=access
        )
        assert report.ok, report.errors
    with default_service() as restarted:
        answer = restarted.query(query)
        assert answer.cache_hit and answer.execution_tier == "compiled"
        assert (answer.rows, answer.tuples_fetched) == (dp.rows, 4_744)
        assert restarted.stats.snapshot().plan_store_hits == 1


def test_a_heavy_hitter_gets_a_bucket_of_its_own_and_is_estimated_exactly():
    """A value at least one bucket deep opens its own bucket instead of
    joining a partly filled one: on the skewed feed, ``c_hot``'s 2 000
    follows are estimated as 2 000 (not averaged with the cold celebrities
    sharing its bucket), and ``explain`` estimates the feed query's ``Dξ``
    at the 4 744 it fetches."""
    from repro.engine.service import QueryService
    from repro.workloads import skewed

    feed = skewed.generate()
    celeb = feed.database.relation("follows").statistics().columns[0]
    assert celeb.histogram.bucket_count == 4
    assert celeb.estimate_eq("c_hot") == 2_000.0
    assert celeb.skewed_bucket() == pytest.approx(1_818.5, abs=0.1)
    service = QueryService(feed.database, skewed.access_schema(), skewed.views())
    explanation = service.explain(skewed.query_feed())
    assert explanation.estimated_fetches == pytest.approx(4_744.84)
    assert service.query(skewed.query_feed()).tuples_fetched == 4_744


# --------------------------------------------------------------------------- #
# Differential property test: greedy vs DP ordering on ~200 random CQs/UCQs
# --------------------------------------------------------------------------- #


def _random_mixed_workload(schema, database, count: int, seed: int):
    """~``count * 1.25`` queries: random CQs plus UCQs paired by arity."""
    from repro.workloads.random_cq import RandomCQConfig, random_workload

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
            queries.append(UnionQuery((group[i], group[i + 1]), name=f"U{arity}_{i}"))
            made += 1
    return queries


def test_differential_greedy_vs_dp_random_workload():
    """Join ordering is pure optimisation: on ~200 random CQs/UCQs the
    default DP-ordered builder must return bit-identical rows to the greedy
    one (``max_dp_atoms=0``) — and so must both plans' SQL translations
    (``SQLOracle``) — and every DP plan must pass the static verifier.
    Answers, not costs, are the contract."""
    from repro.analysis import verify_plan
    from repro.engine.service import HeuristicPlanner, QueryService
    from repro.workloads import cdr

    data = cdr.generate(num_customers=60, num_days=3, seed=1)
    queries = _random_mixed_workload(cdr.schema(), data.database, 160, seed=31)
    assert len(queries) >= 180  # ~200 including the paired UCQs
    greedy = QueryService(
        data.database,
        cdr.access_schema(),
        cdr.views(),
        planners=(HeuristicPlanner(max_dp_atoms=0), "topped"),
    )
    cost = QueryService(data.database, cdr.access_schema(), cdr.views())
    oracle = SQLOracle(cost)  # the two services share one database
    try:
        bounded = 0
        dp_ordered = 0
        for query in queries:
            greedy_answer = greedy.query(query)
            cost_answer = cost.query(query)
            assert cost_answer.rows == greedy_answer.rows, query.name
            assert (
                cost_answer.used_bounded_plan == greedy_answer.used_bounded_plan
            ), query.name
            if not cost_answer.used_bounded_plan:
                continue
            bounded += 1
            sql_rows = oracle.rows(cost_answer, query)
            assert sql_rows == oracle.rows(greedy_answer, query), query.name
            assert sql_rows == cost_answer.rows, query.name
            explanation = cost.explain(query)
            if explanation.order_strategy == "dp":
                dp_ordered += 1
            report = verify_plan(
                explanation.plan,
                data.database.schema,
                views=cdr.views(),
                access_schema=cdr.access_schema(),
            )
            assert report.ok, (query.name, report.errors)
        # The workload genuinely exercises the optimizer, not a corner of it.
        assert bounded >= 100, bounded
        assert dp_ordered >= 20, dp_ordered
    finally:
        oracle.close()
        greedy.close()
        cost.close()
