"""Tests for the static-analysis subsystem (:mod:`repro.analysis`).

The heart is a property test: every plan any planner of the fallback chain
produces for ≥200 random CQs passes :func:`verify_plan` (zero false
positives), while seeded structural mutations of those plans — input swaps,
dropped projection columns, unbound lookup keys — are each rejected with the
diagnostic the mutation predicts.
"""

from __future__ import annotations

import pytest

from repro import QueryService
from repro.algebra.parser import parse_cq
from repro.algebra.views import View, ViewSet
from repro.analysis import (
    analyze_view_dependencies,
    lint_query,
    plan_mutations,
    verify_delta_program,
    verify_plan,
)
from repro.engine.service.planners import PlanningResult, resolve_planners
from repro.errors import PlanVerificationError, SchemaError
from repro.workloads import cdr, graph_search as gs
from repro.workloads.random_cq import RandomCQConfig, random_workload

WORKLOAD_SIZE = 200


@pytest.fixture(scope="module")
def gs_data():
    return gs.generate(num_persons=200, num_movies=120, seed=5)


@pytest.fixture(scope="module")
def service(gs_data):
    return QueryService(gs_data.database, gs.access_schema(), gs.views())


# The property tests run over the CDR workload: its access schema covers far
# more of the random-CQ space than Graph Search's, so a 200-query workload
# yields a large corpus of real plans to verify and mutate.


@pytest.fixture(scope="module")
def cdr_service():
    data = cdr.generate(num_customers=60, num_days=3, seed=1)
    return QueryService(data.database, cdr.access_schema(), cdr.views())


@pytest.fixture(scope="module")
def workload(cdr_service):
    config = RandomCQConfig(
        min_atoms=1, max_atoms=3, head_size=2, constant_probability=0.6, seed=11
    )
    queries = random_workload(
        cdr.schema(), cdr_service.database, WORKLOAD_SIZE, config
    )
    assert len(queries) == WORKLOAD_SIZE
    return [q for q in queries if len(set(q.head)) == len(q.head)]


@pytest.fixture(scope="module")
def verified_plans(cdr_service, workload):
    """(query, plan) for every plan any planner of the chain finds.

    The service verifies every plan it admits, so merely planning the whole
    workload asserts the verifier has zero false positives on real plans.
    """
    plans = []
    for query in workload:
        for planner in resolve_planners(None):
            if not planner.can_plan(query):
                continue
            entry, _ = cdr_service.plan(
                query, planners=[planner], use_cache=False
            )
            if entry.plan is not None:
                plans.append((query, entry.plan))
    return plans


# --------------------------------------------------------------------------- #
# Property: real plans verify, mutated plans are rejected
# --------------------------------------------------------------------------- #


def test_every_planned_query_passes_verification(cdr_service, verified_plans):
    assert len(verified_plans) >= 50  # the workload is plannable in bulk
    for query, plan in verified_plans:
        report = verify_plan(
            plan,
            cdr_service.database.schema,
            views=cdr_service.views,
            access_schema=cdr_service.access_schema,
            expected_arity=query.head_arity,
            subject=query.name,
        )
        assert report.ok, f"{query.name}: {report.render()}"


def test_mutated_plans_are_rejected_with_predicted_diagnostics(
    cdr_service, verified_plans
):
    mutated = 0
    for index, (query, plan) in enumerate(verified_plans):
        for mutation in plan_mutations(plan, seed=index):
            mutated += 1
            report = verify_plan(
                mutation.plan,
                cdr_service.database.schema,
                views=cdr_service.views,
                access_schema=cdr_service.access_schema,
                expected_attributes=plan.attributes,
                subject=query.name,
            )
            assert not report.ok, (
                f"{query.name}: verifier accepted a corrupted plan "
                f"({mutation.kind}: {mutation.description})"
            )
            assert report.codes() & mutation.expected_codes, (
                f"{query.name}: {mutation.kind} expected one of "
                f"{sorted(mutation.expected_codes)}, got "
                f"{sorted(report.codes())}"
            )
    assert mutated >= 100  # the corpus exercises all three mutation kinds


def test_verify_plans_service_survives_full_workload(cdr_service, workload):
    """The service admits (verifies) and caches everything without a raise."""
    for query in workload:
        entry, _ = cdr_service.plan(query)
        if entry.plan is not None:
            answer = cdr_service.query(query)
            assert answer.rows is not None


def test_verify_plans_rejects_corrupted_plan_via_service(
    cdr_service, verified_plans
):
    """A planner emitting a corrupted plan: admission raises, and nothing is
    cached for the query."""
    query, plan = next((q, p) for q, p in verified_plans if p.fetch_nodes())
    mutations = plan_mutations(plan, seed=3)
    assert mutations

    class Corrupting:
        name = "corrupting"

        def can_plan(self, query):
            return True

        def plan(self, query, head, max_size, context):
            return PlanningResult(plan=mutations[0].plan, planner=self.name)

    with pytest.raises(PlanVerificationError) as excinfo:
        cdr_service.plan(query, planners=[Corrupting()])
    assert excinfo.value.diagnostics
    assert excinfo.value.query_name == query.name
    cached = {key for key, _ in cdr_service.plan_cache.entries()}
    with pytest.raises(PlanVerificationError):
        cdr_service.plan(query, planners=[Corrupting()])
    assert {key for key, _ in cdr_service.plan_cache.entries()} == cached


# --------------------------------------------------------------------------- #
# Certificates and explain()
# --------------------------------------------------------------------------- #


def test_explain_bounded_query_carries_certificates(service):
    explanation = service.explain(gs.query_q0())
    assert explanation.bounded
    assert explanation.plan is not None
    assert explanation.planner
    assert explanation.fetch_bound is not None
    assert explanation.certificates
    for certificate in explanation.certificates:
        assert certificate.bounded
        assert certificate.constraint is not None
    text = explanation.render()
    assert "served by" in text
    assert "worst-case tuples fetched" in text


def test_explain_unbounded_query_names_uncovered_variables(service):
    explanation = service.explain("Q(x) :- person(x, n, c)")
    assert not explanation.bounded
    assert explanation.plan is None
    assert explanation.counterexample is not None
    assert "x" in explanation.counterexample.uncovered
    assert "uncovered variables" in explanation.render()


def test_explain_reports_cache_hits(service):
    source = "Q(mid) :- movie(mid, t, 'Universal', '2014')"
    first = service.explain(source)
    second = service.explain(source)
    assert first.bounded
    assert second.cache_hit


# --------------------------------------------------------------------------- #
# Query lints
# --------------------------------------------------------------------------- #


def test_lint_flags_cartesian_product_and_unused_atoms(service):
    diagnostics = service.lint("Q(x) :- person(x, n, c), movie(m, t, s, y)")
    codes = {d.code for d in diagnostics}
    assert "query.cartesian" in codes
    assert "query.unused-atoms" in codes


def test_lint_flags_contradiction():
    query = parse_cq("Q(x) :- person(x, n, c), n = 'a', n = 'b'")
    codes = {d.code for d in lint_query(query)}
    assert codes == {"query.contradiction"}


def test_lint_flags_single_use_variables():
    query = parse_cq("Q(x) :- person(x, n, c)")
    diagnostics = lint_query(query)
    info = [d for d in diagnostics if d.code == "query.single-use-variable"]
    assert info and "'n'" in info[0].message


def test_lint_clean_query_is_quiet():
    query = parse_cq("Q(x, n) :- person(x, n, c), like(x, m, c)")
    codes = {d.code for d in lint_query(query)}
    assert "query.cartesian" not in codes
    assert "query.unused-atoms" not in codes


def test_lint_flags_unsafe_fo_negation():
    from repro.algebra.fo import atom, conj, neg
    from repro.algebra.terms import Variable

    x, y, z = Variable("x"), Variable("y"), Variable("z")
    unsafe = conj(atom("person", x, y, z), neg(atom("rating", Variable("m"), x)))
    codes = {d.code for d in lint_query(unsafe)}
    assert "query.unsafe-negation" in codes

    safe = conj(atom("person", x, y, z), neg(atom("rating", x, y)))
    codes = {d.code for d in lint_query(safe)}
    assert "query.unsafe-negation" not in codes


# --------------------------------------------------------------------------- #
# Delta-program verification and view dependencies
# --------------------------------------------------------------------------- #


def test_compiled_delta_programs_verify(service):
    for name in service.views.names:
        compiled = service.maintainer.compiled_delta(name)
        report = verify_delta_program(compiled, service.database.schema)
        assert report.ok, report.render()


@pytest.mark.parametrize(
    "definition, code",
    [
        ("V(x) :- customer(x, n, p, r), nope(x)", "delta.rule.unknown-relation"),
        ("V(x) :- customer(x, n, p), call(x, e, d, u, l)", "delta.rule.arity"),
        ("V(x, w) :- customer(x, n, p, r)", "delta.rule.head"),
    ],
)
def test_delta_program_verifier_refuses_a_bad_rewrite(definition, code):
    """Every rewritten rule is checked against the schema: an unknown
    relation, a wrong arity or an unsafe head fails verification (and the
    maintainer refuses the view, naming it)."""
    from repro.engine.service import ViewMaintainer
    from repro.errors import DeltaCompilationError
    from repro.exec.delta_compiler import compile_view_delta

    query = parse_cq(definition)
    report = verify_delta_program(compile_view_delta("V", (query,)), cdr.schema())
    assert not report.ok
    assert code in {finding.code for finding in report.errors}
    data = cdr.generate(num_customers=10, num_days=1, seed=1)
    with pytest.raises(DeltaCompilationError, match=code) as excinfo:
        ViewMaintainer(ViewSet((View("V", query),)), data.database)
    assert excinfo.value.view_name == "V"


def test_delta_program_verifier_refuses_a_rule_not_reading_its_own_delta():
    from repro.exec.delta_compiler import compile_view_delta

    compiled = compile_view_delta(
        "V", (parse_cq("V(x) :- customer(x, n, p, r), call(x, e, d, u, l)"),)
    )
    (disjunct,) = compiled.disjuncts
    disjunct.rules = (disjunct.rules[0], disjunct.rules[0])
    report = verify_delta_program(compiled, cdr.schema())
    assert [finding.code for finding in report.errors] == ["delta.rule.missing"]


def test_view_dependency_analysis_stratifies(service):
    report = analyze_view_dependencies(service.views)
    assert report.ok
    assert set(report.order) == set(service.views.names)
    for view in service.views:
        assert report.strata[view.name] >= 1
        for read in report.edges[view.name]:
            assert report.strata[read] < report.strata[view.name]


def test_view_dependency_analysis_detects_cycles():
    views = ViewSet(
        (
            View("A", parse_cq("A(x) :- B(x, y)")),
            View("B", parse_cq("B(x, y) :- A(x), person(y, n, c)")),
        )
    )
    report = analyze_view_dependencies(views)
    assert not report.ok
    assert report.cycles
    assert {"A", "B"} <= set(report.cycles[0])
    assert any(d.code == "views.cycle" for d in report.diagnostics)


# --------------------------------------------------------------------------- #
# Maintainer typed errors
# --------------------------------------------------------------------------- #


def test_maintainer_unknown_view_raises_schema_error(service):
    with pytest.raises(SchemaError, match="no view named 'nope'"):
        service.maintainer.rows("nope")
    with pytest.raises(SchemaError, match="no view named"):
        service.maintainer.mode("missing")


def test_maintainer_compiled_delta_unknown_view(service):
    with pytest.raises(SchemaError):
        service.maintainer.compiled_delta("nope")
