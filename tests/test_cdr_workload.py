"""Tests for the synthetic CDR workload (the stand-in for the industrial data)."""

import pytest

from repro.algebra.acyclicity import is_acyclic
from repro.engine.service import QueryService
from repro.storage.statistics import verify_expected_schema
from repro.workloads import cdr


@pytest.fixture(scope="module")
def instance():
    return cdr.generate(num_customers=120, num_days=4, seed=2)


@pytest.fixture(scope="module")
def service(instance):
    return QueryService(instance.database, cdr.access_schema(), cdr.views())


def test_generated_data_satisfies_declared_constraints(instance):
    access = cdr.access_schema()
    assert instance.database.satisfies(access)
    measured = verify_expected_schema(instance.database, access)
    for constraint, bound in measured.items():
        assert bound <= constraint.bound


def test_schema_and_views_are_consistent():
    schema = cdr.schema()
    views = cdr.views()
    for view in views:
        view.as_ucq().validate(schema)
    cdr.access_schema().validate(schema)


def test_workload_queries_are_well_formed(instance):
    schema = cdr.schema()
    queries = cdr.workload(instance, count=18)
    assert len(queries) == 18
    names = {q.name for q in queries}
    assert len(names) == 18
    for query in queries:
        query.validate(schema)
        assert is_acyclic(query)


def test_workload_is_deterministic(instance):
    first = cdr.workload(instance, count=6, seed=5)
    second = cdr.workload(instance, count=6, seed=5)
    assert [str(q) for q in first] == [str(q) for q in second]


def test_engine_answers_match_baseline_on_workload(instance, service):
    queries = cdr.workload(instance, count=18, seed=31)
    improved = 0
    for query in queries:
        answer = service.query(query)
        baseline = service.baseline(query)
        assert answer.rows == baseline.rows, query.name
        if answer.used_bounded_plan:
            assert answer.tuples_fetched <= baseline.tuples_scanned
            improved += answer.tuples_fetched < baseline.tuples_scanned
    # The paper's case study improves > 90% of its workload; the 18 templates
    # mix 16 boundable lookups with 2 scan-bound analytics queries.
    assert improved >= 0.8 * len(queries)


def test_bounded_queries_fetch_less_as_data_grows():
    small = cdr.generate(num_customers=80, num_days=3, seed=7)
    big = cdr.generate(num_customers=240, num_days=3, seed=7)
    small_service = QueryService(small.database, cdr.access_schema(), cdr.views())
    big_service = QueryService(big.database, cdr.access_schema(), cdr.views())
    # Use the same query template anchored to a phone present in both.
    query = cdr.workload(small, count=1, seed=1)[0]
    small_answer = small_service.query(query)
    if not small_answer.used_bounded_plan:
        pytest.skip("first workload query happens to be an unbounded analytics query")
    big_answer = big_service.query(query)
    assert big_answer.used_bounded_plan
    assert big_answer.tuples_fetched <= cdr.MAX_CALLS_PER_DAY * 3 + 10
    assert big_service.baseline(query).tuples_scanned > small_service.baseline(query).tuples_scanned
