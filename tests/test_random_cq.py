"""Tests for the random CQ workload generator."""

from repro.engine.service import QueryService
from repro.workloads import cdr
from repro.workloads.random_cq import RandomCQConfig, random_workload


def test_random_workload_is_deterministic():
    instance = cdr.generate(num_customers=60, num_days=3, seed=1)
    config = RandomCQConfig(seed=13)
    one = random_workload(cdr.schema(), instance.database, 8, config)
    two = random_workload(cdr.schema(), instance.database, 8, config)
    assert [str(q) for q in one] == [str(q) for q in two]


def test_random_queries_are_valid_and_mixed():
    instance = cdr.generate(num_customers=60, num_days=3, seed=1)
    config = RandomCQConfig(min_atoms=1, max_atoms=3, seed=99)
    queries = random_workload(cdr.schema(), instance.database, 20, config)
    assert len(queries) == 20
    for query in queries:
        query.validate(cdr.schema())
        assert 1 <= len(query.atoms) <= 3
    # Constants are drawn from the database, so some queries are anchored.
    anchored = [q for q in queries if q.constants]
    assert anchored


def test_random_queries_answerable_by_service():
    instance = cdr.generate(num_customers=60, num_days=3, seed=1)
    service = QueryService(instance.database, cdr.access_schema(), cdr.views())
    config = RandomCQConfig(min_atoms=1, max_atoms=2, head_size=1, seed=5)
    queries = random_workload(cdr.schema(), instance.database, 10, config)
    for query in queries:
        if len(set(t for t in query.head)) != len(query.head):
            continue  # the heuristic builder requires distinct head variables
        answer = service.query(query)
        baseline = service.baseline(query)
        assert answer.rows == baseline.rows, query.name
