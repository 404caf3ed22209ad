"""Tests for the random CQ workload generator."""

from repro.engine.optimizer import build_bounded_plan
from repro.engine.service import QueryService
from repro.errors import UnsupportedQueryError
from repro.storage.statistics import discover_access_constraints
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


def test_bounded_fraction_does_not_shrink_with_more_mined_constraints():
    """The trend behind the paper's "77% of random CQs are boundedly evaluable
    under a couple of hundred access constraints": a finer mining granularity
    yields strictly more constraints and never fewer bounded queries."""
    database = cdr.generate(num_customers=60, num_days=3, seed=1).database
    config = RandomCQConfig(min_atoms=1, max_atoms=3, constant_probability=0.45, seed=77)
    queries = random_workload(cdr.schema(), database, 40, config)

    def bounded(access) -> int:
        found = 0
        for query in queries:
            try:
                found += build_bounded_plan(query, cdr.views(), access, cdr.schema()).found
            except UnsupportedQueryError:  # repeated head variable
                continue
        return found

    few = discover_access_constraints(database, max_x_size=1, max_bound=5)
    many = discover_access_constraints(database, max_x_size=2, max_bound=60)
    assert len(many) > len(few)
    assert bounded(many) >= max(bounded(few), 1)
