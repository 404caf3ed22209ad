"""E7 — the CDR case study: ">90% of the queries improved by 25x to 5 orders
of magnitude".

The proprietary call-detail-record data is replaced by the synthetic CDR
workload (see DESIGN.md, substitutions table).  The benchmark answers the
18-query workload twice — through the bounded-rewriting service and through
the full-scan baseline — and records the fraction of queries that were served
by a bounded plan together with the distribution of access ratios, which is
the quantity behind the paper's reported speed-ups.
"""

from __future__ import annotations

import statistics

import pytest

from repro.engine.service import QueryService
from repro.workloads import cdr


@pytest.fixture(scope="module")
def service(cdr_instance):
    return QueryService(cdr_instance.database, cdr.access_schema(), cdr.views())


@pytest.fixture(scope="module")
def workload(cdr_instance):
    return cdr.workload(cdr_instance, count=18, seed=31)


def test_workload_through_bounded_service(benchmark, service, workload, cdr_instance):
    def run():
        return [service.query(query) for query in workload]

    answers = benchmark.pedantic(run, rounds=1, iterations=1)
    improved = [a for a in answers if a.used_bounded_plan]
    ratios = []
    for query, answer in zip(workload, answers):
        if answer.used_bounded_plan:
            scanned = service.baseline(query).tuples_scanned
            ratios.append(scanned / max(answer.tuples_fetched, 1))
    benchmark.extra_info["database_tuples"] = cdr_instance.database.size
    benchmark.extra_info["queries"] = len(workload)
    benchmark.extra_info["improved_fraction"] = round(len(improved) / len(workload), 2)
    if ratios:
        benchmark.extra_info["access_ratio_min"] = round(min(ratios), 1)
        benchmark.extra_info["access_ratio_median"] = round(statistics.median(ratios), 1)
        benchmark.extra_info["access_ratio_max"] = round(max(ratios), 1)
    # The paper reports > 90% of the workload improved; the synthetic workload
    # is designed with the same bounded/unbounded mix (16 of 18 templates).
    assert len(improved) / len(workload) >= 0.8


def test_workload_through_full_scans(benchmark, service, workload):
    def run():
        return [service.baseline(query) for query in workload]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["total_tuples_scanned"] = sum(r.tuples_scanned for r in results)


def test_single_bounded_lookup_latency(benchmark, service, workload):
    """Per-query latency of a representative bounded query (plan + execute)."""
    bounded_queries = [q for q in workload if service.query(q).used_bounded_plan]
    query = bounded_queries[0]
    answer = benchmark(lambda: service.query(query))
    benchmark.extra_info["query"] = query.name
    benchmark.extra_info["tuples_fetched"] = answer.tuples_fetched
    assert answer.used_bounded_plan
