"""E1 — Figure 1 / Examples 1.1, 2.2, 2.3: scale independence of plan ξ0.

Paper claim: Q0 can be answered by accessing the cached view V1 plus at most
2·N0 tuples of D, no matter how big D grows, while a conventional engine
reads the person/like/movie/rating relations in full (the Facebook-sized
numbers quoted in the introduction: 470,000 tuples vs. billions).

Measured here: execution time and tuples fetched of the bounded plan versus
the full-scan baseline, on a small and a 10x larger Graph Search instance.
The fetched count must stay flat; the scanned count must grow with |D|.
"""

from __future__ import annotations

import pytest

from repro.engine.service import QueryService
from repro.workloads import graph_search as gs


def _service(instance):
    return QueryService(instance.database, gs.access_schema(), gs.views())


@pytest.fixture(scope="module")
def services(gs_small, gs_large):
    return {"small": (_service(gs_small), gs_small), "large": (_service(gs_large), gs_large)}


@pytest.mark.parametrize("scale", ["small", "large"])
def test_bounded_plan_execution(benchmark, services, scale):
    service, instance = services[scale]
    plan = gs.figure1_plan()

    def run():
        return service.execute_plan(plan)

    result = benchmark(run)
    rows, stats = result.rows, result.stats
    benchmark.extra_info["database_tuples"] = instance.database.size
    benchmark.extra_info["tuples_fetched"] = stats.tuples_fetched
    benchmark.extra_info["fetch_bound_2N0"] = 2 * instance.n0
    benchmark.extra_info["answers"] = len(rows)
    assert stats.tuples_fetched <= 2 * instance.n0


@pytest.mark.parametrize("scale", ["small", "large"])
def test_full_scan_baseline(benchmark, services, scale):
    service, instance = services[scale]
    q0 = gs.query_q0()

    def run():
        return service.baseline(q0)

    result = benchmark(run)
    benchmark.extra_info["database_tuples"] = instance.database.size
    benchmark.extra_info["tuples_scanned"] = result.tuples_scanned
    assert result.tuples_scanned >= instance.database.size


@pytest.mark.parametrize("scale", ["small", "large"])
def test_engine_answer_q0_end_to_end(benchmark, services, scale):
    """Plan construction + execution, the full user-facing path."""
    service, instance = services[scale]
    q0 = gs.query_q0()

    answer = benchmark(lambda: service.query(q0))
    benchmark.extra_info["used_bounded_plan"] = answer.used_bounded_plan
    benchmark.extra_info["tuples_fetched"] = answer.tuples_fetched
    benchmark.extra_info["access_ratio_vs_scan"] = round(
        service.baseline(q0).tuples_scanned / max(answer.tuples_fetched, 1), 1
    )
    assert answer.used_bounded_plan
