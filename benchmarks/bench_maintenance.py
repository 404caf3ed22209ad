"""E9 — bounded incremental view/index maintenance (Section 8 follow-up work).

The paper asks for view maintenance that touches a bounded amount of data per
update.  The benchmark streams an update batch through
:meth:`repro.engine.service.QueryService.apply` and contrasts it with the
baseline that keeps the cache fresh by recomputing the views after every
single update.  ``extra_info`` records the bounded-maintenance quantities:
delta queries per update and view rows changed; index maintenance itself is
O(1) bucket work per update.
"""

from __future__ import annotations

import pytest

from repro.engine.service import QueryService
from repro.storage.updates import random_update_batch
from repro.workloads import graph_search as gs


@pytest.fixture(scope="module")
def maintained_setup(gs_small):
    database = gs_small.database.copy()
    service = QueryService(database, gs.access_schema(), gs.views())
    batch = random_update_batch(
        database, size=60, seed=71, access_schema=gs.access_schema()
    )
    return service, batch


def test_incremental_maintenance_per_batch(benchmark, maintained_setup):
    service, batch = maintained_setup

    def run():
        report = service.apply(batch)
        service.apply(batch.inverted())  # restore, so every round sees the same state
        return report

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["updates"] = len(batch)
    benchmark.extra_info["delta_queries_per_update"] = round(
        report.stats.delta_queries / max(report.applied, 1), 2
    )
    benchmark.extra_info["rows_added"] = report.stats.rows_added
    benchmark.extra_info["rows_removed"] = report.stats.rows_removed
    assert service.maintainer.verify()


def test_recompute_after_every_update_baseline(benchmark, maintained_setup):
    service, batch = maintained_setup
    def run():
        # Freshness after every update means one recomputation per update.
        for _update in batch:
            service.maintainer.recompute()

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["updates"] = len(batch)
    benchmark.extra_info["database_tuples"] = service.database.size


def test_answers_stay_exact_under_maintenance(benchmark, gs_small):
    database = gs_small.database.copy()
    service = QueryService(database, gs.access_schema(), gs.views())
    batch = random_update_batch(
        database, size=30, seed=73, access_schema=gs.access_schema()
    )
    query = gs.query_q0()

    def run():
        service.apply(batch)
        answer = service.query(query)
        service.apply(batch.inverted())
        return answer

    answer = benchmark.pedantic(run, rounds=2, iterations=1)
    assert answer.used_bounded_plan
    assert answer.rows == service.baseline(query).rows
