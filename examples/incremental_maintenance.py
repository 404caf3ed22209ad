"""Bounded incremental maintenance of cached views under updates.

The paper's future-work section asks for *bounded view maintenance*: keep the
materialised views and the access-constraint indices fresh while the
underlying data changes, without re-reading the whole database.  This example
runs the Graph Search workload of Example 1.1 through
:meth:`repro.QueryService.apply`:

1. materialise the views and build the indices once;
2. stream mixed insert/delete batches into the service;
3. keep answering Q0 from the maintained caches, and compare both the answers
   and the maintenance effort with recomputation from scratch.

Run with::

    python examples/incremental_maintenance.py
"""

from __future__ import annotations

import time

from repro import Deletion, Insertion, QueryService, UpdateBatch, random_update_batch
from repro.workloads import graph_search as gs


def main() -> None:
    instance = gs.generate(num_persons=2_000, num_movies=800, seed=41)
    service = QueryService(instance.database, gs.access_schema(), gs.views())
    query = gs.query_q0()

    print(f"database: {instance.database.size} tuples, "
          f"view cache: {service.view_cache_size} rows")
    print(f"initial answers to Q0: {sorted(service.query(query).rows)}")

    # --- stream three random batches --------------------------------------- #
    # The cache must stay fresh after *every* update (that is what "maintained"
    # means), so the baseline to beat is recomputing the views once per update;
    # the incremental path instead runs a handful of anchored delta queries.
    for round_number in range(3):
        batch = random_update_batch(
            service.database, size=100, seed=100 + round_number,
            access_schema=service.access_schema,
        )
        started = time.perf_counter()
        report = service.apply(batch)
        incremental_seconds = time.perf_counter() - started

        started = time.perf_counter()
        service.maintainer.recompute()
        recompute_seconds = time.perf_counter() - started
        recompute_per_update = recompute_seconds * max(report.applied, 1)

        answer = service.query(query)
        baseline = service.baseline(query)
        assert answer.rows == baseline.rows, "maintained answers must stay exact"

        print(
            f"round {round_number}: applied {report.applied} updates "
            f"(+{report.inserted}/-{report.deleted}, "
            f"{report.skipped_inadmissible} skipped as inadmissible); "
            f"delta queries: {report.stats.delta_queries}, "
            f"view rows +{report.stats.rows_added}/-{report.stats.rows_removed}; "
            f"incremental {incremental_seconds * 1000:.1f} ms vs "
            f"recompute-after-every-update {recompute_per_update * 1000:.1f} ms"
        )

    # --- a targeted update that changes the answer ------------------------ #
    nasa_pid = next(row[0] for row in service.database.relation("person") if row[2] == "NASA")
    new_movie = "m_live_insert"
    service.apply(UpdateBatch([
        Insertion("movie", (new_movie, "breaking news", "Universal", "2014")),
        Insertion("rating", (new_movie, 5)),
        Insertion("like", (nasa_pid, new_movie, "movie")),
    ]))
    print(f"after inserting {new_movie}: {sorted(service.query(query).rows)}")

    service.apply(UpdateBatch([Deletion("rating", (new_movie, 5))]))
    print(f"after deleting its rating:  {sorted(service.query(query).rows)}")

    assert service.maintainer.verify(), "maintained views must match recomputation"
    print("maintained views verified against full recomputation")


if __name__ == "__main__":
    main()
