"""Quickstart: Example 1.1 of the paper, served through :class:`QueryService`.

We build the Graph Search schema (persons, movies, likes, ratings), declare
the access schema A0 (each studio releases at most N0 movies per year; each
movie has one rating), cache the view V1 (movies liked by NASA folks), and
answer

    Q0(mid): movies released by Universal Studios in 2014, liked by people at
             NASA, and rated 5

through a bounded plan that reads the cached view plus at most 2·N0 tuples of
the underlying database — no matter how large the database is.  The same
service then demonstrates the serving-layer features: the plan cache,
prepared queries with named parameters, the plan's SQL translation
(Section 5.1), and aggregated statistics.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import QueryService, plan_to_sql
from repro.core.conformance import conforms_to
from repro.workloads import graph_search as gs


def main() -> None:
    print("=== Bounded query rewriting using views: Example 1.1 ===\n")

    # 1. Generate an instance of R0 that satisfies the access schema A0.
    data = gs.generate(num_persons=20_000, num_movies=5_000, seed=42)
    database = data.database
    access = gs.access_schema(n0=data.n0)
    views = gs.views()
    print(f"database size |D| = {database.size:,} tuples "
          f"({database.relation_sizes()})")
    print(f"access schema A0 = {[str(c) for c in access]}")
    print(f"D |= A0 ? {database.satisfies(access)}\n")

    # 2. One service: views materialised and cached, indices built, planner
    #    chain (heuristic -> topped) and plan cache ready.
    service = QueryService(database, access, views)
    print(f"cached views: { {v: len(rows) for v, rows in service.view_cache.items()} }\n")

    # 3. Answer Q0 with a bounded plan through the single entry point.
    q0 = gs.query_q0()
    print(f"query {q0}\n")
    answer = service.query(q0)
    print(f"bounded plan used : {answer.used_bounded_plan} (planner {answer.planner!r})")
    print(f"answers           : {len(answer.rows)} movies")
    print(f"tuples fetched    : {answer.tuples_fetched} (<= 2*N0 = {2 * data.n0})")
    print(f"view tuples read  : {answer.view_tuples_scanned} (cached, no I/O)\n")

    # 4. Ask again: the plan cache answers without re-planning.
    again = service.query(q0)
    assert again.cache_hit and again.rows == answer.rows
    print(f"repeated query    : cache hit, {again.elapsed_seconds * 1e3:.2f} ms\n")

    # 5. Prepared query: planned once, re-executed per studio without
    #    re-planning — only the bound constant changes.
    prepared = service.prepare(
        "Q0(mid) :- person(xp, name, 'NASA'), like(xp, mid, 'movie'), "
        "movie(mid, ym, :studio, '2014'), rating(mid, 5)"
    )
    universal = prepared.execute(studio="Universal")
    assert universal.rows == answer.rows  # same constants as Q0: same answers
    paramount = prepared.execute(studio="Paramount")
    print(f"prepared query    : parameters {sorted(prepared.parameters)}; "
          f"{len(universal.rows)} movies for 'Universal', "
          f"{len(paramount.rows)} for 'Paramount' — one plan, two bindings\n")

    # 6. Section 5.1's other deployment: the plan that answered, as one SQL
    #    statement a DBMS follows step by step (one CTE per plan node, each
    #    fetch an index join); examples/sql_translation.py runs one on SQLite.
    translation = plan_to_sql(answer.plan, database.schema, views, access)
    print(f"plan as SQL       : one statement of {translation.text.count(' AS (')} "
          f"CTEs for the {len(answer.rows)} movies; index joins via")
    for constraint in translation.fetch_comments:
        print(f"                    {constraint}")
    print()

    # 7. Compare with a full-scan baseline ("conventional engine").
    baseline = service.query(q0, planners=())  # empty chain: forced fallback
    assert baseline.rows == answer.rows
    ratio = baseline.tuples_scanned / max(answer.tuples_fetched, 1)
    print(f"full scan reads   : {baseline.tuples_scanned:,} tuples")
    print(f"access ratio      : {ratio:,.0f}x less data via the bounded plan\n")

    # 8. The hand-built plan of Figure 1 does the same job.
    plan = gs.figure1_plan()
    report = conforms_to(plan, access, database.schema, views, compute_bound=True)
    result = service.execute_plan(plan)
    print("Figure 1 plan ξ0:")
    print(plan.pretty())
    print(f"\nconforms to A0: {report.conforms}; worst-case |Dξ| <= {report.fetch_bound}")
    print(f"executed: {len(result.rows)} answers, {result.stats.tuples_fetched} tuples fetched")
    assert result.rows == answer.rows

    # 9. Everything served so far, in one line of statistics.
    print(f"\nservice stats: {service.stats.snapshot()}")


if __name__ == "__main__":
    main()
