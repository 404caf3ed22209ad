"""Deploying bounded plans on a SQL DBMS (Section 5.1, "practical use").

The paper's deployment story runs bounded plans on top of an existing DBMS by
translating the plan into SQL whose join order follows the plan exactly, with
fetch operations becoming index joins.  This example does precisely that with
SQLite as the stand-in DBMS:

1. generate the Graph Search data and load it into SQLite (tables + the
   indices realising the access constraints + materialised views);
2. translate the Figure 1 plan ξ0 into a CTE-per-node SQL statement;
3. run both the SQL statement and the library's own plan executor and check
   they agree with each other and with the full-scan evaluation of Q0.

Run with::

    python examples/sql_translation.py
"""

from __future__ import annotations

import sqlite3

from repro import QueryService, plan_to_sql
from repro.algebra.evaluation import evaluate_cq
from repro.engine.sql import (
    cq_to_sql,
    create_index_statements,
    create_table_statements,
    insert_statements,
    materialize_view_statements,
)
from repro.workloads import graph_search as gs


def main() -> None:
    instance = gs.generate(num_persons=2_000, num_movies=800, seed=29)
    service = QueryService(instance.database, gs.access_schema(), gs.views())

    # --- load SQLite ------------------------------------------------------ #
    connection = sqlite3.connect(":memory:")
    for statement in create_table_statements(gs.schema()):
        connection.execute(statement)
    for statement in create_index_statements(gs.access_schema(), gs.schema()):
        connection.execute(statement)
    for statement, rows in insert_statements(instance.database):
        connection.executemany(statement, rows)
    for create, insert, rows in materialize_view_statements(gs.views(), service.view_cache):
        connection.execute(create)
        if rows:
            connection.executemany(insert, rows)
    connection.commit()
    print(f"loaded {instance.database.size} tuples and "
          f"{service.view_cache_size} materialised view rows into SQLite")

    # --- translate and run the Figure 1 plan ------------------------------ #
    plan = gs.figure1_plan()
    translation = plan_to_sql(plan, gs.schema(), gs.views(), gs.access_schema())
    print("\nFigure 1 plan ξ0 as SQL:\n")
    print(translation.text)
    print("\nfetches served by:", "; ".join(translation.fetch_comments))

    sql_rows = {tuple(row) for row in connection.execute(translation.text)}
    executed = service.execute_plan(plan)
    baseline_rows = evaluate_cq(gs.query_q0(), instance.database.facts)
    assert sql_rows == set(executed.rows) == baseline_rows
    print(f"\nSQL, plan executor and full scan agree on {len(sql_rows)} answers "
          f"(plan fetched {executed.stats.tuples_fetched} tuples)")

    # --- the full-scan SQL baseline, for contrast -------------------------- #
    baseline_sql = cq_to_sql(gs.query_q0(), gs.schema())
    baseline_from_sql = {tuple(row) for row in connection.execute(baseline_sql)}
    assert baseline_from_sql == baseline_rows
    print("full-scan SQL baseline agrees as well")


if __name__ == "__main__":
    main()
