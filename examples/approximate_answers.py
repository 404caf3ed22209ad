"""Approximate answering with a resource ratio α (Section 8 extension).

Not every query has a bounded rewriting; the paper's conclusion proposes
letting the accessed fragment be an α-fraction of the data and returning
approximate answers with a deterministic accuracy guarantee.  This example
sweeps α for the Graph Search query Q0 and a CDR analytics query and prints
how recall (coverage) grows with the budget, together with the diversified
top-k selection over the answers.

Run with::

    python examples/approximate_answers.py
"""

from __future__ import annotations

from repro import QueryService, accuracy_sweep, top_k_diversified
from repro.algebra.evaluation import evaluate_cq
from repro.workloads import cdr, graph_search as gs

ALPHAS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


def sweep(title, query, database, access_schema) -> None:
    print(f"\n=== {title} ===")
    exact = evaluate_cq(query, database.facts)
    print(f"|D| = {database.size} tuples, exact answers: {len(exact)}")
    print(f"{'alpha':>6} {'budget':>8} {'accessed':>9} {'coverage':>9} {'eta':>6}")
    for point in accuracy_sweep(query, database, access_schema, ALPHAS, seed=7):
        eta = "-" if point.eta is None else f"{point.eta:.2f}"
        print(
            f"{point.alpha:>6.2f} {point.budget:>8} {point.tuples_accessed:>9} "
            f"{point.coverage:>9.2f} {eta:>6}"
        )


def main() -> None:
    gs_instance = gs.generate(num_persons=3_000, num_movies=1_000, seed=19)
    sweep("Graph Search Q0 (Example 1.1)", gs.query_q0(),
          gs_instance.database, gs.access_schema())

    cdr_instance = cdr.generate(num_customers=500, num_days=5, seed=23)
    analytics = cdr.workload(cdr_instance, count=18, seed=31)[-1]
    sweep(f"CDR analytics query {analytics.name}", analytics,
          cdr_instance.database, cdr.access_schema())

    # Diversified top-k over the (bounded) answers of Q0.
    service = QueryService(gs_instance.database, gs.access_schema(), gs.views())
    answer = service.query(gs.query_q0())
    top = top_k_diversified(answer.rows, k=3)
    print(f"\nQ0 answered through a bounded plan ({answer.tuples_fetched} tuples fetched); "
          f"diversified top-{len(top)} of {top.candidates} answers: {top.rows}")


if __name__ == "__main__":
    main()
