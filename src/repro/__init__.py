"""Bounded query rewriting using views under access constraints.

A faithful, executable reproduction of

    Yang Cao, Wenfei Fan, Floris Geerts, Ping Lu.
    "Bounded Query Rewriting Using Views."  PODS 2016 / ACM TODS 43(1), 2018.

The package is organised as follows:

* :mod:`repro.algebra` — the query-language substrate: schemas, terms,
  conjunctive queries (CQ), unions of CQs (UCQ), full first-order queries
  (FO), views, containment, acyclicity and evaluation;
* :mod:`repro.storage` — in-memory instances, the indices realising access
  constraints, and constraint discovery;
* :mod:`repro.core` — the paper's contribution: access schemas, bounded
  output, A-equivalence, query plans with ``fetch``, conformance, the VBRP
  decision procedures, the effective syntax (topped and size-bounded
  queries) and cross-language rewriting;
* :mod:`repro.analysis` — static analysis: plan verification with
  boundedness certificates, compiled-delta-program checking, query lints and
  view-dependency stratification, fronted by :meth:`QueryService.explain`,
  :meth:`QueryService.lint` and the check every plan passes before the
  plan cache admits it;
* :mod:`repro.engine` — the serving layer built around
  :class:`~repro.engine.service.QueryService`: one entry point for
  CQ/UCQ/FO/string queries, a pluggable planner chain (heuristic builder,
  exact VBRP, topped-FO), an LRU plan cache with prepared queries, an
  in-memory plan executor with exact ``Dξ`` accounting, the SQL translation
  of Section 5.1 (:func:`~repro.engine.sql.plan_to_sql`), and incremental
  view/index maintenance;
* :mod:`repro.workloads` — Example 1.1's Graph Search workload, a synthetic
  CDR workload, random CQ generation and the reduction gadgets used in the
  lower-bound proofs.

Quickstart (Example 1.1)::

    from repro import QueryService
    from repro.workloads import graph_search as gs

    data = gs.generate(num_persons=10_000, num_movies=2_000)
    service = QueryService(data.database, gs.access_schema(), gs.views())
    answer = service.query(gs.query_q0())
    assert answer.used_bounded_plan
    print(len(answer.rows), "movies,", answer.tuples_fetched, "tuples fetched")

    # Same query again: planned once, served from the plan cache.
    assert service.query(gs.query_q0()).cache_hit

    # Prepared queries re-bind constants without re-planning.
    prepared = service.prepare(
        "Q0(mid) :- person(xp, name, 'NASA'), like(xp, mid, 'movie'), "
        "movie(mid, ym, :studio, '2014'), rating(mid, 5)"
    )
    rows = prepared.execute(studio="Universal").rows
"""

from .algebra import (
    ConjunctiveQuery,
    Constant,
    DatabaseSchema,
    EqualityAtom,
    FOQuery,
    Param,
    RelationAtom,
    RelationSchema,
    UnionQuery,
    Variable,
    View,
    ViewSet,
    parse_access_schema,
    parse_cq,
    parse_query,
    parse_ucq,
    schema_from_spec,
    variables,
)
from .analysis import (
    Diagnostic,
    Explanation,
    FetchCertificate,
    VerificationReport,
    analyze_view_dependencies,
    lint_query,
    verify_delta_program,
    verify_plan,
)
from .core import (
    AccessConstraint,
    AccessSchema,
    access_constraint,
    a_contained_in,
    a_equivalent,
    accuracy_sweep,
    alg_acq,
    alg_mp,
    analyze_topped,
    approximate_answer,
    conforms_to,
    covered_variables,
    decide_vbrp,
    decide_vbrp_plus,
    diversified_answer,
    execute_plan,
    has_bounded_output,
    is_bounded_rewriting,
    is_boundedly_evaluable,
    is_effectively_bounded,
    is_size_bounded,
    is_topped,
    make_size_bounded,
    minimize_cq,
    output_bound_estimate,
    plan_to_cq,
    plan_to_fo,
    plan_to_ucq,
    top_k_diversified,
    topped_plan,
)
from .engine import (
    Answer,
    CostBasedPlanner,
    ExactVBRPPlanner,
    HeuristicPlanner,
    PlanStore,
    NaiveEngine,
    PreparedQuery,
    QueryService,
    ServiceStats,
    ToppedFOPlanner,
    available_planners,
    build_bounded_plan,
    plan_to_sql,
    register_planner,
)
from .engine.service import MaintenanceReport, ViewMaintainer
from .errors import (
    AccessConstraintError,
    BudgetExceededError,
    DeltaCompilationError,
    EvaluationError,
    PlanError,
    PlanStoreError,
    PlanVerificationError,
    QueryError,
    ReproError,
    SchemaError,
    UnsupportedQueryError,
)
from .storage import (
    Database,
    Deletion,
    DeltaStream,
    IndexSet,
    Insertion,
    UpdateBatch,
    discover_access_constraints,
    random_update_batch,
)

__version__ = "1.1.0"

__all__ = [
    "AccessConstraint",
    "AccessConstraintError",
    "AccessSchema",
    "Answer",
    "BudgetExceededError",
    "ConjunctiveQuery",
    "Constant",
    "CostBasedPlanner",
    "Database",
    "DatabaseSchema",
    "Deletion",
    "DeltaCompilationError",
    "DeltaStream",
    "Diagnostic",
    "EqualityAtom",
    "EvaluationError",
    "ExactVBRPPlanner",
    "Explanation",
    "FOQuery",
    "FetchCertificate",
    "HeuristicPlanner",
    "IndexSet",
    "Insertion",
    "MaintenanceReport",
    "NaiveEngine",
    "Param",
    "PlanError",
    "PlanStore",
    "PlanStoreError",
    "PlanVerificationError",
    "PreparedQuery",
    "QueryError",
    "QueryService",
    "ReproError",
    "SchemaError",
    "RelationAtom",
    "RelationSchema",
    "ServiceStats",
    "ToppedFOPlanner",
    "UnionQuery",
    "UnsupportedQueryError",
    "UpdateBatch",
    "Variable",
    "VerificationReport",
    "View",
    "ViewMaintainer",
    "ViewSet",
    "__version__",
    "a_contained_in",
    "a_equivalent",
    "access_constraint",
    "accuracy_sweep",
    "alg_acq",
    "alg_mp",
    "analyze_topped",
    "analyze_view_dependencies",
    "approximate_answer",
    "available_planners",
    "build_bounded_plan",
    "conforms_to",
    "covered_variables",
    "decide_vbrp",
    "decide_vbrp_plus",
    "discover_access_constraints",
    "diversified_answer",
    "execute_plan",
    "has_bounded_output",
    "is_bounded_rewriting",
    "is_boundedly_evaluable",
    "is_effectively_bounded",
    "is_size_bounded",
    "is_topped",
    "lint_query",
    "make_size_bounded",
    "minimize_cq",
    "output_bound_estimate",
    "parse_access_schema",
    "parse_cq",
    "parse_query",
    "parse_ucq",
    "plan_to_cq",
    "plan_to_fo",
    "plan_to_sql",
    "plan_to_ucq",
    "random_update_batch",
    "register_planner",
    "schema_from_spec",
    "top_k_diversified",
    "topped_plan",
    "variables",
    "verify_delta_program",
    "verify_plan",
]
