"""The execution kernel: iterator-based physical operators with I/O accounting.

The bounded-plan executor (:mod:`repro.core.plan_eval`) and Yannakakis'
evaluator compile down to a small set of Volcano-style physical operators
defined here; the compiled tiers fuse the same work into generated
closures: bounded plans (:mod:`.codegen`), view delta programs
(:mod:`.delta_compiler`) and every CQ/UCQ evaluation — the full-scan
baseline included (:mod:`.cq_compiler`).  Operators follow a shared
``open()`` / ``next()`` / ``close()`` protocol and report every tuple that
crosses the storage boundary to a single :class:`IOMeter`, which preserves
the paper's exact ``Dξ`` accounting (``tuples_fetched`` for index fetches,
``view_tuples_scanned`` for free scans of cached views).

Layout:

* :mod:`.iometer` — the shared I/O accounting object;
* :mod:`.operators` — the physical operators (IndexLookup, Scan, HashJoin,
  SemiJoin, Project, Select, Union, Distinct, Materialize);
* :mod:`.plan_compiler` — bounded :class:`~repro.core.plans.PlanNode` trees
  → operator trees (used by :class:`repro.core.plan_eval.PlanExecutor`);
* :mod:`.cq_compiler` — conjunctive queries → one fused, ``exec``-compiled
  loop nest per disjunct (used by :func:`repro.algebra.evaluation.evaluate_cq`
  and friends, the baseline engine, view maintenance and the service's
  full-scan fallback).

The compilers are imported directly by their consumers (not re-exported
here) to keep package initialisation free of import cycles.
"""

from .iometer import IOMeter
from .operators import (
    Distinct,
    HashJoin,
    IndexLookup,
    Materialize,
    Operator,
    Project,
    Scan,
    Select,
    SemiJoin,
    Union,
)

__all__ = [
    "IOMeter",
    "Operator",
    "Scan",
    "IndexLookup",
    "HashJoin",
    "SemiJoin",
    "Project",
    "Select",
    "Union",
    "Distinct",
    "Materialize",
]
