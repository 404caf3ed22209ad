"""The execution kernel: compiled closures with I/O accounting.

Every evaluation is compiled: bounded plans to closure trees
(:mod:`.codegen`), and every CQ/UCQ evaluation — the full-scan baseline
and view maintenance included — to one fused, ``exec``-compiled loop nest
per disjunct (:mod:`.cq_compiler`); a view's delta rules and support checks
are CQs (:mod:`.delta_compiler`) compiled the same way.  Every tuple that
crosses the storage boundary is reported to a single :class:`IOMeter`,
which preserves the paper's exact
``Dξ`` accounting (``tuples_fetched`` for index fetches,
``view_tuples_scanned`` for free scans of cached views).

Layout:

* :mod:`.iometer` — the shared I/O accounting object;
* :mod:`.lowering` — plan nodes → positional specs (join keys, fetch
  constraints, predicate positions) and the row extractors;
* :mod:`.codegen` — bounded :class:`~repro.core.plans.PlanNode` trees →
  closure trees (the service's plans and ``QueryService.execute_plan``);
* :mod:`.cq_compiler` — conjunctive queries → loop nests (used by
  :func:`repro.algebra.evaluation.evaluate_cq` and friends, the baseline
  engine, view materialisation and maintenance, and the service's
  full-scan fallback);
* :mod:`.delta_compiler` — view definitions → delta rules and support
  checks (plain CQs; it generates no code).

The compilers are imported directly by their consumers (not re-exported
here) to keep package initialisation free of import cycles.
"""

from .iometer import IOMeter

__all__ = ["IOMeter"]
