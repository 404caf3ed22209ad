"""Static analysis: plan verification, boundedness certificates, query lints.

The subsystem has four checkers, all purely static (no data access):

* :func:`verify_plan` — walk any physical plan and verify schema
  bookkeeping, access-constraint conformance and boundedness, producing a
  :class:`VerificationReport` with located diagnostics and per-fetch
  :class:`FetchCertificate` evidence;
* :func:`verify_delta_program` — the same discipline for a view's delta
  program: the delta rules and support checks it is rewritten into;
* :func:`lint_query` — advisory lints for legal-but-suspicious queries
  (cartesian products, unused atoms, contradictions, unsafe negation);
* :func:`analyze_view_dependencies` — stratification and cycle detection
  over a view set, yielding the safe maintenance order.

``QueryService.explain`` / ``QueryService.lint`` are the front ends;
``QueryService`` runs :func:`verify_plan` (as :func:`codegen_eligibility`)
on every plan before it is cached, raising
:class:`~repro.errors.PlanVerificationError` on findings.
:mod:`repro.analysis.mutations` manufactures corrupted plans for
property-testing the verifier.
"""

from .deps import ViewDependencyReport, analyze_view_dependencies
from .diagnostics import (
    BoundednessCounterexample,
    CoverageStep,
    Diagnostic,
    FetchCertificate,
    Severity,
    VerificationReport,
)
from .explain import Explanation
from .lints import lint_query
from .mutations import MUTATION_KINDS, PlanMutation, mutate_plan, plan_mutations
from .verifier import (
    codegen_eligibility,
    coverage_trace,
    delta_codegen_eligibility,
    fetch_certificates,
    verify_delta_program,
    verify_plan,
)

__all__ = [
    "BoundednessCounterexample",
    "CoverageStep",
    "Diagnostic",
    "Explanation",
    "FetchCertificate",
    "MUTATION_KINDS",
    "PlanMutation",
    "Severity",
    "VerificationReport",
    "ViewDependencyReport",
    "analyze_view_dependencies",
    "codegen_eligibility",
    "coverage_trace",
    "delta_codegen_eligibility",
    "fetch_certificates",
    "lint_query",
    "mutate_plan",
    "plan_mutations",
    "verify_delta_program",
    "verify_plan",
]
