"""Conformance of query plans to an access schema (Section 2, Lemma 3.8).

A plan ``ξ`` *conforms to* ``A`` when

(a) every ``fetch(X ∈ S, R, Y)`` node is covered by some access constraint
    ``R(X -> Y', N)`` with ``Y ⊆ X ∪ Y'``; and
(b) there is a constant ``N_ξ`` bounding the bag ``Dξ`` of fetched tuples over
    *all* instances ``D |= A`` — equivalently, the input ``S`` of every fetch
    has bounded output under ``A``.

Condition (b) is the interesting one: the sub-plan feeding a fetch is unfolded
into a query (views substituted by their definitions) and checked with the
bounded-output procedure of Theorem 3.4.  For CQ/UCQ/∃FO+ sub-plans this is
exact (coNP in general, PTIME for constant-size plans, PTIME under FD-only
schemas — Lemmas 4.3(a) and 4.6); sub-plans that genuinely need FO (set
difference below a fetch) are rejected conservatively because FO bounded
output is undecidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra.schema import DatabaseSchema
from ..algebra.views import ViewSet
from ..errors import BudgetExceededError, PlanError, UnsupportedQueryError
from .access import AccessSchema
from .bounded_output import bounded_output_witness
from .element_queries import ElementQueryBudget
from .plans import FetchNode, PlanNode
from .rewriting import plan_to_ucq


#: Verdicts on fetch inputs, ``(child plan, relation, X, compute_bound) ->
#: (ok, reason, bound)``, shared by the ``conforms_to`` calls of *one*
#: planning run: the builders check every candidate fragment and then the
#: assembled plan, which re-asks the same coNP question about the same input.
#: The access schema, schema, views and budget are fixed for the run, so the
#: memo must not outlive it.
ConformanceMemo = dict[
    tuple[PlanNode, str, tuple[str, ...], bool], tuple[bool, str, int | None]
]


@dataclass
class ConformanceReport:
    """Outcome of a conformance check.

    ``conforms`` is the decision; ``reasons`` explains every failed fetch
    node; ``fetch_bound`` is an upper bound on ``|Dξ|`` over all instances
    satisfying the access schema (``None`` when it could not be computed,
    e.g. because only the decision was requested).
    """

    conforms: bool
    reasons: list[str] = field(default_factory=list)
    fetch_bound: int | None = None


def conforms_to(
    plan: PlanNode,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    views: ViewSet | None = None,
    budget: ElementQueryBudget | None = None,
    compute_bound: bool = False,
    memo: ConformanceMemo | None = None,
) -> ConformanceReport:
    """Check whether ``plan`` conforms to ``access_schema``.

    ``views`` is needed to unfold view scans occurring below fetch nodes; when
    the plan scans views that are not provided, those fetches are reported as
    unverifiable.  ``memo`` lets one planning run unfold and decide each
    distinct fetch input once (see :data:`ConformanceMemo`).
    """
    reasons: list[str] = []
    total_bound: int | None = 0 if compute_bound else None
    memo = {} if memo is None else memo

    for fetch in plan.fetch_nodes():
        constraint = fetch.covering_constraint(access_schema)
        if constraint is None:
            reasons.append(
                f"no access constraint covers fetch({fetch.x_attrs} ∈ _, "
                f"{fetch.relation}, {fetch.y_attrs})"
            )
            continue
        if not fetch.x_attrs:
            # fetch(∅, R, Y): a single index lookup returning at most N tuples.
            if total_bound is not None:
                total_bound += constraint.bound
            continue
        key = (fetch.child, fetch.relation, fetch.x_attrs, compute_bound)
        if key not in memo:
            memo[key] = _input_has_bounded_output(
                fetch, access_schema, schema, views, budget, compute_bound
            )
        bound_ok, reason, input_bound = memo[key]
        if not bound_ok:
            reasons.append(reason)
        elif total_bound is not None:
            if input_bound is None:
                total_bound = None
            else:
                total_bound += input_bound * constraint.bound

    report_bound = total_bound if (compute_bound and not reasons) else None
    return ConformanceReport(conforms=not reasons, reasons=reasons, fetch_bound=report_bound)


def _input_has_bounded_output(
    fetch: FetchNode,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    views: ViewSet | None,
    budget: ElementQueryBudget | None,
    compute_bound: bool,
) -> tuple[bool, str, int | None]:
    """Does the sub-plan feeding ``fetch`` have bounded output under ``A``?"""
    try:
        input_query = plan_to_ucq(fetch.child, schema, views, unfold_views=True)
    except (UnsupportedQueryError, PlanError) as exc:
        return (
            False,
            f"cannot verify bounded output of the input of fetch on {fetch.relation!r}: {exc}",
            None,
        )
    try:
        witness = bounded_output_witness(
            input_query, access_schema, schema, budget, compute_bound
        )
    except BudgetExceededError as exc:
        return (
            False,
            f"bounded-output check of the input of fetch on {fetch.relation!r} "
            f"exceeded its budget: {exc}",
            None,
        )
    if not witness.bounded:
        uncovered = ", ".join(sorted(v.name for v in witness.uncovered))
        return (
            False,
            f"input {fetch.x_attrs} of fetch on {fetch.relation!r} does not have "
            f"bounded output under A: {uncovered} uncovered in {witness.counterexample}",
            None,
        )
    return True, "", witness.output_bound
