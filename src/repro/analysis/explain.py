"""The user-facing explanation object returned by ``QueryService.explain``.

An :class:`Explanation` bundles what the planner chain decided (which
planner, which plan, why), the boundedness evidence for that plan (one
:class:`~repro.analysis.diagnostics.FetchCertificate` per fetch, with its
``cov(Q, A)`` derivation steps and the worst-case fetch bound), the
uncovered-variable counterexample when *no* bounded plan exists, and the
query lints — everything the paper's effective-syntax story promises can be
told *statically*, before touching data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..core.plans import PlanNode
from .diagnostics import (
    BoundednessCounterexample,
    Diagnostic,
    FetchCertificate,
)


@dataclass
class Explanation:
    """Static diagnosis of one query against the service's access schema.

    ``plan`` is ``None`` when no planner found a bounded plan; then
    ``counterexample`` (when derivable) names the variables no chain of
    access constraints can cover.  ``fetch_bound`` is the worst-case number
    of tuples the plan can fetch (the paper's ``Dξ`` bound), when computable.
    """

    query_name: str
    plan: PlanNode | None
    planner: str = ""
    reason: str = ""
    cache_hit: bool = False
    # Whether the service's resolve stage served this input from its memo
    # (parsed, validated and canonicalised on an earlier call).
    resolve_memo_hit: bool = False
    # Non-empty when the cached outcome is the query *shape*'s, shared by
    # every input that differs only in these constants (slot → this input's
    # value; ``plan`` shows them put back).  ``cache_hit`` then means "this
    # shape was planned", possibly by another text.
    bindings: Mapping[str, object] = field(default_factory=dict)
    fetch_bound: int | None = None
    certificates: tuple[FetchCertificate, ...] = ()
    counterexample: BoundednessCounterexample | None = None
    lints: tuple[Diagnostic, ...] = ()
    # The tier the next execution takes (``"compiled"`` for a bounded plan
    # and for a CQ/UCQ fallback's loop nest, ``"interpreted"`` for an FO
    # fallback), how often the cached entry has run, and how long compiling
    # its plan (or loop nest) took at admission.
    execution_tier: str = "interpreted"
    executions: int = 0
    compile_seconds: float | None = None
    # Cost-model estimates of the cached plan (optimizer v2), as plain
    # tuples so this module stays free of engine-layer imports.
    # ``operator_estimates`` rows are ``(access, estimated Dξ, last actual
    # Dξ or None)`` per fetch operator; ``join_orders`` rows are
    # ``(description, model cost, chosen)`` — the chosen order first, then
    # the best rejected completions.  ``replans`` counts how often adaptive
    # re-planning replaced this entry since the last write it saw;
    # ``replan_reason`` is the latest trigger.
    estimated_fetches: float | None = None
    actual_fetches: int | None = None
    operator_estimates: tuple[tuple[str, float, int | None], ...] = ()
    order_strategy: str = ""
    join_orders: tuple[tuple[str, float, bool], ...] = ()
    replans: int = 0
    replan_reason: str = ""

    @property
    def bounded(self) -> bool:
        """Did the service find a plan conforming to the access schema?"""
        return self.plan is not None

    def render(self) -> str:
        lines = [f"explain {self.query_name}:"]
        lines.append(f"  resolve: memo {'hit' if self.resolve_memo_hit else 'miss'}")
        if self.plan is None:
            lines.append("  no bounded plan under the access schema")
            if self.reason:
                lines.append(f"  reason: {self.reason}")
            if self.counterexample is not None:
                lines.append(f"  {self.counterexample}")
                for why in self.counterexample.reasons:
                    lines.append(f"    {why}")
        else:
            source = " (cached)" if self.cache_hit else ""
            lines.append(f"  planner: {self.planner}{source}")
            if self.bindings:
                bound = ", ".join(f"{k}={v!r}" for k, v in self.bindings.items())
                lines.append(f"  plan shared across constants, bound here: {bound}")
            if self.reason:
                lines.append(f"  reason: {self.reason}")
            detail = f"  execution tier: {self.execution_tier}"
            if self.compile_seconds is not None:
                detail += f" (compiled in {self.compile_seconds * 1e3:.2f}ms)"
            lines.append(detail)
            if self.fetch_bound is not None:
                lines.append(f"  worst-case tuples fetched: {self.fetch_bound}")
            if self.replans:
                lines.append(f"  replanned: {self.replan_reason} (x{self.replans})")
            if self.estimated_fetches is not None:
                summary = f"  estimated Dξ: {self.estimated_fetches:.1f}"
                if self.actual_fetches is not None:
                    summary += f" (last actual: {self.actual_fetches})"
                lines.append(summary)
                for access, estimated, actual in self.operator_estimates:
                    detail = f"    {access}: est {estimated:.1f}"
                    if actual is not None:
                        detail += f", actual {actual}"
                    lines.append(detail)
            if self.order_strategy:
                lines.append(f"  join order ({self.order_strategy}):")
                for description, cost, chosen in self.join_orders:
                    marker = "chosen" if chosen else "rejected"
                    lines.append(f"    [{marker}] {description}  cost {cost:.1f}")
            for line in self.plan.pretty().splitlines():
                lines.append(f"  {line}")
            for certificate in self.certificates:
                for line in certificate.render().splitlines():
                    lines.append(f"  {line}")
        for lint in self.lints:
            lines.append(f"  {lint}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
