"""Pluggable planners: strategy objects producing bounded plans.

Each way of finding a bounded plan — the heuristic builder, the
topped-query analysis for FO, the exact VBRP procedure — is a
:class:`Planner` strategy, and the service runs a configurable *fallback
chain*: the first planner that accepts the query's language and finds a plan
wins; when none does, the service falls back to the full-scan baseline
carrying every planner's refusal reason.

Three planners ship by default:

* ``"heuristic"`` — the constructive builder of
  :func:`repro.engine.optimizer.build_bounded_plan_ucq`: views as filters,
  then fetches in the order a subset search, costed from the exact column
  statistics, prices cheapest (CQ/UCQ; sound, not complete, fast);
* ``"exact"`` — the enumerative VBRP decision procedure
  :func:`repro.core.vbrp.decide_vbrp` (CQ/UCQ; complete relative to its
  candidate vocabulary, exponential — off the default chain);
* ``"topped"`` — the effective-syntax plan generator
  :func:`repro.core.topped.topped_plan` (FO queries, Section 5).

Custom planners register through :func:`register_planner` and are then
addressable by name in ``QueryService(planners=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence, runtime_checkable

from ...algebra.cq import ConjunctiveQuery
from ...algebra.fo import FOQuery
from ...algebra.schema import DatabaseSchema
from ...algebra.terms import Variable
from ...algebra.ucq import UnionQuery
from ...algebra.views import ViewSet
from ...core.access import AccessSchema
from ...core.element_queries import ElementQueryBudget
from ...core.plans import PlanNode
from ...core.topped import topped_plan
from ...core.vbrp import decide_vbrp
from ...errors import BudgetExceededError, QueryError
from ..optimizer import (
    DEFAULT_MAX_DP_ATOMS,
    JoinOrderReport,
    build_bounded_plan_ucq,
)

if TYPE_CHECKING:
    from ...storage.statistics import RelationStatistics

Query = ConjunctiveQuery | UnionQuery | FOQuery


@dataclass(frozen=True)
class PlanningContext:
    """Everything a planner may consult besides the query itself.

    ``statistics`` carries the storage layer's per-relation cardinality /
    distinct counts (:meth:`repro.storage.instance.Database.statistics`);
    cost-based planners use them to order otherwise equivalent access paths.
    Statistics pick among plans that are all correct on any data, so a
    cached plan survives writes: a bounded plan's ``Dξ`` is capped by its
    certificate, which depends on the query, the access schema and the
    views, never on ``|D|``.
    """

    schema: DatabaseSchema
    views: ViewSet
    access_schema: AccessSchema
    budget: ElementQueryBudget | None = None
    inner_size_cutoff: int = 2
    statistics: Mapping[str, "RelationStatistics"] | None = None


@dataclass
class PlanningResult:
    """Outcome of one planner invocation.

    ``order_report`` is populated by the heuristic builder: the
    chosen-vs-rejected join orders with their model costs, surfaced through
    ``explain()`` and persisted alongside the plan.
    """

    plan: PlanNode | None
    planner: str
    reason: str = ""
    order_report: JoinOrderReport | None = None

    @property
    def found(self) -> bool:
        return self.plan is not None


@runtime_checkable
class Planner(Protocol):
    """Strategy protocol: anything that can turn a query into a bounded plan.

    Planners with configuration that changes their output should expose a
    ``signature`` attribute/property (a hashable tuple including the name and
    every behavior-affecting setting) — it keys the plan cache.  Without one,
    the cache falls back to ``(name, type)`` via :func:`planner_signature`,
    which treats two same-typed instances as interchangeable.

    A planner whose choice never reads the *value* of a query constant — only
    which positions hold constants and which of them equal each other or a
    constant of a view definition — may declare ``constant_blind = True``.
    Statistics may still steer it, as long as they are read per column and
    never per value: the heuristic builder prices a constant key at the
    column's second-moment bucket, which a hot key raises for every value
    alike.
    When every planner of a chain does, the service plans each query *shape*
    once (see :mod:`.resolve`) and shares the outcome across values; one
    planner without the declaration — the default for a custom planner —
    makes the chain plan the query as written, once per value.
    """

    name: str

    def can_plan(self, query: Query) -> bool:
        """Whether this planner handles the query's language at all."""
        ...

    def plan(
        self,
        query: Query,
        head: Sequence[Variable] | None,
        max_size: int | None,
        context: PlanningContext,
    ) -> PlanningResult:
        """Produce a bounded plan, or a :class:`PlanningResult` explaining why not."""
        ...


def planner_signature(planner: "Planner") -> tuple:
    """The hashable identity of a planner for plan-cache keying.

    Uses the planner's own ``signature`` when provided; otherwise falls back
    to name plus concrete type, so a re-registered or differently-configured
    planner of another type never serves another planner's cached outcomes.
    """
    signature = getattr(planner, "signature", None)
    if signature is not None:
        return tuple(signature)
    return (planner.name, type(planner).__qualname__)


class HeuristicPlanner:
    """The constructive CQ/UCQ plan builder: views as filters, then fetches
    in the order the subset search prices cheapest in ``Dξ``.

    Above ``max_dp_atoms`` uncovered atoms per disjunct the builder fetches
    greedily instead (recorded in the order report); ``max_dp_atoms=0``
    is the greedy builder throughout.  Constant-blind: a constant key
    is priced at its column's second-moment bucket, whatever value sits
    there, so one plan serves every value of a shape."""

    name = "heuristic"
    constant_blind = True

    def __init__(self, max_dp_atoms: int = DEFAULT_MAX_DP_ATOMS) -> None:
        self.max_dp_atoms = max_dp_atoms

    @property
    def signature(self) -> tuple:
        return (self.name, "dp", self.max_dp_atoms)

    def can_plan(self, query: Query) -> bool:
        return isinstance(query, (ConjunctiveQuery, UnionQuery))

    def plan(
        self,
        query: Query,
        head: Sequence[Variable] | None,
        max_size: int | None,
        context: PlanningContext,
    ) -> PlanningResult:
        outcome = build_bounded_plan_ucq(
            query,
            context.views,
            context.access_schema,
            context.schema,
            max_size,
            context.budget,
            statistics=context.statistics,
            max_dp_atoms=self.max_dp_atoms,
        )
        return PlanningResult(
            plan=outcome.plan,
            planner=self.name,
            reason=outcome.reason,
            order_report=outcome.order_report,
        )


class ExactVBRPPlanner:
    """The enumerative VBRP procedure — complete, exponential, opt-in.

    ``decide_vbrp`` needs a concrete size bound ``M`` to enumerate candidate
    plans; when the caller passes ``max_size=None`` the planner uses its own
    ``default_max_size`` (keep it small: the candidate space grows
    exponentially in ``M``, which is exactly what Table I measures).
    """

    name = "exact"
    constant_blind = True

    def __init__(self, default_max_size: int = 4, language: str = "UCQ") -> None:
        self.default_max_size = default_max_size
        self.language = language

    @property
    def signature(self) -> tuple:
        return (self.name, self.default_max_size, self.language)

    def can_plan(self, query: Query) -> bool:
        return isinstance(query, (ConjunctiveQuery, UnionQuery))

    def plan(
        self,
        query: Query,
        head: Sequence[Variable] | None,
        max_size: int | None,
        context: PlanningContext,
    ) -> PlanningResult:
        bound = max_size if max_size is not None else self.default_max_size
        try:
            result = decide_vbrp(
                query,
                context.views,
                context.access_schema,
                context.schema,
                max_size=bound,
                language=self.language,
                budget=context.budget,
            )
        except BudgetExceededError as error:
            # Exhausting the enumeration budget is a refusal, not a failure of
            # the request: let the chain fall through to the next planner.
            return PlanningResult(plan=None, planner=self.name, reason=str(error))
        return PlanningResult(plan=result.plan, planner=self.name, reason=result.reason)


class ToppedFOPlanner:
    """The effective-syntax path: bounded plans for topped FO queries."""

    name = "topped"
    constant_blind = True

    @property
    def signature(self) -> tuple:
        return (self.name,)

    def can_plan(self, query: Query) -> bool:
        return isinstance(query, FOQuery)

    def plan(
        self,
        query: Query,
        head: Sequence[Variable] | None,
        max_size: int | None,
        context: PlanningContext,
    ) -> PlanningResult:
        assert isinstance(query, FOQuery)
        if head is None:
            head = sorted(query.free_variables, key=lambda v: v.name)
        plan = topped_plan(
            query,
            head,
            context.schema,
            context.views,
            context.access_schema,
            inner_size_cutoff=context.inner_size_cutoff,
            budget=context.budget,
        )
        if plan is not None and max_size is not None and plan.size() > max_size:
            return PlanningResult(
                plan=None,
                planner=self.name,
                reason=f"topped plan has {plan.size()} nodes > M={max_size}",
            )
        if plan is None:
            return PlanningResult(
                plan=None, planner=self.name, reason="query is not topped by (R, V, A, M)"
            )
        return PlanningResult(plan=plan, planner=self.name)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

_PLANNER_FACTORIES: dict[str, Callable[[], Planner]] = {
    HeuristicPlanner.name: HeuristicPlanner,
    ExactVBRPPlanner.name: ExactVBRPPlanner,
    ToppedFOPlanner.name: ToppedFOPlanner,
}

#: The chain used when a service is created without an explicit one: the
#: cheap constructive builder for CQ/UCQ, the effective syntax for FO.
DEFAULT_PLANNER_CHAIN: tuple[str, ...] = ("heuristic", "topped")


def register_planner(name: str, factory: Callable[[], Planner]) -> None:
    """Register (or replace) a planner factory under ``name``."""
    _PLANNER_FACTORIES[name] = factory


def available_planners() -> tuple[str, ...]:
    """The names currently registered (sorted)."""
    return tuple(sorted(_PLANNER_FACTORIES))


def resolve_planners(
    planners: Sequence[str | Planner] | None,
) -> tuple[Planner, ...]:
    """Materialise a planner chain from names and/or ready strategy objects."""
    if planners is None:
        planners = DEFAULT_PLANNER_CHAIN
    resolved: list[Planner] = []
    for entry in planners:
        if isinstance(entry, str):
            factory = _PLANNER_FACTORIES.get(entry)
            if factory is None:
                raise QueryError(
                    f"unknown planner {entry!r}; registered planners are "
                    f"{', '.join(available_planners())}"
                )
            resolved.append(factory())
        else:
            resolved.append(entry)
    return tuple(resolved)
