"""Unified query-serving subsystem: one entry point, pluggable everything.

:class:`QueryService` is the public API of the library's serving layer — see
:mod:`.service` for the full story.  The submodules are independently
reusable:

* :mod:`.resolve` — the memoised resolve stage in front of everything else:
  parse, schema validation, canonical key and parameter names, once per
  distinct input;
* :mod:`.planners` — planner strategies and the registry behind the
  configurable fallback chain;
* :mod:`.cache` — canonical query keys and the LRU plan cache;
* :mod:`.backends` — the in-memory execution backend;
* :mod:`.stats` — thread-safe serving statistics with latency percentiles.
"""

from .backends import InMemoryBackend
from .cache import CachedPlan, CacheStats, LRUPlanCache, canonical_query_key
from .maintenance import (
    MaintenanceReport,
    MaintenanceStats,
    ViewDelta,
    ViewMaintainer,
)
from .plan_store import PlanStore, StoredEntry
from .planners import (
    DEFAULT_PLANNER_CHAIN,
    ExactVBRPPlanner,
    HeuristicPlanner,
    Planner,
    PlanningContext,
    PlanningResult,
    ToppedFOPlanner,
    available_planners,
    planner_signature,
    register_planner,
    resolve_planners,
)
from .service import Answer, PreparedQuery, QueryService
from .stats import ServiceStats, StatsSnapshot

__all__ = [
    "Answer",
    "CachedPlan",
    "CacheStats",
    "DEFAULT_PLANNER_CHAIN",
    "ExactVBRPPlanner",
    "HeuristicPlanner",
    "InMemoryBackend",
    "LRUPlanCache",
    "MaintenanceReport",
    "MaintenanceStats",
    "PlanStore",
    "Planner",
    "PlanningContext",
    "PlanningResult",
    "PreparedQuery",
    "StoredEntry",
    "QueryService",
    "ServiceStats",
    "StatsSnapshot",
    "ToppedFOPlanner",
    "ViewDelta",
    "ViewMaintainer",
    "available_planners",
    "canonical_query_key",
    "planner_signature",
    "register_planner",
    "resolve_planners",
]
