"""Canonical query keys and the LRU plan cache.

Planning is the expensive part of serving a bounded query — homomorphism
search, equivalence checks, conformance verification — while the plans
themselves are immutable and independent of the data.  The service therefore
caches planning outcomes keyed by a *canonical form* of the query, so that
the same query (even written with different variable names, or re-parsed
from text) is planned exactly once.

Canonicalisation renames variables by first occurrence over the head and the
body, which makes alpha-equivalent queries collide on purpose.  It does not
attempt full CQ-isomorphism (atom order still matters): a missed collision
costs one extra planning run, never a wrong answer.

Negative outcomes ("no bounded plan, here is why") are cached too — repeated
unboundable queries would otherwise re-run the whole planner chain on every
call just to fall back again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

from ...algebra.cq import ConjunctiveQuery
from ...algebra.fo import FOQuery
from ...algebra.terms import Constant, Variable
from ...algebra.ucq import UnionQuery
from ...core.plans import PlanNode
from ...exec.codegen import CompiledPlan
from ...exec.cq_compiler import CQKernel


def _canonical_cq(
    query: ConjunctiveQuery, lift: Callable[[object], object] | None
) -> tuple:
    normalized = query.normalize()
    names: dict[Variable, str] = {}

    def term_key(term) -> tuple:
        if isinstance(term, Constant):
            return ("c", repr(term.value if lift is None else lift(term.value)))
        if term not in names:
            names[term] = f"v{len(names)}"
        return ("v", names[term])

    head = tuple(term_key(t) for t in normalized.head)
    atoms = tuple(
        (atom.relation, tuple(term_key(t) for t in atom.terms))
        for atom in normalized.atoms
    )
    return (head, atoms)


def canonical_query_key(
    query: ConjunctiveQuery | UnionQuery | FOQuery,
    lift: Callable[[object], object] | None = None,
) -> tuple:
    """A hashable canonical form of a CQ/UCQ/FO query.

    Two queries with the same key are alpha-equivalent (CQ/UCQ) or textually
    identical (FO); queries with different keys may still be semantically
    equivalent — the cache then simply plans both.

    Every constant counts unless ``lift`` is given: each constant *value* of
    a CQ/UCQ is then keyed as ``lift(value)``, visited in canonical order
    (disjuncts as written; head, then atoms, of the normalised form).  The
    resolve stage passes the function that turns liftable constants into
    parameter slots, which makes this — the same walk — the key of the shape.
    """
    if isinstance(query, ConjunctiveQuery):
        return ("CQ", _canonical_cq(query, lift))
    if isinstance(query, UnionQuery):
        return ("UCQ", tuple(sorted(_canonical_cq(d, lift) for d in query.disjuncts)))
    if isinstance(query, FOQuery):
        return ("FO", str(query))
    raise TypeError(f"cannot canonicalise a query of type {type(query).__name__}")


@dataclass
class CachedPlan:
    """One planning outcome: either a plan plus its producer, or a failure.

    ``parameters`` is the plan's set of named placeholders, computed once at
    planning time so the serving hot path does not re-walk the plan tree on
    every (cache-hit) execution.

    An outcome is a function of the query, the access schema and the views,
    never of the data, and its compiled closure late-binds snapshot and view
    cache per execution — so a write leaves the entry alone, and an entry
    that left the cache keeps serving whoever still holds it.  It goes by
    LRU eviction, by :meth:`LRUPlanCache.clear` (planning budget changed)
    or by adaptive re-planning (:meth:`LRUPlanCache.replace`, which names
    the replacement in ``successor``), nothing else.
    """

    plan: PlanNode | None
    planner: str | None
    reason: str = ""
    parameters: frozenset[str] = frozenset()
    # Unused by src/; bench/staged.py still passes it — goes with ROADMAP item 1.
    dependencies: frozenset[str] = frozenset()
    # The closure the service compiled the plan into when it admitted the
    # entry (``None`` exactly when no plan was found), and how often the
    # entry has been executed.
    compiled: CompiledPlan | None = None
    executions: int = 0
    # A CQ/UCQ without a plan is admitted too: the full-scan fallback's loop
    # nest, compiled once per shape (``None`` for found plans and FO).
    kernel: CQKernel | None = None
    # Unused by src/; bench/staged.py still reads it — goes with ROADMAP item 1.
    codegen_state: str = "pending"
    # Optimizer-v2 bookkeeping.  ``estimated_fetches``/``fetch_estimates``
    # are the cardinality model's prediction recorded at planning time
    # (``fetch_estimates`` is a tuple of FetchEstimate objects);
    # ``actual_fetches``/``actual_per_relation`` the IOMeter's latest
    # actuals; a warm execution whose actual Dxi misses the estimate by more
    # than the service's replan factor triggers adaptive re-planning, which
    # swaps in a replacement entry carrying ``replans``/``replan_reason``.
    # ``replans`` counts the re-plans since the last write the entry saw —
    # the oscillation guard's spent budget — and ``replan_version`` is the
    # snapshot version of the latest one: a miss at a later version is new
    # evidence and starts the count again, a miss at the same version is
    # oscillation.
    # ``order_report`` is the cost-based planner's chosen-vs-rejected join
    # orders; ``cache_key`` lets the service atomically replace this entry
    # in place, and ``successor`` is the entry that replaced it; ``restored``
    # marks entries loaded from the persistent plan store (counted as a
    # store hit on their first cache hit, then cleared).
    estimated_fetches: float | None = None
    fetch_estimates: tuple = ()
    actual_fetches: int | None = None
    actual_per_relation: dict | None = None
    replans: int = 0
    replan_version: int = 0
    replan_reason: str = ""
    order_report: object | None = None
    cache_key: tuple | None = None
    successor: "CachedPlan | None" = None
    restored: bool = False
    # The latest ``(plan, values, plan bound to them)`` of a plan shared
    # across constants, see ``ResolvedQuery.literal_plan``.
    literal: tuple | None = None

    @property
    def found(self) -> bool:
        return self.plan is not None


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`LRUPlanCache`.

    Mutated only under the owning cache's lock — not independently
    thread-safe.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUPlanCache:
    """A bounded, thread-safe LRU mapping of canonical query keys to plans.

    ``capacity <= 0`` disables caching entirely (every lookup is a miss and
    nothing is stored), which the throughput benchmark uses as its baseline.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: tuple) -> CachedPlan | None:
        """Look up a planning outcome, refreshing its recency on a hit."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: tuple, entry: CachedPlan) -> None:
        """Insert a planning outcome, evicting the least recently used entry."""
        if self.capacity <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def replace(self, key: tuple, old: CachedPlan, new: CachedPlan) -> bool:
        """Atomically swap a re-planned outcome in for ``old`` under ``key``.

        Succeeds only while ``old`` is still the cached entry (two racing
        re-planners cannot both win).
        """
        with self._lock:
            current = self._entries.get(key)
            if current is not old:
                return False
            self._entries[key] = new
            self._entries.move_to_end(key)
            return True

    def entries(self) -> list[tuple[tuple, CachedPlan]]:
        """A point-in-time snapshot of (key, entry) pairs, LRU-oldest first.

        Used by the persistent plan store's close-time write-back; the
        entries themselves are shared, not copied.
        """
        with self._lock:
            return list(self._entries.items())

    # Unused by src/; bench/staged.py still calls it — goes with ROADMAP item 1.
    def invalidate(self, touched: Iterable[str]) -> int:
        """Evict the entries whose ``dependencies`` meet ``touched`` (or are
        empty); returns how many."""
        touched = set(touched)
        with self._lock:
            if not touched:
                return 0
            stale = [
                key
                for key, entry in self._entries.items()
                if not entry.dependencies or entry.dependencies & touched
            ]
            for key in stale:
                del self._entries[key]
            self.stats.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
