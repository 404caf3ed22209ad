"""Aggregated serving statistics for :class:`~repro.engine.service.QueryService`.

One :class:`ServiceStats` instance accompanies each service and is updated on
every call (thread-safely, so concurrent callers of one service share it).
It tracks the quantities the paper's experiments revolve around — tuples
fetched through access constraints versus tuples scanned by the fallback —
plus the serving-layer metrics: plan-cache hit rates, per-planner and
per-tier usage, and latency percentiles.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass


@dataclass
class StatsSnapshot:
    """An immutable copy of the counters of a :class:`ServiceStats`."""

    queries: int
    cache_hits: int
    cache_misses: int
    bounded_answers: int
    fallback_answers: int
    tuples_fetched: int
    tuples_scanned: int
    view_tuples_scanned: int
    planner_uses: dict[str, int]
    tier_uses: dict[str, int]
    plan_store_hits: int
    resolve_hits: int
    resolve_misses: int
    cache_hit_rate: float
    bounded_rate: float
    latency_p50: float
    latency_p95: float
    latency_p99: float

    def __str__(self) -> str:
        return (
            f"queries={self.queries} cache_hit_rate={self.cache_hit_rate:.2f} "
            f"resolve_hits={self.resolve_hits} resolve_misses={self.resolve_misses} "
            f"bounded_rate={self.bounded_rate:.2f} fetched={self.tuples_fetched} "
            f"scanned={self.tuples_scanned} p50={self.latency_p50 * 1e3:.2f}ms "
            f"p95={self.latency_p95 * 1e3:.2f}ms"
        )


class ServiceStats:
    """Thread-safe accumulator of serving statistics.

    Latencies are kept in a bounded ring of the most recent ``max_latencies``
    samples: recording is O(1) on the serving hot path, and the (rare)
    percentile reads sort the ring on demand.
    """

    def __init__(self, max_latencies: int = 8192) -> None:
        self._lock = threading.Lock()
        self._max_latencies = max_latencies
        self.queries = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.bounded_answers = 0
        self.fallback_answers = 0
        self.tuples_fetched = 0
        self.tuples_scanned = 0
        self.view_tuples_scanned = 0
        self.planner_uses: dict[str, int] = {}
        self.tier_uses: dict[str, int] = {}
        # Plan-cache entries served from the persistent plan store (counted
        # on their first post-restore hit).
        self.plan_store_hits = 0
        # The resolve stage: inputs served from its memo (no parse, no
        # validation, no canonicalisation) versus resolved from scratch.
        self.resolve_hits = 0
        self.resolve_misses = 0
        self._recent: deque[float] = deque(maxlen=max_latencies)

    # ------------------------------------------------------------------ #

    def record(self, answer) -> None:
        """Fold one :class:`~repro.engine.service.Answer` into the counters."""
        with self._lock:
            self.queries += 1
            if answer.cache_hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            if answer.used_bounded_plan:
                self.bounded_answers += 1
                if answer.planner:
                    self.planner_uses[answer.planner] = (
                        self.planner_uses.get(answer.planner, 0) + 1
                    )
            else:
                self.fallback_answers += 1
            tier = answer.execution_tier
            self.tier_uses[tier] = self.tier_uses.get(tier, 0) + 1
            self.tuples_fetched += answer.tuples_fetched
            self.tuples_scanned += answer.tuples_scanned
            self.view_tuples_scanned += answer.view_tuples_scanned
            self._recent.append(answer.elapsed_seconds)

    def record_maintenance(self, stats) -> None:
        """Fold one maintenance run's per-view tier tallies into ``tier_uses``.

        Write-side tiers are namespaced (``"maintenance-compiled"``,
        ``"maintenance-recompute"``) so they sit next to the read-side
        ``"compiled"``/``"interpreted"`` counters in one report.
        """
        tier_runs = getattr(stats, "tier_runs", None)
        if not tier_runs:
            return
        with self._lock:
            for tier, count in tier_runs.items():
                key = "maintenance-" + tier
                self.tier_uses[key] = self.tier_uses.get(key, 0) + count

    def record_resolve(self, memo_hit: bool) -> None:
        """Count one pass through the resolve stage."""
        with self._lock:
            if memo_hit:
                self.resolve_hits += 1
            else:
                self.resolve_misses += 1

    def record_plan_store_hit(self) -> None:
        """Count one plan served from the persistent store after a restart."""
        with self._lock:
            self.plan_store_hits += 1

    # ------------------------------------------------------------------ #

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def bounded_rate(self) -> float:
        return self.bounded_answers / self.queries if self.queries else 0.0

    def latency_percentile(self, fraction: float) -> float:
        """The ``fraction``-quantile (0..1) of recorded latencies, in seconds."""
        with self._lock:
            return self._percentile(sorted(self._recent), fraction)

    def snapshot(self) -> StatsSnapshot:
        """A consistent copy of every counter (for reporting / benchmarks)."""
        with self._lock:
            queries = self.queries
            total_cache = self.cache_hits + self.cache_misses
            latencies = sorted(self._recent)
            snapshot = StatsSnapshot(
                queries=queries,
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                bounded_answers=self.bounded_answers,
                fallback_answers=self.fallback_answers,
                tuples_fetched=self.tuples_fetched,
                tuples_scanned=self.tuples_scanned,
                view_tuples_scanned=self.view_tuples_scanned,
                planner_uses=dict(self.planner_uses),
                tier_uses=dict(self.tier_uses),
                plan_store_hits=self.plan_store_hits,
                resolve_hits=self.resolve_hits,
                resolve_misses=self.resolve_misses,
                cache_hit_rate=self.cache_hits / total_cache if total_cache else 0.0,
                bounded_rate=self.bounded_answers / queries if queries else 0.0,
                latency_p50=self._percentile(latencies, 0.50),
                latency_p95=self._percentile(latencies, 0.95),
                latency_p99=self._percentile(latencies, 0.99),
            )
        return snapshot

    @staticmethod
    def _percentile(sorted_latencies: list[float], fraction: float) -> float:
        if not sorted_latencies:
            return 0.0
        index = min(
            len(sorted_latencies) - 1,
            max(0, round(fraction * (len(sorted_latencies) - 1))),
        )
        return sorted_latencies[index]

    def reset(self) -> None:
        with self._lock:
            self.queries = 0
            self.cache_hits = 0
            self.cache_misses = 0
            self.bounded_answers = 0
            self.fallback_answers = 0
            self.tuples_fetched = 0
            self.tuples_scanned = 0
            self.view_tuples_scanned = 0
            self.planner_uses = {}
            self.tier_uses = {}
            self.plan_store_hits = 0
            self.resolve_hits = 0
            self.resolve_misses = 0
            self._recent = deque(maxlen=self._max_latencies)
