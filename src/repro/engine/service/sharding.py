"""Shard routing and the persistent worker pool for concurrent serving.

Two small pieces the sharded :class:`~repro.engine.service.QueryService`
composes:

* :class:`ShardRouter` — wraps :func:`repro.analysis.plan_shard_set` with the
  service's access schema and layout, turning a plan's per-fetch boundedness
  certificates (PR 6) into a static shard-set prediction.  Single-shard
  routable plans are served without fan-out; the prediction is checked
  against the shards execution actually touched
  (:attr:`repro.exec.iometer.IOMeter.shards_touched`) by the differential
  tests.
* :class:`ShardExecutor` — one lazily created, persistent
  ``ThreadPoolExecutor`` per service (fixing the executor-per-call churn the
  old ``query_many`` had) plus shard-affinity dispatch: work items routed to
  the same single shard run serially inside one submitted task, preserving
  per-shard locality, while fan-out and dynamic items get individual tasks.

This module deliberately touches the storage layer only through
:mod:`repro.storage.snapshots` (the lint gate in ``tools/lint_kernel.py``
enforces it): shard workers read pinned snapshots, never live relations.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Mapping, Sequence, TypeVar

from ...analysis.sharding import PlanShardSet, ShardLayoutLike, plan_shard_set
from ...core.access import AccessSchema
from ...core.plans import PlanNode

T = TypeVar("T")


class ShardRouter:
    """Static shard-set prediction for plans under one sharding layout."""

    def __init__(self, access_schema: AccessSchema, layout: ShardLayoutLike) -> None:
        self.access_schema = access_schema
        self.layout = layout

    @property
    def shard_count(self) -> int:
        return self.layout.shard_count

    def route(
        self, plan: PlanNode, bindings: Mapping[str, object] | None = None
    ) -> PlanShardSet:
        """Derive which shards ``plan`` can touch, from its certificates;
        parameters named by ``bindings`` route by their bound value."""
        return plan_shard_set(plan, self.access_schema, self.layout, bindings)

    def affinity(
        self, plan: PlanNode, bindings: Mapping[str, object] | None = None
    ) -> int | None:
        """The single shard ``plan`` is routable to, or ``None``.

        ``None`` means the plan fans out (multiple static shards), has
        data-dependent keys, or touches only shard-neutral reference data —
        in each case there is no one shard to pin the work item to.
        """
        shard_set = self.route(plan, bindings)
        if not shard_set.single_shard:
            return None
        shards = shard_set.shards
        if not shards:
            return None
        (shard,) = shards
        return shard


class ShardExecutor:
    """A persistent thread pool with shard-affinity batch dispatch.

    The pool is created lazily on first use and reused for the lifetime of
    the owning service (``shutdown()`` is wired into ``QueryService.close``),
    so a ``query_many`` burst does not pay thread spawn/teardown per call.
    """

    def __init__(self, max_workers: int, thread_name_prefix: str = "repro-shard") -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._thread_name_prefix = thread_name_prefix
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------ #

    @property
    def started(self) -> bool:
        """Has the underlying thread pool been created yet?"""
        return self._pool is not None

    def pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=self._thread_name_prefix,
                )
            return self._pool

    def submit(self, fn: Callable[[], T]) -> Future:
        return self.pool().submit(fn)

    def map_with_affinity(
        self,
        tasks: Sequence[Callable[[], T]],
        affinities: Sequence[int | None],
    ) -> list[T]:
        """Run ``tasks`` on the pool, results in input order.

        ``affinities[i]`` is the single shard task ``i`` is routed to, or
        ``None``.  Tasks sharing a shard are chained serially inside one
        submitted job (their index probes hit the same partition's hot
        buckets back-to-back); ``None``-affinity tasks run as individual
        jobs.  Exceptions propagate to the caller exactly as with a plain
        ``pool.map``.
        """
        if len(tasks) != len(affinities):
            raise ValueError("tasks and affinities must have equal length")
        if not tasks:
            return []
        by_shard: dict[int, list[int]] = {}
        loose: list[int] = []
        for index, shard in enumerate(affinities):
            if shard is None:
                loose.append(index)
            else:
                by_shard.setdefault(shard, []).append(index)

        pool = self.pool()
        results: list[T] = [None] * len(tasks)  # type: ignore[list-item]

        def run_batch(indices: list[int]) -> None:
            for index in indices:
                results[index] = tasks[index]()

        futures = [pool.submit(run_batch, indices) for indices in by_shard.values()]
        futures.extend(pool.submit(run_batch, [index]) for index in loose)
        for future in futures:
            future.result()
        return results

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
