#!/usr/bin/env python3
"""Commit the perf trajectory: measured numbers live in the repo, CI gates on them.

Three workloads are measured and their results written as ``BENCH_*.json``
at the repository root — *committed* files, so every PR that moves a number
moves it visibly in the diff:

``BENCH_graph_search.json``
    Bounded Q0 through the service on both execution tiers (interpreted
    operator tree vs. compiled closure), with the rows/``Dξ`` identity that
    makes the comparison meaningful.

``BENCH_service.json``
    Repeated-query throughput of a warmed service (12-query mix, pure plan
    cache hits, all answered by the compiled tier).

``BENCH_updates.json``
    Update throughput of ``QueryService.apply`` over mixed insert/delete
    batches, with a full view-consistency audit afterwards.

``BENCH_concurrency.json``
    Snapshot-isolated sharded serving (``shards=4``) vs. the
    single-partition baseline on a mixed read/write workload: the invariants pin rows, ``Dξ``, Q0's
    routed shard set and the shard-pruning statistics; the timings record
    ``query_many`` throughput under interleaved writes for both services
    and their speedup.

``BENCH_optimizer.json``
    Cost-based optimizer v2 on the skewed social-feed workload: the
    invariants pin rows and per-planner ``Dξ`` (greedy vs. DP ordering),
    the DP strategy, the adaptive re-plan tally of the growth scenario and
    the plan-store warm-restart behaviour (first post-restart execution on
    the compiled tier); the timings record warm per-query latency for both
    planners and the DP speedup.

Two modes::

    python tools/bench_trajectory.py            # measure, write the JSONs
    python tools/bench_trajectory.py --check    # re-measure, gate vs. committed

``--check`` (the CI gate) distinguishes two kinds of numbers:

* **Invariants** — row counts, ``Dξ`` (``tuples_fetched``), execution-tier
  tallies, cache hit rate, applied-update counts, view consistency.  These
  are machine-independent and must match the committed file **exactly**.
* **Timings** — throughput and latency depend on the machine, so the gate
  is deliberately loose: it fails only on catastrophic regressions (a tier
  speedup collapsing below its floor, or throughput falling to less than
  ``TIMING_TOLERANCE`` of the committed number), not on runner noise.
  Fresh timings are recorded by re-running without ``--check`` and
  committing the updated files.

Standard library only (plus ``repro`` itself) — no pytest, no plugins.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.algebra.evaluation import evaluate_ucq  # noqa: E402
from repro.engine.service import QueryService  # noqa: E402
from repro.storage.updates import (  # noqa: E402
    Insertion,
    UpdateBatch,
    random_update_batch,
)
from repro.workloads import graph_search as gs  # noqa: E402
from repro.workloads import skewed  # noqa: E402

#: Committed-vs-measured throughput may differ by machine; only a collapse
#: below this fraction of the committed number fails the gate.
TIMING_TOLERANCE = 0.1

#: The compiled tier must stay at least this much faster than interpreted
#: on bounded Q0, regardless of what the committed file says.
SPEEDUP_FLOOR = 1.5

#: DP join ordering must stay at least this much faster than the greedy
#: builder on the skewed workload (the optimizer-v2 acceptance bar).
OPTIMIZER_SPEEDUP_FLOOR = 2.0

FILES = {
    "graph_search": ROOT / "BENCH_graph_search.json",
    "service": ROOT / "BENCH_service.json",
    "updates": ROOT / "BENCH_updates.json",
    "concurrency": ROOT / "BENCH_concurrency.json",
    "optimizer": ROOT / "BENCH_optimizer.json",
}

INSTANCE = {"num_persons": 1000, "num_movies": 500, "seed": 11}


def _service(instance, **kwargs) -> QueryService:
    return QueryService(
        instance.database, gs.access_schema(n0=instance.n0), gs.views(), **kwargs
    )


def _median_us(run: Callable[[], object], rounds: int, warmup: int = 10) -> float:
    for _ in range(warmup):
        run()
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def _query_mix() -> list:
    by_studio = "Q(mid) :- movie(mid, t, 'Universal', '2014'), rating(mid, 5)"
    by_year = "Q(mid) :- movie(mid, t, 'Universal', '2013'), rating(mid, 4)"
    return [gs.query_q0(), by_studio, by_year] * 4


def measure_graph_search() -> dict:
    instance = gs.generate(**INSTANCE)
    interpreted = _service(instance, codegen=False)
    compiled = _service(instance, codegen=True, codegen_warmup=0)
    q0 = gs.query_q0()
    answer_i = interpreted.query(q0)
    answer_c = compiled.query(q0)
    if answer_i.rows != answer_c.rows:
        raise AssertionError("tiers disagree on Q0 rows")
    if answer_i.tuples_fetched != answer_c.tuples_fetched:
        raise AssertionError("tiers disagree on Dξ for Q0")
    interpreted_us = _median_us(lambda: interpreted.query(q0), rounds=150)
    compiled_us = _median_us(lambda: compiled.query(q0), rounds=150)
    return {
        "workload": "graph_search_q0_tiers",
        "instance": INSTANCE,
        "invariants": {
            "rows": len(answer_c.rows),
            "tuples_fetched": answer_c.tuples_fetched,
            "interpreted_tier": answer_i.execution_tier,
            "compiled_tier": answer_c.execution_tier,
        },
        "timings": {
            "interpreted_us": round(interpreted_us, 1),
            "compiled_us": round(compiled_us, 1),
            "speedup": round(interpreted_us / compiled_us, 2),
        },
        "floors": {"min_speedup": SPEEDUP_FLOOR},
    }


def measure_service() -> dict:
    instance = gs.generate(**INSTANCE)
    service = _service(instance, codegen=True, codegen_warmup=0)
    mix = _query_mix()
    rounds = 20
    warm = service.query_many(mix, max_workers=1)
    service.stats.reset()
    start = time.perf_counter()
    for _ in range(rounds):
        answers = service.query_many(mix, max_workers=1)
    elapsed = time.perf_counter() - start
    if [a.rows for a in answers] != [a.rows for a in warm]:
        raise AssertionError("warmed service answers drifted across rounds")
    snapshot = service.stats.snapshot()
    return {
        "workload": "service_throughput",
        "instance": INSTANCE,
        "invariants": {
            "queries_per_round": len(mix),
            "rows_total_per_round": sum(len(a.rows) for a in answers),
            "cache_hit_rate": round(snapshot.cache_hit_rate, 3),
            "bounded_rate": round(snapshot.bounded_rate, 3),
            "tier_uses": dict(sorted(snapshot.tier_uses.items())),
        },
        "timings": {
            "queries_per_sec": round(len(mix) * rounds / elapsed, 1),
        },
    }


def measure_updates() -> dict:
    instance = gs.generate(**INSTANCE)
    service = _service(instance, codegen=True, codegen_warmup=0)
    service.query(gs.query_q0())  # a live cached plan to maintain through writes
    batch_size, batches = 1000, 5
    applied = inserted = deleted = 0
    elapsed = 0.0
    tier_runs: dict[str, int] = {}
    for index in range(batches):
        batch = random_update_batch(
            instance.database, size=batch_size, seed=100 + index
        )
        start = time.perf_counter()
        report = service.apply(batch)
        elapsed += time.perf_counter() - start
        applied += report.applied
        inserted += report.inserted
        deleted += report.deleted
        for tier, count in report.stats.tier_runs.items():
            tier_runs[tier] = tier_runs.get(tier, 0) + count
    recomputed = {
        view.name: frozenset(evaluate_ucq(view.as_ucq(), instance.database))
        for view in gs.views()
    }
    consistent = all(
        frozenset(service.view_cache[name]) == rows
        for name, rows in recomputed.items()
    )
    return {
        "workload": "update_throughput",
        "instance": INSTANCE,
        "invariants": {
            "batch_size": batch_size,
            "batches": batches,
            "applied": applied,
            "inserted": inserted,
            "deleted": deleted,
            "views_consistent_after": consistent,
            # Every touched view must keep running on the compiled
            # maintenance tier (warmup=0): a fall-back to interpreted rules
            # shows up here and fails --check.
            "maintenance_tiers": dict(sorted(tier_runs.items())),
        },
        "timings": {
            "updates_per_sec": round(batch_size * batches / elapsed, 1),
        },
    }


def measure_concurrency() -> dict:
    instance = gs.generate(**INSTANCE)
    mix = _query_mix()
    rounds = 5

    # Deterministic phase: the sharded service must agree with the baseline
    # bit for bit, and Q0 must route to exactly one of the four partitions.
    baseline = _service(instance, shards=1, codegen=True, codegen_warmup=0)
    sharded = QueryService(
        instance.database.copy(),
        gs.access_schema(n0=instance.n0),
        gs.views(),
        shards=4,
        codegen=True,
        codegen_warmup=0,
    )
    expected = [baseline.query(q) for q in mix]
    answers = [sharded.query(q) for q in mix]
    if [a.rows for a in answers] != [a.rows for a in expected]:
        raise AssertionError("sharded service disagrees with baseline on rows")
    if [a.tuples_fetched for a in answers] != [a.tuples_fetched for a in expected]:
        raise AssertionError("sharded service disagrees with baseline on Dξ")
    q0_explained = sharded.explain(gs.query_q0())
    q0_answer = sharded.query(gs.query_q0())
    stats = sharded.stats.snapshot()

    # Timing phase: interleaved write batches and query_many bursts.  The
    # writes are state-neutral per round (a batch and its inverse).
    updates = []
    for i in range(6):
        updates.append(Insertion("movie", (f"m_cc_{i}", f"cc{i}", "Universal", "2014")))
        updates.append(Insertion("rating", (f"m_cc_{i}", 5)))
    batch = UpdateBatch(updates)
    inverse = batch.inverted()

    def throughput(service: QueryService) -> float:
        service.apply(batch)  # warm the delta kernels
        service.apply(inverse)
        service.query_many(mix, max_workers=4)
        start = time.perf_counter()
        for _ in range(rounds):
            service.apply(batch)
            service.query_many(mix, max_workers=4)
            service.apply(inverse)
            service.query_many(mix, max_workers=4)
        elapsed = time.perf_counter() - start
        return 2 * len(mix) * rounds / elapsed

    sharded_qps = throughput(sharded)
    baseline_qps = throughput(baseline)
    return {
        "workload": "concurrent_sharded_serving",
        "instance": INSTANCE,
        "invariants": {
            "queries_per_round": 2 * len(mix),
            "rows_total_per_mix": sum(len(a.rows) for a in answers),
            "tuples_fetched_per_mix": sum(a.tuples_fetched for a in answers),
            "q0_single_shard_routable": q0_explained.shard_set.single_shard,
            "q0_shards_touched": list(q0_answer.shards_touched),
            "shards_total": q0_answer.shards_total,
            "single_shard_queries": stats.single_shard_queries,
            "fanout_queries": stats.fanout_queries,
            "shards_pruned": stats.shards_pruned,
        },
        "timings": {
            "sharded_queries_per_sec": round(sharded_qps, 1),
            "baseline_queries_per_sec": round(baseline_qps, 1),
            "speedup": round(sharded_qps / baseline_qps, 2),
        },
    }


def _measure_replan_scenario() -> int:
    """The deterministic adaptive re-planning scenario: grow past 10x.

    A two-atom join is planned under tiny statistics; the data then grows
    200x (the mis-estimated plan stays cached: writes evict nothing), and
    the next warm execution's actual Dξ overshoots the
    estimate past the re-plan threshold.  Returns the replan tally (1: the
    corrected model converges in a single swap).
    """
    from repro.algebra.schema import schema_from_spec
    from repro.core.access import AccessConstraint, AccessSchema
    from repro.storage.instance import Database

    schema = schema_from_spec({"r": ("a", "b"), "s": ("b", "c")})
    access = AccessSchema(
        (
            AccessConstraint("r", ("a",), ("b",), 5000),
            AccessConstraint("s", ("b",), ("c",), 5000),
        )
    )
    database = Database(schema)
    database.add_many("r", [("k", f"b{i}") for i in range(10)])
    database.add_many("s", [(f"b{i}", f"c{i}") for i in range(10)])
    service = QueryService(
        database,
        access,
        planners=("cost", "topped"),
        codegen=False,
    )
    query = "Q(b, c) :- r('k', b), s(b, c)"
    before = service.query(query)
    service.apply(UpdateBatch([Insertion("r", ("k", f"B{i}")) for i in range(2000)]))
    service.apply(UpdateBatch([Insertion("s", (f"B{i}", f"C{i}")) for i in range(2000)]))
    replanned = service.query(query)
    settled = service.query(query)
    if before.rows - replanned.rows or replanned.rows != settled.rows:
        raise AssertionError("adaptive re-planning changed the answers")
    replans = service.stats.snapshot().replans
    service.close()
    return replans


def measure_optimizer() -> dict:
    import tempfile

    instance = skewed.generate()
    access = skewed.access_schema()
    query = skewed.query_feed()

    def planner_service(planners, **kwargs) -> QueryService:
        return QueryService(
            instance.database, access, skewed.views(), planners=planners, **kwargs
        )

    greedy = planner_service(("heuristic", "topped"), codegen=True, codegen_warmup=0)
    cost = planner_service(("cost", "topped"), codegen=True, codegen_warmup=0)
    greedy_answer = greedy.query(query)
    cost_answer = cost.query(query)
    if greedy_answer.rows != cost_answer.rows:
        raise AssertionError("greedy and DP orderings disagree on rows")
    strategy = cost.explain(query).order_strategy
    greedy_us = _median_us(lambda: greedy.query(query), rounds=30, warmup=3)
    cost_us = _median_us(lambda: cost.query(query), rounds=30, warmup=3)
    greedy.close()
    cost.close()

    replans = _measure_replan_scenario()

    # Warm restart through the persistent plan store: the first execution
    # of the restarted service must already run the compiled closure.
    with tempfile.TemporaryDirectory() as tmp:
        store_path = str(Path(tmp) / "plans.bin")
        first = planner_service(
            ("cost", "topped"), plan_store=store_path, codegen_warmup=0
        )
        first.query(query)
        first.close()
        restarted = planner_service(
            ("cost", "topped"), plan_store=store_path, codegen_warmup=0
        )
        restart_answer = restarted.query(query)
        store_hits = restarted.stats.snapshot().plan_store_hits
        restarted.close()
    if restart_answer.rows != cost_answer.rows:
        raise AssertionError("plan-store restart changed the answers")

    return {
        "workload": "optimizer_dp_vs_greedy",
        "instance": {"workload": "skewed", "seed": 11},
        "invariants": {
            "rows": len(cost_answer.rows),
            "greedy_tuples_fetched": greedy_answer.tuples_fetched,
            "dp_tuples_fetched": cost_answer.tuples_fetched,
            "order_strategy": strategy,
            "replans": replans,
            "plan_store_hits": store_hits,
            "restart_tier": restart_answer.execution_tier,
            "restart_cache_hit": restart_answer.cache_hit,
        },
        "timings": {
            "greedy_us": round(greedy_us, 1),
            "dp_us": round(cost_us, 1),
            "speedup": round(greedy_us / cost_us, 2),
        },
        "floors": {"min_speedup": OPTIMIZER_SPEEDUP_FLOOR},
    }


MEASURES: dict[str, Callable[[], dict]] = {
    "graph_search": measure_graph_search,
    "service": measure_service,
    "updates": measure_updates,
    "concurrency": measure_concurrency,
    "optimizer": measure_optimizer,
}


def _check_one(name: str, committed: dict, measured: dict) -> list[str]:
    problems = []
    if committed.get("invariants") != measured["invariants"]:
        problems.append(
            f"{name}: invariants drifted\n"
            f"  committed: {json.dumps(committed.get('invariants'), sort_keys=True)}\n"
            f"  measured:  {json.dumps(measured['invariants'], sort_keys=True)}"
        )
    if name == "graph_search":
        committed_speedup = committed.get("timings", {}).get("speedup", 0.0)
        floor = max(SPEEDUP_FLOOR, committed_speedup * 0.3)
        measured_speedup = measured["timings"]["speedup"]
        if measured_speedup < floor:
            problems.append(
                f"{name}: compiled-tier speedup collapsed to "
                f"{measured_speedup}x (gate {floor:.2f}x, committed "
                f"{committed_speedup}x)"
            )
    elif name == "optimizer":
        committed_speedup = committed.get("timings", {}).get("speedup", 0.0)
        floor = max(OPTIMIZER_SPEEDUP_FLOOR, committed_speedup * 0.3)
        measured_speedup = measured["timings"]["speedup"]
        if measured_speedup < floor:
            problems.append(
                f"{name}: DP-vs-greedy speedup collapsed to "
                f"{measured_speedup}x (gate {floor:.2f}x, committed "
                f"{committed_speedup}x)"
            )
    else:
        key = {
            "service": "queries_per_sec",
            "updates": "updates_per_sec",
            "concurrency": "sharded_queries_per_sec",
        }[name]
        committed_rate = committed.get("timings", {}).get(key, 0.0)
        measured_rate = measured["timings"][key]
        if measured_rate < committed_rate * TIMING_TOLERANCE:
            problems.append(
                f"{name}: {key} collapsed to {measured_rate} "
                f"(committed {committed_rate}, gate "
                f"{committed_rate * TIMING_TOLERANCE:.1f})"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-measure and gate against the committed BENCH_*.json "
        "(exact on invariants, catastrophic-only on timings)",
    )
    options = parser.parse_args(argv)

    problems: list[str] = []
    for name, measure in MEASURES.items():
        path = FILES[name]
        measured = measure()
        if options.check:
            if not path.exists():
                problems.append(f"{name}: committed file {path.name} is missing")
                continue
            committed = json.loads(path.read_text(encoding="utf-8"))
            issues = _check_one(name, committed, measured)
            problems.extend(issues)
            status = "ok" if not issues else "FAIL"
            print(
                f"{path.name}: {status} "
                f"(measured {json.dumps(measured['timings'], sort_keys=True)})"
            )
        else:
            path.write_text(
                json.dumps(measured, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"wrote {path.name}: {json.dumps(measured['timings'], sort_keys=True)}")

    if problems:
        print()
        for problem in problems:
            print(problem)
        print(f"{len(problems)} trajectory regression(s)")
        return 1
    if options.check:
        print("perf trajectory ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
