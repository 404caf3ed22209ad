"""Measure one workload: set-up, timed rounds, correctness, metrics.

One process, one client thread, closed loop: the next operation is sent when
the previous one returned.  A run is

1. input generation and the naive oracle (untimed);
2. set-up, several times: ``QueryService(...)`` with default arguments on a
   fresh copy of the database, plus the warm-up; ``setup_s`` is the median;
3. identical timed rounds of the workload's fixed operation sequence until
   ``seconds`` have passed.  Rates and CPU are medians over rounds, latency
   percentiles are medians over rounds of each round's percentile;
4. with ``trace``, the same rounds again through the staged pipeline of
   :mod:`staged`, for the per-layer metrics.

Every answer is checked against the oracle, and every round against the
first one (rows, ``Dξ``, scanned tuples, applied updates must repeat).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.service import QueryService

import staged
import workloads
from workloads import BULK, QUERY, SMALL

#: Exact per-round counts recorded for the reference seeds (``--record``).
EXPECTED = Path(__file__).with_name("expected.json")
#: Of those, the counts no correct engine may change: they follow from the
#: generated inputs and the query semantics alone.  ``Dξ``, scanned tuples and
#: the bounded count depend on the plans chosen, so they are metrics.
ENFORCED_COUNTS = ("reads", "rows", "applied", "skipped")
MIN_ROUNDS = 3
SETUPS = 3
#: A traced run ends early once it holds this many spans: they stay in memory.
MAX_SPANS = 200_000
#: Warm-up repeats the distinct queries until this many passes in a row look
#: alike (same cache outcome, tier and plan per query): plans have then been
#: re-planned and compiled as far as they will be.
STABLE_PASSES = 3
MAX_WARMUP_PASSES = 16


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def median_iqr(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return statistics.median(values), third - first


def warm_up(target, inputs: workloads.Inputs) -> None:
    """Bring ``target`` (a service or the staged pipeline) to steady state."""
    for batch in inputs.warmup_writes:
        target.apply(batch)
    history: list[list[tuple]] = []
    for _ in range(MAX_WARMUP_PASSES):
        answers = [target.query(text) for text in inputs.warmup_queries]
        history.append([(a.cache_hit, a.execution_tier, id(a.plan)) for a in answers])
        recent = history[-STABLE_PASSES:]
        if len(recent) == STABLE_PASSES and all(p == recent[0] for p in recent):
            return


def construct(inputs: workloads.Inputs) -> tuple[QueryService, float]:
    """A default-argument service on a fresh copy, warmed up; and the time."""
    database = inputs.database.copy()
    gc.collect()
    started = time.perf_counter()
    service = QueryService(database, inputs.access_schema, inputs.views)
    warm_up(service, inputs)
    return service, time.perf_counter() - started


@dataclass
class Round:
    wall: float
    cpu: float
    latencies: list[float]
    outcomes: list[object]


def run_round(target, ops: list[tuple[str, object]]) -> Round:
    latencies: list[float] = []
    outcomes: list[object] = []
    query, apply = target.query, target.apply
    cpu_started = time.process_time()
    wall_started = time.perf_counter()
    for kind, payload in ops:
        started = time.perf_counter()
        try:
            outcome = query(payload) if kind == QUERY else apply(payload)
        except Exception as error:  # a failed operation is counted, the run goes on
            outcome = error
        latencies.append(time.perf_counter() - started)
        outcomes.append(outcome)
    wall = time.perf_counter() - wall_started
    return Round(wall, time.process_time() - cpu_started, latencies, outcomes)


def signature(kind: str, outcome: object) -> tuple:
    """What must repeat exactly whenever this operation runs."""
    if isinstance(outcome, Exception):
        return ("raised", repr(outcome))
    if kind == QUERY:
        return (
            outcome.rows,
            outcome.tuples_fetched,
            outcome.tuples_scanned,
            outcome.used_bounded_plan,
        )
    return (outcome.applied, outcome.skipped_inadmissible)


@dataclass
class Checker:
    """Compares each operation with the oracle and with its first execution."""

    ops: list[tuple[str, object]]
    expected: list[workloads.Expected]
    recorded: list[tuple] | None = None
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, outcomes: list[object], who: str) -> None:
        signatures = [signature(kind, out) for (kind, _), out in zip(self.ops, outcomes)]
        if self.recorded is None:
            self.recorded = signatures
        for index, (sig, want) in enumerate(zip(signatures, self.expected)):
            self.attempted += 1
            if sig[0] == "raised":
                problem = sig[1]
            elif want.rows is not None and sig[0] != want.rows:
                problem = "rows differ from naive evaluation"
            elif want.applied is not None and sig != (want.applied, 0):
                problem = f"applied/skipped {sig}, expected ({want.applied}, 0)"
            elif sig != self.recorded[index]:
                problem = "rows, Dξ or scanned tuples differ from the first round"
            else:
                continue
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"{who} op {index} ({self.ops[index][0]}): {problem}")

    def check_counts(self, counts: dict[str, int], recorded: dict[str, int]) -> None:
        """A reference seed: the round's exact totals must be the recorded ones."""
        for key in ENFORCED_COUNTS:
            if counts[key] != recorded[key]:
                self.failed += 1
                self.notes.append(f"{key} per round is {counts[key]}, recorded {recorded[key]}")

    def check_state(self, database, view_cache, inputs, views) -> None:
        """After the last round: views equal recomputation, facts the initial ones."""
        if database.facts == inputs.database.facts and dict(view_cache) == views:
            return
        writes = sum(1 for kind, _ in self.ops if kind != QUERY)
        self.failed += max(1, writes)
        self.notes.append("final state: facts or maintained views drifted")


def totals(ops, outcomes) -> dict[str, int]:
    """Exact counts of one (successful) round."""
    reads = [out for (kind, _), out in zip(ops, outcomes) if kind == QUERY]
    writes = [out for (kind, _), out in zip(ops, outcomes) if kind != QUERY]
    return {
        "reads": len(reads),
        "rows": sum(len(a.rows) for a in reads),
        "tuples_fetched": sum(a.tuples_fetched for a in reads),
        "tuples_scanned": sum(a.tuples_scanned for a in reads),
        "bounded": sum(1 for a in reads if a.used_bounded_plan),
        "applied": sum(w.applied for w in writes),
        "skipped": sum(w.skipped_inadmissible for w in writes),
    }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    smoke: bool = False,
    corrupt: bool = False,
    out_dir: str,
) -> dict:
    """Run workload ``name``; returns the result (see ``run.py`` for its shape)."""
    workloads.check_templates()
    inputs = workloads.build(name, seed, smoke)
    expected, views = workloads.oracle(inputs)
    if corrupt:  # the smoke test's proof that a wrong answer is caught
        first = next(e for e in expected if e.rows is not None)
        first.rows = first.rows | {("corrupted",)}
    ops = inputs.round_ops
    checker = Checker(ops, expected)
    min_rounds = 1 if smoke else MIN_ROUNDS

    setups: list[float] = []
    service = None
    for _ in range(1 if smoke else SETUPS):
        if service is not None:
            service.close()
        service, elapsed = construct(inputs)
        setups.append(elapsed)

    # A traced run alternates untraced and staged rounds, so that a slow
    # stretch of the sandbox falls on both sides of every comparison.
    replay = StagedReplay(inputs, service, checker) if trace else None
    rounds: list[Round] = []
    started = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - started < seconds:
        for text in inputs.filler:
            service.query(text)
        current = run_round(service, ops)
        checker.check(current.outcomes, "service")
        rounds.append(current)
        if len(rounds) > 1:
            current.outcomes = []  # only the first round's are needed again
        if replay is not None:
            replay.run_round()
            if len(replay.pipeline.tracer.spans) >= MAX_SPANS:
                break
    checker.check_state(service.database, service.view_cache, inputs, views)

    failed_first = any(isinstance(o, Exception) for o in rounds[0].outcomes)
    counts = None if failed_first else totals(ops, rounds[0].outcomes)
    recorded = json.loads(EXPECTED.read_text()).get(str(seed), {}).get(name)
    if counts and recorded and not smoke:
        checker.check_counts(counts, recorded)
    is_read = [kind == QUERY for kind, _ in ops]
    reads = sum(is_read)
    details: dict = {
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "read_samples": reads * len(rounds),
        "counts": counts,
        "notes": checker.notes,
    }
    metrics, details["iqr"] = end_to_end_metrics(setups, rounds, reads, is_read, counts)
    service.close()
    if replay is not None:
        pipeline = replay.pipeline
        checker.check_state(pipeline.database, pipeline.view_cache, inputs, views)
        details["end_to_end"] = metrics
        metrics, traced = traced_metrics(replay, rounds, out_dir)
        details.update(traced)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
        "details": details,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(setups, rounds, reads, is_read, counts) -> tuple[dict, dict]:
    """The end-to-end metrics, and the IQR over rounds of the timed ones.

    Every timing is the median over rounds (set-ups) of a per-round figure.

    The sandbox slows down by 10-25% for half a minute at a time; a pooled
    percentile would be set by whichever rounds fell into such a period, the
    median of per-round percentiles is not as long as most rounds did not.
    """
    per_round = {
        "setup_s": setups,
        "queries_per_s": [reads / r.wall for r in rounds],
        "cpu_us_per_op": [r.cpu / len(r.latencies) * 1e6 for r in rounds],
        "query_p50_us": [],
        "query_p95_us": [],
    }
    for r in rounds:
        ordered = sorted(lat for lat, read in zip(r.latencies, is_read) if read)
        per_round["query_p50_us"].append(percentile(ordered, 0.50) * 1e6)
        per_round["query_p95_us"].append(percentile(ordered, 0.95) * 1e6)
    spread = {key: median_iqr(values) for key, values in per_round.items()}
    # No counts when an operation of the first round raised; the run has
    # failed then, and 0 keeps the result line valid JSON.
    fetched = counts["tuples_fetched"] / reads if counts else 0.0
    bounded = counts["bounded"] / reads if counts else 0.0
    metrics = {
        "setup_s": metric(spread["setup_s"][0], "s"),
        "queries_per_s": metric(spread["queries_per_s"][0], "1/s"),
        "query_p50_us": metric(spread["query_p50_us"][0], "us"),
        "query_p95_us": metric(spread["query_p95_us"][0], "us"),
        "cpu_us_per_op": metric(spread["cpu_us_per_op"][0], "us"),
        "tuples_fetched_per_query": metric(fetched, "count"),
        "bounded_share": metric(bounded, "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    return metrics, {key: iqr for key, (_, iqr) in spread.items()}


# --------------------------------------------------------------------------- #
# The traced pass
# --------------------------------------------------------------------------- #

#: Layer groups whose share of the staged time shows which workload loads what.
LAYER_GROUPS = {
    "planners": ("planners.heuristic", "planners.topped", "optimizer.estimate"),
    "exec+baseline": ("exec.compiled", "exec.interpreted", "baseline.scan"),
    "write_path": (
        "storage.apply", "snapshots.advance", "maintenance.apply", "cache.invalidate",
    ),
}


def ratio(top: float, bottom: float) -> float:
    """``top / bottom``; 0 where the workload has nothing to divide by."""
    return top / bottom if bottom else 0.0


def median_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def per_operation(table: list[list[float]]) -> list[float]:
    """Median over rounds, for each operation of the round."""
    return [statistics.median(column) for column in zip(*table)]


class StagedReplay:
    """The staged pipeline, warmed up, and the rounds replayed through it."""

    def __init__(self, inputs, service: QueryService, checker: Checker) -> None:
        self.inputs = inputs
        self.checker = checker
        self.pipeline = staged.StagedPipeline(
            inputs.database.copy(), service, staged.Tracer()
        )
        warm_up(self.pipeline, inputs)
        self.rounds: list[Round] = []
        self.ranges: list[tuple[int, int]] = []  # the spans of each staged round
        self.writes: list[staged.StagedWrite] = []
        self.hits = self.lookups = 0

    def run_round(self) -> None:
        pipeline, spans = self.pipeline, self.pipeline.tracer.spans
        cache_stats = pipeline.cache.stats
        for text in self.inputs.filler:
            pipeline.query(text)
        hits, misses = cache_stats.hits, cache_stats.misses
        first_span = len(spans)
        current = run_round(pipeline, self.inputs.round_ops)
        self.ranges.append((first_span, len(spans)))
        self.hits += cache_stats.hits - hits
        self.lookups += cache_stats.hits - hits + cache_stats.misses - misses
        # Every staged op must equal the real service's answer to the same op.
        self.checker.check(current.outcomes, "staged")
        self.writes.extend(
            out for out in current.outcomes if isinstance(out, staged.StagedWrite)
        )
        self.rounds.append(current)


def traced_metrics(replay: StagedReplay, rounds: list[Round], out_dir: str):
    """The per-layer metrics, from the spans of the staged rounds."""
    inputs, pipeline = replay.inputs, replay.pipeline
    traced, ranges, writes = replay.rounds, replay.ranges, replay.writes
    hits, lookups = replay.hits, replay.lookups
    ops = inputs.round_ops
    kinds = [kind for kind, _ in ops]
    tracer = pipeline.tracer

    spans = tracer.spans
    own = tracer.self_times()
    by_layer: dict[str, list[float]] = {}
    for (layer, *_), self_time in zip(spans, own):
        by_layer.setdefault(layer, []).append(self_time)

    # Inside the staged rounds, per operation: the whole staged time, the part
    # spent inside layers, and each write layer's time by transaction kind.
    whole_rounds: list[list[float]] = []
    layer_rounds: list[list[float]] = []
    layer_totals: dict[str, float] = {}
    write_costs: dict[tuple[str, str], list[float]] = {}
    for first, last in ranges:
        whole: list[float] = []
        inside: list[float] = []
        for index in range(first, last):
            layer, begin, end, _, _ = spans[index]
            layer_totals[layer] = layer_totals.get(layer, 0.0) + own[index]
            if layer == staged.REQUEST:
                whole.append(end - begin)
                inside.append(0.0)
                continue
            inside[-1] += own[index]
            kind, payload = ops[len(whole) - 1]
            if kind == SMALL:
                write_costs.setdefault((layer, SMALL), []).append(own[index])
            elif kind == BULK:
                write_costs.setdefault((layer, BULK), []).append(own[index] / len(payload))
        whole_rounds.append(whole)
        layer_rounds.append(inside)
    untraced = per_operation([r.latencies for r in rounds])
    staged_whole = per_operation(whole_rounds)
    staged_layers = per_operation(layer_rounds)

    def envelope(kind: str) -> tuple[float, float]:
        """What the service spends on ops of ``kind`` beyond the staged layers."""
        gaps = [u - l for u, l, k in zip(untraced, staged_layers, kinds) if k == kind]
        total = sum(u for u, k in zip(untraced, kinds) if k == kind)
        return median_us(gaps), ratio(sum(gaps), total)

    query_envelope_us, query_envelope_share = envelope(QUERY)
    apply_envelope_us, _ = envelope(SMALL)
    tier_runs: dict[str, int] = {}
    for write in writes:
        for tier, count in write.tier_runs.items():
            tier_runs[tier] = tier_runs.get(tier, 0) + count
    answers = [
        out for out, kind in zip(traced[-1].outcomes, kinds)
        if kind == QUERY and not isinstance(out, Exception)
    ]
    bounded = [a for a in answers if a.used_bounded_plan]
    scans = [a for a in answers if not a.used_bounded_plan]

    # Untraced write figures of the real service (mixed_rw only).
    small_pool = sorted(
        lat for r in rounds for lat, kind in zip(r.latencies, kinds) if kind == SMALL
    )
    bulk_updates = sum(len(payload) for kind, payload in ops if kind == BULK)
    bulk_rates = [
        bulk_updates / sum(lat for lat, kind in zip(r.latencies, kinds) if kind == BULK)
        for r in rounds
        if bulk_updates
    ]

    os.makedirs(out_dir, exist_ok=True)
    save_s, load_s = pipeline.plan_store_roundtrip(
        os.path.join(out_dir, f"plans-{inputs.name}.bin")
    )
    with open(os.path.join(out_dir, f"spans-{inputs.name}.json"), "w") as handle:
        json.dump(
            {
                "columns": ["name", "start", "end", "parent", "request"],
                "staged_rounds": ranges,
                "spans": spans,
            },
            handle,
        )

    def layer_us(layer: str) -> dict:
        return metric(median_us(by_layer.get(layer, [])), "us")

    def write_us(layer: str, kind: str) -> dict:
        return metric(median_us(write_costs.get((layer, kind), [])), "us")

    metrics = {
        "parser.parse_us": layer_us("parser.parse"),
        "cache.canonical_us": layer_us("cache.canonical"),
        "cache.lookup_us": layer_us("cache.lookup"),
        "cache.hit_share": metric(ratio(hits, lookups), "ratio"),
        "cache.evictions_per_write": metric(
            ratio(sum(w.evicted for w in writes), len(writes)), "count"
        ),
        "cache.invalidate_us": layer_us("cache.invalidate"),
        "planners.heuristic_us": layer_us("planners.heuristic"),
        "planners.topped_us": layer_us("planners.topped"),
        "planners.found_share": metric(
            ratio(pipeline.plans_found, pipeline.plan_attempts), "ratio"
        ),
        "optimizer.estimate_us": layer_us("optimizer.estimate"),
        "analysis.eligibility_us": layer_us("analysis.eligibility"),
        "codegen.compile_us": layer_us("codegen.compile"),
        "exec.compiled_us": layer_us("exec.compiled"),
        "exec.interpreted_us": layer_us("exec.interpreted"),
        "exec.compiled_share": metric(
            ratio(sum(a.execution_tier == "compiled" for a in bounded), len(bounded)),
            "ratio",
        ),
        "exec.fetched_per_row": metric(
            ratio(sum(a.tuples_fetched for a in bounded), sum(len(a.rows) for a in bounded)),
            "count",
        ),
        "baseline.scan_us": layer_us("baseline.scan"),
        "baseline.scanned_per_row": metric(
            ratio(sum(a.tuples_scanned for a in scans), sum(len(a.rows) for a in scans)),
            "count",
        ),
        "stats.record_us": layer_us("stats.record"),
        "service.envelope_us": metric(query_envelope_us, "us"),
        "service.envelope_share": metric(query_envelope_share, "ratio"),
        "service.tuples_scanned_per_query": metric(
            ratio(sum(a.tuples_scanned for a in answers), len(answers)), "count"
        ),
        "service.apply_p50_us": metric(
            percentile(small_pool, 0.50) * 1e6 if small_pool else 0.0, "us"
        ),
        "service.apply_p95_us": metric(
            percentile(small_pool, 0.95) * 1e6 if small_pool else 0.0, "us"
        ),
        "service.bulk_updates_per_s": metric(
            statistics.median(bulk_rates) if bulk_rates else 0.0, "1/s"
        ),
        "service.apply_envelope_us": metric(apply_envelope_us, "us"),
        "storage.apply_small_us": write_us("storage.apply", SMALL),
        "storage.apply_bulk_us_per_update": write_us("storage.apply", BULK),
        "snapshots.advance_small_us": write_us("snapshots.advance", SMALL),
        "snapshots.advance_bulk_us_per_update": write_us("snapshots.advance", BULK),
        "maintenance.apply_small_us": write_us("maintenance.apply", SMALL),
        "maintenance.apply_bulk_us_per_update": write_us("maintenance.apply", BULK),
        "maintenance.delta_queries_per_txn": metric(
            ratio(sum(w.delta_queries for w in writes), len(writes)), "count"
        ),
        "maintenance.compiled_share": metric(
            ratio(tier_runs.get("compiled", 0), sum(tier_runs.values())), "ratio"
        ),
        "setup.indexes_s": metric(pipeline.setup_seconds["indexes"], "s"),
        "setup.views_s": metric(pipeline.setup_seconds["views"], "s"),
        "setup.snapshots_s": metric(pipeline.setup_seconds["snapshots"], "s"),
        "plan_store.save_ms": metric(save_s * 1e3, "ms"),
        "plan_store.load_ms": metric(load_s * 1e3, "ms"),
        "trace.coverage_share": metric(sum(staged_whole) / sum(untraced), "ratio"),
        "trace.overhead_share": metric(
            statistics.median(r.wall for r in traced)
            / statistics.median(r.wall for r in rounds)
            - 1,
            "ratio",
        ),
    }
    staged_total = sum(layer_totals.values())
    details = {
        "traced_rounds": len(traced),
        "spans": len(spans),
        "layer_shares": {
            layer: total / staged_total for layer, total in sorted(layer_totals.items())
        },
        "group_shares": {
            group: sum(layer_totals.get(layer, 0.0) for layer in layers) / staged_total
            for group, layers in LAYER_GROUPS.items()
        },
    }
    return metrics, details
