"""E10 — update throughput of the first-class write path (tuples/sec).

Mixed insert/delete batches stream through ``QueryService.apply`` — the
compiled-delta maintenance kernel (one delta plan per view body atom, counting
multisets where sound, DRed fallback otherwise, all riding one netted
:class:`~repro.storage.deltas.DeltaStream` per batch) — and are contrasted
with the two alternatives it replaced:

* the **per-tuple DRed** path (re-derive an anchored delta query through the
  generic CQ evaluator for every single update — the algorithm the compiled
  kernel replaced, re-implemented below as the baseline);
* **full recomputation** of every view after the batch (what a cache without
  maintenance has to do before serving the next query).

Measured on the graph-search and CDR workloads; ``extra_info`` records
updates/sec and the speedup of the compiled path, which the acceptance
criterion pins at ≥ 3x over per-tuple DRed on 1000-update graph-search
batches.  Run as any other benchmark module (same pytest-benchmark JSON shape
as ``bench_service_throughput.py``).
"""

from __future__ import annotations

import os

import pytest

from repro.algebra.atoms import EqualityAtom
from repro.algebra.evaluation import evaluate_cq, evaluate_ucq
from repro.algebra.terms import Constant
from repro.engine.service import QueryService, ViewMaintainer
from repro.storage.updates import Insertion, random_update_batch
from repro.workloads import cdr, graph_search as gs

#: Mean seconds per batch, shared across tests for the speedup accounting.
_TIMINGS: dict[str, float] = {}

GS_BATCH = 1_000
CDR_BATCH = 400


# --------------------------------------------------------------------------- #
# The pre-refactor baseline: one anchored delta query per tuple, per view atom
# --------------------------------------------------------------------------- #


def _bind_atom_to_tuple(disjunct, atom_index, row):
    atom = disjunct.atoms[atom_index]
    if len(atom.terms) != len(row):
        return None
    equalities = []
    for term, value in zip(atom.terms, row):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            equalities.append(EqualityAtom(term, Constant(value)))
    return disjunct.with_extra_equalities(equalities, name=f"{disjunct.name}_delta")


def _bind_head_to_row(disjunct, row):
    if len(disjunct.head) != len(row):
        return None
    equalities = []
    for term, value in zip(disjunct.head, row):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            equalities.append(EqualityAtom(term, Constant(value)))
    return disjunct.with_extra_equalities(equalities, name=f"{disjunct.name}_support")


class PerTupleDRedCache:
    """The historical per-tuple maintenance algorithm, kept for comparison.

    Every update re-derives a specialised delta CQ through the generic
    evaluator (per view, per matching body atom); deletions additionally
    head-match the cached rows and re-derive survivors.  This is what view
    maintenance did before the compiled-delta kernel replaced it.
    """

    def __init__(self, views, database):
        self.database = database
        self.views = list(views)
        self._definitions = {
            view.name: tuple(d.normalize() for d in view.as_ucq().disjuncts)
            for view in self.views
        }
        self._rows = {
            view.name: set(evaluate_ucq(view.as_ucq(), database))
            for view in self.views
        }

    def apply_batch(self, batch) -> None:
        for update in batch:
            relation = self.database.relation(update.relation)
            if isinstance(update, Insertion):
                if update.row in relation:
                    continue
                relation.add(update.row)
                self._apply_insertion(update)
            else:
                if not relation.discard(update.row):
                    continue
                self._apply_deletion(update)

    def _apply_insertion(self, update) -> None:
        for view in self.views:
            current = self._rows[view.name]
            for disjunct in self._definitions[view.name]:
                for index, atom in enumerate(disjunct.atoms):
                    if atom.relation != update.relation:
                        continue
                    specialized = _bind_atom_to_tuple(disjunct, index, update.row)
                    if specialized is None:
                        continue
                    current.update(evaluate_cq(specialized, self.database))

    def _apply_deletion(self, update) -> None:
        for view in self.views:
            current = self._rows[view.name]
            affected = set()
            for disjunct in self._definitions[view.name]:
                for index, atom in enumerate(disjunct.atoms):
                    if atom.relation != update.relation:
                        continue
                    specialized = _bind_atom_to_tuple(disjunct, index, update.row)
                    if specialized is None or not specialized.is_satisfiable():
                        continue
                    head = specialized.normalize().head
                    for row in current:
                        if all(
                            not isinstance(t, Constant) or t.value == v
                            for t, v in zip(head, row)
                        ):
                            affected.add(row)
            removed = set()
            for row in affected:
                if not self._has_support(view.name, row):
                    removed.add(row)
            current.difference_update(removed)

    def _has_support(self, view_name, row) -> bool:
        for disjunct in self._definitions[view_name]:
            support = _bind_head_to_row(disjunct, row)
            if support is not None and evaluate_cq(support, self.database):
                return True
        return False

    def verify(self) -> bool:
        return all(
            frozenset(self._rows[view.name])
            == frozenset(evaluate_ucq(view.as_ucq(), self.database))
            for view in self.views
        )


# --------------------------------------------------------------------------- #
# Graph search: compiled deltas vs per-tuple DRed vs full recomputation
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def gs_write_setup(gs_small):
    database = gs_small.database.copy()
    batch = random_update_batch(
        database, size=GS_BATCH, seed=83, access_schema=gs.access_schema()
    )
    return database, batch


def test_gs_compiled_delta_batch(benchmark, gs_write_setup):
    database, batch = gs_write_setup
    working = database.copy()
    service = QueryService(working, gs.access_schema(), gs.views())
    inverse = batch.inverted()
    service.apply(batch)  # warm-up: compiles the delta programs once
    service.apply(inverse)

    def run():
        report = service.apply(batch)
        service.apply(inverse)  # restore, so every round sees the same state
        return report

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    mean = benchmark.stats.stats.mean
    _TIMINGS["gs_compiled"] = mean
    benchmark.extra_info["updates_per_batch"] = len(batch)
    benchmark.extra_info["updates_per_second"] = round(2 * len(batch) / mean)
    benchmark.extra_info["delta_queries"] = report.stats.delta_queries
    benchmark.extra_info["support_checks"] = report.stats.support_checks
    benchmark.extra_info["maintenance_tiers"] = dict(report.stats.tier_runs)
    assert service.maintainer.verify()


def test_gs_per_tuple_dred_baseline(benchmark, gs_write_setup):
    database, batch = gs_write_setup
    working = database.copy()
    cache = PerTupleDRedCache(gs.views(), working)
    inverse = batch.inverted()

    def run():
        cache.apply_batch(batch)
        cache.apply_batch(inverse)

    benchmark.pedantic(run, rounds=1, iterations=1)
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["updates_per_batch"] = len(batch)
    benchmark.extra_info["updates_per_second"] = round(2 * len(batch) / mean)
    assert cache.verify()
    compiled = _TIMINGS.get("gs_compiled")
    if compiled:
        speedup = mean / compiled
        benchmark.extra_info["compiled_delta_speedup"] = round(speedup, 1)
        # The acceptance bar for the write-path refactor (locally ~7-8x).
        # One-round pedantic timings on loaded shared CI runners are noisy,
        # so smoke runs (BENCH_SMOKE=1) record the speedup without failing.
        if os.environ.get("BENCH_SMOKE") != "1":
            assert speedup >= 3.0, f"compiled delta path only {speedup:.1f}x faster"


def test_gs_maintenance_tier_speedup(benchmark, gs_write_setup):
    """Generated kernels vs interpreted delta rules, maintenance time only.

    Whole-batch ``service.apply`` timings dilute the comparison — the storage
    apply dominates — so both maintainers observe the *same* committed
    streams and only their ``apply_stream`` calls are timed.  The compiled
    tier must be ≥ 2x faster on the 1000-update graph-search batches.
    """
    import time as _time

    database, batch = gs_write_setup
    working = database.copy()
    interpreted = ViewMaintainer(gs.views(), working, codegen=False)
    compiled = ViewMaintainer(gs.views(), working, codegen=True, codegen_warmup=0)
    inverse = batch.inverted()
    timings = {"interpreted": 0.0, "compiled": 0.0}

    def round_trip() -> None:
        for updates in (batch, inverse):
            stream = working.apply(updates)
            for name, maintainer in (
                ("interpreted", interpreted),
                ("compiled", compiled),
            ):
                start = _time.perf_counter()
                maintainer.apply_stream(stream)
                timings[name] += _time.perf_counter() - start

    round_trip()  # warm-up: compiles the kernels (warmup=0) outside the timing
    timings["interpreted"] = timings["compiled"] = 0.0

    benchmark.pedantic(round_trip, rounds=5, iterations=1)
    assert interpreted.verify() and compiled.verify()
    for view in gs.views():
        assert compiled.explain(view.name).tier == "compiled"
        assert compiled.rows(view.name) == interpreted.rows(view.name)
    speedup = timings["interpreted"] / timings["compiled"]
    per_round_updates = 2 * len(batch)
    benchmark.extra_info["updates_per_batch"] = len(batch)
    benchmark.extra_info["interpreted_updates_per_second"] = round(
        5 * per_round_updates / timings["interpreted"]
    )
    benchmark.extra_info["compiled_updates_per_second"] = round(
        5 * per_round_updates / timings["compiled"]
    )
    benchmark.extra_info["maintenance_tier_speedup"] = round(speedup, 1)
    # Smoke runs on loaded CI runners record the speedup without failing.
    if os.environ.get("BENCH_SMOKE") != "1":
        assert speedup >= 2.0, f"compiled maintenance only {speedup:.1f}x faster"


def test_gs_full_recompute_baseline(benchmark, gs_write_setup):
    database, batch = gs_write_setup
    working = database.copy()
    # Deliberately NOT subscribed: this baseline pays no incremental cost,
    # only the apply plus a from-scratch re-evaluation of every view.
    maintainer = ViewMaintainer(gs.views(), working)
    inverse = batch.inverted()

    def run():
        # A cache without maintenance: apply the data change, then recompute
        # every view before the next query can be served.
        working.apply(batch.updates)
        maintainer.recompute()
        working.apply(inverse.updates)
        maintainer.recompute()

    benchmark.pedantic(run, rounds=1, iterations=1)
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["updates_per_second"] = round(2 * len(batch) / mean)
    benchmark.extra_info["database_tuples"] = working.size


# --------------------------------------------------------------------------- #
# CDR: compiled deltas on the key/cap-constrained workload
# --------------------------------------------------------------------------- #


def test_cdr_compiled_delta_batch(benchmark, cdr_instance):
    working = cdr_instance.database.copy()
    service = QueryService(working, cdr.access_schema(), cdr.views())
    batch = random_update_batch(
        working, size=CDR_BATCH, seed=89, access_schema=cdr.access_schema()
    )
    inverse = batch.inverted()
    service.apply(batch)
    service.apply(inverse)

    def run():
        report = service.apply(batch)
        service.apply(inverse)
        return report

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["updates_per_batch"] = len(batch)
    benchmark.extra_info["updates_per_second"] = round(2 * len(batch) / mean)
    benchmark.extra_info["view_modes"] = dict(service.maintainer.modes)
    benchmark.extra_info["delta_queries"] = report.stats.delta_queries
    benchmark.extra_info["maintenance_tiers"] = dict(report.stats.tier_runs)
    assert service.maintainer.verify()


def test_cdr_full_recompute_baseline(benchmark, cdr_instance):
    working = cdr_instance.database.copy()
    maintainer = ViewMaintainer(cdr.views(), working)  # not subscribed
    batch = random_update_batch(
        working, size=CDR_BATCH, seed=89, access_schema=cdr.access_schema()
    )
    inverse = batch.inverted()

    def run():
        working.apply(batch.updates)
        maintainer.recompute()
        working.apply(inverse.updates)
        maintainer.recompute()

    benchmark.pedantic(run, rounds=1, iterations=1)
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["updates_per_second"] = round(2 * len(batch) / mean)
