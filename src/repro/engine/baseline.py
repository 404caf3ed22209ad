"""Naive full-scan query evaluation — the baseline the paper compares against.

The paper's empirical claims ("plans for boundedly evaluable queries
outperform commercial query engines by 3 orders of magnitude, and the gap
gets larger on bigger data") are about *how much data a query touches*.  The
baseline engine here evaluates queries directly over the stored relations and
reports the number of tuples it had to scan: every atom of the query charges
a full scan of its relation, which is the (optimistic) cost model of an
engine without the access-constraint indices.  Comparing this count with the
``Dξ`` accounting of the bounded-plan executor reproduces the shape of the
paper's speed-ups without needing a commercial DBMS.

The engine reads one version of the data: the service's backend hands it
the :class:`~repro.storage.snapshots.DatabaseSnapshot` its read pinned, so a
full scan racing a writer sees the committed state a bounded plan of the
same read would fetch from (lint rule ``kernel.live-read`` keeps live
``Database`` row reads out of this module and the backend).  CQ/UCQ answers
run the fused loop-nest kernel of :mod:`repro.exec.cq_compiler`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..algebra.fo import FOQuery, evaluate_fo
from ..algebra.terms import Variable
from ..algebra.ucq import QueryLike, as_union
from ..exec.cq_compiler import CQKernel, FactsSource, compile_cq
from ..storage.statistics import RelationStatistics


@dataclass
class BaselineResult:
    """Answer of the naive engine plus its scan accounting."""

    rows: frozenset[tuple]
    tuples_scanned: int
    elapsed_seconds: float

    def __len__(self) -> int:
        return len(self.rows)


class NaiveEngine:
    """Evaluates CQ/UCQ (and, for small instances, FO) queries by full scans
    of one version of the data.

    ``source`` holds the rows: the service's backend hands in the
    :class:`~repro.storage.snapshots.DatabaseSnapshot` the read pinned (a
    ``Database`` or a fact mapping works too).  ``statistics`` (relation name
    -> statistics) steers the join order over a source that keeps none; it
    affects estimates only, never rows.
    """

    def __init__(
        self,
        source: object,
        statistics: Mapping[str, RelationStatistics] | None = None,
    ) -> None:
        self._facts = FactsSource(source, statistics)

    # ------------------------------------------------------------------ #

    def scan_cost(self, query: QueryLike) -> int:
        """Number of tuples a scan-based evaluation reads: one pass per atom."""
        size = self._facts.size
        return sum(
            size(atom.relation)
            for disjunct in as_union(query).disjuncts
            for atom in disjunct.atoms
        )

    def answer(self, query: QueryLike) -> BaselineResult:
        """Evaluate a CQ or UCQ over the source.

        The query is compiled to the loop-nest kernel
        (:func:`~repro.exec.cq_compiler.compile_cq`; a repeated shape reuses
        its generated function), whose joins probe the source's secondary
        indexes; the *reported* cost stays the full-scan model of
        :meth:`scan_cost`, which is what the paper's baseline charges.
        """
        return self.run(compile_cq(query, self._facts))

    def run(
        self, kernel: CQKernel, bindings: Mapping[str, object] | None = None
    ) -> BaselineResult:
        """Run an already compiled kernel (the service admits one per
        fallback shape) with ``bindings`` for its parameter slots."""
        started = time.perf_counter()
        rows = kernel.run(self._facts, bindings)
        elapsed = time.perf_counter() - started
        return BaselineResult(
            rows=frozenset(rows),
            tuples_scanned=sum(map(self._facts.size, kernel.relations)),
            elapsed_seconds=elapsed,
        )

    def answer_fo(self, query: FOQuery, head: Sequence[Variable]) -> BaselineResult:
        """Evaluate an FO query with active-domain semantics (small instances only)."""
        started = time.perf_counter()
        rows = evaluate_fo(query, self._facts.mapping(), head)
        elapsed = time.perf_counter() - started
        scanned = sum(self._facts.size(name) for name in query.relation_names)
        return BaselineResult(
            rows=frozenset(rows), tuples_scanned=scanned, elapsed_seconds=elapsed
        )
