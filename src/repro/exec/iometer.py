"""I/O accounting shared by every compiled kernel.

The paper charges a bounded plan only for the tuples it retrieves from the
underlying database through access-constraint indices — the bag ``Dξ`` of
Section 2.  :class:`IOMeter` is the single place where that accounting
happens: a compiled plan's fetch step (:mod:`repro.exec.codegen`) and a
metered maintenance state (the relation states of
:mod:`repro.engine.service.maintenance`) record every tuple an index lookup
returns, a cached-view read records the view rows it reads — free, not
``Dξ`` — and everything else is pure CPU.

``repro.core.plan_eval.FetchStats`` is an alias of this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IOMeter:
    """Accounting of the data fetched from the underlying database (``Dξ``).

    ``tuples_fetched`` counts every tuple returned by every index lookup (bag
    semantics, as in the paper's definition of ``Dξ``); ``fetch_calls`` counts
    the index lookups themselves; ``per_relation`` breaks the tuple count down
    by base relation.  View reads contribute ``view_tuples_scanned`` but no
    I/O: a whole read counts the view's rows, a keyed view probe the rows
    its bucket returns.
    """

    fetch_calls: int = 0
    tuples_fetched: int = 0
    per_relation: dict[str, int] = field(default_factory=dict)
    view_tuples_scanned: int = 0

    def record_fetch(self, relation: str, count: int) -> None:
        self.fetch_calls += 1
        self.tuples_fetched += count
        self.per_relation[relation] = self.per_relation.get(relation, 0) + count

    def record_view_scan(self, count: int) -> None:
        self.view_tuples_scanned += count

    @property
    def shards_touched(self) -> frozenset[int]:
        """Always empty: ``bench/staged.py`` still reads it — goes with
        ROADMAP item 1."""
        return frozenset()
