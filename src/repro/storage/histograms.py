"""Per-column distribution summaries: equi-depth histograms.

Storage-private module (enforced by ``tools/lint_kernel.py``): the rest of
the system reaches these summaries only through the statistics API
(:mod:`repro.storage.statistics` re-exports :class:`ColumnStatistics`), the
same way secondary indexes are reachable only through ``Relation.index_on``.

The greedy orderer of PR 2 costs an access path by the *average* bucket size
(cardinality over distinct count), which a single hot key can be off from by
orders of magnitude.  :class:`EquiDepthHistogram` closes that gap per column:
buckets of (approximately) equal row count over the column's sorted values.
A heavy hitter occupies whole buckets by itself, so
:meth:`~EquiDepthHistogram.estimate_eq` sees the skew that the average hides
— this is what lets the DP join orderer tell a 2000-row probe key from a
5-row one.  Exact distinct counts come from the relation's value counts.

Histograms are maintained *incrementally*, and on read: a write
(``Relation.apply_delta``) only accumulates each column's net value changes,
and the next ``Relation.statistics()`` read folds in one net change per
distinct value touched since the previous read — one bucket lookup per
value, not per row, and not per transaction.  Writes never trigger a
rebuild; drifted histograms are rebuilt *lazily* on read, from the
relation's exact value counts.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping

#: Default number of equi-depth buckets per column.
DEFAULT_BUCKETS = 32


def _sort_key(value: object) -> tuple[str, object]:
    """Order values of mixed types: by type name first, then by value."""
    return (type(value).__name__, value)


def _repr_key(value: object) -> tuple[str, str]:
    return (type(value).__name__, repr(value))


class EquiDepthHistogram:
    """An equi-depth histogram over one column's value multiset.

    Buckets are closed ranges ``[low, high]`` in sort-key order, each built
    to hold roughly ``total / buckets`` rows, with per-bucket row and
    distinct counts.  Values are compared through :func:`_sort_key` (type
    name, then value), falling back to repr-keys when a column mixes
    unorderable values.

    Mutations (:meth:`shift`, one per changed value) adjust the covering
    bucket in place and widen the edge buckets for out-of-range values;
    boundaries are never re-derived on write.  :attr:`drifted` reports when enough mass
    moved that the depths are no longer meaningful — the owner rebuilds from
    the exact value counts on the next read.
    """

    __slots__ = (
        "_lows",
        "_highs",
        "_counts",
        "_distincts",
        "_total",
        "_distinct_total",
        "_built_total",
        "_repr_keys",
    )

    def __init__(
        self,
        lows: list,
        highs: list,
        counts: list[int],
        distincts: list[int],
        repr_keys: bool,
    ) -> None:
        self._lows = lows
        self._highs = highs
        self._counts = counts
        self._distincts = distincts
        self._total = sum(counts)
        self._distinct_total = sum(distincts)
        self._built_total = self._total
        self._repr_keys = repr_keys

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls, value_counts: Mapping[object, int], buckets: int = DEFAULT_BUCKETS
    ) -> "EquiDepthHistogram":
        """Build from an exact ``value -> count`` multiset in one pass."""
        repr_keys = False
        try:
            ordered = sorted(value_counts.items(), key=lambda kv: _sort_key(kv[0]))
        except TypeError:
            repr_keys = True
            ordered = sorted(value_counts.items(), key=lambda kv: _repr_key(kv[0]))
        key = _repr_key if repr_keys else _sort_key
        total = sum(count for _, count in ordered)
        if not ordered:
            return cls([], [], [], [], repr_keys)
        depth = max(1, total // max(1, buckets))
        lows: list = []
        highs: list = []
        counts: list[int] = []
        distincts: list[int] = []
        bucket_count = 0
        bucket_distinct = 0
        for value, count in ordered:
            value_key = key(value)
            if not lows or (bucket_count >= depth and len(lows) < buckets):
                lows.append(value_key)
                highs.append(value_key)
                counts.append(0)
                distincts.append(0)
                bucket_count = 0
                bucket_distinct = 0
            highs[-1] = value_key
            counts[-1] += count
            distincts[-1] += 1
            bucket_count += count
            bucket_distinct += 1
        return cls(lows, highs, counts, distincts, repr_keys)

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #

    @property
    def total(self) -> int:
        return self._total

    @property
    def bucket_count(self) -> int:
        return len(self._counts)

    def estimate_eq(self, value: object) -> float:
        """Expected rows whose column equals ``value``.

        Sums the covering buckets: a bucket pinned to a single value (a
        heavy hitter spilling over bucket boundaries) contributes its exact
        count, a mixed bucket its average per-distinct share.
        """
        if not self._counts:
            return 0.0
        key = _repr_key(value) if self._repr_keys else _sort_key(value)
        index = bisect_left(self._highs, key)
        if index >= len(self._counts):
            return self._total / max(1, self._distinct_total)
        estimate = 0.0
        while index < len(self._counts) and self._lows[index] <= key <= self._highs[index]:
            if self._lows[index] == self._highs[index]:
                estimate += self._counts[index]
            else:
                estimate += self._counts[index] / max(1, self._distincts[index])
            index += 1
        if estimate == 0.0:
            # Value falls between buckets (or before the first): unseen at
            # build time; charge the global average share.
            estimate = self._total / max(1, self._distinct_total)
        return estimate

    def average_bucket(self) -> float:
        """Average rows per distinct value (the classical estimate)."""
        return self._total / max(1, self._distinct_total)

    def skewed_bucket(self) -> float:
        """Expected bucket size when probing with a data-distributed key.

        The second moment ``sum(count_b^2 / distinct_b) / total`` — heavy
        buckets weigh quadratically, as they do when probe keys are drawn
        from the same skewed data.
        """
        if self._total <= 0:
            return 0.0
        second = sum(
            count * count / max(1, distinct)
            for count, distinct in zip(self._counts, self._distincts)
        )
        return second / self._total

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #

    def _locate(self, value: object) -> int | None:
        if not self._counts:
            return None
        key = _repr_key(value) if self._repr_keys else _sort_key(value)
        index = bisect_left(self._highs, key)
        if index >= len(self._counts):
            self._highs[-1] = key  # widen the top bucket
            return len(self._counts) - 1
        if key < self._lows[index]:
            self._lows[index] = key  # widen downwards (covers pre-first too)
        return index

    def shift(self, value: object, rows: int, distincts: int) -> None:
        """Fold in one value's net change from a committed delta.

        ``rows`` more rows now hold ``value`` (fewer when negative);
        ``distincts`` is ``+1`` when the value appeared, ``-1`` when its last
        row left, else ``0``.  Locating the value widens an edge bucket
        exactly as one row-at-a-time insert would, so a value whose rows
        netted away (``rows == 0``) still moves the same edges.  Shifts of
        different values commute, and two shifts of one value equal one
        shift of their sums, so the changes of many transactions fold in
        as one shift per value.
        """
        index = self._locate(value)
        if index is None:
            key = _repr_key(value) if self._repr_keys else _sort_key(value)
            self._lows = [key]
            self._highs = [key]
            self._counts = [0]
            self._distincts = [0]
            index = 0
        self._counts[index] += rows
        self._total += rows
        if distincts:
            self._distincts[index] += distincts
            self._distinct_total += distincts

    @property
    def drifted(self) -> bool:
        """Has enough mass moved that the equi-depth property broke down?

        True when the total grew or shrank past 2x of the build-time total
        (plus a small absolute slack so tiny relations do not thrash), or
        when some bucket holds more than 4x the current fair depth.  Reads
        rebuild then; writes never do.
        """
        built = self._built_total
        if self._total > 2 * built + 16 or self._total < built // 2 - 16:
            return True
        if self._counts:
            fair = max(1, self._total // len(self._counts))
            if max(self._counts) > 4 * fair + 16:
                return True
        return False


class ColumnStatistics:
    """Live distribution summary of one column of one relation.

    Bundles the exact distinct count (read off the relation's value counts)
    and the :class:`EquiDepthHistogram`, and owns the lazy-rebuild policy:
    reads go through :meth:`fresh`, which rebuilds a drifted histogram from
    the exact counts; the relation's statistics read folds in the writes
    since the previous read first, one bucket shift per changed value.

    Deliberately excluded from dataclass comparisons of its owner
    (:class:`repro.storage.statistics.RelationStatistics`): two statistics
    snapshots over the same data are equal regardless of how their
    histograms were bucketed.
    """

    __slots__ = ("histogram", "_counts")

    def __init__(self, value_counts: Mapping[object, int]) -> None:
        self._counts = value_counts
        self.histogram = EquiDepthHistogram.build(value_counts)

    @property
    def distinct(self) -> int:
        return len(self._counts)

    def fresh(self) -> "ColumnStatistics":
        """Self, after lazily rebuilding a drifted histogram (reads only)."""
        if self.histogram.drifted:
            self.histogram = EquiDepthHistogram.build(self._counts)
        return self

    def estimate_eq(self, value: object) -> float:
        """Expected rows with this column equal to ``value`` (skew-aware)."""
        return self.fresh().histogram.estimate_eq(value)

    def average_bucket(self) -> float:
        return self.fresh().histogram.average_bucket()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ColumnStatistics(distinct={self.distinct}, "
            f"buckets={self.histogram.bucket_count})"
        )
