"""Statistics over stored relations, and access-constraint discovery.

Two kinds of statistics live here:

* :class:`RelationStatistics` — per-relation cardinality and per-attribute
  distinct counts, with one exact :class:`ColumnStatistics` per column,
  cached on :class:`repro.storage.instance.Relation` and consumed by the
  join orderer (:mod:`repro.algebra.join_order`, through the plan builder
  and the loop-nest compiler) to estimate how selective a probe is;
* access-constraint *mining*: the paper assumes constraints are "discovered
  from sample instances of R" (Section 4) — e.g. Facebook's 5000-friend cap,
  or "each person dines at most once per day".  For candidate attribute
  pairs ``(X, Y)`` of a relation the miner computes the tight bound

      N(X, Y) = max over X-values ā of |{t[Y] : t in D, t[X] = ā}|

  and keeps the candidates whose bound does not exceed a threshold.  The
  tight bound is also used by tests to double-check that generated workload
  data satisfies its intended access schema.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

from ..algebra.terms import Param
from ..core.access import AccessConstraint, AccessSchema
__all__ = [
    "ColumnStatistics",
    "RelationStatistics",
    "relation_statistics",
    "statistics_fingerprint",
    "constraint_bound",
    "constraint_bounds",
    "discover_access_constraints",
    "verify_expected_schema",
]

if TYPE_CHECKING:  # imported lazily to avoid a cycle with .instance
    from .instance import Database, Relation


# --------------------------------------------------------------------------- #
# Per-relation statistics
# --------------------------------------------------------------------------- #


class ColumnStatistics:
    """The exact distribution of one column of one relation.

    Reads the relation's per-value row counts (``Relation._value_counts``)
    and the running second moment ``square_sum`` = Σc² over those counts,
    which the relation folds in O(1) per changed value.  A value absent
    from the counts is charged the average bucket.
    """

    __slots__ = ("_counts", "total", "square_sum")

    def __init__(
        self, value_counts: Mapping[object, int], total: int, square_sum: int
    ) -> None:
        self._counts = value_counts
        self.total = total
        self.square_sum = square_sum

    @property
    def distinct(self) -> int:
        return len(self._counts)

    def estimate_eq(self, value: object) -> float:
        """Rows whose column equals ``value``: its exact count."""
        count = self._counts.get(value)
        return self.average_bucket() if count is None else float(count)

    def average_bucket(self) -> float:
        """Average rows per distinct value (the classical estimate)."""
        return self.total / max(1, len(self._counts))

    def skewed_bucket(self) -> float:
        """Expected rows matching a key drawn from the column's own data:
        the second moment Σc²/Σc, in which heavy hitters weigh
        quadratically."""
        return self.square_sum / self.total if self.total > 0 else 0.0


@dataclass(frozen=True)
class RelationStatistics:
    """Cardinality and per-attribute-position distinct counts of a relation.

    ``columns`` optionally carries the per-column value distributions
    (:class:`ColumnStatistics`).  It is excluded from equality on purpose:
    two statistics snapshots over the same data are equal whether or not
    columns happen to be attached — the invariants tests compare
    incrementally maintained statistics against freshly recomputed ones by
    ``==``.
    """

    cardinality: int
    distinct: tuple[int, ...]
    columns: tuple[ColumnStatistics, ...] | None = field(default=None, compare=False)

    def distinct_count(self, position: int) -> int:
        return self.distinct[position]

    def estimated_matches(self, positions: Iterable[int]) -> float:
        """Expected rows matching an equality probe on ``positions``.

        Classical independence estimate: cardinality scaled by ``1/d_p`` for
        every probed position (``d_p`` distinct values at that position).
        Positions outside the arity are ignored (such probes match nothing
        anyway and are handled upstream).
        """
        estimate = float(self.cardinality)
        for position in positions:
            if 0 <= position < len(self.distinct):
                estimate /= max(1, self.distinct[position])
        return estimate

    def estimated_matches_with(
        self,
        positions: Iterable[int],
        constants: Mapping[int, object] | None = None,
        unread: Collection[int] = (),
    ) -> float:
        """Skew-aware variant of :meth:`estimated_matches`.

        Positions probed with a *known constant* are estimated from that
        column's exact value count (``estimate_eq`` sees heavy hitters that
        the whole-column average hides).  Positions in ``unread`` hold
        a constant whose value the caller will not read — a planner that
        shares one plan across values — and are priced at the column's
        second moment, ``skewed_bucket``: the expected bucket of a key drawn
        from the data, which a hot key raises without being named.
        Positions probed with a bound variable — or with a
        :class:`~repro.algebra.terms.Param`, a constant whose value is not
        known yet — fall back to the average bucket, the generic-plan
        estimate.  Without attached column summaries this degrades to the
        classical estimate exactly.
        """
        if self.columns is None:
            return self.estimated_matches(positions)
        estimate = float(self.cardinality)
        cardinality = max(1, self.cardinality)
        for position in positions:
            if not 0 <= position < len(self.distinct):
                continue
            column = self.columns[position] if position < len(self.columns) else None
            if column is None:
                estimate /= max(1, self.distinct[position])
            elif position in unread:
                estimate *= column.skewed_bucket() / cardinality
            elif (
                constants is not None
                and position in constants
                and not isinstance(constants[position], Param)
            ):
                estimate *= column.estimate_eq(constants[position]) / cardinality
            else:
                estimate *= column.average_bucket() / cardinality
        return estimate


def relation_statistics(relation: "Relation") -> RelationStatistics:
    """Compute the statistics of one stored relation in a single pass."""
    arity = relation.schema.arity
    seen: list[set] = [set() for _ in range(arity)]
    cardinality = 0
    for row in relation:
        cardinality += 1
        for position in range(arity):
            seen[position].add(row[position])
    return RelationStatistics(
        cardinality=cardinality, distinct=tuple(len(values) for values in seen)
    )


def statistics_fingerprint(statistics: Mapping[str, RelationStatistics]) -> str:
    """A stable digest of a database's coarse statistics.

    The persistent plan store keys its payload on this fingerprint: a plan
    chosen for one data distribution is only reused while the relations'
    cardinalities and distinct counts still match.  Only the coarse
    statistics participate, not the per-value counts.
    """
    # Imported here, not at module level: hashlib maps OpenSSL (~3.5 MB of
    # resident memory), and only services with a plan store ever get here.
    import hashlib

    digest = hashlib.sha1()
    for name in sorted(statistics):
        stats = statistics[name]
        digest.update(
            f"{name}:{stats.cardinality}:{','.join(map(str, stats.distinct))};".encode()
        )
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# Access-constraint mining
# --------------------------------------------------------------------------- #


def constraint_bound(
    database: "Database", relation: str, x: Sequence[str], y: Sequence[str]
) -> int:
    """The tight bound N for the candidate constraint ``relation(X -> Y, N)``.

    Returns 0 for an empty relation.
    """
    rel = database.relation(relation)
    x_positions = rel.schema.positions(x)
    y_positions = rel.schema.positions(y)
    groups: dict[tuple, set[tuple]] = {}
    for row in rel:
        key = tuple(row[p] for p in x_positions)
        groups.setdefault(key, set()).add(tuple(row[p] for p in y_positions))
    return max((len(values) for values in groups.values()), default=0)


def constraint_bounds(
    database: "Database", relation: str, x: Sequence[str], ys: Sequence[str]
) -> dict[str, int]:
    """Tight bounds ``N(X, y)`` for *every* candidate ``y`` in one pass.

    Groups the relation by the ``X``-key once and derives all per-``y``
    distinct counts from that single grouping — the miner sweeps many ``y``
    candidates per ``X``, so regrouping per pair (the historical behaviour)
    multiplied the work by the arity.
    """
    rel = database.relation(relation)
    x_positions = rel.schema.positions(x)
    y_positions = rel.schema.positions(ys)
    groups: dict[tuple, list[set]] = {}
    for row in rel:
        key = tuple(row[p] for p in x_positions)
        per_y = groups.get(key)
        if per_y is None:
            per_y = [set() for _ in y_positions]
            groups[key] = per_y
        for index, position in enumerate(y_positions):
            per_y[index].add(row[position])
    return {
        y: max((len(per_y[index]) for per_y in groups.values()), default=0)
        for index, y in enumerate(ys)
    }


def discover_access_constraints(
    database: "Database",
    max_x_size: int = 2,
    max_bound: int = 100,
    relations: Iterable[str] | None = None,
) -> AccessSchema:
    """Mine access constraints whose tight bound is at most ``max_bound``.

    For every relation, every attribute subset ``X`` with ``|X| <= max_x_size``
    (including the empty set) and every single attribute ``Y`` outside ``X``,
    the tight bound is computed; candidates with bound in ``[1, max_bound]``
    become constraints.  Subsumed constraints (same X, same Y, larger bound
    than an already kept one) are dropped.
    """
    discovered: list[AccessConstraint] = []
    names = tuple(relations) if relations is not None else database.schema.names
    for name in names:
        attributes = database.schema.relation(name).attributes
        if not len(database.relation(name)):
            continue
        for size in range(0, max_x_size + 1):
            for x in itertools.combinations(attributes, size):
                remaining = [a for a in attributes if a not in x]
                if not remaining:
                    continue
                bounds = constraint_bounds(database, name, x, remaining)
                for y_attr, bound in bounds.items():
                    if 1 <= bound <= max_bound:
                        discovered.append(AccessConstraint(name, x, (y_attr,), bound))
    return AccessSchema(_drop_subsumed(discovered))


def _drop_subsumed(constraints: list[AccessConstraint]) -> list[AccessConstraint]:
    """Drop constraints implied by another kept constraint with smaller X.

    A constraint ``R(X' -> Y, N')`` is redundant when some kept constraint
    ``R(X -> Y, N)`` has ``X ⊆ X'`` and ``N <= N'`` — any fetch the former can
    serve, the latter serves at least as cheaply only if X matches exactly, so
    we keep both unless X and Y coincide.  (Only exact duplicates with a worse
    bound are dropped; different X-sets give genuinely different indices.)
    """
    kept: dict[tuple[str, tuple[str, ...], tuple[str, ...]], AccessConstraint] = {}
    for constraint in constraints:
        key = (constraint.relation, constraint.x, constraint.y)
        existing = kept.get(key)
        if existing is None or constraint.bound < existing.bound:
            kept[key] = constraint
    return list(kept.values())


def verify_expected_schema(
    database: "Database", access_schema: AccessSchema
) -> dict[AccessConstraint, int]:
    """Return the tight bound measured for every constraint of ``access_schema``.

    Useful in tests and benchmarks to confirm that generated data indeed
    satisfies the intended constraints (measured bound <= declared bound).
    """
    measured: dict[AccessConstraint, int] = {}
    for constraint in access_schema:
        measured[constraint] = constraint_bound(
            database, constraint.relation, constraint.x, constraint.y
        )
    return measured
