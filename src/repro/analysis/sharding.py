"""Certificate → shard-set derivation: which shards a bounded plan touches.

The paper's access schemas make a bounded plan name exactly the data buckets
it reads: every ``fetch`` node carries the access constraint serving it (its
boundedness certificate, PR 6), and under hash sharding each probe key owns
exactly one partition.  This module derives the shard set **statically** —
no data access — by evaluating the constant-only part of each fetch's key
subtree:

* a fetch served by a *global* (reference-tier) constraint is shard-neutral;
* a fetch whose key subtree is built purely from constants (``ConstantScan``
  leaves combined by product/rename/project/select/union) resolves to
  concrete keys, hence concrete shard ids;
* a fetch whose keys depend on data produced by other fetches or view scans
  (or on unbound :class:`~repro.algebra.terms.Param` placeholders) is
  *dynamic*: its shard set is only known at execution time.

A cached plan may be shared across constants (the service plans each query
*shape* once), so every entry point takes an optional ``bindings`` mapping
through which a ``Param`` resolves: routing reads the *bound* key, and only a
placeholder the mapping does not name stays dynamic.

A plan whose partitioned fetches are all static and land on one shard is
single-shard routable — the router executes it against that shard alone and
``explain()`` reports the pruning.  Anything dynamic keeps the bit-identical
fetch-level routing (each probe still touches exactly its owning shard), the
set is just not predictable up front.

The layout argument is duck-typed (``shard_count``,
``constraint_is_partitioned``, ``shard_of_key``) so this module stays free of
storage imports; :class:`repro.storage.snapshots.ShardingLayout` is the
standard implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from ..algebra.terms import Param
from ..core.access import AccessConstraint, AccessSchema
from ..core.plans import (
    AttributeEqualsAttribute,
    AttributeEqualsConstant,
    ConstantScan,
    FetchNode,
    PlanNode,
    ProductNode,
    ProjectNode,
    RenameNode,
    SelectNode,
    UnionNode,
)

#: Static key subtrees larger than this are treated as dynamic — the
#: prediction must stay cheap relative to planning itself.
_MAX_STATIC_KEYS = 64


class ShardLayoutLike(Protocol):
    """The sharding facts the derivation needs (see module docstring)."""

    @property
    def shard_count(self) -> int: ...

    def constraint_is_partitioned(self, constraint: AccessConstraint) -> bool: ...

    def shard_of_key(self, key: Sequence[object]) -> int: ...


@dataclass(frozen=True)
class FetchShards:
    """Shard placement of one ``fetch`` node.

    ``partitioned`` is false for reference-tier fetches (shard-neutral);
    ``dynamic`` is true when the keys are data-dependent; otherwise
    ``shards`` holds the statically derived shard ids.
    """

    relation: str
    partitioned: bool
    dynamic: bool
    shards: frozenset[int]


@dataclass(frozen=True)
class PlanShardSet:
    """The statically derived shard placement of a whole plan."""

    shard_count: int
    fetches: tuple[FetchShards, ...]

    @property
    def shards(self) -> frozenset[int]:
        """Union of the statically known shard ids of partitioned fetches."""
        static: set[int] = set()
        for fetch in self.fetches:
            if fetch.partitioned and not fetch.dynamic:
                static |= fetch.shards
        return frozenset(static)

    @property
    def dynamic_relations(self) -> tuple[str, ...]:
        """Relations whose partitioned fetches have data-dependent keys."""
        return tuple(
            dict.fromkeys(
                f.relation for f in self.fetches if f.partitioned and f.dynamic
            )
        )

    @property
    def single_shard(self) -> bool:
        """Can the whole plan be routed to (at most) one shard statically?"""
        return not self.dynamic_relations and len(self.shards) <= 1

    @property
    def shards_pruned(self) -> int:
        """How many shards the static prediction proves untouched."""
        if self.dynamic_relations:
            return 0
        return max(0, self.shard_count - len(self.shards or frozenset({0})))

    def describe(self) -> str:
        parts: list[str] = []
        shards = self.shards
        if shards:
            listed = ", ".join(str(s) for s in sorted(shards))
            parts.append(f"static {{{listed}}} of {self.shard_count}")
        dynamic = self.dynamic_relations
        if dynamic:
            parts.append("dynamic keys on " + ", ".join(dynamic))
        if not parts:
            return f"shard-neutral (reference data only, {self.shard_count} shard(s))"
        if self.single_shard:
            parts.append(f"single-shard routable, {self.shards_pruned} pruned")
        return "; ".join(parts)

    def __str__(self) -> str:
        return self.describe()


_UNBOUND = object()


def _resolve(value: object, bindings: Mapping[str, object] | None) -> object:
    """A plan constant's value; :data:`_UNBOUND` for an unbound parameter."""
    if isinstance(value, Param):
        return (bindings or {}).get(value.name, _UNBOUND)
    return value


def static_rows(
    node: PlanNode, bindings: Mapping[str, object] | None = None
) -> list[tuple[object, ...]] | None:
    """Evaluate a constant-only plan subtree to its rows, or ``None``.

    Handles exactly the shapes planners put under a fetch: ``ConstantScan``
    leaves combined by products, renames, projections, selections over
    constant predicates and unions.  Anything touching data (fetches, view
    scans) or a parameter ``bindings`` does not name makes the subtree
    dynamic.  The evaluation is bounded by :data:`_MAX_STATIC_KEYS` rows.
    """
    if isinstance(node, ConstantScan):
        value = _resolve(node.value, bindings)
        return None if value is _UNBOUND else [(value,)]
    if isinstance(node, ProductNode):
        left = static_rows(node.left, bindings)
        right = static_rows(node.right, bindings)
        if left is None or right is None:
            return None
        if len(left) * len(right) > _MAX_STATIC_KEYS:
            return None
        return [l + r for l in left for r in right]
    if isinstance(node, RenameNode):
        # Renaming changes attribute names, not positions or values.
        return static_rows(node.child, bindings)
    if isinstance(node, ProjectNode):
        rows = static_rows(node.child, bindings)
        if rows is None:
            return None
        child_attributes = node.child.attributes
        positions = [child_attributes.index(a) for a in node.kept]
        return list(
            dict.fromkeys(tuple(row[p] for p in positions) for row in rows)
        )
    if isinstance(node, SelectNode):
        rows = static_rows(node.child, bindings)
        if rows is None:
            return None
        attributes = node.child.attributes
        for predicate in node.predicates:
            if isinstance(predicate, AttributeEqualsConstant):
                value = _resolve(predicate.value, bindings)
                if value is _UNBOUND:
                    return None
                position = attributes.index(predicate.attribute)
                rows = [
                    row
                    for row in rows
                    if (row[position] == value) != predicate.negated
                ]
            elif isinstance(predicate, AttributeEqualsAttribute):
                left = attributes.index(predicate.left)
                right = attributes.index(predicate.right)
                rows = [
                    row
                    for row in rows
                    if (row[left] == row[right]) != predicate.negated
                ]
            else:  # unknown predicate kind: be conservative
                return None
        return rows
    if isinstance(node, UnionNode):
        left = static_rows(node.left, bindings)
        right = static_rows(node.right, bindings)
        if left is None or right is None:
            return None
        if len(left) + len(right) > _MAX_STATIC_KEYS:
            return None
        return list(dict.fromkeys(left + right))
    return None


def fetch_shard_set(
    node: FetchNode,
    access_schema: AccessSchema,
    layout: ShardLayoutLike,
    bindings: Mapping[str, object] | None = None,
) -> FetchShards:
    """Shard placement of one fetch node under ``layout``."""
    constraint = node.covering_constraint(access_schema)
    if constraint is None or not layout.constraint_is_partitioned(constraint):
        return FetchShards(
            relation=node.relation,
            partitioned=False,
            dynamic=False,
            shards=frozenset(),
        )
    if node.child is None:
        return FetchShards(
            relation=node.relation,
            partitioned=True,
            dynamic=False,
            shards=frozenset({layout.shard_of_key(())}),
        )
    rows = static_rows(node.child, bindings)
    if rows is None:
        return FetchShards(
            relation=node.relation, partitioned=True, dynamic=True, shards=frozenset()
        )
    # Probe keys are extracted from child rows in the constraint's X order —
    # the same layout IndexLookup uses (repro.exec.lowering.lower_fetch).
    child_attributes = node.child.attributes
    positions = [child_attributes.index(a) for a in constraint.x]
    shards = frozenset(
        layout.shard_of_key(tuple(row[p] for p in positions)) for row in rows
    )
    return FetchShards(
        relation=node.relation, partitioned=True, dynamic=False, shards=shards
    )


def plan_shard_set(
    plan: PlanNode,
    access_schema: AccessSchema,
    layout: ShardLayoutLike,
    bindings: Mapping[str, object] | None = None,
) -> PlanShardSet:
    """Derive the static shard placement of every fetch in ``plan``, its
    parameters resolved through ``bindings`` where given."""
    fetches = tuple(
        fetch_shard_set(node, access_schema, layout, bindings)
        for node in plan.iter_nodes()
        if isinstance(node, FetchNode)
    )
    return PlanShardSet(shard_count=layout.shard_count, fetches=fetches)
