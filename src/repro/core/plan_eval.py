"""Plan execution contracts: fetch providers, ``Dξ`` accounting, results
and parameter binding.

A plan runs one way: compiled to a closure tree
(:func:`repro.exec.codegen.compile_plan_closure`) and run on a fetch
provider and a cache of view results.  That realises the operational
semantics of Section 2: ``fetch`` nodes retrieve data from the underlying
database *only* through the index of a covering access constraint, and the
execution records the bag ``Dξ`` of tuples so fetched — index lookups are
keyed on distinct ``X``-values and charged per returned tuple, view reads
are counted once per plan occurrence (the rows a keyed probe returns, or
the whole view).  Reading cached views is free — that is precisely the
point of bounded rewriting using views.

This module holds the contracts around that execution.  It is decoupled
from the storage layer: any *fetch provider* (:class:`FetchProvider`:
``fetch`` per key, ``fetch_many`` per key batch) works — the MVCC snapshots
(:class:`repro.storage.snapshots.DatabaseSnapshot`) are the standard one;
cached views are read as :class:`ViewVersion` objects (rows plus memoised
hash indexes).
:class:`ExecutionResult` is what a run returns, and :func:`plan_parameters`
/ :func:`bind_plan` handle plans with named parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, Protocol, Sequence

from ..algebra.terms import Param
from ..errors import PlanError
from ..exec.iometer import IOMeter
from .access import AccessConstraint
from .plans import (
    AttributeEqualsConstant,
    ConstantScan,
    DifferenceNode,
    FetchNode,
    PlanNode,
    ProductNode,
    ProjectNode,
    RenameNode,
    SelectNode,
    UnionNode,
    ViewScan,
)


class FetchProvider(Protocol):
    """Anything able to serve index lookups for access constraints.

    A compiled closure hands over a fetch step's whole deduplicated key
    batch (``fetch_many``), which must equal ``[fetch(constraint, k) for k
    in keys]`` — same rows — while resolving the constraint's index once per
    call.  ``fetch`` probes one key.
    """

    def fetch(self, constraint: AccessConstraint, key: Sequence[object]) -> frozenset[tuple]:
        """Return ``D_{R:XY}(X = key)`` for the constraint's relation."""
        ...

    def fetch_many(
        self, constraint: AccessConstraint, keys: Collection[tuple]
    ) -> list[frozenset[tuple]]:
        """``fetch`` for each key of ``keys``, in iteration order."""
        ...


class ViewVersion(Protocol):
    """One published version of a cached view's rows.

    ``rows`` is the view's extension; ``index_on(positions)`` hashes those
    rows on the values at ``positions`` (a tuple key, absent keys have no
    rows) and is memoised by the version, so a compiled closure probes it
    instead of testing every row per execution.  A version never changes:
    a write that changes the view publishes a new one.
    :class:`repro.storage.snapshots.RelationVersion` is the standard one.
    """

    rows: frozenset[tuple]

    def index_on(self, positions: Sequence[int]) -> Mapping[tuple, Sequence[tuple]]:
        """This version's rows hashed on the values at ``positions``."""
        ...


#: A plan execution's accounting class is the kernel's meter.
FetchStats = IOMeter


@dataclass
class ExecutionResult:
    """Result of executing a plan: output rows plus I/O statistics."""

    attributes: tuple[str, ...]
    rows: frozenset[tuple]
    stats: FetchStats

    def __len__(self) -> int:
        return len(self.rows)


# --------------------------------------------------------------------------- #
# Prepared-query support: named parameters inside plans
# --------------------------------------------------------------------------- #


def plan_parameters(plan: PlanNode) -> frozenset[str]:
    """The names of all :class:`~repro.algebra.terms.Param` placeholders in a plan.

    Parameters can only occur where the plan carries constant values: in
    :class:`ConstantScan` leaves and in ``attribute = constant`` selection
    predicates.
    """
    names: set[str] = set()
    for node in plan.iter_nodes():
        if isinstance(node, ConstantScan) and isinstance(node.value, Param):
            names.add(node.value.name)
        elif isinstance(node, SelectNode):
            for predicate in node.predicates:
                if isinstance(predicate, AttributeEqualsConstant) and isinstance(
                    predicate.value, Param
                ):
                    names.add(predicate.value.name)
    return frozenset(names)


def bind_plan(plan: PlanNode, params: Mapping[str, object]) -> PlanNode:
    """Substitute concrete values for the named parameters of a plan.

    Returns a structurally identical plan with every
    :class:`~repro.algebra.terms.Param` occurrence replaced by
    ``params[name]``; nodes without parameters are reused as-is.  Raises
    :class:`~repro.errors.PlanError` when a parameter is missing from
    ``params`` — executing a half-bound plan would silently return no rows.
    """
    missing = sorted(plan_parameters(plan) - set(params))
    if missing:
        raise PlanError(f"plan parameters {missing} are unbound")

    def value_of(value: object) -> object:
        return params[value.name] if isinstance(value, Param) else value

    def rebuild(node: PlanNode) -> PlanNode:
        if isinstance(node, ConstantScan):
            if isinstance(node.value, Param):
                return ConstantScan(value_of(node.value), attribute=node.attribute)
            return node
        if isinstance(node, ViewScan):
            return node
        if isinstance(node, FetchNode):
            if node.child is None:
                return node
            child = rebuild(node.child)
            if child is node.child:
                return node
            return FetchNode(child, node.relation, node.x_attrs, node.y_attrs)
        if isinstance(node, SelectNode):
            child = rebuild(node.child)
            predicates = tuple(
                AttributeEqualsConstant(p.attribute, value_of(p.value), p.negated)
                if isinstance(p, AttributeEqualsConstant) and isinstance(p.value, Param)
                else p
                for p in node.predicates
            )
            if child is node.child and predicates == node.predicates:
                return node
            return SelectNode(child, predicates)
        if isinstance(node, ProjectNode):
            child = rebuild(node.child)
            return node if child is node.child else ProjectNode(child, node.kept)
        if isinstance(node, RenameNode):
            child = rebuild(node.child)
            return node if child is node.child else RenameNode(child, dict(node.mapping))
        if isinstance(node, (ProductNode, UnionNode, DifferenceNode)):
            left, right = rebuild(node.left), rebuild(node.right)
            if left is node.left and right is node.right:
                return node
            return type(node)(left, right)
        raise PlanError(f"unknown plan node type {type(node).__name__}")

    return rebuild(plan)
