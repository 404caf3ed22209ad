"""Lowering pass: plan nodes → positional execution specs.

The codegen closure compiler (:mod:`repro.exec.codegen`), the one way a plan
runs, turns these specs into closures.  They fix how a plan node maps to
positional work: which attribute sits at which column, which predicates of
a ``σ(×)`` become hash-join keys and which stay residual, and which access
constraint covers a fetch.  A wrong decision here would not show up as a
crash but as silently different rows or a skewed ``Dξ`` count, so the
decisions are kept apart from the closure building, as plain data.

Nothing in this module touches data or builds callables that close over
state (the extractors close over positions only); everything is resolved
from the plan tree and the access schema alone, which is also what makes the
specs safe to cache alongside a plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence, cast

from ..algebra.terms import Param
from ..core.access import AccessConstraint, AccessSchema
from ..core.plans import (
    AttributeEqualsAttribute,
    AttributeEqualsConstant,
    ConstantScan,
    FetchNode,
    PlanNode,
    Predicate,
    ProductNode,
    SelectNode,
)
from ..errors import PlanError

__all__ = [
    "AttributeCheck",
    "Check",
    "ConstantCheck",
    "LoweredFetch",
    "LoweredJoin",
    "Row",
    "attribute_position",
    "constant_row",
    "implied_checks",
    "lower_fetch",
    "lower_join",
    "lower_predicates",
    "tuple_extractor",
]


#: A data row.  Layouts are positional and fixed by the compiler.
Row = tuple[object, ...]


def tuple_extractor(positions: Sequence[int]) -> Callable[[Row], Row]:
    """``row -> tuple(row[p] for p in positions)`` at C speed where possible."""
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return cast(Callable[[Row], Row], itemgetter(*positions))


def attribute_position(attributes: tuple[str, ...], attribute: str, where: str) -> int:
    """``attributes.index`` with a typed error naming the offending node."""
    try:
        return attributes.index(attribute)
    except ValueError as exc:
        raise PlanError(
            f"{where} refers to attribute {attribute!r} which its input does "
            f"not produce (input has {attributes})"
        ) from exc


# --------------------------------------------------------------------------- #
# Predicates
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ConstantCheck:
    """Lowered ``attribute = value``: a position test against a constant.

    ``value`` may still be a :class:`~repro.algebra.terms.Param` placeholder;
    the compiled closure resolves it from the runtime bindings once per
    execution.
    """

    position: int
    value: object
    negated: bool


@dataclass(frozen=True)
class AttributeCheck:
    """Lowered ``left = right``: a test between two positions of one row."""

    left: int
    right: int
    negated: bool


Check = ConstantCheck | AttributeCheck


def lower_predicates(
    predicates: Sequence[Predicate], attributes: tuple[str, ...], where: str
) -> tuple[Check, ...]:
    """Resolve predicate attribute names to positions once, not once per row."""
    checks: list[Check] = []
    for predicate in predicates:
        if isinstance(predicate, AttributeEqualsConstant):
            checks.append(
                ConstantCheck(
                    attribute_position(attributes, predicate.attribute, where),
                    predicate.value,
                    predicate.negated,
                )
            )
        elif isinstance(predicate, AttributeEqualsAttribute):
            checks.append(
                AttributeCheck(
                    attribute_position(attributes, predicate.left, where),
                    attribute_position(attributes, predicate.right, where),
                    predicate.negated,
                )
            )
        else:  # pragma: no cover - defensive
            raise PlanError(f"unknown predicate type {type(predicate).__name__}")
    return tuple(checks)


# --------------------------------------------------------------------------- #
# σ(×) → hash join
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class LoweredJoin:
    """``σ[l = r](left × right)`` as hash-join keys plus residual checks.

    ``left_key``/``right_key`` are the equated column positions in the left
    and right input layouts; ``residual`` holds the lowered remaining
    predicates over the *product* layout (left columns then right columns).
    Empty keys degrade to a cross product (single hash bucket).
    """

    left_key: tuple[int, ...]
    right_key: tuple[int, ...]
    residual: tuple[Check, ...]


def lower_join(node: SelectNode) -> LoweredJoin:
    """Split the predicates of a selection over a product for a hash join.

    Predicates that do not equate a left attribute with a right attribute
    (and the negated ones) stay residual, so executing the join plus the
    residual filter is identical to the naive ``σ(×)`` evaluation.
    """
    product = node.child
    if not isinstance(product, ProductNode):  # pragma: no cover - defensive
        raise PlanError("lower_join expects a selection over a product")
    left_attrs = product.left.attributes
    right_attrs = product.right.attributes
    join_pairs: list[tuple[int, int]] = []
    residual: list[Predicate] = []
    for predicate in node.predicates:
        if isinstance(predicate, AttributeEqualsAttribute) and not predicate.negated:
            if predicate.left in left_attrs and predicate.right in right_attrs:
                join_pairs.append(
                    (left_attrs.index(predicate.left), right_attrs.index(predicate.right))
                )
                continue
            if predicate.right in left_attrs and predicate.left in right_attrs:
                join_pairs.append(
                    (left_attrs.index(predicate.right), right_attrs.index(predicate.left))
                )
                continue
        residual.append(predicate)
    return LoweredJoin(
        left_key=tuple(p for p, _ in join_pairs),
        right_key=tuple(p for _, p in join_pairs),
        residual=lower_predicates(tuple(residual), product.attributes, "selection"),
    )


# --------------------------------------------------------------------------- #
# fetch → index lookup
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class LoweredFetch:
    """A fetch resolved to its covering constraint and positional layout.

    ``key_positions`` index the child's rows (empty for ``fetch(∅, R, Y)``);
    ``output_positions`` index the constraint provider's output layout and
    project it onto the fetch node's declared attributes.
    """

    constraint: AccessConstraint
    key_positions: tuple[int, ...]
    output_positions: tuple[int, ...]


def lower_fetch(node: FetchNode, access_schema: AccessSchema) -> LoweredFetch:
    """Resolve a fetch node's constraint and positional layout, or fail loudly."""
    constraint = node.covering_constraint(access_schema)
    if constraint is None:
        raise PlanError(
            f"fetch on {node.relation!r} has no covering access constraint; "
            "the plan does not conform to the access schema"
        )
    key_positions = (
        tuple(
            attribute_position(
                node.child.attributes, a, f"fetch on {node.relation!r} key"
            )
            for a in constraint.x
        )
        if node.child is not None
        else ()
    )
    provider_attributes = constraint.output_attributes
    output_positions = tuple(
        attribute_position(
            provider_attributes, a, f"fetch on {node.relation!r} output"
        )
        for a in node.attributes
    )
    return LoweredFetch(
        constraint=constraint,
        key_positions=key_positions,
        output_positions=output_positions,
    )


def constant_row(node: PlanNode) -> tuple[object, ...] | None:
    """The one row of a product of constant scans, else ``None``.

    Values follow ``node.attributes`` and may be :class:`Param` placeholders.
    """
    if isinstance(node, ConstantScan):
        return (node.value,)
    if isinstance(node, ProductNode):
        left = constant_row(node.left)
        right = constant_row(node.right) if left is not None else None
        return None if left is None or right is None else left + right
    return None


def _same_constant(check: object, key: object) -> bool:
    """Does every row the index returns for ``key`` pass ``= check``?

    The same :class:`Param` does, given one reflexivity test of its value
    per execution.  A plain constant does when it equals the key's value,
    which ``float('nan')`` never does, so its check stays.
    """
    if isinstance(check, Param) or isinstance(key, Param):
        return isinstance(check, Param) and isinstance(key, Param) and check == key
    return type(check) is type(key) and bool(check == key)


def implied_checks(
    predicates: Sequence[Predicate], node: FetchNode
) -> tuple[AttributeEqualsConstant, ...]:
    """The checks of ``σ[predicates](node)`` that the fetch key implies.

    A non-negated ``a = v`` on a key attribute ``a`` (the child's columns
    are the key) holds for every fetched row when the child is built only
    from constant scans that give ``a`` the same constant or ``Param`` — the
    heuristic planner's ``σ[c](fetch(const c))`` shape.
    """
    if node.child is None:
        return ()
    row = constant_row(node.child)
    if row is None:
        return ()
    keys = dict(zip(node.child.attributes, row))
    return tuple(
        predicate
        for predicate in predicates
        if isinstance(predicate, AttributeEqualsConstant)
        and not predicate.negated
        and predicate.attribute in keys
        and _same_constant(predicate.value, keys[predicate.attribute])
    )
