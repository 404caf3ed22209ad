"""Query plans using views and fetch operations (Section 2 of the paper).

A query plan ``ξ(V, R)`` is a tree whose nodes compute intermediate relations:

* leaves are constants ``{c}`` or cached views ``V``;
* ``fetch(X ∈ S, R, Y)`` retrieves, for every ``X``-value in its child ``S``,
  the ``XY``-projections of ``R`` through the index of an access constraint;
* inner nodes apply projection π, selection σ, renaming ρ, product ×,
  union ∪ and set difference \\.

The *size* of a plan is its number of nodes; ``M``-bounded plans have at most
``M`` nodes.  A plan is *in language L* when it only uses the operators
allowed for L (CQ: fetch/π/σ/×/ρ; UCQ additionally allows ∪ at the top level;
∃FO+ allows ∪ anywhere; FO allows everything).

This module defines the plan node classes, structural validation, size and
language classification, and pretty printing.  Converting plans to queries
(the ``Q_ξ`` expressed by a plan) lives in :mod:`repro.core.rewriting`;
plans run compiled (:mod:`repro.exec.codegen`), against the contracts of
:mod:`repro.core.plan_eval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from ..algebra.schema import DatabaseSchema
from ..algebra.views import ViewSet
from ..errors import PlanError
from .access import AccessConstraint, AccessSchema

# Language constants (ordered by expressiveness).
CQ = "CQ"
UCQ = "UCQ"
EFO_PLUS = "EFO+"
FO = "FO"
LANGUAGE_ORDER = {CQ: 0, UCQ: 1, EFO_PLUS: 2, FO: 3}


def language_leq(lang1: str, lang2: str) -> bool:
    """Is ``lang1`` at most as expressive as ``lang2`` (CQ ⊆ UCQ ⊆ ∃FO+ ⊆ FO)?"""
    try:
        return LANGUAGE_ORDER[lang1] <= LANGUAGE_ORDER[lang2]
    except KeyError as exc:
        raise PlanError(f"unknown language in {lang1!r} <= {lang2!r}") from exc


# --------------------------------------------------------------------------- #
# Selection predicates
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class AttributeEqualsConstant:
    """Selection predicate ``attribute = value`` (or ``!=`` when negated)."""

    attribute: str
    value: object
    negated: bool = False

    def __str__(self) -> str:
        op = "!=" if self.negated else "="
        return f"{self.attribute} {op} {self.value!r}"


@dataclass(frozen=True)
class AttributeEqualsAttribute:
    """Selection predicate ``left = right`` between two attributes."""

    left: str
    right: str
    negated: bool = False

    def __str__(self) -> str:
        op = "!=" if self.negated else "="
        return f"{self.left} {op} {self.right}"


Predicate = AttributeEqualsConstant | AttributeEqualsAttribute


# --------------------------------------------------------------------------- #
# Plan nodes
# --------------------------------------------------------------------------- #


class PlanNode:
    """Base class of query plan nodes."""

    @property
    def attributes(self) -> tuple[str, ...]:
        """Output attribute names of the node, in order."""
        raise NotImplementedError

    @property
    def children(self) -> tuple["PlanNode", ...]:
        raise NotImplementedError

    def label(self) -> str:
        """Short human-readable operator label."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #

    def size(self) -> int:
        """Number of nodes of the plan tree (the paper's plan size)."""
        return 1 + sum(child.size() for child in self.children)

    def iter_nodes(self) -> Iterator["PlanNode"]:
        """Yield all nodes of the tree (pre-order)."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def fetch_nodes(self) -> list["FetchNode"]:
        return [node for node in self.iter_nodes() if isinstance(node, FetchNode)]

    def view_names(self) -> frozenset[str]:
        return frozenset(
            node.view_name for node in self.iter_nodes() if isinstance(node, ViewScan)
        )

    def uses_views(self) -> bool:
        return bool(self.view_names())

    def pretty(
        self,
        indent: int = 0,
        notes: Mapping[tuple[int, ...], str] | None = None,
        path: tuple[int, ...] = (),
    ) -> str:
        """Indented textual rendering of the plan tree (like Figure 1).

        ``notes`` annotates nodes by path (child indices from this node),
        as ``QueryService.explain`` marks what the compiled kernel does.
        """
        pad = "  " * indent
        line = f"{pad}{self.label()}  -> ({', '.join(self.attributes)})"
        if notes and path in notes:
            line += f"  [{notes[path]}]"
        lines = [line]
        for index, child in enumerate(self.children):
            lines.append(child.pretty(indent + 1, notes, path + (index,)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.pretty()

    # ------------------------------------------------------------------ #
    # Language classification
    # ------------------------------------------------------------------ #

    def language(self) -> str:
        """The least language of {CQ, UCQ, ∃FO+, FO} this plan belongs to.

        A plan is a UCQ plan when union occurs only "at the top": every
        ancestor of a ∪ node is itself a ∪ node (Section 2).
        """
        has_union = False
        has_difference = False
        union_below_non_union = False

        def visit(node: PlanNode, seen_non_union_above: bool) -> None:
            nonlocal has_union, has_difference, union_below_non_union
            if isinstance(node, UnionNode):
                has_union = True
                if seen_non_union_above:
                    union_below_non_union = True
                below = False
            else:
                below = True
            if isinstance(node, DifferenceNode):
                has_difference = True
            for child in node.children:
                visit(child, seen_non_union_above or below)

        visit(self, False)
        if has_difference:
            return FO
        if not has_union:
            return CQ
        if union_below_non_union:
            return EFO_PLUS
        return UCQ

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(
        self,
        schema: DatabaseSchema,
        views: ViewSet | None = None,
        access_schema: AccessSchema | None = None,
    ) -> None:
        """Structural validation of the plan tree.

        Checks attribute bookkeeping, view arities and — when an access
        schema is provided — that every fetch names attributes served by some
        constraint.  This is purely syntactic; semantic conformance (bounded
        input of every fetch) is checked by :mod:`repro.core.conformance`.
        """
        for node in self.iter_nodes():
            node._validate_node(schema, views, access_schema)

    def _validate_node(
        self,
        schema: DatabaseSchema,
        views: ViewSet | None,
        access_schema: AccessSchema | None,
    ) -> None:
        """Node-local validation; overridden by subclasses."""
        # Default: nothing to check beyond what the constructor enforced.
        return None


@dataclass(frozen=True)
class ConstantScan(PlanNode):
    """Leaf producing the single-tuple unary relation ``{(value,)}``."""

    value: object
    attribute: str = "c"

    @property
    def attributes(self) -> tuple[str, ...]:
        return (self.attribute,)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def label(self) -> str:
        return f"const {self.value!r}"


@dataclass(frozen=True)
class ViewScan(PlanNode):
    """Leaf scanning a cached view ``V(D)``."""

    view_name: str
    view_attributes: tuple[str, ...]

    def __init__(self, view_name: str, view_attributes: Sequence[str]) -> None:
        object.__setattr__(self, "view_name", view_name)
        object.__setattr__(self, "view_attributes", tuple(view_attributes))

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.view_attributes

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def label(self) -> str:
        return f"view {self.view_name}"

    def _validate_node(
        self,
        schema: DatabaseSchema,
        views: ViewSet | None,
        access_schema: AccessSchema | None,
    ) -> None:
        if views is not None:
            if self.view_name not in views:
                raise PlanError(f"plan references unknown view {self.view_name!r}")
            view = views.view(self.view_name)
            if view.arity != len(self.view_attributes):
                raise PlanError(
                    f"view scan of {self.view_name!r} declares {len(self.view_attributes)} "
                    f"attributes but the view has arity {view.arity}"
                )


@dataclass(frozen=True)
class FetchNode(PlanNode):
    """``fetch(X ∈ child, relation, Y)`` — controlled access to a base relation.

    For every ``X``-value produced by the child, the index of a covering
    access constraint returns the matching ``X ∪ Y`` projections of the
    relation.  ``x_attrs``/``y_attrs`` use the relation's attribute names; the
    child's output attributes must be exactly ``x_attrs``.  When ``X`` is
    empty the child may be omitted entirely — ``fetch(∅, R, Y)`` is then a
    leaf of size 1, matching the paper's counting ("the only possible query
    plan of size 1 that does not use V").
    """

    child: PlanNode | None
    relation: str
    x_attrs: tuple[str, ...]
    y_attrs: tuple[str, ...]

    def __init__(
        self,
        child: PlanNode | None,
        relation: str,
        x_attrs: Sequence[str],
        y_attrs: Sequence[str],
    ) -> None:
        x_tuple = tuple(x_attrs)
        y_tuple = tuple(y_attrs)
        if child is None:
            if x_tuple:
                raise PlanError(
                    f"fetch on {relation!r} with non-empty X={x_tuple} requires a child plan"
                )
        elif set(child.attributes) != set(x_tuple):
            raise PlanError(
                f"fetch on {relation!r} expects child attributes {x_tuple}, "
                f"got {child.attributes}"
            )
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "x_attrs", x_tuple)
        object.__setattr__(self, "y_attrs", y_tuple)

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.x_attrs + tuple(a for a in self.y_attrs if a not in self.x_attrs)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,) if self.child is not None else ()

    def label(self) -> str:
        x = ", ".join(self.x_attrs) if self.x_attrs else "∅"
        y = ", ".join(self.y_attrs)
        return f"fetch({x} ∈ child, {self.relation}, {y})"

    def covering_constraint(self, access_schema: AccessSchema) -> AccessConstraint | None:
        """The access constraint able to serve this fetch, if any."""
        return access_schema.find_covering(self.relation, self.x_attrs, self.y_attrs)

    def _validate_node(
        self,
        schema: DatabaseSchema,
        views: ViewSet | None,
        access_schema: AccessSchema | None,
    ) -> None:
        relation = schema.relation(self.relation)
        for attribute in self.x_attrs + self.y_attrs:
            if attribute not in relation.attributes:
                raise PlanError(
                    f"fetch on {self.relation!r} names unknown attribute {attribute!r}"
                )
        if access_schema is not None and self.covering_constraint(access_schema) is None:
            raise PlanError(
                f"no access constraint covers fetch({self.x_attrs} ∈ _, "
                f"{self.relation}, {self.y_attrs})"
            )


@dataclass(frozen=True)
class ProjectNode(PlanNode):
    """Projection ``π_attrs(child)``."""

    child: PlanNode
    kept: tuple[str, ...]

    def __init__(self, child: PlanNode, kept: Sequence[str]) -> None:
        kept_tuple = tuple(kept)
        missing = [a for a in kept_tuple if a not in child.attributes]
        if missing:
            raise PlanError(
                f"projection keeps unknown attributes {missing}; child has {child.attributes}"
            )
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "kept", kept_tuple)

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.kept

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"π[{', '.join(self.kept) if self.kept else '∅'}]"


@dataclass(frozen=True)
class SelectNode(PlanNode):
    """Selection ``σ_C(child)`` for a conjunction of predicates ``C``."""

    child: PlanNode
    predicates: tuple[Predicate, ...]

    def __init__(self, child: PlanNode, predicates: Sequence[Predicate]) -> None:
        predicates_tuple = tuple(predicates)
        if not predicates_tuple:
            raise PlanError("selection requires at least one predicate")
        for predicate in predicates_tuple:
            referenced = (
                (predicate.attribute,)
                if isinstance(predicate, AttributeEqualsConstant)
                else (predicate.left, predicate.right)
            )
            for attribute in referenced:
                if attribute not in child.attributes:
                    raise PlanError(
                        f"selection references unknown attribute {attribute!r}; "
                        f"child has {child.attributes}"
                    )
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "predicates", predicates_tuple)

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.child.attributes

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return "σ[" + " ∧ ".join(str(p) for p in self.predicates) + "]"

    @property
    def has_negated_predicate(self) -> bool:
        return any(p.negated for p in self.predicates)


@dataclass(frozen=True)
class RenameNode(PlanNode):
    """Renaming ``ρ(child)`` given as an old-name -> new-name mapping."""

    child: PlanNode
    mapping: tuple[tuple[str, str], ...]

    def __init__(self, child: PlanNode, mapping: Mapping[str, str]) -> None:
        pairs = tuple(sorted(mapping.items()))
        unknown = [old for old, _ in pairs if old not in child.attributes]
        if unknown:
            raise PlanError(
                f"rename refers to unknown attributes {unknown}; child has {child.attributes}"
            )
        renamed = [dict(pairs).get(a, a) for a in child.attributes]
        if len(set(renamed)) != len(renamed):
            raise PlanError(f"rename produces duplicate attribute names: {renamed}")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "mapping", pairs)

    @property
    def attributes(self) -> tuple[str, ...]:
        as_dict = dict(self.mapping)
        return tuple(as_dict.get(a, a) for a in self.child.attributes)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        renames = ", ".join(f"{old}→{new}" for old, new in self.mapping)
        return f"ρ[{renames}]"


class _BinaryNode(PlanNode):
    """Shared implementation of binary plan nodes."""

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        self._left = left
        self._right = right

    @property
    def left(self) -> PlanNode:
        return self._left

    @property
    def right(self) -> PlanNode:
        return self._right

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self._left, self._right)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.children == other.children  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.children))


class ProductNode(_BinaryNode):
    """Cartesian product ``left × right`` (attribute sets must be disjoint)."""

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        overlap = set(left.attributes) & set(right.attributes)
        if overlap:
            raise PlanError(
                f"product requires disjoint attributes; both sides have {sorted(overlap)} "
                "(insert a rename node)"
            )
        super().__init__(left, right)

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.left.attributes + self.right.attributes

    def label(self) -> str:
        return "×"


class UnionNode(_BinaryNode):
    """Set union ``left ∪ right`` (attribute tuples must coincide)."""

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        if left.attributes != right.attributes:
            raise PlanError(
                f"union requires identical attributes, got {left.attributes} "
                f"and {right.attributes}"
            )
        super().__init__(left, right)

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.left.attributes

    def label(self) -> str:
        return "∪"


class DifferenceNode(_BinaryNode):
    """Set difference ``left \\ right`` (attribute tuples must coincide)."""

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        if left.attributes != right.attributes:
            raise PlanError(
                f"difference requires identical attributes, got {left.attributes} "
                f"and {right.attributes}"
            )
        super().__init__(left, right)

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.left.attributes

    def label(self) -> str:
        return "\\"


# --------------------------------------------------------------------------- #
# Composite builders
# --------------------------------------------------------------------------- #


def join_on_shared_attributes(left: PlanNode, right: PlanNode) -> PlanNode:
    """Natural join expressed with the primitive operators.

    When the two inputs share attributes ``S``, the join is
    ``π(σ_{S = S'}(left × ρ_{S→S'}(right)))`` — rename, product, selection and
    projection, exactly the 4-operation expansion the paper charges in case
    (4b) of the ``size`` function.  Without shared attributes it degenerates
    to a plain product (1 operation).
    """
    shared = [a for a in left.attributes if a in right.attributes]
    if not shared:
        return ProductNode(left, right)
    rename_map = {a: f"{a}__r" for a in shared}
    renamed_right = RenameNode(right, rename_map)
    product = ProductNode(left, renamed_right)
    predicates: list[Predicate] = [
        AttributeEqualsAttribute(a, rename_map[a]) for a in shared
    ]
    selected = SelectNode(product, tuple(predicates))
    kept = left.attributes + tuple(
        a for a in right.attributes if a not in shared
    )
    return ProjectNode(selected, kept)


def constant_selection(child: PlanNode, assignments: Mapping[str, object]) -> PlanNode:
    """``σ_{a1=c1 ∧ ...}(child)`` as a single selection node."""
    predicates = tuple(
        AttributeEqualsConstant(attribute, value) for attribute, value in assignments.items()
    )
    return SelectNode(child, predicates)


def empty_plan(attributes: Sequence[str] = ()) -> PlanNode:
    """The canonical *empty* plan ``Q_∅`` returning no tuples on any database.

    Realised by selecting ``attr = 1`` over a constant scan producing ``0`` —
    a contradiction — so the plan is empty on every database.  It is the plan
    the paper repeatedly refers to as "the constant query Q∅ which returns ∅
    on all databases".
    """
    attrs = tuple(attributes)
    if not attrs:
        base = ConstantScan(0, attribute="c")
        contradiction = SelectNode(base, (AttributeEqualsConstant("c", 1),))
        return ProjectNode(contradiction, ())
    plan: PlanNode | None = None
    for attribute in attrs:
        scan: PlanNode = ConstantScan(0, attribute=attribute)
        plan = scan if plan is None else ProductNode(plan, scan)
    assert plan is not None
    return SelectNode(plan, (AttributeEqualsConstant(attrs[0], 1),))
