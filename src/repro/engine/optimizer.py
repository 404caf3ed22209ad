"""Constructive bounded-plan generation for CQ/UCQ queries (the practical path).

The exact VBRP procedures (:mod:`repro.core.vbrp`) enumerate all candidate
plans and are exponential by necessity.  Real systems instead *construct*
plans directly from the query, as outlined in Section 5.1 of the paper
("more practical algorithms for bounded rewriting using views can be
developed along the same lines as the bounded plan generation algorithm of
[Cao and Fan 2016]").  This module implements such a constructive builder:

1. cached views whose bodies map homomorphically into the query are added as
   free *filter/binder* fragments (scanning ``V(D)`` costs no I/O);
2. uncovered query atoms are then fetched through access constraints whose
   key attributes are already bound by constants, views or earlier fetches,
   in the order a Selinger-style subset search
   (:func:`repro.algebra.join_order.search_order`) finds cheapest in
   expected ``Dξ``, costed with the exact per-column value counts of the
   storage statistics;
3. the resulting plan is validated with the exact conformance checker, so
   every plan returned is sound — the builder is simply not complete.

Every conforming order answers the same rows, so the order changes only the
plan's ``Dξ``.  The cost model never reads a constant's value — a constant
key is priced at the column's second-moment bucket — so one plan serves
every value of a query shape.  Above ``max_dp_atoms`` uncovered atoms (or
when no abstract order is feasible, or the chosen one fails
materialisation) a greedy loop fetches the cheapest-average access path
first instead.  :func:`estimate_plan_fetches` is the shared cardinality
model: it walks any constructed plan and predicts its Dξ — pricing bound
constants by their value — which the service records next to the plan and
``explain()`` shows beside the IOMeter's actuals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

from ..algebra.containment import equivalent
from ..algebra.cq import ConjunctiveQuery
from ..algebra.homomorphism import iter_homomorphisms
from ..algebra.join_order import MAX_EXACT_ITEMS, SearchResult, search_order
from ..algebra.schema import DatabaseSchema
from ..algebra.terms import Constant, FreshVariableFactory, Param, Term, Variable
from ..algebra.ucq import QueryLike, UnionQuery, as_union
from ..algebra.views import View, ViewSet
from ..core.access import AccessConstraint, AccessSchema
from ..core.conformance import ConformanceMemo, conforms_to
from ..core.element_queries import ElementQueryBudget
from ..core.plans import (
    AttributeEqualsAttribute,
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
    join_on_shared_attributes,
)
from ..errors import SchemaError, UnsupportedQueryError

if TYPE_CHECKING:
    from ..storage.statistics import RelationStatistics


@dataclass
class _Fragment:
    """A plan fragment binding a set of query variables (attribute = var name).

    ``covers`` lists the indices of query atoms the fragment *accounts for*:
    atoms covered by a view usage whose expansion stays equivalent to the
    query do not need to be fetched at all (this is what makes Example 1.1's
    Q0 boundedly rewritable using V1).
    """

    plan: PlanNode
    bound: frozenset[Variable]
    covers: frozenset[int] = frozenset()


@dataclass(frozen=True)
class OrderCandidate:
    """One join order the cost-based orderer considered, with its model cost."""

    description: str
    cost: float
    chosen: bool = False


@dataclass(frozen=True)
class JoinOrderReport:
    """Why the cost-based builder picked the order it picked.

    ``strategy`` is ``"dp"`` when the subset DP chose the order, or a
    ``"greedy-fallback: <why>"`` string when the builder fell back to the
    greedy loop.  ``considered`` lists the chosen order first, then the best
    rejected completions, each with its abstract cost (expected probe calls
    + tuples fetched).  Plain strings and floats only — the report rides
    along in the plan cache and the persistent plan store.
    """

    strategy: str
    considered: tuple[OrderCandidate, ...] = ()


@dataclass(frozen=True)
class FetchEstimate:
    """Predicted cost of one fetch operator of a constructed plan."""

    relation: str
    access: str
    keys: float
    per_key: float
    fetched: float


@dataclass(frozen=True)
class PlanEstimate:
    """Predicted cardinalities of a whole plan (see :func:`estimate_plan_fetches`)."""

    rows: float
    total_fetched: float
    fetches: tuple[FetchEstimate, ...]


@dataclass
class PlanSearchOutcome:
    """Result of the heuristic plan construction.

    ``rejected`` says why candidate access paths were turned down (constraint
    tried + conformance reasons); it is appended to ``reason`` when no plan is found.
    """

    plan: PlanNode | None
    reason: str = ""
    fragments_used: int = 0
    order_report: JoinOrderReport | None = None
    rejected: tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        return self.plan is not None


def _view_usages(
    view: View, query: ConjunctiveQuery, max_homomorphisms: int = 8
) -> list[tuple[dict, frozenset[int]]]:
    """Ways of mapping the view body into the query (homomorphism + image atoms).

    Soundness of using such a view in a plan: when a homomorphism ``h`` from
    the view body into the query's tableau exists, every valuation satisfying
    the query also satisfies the view body (composed with ``h``), hence the
    corresponding head tuple is in ``V(D)`` — joining with the cached view
    never loses answers.  Whether the usage may additionally *replace* the
    atoms in its image is decided separately by an equivalence check of the
    expansion (see :func:`build_bounded_plan`).
    """
    if view.language not in ("CQ", "UCQ"):
        return []
    union = view.as_ucq()
    if len(union.disjuncts) != 1:
        return []
    definition = union.disjuncts[0].normalize()
    tableau = query.tableau()
    tableau_atoms = list(query.normalize().atoms)
    usages: list[tuple[dict, frozenset[int]]] = []
    seen: set[tuple] = set()
    for assignment in iter_homomorphisms(definition, tableau.facts()):
        key = tuple(sorted((v.name, repr(value)) for v, value in assignment.items()))
        if key in seen:
            continue
        seen.add(key)
        covered: set[int] = set()
        for body_atom in definition.atoms:
            image_terms = []
            for term in body_atom.terms:
                if isinstance(term, Constant):
                    image_terms.append(term)
                else:
                    value = assignment[term]
                    image_terms.append(value if isinstance(value, Variable) else Constant(value))
            for index, query_atom in enumerate(tableau_atoms):
                if (
                    query_atom.relation == body_atom.relation
                    and tuple(query_atom.terms) == tuple(image_terms)
                ):
                    covered.add(index)
        usages.append((assignment, frozenset(covered)))
        if len(usages) >= max_homomorphisms:
            break
    return usages


def _view_fragment(
    view: View,
    query: ConjunctiveQuery,
    assignment: dict,
    covers: frozenset[int],
) -> _Fragment | None:
    """Build the plan fragment for one view usage."""
    definition = view.as_ucq().disjuncts[0].normalize()
    images: list[object] = []
    for term in definition.head:
        if isinstance(term, Constant):
            images.append(term.value)
        else:
            images.append(assignment.get(term))
    scan: PlanNode = ViewScan(view.name, view.attributes)

    predicates = []
    keep: dict[Variable, str] = {}
    for attribute, image in zip(view.attributes, images):
        if isinstance(image, Variable):
            if image in keep:
                predicates.append(AttributeEqualsAttribute(keep[image], attribute))
            else:
                keep[image] = attribute
        else:
            predicates.append(AttributeEqualsConstant(attribute, image))
    if predicates:
        scan = SelectNode(scan, tuple(predicates))
    if not keep:
        # Boolean filter: nothing to bind; only useful when it also covers atoms.
        if not covers:
            return None
        scan = ProjectNode(scan, ())
        return _Fragment(plan=scan, bound=frozenset(), covers=covers)
    scan = ProjectNode(scan, tuple(attr for attr in keep.values()))
    rename = {attr: var.name for var, attr in keep.items() if attr != var.name}
    if rename:
        scan = RenameNode(scan, rename)
    return _Fragment(plan=scan, bound=frozenset(keep), covers=covers)


def _usage_body_atoms(
    view: View,
    assignment: dict,
    factory: FreshVariableFactory,
) -> tuple[tuple, tuple]:
    """The view body under the usage, renamed apart.

    Only the view's *head* variables are replaced by their homomorphic images
    — the plan can observe nothing but the view's output, so the existential
    variables of the definition must stay fresh.  This is the expansion used
    to decide whether the usage may replace the atoms in its image.
    """
    definition = view.as_ucq().disjuncts[0].normalize()
    renamed, mapping = definition.rename_apart(factory)
    head_variables = {t for t in definition.head if isinstance(t, Variable)}
    substitution: dict[Term, Term] = {}
    for original, value in assignment.items():
        if original not in head_variables:
            continue
        renamed_variable = mapping.get(original, original)
        substitution[renamed_variable] = (
            value if isinstance(value, Variable) else Constant(value)
        )
    substituted = renamed.substitute(substitution)
    return substituted.atoms, substituted.equalities


def _full_expansion(
    query: ConjunctiveQuery,
    usages: Sequence[tuple[View, dict, frozenset[int]]],
) -> ConjunctiveQuery:
    """Expansion of "query with all usage-covered atoms replaced by view bodies".

    Classical equivalence of this expansion with the original query certifies
    that dropping the covered atoms from the fetch obligations is lossless.
    """
    normalized = query.normalize()
    factory = FreshVariableFactory(
        used=[v.name for v in normalized.variables], prefix="vw"
    )
    removed: set[int] = set()
    extra_atoms: list = []
    extra_equalities: list = []
    for view, assignment, covered in usages:
        removed.update(covered)
        atoms, equalities = _usage_body_atoms(view, assignment, factory)
        extra_atoms.extend(atoms)
        extra_equalities.extend(equalities)
    kept_atoms = tuple(
        atom for index, atom in enumerate(normalized.atoms) if index not in removed
    )
    return ConjunctiveQuery(
        head=normalized.head,
        atoms=kept_atoms + tuple(extra_atoms),
        equalities=tuple(extra_equalities),
        name=f"{query.name}_expansion",
    )


def _fetch_feasible(
    query: ConjunctiveQuery,
    atom_index: int,
    constraint: AccessConstraint,
    schema: DatabaseSchema,
    bound: Collection[Variable],
    have_plan: bool,
    needed: set[int],
) -> bool:
    """Whether ``constraint`` can fetch ``query.atoms[atom_index]`` once the
    ``bound`` variables are bound (:func:`_atom_fetch` builds the fragment;
    the DP explores abstract orders with this predicate alone).

    Every X term must be a constant or an already-bound variable, and no
    variable may occupy two key positions (duplicating a column is not
    expressible with a single rename); the constraint must expose every
    ``needed`` position — constants, head variables, variables shared with
    other atoms, repeated variables within the atom.
    """
    atom = query.atoms[atom_index]
    if atom.relation != constraint.relation:
        return False
    relation = schema.relation(atom.relation)
    x_positions = relation.positions(constraint.x)
    y_positions = relation.positions(constraint.y)
    seen_key_variables: set[Variable] = set()
    for position in x_positions:
        term = atom.terms[position]
        if isinstance(term, Constant):
            continue
        if isinstance(term, Variable) and term in bound and term not in seen_key_variables:
            seen_key_variables.add(term)
            continue
        return False
    if not needed <= set(x_positions) | set(y_positions):
        return False
    # Without a plan to key by, only an all-constant key can be fetched.
    return have_plan or all(isinstance(atom.terms[p], Constant) for p in x_positions)


def _atom_fetch(
    atom_index: int,
    query: ConjunctiveQuery,
    constraint: AccessConstraint,
    schema: DatabaseSchema,
    bound: frozenset[Variable],
    current: PlanNode | None,
) -> _Fragment | None:
    """Fetch fragment covering ``query.atoms[atom_index]`` via ``constraint``."""
    atom = query.atoms[atom_index]
    needed = _needed_positions(query, atom_index)
    if not _fetch_feasible(
        query, atom_index, constraint, schema, bound, current is not None, needed
    ):
        return None
    relation = schema.relation(atom.relation)
    x_positions = relation.positions(constraint.x)

    # Build the key plan over the constraint's X attribute names.
    key_plan: PlanNode | None = None
    if constraint.x:
        variable_keys = []
        constant_keys = []
        for attr, position in zip(constraint.x, x_positions):
            term = atom.terms[position]
            if isinstance(term, Variable):
                variable_keys.append((attr, term))
            else:
                constant_keys.append((attr, term))
        if variable_keys:
            assert current is not None
            names = tuple(sorted({v.name for _, v in variable_keys}))
            key_plan = ProjectNode(current, names)
            rename = {v.name: attr for attr, v in variable_keys if v.name != attr}
            if rename:
                key_plan = RenameNode(key_plan, rename)
        for attr, term in constant_keys:
            scan = ConstantScan(term.value, attribute=attr)
            key_plan = scan if key_plan is None else join_on_shared_attributes(key_plan, scan)

    y_needed = tuple(
        relation.attributes[p]
        for p in sorted(needed)
        if relation.attributes[p] not in constraint.x
    )
    fetch: PlanNode = FetchNode(key_plan, atom.relation, constraint.x, y_needed)

    # Constant checks, repeated-variable checks, renaming to variable names.
    fetched_attrs = fetch.attributes
    term_of = {attr: atom.terms[relation.position(attr)] for attr in fetched_attrs}
    predicates = [
        AttributeEqualsConstant(attr, term.value)
        for attr, term in term_of.items()
        if isinstance(term, Constant)
    ]
    occurrences: dict[Variable, list[str]] = {}
    for attr in fetched_attrs:
        term = term_of[attr]
        if isinstance(term, Variable):
            occurrences.setdefault(term, []).append(attr)
    for variable, attrs in occurrences.items():
        for extra in attrs[1:]:
            predicates.append(AttributeEqualsAttribute(attrs[0], extra))
    if predicates:
        fetch = SelectNode(fetch, tuple(predicates))
    primary = [(attrs[0], variable) for variable, attrs in occurrences.items()]
    fetch = ProjectNode(fetch, tuple(attr for attr, _ in primary))
    rename = {attr: variable.name for attr, variable in primary if attr != variable.name}
    if rename:
        fetch = RenameNode(fetch, rename)
    return _Fragment(plan=fetch, bound=frozenset(v for _, v in primary))


def _ordered_constraints(
    candidates: Sequence[AccessConstraint],
    relation_name: str,
    schema: DatabaseSchema,
    statistics: "Mapping[str, RelationStatistics] | None",
) -> Sequence[AccessConstraint]:
    """Order candidate access paths by measured cost, cheapest first.

    The per-key cost of fetching through ``R(X -> Y, N)`` is the expected
    bucket size — cardinality scaled by the distinct counts of the key
    columns.  Without statistics the schema order is kept unchanged (the
    historical behaviour); the sort is stable, so equally priced constraints
    also keep it.
    """
    stats = statistics.get(relation_name) if statistics is not None else None
    if stats is None or len(candidates) <= 1:
        return candidates
    relation = schema.relation(relation_name)

    def cost(constraint: AccessConstraint) -> float:
        return stats.estimated_matches(relation.positions(constraint.x))

    return sorted(candidates, key=cost)


def _needed_positions(query: ConjunctiveQuery, atom_index: int) -> set[int]:
    atom = query.atoms[atom_index]
    other_variables: set[Variable] = set(query.head_variables)
    for index, other in enumerate(query.atoms):
        if index != atom_index:
            other_variables.update(other.variables)
    needed: set[int] = set()
    occurrences: dict[Variable, list[int]] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            needed.add(position)
        else:
            occurrences.setdefault(term, []).append(position)
            if term in other_variables:
                needed.add(position)
    for positions in occurrences.values():
        if len(positions) > 1:
            needed.update(positions)
    return needed


def _view_cover(
    normalized: ConjunctiveQuery, views: ViewSet
) -> tuple[list[_Fragment], set[int]]:
    """Step 1 of plan construction: view fragments (free, cached).

    A usage whose expansion remains classically equivalent to the query may
    *cover* the atoms in its image, removing them from the fetch
    obligations; other usages act as filters and binders only.
    """
    fragments: list[_Fragment] = []
    accepted_usages: list[tuple[View, dict, frozenset[int]]] = []
    covered_by_views: set[int] = set()
    for view in views:
        best: tuple[dict, frozenset[int]] | None = None
        for assignment, covered in _view_usages(view, normalized):
            if best is None or len(covered) > len(best[1]):
                best = (assignment, covered)
        if best is None:
            continue
        assignment, covered = best
        usable_coverage: frozenset[int] = frozenset()
        if covered - covered_by_views:
            # Largest subset of the image whose replacement keeps the
            # expansion equivalent to the query (image sets are tiny, so the
            # subset sweep is cheap).
            candidates = sorted(
                (frozenset(subset)
                 for size in range(len(covered), 0, -1)
                 for subset in itertools.combinations(sorted(covered), size)),
                key=len,
                reverse=True,
            )
            for subset in candidates:
                candidate_usages = accepted_usages + [(view, assignment, subset)]
                if equivalent(_full_expansion(normalized, candidate_usages), normalized):
                    usable_coverage = subset
                    accepted_usages.append((view, assignment, subset))
                    break
        fragment = _view_fragment(view, normalized, assignment, usable_coverage)
        if fragment is None:
            continue
        fragments.append(fragment)
        covered_by_views |= set(usable_coverage)
    return fragments, covered_by_views


def _join_fragments(
    fragments: Sequence[_Fragment],
) -> tuple[PlanNode | None, frozenset[Variable]]:
    current: PlanNode | None = None
    bound: frozenset[Variable] = frozenset()
    for fragment in fragments:
        current = fragment.plan if current is None else join_on_shared_attributes(
            current, fragment.plan
        )
        bound |= fragment.bound
    return current, bound


@dataclass
class _PlanningRun:
    """State of one ``build_bounded_plan*`` call: fetch inputs already decided
    (candidate fragments and the assembled plan share them) and why candidate
    access paths were turned down (insertion-ordered, deduplicated)."""

    memo: ConformanceMemo = field(default_factory=dict)
    rejected: dict[str, None] = field(default_factory=dict)


def _fragment_conforms(
    fragment: _Fragment,
    constraint: AccessConstraint,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    views: ViewSet,
    budget: ElementQueryBudget | None,
    run: _PlanningRun,
) -> bool:
    """Conformance of one candidate fetch fragment, keeping the reasons of a refusal."""
    report = conforms_to(fragment.plan, access_schema, schema, views, budget, memo=run.memo)
    for reason in report.reasons:
        run.rejected[f"{constraint} rejected: {reason}"] = None
    return report.conforms


def _greedy_fetch_loop(
    normalized: ConjunctiveQuery,
    uncovered: set[int],
    current: PlanNode | None,
    bound: frozenset[Variable],
    views: ViewSet,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    budget: ElementQueryBudget | None,
    verify_conformance: bool,
    statistics: "Mapping[str, RelationStatistics] | None",
    run: _PlanningRun,
) -> tuple[PlanNode | None, frozenset[Variable], set[int]]:
    """Step 2 of the greedy builder: fetch uncovered atoms cheapest-path first.

    A candidate fetch whose key depends on previously bound variables is
    only accepted when its input provably has bounded output under A
    (checked through the conformance procedure on the fragment); otherwise
    the next covering constraint is tried — e.g. a constraint keyed on the
    atom's constants instead of on an unbounded view.
    """
    uncovered = set(uncovered)
    progress = True
    while uncovered and progress:
        progress = False
        for atom_index in sorted(uncovered):
            relation_name = normalized.atoms[atom_index].relation
            for constraint in _ordered_constraints(
                access_schema.for_relation(relation_name),
                relation_name,
                schema,
                statistics,
            ):
                fragment = _atom_fetch(
                    atom_index, normalized, constraint, schema, bound, current
                )
                if fragment is None:
                    continue
                if verify_conformance and not _fragment_conforms(
                    fragment, constraint, access_schema, schema, views, budget, run
                ):
                    continue
                current = (
                    fragment.plan
                    if current is None
                    else join_on_shared_attributes(current, fragment.plan)
                )
                bound |= fragment.bound
                uncovered.discard(atom_index)
                progress = True
                break
            if progress:
                break
    return current, bound, uncovered


def _finish_plan(
    normalized: ConjunctiveQuery,
    head_variables: Sequence[Variable],
    current: PlanNode | None,
    fragments_used: int,
    uncovered: set[int],
    max_size: int | None,
    verify_conformance: bool,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    views: ViewSet,
    budget: ElementQueryBudget | None,
    run: _PlanningRun,
) -> PlanSearchOutcome:
    """Head projection, size cap and final conformance check (shared tail)."""
    if uncovered:
        rejected = tuple(run.rejected)
        return PlanSearchOutcome(
            plan=None,
            reason="; ".join(
                (f"{len(uncovered)} atoms cannot be fetched under the access schema",)
                + rejected
            ),
            fragments_used=fragments_used,
            rejected=rejected,
        )
    if current is None:
        return PlanSearchOutcome(plan=None, reason="query has no atoms to plan for")

    missing_heads = [v for v in head_variables if v.name not in current.attributes]
    if missing_heads:
        return PlanSearchOutcome(
            plan=None,
            reason=f"head variables {missing_heads} are not produced by any fragment",
        )

    plan: PlanNode = current
    head_names = []
    for term in normalized.head:
        if isinstance(term, Variable):
            head_names.append(term.name)
        else:
            scan = ConstantScan(term.value, attribute=f"_const_{len(head_names)}")
            plan = join_on_shared_attributes(plan, scan)
            head_names.append(f"_const_{len(head_names)}")
    plan = ProjectNode(plan, tuple(head_names))

    if max_size is not None and plan.size() > max_size:
        return PlanSearchOutcome(
            plan=None, reason=f"constructed plan has {plan.size()} nodes > M={max_size}"
        )
    if verify_conformance:
        report = conforms_to(plan, access_schema, schema, views, budget, memo=run.memo)
        if not report.conforms:
            return PlanSearchOutcome(
                plan=None,
                reason="constructed plan does not conform to the access schema: "
                + "; ".join(report.reasons),
                fragments_used=fragments_used,
            )
    return PlanSearchOutcome(plan=plan, fragments_used=fragments_used)


# --------------------------------------------------------------------------- #
# Cost-based join ordering
# --------------------------------------------------------------------------- #

#: Distinct-count stand-in for variables with no statistics at all.
_UNKNOWN_DISTINCT = 1.0e12

#: Uncovered-atom count above which the builder fetches with the greedy loop.
DEFAULT_MAX_DP_ATOMS = MAX_EXACT_ITEMS


def _global_distincts(
    query: ConjunctiveQuery,
    schema: DatabaseSchema,
    statistics: "Mapping[str, RelationStatistics] | None",
) -> dict[Variable, float]:
    """Per-variable distinct-count upper bound: min over all its columns."""
    distincts: dict[Variable, float] = {}
    for atom in query.atoms:
        stats = statistics.get(atom.relation) if statistics is not None else None
        if stats is None:
            continue
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable) and position < len(stats.distinct):
                count = float(max(1, stats.distinct[position]))
                distincts[term] = min(distincts.get(term, _UNKNOWN_DISTINCT), count)
    return distincts


def _apply_step(
    query: ConjunctiveQuery,
    atom_index: int,
    constraint: AccessConstraint,
    schema: DatabaseSchema,
    statistics: "Mapping[str, RelationStatistics] | None",
    rows: float,
    var_dist: dict[Variable, float],
    have_plan: bool,
    needed: set[int],
    gdist: Mapping[Variable, float],
) -> tuple[float, float, dict[Variable, float]] | None:
    """Cost one (atom, constraint) fetch step of an abstract join order.

    Returns ``(step_cost, new_rows, new_var_dist)`` or ``None`` when the
    step is infeasible in the current state.  The cost charges what the
    IOMeter will charge: one probe call per distinct key plus the tuples
    those probes return.  The column statistics make ``per_key``
    skew-aware without reading any value: a key position holding a
    constant — literal or a lifted :class:`Param` slot — is priced at the
    column's second moment (``skewed_bucket``, the hot-key signal the
    whole-column average hides), a variable key at the average bucket.  One
    order is then right for every value of a query shape, so plans are
    shared per shape.
    """
    if not _fetch_feasible(
        query, atom_index, constraint, schema, var_dist, have_plan, needed
    ):
        return None
    atom = query.atoms[atom_index]
    relation = schema.relation(atom.relation)
    stats = statistics.get(atom.relation) if statistics is not None else None
    x_positions = relation.positions(constraint.x)
    constant_positions: set[int] = set()
    key_variables: set[Variable] = set()
    for position in x_positions:
        term = atom.terms[position]
        if isinstance(term, Constant):
            constant_positions.add(position)
        else:
            key_variables.add(term)

    if stats is None:
        per_key = float(constraint.bound)
    else:
        per_key = max(
            0.0, stats.estimated_matches_with(x_positions, unread=constant_positions)
        )
        if x_positions:
            per_key = min(per_key, float(constraint.bound))

    if key_variables:
        keys = 1.0
        for variable in key_variables:
            keys *= max(1.0, var_dist.get(variable, gdist.get(variable, _UNKNOWN_DISTINCT)))
        keys = min(max(rows, 1.0), keys)
    else:
        keys = 1.0
    fetched = keys * per_key
    step_cost = keys + fetched

    # Result size: each prefix row meets its bucket, then equalities with
    # already-bound non-key variables filter further.
    new_rows = (max(rows, 1.0) if have_plan else 1.0) * per_key
    output_positions = set(x_positions) | needed
    for position in sorted(output_positions - set(x_positions)):
        term = atom.terms[position]
        if isinstance(term, Variable) and term in var_dist:
            new_rows /= max(1.0, var_dist[term])
    new_rows = max(new_rows, 1e-3)

    new_var_dist = dict(var_dist)
    for position in sorted(output_positions):
        term = atom.terms[position]
        if isinstance(term, Variable) and term not in new_var_dist:
            cap = gdist.get(term, _UNKNOWN_DISTINCT)
            new_var_dist[term] = max(1.0, min(cap, fetched, new_rows))
    return step_cost, new_rows, new_var_dist


def _order_description(
    query: ConjunctiveQuery, order: Sequence[tuple[int, AccessConstraint]]
) -> str:
    steps = []
    for atom_index, constraint in order:
        key = ",".join(constraint.x) if constraint.x else "∅"
        steps.append(f"{query.atoms[atom_index].relation}[{key}→]")
    return " ⋈ ".join(steps)


def _dp_order(
    query: ConjunctiveQuery,
    uncovered: Iterable[int],
    schema: DatabaseSchema,
    access_schema: AccessSchema,
    statistics: "Mapping[str, RelationStatistics] | None",
    bound0: frozenset[Variable],
    have_plan0: bool,
    needed_positions: Mapping[int, set[int]],
    gdist: Mapping[Variable, float],
) -> SearchResult | None:
    """The subset search of :mod:`repro.algebra.join_order` over (atom,
    access-constraint) fetch steps priced by :func:`_apply_step`; the
    search state is (estimated rows, per-variable distinct estimates)."""

    def extend(state, covered, atom_index):
        rows, var_dist = state
        have_plan = have_plan0 or bool(covered)
        for constraint in access_schema.for_relation(query.atoms[atom_index].relation):
            step = _apply_step(
                query, atom_index, constraint, schema, statistics,
                rows, var_dist, have_plan, needed_positions[atom_index], gdist,
            )
            if step is not None:
                step_cost, new_rows, new_var_dist = step
                yield constraint, step_cost, (new_rows, new_var_dist)

    start = (
        1.0 if have_plan0 else 0.0,
        {v: gdist.get(v, _UNKNOWN_DISTINCT) for v in bound0},
    )
    # Exact throughout: the builder sends sets above its DP limit to the
    # greedy loop, which also checks conformance as it goes.
    uncovered = tuple(uncovered)
    return search_order(uncovered, start, extend, max_exact=len(uncovered))


def build_bounded_plan(
    query: ConjunctiveQuery,
    views: ViewSet,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    max_size: int | None = None,
    budget: ElementQueryBudget | None = None,
    verify_conformance: bool = True,
    statistics: "Mapping[str, RelationStatistics] | None" = None,
    max_dp_atoms: int = DEFAULT_MAX_DP_ATOMS,
    report_candidates: int = 4,
) -> PlanSearchOutcome:
    """Construct a bounded plan for a CQ, or report why none was found.

    The returned plan (when found) is equivalent to the query by construction
    — every atom is enforced by a fetch, views only add implied filters — and
    is checked for conformance to the access schema unless
    ``verify_conformance`` is disabled.  Views cover what they can first;
    the uncovered atoms are then fetched in the order the subset search
    (:func:`_dp_order`) finds cheapest under ``statistics``, materialised
    fragment by fragment through
    :func:`_atom_fetch`.  Above ``max_dp_atoms`` atoms, or when no abstract
    order is feasible or the chosen one fails materialisation, the greedy
    loop fetches them instead; the outcome's :class:`JoinOrderReport` says
    which ran and why.
    """
    normalized = query.normalize()
    head_variables = [t for t in normalized.head if isinstance(t, Variable)]
    if len(set(head_variables)) != len(head_variables):
        raise UnsupportedQueryError(
            "the heuristic plan builder requires distinct head variables"
        )
    fragments, covered_by_views = _view_cover(normalized, views)
    current, bound = _join_fragments(fragments)
    uncovered = set(range(len(normalized.atoms))) - covered_by_views
    run = _PlanningRun()

    def finish(plan: PlanNode | None, left: set[int]) -> PlanSearchOutcome:
        return _finish_plan(
            normalized, head_variables, plan, len(fragments), left,
            max_size, verify_conformance, access_schema, schema, views, budget, run,
        )

    def greedy_fallback(why: str) -> PlanSearchOutcome:
        g_current, _, g_left = _greedy_fetch_loop(
            normalized, uncovered, current, bound, views, access_schema,
            schema, budget, verify_conformance, statistics, run,
        )
        outcome = finish(g_current, g_left)
        outcome.order_report = JoinOrderReport(strategy=f"greedy-fallback: {why}")
        return outcome

    if len(uncovered) > max_dp_atoms:
        return greedy_fallback(
            f"{len(uncovered)} atoms exceed the DP limit of {max_dp_atoms}"
        )

    needed_positions = {
        atom_index: _needed_positions(normalized, atom_index)
        for atom_index in uncovered
    }
    gdist = _global_distincts(normalized, schema, statistics)
    dp = _dp_order(
        normalized, uncovered, schema, access_schema, statistics,
        bound, current is not None, needed_positions, gdist,
    )
    if dp is None:
        return greedy_fallback("no feasible complete DP order")

    m_current, m_bound = current, bound
    for atom_index, constraint in dp.order:
        fragment = _atom_fetch(
            atom_index, normalized, constraint, schema, m_bound, m_current
        )
        if fragment is None or (
            verify_conformance
            and not _fragment_conforms(
                fragment, constraint, access_schema, schema, views, budget, run
            )
        ):
            return greedy_fallback("chosen DP order failed materialisation")
        m_current = (
            fragment.plan
            if m_current is None
            else join_on_shared_attributes(m_current, fragment.plan)
        )
        m_bound |= fragment.bound

    outcome = finish(m_current, set())
    if not outcome.found:
        return greedy_fallback(f"DP plan rejected: {outcome.reason}")

    # Chosen-vs-rejected report: the winner, then the best distinct
    # runner-up completions.
    considered = [
        OrderCandidate(_order_description(normalized, dp.order), dp.cost, chosen=True)
    ]
    seen_orders = {dp.order}
    for candidate_cost, candidate_order in sorted(
        dp.completions, key=lambda item: item[0]
    ):
        if len(considered) > report_candidates:
            break
        if candidate_order in seen_orders:
            continue
        seen_orders.add(candidate_order)
        considered.append(
            OrderCandidate(
                _order_description(normalized, candidate_order), candidate_cost
            )
        )
    outcome.order_report = JoinOrderReport(
        strategy="dp", considered=tuple(considered)
    )
    return outcome


def _union_aligned(sub_plans: Sequence[PlanNode]) -> PlanNode:
    """Union the per-disjunct plans, renaming attributes to the first's."""
    plan = sub_plans[0]
    target_attrs = plan.attributes
    for sub_plan in sub_plans[1:]:
        aligned = sub_plan
        if aligned.attributes != target_attrs:
            rename = {
                old: new
                for old, new in zip(aligned.attributes, target_attrs)
                if old != new
            }
            aligned = RenameNode(aligned, rename) if rename else aligned
        plan = UnionNode(plan, aligned)
    return plan


def build_bounded_plan_ucq(
    query: QueryLike,
    views: ViewSet,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
    max_size: int | None = None,
    budget: ElementQueryBudget | None = None,
    statistics: "Mapping[str, RelationStatistics] | None" = None,
    max_dp_atoms: int = DEFAULT_MAX_DP_ATOMS,
) -> PlanSearchOutcome:
    """Construct a bounded plan for a UCQ (one sub-plan per disjunct, unioned)."""
    union = as_union(query)
    sub_plans: list[PlanNode] = []
    strategies: list[str] = []
    considered: list[OrderCandidate] = []
    for disjunct in union.disjuncts:
        outcome = build_bounded_plan(
            disjunct, views, access_schema, schema, max_size, budget,
            statistics=statistics, max_dp_atoms=max_dp_atoms,
        )
        if not outcome.found:
            return PlanSearchOutcome(
                plan=None,
                reason=f"disjunct {disjunct.name!r}: {outcome.reason}",
                rejected=outcome.rejected,
            )
        sub_plans.append(outcome.plan)  # type: ignore[arg-type]
        if outcome.order_report is not None:
            strategies.append(outcome.order_report.strategy)
            prefix = f"{disjunct.name}: " if len(union.disjuncts) > 1 else ""
            considered.extend(
                OrderCandidate(prefix + c.description, c.cost, c.chosen)
                for c in outcome.order_report.considered
            )
    plan = _union_aligned(sub_plans)
    if max_size is not None and plan.size() > max_size:
        return PlanSearchOutcome(
            plan=None, reason=f"constructed plan has {plan.size()} nodes > M={max_size}"
        )
    strategy = "dp" if all(s == "dp" for s in strategies) else "; ".join(
        dict.fromkeys(strategies)
    )
    return PlanSearchOutcome(
        plan=plan,
        order_report=JoinOrderReport(strategy=strategy, considered=tuple(considered)),
    )


# --------------------------------------------------------------------------- #
# Plan-wide cardinality estimation (shared by all planners)
# --------------------------------------------------------------------------- #


def estimate_plan_fetches(
    plan: PlanNode,
    statistics: "Mapping[str, RelationStatistics] | None",
    schema: DatabaseSchema,
    view_sizes: Mapping[str, int] | None = None,
    bindings: Mapping[str, object] | None = None,
) -> PlanEstimate:
    """Predict the Dξ of a constructed plan, fetch by fetch.

    Walks the plan bottom-up carrying (rows, per-attribute distinct counts)
    and prices every :class:`FetchNode` with the column statistics the join
    orderer reads: keys = the child's (already deduplicated) rows, per-key
    from ``estimate_eq`` for constant key columns — unlike the orderer, the
    estimate reads the value, so a hot key shows at its exact count — and
    the average bucket for variable ones.  The service records this
    estimate on the cached plan at planning time, and ``explain()`` shows
    it beside the IOMeter's last actual Dξ.  A key that is a :class:`Param`
    is priced with its value in ``bindings`` when named there, and as an
    unknown value (the average bucket) otherwise.
    """
    fetches: list[FetchEstimate] = []
    known = bindings or {}

    def constants_below(node: PlanNode) -> dict[str, object]:
        return {
            scan.attribute: (
                known.get(scan.value.name, scan.value)
                if isinstance(scan.value, Param)
                else scan.value
            )
            for scan in node.iter_nodes()
            if isinstance(scan, ConstantScan)
        }

    def walk(node: PlanNode) -> tuple[float, dict[str, float]]:
        if isinstance(node, ConstantScan):
            return 1.0, {node.attribute: 1.0}
        if isinstance(node, ViewScan):
            size = 100.0
            if view_sizes is not None and node.view_name in view_sizes:
                size = float(view_sizes[node.view_name])
            return size, {attr: size for attr in node.attributes}
        if isinstance(node, FetchNode):
            if node.child is None:
                keys = 1.0
                child_dist: dict[str, float] = {}
            else:
                child_rows, child_dist = walk(node.child)
                keys = max(child_rows, 1.0)
            relation = schema.relation(node.relation)
            stats = statistics.get(node.relation) if statistics is not None else None
            x_positions = relation.positions(node.x_attrs)
            child_constants = (
                constants_below(node.child) if node.child is not None else {}
            )
            constants = {
                position: child_constants[attr]
                for attr, position in zip(node.x_attrs, x_positions)
                if attr in child_constants
            }
            if stats is None:
                per_key = 1.0
            else:
                per_key = max(0.0, stats.estimated_matches_with(x_positions, constants))
            fetched = keys * per_key
            access = (
                f"{node.relation}({','.join(node.x_attrs) or '∅'}"
                f"→{','.join(node.y_attrs)})"
            )
            fetches.append(
                FetchEstimate(
                    relation=node.relation,
                    access=access,
                    keys=keys,
                    per_key=per_key,
                    fetched=fetched,
                )
            )
            dist: dict[str, float] = {}
            for attr in node.attributes:
                if attr in child_dist:
                    dist[attr] = child_dist[attr]
                else:
                    try:
                        position = relation.position(attr)
                    except SchemaError:
                        position = -1
                    column = (
                        float(stats.distinct[position])
                        if stats is not None and 0 <= position < len(stats.distinct)
                        else fetched
                    )
                    dist[attr] = max(1.0, min(column, fetched))
            return fetched, dist
        if isinstance(node, SelectNode):
            rows, dist = walk(node.child)
            for predicate in node.predicates:
                if isinstance(predicate, AttributeEqualsConstant):
                    rows /= max(1.0, dist.get(predicate.attribute, 10.0))
                    dist[predicate.attribute] = 1.0
                else:
                    left = dist.get(predicate.left, 10.0)
                    right = dist.get(predicate.right, 10.0)
                    rows /= max(1.0, max(left, right))
                    shared = max(1.0, min(left, right))
                    dist[predicate.left] = shared
                    dist[predicate.right] = shared
            return max(rows, 0.0), dist
        if isinstance(node, ProjectNode):
            rows, dist = walk(node.child)
            if node.kept:
                ceiling = 1.0
                for attr in node.kept:
                    ceiling *= dist.get(attr, rows if rows > 0 else 1.0)
                rows = min(rows, ceiling)
            else:
                rows = min(rows, 1.0)
            return rows, {attr: dist.get(attr, rows) for attr in node.kept}
        if isinstance(node, RenameNode):
            rows, dist = walk(node.child)
            mapping = dict(node.mapping)
            return rows, {mapping.get(attr, attr): d for attr, d in dist.items()}
        if isinstance(node, ProductNode):
            left_rows, left_dist = walk(node.left)
            right_rows, right_dist = walk(node.right)
            return left_rows * right_rows, {**left_dist, **right_dist}
        if isinstance(node, UnionNode):
            left_rows, left_dist = walk(node.left)
            right_rows, right_dist = walk(node.right)
            merged = {
                attr: max(left_dist.get(attr, 1.0), right_dist.get(attr, 1.0))
                for attr in set(left_dist) | set(right_dist)
            }
            return left_rows + right_rows, merged
        if isinstance(node, DifferenceNode):
            left_rows, left_dist = walk(node.left)
            walk(node.right)
            return left_rows, left_dist
        # Unknown node type: neutral element, no fetches below by definition.
        rows = 1.0
        dist = {attr: 1.0 for attr in node.attributes}
        for child in node.children:
            child_rows, child_dist = walk(child)
            rows = max(rows, child_rows)
            dist.update(child_dist)
        return rows, dist

    rows, _ = walk(plan)
    total = sum(estimate.fetched for estimate in fetches)
    return PlanEstimate(rows=rows, total_fetched=total, fetches=tuple(fetches))
