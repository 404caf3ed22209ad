"""The typed plan-IR checker and boundedness-certificate builder.

:func:`verify_plan` walks any physical plan — from any planner in the
service's fallback chain, or hand-built — and verifies, per node:

* **schema correctness** — output attributes are duplicate-free and every
  operator's attribute bookkeeping is consistent with its children
  (projections keep existing columns, selections reference existing columns,
  unions/differences have identical layouts, products disjoint ones);
* **access-constraint conformance** — every ``fetch`` names a relation and
  attributes that exist, its ``X``-columns are exactly bound by its child at
  that point in the plan, and a declared access constraint covers it
  (condition (a) of Lemma 3.8);
* **boundedness** — the input of every ``fetch`` has bounded output under
  the access schema (condition (b)), decided exactly through the
  element-query procedure of Theorem 3.4 and *witnessed* by a
  :class:`~repro.analysis.diagnostics.FetchCertificate`: the chain of
  ``cov(Q, A)`` derivation steps covering each ``X``-attribute, or a minimal
  uncovered-variable counterexample.

The checks deliberately re-derive everything from node *fields* rather than
trusting constructor invariants, so corrupted plans (the seeded mutations of
``tests/test_analysis.py``, or a buggy planner bypassing the constructors)
are caught even though the constructors would have rejected them.

:func:`verify_delta_program` applies the same discipline to the maintenance
kernel's delta program — the delta rules and support checks
:mod:`repro.exec.delta_compiler` rewrites a view into, plain CQs: one rule
per body atom, every relation in the schema at its declared arity, a safe
head.
"""

from __future__ import annotations

from typing import Sequence

from ..algebra.atoms import RelationAtom
from ..algebra.cq import ConjunctiveQuery
from ..algebra.schema import DatabaseSchema
from ..algebra.terms import Constant, Variable
from ..algebra.views import ViewSet
from ..core.access import AccessSchema
from ..core.bounded_output import bounded_output_witness
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
)
from ..core.rewriting import plan_to_ucq
from ..errors import (
    BudgetExceededError,
    PlanError,
    SchemaError,
    UnsupportedQueryError,
)
from ..exec.delta_compiler import (
    SEED_RELATION,
    CompiledViewDelta,
    counting_eligible,
    delta_relation,
)
from .diagnostics import (
    BoundednessCounterexample,
    CoverageStep,
    FetchCertificate,
    VerificationReport,
)


def verify_plan(
    plan: PlanNode,
    schema: DatabaseSchema,
    *,
    views: ViewSet | None = None,
    access_schema: AccessSchema | None = None,
    budget: ElementQueryBudget | None = None,
    expected_attributes: Sequence[str] | None = None,
    expected_arity: int | None = None,
    check_boundedness: bool = True,
    subject: str = "",
) -> VerificationReport:
    """Statically verify a physical plan; see the module docstring.

    ``expected_attributes`` / ``expected_arity`` pin the root schema (the
    service passes the query's head arity); ``check_boundedness`` gates the
    exact (worst-case exponential) bounded-output decision — structural and
    conformance checks always run.
    """
    report = VerificationReport(subject=subject or f"plan({plan.label()})")
    _check_node(plan, (), schema, views, access_schema, report)
    _check_root(plan, expected_attributes, expected_arity, report)
    if access_schema is not None and check_boundedness and report.ok:
        _check_boundedness(plan, schema, views, access_schema, budget, report)
    return report


def codegen_eligibility(
    plan: PlanNode,
    schema: DatabaseSchema,
    *,
    views: ViewSet | None = None,
    access_schema: AccessSchema | None = None,
    budget: ElementQueryBudget | None = None,
    expected_arity: int | None = None,
    subject: str = "",
) -> VerificationReport:
    """Decide whether a plan may be compiled to a specialized closure.

    The closure compiler checks only that each fetch is covered and that
    every attribute a node reads exists, so the gate is the full
    :func:`verify_plan` discipline: a plan is only codegen-eligible once it
    verifies (schema bookkeeping, access-constraint conformance,
    boundedness).  Every plan that runs passes it — a cached plan when the
    service admits it, a hand-built one in ``QueryService.execute_plan``.  The typed errors the verifier can raise
    (budget exhausted, malformed plan) are folded into a failing report, so
    the service admitting a plan has one verdict to turn into its
    :class:`~repro.errors.PlanVerificationError`.
    """
    subject = subject or f"codegen({plan.label()})"
    try:
        return verify_plan(
            plan,
            schema,
            views=views,
            access_schema=access_schema,
            budget=budget,
            expected_arity=expected_arity,
            subject=subject,
        )
    except BudgetExceededError as exc:
        report = VerificationReport(subject=subject)
        report.add(
            "codegen.budget-exceeded",
            f"boundedness check exceeded its budget: {exc}",
        )
        return report
    except (PlanError, SchemaError, UnsupportedQueryError) as exc:
        report = VerificationReport(subject=subject)
        report.add("codegen.verifier-error", f"plan verification failed: {exc}")
        return report


def delta_codegen_eligibility(
    compiled: CompiledViewDelta,
    schema: DatabaseSchema,
) -> VerificationReport:
    """Decide whether a view's delta program may be compiled to loop nests.

    The maintainer compiles every rule and support check with
    :func:`repro.exec.cq_compiler.compile_cq`, which trusts the relations,
    arities and head it is given, so the gate is the full
    :func:`verify_delta_program` discipline.  Like
    :func:`codegen_eligibility`, typed verifier errors are folded into a
    failing report; the maintainer turns a failing report into a
    :class:`~repro.errors.DeltaCompilationError` naming the view.
    """
    subject = f"delta-codegen({compiled.name})"
    try:
        report = verify_delta_program(compiled, schema)
        report.subject = subject
        return report
    except (PlanError, SchemaError, UnsupportedQueryError) as exc:
        report = VerificationReport(subject=subject)
        report.add(
            "delta-codegen.verifier-error",
            f"delta program verification failed: {exc}",
        )
        return report


# --------------------------------------------------------------------------- #
# Structural / conformance checks (field-level, constructor-independent)
# --------------------------------------------------------------------------- #


def _check_root(
    plan: PlanNode,
    expected_attributes: Sequence[str] | None,
    expected_arity: int | None,
    report: VerificationReport,
) -> None:
    attributes = plan.attributes
    if expected_attributes is not None and tuple(expected_attributes) != attributes:
        report.add(
            "plan.root.schema",
            f"plan produces attributes {attributes}, expected "
            f"{tuple(expected_attributes)}",
        )
    elif expected_arity is not None and len(attributes) != expected_arity:
        report.add(
            "plan.root.arity",
            f"plan produces {len(attributes)} columns, the query head has "
            f"{expected_arity}",
        )


def _check_node(
    node: PlanNode,
    path: tuple[int, ...],
    schema: DatabaseSchema,
    views: ViewSet | None,
    access_schema: AccessSchema | None,
    report: VerificationReport,
) -> None:
    attributes = node.attributes
    if len(set(attributes)) != len(attributes):
        report.add(
            "plan.schema.duplicate-attributes",
            f"{node.label()} produces duplicate attribute names {attributes}",
            path=path,
        )
    if isinstance(node, FetchNode):
        _check_fetch(node, path, schema, access_schema, report)
    elif isinstance(node, ViewScan):
        _check_view_scan(node, path, views, report)
    elif isinstance(node, ProjectNode):
        missing = [a for a in node.kept if a not in node.child.attributes]
        if missing:
            report.add(
                "plan.project.unknown-attribute",
                f"projection keeps {missing} which the child does not produce "
                f"(child has {node.child.attributes})",
                path=path,
            )
    elif isinstance(node, SelectNode):
        _check_select(node, path, report)
    elif isinstance(node, RenameNode):
        unknown = [old for old, _ in node.mapping if old not in node.child.attributes]
        if unknown:
            report.add(
                "plan.rename.unknown-attribute",
                f"rename refers to {unknown} which the child does not produce",
                path=path,
            )
    elif isinstance(node, ProductNode):
        overlap = set(node.left.attributes) & set(node.right.attributes)
        if overlap:
            report.add(
                "plan.product.overlap",
                f"product sides share attributes {sorted(overlap)}",
                path=path,
            )
    elif isinstance(node, UnionNode):
        if node.left.attributes != node.right.attributes:
            report.add(
                "plan.union.schema-mismatch",
                f"union sides produce {node.left.attributes} vs "
                f"{node.right.attributes}",
                path=path,
            )
    elif isinstance(node, DifferenceNode):
        if node.left.attributes != node.right.attributes:
            report.add(
                "plan.difference.schema-mismatch",
                f"difference sides produce {node.left.attributes} vs "
                f"{node.right.attributes}",
                path=path,
            )
    elif not isinstance(node, ConstantScan):
        report.add(
            "plan.unknown-node",
            f"unknown plan node type {type(node).__name__}",
            path=path,
        )
    for index, child in enumerate(node.children):
        _check_node(child, path + (index,), schema, views, access_schema, report)


def _check_fetch(
    node: FetchNode,
    path: tuple[int, ...],
    schema: DatabaseSchema,
    access_schema: AccessSchema | None,
    report: VerificationReport,
) -> None:
    try:
        relation = schema.relation(node.relation)
    except SchemaError:
        report.add(
            "plan.fetch.unknown-relation",
            f"fetch names unknown relation {node.relation!r}",
            path=path,
            subject=node.relation,
        )
        return
    unknown = [
        a for a in node.x_attrs + node.y_attrs if a not in relation.attributes
    ]
    if unknown:
        report.add(
            "plan.fetch.unknown-attribute",
            f"fetch on {node.relation!r} names attributes {unknown} the "
            f"relation does not have",
            path=path,
            subject=node.relation,
        )
    if node.child is None:
        if node.x_attrs:
            report.add(
                "plan.fetch.unbound-key",
                f"fetch on {node.relation!r} has X={node.x_attrs} but no "
                "child plan binding them",
                path=path,
                subject=node.relation,
            )
    else:
        child_attrs = set(node.child.attributes)
        unbound = [a for a in node.x_attrs if a not in child_attrs]
        extra = [a for a in node.child.attributes if a not in set(node.x_attrs)]
        if unbound or extra:
            details = []
            if unbound:
                details.append(f"X-columns {unbound} are not bound by the input")
            if extra:
                details.append(f"input columns {extra} are not fetch keys")
            report.add(
                "plan.fetch.unbound-key",
                f"fetch on {node.relation!r}: " + "; ".join(details)
                + f" (child produces {node.child.attributes}, X={node.x_attrs})",
                path=path,
                subject=node.relation,
            )
    if access_schema is not None and node.covering_constraint(access_schema) is None:
        report.add(
            "plan.fetch.no-constraint",
            f"no declared access constraint covers fetch({node.x_attrs} ∈ _, "
            f"{node.relation}, {node.y_attrs}); available: "
            + ("; ".join(str(c) for c in access_schema.for_relation(node.relation))
               or "none for this relation"),
            path=path,
            subject=node.relation,
        )


def _check_view_scan(
    node: ViewScan,
    path: tuple[int, ...],
    views: ViewSet | None,
    report: VerificationReport,
) -> None:
    if views is None:
        return  # caller did not supply the view set; nothing to check against
    if node.view_name not in views:
        report.add(
            "plan.view.unknown",
            f"plan scans unknown view {node.view_name!r}; known views: "
            + (", ".join(sorted(views.names)) or "none"),
            path=path,
            subject=node.view_name,
        )
        return
    view = views.view(node.view_name)
    if view.arity != len(node.view_attributes):
        report.add(
            "plan.view.arity",
            f"view scan of {node.view_name!r} declares "
            f"{len(node.view_attributes)} attributes but the view has arity "
            f"{view.arity}",
            path=path,
            subject=node.view_name,
        )


def _check_select(
    node: SelectNode, path: tuple[int, ...], report: VerificationReport
) -> None:
    if not node.predicates:
        report.add("plan.select.empty", "selection carries no predicates", path=path)
        return
    child_attrs = set(node.child.attributes)
    equalities: dict[str, set[object]] = {}
    disequalities: dict[str, set[object]] = {}
    for predicate in node.predicates:
        if isinstance(predicate, AttributeEqualsConstant):
            referenced: tuple[str, ...] = (predicate.attribute,)
            bucket = disequalities if predicate.negated else equalities
            bucket.setdefault(predicate.attribute, set()).add(predicate.value)
        elif isinstance(predicate, AttributeEqualsAttribute):
            referenced = (predicate.left, predicate.right)
        else:
            report.add(
                "plan.select.unknown-predicate",
                f"unknown predicate type {type(predicate).__name__}",
                path=path,
            )
            continue
        missing = [a for a in referenced if a not in child_attrs]
        if missing:
            report.add(
                "plan.select.unknown-attribute",
                f"selection references {missing} which the child does not "
                f"produce (child has {node.child.attributes})",
                path=path,
            )
    for attribute, values in equalities.items():
        if len(values) > 1:
            report.add(
                "plan.select.contradiction",
                f"selection equates {attribute!r} with {len(values)} distinct "
                f"constants {sorted(map(repr, values))}; the node is always empty",
                severity="warning",
                path=path,
            )
        clashes = values & disequalities.get(attribute, set())
        if clashes:
            report.add(
                "plan.select.contradiction",
                f"selection requires {attribute!r} both = and != "
                f"{sorted(map(repr, clashes))}; the node is always empty",
                severity="warning",
                path=path,
            )


# --------------------------------------------------------------------------- #
# Boundedness certificates (conformance condition (b), with evidence)
# --------------------------------------------------------------------------- #


def _check_boundedness(
    plan: PlanNode,
    schema: DatabaseSchema,
    views: ViewSet | None,
    access_schema: AccessSchema,
    budget: ElementQueryBudget | None,
    report: VerificationReport,
) -> None:
    for fetch in plan.fetch_nodes():
        constraint = fetch.covering_constraint(access_schema)
        if constraint is None:
            continue  # already reported as plan.fetch.no-constraint
        certificate = _fetch_certificate(
            fetch, constraint_schema=schema, views=views,
            access_schema=access_schema, budget=budget,
        )
        report.certificates.append(certificate)
        if not certificate.bounded:
            message = (
                f"input of fetch on {fetch.relation!r} does not have bounded "
                f"output under the access schema"
            )
            if certificate.counterexample is not None:
                message += f" ({certificate.counterexample})"
            elif certificate.note:
                message += f" ({certificate.note})"
            report.add(
                "plan.fetch.unbounded-input",
                message,
                subject=fetch.relation,
            )


def fetch_certificates(
    plan: PlanNode,
    schema: DatabaseSchema,
    *,
    views: ViewSet | None = None,
    access_schema: AccessSchema,
    budget: ElementQueryBudget | None = None,
) -> list[FetchCertificate]:
    """Boundedness certificates for every covered fetch node of ``plan``."""
    certificates: list[FetchCertificate] = []
    for fetch in plan.fetch_nodes():
        constraint = fetch.covering_constraint(access_schema)
        if constraint is None:
            continue
        certificates.append(
            _fetch_certificate(
                fetch, constraint_schema=schema, views=views,
                access_schema=access_schema, budget=budget,
            )
        )
    return certificates


def _fetch_certificate(
    fetch: FetchNode,
    *,
    constraint_schema: DatabaseSchema,
    views: ViewSet | None,
    access_schema: AccessSchema,
    budget: ElementQueryBudget | None,
) -> FetchCertificate:
    constraint = fetch.covering_constraint(access_schema)
    assert constraint is not None
    if fetch.child is None:
        return FetchCertificate(
            relation=fetch.relation,
            x_attrs=fetch.x_attrs,
            y_attrs=fetch.y_attrs,
            constraint=constraint,
            bounded=True,
            note=f"single lookup under the empty key: at most "
            f"{constraint.bound} tuples",
        )
    try:
        input_query = plan_to_ucq(
            fetch.child, constraint_schema, views, unfold_views=True
        )
    except (UnsupportedQueryError, PlanError) as exc:
        return FetchCertificate(
            relation=fetch.relation,
            x_attrs=fetch.x_attrs,
            y_attrs=fetch.y_attrs,
            constraint=constraint,
            bounded=False,
            note=f"input cannot be unfolded for verification: {exc}",
        )
    try:
        witness = bounded_output_witness(
            input_query, access_schema, constraint_schema, budget
        )
    except BudgetExceededError as exc:
        return FetchCertificate(
            relation=fetch.relation,
            x_attrs=fetch.x_attrs,
            y_attrs=fetch.y_attrs,
            constraint=constraint,
            bounded=False,
            note=f"bounded-output check exceeded its budget: {exc}",
        )
    steps: list[CoverageStep] = []
    uncovered_attrs: list[str] = []
    child_attrs = fetch.child.attributes
    for disjunct in input_query.disjuncts:
        disjunct_steps, disjunct_uncovered = _coverage_evidence(
            disjunct, child_attrs, access_schema, constraint_schema
        )
        steps.extend(disjunct_steps)
        uncovered_attrs.extend(a for a in disjunct_uncovered if a not in uncovered_attrs)
    counterexample: BoundednessCounterexample | None = None
    note = ""
    if witness.bounded:
        if witness.output_bound is not None:
            note = f"input output size ≤ {witness.output_bound}"
        if uncovered_attrs:
            # The exact element-query sweep proved boundedness even though the
            # per-variable fixpoint on the query itself is inconclusive
            # (equalities forced by A on the element queries close the gap).
            note = (
                "bounded via the element-query analysis of Theorem 3.4; "
                "no per-variable derivation for "
                + ", ".join(uncovered_attrs)
            )
    else:
        names = tuple(uncovered_attrs) or tuple(
            sorted(v.name for v in witness.uncovered)
        )
        reasons: tuple[str, ...] = ()
        if witness.counterexample is not None:
            reasons = (
                f"element query {witness.counterexample.name!r} has uncovered "
                f"head variables {sorted(v.name for v in witness.uncovered)}",
            )
        counterexample = BoundednessCounterexample(uncovered=names, reasons=reasons)
    return FetchCertificate(
        relation=fetch.relation,
        x_attrs=fetch.x_attrs,
        y_attrs=fetch.y_attrs,
        constraint=constraint,
        bounded=witness.bounded,
        steps=tuple(steps),
        counterexample=counterexample,
        note=note,
    )


def coverage_trace(
    query: ConjunctiveQuery,
    access_schema: AccessSchema,
    schema: DatabaseSchema,
) -> dict[Variable, CoverageStep]:
    """The ``cov(Q, A)`` fixpoint of Section 3.1, recording each derivation.

    Same fixpoint as :func:`repro.core.bounded_output.covered_variables`, but
    every newly covered variable remembers *which* constraint at *which* atom
    covered it and through which previously covered variables — the raw
    material of a boundedness certificate.
    """
    normalized = query.normalize()
    trace: dict[Variable, CoverageStep] = {}
    changed = True
    while changed:
        changed = False
        for atom in normalized.atoms:
            relation = schema.relation(atom.relation)
            for constraint in access_schema.for_relation(atom.relation):
                x_positions = relation.positions(constraint.x)
                y_positions = relation.positions(constraint.y)
                x_terms = [atom.terms[p] for p in x_positions]
                if not all(
                    isinstance(t, Constant) or t in trace for t in x_terms
                ):
                    continue
                via = tuple(
                    t.name for t in x_terms if isinstance(t, Variable)
                )
                for position in y_positions:
                    term = atom.terms[position]
                    if isinstance(term, Variable) and term not in trace:
                        trace[term] = CoverageStep(
                            variable=term.name,
                            constraint=constraint,
                            atom=str(atom),
                            via=via,
                        )
                        changed = True
    return trace


def _coverage_evidence(
    disjunct: ConjunctiveQuery,
    output_attrs: tuple[str, ...],
    access_schema: AccessSchema,
    schema: DatabaseSchema,
) -> tuple[list[CoverageStep], list[str]]:
    """Coverage steps for a fetch input's head variables, plus uncovered attrs.

    The disjunct's head corresponds positionally to the fetch child's output
    attributes, so coverage steps are re-labelled with the plan-level
    attribute names users see in ``explain()`` output.
    """
    normalized = disjunct.normalize()
    trace = coverage_trace(normalized, access_schema, schema)
    head = normalized.head
    rename: dict[str, str] = {}
    for position, term in enumerate(head):
        if isinstance(term, Variable) and position < len(output_attrs):
            rename.setdefault(term.name, output_attrs[position])

    uncovered: list[str] = []
    needed: list[Variable] = []
    seen: set[Variable] = set()
    for position, term in enumerate(head):
        if not isinstance(term, Variable):
            continue
        if term in trace:
            if term not in seen:
                seen.add(term)
                needed.append(term)
        else:
            label = rename.get(term.name, term.name)
            if label not in uncovered:
                uncovered.append(label)
    # Pull in the prerequisite steps of every needed head variable.
    queue = list(needed)
    while queue:
        variable = queue.pop()
        step = trace.get(variable)
        if step is None:
            continue
        for name in step.via:
            prerequisite = Variable(name)
            if prerequisite not in seen and prerequisite in trace:
                seen.add(prerequisite)
                needed.append(prerequisite)
                queue.append(prerequisite)
    # Report steps in derivation (insertion) order, relabelled.
    ordered = [v for v in trace if v in seen]
    steps = [
        CoverageStep(
            variable=rename.get(trace[v].variable, trace[v].variable),
            constraint=trace[v].constraint,
            atom=trace[v].atom,
            via=tuple(rename.get(name, name) for name in trace[v].via),
        )
        for v in ordered
    ]
    return steps, uncovered


# --------------------------------------------------------------------------- #
# Delta-program verification (the maintenance kernel's compiled rules)
# --------------------------------------------------------------------------- #


def verify_delta_program(
    compiled: CompiledViewDelta,
    schema: DatabaseSchema,
) -> VerificationReport:
    """Statically verify a view's delta program: the rewritten CQs.

    Checks, per disjunct: there is one delta rule per body atom, and rule
    ``i`` reads atom ``i`` through its Δ relation; the support check's first
    atom is the seed over the head; every other atom names a relation of
    ``schema`` at its declared arity (a Δ atom the arity of the relation it
    renames); every head variable of a rule is bound by its body; and the
    chosen maintenance mode matches the counting-eligibility rule (single
    CQ, no self-joins).
    """
    name = compiled.name
    report = VerificationReport(subject=f"delta program of view {name!r}")
    for disjunct_index, compiled_disjunct in enumerate(compiled.disjuncts):
        atoms = compiled_disjunct.disjunct.atoms
        where = f"disjunct {disjunct_index} of view {name!r}"
        rules = compiled_disjunct.rules
        if len(rules) != len(atoms) or any(
            len(rule.atoms) != len(atoms)
            or rule.atoms[index]
            != RelationAtom(delta_relation(atoms[index].relation), atoms[index].terms)
            for index, rule in enumerate(rules)
        ):
            report.add(
                "delta.rule.missing",
                f"{where} has {len(atoms)} body atoms but {len(rules)} rules, "
                "not each reading its own atom's delta",
                subject=name,
            )
            continue
        for index, rule in enumerate(rules):
            label = f"rule for atom {index} ({atoms[index].relation!r}) of {where}"
            _check_delta_query(
                rule, index, atoms[index].relation, label, name, schema, report
            )
        support = compiled_disjunct.support
        if support.atoms[:1] != (RelationAtom(SEED_RELATION, support.head),):
            report.add(
                "delta.support.seed",
                f"support check of {where} does not seed its head rows first",
                subject=name,
            )
        else:
            _check_delta_query(
                support, 0, None, f"support check of {where}", name, schema, report
            )
    eligible = counting_eligible([d.disjunct for d in compiled.disjuncts])
    if compiled.counting and not eligible:
        report.add(
            "delta.mode",
            f"view {name!r} uses counting maintenance but is not "
            "counting-eligible (self-join or multiple disjuncts)",
            subject=name,
        )
    return report


def _check_delta_query(
    query: ConjunctiveQuery,
    served: int,
    renames: str | None,
    label: str,
    view_name: str,
    schema: DatabaseSchema,
    report: VerificationReport,
) -> None:
    """Relations, arities and head safety of one rewritten CQ.  Atom
    ``served`` reads rows in hand: the delta of relation ``renames``, or the
    candidate head rows (``renames`` is ``None``; nothing to check)."""
    for position, atom in enumerate(query.atoms):
        relation = renames if position == served else atom.relation
        if relation is None:
            continue
        try:
            declared = schema.relation(relation).arity
        except SchemaError:
            report.add(
                "delta.rule.unknown-relation",
                f"{label}: relation {relation!r} is not in the schema",
                subject=view_name,
            )
            continue
        if atom.arity != declared:
            report.add(
                "delta.rule.arity",
                f"{label}: atom {atom} has arity {atom.arity}, schema declares "
                f"{declared}",
                subject=view_name,
            )
    bound = {variable for atom in query.atoms for variable in atom.variables}
    for term in query.head:
        if isinstance(term, Variable) and term not in bound:
            report.add(
                "delta.rule.head",
                f"{label}: head variable {term} is not bound by the body; "
                "unsafe views cannot be incrementally maintained",
                subject=view_name,
            )
