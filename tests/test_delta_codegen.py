"""Compiled view maintenance: the generated delta kernels keep every view
equal to recomputation.

Mirror of ``test_codegen.py`` for the write path.  Three layers of evidence:

* a differential property test over ~200 random CQ/UCQ views (self-join
  DRed fallback included): after every random insert/delete batch, every
  view's rows and counting-mode derivation counts equal a from-scratch
  recomputation (:meth:`ViewMaintainer.verify`);
* lifecycle tests — every view compiled when it is materialised, typed
  refusals for a failing kernel compile or delta-program verification —
  and the service surface (``explain_maintenance``, ``maintenance-*`` tier
  stats, both backends);
* introspection of the generated kernel sources (data independence).
"""

from __future__ import annotations

import pytest

from repro.algebra.atoms import RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.parser import parse_cq
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Variable
from repro.algebra.ucq import UnionQuery
from repro.algebra.views import View, ViewSet
from repro.analysis import VerificationReport
from repro.engine.service import QueryService, ViewMaintainer
from repro.engine.service.maintenance import MaintenanceStats
from repro.errors import DeltaCompilationError
from repro.exec.delta_compiler import compile_maintenance, compile_view_delta
from repro.exec.iometer import IOMeter
from repro.storage.instance import Database
from repro.storage.updates import Deletion, Insertion, random_update_batch
from repro.workloads import cdr
from repro.workloads.random_cq import RandomCQConfig, random_workload


# --------------------------------------------------------------------------- #
# Random view workloads
# --------------------------------------------------------------------------- #


def _connected(query) -> bool:
    """Multi-atom queries must share variables (no accidental cartesians)."""
    if len(query.atoms) <= 1:
        return True
    for index, atom in enumerate(query.atoms):
        mine = set(atom.variables)
        others = set()
        for j, other in enumerate(query.atoms):
            if j != index:
                others |= set(other.variables)
        if not (mine & others):
            return False
    return True


def _self_join_views() -> list[View]:
    """Hand-built self-joins: counting-ineligible, forcing the DRed kernels."""
    p1, p2, n1, n2, pl, r1, r2 = (Variable(x) for x in ("p1", "p2", "n1", "n2", "pl", "r1", "r2"))
    same_plan = View(
        "SJ_plan",
        # customer(phone, name, plan, region)
        UnionQuery(
            (
                ConjunctiveQuery(
                    head=(p1, p2),
                    atoms=(
                        RelationAtom("customer", (p1, n1, pl, r1)),
                        RelationAtom("customer", (p2, n2, pl, r2)),
                    ),
                    name="SJ_plan_def",
                ),
            ),
            name="SJ_plan_u",
        ),
    )
    return [same_plan]


def _random_views(schema, database, count: int, seed: int) -> list[View]:
    """~``count`` views: random CQs plus UCQs paired from equal-arity CQs."""
    config = RandomCQConfig(
        min_atoms=1,
        max_atoms=3,
        head_size=2,
        constant_probability=0.6,
        join_probability=0.7,
        seed=seed,
    )
    cqs = [
        q
        for q in random_workload(schema, database, count + 60, config)
        if q.head and _connected(q)
    ]
    views: list[View] = [
        View(f"Vr{i}", q) for i, q in enumerate(cqs[:count])
    ]
    by_arity: dict[int, list] = {}
    for q in cqs[:count]:
        by_arity.setdefault(q.head_arity, []).append(q)
    made = 0
    for arity, group in sorted(by_arity.items()):
        for i in range(0, len(group) - 1, 2):
            if made >= count // 5:
                break
            views.append(
                View(
                    f"Ur{arity}_{i}",
                    UnionQuery((group[i], group[i + 1]), name=f"Ur{arity}_{i}_def"),
                )
            )
            made += 1
    views.extend(_self_join_views())
    return views


def _assert_matches_recomputation(maintainer, stream) -> IOMeter:
    """One metered stream through the kernels: the rows and the
    counting-mode derivation counts must equal a from-scratch recomputation,
    and every touched CQ/UCQ view must have run compiled.  Returns the
    meter."""
    stats, meter = MaintenanceStats(), IOMeter()
    maintainer.apply_stream(stream, stats, meter=meter)
    assert maintainer.verify()
    assert set(stats.tier_runs) <= {"compiled", "recompute"}
    assert stats.delta_queries > 0
    return meter


# --------------------------------------------------------------------------- #
# Differential property test: ~200 random views, random update batches
# --------------------------------------------------------------------------- #


def test_differential_random_views_with_updates():
    data = cdr.generate(num_customers=40, num_days=2, seed=7)
    views = _random_views(cdr.schema(), data.database, 170, seed=29)
    assert len(views) >= 190  # ~200 including the paired UCQs and self-joins
    maintainer = ViewMaintainer(ViewSet(views), data.database)
    assert any(mode == "dred" for mode in maintainer.modes.values())
    assert maintainer.mode("SJ_plan") == "dred"  # the self-join fallback
    # Every view was verified and compiled when it was materialised.
    assert {maintainer.explain(v.name).tier for v in views} == {"compiled"}

    for seed in (11, 22, 33):
        batch = random_update_batch(data.database, size=50, seed=seed)
        meter = _assert_matches_recomputation(maintainer, data.database.apply(batch))
        assert meter.tuples_fetched > 0  # multi-atom rules probe through A


def test_differential_both_backends_after_updates():
    """After write batches the compiled views equal recomputation, and both
    backends answer queries over the maintained state alike."""
    data = cdr.generate(num_customers=30, num_days=2, seed=5)
    service = QueryService(data.database, cdr.access_schema(), cdr.views())
    for seed in (41, 42):
        service.apply(random_update_batch(data.database, size=40, seed=seed))
    assert service.maintainer.snapshot() == service.maintainer.recompute()
    assert service.maintainer.verify()
    for query in (
        'Q(p) :- customer(p, n, "premium", r)',
        "Q(c, d) :- call(c, e, d, u, l)",
    ):
        rows = {service.baseline(query, backend=b).rows for b in ("memory", "sqlite")}
        assert len(rows) == 1, query
    tiers = service.stats.snapshot().tier_uses
    assert tiers.get("maintenance-compiled", 0) > 0
    assert "maintenance-interpreted" not in tiers


# --------------------------------------------------------------------------- #
# Lifecycle: compiled when materialised; typed refusals; explain
# --------------------------------------------------------------------------- #


def _touching_stream(database, seed: int):
    batch = random_update_batch(database, size=10, relations=("customer",), seed=seed)
    return database.apply(batch)


def test_views_are_compiled_when_materialised():
    data = cdr.generate(num_customers=20, num_days=2, seed=3)
    maintainer = ViewMaintainer(cdr.views(), data.database)
    for name in ("V_premium", "V_daily"):  # touched or not, before any stream
        assert maintainer.explain(name).tier == "compiled"
    assert maintainer.explain("V_premium").mode == "counting"
    for seed in (1, 2):
        _assert_matches_recomputation(
            maintainer, _touching_stream(data.database, seed)
        )


def test_failed_kernel_compilation_raises_a_typed_error_naming_the_view(monkeypatch):
    """Bad generated source (what ``compile()`` raises for it) is a typed
    refusal naming the view; any other exception is a bug and propagates."""
    data = cdr.generate(num_customers=20, num_days=2, seed=3)

    def inject(error: type[Exception]) -> None:
        def broken(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr("repro.exec.delta_compiler.compile_closure_source", broken)

    inject(SyntaxError)
    with pytest.raises(DeltaCompilationError, match="injected failure") as excinfo:
        ViewMaintainer(cdr.views(), data.database)
    assert excinfo.value.view_name == "V_premium"
    inject(AttributeError)
    with pytest.raises(AttributeError, match="injected failure"):
        ViewMaintainer(cdr.views(), data.database)


def test_delta_program_failing_verification_is_refused(monkeypatch):
    data = cdr.generate(num_customers=20, num_days=2, seed=3)
    report = VerificationReport(subject="injected")
    report.add("delta.rule.arity", "injected finding")
    monkeypatch.setattr(
        "repro.engine.service.maintenance.delta_codegen_eligibility",
        lambda compiled, schema: report,
    )
    with pytest.raises(DeltaCompilationError, match="injected finding") as excinfo:
        ViewMaintainer(cdr.views(), data.database)
    assert excinfo.value.view_name == "V_premium"


def test_explain_maintenance_service_surface():
    data = cdr.generate(num_customers=20, num_days=2, seed=3)
    service = QueryService(data.database, cdr.access_schema(), cdr.views())
    before = service.explain_maintenance("V_premium")
    assert (before.mode, before.tier) == ("counting", "compiled")
    service.apply(random_update_batch(data.database, size=15, seed=9))
    tiers = service.stats.snapshot().tier_uses
    assert tiers.get("maintenance-compiled", 0) >= 1


# --------------------------------------------------------------------------- #
# Generated sources: introspection and data independence
# --------------------------------------------------------------------------- #


def test_generated_kernel_sources_are_data_independent():
    views = cdr.views()
    disjuncts = tuple(
        d.normalize() for d in views.view("V_premium").as_ucq().disjuncts
    )
    kernels = compile_maintenance(compile_view_delta("V_premium", disjuncts))
    assert kernels.counting
    assert kernels.compile_seconds > 0
    (disjunct_kernels,) = kernels.disjuncts
    for per_atom in disjunct_kernels.rules.values():
        for rule_kernels in per_atom:
            assert set(rule_kernels.sources) == {"count", "insert", "affected"}
            for source in rule_kernels.sources.values():
                assert "def _kernel" in source
                # Data independence: the "premium" seed constant is bound via
                # an exec-namespace name, never interpolated into the source.
                assert "premium" not in source
    assert "def _kernel" in disjunct_kernels.support_source
    assert "premium" not in disjunct_kernels.support_source


def test_join_chains_longer_than_one_function_may_nest():
    """CPython refuses more than 20 nested loops per function; the 24-atom
    chains here continue in nested helpers — counting over distinct
    relations, DRed over a self-joined path — and stay equal to
    recomputation through inserts and deletes."""
    length = 24
    names = [f"R{i}" for i in range(length)] + ["E"]
    schema = schema_from_spec({name: ("a", "b") for name in names})
    edges = {(0, 0), (1, 1), (2, 2), (0, 1)}
    database = Database(schema, {name: set(edges) for name in names})
    body = ", ".join(f"{{}}(x{i}, x{i + 1})" for i in range(length))
    chain = parse_cq(f"V(x0, x{length}) :- " + body.format(*names[:length]))
    path = parse_cq(f"P(x0, x{length}) :- " + body.format(*["E"] * length))
    views = ViewSet((View("Vchain", chain), View("Vpath", path)))
    maintainer = ViewMaintainer(views, database)
    assert maintainer.modes == {"Vchain": "counting", "Vpath": "dred"}
    kernels = compile_maintenance(maintainer.compiled_delta("Vpath"))
    assert "def _n16(" in kernels.disjuncts[0].support_source
    for updates in (
        [Insertion("R5", (1, 2)), Insertion("E", (1, 2))],
        [Deletion("R3", (0, 1)), Deletion("E", (0, 1))],
        [Deletion("R7", (1, 1)), Deletion("E", (1, 1))],
    ):
        _assert_matches_recomputation(maintainer, database.apply(updates))
    assert maintainer.rows("Vchain") and maintainer.rows("Vpath")
