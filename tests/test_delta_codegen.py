"""Compiled view maintenance: the delta rules and support checks, compiled
as loop nests by ``compile_cq``, keep every view equal to recomputation.

Mirror of ``test_codegen.py`` for the write path.  Three layers of evidence:

* a differential property test over ~200 random CQ/UCQ views (self-join
  DRed fallback included): after every random insert/delete batch, every
  view's rows and counting-mode derivation counts equal a from-scratch
  recomputation (:meth:`ViewMaintainer.verify`);
* lifecycle tests — every view compiled when it is materialised, typed
  refusals for a failing kernel compile or delta-program verification —
  and the service surface (``explain_maintenance``, ``maintenance-*`` tier
  stats, the SQL oracle over the maintained state);
* introspection of the generated nest sources (data independence).
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
from repro.exec.cq_compiler import FactsSource, compile_cq
from repro.exec.delta_compiler import compile_view_delta
from repro.exec.iometer import IOMeter
from repro.storage.instance import Database
from repro.storage.updates import Deletion, Insertion, random_update_batch
from repro.workloads import cdr
from repro.workloads.random_cq import RandomCQConfig, random_workload

from conftest import SQLOracle


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


def test_differential_sql_oracle_after_updates():
    """After write batches the compiled views equal recomputation, and the
    full-scan baseline answers queries over the maintained state like the
    SQL oracle does."""
    data = cdr.generate(num_customers=30, num_days=2, seed=5)
    service = QueryService(data.database, cdr.access_schema(), cdr.views())
    for seed in (41, 42):
        service.apply(random_update_batch(data.database, size=40, seed=seed))
    assert service.maintainer.snapshot() == service.maintainer.recompute()
    assert service.maintainer.verify()
    oracle = SQLOracle(service)
    for query in (
        'Q(p) :- customer(p, n, "premium", r)',
        "Q(c, d) :- call(c, e, d, u, l)",
    ):
        assert service.baseline(query).rows == oracle.query_rows(query), query
    oracle.close()
    tiers = service.stats.snapshot().tier_uses
    assert tiers.get("maintenance-compiled", 0) > 0
    assert "maintenance-interpreted" not in tiers


@pytest.mark.parametrize(
    "view, relations, size, fetched",
    [
        # Counting: customer deletions and call inserts/deletes in one
        # stream, so the telescoped rules read a rewound pre-state.
        (
            View(
                "V_calls",
                parse_cq("V(p, d) :- customer(p, n, pl, r), call(p, e, d, u, l)"),
            ),
            ("customer", "call"),
            60,
            (142, 49),
        ),
        # DRed: over-deletion through the augmented state, then the support
        # checks over the live one.
        (_self_join_views()[0], ("customer",), 16, (762, 403)),
    ],
    ids=["counting", "dred"],
)
def test_maintenance_dxi_is_pinned(view, relations, size, fetched):
    """The ``Dξ`` a metered stream charges: every probe, membership test
    and scan of a stored relation, never the delta or candidate rows in
    hand.  Each nest here has a forced order — the delta or seed atom
    first, one way to join the rest — so the figures are those of the
    former dedicated delta-kernel generator."""
    data = cdr.generate(num_customers=40, num_days=2, seed=7)
    maintainer = ViewMaintainer(ViewSet((view,)), data.database)
    charged = []
    for seed in (11, 12):
        batch = random_update_batch(
            data.database, size=size, relations=relations, seed=seed,
            access_schema=cdr.access_schema(),
        )
        meter = _assert_matches_recomputation(maintainer, data.database.apply(batch))
        charged.append(meter.tuples_fetched)
    assert tuple(charged) == fetched


@pytest.mark.parametrize(
    "definition, mode, fetched",
    [
        # Every rule scans the other relation in its pre-transaction state
        # (forced orders: the figures are the former generator's).
        ("VC(x, y) :- R(x), S(y)", "counting", [16, 24, 7]),
        # The S atoms read nothing downstream: existence tests on a scan of
        # the augmented or live state, where the former generator looped
        # over every S row (197, 246 and 20 fetched).
        ("VD(x) :- R(x), S(y), S(z)", "dred", [63, 20, 12]),
    ],
)
def test_cross_products_scan_the_rewound_states(definition, mode, fetched):
    """An atom sharing no variable with the rows in hand is a scan of the
    relation state — live minus net insertions plus net deletions where the
    state is rewound — charged in full by every scan or emptiness test."""
    schema = schema_from_spec({"R": ("a",), "S": ("b",)})
    database = Database(
        schema, {"R": {(i,) for i in range(5)}, "S": {(i,) for i in range(4)}}
    )
    query = parse_cq(definition)
    views = ViewSet((View(query.name, query),))
    # The same streams, metered and not (unmetered states skip the charge).
    maintainer, unmetered = ViewMaintainer(views, database), ViewMaintainer(views, database)
    assert maintainer.mode(query.name) == mode
    charged = []
    for updates in (
        [Insertion("R", (7,)), Deletion("S", (0,)), Insertion("S", (9,))],
        [Deletion("S", (b,)) for b in (1, 2, 3, 9)],
        [Insertion("S", (5,)), Deletion("R", (1,))],
    ):
        stream = database.apply(updates)
        charged.append(_assert_matches_recomputation(maintainer, stream).tuples_fetched)
        unmetered.apply_stream(stream)
        assert unmetered.verify()
    assert charged == fetched


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
    """Bad generated source (what ``compile()`` raises for it, injected at
    the one ``exec`` site of generated code) is a typed refusal naming the
    view; any other exception is a bug and propagates."""
    data = cdr.generate(num_customers=20, num_days=2, seed=3)

    def inject(error: type[Exception]) -> None:
        def broken(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr("repro.exec.cq_compiler._function", broken)

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


def _nests(compiled, database):
    """The loop nests the maintainer compiles for a delta program: every
    rule, its Δ atom outermost, and every support check, its seed first."""
    source = FactsSource(database)
    kernels = []
    for disjunct in compiled.disjuncts:
        for index, rule in enumerate(disjunct.rules):
            kernels.append(
                compile_cq(rule, source, counting=compiled.counting, first=index)
            )
        kernels.append(compile_cq(disjunct.support, source, first=0))
    return kernels


def test_generated_kernel_sources_are_data_independent():
    data = cdr.generate(num_customers=20, num_days=2, seed=3)
    views = cdr.views()
    disjuncts = tuple(
        d.normalize() for d in views.view("V_premium").as_ucq().disjuncts
    )
    compiled = compile_view_delta("V_premium", disjuncts)
    assert compiled.counting
    for kernel in _nests(compiled, data.database):
        assert kernel.compile_seconds > 0
        (source,) = kernel.sources
        assert "def _nest" in source
        # Data independence: the "premium" constant reaches the nest in its
        # value vector and the relations through its access paths; neither
        # is interpolated into the source.
        assert "premium" not in source
        assert "customer" not in source


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
    for name in ("Vchain", "Vpath"):
        for kernel in _nests(maintainer.compiled_delta(name), database):
            (source,) = kernel.sources
            assert "def _n" in source
    for updates in (
        [Insertion("R5", (1, 2)), Insertion("E", (1, 2))],
        [Deletion("R3", (0, 1)), Deletion("E", (0, 1))],
        [Deletion("R7", (1, 1)), Deletion("E", (1, 1))],
    ):
        _assert_matches_recomputation(maintainer, database.apply(updates))
    assert maintainer.rows("Vchain") and maintainer.rows("Vpath")
