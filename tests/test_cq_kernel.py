"""The fused loop-nest CQ kernel (:mod:`repro.exec.cq_compiler`).

Differential coverage: random CQs — with constants, repeated variables,
head constants and parameter slots — answer the same over every facts
source, through ``SQLOracle`` and (when acyclic) through Yannakakis'
evaluator.  Named edge cases pin ``evaluate_cq``'s semantics, counting mode
is checked against brute-force valuation counting, and the service's
admitted fallback is checked end to end.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.algebra.atoms import EqualityAtom, RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.acyclicity import is_acyclic
from repro.algebra.evaluation import evaluate_cq, evaluate_cq_yannakakis, evaluate_ucq
from repro.algebra.parser import parse_query
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Param, Variable
from repro.algebra.ucq import UnionQuery
from repro.engine.service import QueryService
from repro.errors import EvaluationError
from repro.exec.cq_compiler import FactsSource, compile_cq, order_atoms
from repro.storage.instance import Database
from repro.workloads import cdr, graph_search, skewed
from repro.workloads.random_cq import RandomCQConfig, random_workload

from conftest import SQLOracle

X, Y, Z, W = (Variable(name) for name in "xyzw")


def _variants(query: ConjunctiveQuery, generator: random.Random) -> list[ConjunctiveQuery]:
    """``query`` plus a head-constant variant and, when its first atom has
    two variables, a repeated-variable variant."""
    variants = [query]
    variants.append(
        ConjunctiveQuery(
            head=(*query.head, Constant("k")), atoms=query.atoms, name=query.name
        )
    )
    atoms = list(query.atoms)
    first = atoms[0]
    variables = [t for t in first.terms if isinstance(t, Variable)]
    if len(set(variables)) >= 2:
        keep, drop = variables[0], next(v for v in variables if v != variables[0])
        terms = [keep if t == drop else t for t in first.terms]
        atoms[0] = RelationAtom(first.relation, terms)
        head = tuple(keep if t == drop else t for t in query.head)
        variants.append(ConjunctiveQuery(head=head, atoms=tuple(atoms), name=query.name))
    generator.shuffle(variants)
    return variants


def _slotted(query: ConjunctiveQuery) -> tuple[ConjunctiveQuery, dict[str, object]]:
    """``query`` with every constant put in a slot (``$k`` and ``:name``
    alike), and the bindings that give them back."""
    slots: dict[object, Param] = {}
    for constant in sorted(query.constants, key=repr):
        name = f"${len(slots)}" if len(slots) % 2 == 0 else f"p{len(slots)}"
        slots[constant.value] = Param(name)
    mapping = {Constant(value): Constant(slot) for value, slot in slots.items()}
    return query.substitute(mapping), {slot.name: value for value, slot in slots.items()}


@pytest.mark.parametrize("workload", ["graph_search", "cdr"])
def test_random_cqs_agree_across_sources_slots_sql_and_yannakakis(workload):
    if workload == "graph_search":
        instance = graph_search.generate(num_persons=60, num_movies=40, seed=3)
        service = QueryService(instance.database, graph_search.access_schema(n0=100))
    else:
        instance = cdr.generate(num_customers=30, num_days=2, seed=3)
        service = QueryService(instance.database, cdr.access_schema())
    database = instance.database
    config = RandomCQConfig(min_atoms=1, max_atoms=4, constant_probability=0.25, seed=17)
    queries = random_workload(database.schema, database, 40, config)
    oracle = SQLOracle(service)
    snapshot = service._snapshots.reader()
    generator = random.Random(5)
    checked = acyclic = 0
    for base in queries:
        for query in _variants(base, generator):
            expected = oracle.query_rows(query)
            for facts in (database.facts, database, snapshot):
                assert evaluate_cq(query, facts) == expected, (query, type(facts))
            shape, bindings = _slotted(query)
            source = FactsSource(snapshot)
            kernel = compile_cq(shape, source, slots=True)
            assert kernel.parameters == frozenset(bindings)
            assert kernel.run(source, bindings) == expected, query
            if is_acyclic(query):
                acyclic += 1
                assert evaluate_cq_yannakakis(query, database.facts) == expected, query
            checked += 1
    assert checked > 80 and acyclic > 10
    oracle.close()
    service.close()


def test_a_ucq_is_the_union_of_its_disjuncts():
    facts = {"R": {(1, 2), (3, 4)}, "S": {(2, 5)}}
    union = UnionQuery(
        (
            ConjunctiveQuery(head=(X,), atoms=(RelationAtom("R", (X, Y)),)),
            ConjunctiveQuery(head=(Y,), atoms=(RelationAtom("S", (X, Y)),)),
            ConjunctiveQuery(
                head=(X,),
                atoms=(RelationAtom("R", (X, Y)),),
                equalities=(EqualityAtom(Constant(1), Constant(2)),),
            ),
        )
    )
    assert evaluate_ucq(union, facts) == {(1,), (3,), (5,)}


# --------------------------------------------------------------------------- #
# Named edge cases: today's evaluate_cq semantics
# --------------------------------------------------------------------------- #


def test_an_unsatisfiable_query_is_empty():
    query = ConjunctiveQuery(
        head=(X,),
        atoms=(RelationAtom("R", (X, Y)),),
        equalities=(EqualityAtom(Constant(1), Constant(2)),),
    )
    assert not query.is_satisfiable()
    assert evaluate_cq(query, {"R": {(1, 2)}}) == set()


def test_an_empty_body_yields_its_constant_head_and_raises_on_a_variable():
    constant = ConjunctiveQuery(head=(Constant(1), Constant("a")), atoms=())
    assert evaluate_cq(constant, {}) == {(1, "a")}
    boolean = ConjunctiveQuery(head=(), atoms=())
    assert evaluate_cq(boolean, {}) == {()}
    with pytest.raises(EvaluationError, match="unsafe head variable"):
        evaluate_cq(ConjunctiveQuery(head=(X,), atoms=()), {})


def test_an_unsafe_head_variable_raises_only_when_a_row_reaches_the_head():
    query = ConjunctiveQuery(
        head=(X, Z), atoms=(RelationAtom("R", (X, Y)), RelationAtom("S", (Y, W)))
    )
    assert evaluate_cq(query, {"R": {(1, 2)}, "S": {(3, 4)}}) == set()
    with pytest.raises(EvaluationError, match=r"unsafe head variable \?z"):
        evaluate_cq(query, {"R": {(1, 2)}, "S": {(2, 4)}})


def _small_db() -> Database:
    schema = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
    return Database(
        schema, {"R": [(1, 10), (2, 20), (2, 21)], "S": [(10, "x"), (21, "y")]}
    )


def test_evaluate_cq_identical_over_database_and_plain_facts():
    small_db = _small_db()
    query = parse_query("Q(a, c) :- R(a, b), S(b, c)")
    via_database = evaluate_cq(query, small_db)
    via_mapping = evaluate_cq(query, small_db.facts)
    assert via_database == via_mapping == {(1, "x"), (2, "y")}


def test_evaluate_cq_uses_cached_secondary_indexes():
    small_db = _small_db()
    query = parse_query("Q(b) :- R(2, b)")
    assert evaluate_cq(query, small_db) == {(20,), (21,)}
    # The constant probe built (and cached) a secondary index on column 0.
    relation = small_db.relation("R")
    assert (0,) in relation._indexes  # noqa: SLF001 - asserting the cache
    # The cached index is maintained: new tuples are visible immediately.
    small_db.add("R", (2, 22))
    assert evaluate_cq(query, small_db) == {(20,), (21,), (22,)}


def test_rows_of_the_wrong_arity_are_ignored_on_scans_and_probes():
    facts = {"R": {(1, 2), (3,), (1, 5, 6), (4, 4)}, "S": [(2, "a"), (2,), (4, "b", "c")]}
    scan = ConjunctiveQuery(head=(X, Y), atoms=(RelationAtom("R", (X, Y)),))
    assert evaluate_cq(scan, facts) == {(1, 2), (4, 4)}
    probe = ConjunctiveQuery(
        head=(X, Z), atoms=(RelationAtom("R", (X, Y)), RelationAtom("S", (Y, Z)))
    )
    assert evaluate_cq(probe, facts) == {(1, "a")}
    constant = ConjunctiveQuery(head=(Y,), atoms=(RelationAtom("R", (1, Y)),))
    assert evaluate_cq(constant, facts) == {(2,)}
    repeated = ConjunctiveQuery(head=(X,), atoms=(RelationAtom("R", (X, X)),))
    assert evaluate_cq(repeated, facts) == {(4,)}


def test_an_unknown_relation_is_empty_over_every_source():
    schema = schema_from_spec({"R": ("a", "b")})
    database = Database(schema, {"R": [(1, 2)]})
    query = ConjunctiveQuery(
        head=(X,), atoms=(RelationAtom("R", (X, Y)), RelationAtom("Nope", (Y,)))
    )
    assert evaluate_cq(query, database.facts) == set()
    assert evaluate_cq(query, database) == set()
    # A relation stored with another arity is empty for the atom, too.
    wrong = ConjunctiveQuery(head=(X,), atoms=(RelationAtom("R", (X,)),))
    assert evaluate_cq(wrong, database) == set()


def test_an_atom_nothing_downstream_reads_is_an_existence_test():
    query = parse_query("Q(x) :- R(x, y), S(y, z, z), T(w)")
    kernel = compile_cq(query, FactsSource({}))
    (source,) = kernel.sources
    assert source.count("    for (") == 1  # only R is iterated
    assert "any(" in source and "if not _p" in source
    facts = {"R": {(1, 2), (3, 4)}, "S": {(2, 7, 7), (4, 7, 8)}, "T": {(0,)}}
    assert evaluate_cq(query, facts) == {(1,)}
    assert evaluate_cq(query, {**facts, "T": set()}) == set()


def test_equal_shapes_share_one_generated_function():
    first = compile_cq(parse_query("Q(x) :- R(x, 'a'), S(x, 1)"), FactsSource({}))
    second = compile_cq(parse_query("Q(x) :- R(x, 'b'), S(x, 2)"), FactsSource({}))
    assert first.sources == second.sources
    assert first._nests[0].function is second._nests[0].function


def test_a_nest_longer_than_one_function_continues_in_a_helper():
    atoms = [RelationAtom("E", (Variable(f"v{i}"), Variable(f"v{i + 1}"))) for i in range(24)]
    query = ConjunctiveQuery(head=(Variable("v0"), Variable("v24")), atoms=atoms)
    facts = {"E": {(i, i + 1) for i in range(30)}}
    (source,) = compile_cq(query, FactsSource(facts)).sources
    assert "def _n" in source
    assert evaluate_cq(query, facts) == {(i, i + 24) for i in range(7)}


# --------------------------------------------------------------------------- #
# Counting mode
# --------------------------------------------------------------------------- #


def _brute_force_counts(query: ConjunctiveQuery, facts) -> dict[tuple, int]:
    variables = sorted(query.variables, key=lambda v: v.name)
    domain = sorted({value for rows in facts.values() for row in rows for value in row})
    counts: dict[tuple, int] = {}
    for values in itertools.product(domain, repeat=len(variables)):
        valuation = dict(zip(variables, values))

        def value(term):
            return term.value if isinstance(term, Constant) else valuation[term]

        if all(
            tuple(map(value, atom.terms)) in facts[atom.relation] for atom in query.atoms
        ):
            row = tuple(map(value, query.head))
            counts[row] = counts.get(row, 0) + 1
    return counts


def test_counting_mode_counts_every_valuation():
    generator = random.Random(11)
    names = [Variable(n) for n in "abcd"]
    for _ in range(60):
        facts = {
            name: {tuple(generator.randint(0, 3) for _ in range(2)) for _ in range(6)}
            for name in ("R", "S", "T")
        }
        atoms = tuple(
            RelationAtom(
                generator.choice("RST"),
                [
                    Constant(generator.randint(0, 3))
                    if generator.random() < 0.15
                    else generator.choice(names)
                    for _ in range(2)
                ],
            )
            for _ in range(generator.randint(1, 3))
        )
        body = sorted({t for a in atoms for t in a.terms if isinstance(t, Variable)}, key=str)
        head = tuple(body[:1]) + (Constant("h"),)
        query = ConjunctiveQuery(head=head, atoms=atoms)
        source = FactsSource(facts)
        counts = compile_cq(query, source, counting=True).count(source)
        assert counts == _brute_force_counts(query, facts), query
        assert set(counts) == evaluate_cq(query, facts)


# --------------------------------------------------------------------------- #
# Through the service: the admitted fallback
# --------------------------------------------------------------------------- #

SKEWED_UNBOUNDED = (
    "Qall(fan, team) :- follows(celeb, fan), contacted(fan, agent), staff(team, agent)"
)
REGION_ANALYSIS = (
    "Q(caller, callee) :- call(caller, callee, day, duration, cell), "
    "customer(caller, name1, plan1, {}), customer(callee, name2, plan2, {})"
)


def test_skewed_unbounded_equals_the_sql_oracle():
    instance = skewed.generate(hot_fans=100, users=1000, seed=5)
    with QueryService(instance.database, skewed.access_schema(), skewed.views()) as service:
        answer = service.query(SKEWED_UNBOUNDED)
        assert not answer.used_bounded_plan and answer.execution_tier == "compiled"
        oracle = SQLOracle(service)
        assert answer.rows and answer.rows == oracle.rows(answer, SKEWED_UNBOUNDED)
        assert answer.tuples_scanned == sum(
            len(instance.database.relation(name)) for name in ("follows", "contacted", "staff")
        )
        oracle.close()


def test_skewed_unbounded_nest_is_cost_ordered_and_equals_the_sql_oracle():
    """The fallback nest is ordered by the subset search the plan builder
    uses: it no longer starts at ``staff`` (fewest rows), which probes
    ``contacted`` once per agent of every team, but scans ``follows`` and
    probes ``contacted`` per fan, ``staff`` last — and answers what SQL
    answers."""
    instance = skewed.generate(hot_fans=100, users=1000, seed=5)
    atoms = parse_query(SKEWED_UNBOUNDED).normalize().atoms
    order = order_atoms(atoms, FactsSource(instance.database))
    assert [atom.relation for atom in order] == ["follows", "contacted", "staff"]
    with QueryService(instance.database, skewed.access_schema(), skewed.views()) as service:
        answer = service.query(SKEWED_UNBOUNDED)
        assert not answer.used_bounded_plan and answer.execution_tier == "compiled"
        oracle = SQLOracle(service)
        assert answer.rows and answer.rows == oracle.rows(answer, SKEWED_UNBOUNDED)
        oracle.close()


def test_region_analysis_strings_share_one_closure_and_equal_the_sql_oracle():
    instance = cdr.generate(num_customers=80, num_days=3, seed=2)
    with QueryService(instance.database, cdr.access_schema(), cdr.views()) as service:
        oracle = SQLOracle(service)
        kernels, rows = [], []
        # 'north' is a view constant and would stay literal: not used here.
        for region_a, region_b in (("south", "east"), ("east", "west"), ("west", "south")):
            text = REGION_ANALYSIS.format(repr(region_a), repr(region_b))
            answer = service.query(text)
            assert not answer.used_bounded_plan and answer.execution_tier == "compiled"
            assert answer.rows == oracle.rows(answer, text)
            kernels.append(service.plan(text)[0].kernel)
            rows.append(answer.rows)
        assert kernels[0] is not None
        assert all(kernel is kernels[0] for kernel in kernels)
        assert rows[0] != rows[2]  # the slots carry each input's regions
        oracle.close()


def test_a_prepared_fallback_reads_its_parameters_from_the_bindings():
    instance = cdr.generate(num_customers=40, num_days=2, seed=4)
    with QueryService(instance.database, cdr.access_schema(), cdr.views()) as service:
        prepared = service.prepare(REGION_ANALYSIS.format("'east'", ":region"))
        assert not prepared.is_bounded
        oracle = SQLOracle(service)
        for region in cdr.REGIONS:
            answer = prepared.execute(region=region)
            text = REGION_ANALYSIS.format("'east'", repr(region))
            assert answer.rows == oracle.query_rows(text)
            assert answer.rows == service.query(text).rows
        oracle.close()
