"""The four benchmark workloads: inputs, operation sequences and the oracle.

Every workload is built from ``--seed`` alone: the seed drives the library's
instance generator and the sampling of query constants, so the same seed
gives the same database and the same operation sequence.  A workload is

* a pristine :class:`Database` (each service construction works on a copy),
* a *warm-up* (queries repeated until plans stop changing tier, plus
  state-neutral writes),
* one fixed *round* of operations that every timed round repeats, and
* optional untimed *filler* queries run between rounds.

Queries are kept here as **source strings** — what a client sends — because
``str(ConjunctiveQuery)`` is not parseable.  :func:`check_templates` ties each
template back to the paper's workload objects in :mod:`repro.workloads` by
canonical key, so the strings cannot drift from the library's queries.

Why these four, and which layer each one loads, is recorded in
``bench/README.md``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.algebra.evaluation import evaluate_ucq
from repro.algebra.parser import parse_query
from repro.algebra.terms import Constant
from repro.algebra.views import ViewSet
from repro.core.access import AccessSchema
from repro.engine.service import canonical_query_key
from repro.storage.instance import Database
from repro.storage.updates import Insertion, UpdateBatch, random_update_batch
from repro.workloads import cdr, graph_search as gs, skewed

WORKLOADS = ("warm_point", "adhoc_plan", "scan_heavy", "mixed_rw")

# --------------------------------------------------------------------------- #
# Source-string templates
# --------------------------------------------------------------------------- #

GS_Q0 = (
    "Q0(mid) :- person(xp, xp_name, 'NASA'), movie(mid, ym, '{studio}', '{year}'), "
    "like(xp, mid, 'movie'), rating(mid, {rank})"
)
GS_RATED = "Qr(mid) :- movie(mid, t, '{studio}', '{year}'), rating(mid, {rank})"
GS_RANKS = "Qk(mid, r) :- movie(mid, t, '{studio}', '{year}'), rating(mid, r)"

CDR_TEMPLATES = {
    "calls_region": (
        "Q(callee, region) :- call('{phone}', callee, {day}, duration, cell), "
        "cell(cell, region, city)"
    ),
    "callee_profile": (
        "Q(callee, plan) :- call('{phone}', callee, {day}, duration, cell), "
        "customer(callee, name, plan, region)"
    ),
    "premium_callers": (
        "Q(caller) :- call(caller, '{phone}', {day}, duration, cell), "
        "customer(caller, name, 'premium', region)"
    ),
    "region_analysis": (
        "Q(caller, callee) :- call(caller, callee, day, duration, cell), "
        "customer(caller, name1, plan1, '{region_a}'), "
        "customer(callee, name2, plan2, '{region_b}')"
    ),
}
#: Template mix of one ``adhoc_plan`` round, in sixteenths (ISSUE 11).
CDR_WEIGHTS = {
    "calls_region": 7,
    "callee_profile": 5,
    "premium_callers": 2,
    "region_analysis": 2,
}

SKEWED_FEED = (
    "Qfeed(fan, agent) :- follows('{celeb}', fan), staff('{team}', agent), "
    "contacted(fan, agent)"
)
#: No access constraint reaches ``follows`` without a celebrity constant, so
#: this join has no bounded plan and is answered by the full-scan baseline.
SKEWED_UNBOUNDED = (
    "Qall(fan, team) :- follows(celeb, fan), contacted(fan, agent), staff(team, agent)"
)


def check_templates() -> None:
    """Each template, parsed, must equal the library's query by canonical key."""

    def same(text: str, query: object, what: str) -> None:
        if canonical_query_key(parse_query(text)) != canonical_query_key(query):
            raise AssertionError(f"template {what} drifted from repro.workloads")

    same(GS_Q0.format(studio="Universal", year="2014", rank=5), gs.query_q0(), "GS_Q0")
    same(
        SKEWED_FEED.format(celeb=skewed.HOT_CELEB, team=skewed.HOT_TEAM),
        skewed.query_feed(),
        "SKEWED_FEED",
    )
    instance = cdr.generate(num_customers=20, num_days=2, seed=1)
    seen = set()
    for query in cdr.workload(instance, count=18):
        kind = next(k for k in CDR_TEMPLATES if query.name.endswith(k))
        seen.add(kind)
        constants = [
            term.value
            for atom in query.atoms
            for term in atom.terms
            if isinstance(term, Constant)
        ]
        if kind == "region_analysis":
            values = {"region_a": constants[0], "region_b": constants[1]}
        else:
            values = {"phone": constants[0], "day": constants[1]}
        same(CDR_TEMPLATES[kind].format(**values), query, kind)
    if seen != set(CDR_TEMPLATES):
        raise AssertionError(f"cdr.workload no longer yields {set(CDR_TEMPLATES) - seen}")


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #

QUERY, SMALL, BULK = "query", "small", "bulk"


@dataclass
class Inputs:
    """Everything one workload run needs, generated from the seed."""

    name: str
    database: Database
    access_schema: AccessSchema
    views: ViewSet
    #: ``(kind, payload)``: a query string, or an :class:`UpdateBatch`.
    round_ops: list[tuple[str, object]]
    #: Distinct strings the warm-up repeats until no answer changes tier.
    warmup_queries: list[str]
    #: State-neutral writes run once before the warm-up queries.
    warmup_writes: list[UpdateBatch] = field(default_factory=list)
    #: Untimed distinct queries between rounds (pushes the round's plans out
    #: of the LRU cache, so every round plans from scratch).
    filler: list[str] = field(default_factory=list)


def spread_sample(items: list, size_of, count: int, generator: random.Random) -> list:
    """``count`` of ``items`` at evenly spaced ranks of their size order.

    Plain random sampling makes the mean (and the tail) of the sampled sizes
    move with the seed, and with them ``Dξ`` and the latency percentiles; a
    systematic sample of the size-sorted list reproduces the instance's own
    size distribution under every seed.  Ties are ordered by the seed.
    """
    ordered = list(items)
    generator.shuffle(ordered)
    ordered.sort(key=size_of)
    step = len(ordered) / count
    return [ordered[int((index + 0.5) * step)] for index in range(count)]


def _graph_search_mix(database: Database, generator: random.Random, count: int) -> list[str]:
    """Q0 plus ``count - 1`` studio/year/rating variants over distinct groups."""
    sizes = Counter(
        (studio, year) for _, _, studio, year in database.relation("movie").tuples
    )
    q0_group = ("Universal", "2014")
    others = [(s, y) for s in gs.STUDIOS for y in gs.YEARS if (s, y) != q0_group]
    picked = spread_sample(others, sizes.__getitem__, count - 1, generator)
    # Template by size rank, so each template sees small and large groups.
    mix = [GS_Q0.format(studio=q0_group[0], year=q0_group[1], rank=5)]
    templates = [GS_RATED, GS_RANKS, GS_Q0]
    for index, (studio, year) in enumerate(picked):
        rank = generator.randint(1, 5)
        mix.append(templates[index % 3].format(studio=studio, year=year, rank=rank))
    return mix


def _warm_point(seed: int, smoke: bool) -> Inputs:
    generator = random.Random(f"warm_point:{seed}")
    instance = gs.generate(1000, 500, seed=seed)
    # 36 strings, not 12: with twelve, p95 is the latency of the one slowest
    # string (Q0 itself, whose group size is the seed's luck); with 36 it is
    # a size-ranked variant, and the mix still fits the 128-entry plan cache.
    mix = _graph_search_mix(instance.database, generator, 12 if smoke else 36)
    cycles = 2 if smoke else 134
    return Inputs(
        name="warm_point",
        database=instance.database,
        access_schema=gs.access_schema(),
        views=gs.views(),
        round_ops=[(QUERY, text) for _ in range(cycles) for text in mix],
        warmup_queries=mix,
    )


def _adhoc_plan(seed: int, smoke: bool) -> Inputs:
    generator = random.Random(f"adhoc_plan:{seed}")
    instance = cdr.generate(500, 7, seed=seed)
    # A full round is two sixteenths of each weight, a smoke round half of one.
    scale = 0.5 if smoke else 2
    per_kind = {k: max(1, int(weight * scale)) for k, weight in CDR_WEIGHTS.items()}
    # Constants without replacement: no string of a run repeats another.  A
    # (phone, day) anchor serves one query; the round's anchors sit at evenly
    # spaced ranks of their call counts (see spread_sample).
    calls = instance.database.relation("call").tuples
    outgoing = Counter((caller, day) for caller, _, day, _, _ in calls)
    incoming = Counter((callee, day) for _, callee, day, _, _ in calls)
    anchors = [(phone, day) for phone in instance.phones for day in instance.days]
    by_caller = spread_sample(
        anchors,
        outgoing.__getitem__,
        per_kind["calls_region"] + per_kind["callee_profile"],
        generator,
    )
    generator.shuffle(by_caller)  # which of the two templates gets which rank
    by_callee = spread_sample(
        anchors, incoming.__getitem__, per_kind["premium_callers"], generator
    )
    taken = set(by_caller) | set(by_callee)
    spare = [anchor for anchor in anchors if anchor not in taken]
    generator.shuffle(spare)
    regions = [(a, b) for a in cdr.REGIONS for b in cdr.REGIONS if a != b]
    generator.shuffle(regions)

    def render(kind: str, pool: list) -> str:
        if kind == "region_analysis":
            region_a, region_b = regions.pop()
            return CDR_TEMPLATES[kind].format(region_a=region_a, region_b=region_b)
        phone, day = pool.pop()
        return CDR_TEMPLATES[kind].format(phone=phone, day=day)

    kinds = [k for k, count in per_kind.items() for _ in range(count)]
    generator.shuffle(kinds)
    return Inputs(
        name="adhoc_plan",
        database=instance.database,
        access_schema=cdr.access_schema(),
        views=cdr.views(),
        round_ops=[
            (QUERY, render(kind, by_callee if kind == "premium_callers" else by_caller))
            for kind in kinds
        ],
        warmup_queries=[render(kind, spare) for kind in CDR_TEMPLATES],
        # More distinct strings than the plan cache holds entries.
        filler=[render("calls_region", spare) for _ in range(136)],
    )


def _scan_heavy(seed: int, smoke: bool) -> Inputs:
    generator = random.Random(f"scan_heavy:{seed}")
    instance = (
        skewed.generate(hot_fans=100, users=1000, seed=seed)
        if smoke
        else skewed.generate(hot_fans=800, seed=seed)
    )
    teams = [skewed.HOT_TEAM] + generator.sample(
        [f"t{i}" for i in range(1, instance.teams)], 2 if smoke else 9
    )
    mix = [SKEWED_FEED.format(celeb=skewed.HOT_CELEB, team=team) for team in teams]
    mix.append(SKEWED_UNBOUNDED)
    return Inputs(
        name="scan_heavy",
        database=instance.database,
        access_schema=skewed.access_schema(),
        views=skewed.views(),
        round_ops=[(QUERY, text) for _ in range(1 if smoke else 3) for text in mix],
        warmup_queries=mix,
    )


def _mixed_rw(seed: int, smoke: bool) -> Inputs:
    generator = random.Random(f"mixed_rw:{seed}")
    instance = gs.generate(1000, 500, seed=seed)
    database = instance.database
    mix = _graph_search_mix(database, generator, 12)
    persons = sorted(database.relation("person").tuples)
    nasa = [row[0] for row in persons if row[2] == "NASA"]
    anyone = [row[0] for row in persons]
    groups = [(s, y) for s in gs.STUDIOS for y in gs.YEARS]

    def small(index: int) -> UpdateBatch:
        mid = f"bench_m{index}"
        studio, year = ("Universal", "2014") if index % 4 == 0 else generator.choice(groups)
        fan = generator.choice(nasa if index % 2 == 0 else anyone)
        return UpdateBatch(
            [
                Insertion("movie", (mid, f"bench_title_{index}", studio, year)),
                Insertion("rating", (mid, generator.randint(1, 5))),
                Insertion("like", (fan, mid, "movie")),
            ]
        )

    transactions, passes, bulk_pairs, bulk_size = (2, 4, 1, 50) if smoke else (16, 4, 12, 1000)
    smalls = [small(index) for index in range(transactions)]
    bulk = random_update_batch(
        database, bulk_size, seed=seed, access_schema=gs.access_schema()
    )
    reads = [(QUERY, text) for _ in range(passes) for text in mix]
    ops: list[tuple[str, object]] = []
    for batch in smalls:
        ops.append((SMALL, batch))
        ops.extend(reads)
    for batch in reversed(smalls):
        ops.append((SMALL, batch.inverted()))
        ops.extend(reads)
    for _ in range(bulk_pairs):
        ops.append((BULK, bulk))
        ops.append((BULK, bulk.inverted()))
    # Three write/undo pairs take the view-maintenance kernels through their
    # own warm-up, so timed rounds maintain views on the compiled tier.
    warm_batch = small(transactions)
    warmup_writes = [warm_batch, warm_batch.inverted()] * 3 + [bulk, bulk.inverted()]
    return Inputs(
        name="mixed_rw",
        database=database,
        access_schema=gs.access_schema(),
        views=gs.views(),
        round_ops=ops,
        warmup_queries=mix,
        warmup_writes=warmup_writes,
    )


_BUILDERS = {
    "warm_point": _warm_point,
    "adhoc_plan": _adhoc_plan,
    "scan_heavy": _scan_heavy,
    "mixed_rw": _mixed_rw,
}


def build(name: str, seed: int, smoke: bool = False) -> Inputs:
    """Generate the inputs of workload ``name`` from ``seed``."""
    return _BUILDERS[name](seed, smoke)


# --------------------------------------------------------------------------- #
# Oracle
# --------------------------------------------------------------------------- #


@dataclass
class Expected:
    """What one operation of the round must produce."""

    #: Query: the rows naive evaluation gives on the state the op runs in.
    rows: frozenset[tuple] | None = None
    #: Write: updates that must be applied (none may be skipped).
    applied: int | None = None


def oracle(inputs: Inputs) -> tuple[list[Expected], dict[str, frozenset[tuple]]]:
    """Replay the round naively: expected result per op, and the view rows.

    Works on a copy of the pristine database and never touches a service:
    queries are evaluated by the reference CQ evaluator over the plain fact
    sets, writes go through a bare ``Database.apply``.  Also checks that the
    round is state-neutral, which is what lets every timed round repeat it.
    """
    database = inputs.database.copy()
    parsed = {
        text: parse_query(text) for kind, text in inputs.round_ops if kind == QUERY
    }
    expected: list[Expected] = []
    answers: dict[str, frozenset[tuple]] = {}
    for kind, payload in inputs.round_ops:
        if kind == QUERY:
            if payload not in answers:
                answers[payload] = frozenset(evaluate_ucq(parsed[payload], database.facts))
            expected.append(Expected(rows=answers[payload]))
        else:
            stream = database.apply(payload)
            if stream.applied != len(payload):
                raise AssertionError(f"{inputs.name}: a generated write is a no-op")
            expected.append(Expected(applied=stream.applied))
            answers.clear()
    if database.facts != inputs.database.facts:
        raise AssertionError(f"{inputs.name}: the round is not state-neutral")
    views = {
        view.name: frozenset(evaluate_ucq(view.as_ucq(), database.facts))
        for view in inputs.views
    }
    return expected, views
