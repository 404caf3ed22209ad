"""Tests for the persistent plan store: round-trips, staleness, migrations,
corruption handling, and the service-level load/save integration."""

import pickle

import pytest

from repro.algebra.atoms import RelationAtom
from repro.algebra.cq import ConjunctiveQuery
from repro.algebra.schema import schema_from_spec
from repro.algebra.terms import Constant, Variable
from repro.core.plans import FetchNode
from repro.engine.service import QueryService
from repro.engine.service.plan_store import (
    FORMAT_VERSION,
    _MAGIC,
    PlanStore,
    StoredEntry,
)
from repro.errors import PlanStoreError
from repro.storage.instance import Database
from repro.core.access import AccessConstraint, AccessSchema

FP = "fingerprint-a"
CHAIN = (("heuristic", ()), ("topped", ()))


def _entry(key=("q", CHAIN, None, None, None), plan="PLAN", **overrides):
    fields = dict(
        cache_key=key,
        plan=plan,
        planner="heuristic",
        reason="",
        parameters=frozenset(),
        executions=3,
        estimated_fetches=12.5,
        replans=1,
        replan_reason="why",
    )
    fields.update(overrides)
    return StoredEntry(**fields)


# --------------------------------------------------------------------------- #
# Round-trips and staleness
# --------------------------------------------------------------------------- #


def test_round_trip_preserves_entries(tmp_path):
    store = PlanStore(str(tmp_path / "plans.bin"))
    entries = [_entry(), _entry(key=("q2", CHAIN, None, None, None), plan=("a", "b"))]
    store.save(FP, CHAIN, entries)
    assert store.saved == 2

    fresh = PlanStore(store.path)
    loaded = fresh.load(FP, CHAIN)
    assert loaded == entries
    assert fresh.loaded == 2


def test_missing_file_loads_empty(tmp_path):
    assert PlanStore(str(tmp_path / "absent.bin")).load(FP, CHAIN) == []


def test_stale_fingerprint_loads_empty(tmp_path):
    store = PlanStore(str(tmp_path / "plans.bin"))
    store.save(FP, CHAIN, [_entry()])
    assert store.load("fingerprint-b", CHAIN) == []


def test_stale_chain_signature_loads_empty(tmp_path):
    store = PlanStore(str(tmp_path / "plans.bin"))
    store.save(FP, CHAIN, [_entry()])
    assert store.load(FP, (("cost", ()),)) == []


def test_save_is_atomic_and_leaves_no_temp_files(tmp_path):
    store = PlanStore(str(tmp_path / "plans.bin"))
    store.save(FP, CHAIN, [_entry()])
    store.save(FP, CHAIN, [_entry(), _entry(key=("q2", CHAIN, None, None, None))])
    assert [p.name for p in tmp_path.iterdir()] == ["plans.bin"]
    assert len(store.load(FP, CHAIN)) == 2


# --------------------------------------------------------------------------- #
# Version handling: migration forward, discard of unknown versions
# --------------------------------------------------------------------------- #


def _write_payload(path, payload):
    path.write_bytes(_MAGIC + pickle.dumps(payload))


def test_v1_payload_is_migrated_with_defaults(tmp_path):
    path = tmp_path / "plans.bin"
    v1_entry = {
        "cache_key": ("q", CHAIN, None, None, None),
        "plan": "PLAN",
        "planner": "heuristic",
        "executions": 7,
        "codegen_state": "compiled",  # persisted by old writers, never read
        # no estimated_fetches / fetch_estimates / replans / order_report:
        # those fields arrived with optimizer v2 (format_version 2).
    }
    _write_payload(
        path,
        {
            "format_version": 1,
            "fingerprint": FP,
            "chain_signature": CHAIN,
            "entries": [v1_entry],
        },
    )
    (loaded,) = PlanStore(str(path)).load(FP, CHAIN)
    assert loaded.executions == 7
    assert loaded.estimated_fetches is None
    assert loaded.fetch_estimates == ()
    assert loaded.replans == 0
    assert loaded.order_report is None


def test_future_version_is_discarded_not_an_error(tmp_path):
    path = tmp_path / "plans.bin"
    _write_payload(
        path,
        {
            "format_version": FORMAT_VERSION + 1,
            "fingerprint": FP,
            "chain_signature": CHAIN,
            "entries": [{"cache_key": ("q",), "plan": "P", "shape": "unknown"}],
        },
    )
    assert PlanStore(str(path)).load(FP, CHAIN) == []


def test_ancient_version_without_migration_is_discarded(tmp_path):
    path = tmp_path / "plans.bin"
    _write_payload(path, {"format_version": 0, "entries": []})
    assert PlanStore(str(path)).load(FP, CHAIN) == []


def test_non_integer_version_is_discarded(tmp_path):
    path = tmp_path / "plans.bin"
    _write_payload(path, {"format_version": "2", "entries": []})
    assert PlanStore(str(path)).load(FP, CHAIN) == []


# --------------------------------------------------------------------------- #
# Corruption: truncated / garbage files raise PlanStoreError
# --------------------------------------------------------------------------- #


def test_garbage_file_raises(tmp_path):
    path = tmp_path / "plans.bin"
    path.write_bytes(b"this is not a plan store")
    with pytest.raises(PlanStoreError, match="bad magic"):
        PlanStore(str(path)).load(FP, CHAIN)


def test_truncated_file_raises(tmp_path):
    store = PlanStore(str(tmp_path / "plans.bin"))
    store.save(FP, CHAIN, [_entry()])
    blob = (tmp_path / "plans.bin").read_bytes()
    (tmp_path / "plans.bin").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(PlanStoreError, match="corrupt or truncated"):
        store.load(FP, CHAIN)


def test_garbage_after_magic_raises(tmp_path):
    path = tmp_path / "plans.bin"
    path.write_bytes(_MAGIC + b"\x00\x01garbage")
    with pytest.raises(PlanStoreError, match="corrupt or truncated"):
        PlanStore(str(path)).load(FP, CHAIN)


def test_non_dict_payload_raises(tmp_path):
    path = tmp_path / "plans.bin"
    path.write_bytes(_MAGIC + pickle.dumps(["not", "a", "dict"]))
    with pytest.raises(PlanStoreError, match="unrecognised payload"):
        PlanStore(str(path)).load(FP, CHAIN)


def test_dict_without_version_raises(tmp_path):
    path = tmp_path / "plans.bin"
    _write_payload(path, {"entries": []})
    with pytest.raises(PlanStoreError, match="unrecognised payload"):
        PlanStore(str(path)).load(FP, CHAIN)


# --------------------------------------------------------------------------- #
# Service integration: restart reuse, graceful fallback on damage
# --------------------------------------------------------------------------- #

SCHEMA = schema_from_spec({"R": ("a", "b"), "S": ("b", "c")})
ACCESS = AccessSchema(
    (
        AccessConstraint("R", ("a",), ("b",), 2),
        AccessConstraint("S", ("b",), ("c",), 1),
    )
)


def _database():
    db = Database(SCHEMA)
    db.add_many("R", [(1, 10), (1, 11), (2, 20)])
    db.add_many("S", [(10, "x"), (11, "y"), (20, "z")])
    return db


def _chain_query():
    y, z = Variable("y"), Variable("z")
    return ConjunctiveQuery(
        head=(z,),
        atoms=(RelationAtom("R", (Constant(1), y)), RelationAtom("S", (y, z))),
        name="chain",
    )


def test_service_restart_reuses_persisted_plans(tmp_path):
    path = str(tmp_path / "plans.bin")
    database = _database()
    query = _chain_query()

    first = QueryService(database, ACCESS, plan_store=path)
    expected = first.query(query).rows
    first.close()
    assert first.plan_store.saved >= 1

    second = QueryService(database, ACCESS, plan_store=path)
    answer = second.query(query)
    assert answer.rows == expected
    assert answer.cache_hit  # planned before the restart, not after
    assert second.stats.snapshot().plan_store_hits == 1
    assert second.plan_store_error == ""
    second.close()


def test_service_replans_when_data_changed_since_store(tmp_path):
    path = str(tmp_path / "plans.bin")
    database = _database()
    query = _chain_query()

    first = QueryService(database, ACCESS, plan_store=path)
    first.query(query)
    first.close()

    database.add("R", (4, 40))  # statistics fingerprint moves on
    second = QueryService(database, ACCESS, plan_store=path)
    answer = second.query(query)
    assert not answer.cache_hit
    assert second.stats.snapshot().plan_store_hits == 0
    second.close()


def test_service_survives_corrupt_store_and_rewrites_it(tmp_path):
    path = tmp_path / "plans.bin"
    path.write_bytes(b"garbage, not a store")
    database = _database()
    query = _chain_query()

    service = QueryService(database, ACCESS, plan_store=str(path))
    assert "bad magic" in service.plan_store_error  # noted, not fatal
    expected = service.query(query).rows  # serving is unaffected
    service.close()  # close() replaces the damaged file with a good one

    fresh = QueryService(database, ACCESS, plan_store=str(path))
    assert fresh.plan_store_error == ""
    answer = fresh.query(query)
    assert answer.rows == expected
    assert answer.cache_hit
    fresh.close()


def test_restored_plan_failing_verification_is_dropped_and_replanned(tmp_path):
    """A restored plan is admitted like a fresh one: a sabotaged plan (a
    fetch no access constraint covers) is dropped and named on
    ``plan_store_error``, the service still starts, and the query is planned
    afresh — and served compiled — on first use."""
    path = tmp_path / "plans.bin"
    database = _database()
    query = _chain_query()
    first = QueryService(database, ACCESS, plan_store=str(path))
    expected = first.query(query).rows
    first.close()
    payload = pickle.loads(path.read_bytes()[len(_MAGIC):])
    (stored,) = payload["entries"]
    stored["plan"] = FetchNode(None, "S", (), ("b", "c"))
    _write_payload(path, payload)

    service = QueryService(database, ACCESS, plan_store=str(path))
    assert "dropped 1 stored plan" in service.plan_store_error
    assert "stored plan fetch" in service.plan_store_error
    assert service.plan_cache.entries() == []
    answer = service.query(query)
    assert (answer.rows, answer.cache_hit, answer.execution_tier) == (
        expected, False, "compiled",
    )
    assert service.stats.snapshot().plan_store_hits == 0
    service.close()


def test_store_written_under_the_greedy_orderer_is_never_served(tmp_path):
    """The heuristic builder's signature names its orderer: a store saved
    by a service whose heuristic planner was the greedy one — signature
    ``("heuristic",)`` — loads zero entries, and the query is planned afresh
    by the subset search."""
    path = tmp_path / "plans.bin"
    database = _database()
    query = _chain_query()
    first = QueryService(database, ACCESS, plan_store=str(path))
    first.query(query)
    first.close()
    greedy_chain = (("heuristic",), ("topped",))
    payload = pickle.loads(path.read_bytes()[len(_MAGIC):])
    assert payload["chain_signature"][0] == ("heuristic", "dp", 10)
    payload["chain_signature"] = greedy_chain
    for stored in payload["entries"]:
        stored["cache_key"] = (stored["cache_key"][0], greedy_chain) + tuple(
            stored["cache_key"][2:]
        )
    _write_payload(path, payload)
    assert len(PlanStore(str(path)).load(payload["fingerprint"], greedy_chain)) == 1

    service = QueryService(database, ACCESS, plan_store=str(path))
    assert service.plan_store.loaded == 0
    assert service.plan_cache.entries() == []
    answer = service.query(query)
    assert not answer.cache_hit
    assert service.stats.snapshot().plan_store_hits == 0
    assert service.explain(query).order_strategy == "dp"
    service.close()
