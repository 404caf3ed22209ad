"""The repository around the package: what ``setup.py`` installs, that
``bench/`` (declared by ``BENCHMARK.json``) is the only benchmark, and the
keyword surface of the serving entry points."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.service import QueryService, ViewMaintainer

ROOT = Path(__file__).resolve().parent.parent


def test_setup_declares_name_version_and_every_package():
    find_packages = pytest.importorskip("setuptools").find_packages
    done = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["bounded-query-rewriting", repro.__version__]
    src = ROOT / "src"
    on_disk = {
        ".".join(init.parent.relative_to(src).parts)
        for init in (src / "repro").rglob("__init__.py")
    }
    assert on_disk <= set(find_packages(str(src)))


def test_bench_is_the_only_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    paths = [ROOT / path for path in spec["paths"]]
    assert (ROOT / spec["command"][-1]).is_file()
    assert all(path.is_dir() for path in paths)
    stray = [
        script
        for script in ROOT.rglob("bench_*.py")
        if not any(path in script.parents for path in paths)
        and not any(part.startswith(".") for part in script.relative_to(ROOT).parts)
    ]
    assert not stray
    assert not list(ROOT.glob("BENCH_*.json"))
    assert "pytest-benchmark" not in (ROOT / "requirements-dev.txt").read_text()
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "benchmarks/" not in ci and "bench_trajectory" not in ci


def _keyword_only(cls) -> list[str]:
    return [
        parameter.name
        for parameter in inspect.signature(cls).parameters.values()
        if parameter.kind is parameter.KEYWORD_ONLY
    ]


def test_serving_keywords_are_pinned():
    """A new knob is a decision, not a drift: extending any list means
    editing this test.  Plan verification and compilation are not knobs —
    every plan and view delta program is verified and compiled once, when it
    is admitted — and neither are partitioning, a worker pool or a backend:
    every read pins one snapshot, ``query_many`` is a loop over ``query``,
    and every answer runs on the one metered in-memory backend.  Nor is
    re-planning: a plan is chosen once, from the exact column statistics."""
    assert _keyword_only(QueryService) == [
        "planners",
        "plan_cache_size",
        "check_constraints",
        "budget",
        "inner_size_cutoff",
        "plan_store",
    ]
    retired_knobs = (
        "verify_plans",
        "codegen",
        "codegen_warmup",
        "shards",
        "backend",
        "replan_factor",
        "max_replans",
    )
    for retired in retired_knobs:
        with pytest.raises(TypeError, match=retired):
            QueryService(None, None, **{retired: 0})
    assert _keyword_only(QueryService.query_many) == ["planners", "use_cache"]
    # codegen_warmup is ignored, kept for bench/staged.py (ROADMAP item 1).
    assert _keyword_only(ViewMaintainer) == ["subscribe", "codegen_warmup"]


@pytest.mark.parametrize(
    "module", ["repro.engine.service.sharding", "repro.analysis.sharding"]
)
def test_the_partitioning_modules_are_gone(module):
    """There is one partition: no shard router, no shard-set analysis."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_the_histogram_module_is_gone():
    """Column statistics are the exact value counts: no equi-depth
    histograms to build, shift or rebuild."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.storage.histograms")


def test_the_partitioning_names_are_gone():
    from repro.analysis.explain import Explanation
    from repro.engine.service.stats import ServiceStats, StatsSnapshot
    from repro.exec.iometer import IOMeter
    from repro.storage import snapshots

    for name in ("BoundSnapshotReader", "shard_of", "single_shard_layout"):
        assert not hasattr(snapshots, name), name
    assert not hasattr(snapshots.DatabaseSnapshot, "bound_to")
    assert not hasattr(IOMeter, "record_shard")
    assert not hasattr(QueryService, "shard_count")
    assert "shard_set" not in {f.name for f in dataclasses.fields(Explanation)}
    counters = {"single_shard_queries", "fanout_queries", "shards_touched", "shards_pruned"}
    assert not counters & {f.name for f in dataclasses.fields(StatsSnapshot)}
    assert not any(hasattr(ServiceStats(), name) for name in counters)


BACKEND_CALLS = {
    "query": lambda service, text, plan: service.query(text, backend="memory"),
    "prepare": lambda service, text, plan: service.prepare(text, backend="memory"),
    "query_many": lambda service, text, plan: service.query_many([text], backend="memory"),
    "execute_plan": lambda service, text, plan: service.execute_plan(plan, backend="memory"),
    "baseline": lambda service, text, plan: service.baseline(text, backend="memory"),
}


@pytest.mark.parametrize("entry_point", sorted(BACKEND_CALLS))
def test_no_entry_point_takes_a_backend(rs_database, rs_access_schema, entry_point):
    """There is one backend, so no call can pick another: every serving
    entry point rejects ``backend=`` as an unknown keyword."""
    with QueryService(rs_database, rs_access_schema) as service:
        plan = service.plan("Q(c) :- R(1, b), S(b, c)")[0].plan
        assert plan is not None
        with pytest.raises(TypeError, match="backend"):
            BACKEND_CALLS[entry_point](service, "Q(a, c) :- R(a, b), S(b, c)", plan)
        assert service.stats.snapshot().queries == 0
    method = getattr(QueryService, entry_point)
    assert "backend" not in inspect.signature(method).parameters


def test_the_sqlite_backend_names_are_gone():
    from repro import engine
    from repro.engine import service
    from repro.engine.service import backends
    from repro.engine.service.stats import ServiceStats, StatsSnapshot

    for module in (engine, service, backends):
        for name in ("SQLiteBackend", "ExecutionBackend", "make_backend"):
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ()), (module.__name__, name)
    assert "backend_uses" not in {f.name for f in dataclasses.fields(StatsSnapshot)}
    assert not hasattr(ServiceStats(), "backend_uses")
    assert "backend" not in {f.name for f in dataclasses.fields(repro.PreparedQuery)}


def test_no_module_under_src_imports_sqlite3():
    """SQL runs in the tests only (``conftest.SQLOracle``): a serving copy of
    the data in a DBMS would be a third copy and an unmetered ``Dξ``."""
    importers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "sqlite3" for name in names):
                importers.append(str(path.relative_to(ROOT)))
    assert not importers


def test_the_plan_interpreter_is_gone():
    """One plan evaluator: the compiled closure of ``exec/codegen.py``.  The
    Volcano interpreter — ``PlanExecutor``, ``core.plan_eval.execute_plan``,
    ``exec/plan_compiler.py`` and ``exec/operators.py`` — stays deleted,
    exports included, and nothing under ``src/`` mentions it."""
    from repro import core
    from repro.core import plan_eval
    from repro.exec import cq_compiler

    for module in ("repro.exec.operators", "repro.exec.plan_compiler"):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    for package in (repro, core):
        for name in ("PlanExecutor", "execute_plan"):
            assert not hasattr(package, name) and name not in package.__all__, name
    for module, name in (
        (plan_eval, "PlanExecutor"),
        (plan_eval, "execute_plan"),
        (cq_compiler, "atom_scan"),
        (cq_compiler, "head_projection"),
    ):
        assert not hasattr(module, name), name
    names = (
        "PlanExecutor", "plan_compiler", "exec.operators", "LookupJoin",
        "cq_pipeline", "join_atom",
    )
    mentions = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src").rglob("*.py"))
        if any(name in path.read_text(encoding="utf-8") for name in names)
    ]
    assert not mentions


def test_one_join_orderer_the_cost_planner_fork_is_gone():
    """The subset search of ``algebra/join_order.py`` orders both bounded
    plans and loop nests.  The opt-in ``"cost"`` planner, its builders and
    the greedy order simulation stay deleted, exports included, and nothing
    under ``src/`` mentions them."""
    from repro import engine
    from repro.engine import optimizer, service
    from repro.engine.service import planners

    assert "cost" not in planners.available_planners()
    with pytest.raises(repro.QueryError, match="unknown planner 'cost'"):
        planners.resolve_planners(("cost",))
    names = (
        "CostBasedPlanner", "build_bounded_plan_cost", "build_bounded_plan_cost_ucq",
        "_greedy_order_simulation",
    )
    for module in (repro, engine, service, planners, optimizer):
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ()), (module.__name__, name)
    mentions = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src").rglob("*.py"))
        if any(name in path.read_text(encoding="utf-8") for name in names)
    ]
    assert not mentions


def test_one_loop_nest_generator_the_delta_code_generator_is_gone():
    """Delta rules and support checks are CQs compiled by ``compile_cq``:
    the delta rewrite generates no code, ``cq_compiler`` is the one place
    generated source is ``exec``'d, and the second generator's orderer,
    stages, exec site and resolver metering are gone from ``src/``."""
    from repro.exec import codegen, cq_compiler, delta_compiler

    names = (
        "_order_remaining", "_JoinStage", "compile_closure_source", "metered_resolver",
        "LookupResolver", "compile_maintenance", "MaintenanceKernels", "_StateResolvers",
        "DeltaRule", "SupportCheck", "RuleKernels", "DisjunctKernels", "_KernelSource",
        "_emit_stage_", "_rule_kernel", "_support_kernel",
    )
    for module in (codegen, cq_compiler, delta_compiler):
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
    mentions = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src").rglob("*.py"))
        if any(name in path.read_text(encoding="utf-8") for name in names)
    ]
    assert not mentions
    rewrite = (ROOT / "src/repro/exec/delta_compiler.py").read_text(encoding="utf-8")
    assert "exec(" not in rewrite and "compile(" not in rewrite
    exec_sites = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src").rglob("*.py"))
        if "exec(" in path.read_text(encoding="utf-8")
    ]
    assert exec_sites == ["src/repro/exec/cq_compiler.py"]


def test_one_probe_routine_the_factor_special_cases_are_gone():
    """The plan kernel's join and product steps classify every factor from
    the columns its consumer reads: the one-keyed-factor probe, the
    factor projection and the per-shape compile functions they hung off
    are gone from ``src/``, and the quadratic ``sum(parts, ())`` with
    them."""
    from repro.exec import codegen, lowering

    names = (
        "probe_factor", "probe_chain", "_compile_factor_projection", "_compile_probe",
        "_compile_join", "_compile_fetch", "_fuse_fetch", "step_join_semi",
        "key_extractor",
    )
    for module in (codegen, lowering):
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
    mentions = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src").rglob("*.py"))
        if any(name in path.read_text(encoding="utf-8") for name in names)
    ]
    assert not mentions
    kernel = (ROOT / "src/repro/exec/codegen.py").read_text(encoding="utf-8")
    assert "sum(parts" not in kernel
