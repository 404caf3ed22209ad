"""The repository around the package: what ``setup.py`` installs, that
``bench/`` (declared by ``BENCHMARK.json``) is the only benchmark, and the
keyword surface of the serving entry points."""

from __future__ import annotations

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
    is admitted — and neither are partitioning or a worker pool: every read
    pins one snapshot, and ``query_many`` is a loop over ``query``."""
    assert _keyword_only(QueryService) == [
        "planners",
        "backend",
        "plan_cache_size",
        "check_constraints",
        "budget",
        "inner_size_cutoff",
        "plan_store",
        "replan_factor",
        "max_replans",
    ]
    for retired in ("verify_plans", "codegen", "codegen_warmup", "shards"):
        with pytest.raises(TypeError, match=retired):
            QueryService(None, None, **{retired: 0})
    assert _keyword_only(QueryService.query_many) == [
        "backend",
        "planners",
        "use_cache",
    ]
    # codegen_warmup is ignored, kept for bench/staged.py (ROADMAP item 1).
    assert _keyword_only(ViewMaintainer) == ["subscribe", "codegen_warmup"]


@pytest.mark.parametrize(
    "module", ["repro.engine.service.sharding", "repro.analysis.sharding"]
)
def test_the_partitioning_modules_are_gone(module):
    """There is one partition: no shard router, no shard-set analysis."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


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
