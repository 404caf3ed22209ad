"""The repository around the package: what ``setup.py`` installs, and that
``bench/`` (declared by ``BENCHMARK.json``) is the only benchmark."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

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
