"""Tier-1 smoke test of the benchmark (``bench/run.py --smoke``, a few seconds).

Guards the contract between ``BENCHMARK.json`` and the runner: every workload
and every metric the specification names is printed, nothing else is, no
operation fails — and an answer that differs from the oracle is counted.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(BENCH / "run.py")]

HEADER = re.compile(r"^== (\S+):")
READING = re.compile(r"^  (\S+)\s+(\S+) (\S+)")


def test_smoke_prints_exactly_the_specified_metrics(tmp_path):
    done = subprocess.run(
        [*RUN, "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    printed: dict[str, dict[str, tuple[float, str]]] = {}
    for line in done.stdout.splitlines():
        if match := HEADER.match(line):
            current = printed.setdefault(match.group(1), {})
        elif (match := READING.match(line)) and match.group(1)[0].isalpha():
            try:
                current[match.group(1)] = (float(match.group(2)), match.group(3))
            except ValueError:
                continue  # a prose line, not a reading
    assert list(printed) == [w["name"] for w in SPEC["workloads"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    units["failed_share"] = "ratio"
    for workload, readings in printed.items():
        assert {n: unit for n, (_, unit) in readings.items()} == units, workload
        assert readings["failed_share"][0] == 0
        for metric in SPEC["end_to_end"]:
            assert readings[metric["name"]][0] > 0, (workload, metric["name"])


def test_wrong_answer_is_counted_as_failed(tmp_path):
    done = subprocess.run(
        [*RUN, "--workload", "warm_point", "--tiny", "--seconds", "0", "--corrupt",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode != 0
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
