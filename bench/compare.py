#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py --all``: is B worse than A?

    python3 bench/compare.py A.json B.json

For every (end-to-end metric, workload) pair prints A, B, the ratio B/A (its
base is A) and a verdict against the bound ``BENCHMARK.json`` fixes for the
metric: ``within bound``, ``regressed`` (B worse than A by more than the
bound) or ``unresolved`` (the round-to-round IQR of A or B is itself wider
than the bound, so the pair cannot tell).  Exits non-zero on any regression,
or when a run in either file failed its correctness checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def verdict(metric: dict, a: float, b: float, spread_a: float, spread_b: float) -> str:
    bound = metric["bound"]
    worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    if worse > bound:
        return "regressed"
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    return "within bound"


def compare(a: dict, b: dict, spec: dict) -> int:
    regressions = 0
    for workload in (w["name"] for w in spec["workloads"]):
        run_a = a["workloads"][workload]["end_to_end"]
        run_b = b["workloads"][workload]["end_to_end"]
        print(f"\n== {workload} ==")
        for side, run in (("A", run_a), ("B", run_b)):
            if not run["correct"]:
                print(f"  {side} failed {run['failed']} of {run['attempted']} operations")
                regressions += 1
        if run_a["details"]["counts"] != run_b["details"]["counts"]:
            print(f"  exact counts differ: A {run_a['details']['counts']}")
            print(f"                       B {run_b['details']['counts']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            value_a = run_a["metrics"][name]["value"]
            value_b = run_b["metrics"][name]["value"]
            spread_a = run_a["details"]["iqr"].get(name, 0.0) / value_a
            spread_b = run_b["details"]["iqr"].get(name, 0.0) / value_b
            outcome = verdict(metric, value_a, value_b, spread_a, spread_b)
            regressions += outcome == "regressed"
            print(
                f"  {name:26s} A {value_a:12.6g}  B {value_b:12.6g} {metric['unit']:6s}"
                f" B/A {value_b / value_a:6.3f}  IQR/median A {spread_a:5.1%} B {spread_b:5.1%}"
                f"  bound {metric['bound']:.0%} ({metric['better']} is better): {outcome}"
            )
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]), load(str(ROOT / "BENCHMARK.json")))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
