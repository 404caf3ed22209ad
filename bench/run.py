#!/usr/bin/env python3
"""The repo's benchmark: one command, four workloads, named metrics.

    python3 bench/run.py --all --seed 11            # every workload, end to end
    python3 bench/run.py --all --seed 11 --trace    # plus the per-layer pass
    python3 bench/run.py --smoke                    # tiny counts, a few seconds
    python3 bench/run.py --workload warm_point --seed 3 --seconds 20 --trace 0

The last form is the contract of ``BENCHMARK.json``: it runs one workload in
this process and prints, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--all`` runs
each workload that way in a fresh subprocess and writes everything to
``<out>/results-seed<N>.json`` for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"


def specification() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": "0",  # every workload process runs with it
        "gc": "enabled",
        "platform": platform.platform(),
    }


def parse_arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload in this process")
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument("--smoke", action="store_true", help="--all --trace, tiny counts")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="timed seconds per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced pass (per-layer metrics)",
    )
    parser.add_argument("--out", default=str(ROOT / ".bench_out"), help="results, spans")
    parser.add_argument(
        "--record", action="store_true",
        help="with --all: store this seed's exact counts in bench/expected.json",
    )
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--details", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    """One workload, in this process; the result is the last line printed."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order must not differ from run to run: re-execute
        # with a fixed hash seed (this replaces the process, nothing is left).
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.path[:0] = [str(SOURCE), str(BENCH)]
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else specification()["run_seconds"]
    result = harness.run(
        args.workload,
        args.seed,
        seconds,
        bool(args.trace),
        smoke=args.tiny,
        corrupt=args.corrupt,
        out_dir=args.out,
    )
    details = result.pop("details")
    for note in details["notes"]:
        print("FAILED:", note, file=sys.stderr)
    if args.details:
        with open(args.details, "w") as handle:
            json.dump(details, handle)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh subprocess; print and store every metric."""
    spec = specification()
    names = [w["name"] for w in spec["workloads"]]
    smoke = args.smoke
    # A traced run measures untraced rounds first, for half its time.  The
    # smoke run takes its end-to-end metrics from those; a full run gives the
    # end-to-end metrics a run of their own.
    passes = [1] if smoke else [0, 1] if args.trace else [0]
    os.makedirs(args.out, exist_ok=True)
    results: dict = {"environment": environment(), "seed": args.seed, "workloads": {}}
    failed = False
    for name in names:
        entry: dict = {}
        for trace in passes:
            details_path = os.path.join(args.out, f"details-{name}-{trace}.json")
            command = [
                sys.executable, str(BENCH / "run.py"),
                "--workload", name, "--seed", str(args.seed), "--trace", str(trace),
                "--out", args.out, "--details", details_path,
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if smoke:
                command += ["--tiny", "--seconds", "0"]
            if args.corrupt and name == names[0]:
                command.append("--corrupt")
            done = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=600,
                env={**os.environ, "PYTHONHASHSEED": "0"},
            )
            lines = done.stdout.strip().splitlines()
            if not lines:
                print(f"{name}: no result (exit code {done.returncode})", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            with open(details_path) as handle:
                result["details"] = json.load(handle)
            os.unlink(details_path)
            entry["per_layer" if trace else "end_to_end"] = result
            if smoke:
                entry["end_to_end"] = {**result, "metrics": result["details"]["end_to_end"]}
            failed |= done.returncode != 0 or not result["correct"]
        results["workloads"][name] = entry
        report(name, entry)
    suffix = "smoke" if smoke else f"seed{args.seed}"
    path = os.path.join(args.out, f"results-{suffix}.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1)
    print(f"\nresults written to {path}")
    if args.record and not smoke and not failed:
        expected_path = BENCH / "expected.json"
        expected = json.loads(expected_path.read_text())
        expected[str(args.seed)] = {
            name: entry["end_to_end"]["details"]["counts"]
            for name, entry in results["workloads"].items()
        }
        expected_path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"exact counts of seed {args.seed} recorded in {expected_path}")
    return 1 if failed else 0


def report(name: str, entry: dict) -> None:
    """Print every metric of one workload by name, with its unit."""
    run = entry["end_to_end"]
    details = run["details"]
    print(
        f"\n== {name}: {details['rounds']} rounds x {details['ops_per_round']} ops, "
        f"{details['read_samples']} read samples =="
    )
    share = run["failed"] / run["attempted"]
    print(f"  {'failed_share':34s} {share:14.6g} ratio  ({run['failed']}/{run['attempted']})")
    for metric, reading in run["metrics"].items():
        iqr = details["iqr"].get(metric)
        spread = f"  (IQR over rounds {iqr:.4g})" if iqr is not None else ""
        print(f"  {metric:34s} {reading['value']:14.6g} {reading['unit']}{spread}")
    print(f"  counts per round: {details['counts']}")
    if "per_layer" in entry:
        traced = entry["per_layer"]
        print(f"  -- traced pass: {traced['details']['traced_rounds']} staged rounds, "
              f"{traced['details']['spans']} spans, failed {traced['failed']} --")
        for metric, reading in traced["metrics"].items():
            print(f"  {metric:34s} {reading['value']:14.6g} {reading['unit']}")
        shares = traced["details"]["group_shares"]
        print("  share of staged time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))


def main(argv: list[str]) -> int:
    args = parse_arguments(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"the program under test is missing: no {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
