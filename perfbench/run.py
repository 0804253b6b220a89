#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name.

    python3 perfbench/run.py                      # all workloads, report + perfbench/out/BENCH.json
    python3 perfbench/run.py --trace 1            # traced: per-layer metrics, BENCH_trace.json + TRACE_*.json
    python3 perfbench/run.py --agree              # two sets; fails when they differ by more than a bound
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                  # one workload; last stdout line is the result object

Each workload runs in a fresh ``worker.py`` subprocess with
``PYTHONHASHSEED=0`` and without the ``REPRO_*`` variables that change what
the program does, so neither the caller's environment nor an earlier
workload can leak into a measurement.  ``BENCHMARK.json`` at the repository
root names the workloads and metrics for the driver; README.md explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import END_TO_END, WORKLOAD_NAMES  # noqa: E402

#: Variables that would switch backend, tracing, cost model, plan
#: verification or logging inside the program.
SCRUBBED = (
    "REPRO_BACKEND",
    "REPRO_TRACE",
    "REPRO_COST_PROFILE",
    "REPRO_VERIFY_PLANS",
    "REPRO_SLOW_QUERY_MS",
    "REPRO_SHARD_WORKERS",
)

#: A worker that overruns this is killed and the run fails (the driver's cap is 180 s).
WORKER_TIMEOUT_SECONDS = 170


def run_worker(workload: str, seed: int, seconds: float, trace: int, scale: str) -> Optional[Dict[str, Any]]:
    """Run one workload; echo its report; return its result object (None on failure)."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: {source}/repro not found — run from a checkout of the repository", file=sys.stderr)
        return None
    env = {key: value for key, value in os.environ.items() if key not in SCRUBBED}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = source
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", scale,
    ]
    try:
        finished = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_SECONDS,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} exceeded {WORKER_TIMEOUT_SECONDS} s", file=sys.stderr)
        return None
    lines = finished.stdout.splitlines()
    if finished.returncode != 0 or not lines:
        sys.stdout.write(finished.stdout)
        print(f"error: worker for {workload} exited with code {finished.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_set(args: argparse.Namespace, workloads: List[str]) -> Optional[Dict[str, Dict[str, Any]]]:
    results = {}
    for workload in workloads:
        result = run_worker(workload, args.seed, args.seconds, args.trace, args.scale)
        if result is None:
            return None
        status = "ok" if result["correct"] else "FAILED"
        print(f"  outputs {status}: {result['failed']} failed of {result['attempted']} attempted\n")
        results[workload] = result
    return results


def write_bench(args: argparse.Namespace, results: Dict[str, Dict[str, Any]]) -> None:
    """One file per set: the result objects plus each worker's details
    (digests, environment, set-up phases)."""
    suffix = "_trace" if args.trace else ""
    details = {}
    for workload in results:
        with open(os.path.join(HERE, "out", f"RUN_{workload}{suffix}.json"), encoding="utf-8") as handle:
            details[workload] = json.load(handle)
    document = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workloads": results, "details": details,
    }
    path = os.path.join(HERE, "out", f"BENCH{suffix}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(path, ROOT)}")


def agree(first: Dict[str, Dict[str, Any]], second: Dict[str, Dict[str, Any]]) -> bool:
    """Print both sets side by side; True when every metric of the second
    set is within its bound of the first."""
    within = True
    print(f"{'workload':18} {'metric':12} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}")
    for workload in first:
        for name, unit, better, bound in END_TO_END:
            a = first[workload]["metrics"][name]["value"]
            b = second[workload]["metrics"][name]["value"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            flag = "" if worse <= bound else "  OUTSIDE"
            within = within and worse <= bound
            print(f"{workload:18} {name:12} {a:12.4f} {b:12.4f} {worse:+9.1%} {bound:6.0%}{flag}")
    return within


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--agree", action="store_true", help="run the set twice and compare against the bounds")
    parser.add_argument("--scale", default="full", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.agree and args.trace:
        parser.error("--agree compares end-to-end metrics, which come from untraced runs")

    if args.workload:
        result = run_worker(args.workload, args.seed, args.seconds, args.trace, args.scale)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    first = run_set(args, WORKLOAD_NAMES)
    if first is None:
        return 1
    correct = all(result["correct"] for result in first.values())
    write_bench(args, first)
    if args.agree:
        second = run_set(args, WORKLOAD_NAMES)
        if second is None:
            return 1
        correct = correct and all(result["correct"] for result in second.values())
        if not agree(first, second):
            return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
