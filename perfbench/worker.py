"""One workload, in this process: checks, set-up, measured pass, report.

Started by ``run.py`` with a scrubbed environment.  Prints a readable report
and, as the last line of standard output, the result object the driver
reads.  Everything else worth keeping (digests, environment, phase times)
goes to ``perfbench/out/RUN_<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from typing import Any, Dict, List, Sequence

import checks
import clock
import layers
import workloads as wl
from repro.core.planner import plan_call_count, sampling_call_count
from repro.obs import get_registry, get_tracer
from spec import END_TO_END_NAMES, PER_LAYER_NAMES, UNITS, WORKLOAD_NAMES

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def environment() -> Dict[str, Any]:
    cores = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > cores:
        print(f"warning: 1-min load average {load:.2f} exceeds {cores} cores", file=sys.stderr)
    return {
        "python": platform.python_version(),
        "nproc": cores,
        "loadavg_1min": load,
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }


def run_checks(seed: int) -> List[str]:
    failures = []
    for name, check in checks.CHECKS:
        failures.extend(f"{name}: {message}" for message in check(seed))
    return failures


def build(name: str, seed: int, scale: wl.Scale) -> tuple:
    """Set the workload up ``SETUP_REPEATS`` times; keep the last."""
    seconds: List[float] = []
    phases: List[Dict[str, float]] = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        workload = wl.WORKLOAD_CLASSES[name](seed, scale)
        _, normalised, raw = clock.timed(workload.setup)
        seconds.append(normalised)
        phases.append({phase: s * normalised / raw for phase, s in workload.phases.items()})
    median_phases = {
        phase: statistics.median(p[phase] for p in phases) for phase in phases[0]
    }
    return workload, statistics.median(seconds), median_phases


def median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3


def pass_metrics(samples: wl.Samples) -> Dict[str, float]:
    # The highest percentile with at least ten samples beyond it, if any.
    count = len(samples.latencies)
    hi = 1.0 - 10.0 / count if count >= 20 else None
    reference = statistics.median(
        raw / normalised for raw, normalised in zip(samples.raw_latencies, samples.latencies)
    )
    return {
        "op_p50_ms": median_ms(samples.latencies),
        # Operations per second of normalised busy time (the loop is closed:
        # the next operation starts when the previous one has finished).
        "ops_per_s": len(samples.latencies) / sum(samples.latencies),
        "bench.iterations": len(samples.latencies),
        "bench.op_hi_percentile": hi or 0.0,
        "bench.op_hi_ms": wl.percentile(samples.latencies, hi) * 1e3 if hi else 0.0,
        "bench.op_raw_p50_ms": median_ms(samples.raw_latencies),
        "bench.reference_ms": reference * clock.REFERENCE_NOMINAL_SECONDS * 1e3,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(wl.SCALES), default="full")
    args = parser.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment()

    check_failures = run_checks(args.seed)
    workload, setup_seconds, phases = build(args.workload, args.seed, wl.SCALES[args.scale])
    input_digest = workload.input.digest()

    # The traced run splits its budget: an untraced pass for the overhead
    # ratio, then the traced pass.
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = workload.measure(budget)
    metrics: Dict[str, float] = {
        "setup_s": setup_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(pass_metrics(untraced))
    samples = [untraced]
    trace_summary: Dict[str, float] = {}

    if args.trace:
        tracer, registry = get_tracer(), get_registry()
        tracer.reset()
        registry.reset()
        plans, samplings = plan_call_count(), sampling_call_count()
        tracer.enable()
        traced = workload.measure(budget)
        tracer.disable()
        samples.append(traced)
        trace_summary = layers.export_trace(
            os.path.join(OUT_DIR, f"TRACE_{args.workload}.json"),
            args.workload,
            traced.wall_seconds,
        )
        operations = max(1, len(traced.latencies))
        metrics.update(
            {
                "census.generate_ms": phases["generate"] * 1e3,
                "uwsdt.from_orset_ms": phases.get("from_orset", 0.0) * 1e3,
                "planner.plan_calls": (plan_call_count() - plans) / operations,
                "planner.sampling_calls": (sampling_call_count() - samplings) / operations,
                "obs.spans_recorded": trace_summary["spans"],
                "obs.spans_dropped": tracer.dropped,
                "bench.traced_op_p50_ms": median_ms(traced.latencies),
                "obs.trace_overhead_ratio": median_ms(traced.latencies)
                / metrics["op_p50_ms"],
            }
        )
        metrics = {**layers.collect(workload, traced), **metrics}

    workload.close()
    if args.trace:
        # Children exist only once the shard pool has been joined; 0 without any.
        metrics["shard.worker_peak_rss_mb"] = layers.worker_peak_rss_mb()

    attempted = sum(s.attempted for s in samples) + len(checks.CHECKS)
    failed = sum(s.failed for s in samples) + len(check_failures)
    errors = check_failures + [error for s in samples for error in s.errors]
    reported = PER_LAYER_NAMES if args.trace else END_TO_END_NAMES

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": env,
        "input_digest": input_digest,
        "result_digests": untraced.digests,
        "first_iteration": repr(untraced.extras.get("summary")),
        "setup_phases_s": phases,
        "metrics": {name: metrics[name] for name in metrics if name in UNITS},
        "trace": trace_summary,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    suffix = "_trace" if args.trace else ""
    with open(os.path.join(OUT_DIR, f"RUN_{args.workload}{suffix}.json"), "w") as handle:
        json.dump(details, handle, indent=1, sort_keys=True)

    hi = metrics["bench.op_hi_percentile"]
    print(f"workload {args.workload}  seed {args.seed}  input {input_digest[:12]}")
    print(
        f"  n={int(metrics['bench.iterations'])} operations, "
        + (f"p{hi * 100:.1f} = {metrics['bench.op_hi_ms']:.3f} ms" if hi else "no tail percentile has ten samples beyond it")
    )
    for name in reported:
        print(f"  {name} = {metrics[name]:.6g} {UNITS[name]}")
    for error in errors:
        print("  FAILED " + error.strip().splitlines()[-1], file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": UNITS[name]} for name in reported
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
