"""CLI entry point: ``python -m repro.service`` runs the traffic benchmark.

``--smoke`` shrinks the workload to CI sizes; the JSON report is written to
``--output`` and uploaded as a CI artifact next to the BENCH upload.  The
run is traced: the Chrome trace-event file and the metrics-registry
snapshot land in ``--trace-output`` / ``--metrics-output``
(``TRACE_smoke.json`` / ``METRICS_smoke.json`` by default), so every CI run ships an openable span timeline and a counter
snapshot alongside the latency report.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence

from ..obs import get_registry, get_tracer
from .benchmark import run_traffic_benchmark


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Concurrent-traffic benchmark of the repro query service "
        "(latency percentiles + plan-cache hit rate)."
    )
    parser.add_argument("--output", default="SERVICE_smoke.json")
    parser.add_argument(
        "--trace-output",
        default="TRACE_smoke.json",
        help="Chrome trace-event file for the benchmark run ('' to disable)",
    )
    parser.add_argument(
        "--metrics-output",
        default="METRICS_smoke.json",
        help="metrics-registry snapshot for the run ('' to disable)",
    )
    parser.add_argument("--rows", type=int, default=2_000)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=25, help="requests per client")
    parser.add_argument("--smoke", action="store_true", help="tiny CI sizes")
    args = parser.parse_args(argv)

    if args.smoke:
        rows, clients, requests = 600, 3, 12
    else:
        rows, clients, requests = args.rows, args.clients, args.requests

    tracer = get_tracer()
    registry = get_registry()
    if args.trace_output:
        tracer.enable()

    report = run_traffic_benchmark(
        rows=rows, clients=clients, requests_per_client=requests
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)

    if args.trace_output:
        spans = tracer.export_chrome(args.trace_output)
        print(f"trace written   : {args.trace_output} ({spans} spans)")
    if args.metrics_output:
        with open(args.metrics_output, "w", encoding="utf-8") as handle:
            json.dump(registry.snapshot(), handle, indent=2)
        print(f"metrics written : {args.metrics_output}")

    latency = report["latency_seconds"]
    print(f"requests        : {report['requests']}")
    print(f"cache hit rate  : {report['cache']['hit_rate']:.0%}")
    if latency["cold_p50"] is not None:
        print(f"cold p50        : {latency['cold_p50'] * 1e3:.3f} ms")
    for key in ("warm_p50", "warm_p95", "warm_p99"):
        if latency[key] is not None:
            print(f"{key:<16}: {latency[key] * 1e3:.3f} ms")
    if report["warm_speedup"] is not None:
        print(f"warm speedup    : {report['warm_speedup']:.1f}x")
    print(f"report written  : {args.output}")

    # The cache must actually serve repeated traffic; a zero hit rate means
    # the service is broken, and CI should say so.
    return 0 if report["cache"]["hit_rate"] > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
