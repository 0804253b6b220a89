"""Names, units and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repository root declares the same lists for the
driver; ``test_benchmark_smoke.py`` asserts the two agree.  The worker emits
exactly ``END_TO_END`` with ``--trace 0`` and exactly ``PER_LAYER`` with
``--trace 1``, on every workload.  A per-layer value of 0 means the workload
does not exercise that layer (the prediction "no change" of the README's
layer table).
"""

from __future__ import annotations

from typing import List, Tuple

#: (name, why) — one line each; the README has the long form.
WORKLOADS: List[Tuple[str, str]] = [
    (
        "chase_uncertain",
        "Fig. 26: chase the 12 census dependencies on a fresh 10k-row UWSDT at 0.1% placeholders; core.chase and core.uwsdt do the work, no query layer",
    ),
    (
        "query_uncertain",
        "Fig. 30 at 0.1%: Q1-Q6 planned cold on a copy of the chased UWSDT, then possible tuples with confidence; planner, uwsdt_ops and core.confidence",
    ),
    (
        "query_certain",
        "Fig. 30 at 0%: the same Q1-Q6 on the one-world Database, the denominator of the uncertainty overhead; relational.algebra, no uwsdt_ops or chase",
    ),
    (
        "join_certain",
        "Q5 and the two product-form joins on the one-world Database, row backend; the baseline the columnar and sharded backends have to beat",
    ),
    (
        "join_columnar",
        "the same join pass under backend=columnar; exercises core.exec.columnar materialize and kernels, bypasses shard",
    ),
    (
        "join_sharded2",
        "the same join pass under backend=sharded with 2 workers; exercises core.exec.shard exchange, gather and pickling, bypasses columnar",
    ),
    (
        "service_mixed",
        "QueryService over a Database and a UWSDT engine, 2 closed-loop clients, rounds of the hot queries (8 on the Database, Q1-Q6 on the UWSDT), 2 of 8 rounds cold; plan-cache hits beside replans",
    ),
]

#: (name, unit, better, bound) — the bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.12),
]

#: (name, unit, better).  Timings are medians of the traced pass or of
#: direct calls into the layer; counts are exact for a given seed.
PER_LAYER: List[Tuple[str, str, str]] = [
    # census
    ("census.generate_ms", "ms", "lower"),
    # core.uwsdt
    ("uwsdt.from_orset_ms", "ms", "lower"),
    ("uwsdt.copy_ms", "ms", "lower"),
    ("uwsdt.template_rows", "count", "lower"),
    ("uwsdt.components", "count", "lower"),
    ("uwsdt.components_gt1", "count", "lower"),
    ("uwsdt.placeholders", "count", "lower"),
    ("uwsdt.c_values", "count", "lower"),
    ("uwsdt.repr_overhead_ratio", "ratio", "lower"),
    # core.chase
    ("chase.fd_ms", "ms", "lower"),
    ("chase.egd_ms", "ms", "lower"),
    ("chase.values_removed", "count", "higher"),
    ("chase.components_merged", "count", "lower"),
    # core.algebra.uwsdt_ops
    ("uwsdt_ops.select_scan_ms", "ms", "lower"),
    ("uwsdt_ops.select_index_ms", "ms", "lower"),
    ("uwsdt_ops.project_ms", "ms", "lower"),
    ("uwsdt_ops.rename_ms", "ms", "lower"),
    ("uwsdt_ops.equi_join_ms", "ms", "lower"),
    ("uwsdt_ops.join_out_rows", "count", "lower"),
    ("uwsdt_ops.join_components_gt1_out", "count", "lower"),
    # relational
    ("relational.select_ms", "ms", "lower"),
    ("relational.project_ms", "ms", "lower"),
    ("relational.equi_join_ms", "ms", "lower"),
    ("relational.index_build_ms", "ms", "lower"),
    # analysis
    ("analysis.schema_ms", "ms", "lower"),
    # core.planner
    ("planner.plan_cold_ms", "ms", "lower"),
    ("planner.plan_warm_ms", "ms", "lower"),
    ("planner.sampling_ms", "ms", "lower"),
    ("planner.sampling_calls", "count", "lower"),
    ("planner.plan_calls", "count", "lower"),
    ("planner.rewrites_applied", "count", "higher"),
    ("planner.q_error_max", "ratio", "lower"),
    ("planner.four_way_good_order_share", "ratio", "higher"),
    ("planner.four_way_uncertain_ms", "ms", "lower"),
    # core.exec.lower
    ("lower.lower_ms", "ms", "lower"),
    ("lower.operators", "count", "lower"),
    # core.exec (row backends)
    ("exec.execute_ms", "ms", "lower"),
    ("exec.four_way_ms", "ms", "lower"),
    ("exec.op_self_ms.scan", "ms", "lower"),
    ("exec.op_self_ms.index_scan", "ms", "lower"),
    ("exec.op_self_ms.filter", "ms", "lower"),
    ("exec.op_self_ms.project", "ms", "lower"),
    ("exec.op_self_ms.rename", "ms", "lower"),
    ("exec.op_self_ms.hash_join", "ms", "lower"),
    ("exec.op_self_ms.index_join", "ms", "lower"),
    ("exec.rows_examined_per_result", "ratio", "lower"),
    # core.exec.columnar
    ("columnar.materialize_ms", "ms", "lower"),
    ("columnar.dematerialize_ms", "ms", "lower"),
    ("columnar.kernel_ms", "ms", "lower"),
    ("columnar.batch_roundtrip_ms", "ms", "lower"),
    ("columnar.fallbacks", "count", "lower"),
    # core.exec.shard
    ("shard.exchange_ms", "ms", "lower"),
    ("shard.gather_ms", "ms", "lower"),
    ("shard.worker_ms", "ms", "lower"),
    ("shard.pool_start_ms", "ms", "lower"),
    ("shard.imbalance", "ratio", "lower"),
    ("shard.fallbacks", "count", "lower"),
    ("shard.worker_peak_rss_mb", "MiB", "lower"),
    # core.confidence
    ("confidence.rank_ms", "ms", "lower"),
    ("confidence.tuples_ranked", "count", "lower"),
    # service.plan_cache
    ("plan_cache.lookup_us", "us", "lower"),
    ("plan_cache.hit_rate", "ratio", "higher"),
    ("plan_cache.invalidations", "count", "lower"),
    ("plan_cache.replan_evictions", "count", "lower"),
    # service.server
    ("service.warm_p50_ms", "ms", "lower"),
    ("service.warm_p95_ms", "ms", "lower"),
    ("service.warm_p99_ms", "ms", "lower"),
    ("service.cold_p50_ms", "ms", "lower"),
    ("service.overhead_us", "us", "lower"),
    ("service.lock_wait_p95_ms", "ms", "lower"),
    ("service.cold_requests", "count", "lower"),
    ("service.uw_template_rows_end", "count", "lower"),
    # obs (the benchmark's traced pass)
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.spans_recorded", "count", "lower"),
    ("obs.spans_dropped", "count", "lower"),
    # the measured passes themselves
    ("bench.iterations", "count", "higher"),
    ("bench.op_hi_ms", "ms", "lower"),
    ("bench.op_hi_percentile", "ratio", "higher"),
    ("bench.traced_op_p50_ms", "ms", "lower"),
    ("bench.op_raw_p50_ms", "ms", "lower"),
    ("bench.reference_ms", "ms", "lower"),
]

WORKLOAD_NAMES = [name for name, _ in WORKLOADS]
END_TO_END_NAMES = [name for name, _, _, _ in END_TO_END]
PER_LAYER_NAMES = [name for name, _, _ in PER_LAYER]
UNITS = {name: unit for name, unit, _, _ in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})
