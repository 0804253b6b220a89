"""Per-layer metrics: direct timed calls into each layer's public functions,
plus what the traced pass and the program's own counters already expose.

Nothing here edits the program: planner, lowering and executor are driven
through ``Query.plan`` / ``Query.physical_plan`` / ``Query.run(physical=…)``;
operator self times and q-errors come from ``collect_metrics=True``; counter
values from the ``repro.obs`` registry.  Each workload runs only the probe
groups of the layers it exercises — every other per-layer metric stays 0.
Probe timings are reference-normalised like the end-to-end ones; operator
self times are scaled by the normalisation of the execution they belong to.
"""

from __future__ import annotations

import asyncio
import json
import resource
import statistics
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.schema import SchemaContext, analyze
from repro.census import CENSUS_RELATION, census_dependencies, census_query, q_four_way_join
from repro.core.algebra import uwsdt_ops
from repro.core.chase import FunctionalDependency, chase_uwsdt
from repro.core.confidence import uwsdt_possible_with_confidence
from repro.core.exec import ColumnBatch, backend_for
from repro.core.planner import Statistics
from repro.core.uwsdt import UWSDT
from repro.obs import get_registry, get_tracer
from repro.obs.metrics import LATENCY_BUCKETS
from repro.relational import algebra as relational_algebra
from repro.relational.database import Database
from repro.relational.indexes import IndexPool
from repro.relational.predicates import And, Or, eq

import clock
import workloads as wl
from spec import PER_LAYER_NAMES

PROBE_REPEATS = 5

#: Q4's predicate forces a full template scan; ENGLISH = 3 (Q6) is the
#: equality the template index serves.
SCAN_PREDICATE = And(eq("FERTIL", 1), Or(eq("RSPOUSE", 1), eq("RSPOUSE", 2)))
INDEX_PREDICATE = eq("ENGLISH", 3)
PROJECTION = ["POWSTATE", "POB"]

#: A dependency the clean data satisfies trivially (sixteen 8-way filler
#: attributes identify a row: 8^16 keys for 10^4 rows), so the FD chase does
#: its grouping work and removes nothing — the census rules are all EGDs.
PROBE_FD = FunctionalDependency(
    CENSUS_RELATION, [f"Q{index:02d}" for index in range(1, 17)], "Q17"
)

#: Shares of the workload's rows at which the uncertain 4-way join is planned.
FOUR_WAY_SHARES = (0.2, 0.4, 0.5, 0.6, 0.8)

OPERATOR_METRIC = {
    "Scan": "exec.op_self_ms.scan",
    "IndexScan": "exec.op_self_ms.index_scan",
    "Filter": "exec.op_self_ms.filter",
    "Project": "exec.op_self_ms.project",
    "Rename": "exec.op_self_ms.rename",
    "HashJoin": "exec.op_self_ms.hash_join",
    "IndexNestedLoopJoin": "exec.op_self_ms.index_join",
}


def call_ms(action: Callable[[], Any]) -> Tuple[Any, float]:
    """One call: its value and its normalised milliseconds."""
    value, normalised, _raw = clock.timed(action)
    return value, normalised * 1e3


def probe_ms(
    action: Callable[[Any], Any],
    prepare: Callable[[], Any] = lambda: None,
    repeats: int = PROBE_REPEATS,
) -> float:
    """Median normalised milliseconds of ``action(prepare())``; only ``action`` is timed."""
    samples = []
    for _ in range(repeats):
        argument = prepare()
        samples.append(call_ms(lambda: action(argument))[1])
    return statistics.median(samples)


# --------------------------------------------------------------------------- #
# Probe groups
# --------------------------------------------------------------------------- #


def uwsdt_layer(uwsdt: UWSDT, rows: int, arity: int) -> Dict[str, float]:
    stats = uwsdt.statistics()
    return {
        "uwsdt.copy_ms": probe_ms(lambda _: uwsdt.copy()),
        "uwsdt.template_rows": stats["template_size"],
        "uwsdt.components": stats["components"],
        "uwsdt.components_gt1": stats["components_gt1"],
        "uwsdt.placeholders": stats["placeholders"],
        "uwsdt.c_values": stats["component_relation_size"],
        # (template cells + component values + field-map entries) / one world's cells
        "uwsdt.repr_overhead_ratio": (
            stats["template_size"] * arity
            + stats["component_relation_size"]
            + stats["placeholders"]
        )
        / (rows * arity),
    }


def chase_layer(noisy: Any) -> Dict[str, float]:
    def load() -> UWSDT:
        return UWSDT.from_orset_relation(noisy)

    before, after = load(), load()
    chase_uwsdt(after, census_dependencies())
    return {
        "chase.fd_ms": probe_ms(lambda u: chase_uwsdt(u, [PROBE_FD]), load, repeats=3),
        "chase.egd_ms": probe_ms(
            lambda u: chase_uwsdt(u, census_dependencies()), load, repeats=3
        ),
        "chase.values_removed": before.component_relation_size()
        - after.component_relation_size(),
        "chase.components_merged": max(0, before.component_count() - after.component_count()),
    }


def uwsdt_select_layer(chased: UWSDT) -> Dict[str, float]:
    probes = {
        "uwsdt_ops.select_scan_ms": lambda c: uwsdt_ops.select(
            c, CENSUS_RELATION, "probe", SCAN_PREDICATE
        ),
        "uwsdt_ops.select_index_ms": lambda c: uwsdt_ops.select(
            c, CENSUS_RELATION, "probe", INDEX_PREDICATE
        ),
        "uwsdt_ops.project_ms": lambda c: uwsdt_ops.project(
            c, CENSUS_RELATION, "probe", PROJECTION
        ),
        "uwsdt_ops.rename_ms": lambda c: uwsdt_ops.rename(
            c, CENSUS_RELATION, "probe", "POWSTATE", "W1"
        ),
    }
    return {name: probe_ms(action, chased.copy) for name, action in probes.items()}


def uwsdt_join_layer(chased: UWSDT) -> Dict[str, float]:
    """``equi_join`` on the two renamed Q6 leaves (the Q6 self-join's join)."""

    def with_leaves() -> UWSDT:
        copy = chased.copy()
        for suffix in ("1", "2"):
            uwsdt_ops.select(copy, CENSUS_RELATION, f"s{suffix}", INDEX_PREDICATE)
            uwsdt_ops.project(copy, f"s{suffix}", f"p{suffix}", PROJECTION)
            uwsdt_ops.rename(copy, f"p{suffix}", f"w{suffix}", "POWSTATE", f"W{suffix}")
            uwsdt_ops.rename(copy, f"w{suffix}", f"b{suffix}", "POB", f"B{suffix}")
        return copy

    joined = with_leaves()
    uwsdt_ops.equi_join(joined, "b1", "b2", "B1", "W2", "joined")
    return {
        "uwsdt_ops.equi_join_ms": probe_ms(
            lambda c: uwsdt_ops.equi_join(c, "b1", "b2", "B1", "W2", "joined"), with_leaves
        ),
        "uwsdt_ops.join_out_rows": len(joined.templates["joined"]),
        "uwsdt_ops.join_components_gt1_out": joined.multi_placeholder_component_count(),
    }


def confidence_layer(chased: UWSDT) -> Dict[str, float]:
    copy = chased.copy()
    census_query("Q4").run(copy, "Q4")
    return {
        "confidence.rank_ms": probe_ms(lambda _: uwsdt_possible_with_confidence(copy, "Q4")),
        "confidence.tuples_ranked": len(uwsdt_possible_with_confidence(copy, "Q4")),
    }


def relational_layer(database: Database) -> Dict[str, float]:
    relation = database.relation(CENSUS_RELATION)

    def leaf(suffix: str) -> Any:
        selected = relational_algebra.select(relation, INDEX_PREDICATE)
        projected = relational_algebra.project(selected, PROJECTION)
        renamed = relational_algebra.rename(projected, "POWSTATE", f"W{suffix}")
        return relational_algebra.rename(renamed, "POB", f"B{suffix}")

    left, right = leaf("1"), leaf("2")
    return {
        "relational.select_ms": probe_ms(
            lambda _: relational_algebra.select(relation, SCAN_PREDICATE)
        ),
        "relational.project_ms": probe_ms(
            lambda _: relational_algebra.project(relation, PROJECTION)
        ),
        "relational.equi_join_ms": probe_ms(
            lambda _: relational_algebra.equi_join(left, right, "B1", "W2")
        ),
        "relational.index_build_ms": probe_ms(
            lambda _: IndexPool().hash_index(relation, ("ENGLISH",))
        ),
    }


def query_layers(
    fresh_engine: Callable[[], Any],
    queries: Sequence[Tuple[str, Any]],
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> Tuple[Dict[str, float], List[Any]]:
    """One pass over ``queries`` with every planning and execution stage
    timed on its own.  Sums over the pass, so the stages add up to roughly
    one end-to-end operation.  Also returns each query's ExecutionResult."""
    totals = {
        name: 0.0
        for name in [
            "analysis.schema_ms",
            "planner.sampling_ms",
            "planner.plan_cold_ms",
            "planner.plan_warm_ms",
            "planner.rewrites_applied",
            "lower.lower_ms",
            "lower.operators",
            "exec.execute_ms",
        ]
        + list(OPERATOR_METRIC.values())
    }
    scanned = returned = 0
    worst_q_error = 0.0
    executions = []
    for label, query in queries:
        relations = tuple(sorted(query.base_relations()))
        statistics_, elapsed = call_ms(
            lambda: Statistics.from_engine(fresh_engine(), sample_relations=relations)
        )
        totals["planner.sampling_ms"] += elapsed
        context = SchemaContext.from_statistics(statistics_)
        totals["analysis.schema_ms"] += call_ms(lambda: analyze(query, context))[1]

        engine = fresh_engine()
        totals["planner.plan_cold_ms"] += call_ms(lambda: query.plan(engine))[1]
        plan, elapsed = call_ms(lambda: query.plan(engine))
        totals["planner.plan_warm_ms"] += elapsed
        totals["planner.rewrites_applied"] += len(plan.applications)
        physical, elapsed = call_ms(
            lambda: query.physical_plan(engine, plan=plan, backend=backend, workers=workers)
        )
        totals["lower.lower_ms"] += elapsed
        totals["lower.operators"] += len(physical.operators())
        result, normalised, raw = clock.timed(
            lambda: query.run(
                engine, label, physical=physical, collect_metrics=True,
                backend=backend, workers=workers,
            )
        )
        totals["exec.execute_ms"] += normalised * 1e3
        executions.append(result)
        for record in result.metrics.records:
            metric = OPERATOR_METRIC.get(record.operator)
            if metric is not None:
                totals[metric] += record.seconds * (normalised / raw) * 1e3
            if record.operator in ("Scan", "IndexScan"):
                scanned += record.rows_out
        returned += result.metrics.records[-1].rows_out
        worst_q_error = max(worst_q_error, result.metrics.max_cardinality_error() or 0.0)
    totals["planner.q_error_max"] = worst_q_error
    # Base rows the scans handed upwards per row of the final results.
    totals["exec.rows_examined_per_result"] = scanned / max(1, returned)
    return totals, executions


def four_way_uncertain_layer(workload: wl.Workload) -> Dict[str, float]:
    """Plan (never execute) the 4-way join on chased UWSDTs of five sizes:
    the order is good when the two unselective leaves are not joined to
    each other directly.  The smallest instance is also executed once."""
    query = q_four_way_join()
    good = 0
    smallest: Optional[UWSDT] = None
    for share in FOUR_WAY_SHARES:
        rows = max(50, int(workload.scale.rows * share))
        chased = wl.CensusInput(workload.seed, rows, workload.scale.density).chased()
        smallest = smallest or chased
        if "(R→C1 ⋈ R→C2)" not in (query.plan(chased.copy()).join_order or ""):
            good += 1
    return {
        "planner.four_way_good_order_share": good / len(FOUR_WAY_SHARES),
        "planner.four_way_uncertain_ms": call_ms(lambda: query.run(smallest.copy(), "out"))[1],
    }


def columnar_layer(database: Database, executions: Sequence[Any]) -> Dict[str, float]:
    by_operator: Dict[str, float] = {}
    for result in executions:
        for record in result.metrics.records:
            by_operator[record.operator] = by_operator.get(record.operator, 0.0) + record.seconds
    total = sum(by_operator.values())
    materialize = by_operator.get("Materialize", 0.0)
    dematerialize = by_operator.get("Dematerialize", 0.0)
    relation = database.relation(CENSUS_RELATION)
    attributes = relation.schema.attributes
    rows = list(relation.rows)
    counters = get_registry().snapshot()["counters"]
    return {
        # Raw self times of one pass (the registry does not see our clock).
        "columnar.materialize_ms": materialize * 1e3,
        "columnar.dematerialize_ms": dematerialize * 1e3,
        # Everything else in the columnar plans: kernels plus row-side operators.
        "columnar.kernel_ms": (total - materialize - dematerialize) * 1e3,
        "columnar.batch_roundtrip_ms": probe_ms(
            lambda _: ColumnBatch.from_rows(attributes, rows).to_rows()
        ),
        "columnar.fallbacks": counters.get("repro.columnar.materialize_fallbacks", 0),
    }


def shard_layer(samples: wl.Samples, executions: Sequence[Any]) -> Dict[str, float]:
    exchange = gather = worker = 0.0
    for result in executions:
        plan = result.physical
        for node in plan.operators():
            if node.metrics is None:
                continue
            if node.op_name == "Exchange":
                exchange += node.metrics.seconds
                worker += plan.cumulative_seconds(node) - node.metrics.seconds
            elif node.op_name == "Gather":
                gather += node.metrics.seconds
    snapshot = get_registry().snapshot()
    imbalance = [
        h["sum"] / h["count"]
        for name, h in snapshot["histograms"].items()
        if name.startswith("repro.shard.imbalance") and h["count"]
    ]
    warm = statistics.median(samples.raw_latencies) if samples.raw_latencies else 0.0
    return {
        # Raw self times of one pass, as the executor recorded them.
        "shard.exchange_ms": exchange * 1e3,
        "shard.gather_ms": gather * 1e3,
        "shard.worker_ms": worker * 1e3,
        "shard.pool_start_ms": max(0.0, samples.extras["warmup_seconds"] - warm) * 1e3,
        "shard.imbalance": max(imbalance) if imbalance else 0.0,
        "shard.fallbacks": sum(
            value
            for name, value in snapshot["counters"].items()
            if name.startswith("repro.shard.fallbacks")
        ),
    }


def service_layer(samples: wl.Samples) -> Dict[str, float]:
    """Per-request numbers of the traced pass (raw seconds, as the service
    records them) and direct probes of the last epoch's service."""
    service = samples.extras["service"]
    engines = samples.extras["engines"]
    warm, cold = samples.extras["warm"], samples.extras["cold"]
    counters = get_registry().snapshot()["counters"]
    database = engines["db"]
    query = census_query("Q1")

    kind = backend_for(database).kind
    cache = service.plan_cache("db")
    fingerprint = query.fingerprint()

    async def request_minus_direct() -> List[float]:
        """Warm request seconds minus a direct run of the same cached plan,
        paired back to back so the machine's speed cancels."""
        session = service.session("db", "probe")
        await session.execute(query)  # make sure the entry is valid
        physical = cache.lookup(fingerprint, kind).physical
        differences = []
        for _ in range(20):
            request = (await session.execute(query)).seconds
            direct = clock.timed(lambda: query.run(database, "probe", physical=physical))[2]
            differences.append(request - direct)
        return differences

    overhead_seconds = statistics.median(asyncio.run(request_minus_direct()))
    lookups = 2000
    _, _, raw = clock.timed(lambda: [cache.lookup(fingerprint, kind) for _ in range(lookups)])
    lock_wait = get_registry().histogram(
        "repro.service.lock_wait_seconds", LATENCY_BUCKETS
    ).percentile(0.95)

    def ms(values: List[float], fraction: float) -> float:
        return wl.percentile(values, fraction) * 1e3 if values else 0.0

    def counter(prefix: str) -> int:
        return sum(value for name, value in counters.items() if name.startswith(prefix))

    return {
        "plan_cache.lookup_us": raw / lookups * 1e6,
        "plan_cache.hit_rate": len(warm) / max(1, len(warm) + len(cold)),
        "plan_cache.invalidations": counter('repro.plan_cache.evictions{reason="stale-version"}'),
        "plan_cache.replan_evictions": counter('repro.plan_cache.evictions{reason="replan"}'),
        "service.warm_p50_ms": ms(warm, 0.50),
        "service.warm_p95_ms": ms(warm, 0.95),
        "service.warm_p99_ms": ms(warm, 0.99),
        "service.cold_p50_ms": ms(cold, 0.50),
        "service.overhead_us": overhead_seconds * 1e6,
        "service.lock_wait_p95_ms": (lock_wait or 0.0) * 1e3,
        "service.cold_requests": len(cold),
        "service.uw_template_rows_end": engines["uw"].template_size(),
    }


# --------------------------------------------------------------------------- #
# Which groups each workload runs
# --------------------------------------------------------------------------- #


def collect(workload: wl.Workload, traced: wl.Samples) -> Dict[str, float]:
    """Every per-layer metric of ``workload`` (0 where it has no part)."""
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER_NAMES}
    arity = len(workload.input.clean.schema.attributes)
    rows = len(workload.input.clean)

    if isinstance(workload, wl.ChaseUncertain):
        metrics.update(uwsdt_layer(workload.input.chased(), rows, arity))
        metrics.update(chase_layer(workload.input.noisy))
    elif isinstance(workload, wl.QueryUncertain):
        chased = workload.chased
        metrics.update(uwsdt_layer(chased, rows, arity))
        metrics.update(query_layers(chased.copy, workload.built)[0])
        metrics.update(uwsdt_select_layer(chased))
        metrics.update(uwsdt_join_layer(chased))
        metrics.update(confidence_layer(chased))
        metrics.update(four_way_uncertain_layer(workload))
    elif isinstance(workload, wl._CertainWorkload):
        relation = workload.database.relation(CENSUS_RELATION)

        def fresh() -> Database:
            return Database([relation.copy()])

        backend, workers = workload.backend, workload.workers
        totals, executions = query_layers(fresh, workload.built, backend, workers)
        metrics.update(totals)
        four_way = q_four_way_join()
        metrics["exec.four_way_ms"] = probe_ms(
            lambda _: four_way.run(workload.database, "out", backend=backend, workers=workers),
            repeats=3,
        )
        if backend == "row":
            metrics.update(relational_layer(workload.database))
        elif backend == "columnar":
            metrics.update(columnar_layer(workload.database, executions))
        else:
            metrics.update(shard_layer(traced, executions))
    elif isinstance(workload, wl.ServiceMixed):
        metrics.update(service_layer(traced))
    return metrics


def worker_peak_rss_mb() -> float:
    """Largest resident set of any finished child (the shard workers)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Trace export
# --------------------------------------------------------------------------- #


def export_trace(path: str, workload: str, wall_seconds: float) -> Dict[str, float]:
    """Write the traced pass's spans with their self times; returns a summary.

    Self time = a span's duration minus the part its direct children cover
    (children of one span never overlap: each request runs in one task)."""
    spans = get_tracer().finished_spans()
    children: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id] = children.get(span.parent_id, 0.0) + span.seconds
    records = []
    self_by_name: Dict[str, float] = {}
    for span in spans:
        self_seconds = max(0.0, span.seconds - children.get(span.span_id, 0.0))
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + self_seconds
        records.append(
            {
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "trace_id": span.trace_id,
                "start": span.start,
                "end": span.end,
                "self_seconds": self_seconds,
                "attrs": {key: repr(value) for key, value in span.attrs.items()},
            }
        )
    document = {
        "format": "perfbench-trace",
        "workload": workload,
        "pass_wall_seconds": wall_seconds,
        "self_seconds_by_name": dict(sorted(self_by_name.items())),
        "spans": records,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return {"spans": len(records), "self_seconds": sum(self_by_name.values())}
