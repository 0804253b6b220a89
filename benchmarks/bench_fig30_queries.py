"""Figure 30: evaluation time of the six census queries on UWSDTs.

The paper plots, for each query Q1–Q6, the evaluation time against the
relation size with one curve per placeholder density, including the 0 %
curve (a single conventional world).  The headline observation is that the
UWSDT evaluation time closely tracks the one-world time for all queries but
the join query Q5.

Each benchmark below is one (query, density) curve point at the base size;
the densities include 0 % so the one-world baseline is part of the same
run.  Timing of the chase is *not* included (matching the paper: queries run
on the already-cleaned representation).
"""

from __future__ import annotations

import pytest

from repro.bench import census_instance, density_label
from repro.census import CENSUS_QUERIES, q5_product_form, q6_self_join_product_form
from repro.census.queries import q_four_way_join
from repro.core.algebra import BaseRelation, evaluate_on_database, evaluate_on_uwsdt
from repro.core.planner import Statistics, describe_join_order, plan, sampling_call_count

from _bench_config import base_rows

DENSITIES = (0.0, 0.00005, 0.0001, 0.0005, 0.001)
QUERIES = tuple(CENSUS_QUERIES)

_CHASED_CACHE = {}


def _chased(rows: int, density: float):
    key = (rows, density)
    if key not in _CHASED_CACHE:
        _CHASED_CACHE[key] = census_instance(rows, density).chased()
    return _CHASED_CACHE[key]


@pytest.mark.parametrize("density", DENSITIES, ids=[density_label(d) for d in DENSITIES])
@pytest.mark.parametrize("query_name", QUERIES)
def test_query_evaluation(benchmark, query_name, density):
    """One (query, density) point of Figure 30 at the base relation size."""
    rows = base_rows()
    instance = census_instance(rows, density)
    query = CENSUS_QUERIES[query_name]()

    if density == 0.0:
        database = instance.one_world_database()

        def run():
            return evaluate_on_database(query, database, "result")

        result = benchmark(run)
        benchmark.extra_info["result_size"] = len(result)
    else:
        chased = _chased(rows, density)

        def run():
            working_copy = chased.copy()
            evaluate_on_uwsdt(query, working_copy, "result")
            return working_copy

        result = benchmark(run)
        benchmark.extra_info["result_size"] = result.template_size("result")

    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["density"] = density_label(density)
    benchmark.extra_info["query"] = query_name


# --------------------------------------------------------------------------- #
# Planned vs unplanned: the σ-over-× join queries through the logical planner
# --------------------------------------------------------------------------- #

PLANNER_DENSITIES = (0.0, 0.001)
PLANNER_QUERIES = {
    "Q5xσ": q5_product_form,
    "Q6⋈Q6": q6_self_join_product_form,
    "Q4way": q_four_way_join,
}


@pytest.mark.parametrize("optimize", [False, True], ids=["unplanned", "planned"])
@pytest.mark.parametrize(
    "density", PLANNER_DENSITIES, ids=[density_label(d) for d in PLANNER_DENSITIES]
)
@pytest.mark.parametrize("query_name", tuple(PLANNER_QUERIES))
def test_planned_vs_unplanned(benchmark, query_name, density, optimize):
    """One planned-vs-unplanned point: the same AST with and without the planner.

    Two headline rows: ``Q6⋈Q6`` (executed verbatim it materializes a
    quadratic product template; the planner fuses the selection into an
    equi-join) and ``Q4way`` (a 4-way join written in a pessimal order; the
    join-order enumerator defers the skewed ``CITIZEN`` join to last — ≥5×
    on the UWSDT at default sizes).  The chosen join order is recorded per
    (query, size) in the benchmark JSON so the trajectory of planner
    decisions accumulates alongside the timings.
    """
    rows = base_rows()
    instance = census_instance(rows, density)
    query = PLANNER_QUERIES[query_name]()

    if density == 0.0:
        database = instance.one_world_database()
        built_plan = plan(query, Statistics.from_database(database)) if optimize else None

        def run():
            return query.run(database, "result", optimize=optimize, plan=built_plan)

        result = benchmark(run)
        benchmark.extra_info["result_size"] = len(result)
    else:
        chased = _chased(rows, density)
        built_plan = plan(query, Statistics.from_uwsdt(chased)) if optimize else None

        def run():
            working_copy = chased.copy()
            query.run(working_copy, "result", optimize=optimize, plan=built_plan)
            return working_copy

        result = benchmark(run)
        benchmark.extra_info["result_size"] = result.template_size("result")

    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["density"] = density_label(density)
    benchmark.extra_info["query"] = query_name
    benchmark.extra_info["optimize"] = optimize
    benchmark.extra_info["join_order"] = (
        built_plan.join_order if optimize else describe_join_order(query)
    )


# --------------------------------------------------------------------------- #
# Row vs columnar vs sharded backend: the same plans, three execution modes
# --------------------------------------------------------------------------- #

#: Sweep points ``(density, backend)``: the row backend at every density,
#: the Database-only columnar and sharded backends at 0 % (the one-world
#: Database) only.
BACKEND_POINTS = tuple((density, "row") for density in PLANNER_DENSITIES) + (
    (0.0, "columnar"),
    (0.0, "sharded"),
)

#: Pool size of the sharded sweep points (also recorded in the JSON).
SHARD_WORKERS = 2


@pytest.mark.parametrize(
    "density, backend",
    BACKEND_POINTS,
    ids=[f"{density_label(density)}-{backend}" for density, backend in BACKEND_POINTS],
)
def test_row_vs_columnar_vs_sharded_backend(benchmark, density, backend):
    """One point of the backend sweep on the 4-way census join.

    The same planned query executes row-at-a-time, through the columnar
    kernels (vectorized regions over ``ColumnBatch`` values between
    Materialize/Dematerialize boundaries), and sharded (per-row subtrees
    hash-partitioned across a ``SHARD_WORKERS``-process pool between
    Exchange/Gather boundaries).  The columnar and sharded backends run on
    a Database only, so above 0 % the row backend is the one series.  Each
    backend appears as its own series in the benchmark JSON.
    """
    rows = base_rows()
    instance = census_instance(rows, density)
    query = q_four_way_join()
    workers = SHARD_WORKERS if backend == "sharded" else None

    if density == 0.0:
        database = instance.one_world_database()

        def run():
            return query.run(database, "result", backend=backend, workers=workers)

        result = benchmark(run)
        benchmark.extra_info["result_size"] = len(result)
    else:
        chased = _chased(rows, density)

        def run():
            working_copy = chased.copy()
            query.run(working_copy, "result")
            return working_copy

        result = benchmark(run)
        benchmark.extra_info["result_size"] = result.template_size("result")

    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["density"] = density_label(density)
    benchmark.extra_info["query"] = "Q4way"
    benchmark.extra_info["backend"] = backend
    if workers is not None:
        benchmark.extra_info["workers"] = workers


# --------------------------------------------------------------------------- #
# Statistics catalog: repeated planning against an unchanged engine
# --------------------------------------------------------------------------- #


# --------------------------------------------------------------------------- #
# Physical execution: metrics-enabled runs, hash vs index-nested-loop joins
# --------------------------------------------------------------------------- #


def _join_cardinality_info(metrics):
    return [
        {
            "operator": record.label,
            "estimated_rows": record.estimated_rows,
            "actual_rows": record.rows_out,
            "q_error": record.cardinality_error,
            "seconds": record.seconds,
        }
        for record in metrics.join_records()
    ]


@pytest.mark.parametrize(
    "density", PLANNER_DENSITIES, ids=[density_label(d) for d in PLANNER_DENSITIES]
)
def test_metrics_enabled_four_way_join(benchmark, density):
    """The 4-way join with per-operator metrics at ``REPRO_BENCH_ROWS`` scale.

    Records, per join operator, the planner's estimated output cardinality
    against the actual one — the estimated-vs-actual q-error trajectory
    accumulates in the benchmark JSON alongside the timings.
    """
    from repro.core.planner import Statistics

    rows = base_rows()
    instance = census_instance(rows, density)
    query = q_four_way_join()

    def engine_copy():
        if density == 0.0:
            return instance.one_world_database()
        return _chased(rows, density).copy()

    warm = engine_copy()
    built_plan = plan(
        query,
        Statistics.from_database(warm) if density == 0.0 else Statistics.from_uwsdt(warm),
    )

    def run():
        return query.run(engine_copy(), "result", plan=built_plan, collect_metrics=True)

    result = benchmark(run)
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["density"] = density_label(density)
    benchmark.extra_info["join_cardinalities"] = _join_cardinality_info(result.metrics)
    benchmark.extra_info["physical_operators"] = [
        record.operator for record in result.metrics.records
    ]


@pytest.mark.parametrize(
    "density", PLANNER_DENSITIES, ids=[density_label(d) for d in PLANNER_DENSITIES]
)
def test_index_join_probe(benchmark, density):
    """A selective materialized side probing the bare census scan.

    The selective Q3 answers are materialized as a stored relation, then
    joined back against the full census relation on ``POWSTATE`` — the
    canonical small-outer/large-inner shape.  The cost model must select an
    ``IndexNestedLoopJoin`` over a ``HashJoin`` here (asserted via the
    physical plan), and the benchmark records the forced wall time of both
    algorithms so their gap is tracked at ``REPRO_BENCH_ROWS`` scale.
    """
    import time

    from repro.census.queries import CENSUS_RELATION, q3

    rows = base_rows()
    instance = census_instance(rows, density)
    materialize = (
        q3()
        .rename("POWSTATE", "P3")
        .rename("MARITAL", "M3")
        .rename("FERTIL", "F3")
    )
    probe = BaseRelation("__q3mat").join(BaseRelation(CENSUS_RELATION), "P3", "POWSTATE")

    def engine_copy():
        if density == 0.0:
            database = instance.one_world_database()
            database.add(materialize.run(database, "__q3mat", optimize=False))
            return database
        working = _chased(rows, density).copy()
        materialize.run(working, "__q3mat", optimize=False)
        return working

    chosen = probe.physical_plan(engine_copy())
    assert chosen.uses("IndexNestedLoopJoin"), chosen.explain()

    def run():
        return probe.run(engine_copy(), "result", collect_metrics=True)

    result = benchmark(run)
    assert result.physical.uses("IndexNestedLoopJoin")

    forced_seconds = {}
    for algorithm in ("hash", "index-nested-loop"):
        engine = engine_copy()
        start = time.perf_counter()
        probe.run(engine, "result", force_join=algorithm)
        forced_seconds[algorithm] = time.perf_counter() - start

    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["density"] = density_label(density)
    benchmark.extra_info["join_cardinalities"] = _join_cardinality_info(result.metrics)
    benchmark.extra_info["hash_join_seconds"] = forced_seconds["hash"]
    benchmark.extra_info["index_join_seconds"] = forced_seconds["index-nested-loop"]


@pytest.mark.parametrize(
    "density", PLANNER_DENSITIES, ids=[density_label(d) for d in PLANNER_DENSITIES]
)
def test_repeated_query_planning_overhead(benchmark, density):
    """Warm planning of the 4-way join: the statistics catalog serves every
    repeat, so planning overhead drops to the pure rewrite/estimate cost and
    the benchmark performs zero sampling work (asserted via the counter).

    ``cold_plan_seconds`` in the extra info is the one genuinely cold plan
    against a freshly built engine, for the cold/warm trajectory.
    """
    import time

    rows = base_rows()
    instance = census_instance(rows, density)
    query = q_four_way_join()
    if density == 0.0:
        engine = instance.one_world_database()
        cold_engine = instance.one_world_database()
    else:
        engine = _chased(rows, density)
        # Built, not copied: a copy shares the templates and the statistics
        # kept on them.
        cold_engine = instance.chased()

    start = time.perf_counter()
    query.plan(cold_engine)
    cold_seconds = time.perf_counter() - start

    query.plan(engine)  # warm the engine's catalog
    calls_before = sampling_call_count()
    built = benchmark(lambda: query.plan(engine))
    assert sampling_call_count() == calls_before, "warm planning re-sampled"

    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["density"] = density_label(density)
    benchmark.extra_info["cold_plan_seconds"] = cold_seconds
    benchmark.extra_info["join_order"] = built.join_order
