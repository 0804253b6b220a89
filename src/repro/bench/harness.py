"""Benchmark harness: builds census UWSDTs and regenerates the paper's figures.

Every experiment of Section 9 is parameterized by the relation size (number
of tuples) and the placeholder density.  The paper runs 0.1–12.5 million
tuples on PostgreSQL; the harness defaults to laptop-scale sizes (1k–50k)
with the same densities, which preserves the *shape* of every reported
curve and table (linear scaling in size and density, query time tracking
the one-world time, component-size distribution dominated by singletons).

The functions here return plain data structures (lists of dictionaries);
the ``benchmarks/`` pytest-benchmark suites and the example scripts format
them into the rows/series the paper reports.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..census.dependencies import census_dependencies
from ..census.generator import CensusGenerator
from ..census.queries import (
    CENSUS_QUERIES,
    q5_product_form,
    q6_self_join_product_form,
    q_four_way_join,
)
from ..census.schema import CENSUS_RELATION
from ..core.algebra.query import Query, evaluate_on_database, evaluate_on_uwsdt
from ..core.chase import chase_uwsdt
from ..core.planner import Statistics, plan
from ..core.planner.sampling import sampling_call_count
from ..core.uwsdt import UWSDT
from ..relational.database import Database
from ..relational.relation import Relation

#: The placeholder densities used throughout the paper's evaluation.
PAPER_DENSITIES: Tuple[float, ...] = (0.00005, 0.0001, 0.0005, 0.001)

#: Query factories for the planned-vs-unplanned experiment, by headline:
#: join *fusion* (σ∘× → ⋈) for the product forms, join *ordering* for the
#: 4-way chain.
PLANNER_BENCH_QUERIES: Dict[str, Callable[[], "Query"]] = {
    "q6_self_join": q6_self_join_product_form,
    "q5_product": q5_product_form,
    "four_way": q_four_way_join,
}

#: Human-readable labels for the densities (matching the paper's axis labels).
DENSITY_LABELS: Dict[float, str] = {
    0.00005: "0.005%",
    0.0001: "0.01%",
    0.0005: "0.05%",
    0.001: "0.1%",
    0.0: "0%",
}

#: Default laptop-scale sweep of relation sizes (stand-in for 0.1M–12.5M tuples).
DEFAULT_SIZES: Tuple[int, ...] = (1_000, 2_000, 5_000, 10_000)


def density_label(density: float) -> str:
    """Render a density as the paper writes it (e.g. ``0.1%``)."""
    return DENSITY_LABELS.get(density, f"{density * 100:g}%")


class CensusInstance:
    """A generated census instance: clean relation, noisy or-set relation, UWSDT."""

    def __init__(self, rows: int, density: float, seed: int = 42) -> None:
        self.rows = rows
        self.density = density
        self.seed = seed
        generator = CensusGenerator(seed=seed)
        self.clean_relation: Relation = generator.clean_relation(rows)
        if density > 0:
            self.orset_relation = generator.add_noise(self.clean_relation, density)
            self.uwsdt: UWSDT = UWSDT.from_orset_relation(self.orset_relation)
        else:
            self.orset_relation = None
            self.uwsdt = UWSDT.from_relation(self.clean_relation)

    def chased(self) -> UWSDT:
        """A chased copy of the UWSDT (the paper's cleaned representation)."""
        cleaned = self.uwsdt.copy()
        chase_uwsdt(cleaned, census_dependencies())
        return cleaned

    def one_world_database(self) -> Database:
        """The clean relation as an ordinary database (the 0 % baseline)."""
        return Database([self.clean_relation.copy(CENSUS_RELATION)])


_INSTANCE_CACHE: Dict[Tuple[int, float, int], CensusInstance] = {}


def census_instance(rows: int, density: float, seed: int = 42) -> CensusInstance:
    """Build (and cache) a census instance for the given parameters."""
    key = (rows, density, seed)
    if key not in _INSTANCE_CACHE:
        _INSTANCE_CACHE[key] = CensusInstance(rows, density, seed)
    return _INSTANCE_CACHE[key]


def clear_instance_cache() -> None:
    """Drop all cached census instances (used by tests)."""
    _INSTANCE_CACHE.clear()


def _timed(action: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    result = action()
    return result, time.perf_counter() - start


# --------------------------------------------------------------------------- #
# Figure 26: chase times
# --------------------------------------------------------------------------- #


def run_chase_experiment(
    sizes: Sequence[int] = DEFAULT_SIZES,
    densities: Sequence[float] = PAPER_DENSITIES,
    seed: int = 42,
) -> List[Dict[str, Any]]:
    """Chase the 12 dependencies for every (size, density) pair (Figure 26).

    Returns one record per pair with the elapsed time and representation
    statistics before/after the chase.
    """
    records: List[Dict[str, Any]] = []
    for density in densities:
        for rows in sizes:
            instance = census_instance(rows, density, seed)
            uwsdt = instance.uwsdt.copy()
            before = uwsdt.statistics()
            _, elapsed = _timed(lambda: chase_uwsdt(uwsdt, census_dependencies()))
            after = uwsdt.statistics()
            records.append(
                {
                    "figure": "26",
                    "rows": rows,
                    "density": density,
                    "density_label": density_label(density),
                    "chase_seconds": elapsed,
                    "components_before": before["components"],
                    "components_after": after["components"],
                    "components_gt1_after": after["components_gt1"],
                    "component_relation_size_after": after["component_relation_size"],
                }
            )
    return records


# --------------------------------------------------------------------------- #
# Figure 27: UWSDT characteristics after the chase and after each query
# --------------------------------------------------------------------------- #


def run_characteristics_experiment(
    rows: int = 10_000,
    densities: Sequence[float] = PAPER_DENSITIES,
    queries: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> List[Dict[str, Any]]:
    """Reproduce the Figure 27 table: #comp, #comp>1, |C|, |R| per density and query."""
    query_names = list(queries) if queries is not None else list(CENSUS_QUERIES)
    records: List[Dict[str, Any]] = []
    for density in densities:
        instance = census_instance(rows, density, seed)
        chased = instance.chased()
        statistics = chased.statistics()
        records.append(
            {
                "figure": "27",
                "stage": "chase",
                "rows": rows,
                "density": density,
                "density_label": density_label(density),
                "components": statistics["components"],
                "components_gt1": statistics["components_gt1"],
                "component_relation_size": statistics["component_relation_size"],
                "template_size": chased.template_size(CENSUS_RELATION),
            }
        )
        for name in query_names:
            working_copy = chased.copy()
            result_relation = evaluate_on_uwsdt(CENSUS_QUERIES[name](), working_copy, name)
            records.append(
                {
                    "figure": "27",
                    "stage": name,
                    "rows": rows,
                    "density": density,
                    "density_label": density_label(density),
                    "components": _components_touching(working_copy, result_relation),
                    "components_gt1": _components_touching(
                        working_copy, result_relation, minimum_arity=2
                    ),
                    "component_relation_size": _component_values_touching(
                        working_copy, result_relation
                    ),
                    "template_size": working_copy.template_size(result_relation),
                }
            )
    return records


def _components_touching(uwsdt: UWSDT, relation_name: str, minimum_arity: int = 1) -> int:
    """Components defining at least one field of ``relation_name`` (of a minimum arity)."""
    count = 0
    for component in uwsdt.components.values():
        relation_fields = [f for f in component.fields if f.relation == relation_name]
        if relation_fields and len(relation_fields) >= minimum_arity:
            count += 1
    return count


def _component_values_touching(uwsdt: UWSDT, relation_name: str) -> int:
    """Rows of the uniform ``C`` relation belonging to ``relation_name``."""
    total = 0
    for component in uwsdt.components.values():
        relation_fields = [f for f in component.fields if f.relation == relation_name]
        total += len(relation_fields) * component.size
    return total


# --------------------------------------------------------------------------- #
# Figure 28: component size distribution
# --------------------------------------------------------------------------- #


def run_component_size_experiment(
    sizes: Sequence[int] = (5_000, 10_000),
    densities: Sequence[float] = PAPER_DENSITIES,
    seed: int = 42,
) -> List[Dict[str, Any]]:
    """Reproduce Figure 28: placeholders-per-component histogram of the chased relations."""
    records: List[Dict[str, Any]] = []
    for rows in sizes:
        for density in densities:
            instance = census_instance(rows, density, seed)
            chased = instance.chased()
            histogram = chased.component_size_distribution()
            records.append(
                {
                    "figure": "28",
                    "rows": rows,
                    "density": density,
                    "density_label": density_label(density),
                    "size_1": histogram.get(1, 0),
                    "size_2": histogram.get(2, 0),
                    "size_3": histogram.get(3, 0),
                    "size_4_plus": sum(count for size, count in histogram.items() if size >= 4),
                }
            )
    return records


# --------------------------------------------------------------------------- #
# Figure 30: query evaluation times (including the one-world baseline)
# --------------------------------------------------------------------------- #


def run_query_experiment(
    sizes: Sequence[int] = DEFAULT_SIZES,
    densities: Sequence[float] = PAPER_DENSITIES + (0.0,),
    queries: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> List[Dict[str, Any]]:
    """Evaluate Q1–Q6 on UWSDTs of every (size, density), plus the 0 % one-world baseline."""
    query_names = list(queries) if queries is not None else list(CENSUS_QUERIES)
    records: List[Dict[str, Any]] = []
    for density in densities:
        for rows in sizes:
            instance = census_instance(rows, density, seed)
            if density == 0.0:
                database = instance.one_world_database()
                for name in query_names:
                    query = CENSUS_QUERIES[name]()
                    result, elapsed = _timed(
                        lambda q=query: evaluate_on_database(q, database, "result")
                    )
                    records.append(
                        {
                            "figure": "30",
                            "query": name,
                            "rows": rows,
                            "density": density,
                            "density_label": density_label(density),
                            "seconds": elapsed,
                            "result_size": len(result),
                        }
                    )
                continue
            chased = instance.chased()
            for name in query_names:
                working_copy = chased.copy()
                query = CENSUS_QUERIES[name]()
                result_name, elapsed = _timed(
                    lambda q=query, u=working_copy, n=name: evaluate_on_uwsdt(q, u, n)
                )
                records.append(
                    {
                        "figure": "30",
                        "query": name,
                        "rows": rows,
                        "density": density,
                        "density_label": density_label(density),
                        "seconds": elapsed,
                        "result_size": working_copy.template_size(name),
                    }
                )
    return records


# --------------------------------------------------------------------------- #
# Planner experiment: planned vs unplanned evaluation of σ-over-× queries
# --------------------------------------------------------------------------- #


def run_planner_experiment(
    sizes: Sequence[int] = (1_000, 2_000),
    densities: Sequence[float] = (0.0, 0.001),
    query_factory: Optional[Callable[[], Query]] = None,
    seed: int = 42,
) -> List[Dict[str, Any]]:
    """Compare planned and unplanned evaluation of a product-form join query.

    The default query is
    :func:`~repro.census.queries.q6_self_join_product_form` —
    ``σ_{B1=W2}(Q6' × Q6')`` over the *unselective* census query Q6, so the
    unplanned AST materializes a genuinely quadratic product template while
    the planner's σ(A=B)∘× → ⋈ fusion keeps it near-linear
    (:func:`~repro.census.queries.q5_product_form` is the paper-faithful but
    highly selective alternative, and
    :func:`~repro.census.queries.q_four_way_join` exercises the join-order
    enumerator instead of the fusion rule).  Each record reports both
    wall-clock times, the speedup, the chosen join order, and the planner's
    own cost estimates for cross-checking the model against reality.
    """
    factory = query_factory or q6_self_join_product_form
    records: List[Dict[str, Any]] = []
    for density in densities:
        for rows in sizes:
            instance = census_instance(rows, density, seed)
            query = factory()
            if density == 0.0:
                database = instance.one_world_database()
                built_plan = plan(query, Statistics.from_database(database))
                _, unplanned_seconds = _timed(
                    lambda: query.run(database, "result", optimize=False)
                )
                _, planned_seconds = _timed(
                    lambda: query.run(database, "result", plan=built_plan)
                )
            else:
                chased = instance.chased()
                built_plan = plan(query, Statistics.from_uwsdt(chased))
                unplanned_copy = chased.copy()
                _, unplanned_seconds = _timed(
                    lambda: query.run(unplanned_copy, "result", optimize=False)
                )
                planned_copy = chased.copy()
                _, planned_seconds = _timed(
                    lambda: query.run(planned_copy, "result", plan=built_plan)
                )
            records.append(
                {
                    "experiment": "planner",
                    "rows": rows,
                    "density": density,
                    "density_label": density_label(density),
                    "unplanned_seconds": unplanned_seconds,
                    "planned_seconds": planned_seconds,
                    "speedup": unplanned_seconds / planned_seconds
                    if planned_seconds > 0
                    else float("inf"),
                    "estimated_cost_before": built_plan.cost_before.cost,
                    "estimated_cost_after": built_plan.cost_after.cost,
                    "rewrites": len(built_plan.applications),
                    "join_order": built_plan.join_order,
                }
            )
    return records


# --------------------------------------------------------------------------- #
# Statistics catalog: repeated-planning overhead (cold vs warm)
# --------------------------------------------------------------------------- #


def run_repeated_planning_experiment(
    sizes: Sequence[int] = (1_000, 2_000),
    densities: Sequence[float] = (0.0, 0.001),
    query_factory: Optional[Callable[[], Query]] = None,
    warm_repeats: int = 5,
    seed: int = 42,
) -> List[Dict[str, Any]]:
    """Cold-vs-warm planning against the same engine (the catalog's payoff).

    The first ``Query.plan(engine)`` samples every base relation into the
    engine's statistics catalog; every later plan of the same (or a
    similar) query is served from the cache.  Each record reports both
    wall-clock times, the overhead ratio, and the sampling-call deltas —
    the warm delta must be zero on an unchanged engine.
    """
    factory = query_factory or q_four_way_join
    records: List[Dict[str, Any]] = []
    for density in densities:
        for rows in sizes:
            instance = census_instance(rows, density, seed)
            engine: Any
            if density == 0.0:
                engine = instance.one_world_database()
            else:
                engine = instance.chased()
            query = factory()
            calls_start = sampling_call_count()
            _, cold_seconds = _timed(lambda: query.plan(engine))
            cold_calls = sampling_call_count() - calls_start
            warm_seconds = []
            calls_warm_start = sampling_call_count()
            for _ in range(warm_repeats):
                _, elapsed = _timed(lambda: query.plan(engine))
                warm_seconds.append(elapsed)
            warm_calls = sampling_call_count() - calls_warm_start
            best_warm = min(warm_seconds)
            records.append(
                {
                    "experiment": "repeated-planning",
                    "rows": rows,
                    "density": density,
                    "density_label": density_label(density),
                    "cold_plan_seconds": cold_seconds,
                    "warm_plan_seconds": best_warm,
                    "overhead_ratio": cold_seconds / best_warm if best_warm > 0 else float("inf"),
                    "cold_sampling_calls": cold_calls,
                    "warm_sampling_calls": warm_calls,
                }
            )
    return records


# --------------------------------------------------------------------------- #
# Representation-size comparison (introduction / Section 3 expressiveness claims)
# --------------------------------------------------------------------------- #


def run_representation_size_experiment(
    field_counts: Sequence[int] = (2, 4, 6, 8, 10, 12),
    alternatives: int = 2,
) -> List[Dict[str, Any]]:
    """Compare representation sizes: or-set relation vs WSD vs explicit world-set.

    For ``k`` independent uncertain fields with ``m`` alternatives each, the
    or-set relation and the WSD grow linearly (``k·m`` values) while the
    explicit world-set relation grows as ``m^k`` rows — the ``10^(10^6)``
    explosion of the title, at laptop scale.
    """
    from ..baselines.naive import representation_size
    from ..core.wsd import WSD
    from ..relational.schema import RelationSchema
    from ..worlds.orset import OrSet, OrSetRelation

    records: List[Dict[str, Any]] = []
    for fields in field_counts:
        schema = RelationSchema("R", [f"A{i}" for i in range(fields)])
        orset_relation = OrSetRelation(schema)
        orset_relation.insert(
            tuple(OrSet(list(range(alternatives))) for _ in range(fields))
        )
        wsd = WSD.from_orset_relation(orset_relation)
        worldset = orset_relation.to_worldset(max_worlds=None)
        records.append(
            {
                "experiment": "representation_size",
                "uncertain_fields": fields,
                "alternatives": alternatives,
                "worlds": orset_relation.world_count(),
                "orset_values": orset_relation.representation_size(),
                "wsd_values": wsd.representation_size(),
                "worldset_relation_values": representation_size(worldset),
            }
        )
    return records


# --------------------------------------------------------------------------- #
# Formatting helpers
# --------------------------------------------------------------------------- #


def format_records(records: Iterable[Dict[str, Any]], columns: Sequence[str]) -> str:
    """Render experiment records as a fixed-width text table."""
    rows = [[_format_cell(record.get(column)) for column in columns] for record in records]
    widths = [
        max(len(columns[i]), *(len(row[i]) for row in rows)) if rows else len(columns[i])
        for i in range(len(columns))
    ]
    lines = [
        " | ".join(columns[i].ljust(widths[i]) for i in range(len(columns))),
        "-+-".join("-" * w for w in widths),
    ]
    lines.extend(
        " | ".join(row[i].ljust(widths[i]) for i in range(len(columns))) for row in rows
    )
    return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
