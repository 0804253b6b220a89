"""Benchmark harness regenerating the tables and figures of Section 9."""

from .harness import (
    DEFAULT_SIZES,
    PAPER_DENSITIES,
    PLANNER_BENCH_QUERIES,
    CensusInstance,
    census_instance,
    clear_instance_cache,
    density_label,
    format_records,
    run_chase_experiment,
    run_characteristics_experiment,
    run_component_size_experiment,
    run_planner_experiment,
    run_query_experiment,
    run_repeated_planning_experiment,
    run_representation_size_experiment,
)

__all__ = [
    "DEFAULT_SIZES",
    "PAPER_DENSITIES",
    "PLANNER_BENCH_QUERIES",
    "CensusInstance",
    "census_instance",
    "clear_instance_cache",
    "density_label",
    "format_records",
    "run_chase_experiment",
    "run_characteristics_experiment",
    "run_component_size_experiment",
    "run_planner_experiment",
    "run_query_experiment",
    "run_repeated_planning_experiment",
    "run_representation_size_experiment",
]
