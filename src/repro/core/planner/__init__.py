"""Logical query planner: rewrite rules + cost model over :class:`Query` ASTs.

* :mod:`repro.core.planner.rules`    — semantics-preserving rewrites
  (selection pushdown, σ(A=B)∘× → equi-join fusion, projection pushdown,
  rename elimination, join-order search).
* :mod:`repro.core.planner.cost`     — cardinality/width cost model with
  one checked-in set of operator constants per query engine, Database or
  UWSDT (``COST_MODELS``), fed by row counts, placeholder densities and
  bounded row samples.
* :mod:`repro.core.planner.sampling` — bounded uniform samples of template rows;
  sampled predicate/join selectivities and distinct counts.
* :mod:`repro.core.planner.joins`    — join-graph extraction and the
  Selinger-style bushy-plan enumerator (DP ≤ 8 relations, greedy above).
* :mod:`repro.core.planner.catalog`  — the per-engine statistics catalog:
  version-keyed caching of samples/row counts/densities, so repeated
  planning against an unchanged engine does zero sampling work.
* :mod:`repro.core.planner.planner`  — the fixpoint driver and the
  inspectable :class:`Plan` (``plan.explain()``).
"""

from .catalog import CatalogEntry, StatisticsCatalog, catalog_for
from .cost import (
    COST_MODELS,
    CostEstimate,
    CostModel,
    FIXED_SELECTIVITY_FLOOR,
    Statistics,
    estimate,
    floored_predicate_selectivity,
    predicate_selectivity,
)
from .joins import (
    GREEDY_THRESHOLD,
    JoinGraph,
    MIN_REORDER_RELATIONS,
    enumerate_plan,
    extract_join_graph,
    reorder_tree,
)
from .planner import (
    Plan,
    RuleApplication,
    describe_join_order,
    plan,
    plan_call_count,
    rewrite,
)
from .rules import (
    DEFAULT_PHASES,
    EliminateRename,
    EliminateTrueSelect,
    FuseSelectIntoJoin,
    MergeSelects,
    PushProjectDown,
    PushSelectDown,
    ReorderJoins,
    RewriteContext,
    RewriteRule,
    conjunction,
    conjuncts,
    substitute_attributes,
)
from .sampling import (
    DEFAULT_SAMPLE_SIZE,
    RelationSample,
    join_selectivity,
    positional_sample,
    sampling_call_count,
)

__all__ = [
    "CatalogEntry",
    "StatisticsCatalog",
    "catalog_for",
    "COST_MODELS",
    "CostEstimate",
    "CostModel",
    "FIXED_SELECTIVITY_FLOOR",
    "Statistics",
    "estimate",
    "floored_predicate_selectivity",
    "predicate_selectivity",
    "GREEDY_THRESHOLD",
    "JoinGraph",
    "MIN_REORDER_RELATIONS",
    "enumerate_plan",
    "extract_join_graph",
    "reorder_tree",
    "Plan",
    "RuleApplication",
    "describe_join_order",
    "plan",
    "plan_call_count",
    "rewrite",
    "DEFAULT_PHASES",
    "EliminateRename",
    "EliminateTrueSelect",
    "FuseSelectIntoJoin",
    "MergeSelects",
    "PushProjectDown",
    "PushSelectDown",
    "ReorderJoins",
    "RewriteContext",
    "RewriteRule",
    "conjunction",
    "conjuncts",
    "substitute_attributes",
    "DEFAULT_SAMPLE_SIZE",
    "RelationSample",
    "join_selectivity",
    "positional_sample",
    "sampling_call_count",
]
