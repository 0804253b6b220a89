"""The physical execution layer: plans, backends, metrics.

The logical planner produces a :class:`~repro.core.planner.Plan`; this
package *lowers* its chosen tree into a :class:`PhysicalPlan` of concrete
operators (``Scan`` / ``IndexScan`` / ``Filter`` / ``HashJoin`` /
``IndexNestedLoopJoin`` / ``Product`` / ``Project`` / ``Rename`` /
``Union`` / ``Difference`` / ``Intersection``) and executes it through an
:class:`EngineBackend` — one per query engine (Database, UWSDT), each
wrapping the operator module that implements the paper's semantics.  Execution records
per-operator runtime metrics (estimated vs actual cardinality among them).

* :mod:`repro.core.exec.physical` — operator nodes, the executor,
  ``PhysicalPlan.explain()``.
* :mod:`repro.core.exec.backends` — the ``EngineBackend`` protocol and the
  Database/UWSDT implementations (the only place engine types are
  dispatched on).
* :mod:`repro.core.exec.lower`    — logical → physical lowering, including
  the hash-join vs index-nested-loop-join cost decision.
* :mod:`repro.core.exec.plan_cache` — the per-engine cache of lowered
  plans every default ``Query.run`` and service request goes through.
* :mod:`repro.core.exec.metrics`  — ``OperatorMetrics`` /
  ``ExecutionMetrics`` (rows in/out, wall time, estimated vs actual
  cardinality).
"""

from .backends import (
    DatabaseBackend,
    EngineBackend,
    UWSDTBackend,
    backend_for,
)
from .columnar import (
    BACKEND_SPECS,
    ColumnBatch,
    ColumnarBackend,
    insert_columnar_boundaries,
    resolve_backend,
)
from .lower import JOIN_ALGORITHMS, lower
from .metrics import ExecutionMetrics, OperatorMetrics
from .physical import (
    Dematerialize,
    Difference,
    Exchange,
    ExecutionResult,
    Filter,
    Gather,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    Intersection,
    Materialize,
    PhysicalOperator,
    PhysicalPlan,
    Product,
    Project,
    Rename,
    Scan,
    Union,
)
from .shard import (
    DEFAULT_WORKERS,
    SHARDABLE_OPS,
    ShardedBackend,
    insert_shard_boundaries,
    partition_uwsdt_components,
    reset_shard_pool,
)

__all__ = [
    "DatabaseBackend",
    "EngineBackend",
    "UWSDTBackend",
    "backend_for",
    "BACKEND_SPECS",
    "ColumnBatch",
    "ColumnarBackend",
    "insert_columnar_boundaries",
    "resolve_backend",
    "DEFAULT_WORKERS",
    "SHARDABLE_OPS",
    "ShardedBackend",
    "insert_shard_boundaries",
    "partition_uwsdt_components",
    "reset_shard_pool",
    "JOIN_ALGORITHMS",
    "lower",
    "ExecutionMetrics",
    "OperatorMetrics",
    "Dematerialize",
    "Difference",
    "Exchange",
    "ExecutionResult",
    "Filter",
    "Gather",
    "HashJoin",
    "IndexNestedLoopJoin",
    "IndexScan",
    "Intersection",
    "Materialize",
    "PhysicalOperator",
    "PhysicalPlan",
    "Product",
    "Project",
    "Rename",
    "Scan",
    "Union",
]
