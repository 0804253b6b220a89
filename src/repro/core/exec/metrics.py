"""Runtime metrics of physical-operator execution.

Every physical operator records, while it runs, the cardinalities it
consumed and produced, the wall time it took, and the cardinality the
planner *expected* it to produce.  The per-operator records roll up into an
:class:`ExecutionMetrics` exposed on the query result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class OperatorMetrics:
    """One executed physical operator: cardinalities, time, estimate."""

    operator: str
    label: str
    #: Input cardinality per child (empty for scans).
    rows_in: Tuple[int, ...]
    rows_out: int
    #: Input arity per child, and the output arity (the cost formulas'
    #: width factors need both).
    arity_in: Tuple[int, ...]
    arity_out: int
    #: Wall time of this operator's own backend call alone — **self time**.
    #: Children are executed (and timed) before the parent's clock starts,
    #: so nested operators' ``seconds`` never overlap:
    #: ``ExecutionMetrics.total_seconds`` is a true cumulative sum, and
    #: per-node cumulative time is self + descendants
    #: (:meth:`~repro.core.exec.physical.PhysicalPlan.cumulative_seconds`).
    seconds: float
    #: The planner's cardinality estimate for this operator's output, or
    #: None when the plan was lowered without statistics.
    estimated_rows: Optional[float] = None

    @property
    def cardinality_error(self) -> Optional[float]:
        """The q-error ``max(est, actual) / min(est, actual)`` (≥ 1), with
        both sides floored at one row; None without an estimate."""
        if self.estimated_rows is None:
            return None
        estimated = max(1.0, float(self.estimated_rows))
        actual = max(1.0, float(self.rows_out))
        return max(estimated, actual) / min(estimated, actual)

    def describe(self) -> str:
        """One line: per-child input rows, output rows, self time, estimate.

        Join fan-in is explicit — ``in 1,200 × 3,000`` names both children's
        cardinalities — and the time is labeled ``self`` because it excludes
        the children (see :attr:`seconds`).
        """
        parts = []
        if self.rows_in:
            parts.append("in " + " × ".join(f"{rows:,}" for rows in self.rows_in))
        parts.append(f"{self.rows_out:,} rows out in {self.seconds * 1e3:.3f} ms self")
        if self.estimated_rows is not None:
            parts.append(f"est {self.estimated_rows:,.0f}")
            if self.cardinality_error is not None:
                parts.append(f"q-err {self.cardinality_error:.2f}")
        return ", ".join(parts)


@dataclass
class ExecutionMetrics:
    """All operator records of one query execution, in execution order."""

    engine: str
    records: List[OperatorMetrics] = field(default_factory=list)
    #: Fingerprint of the query these metrics belong to, when executed
    #: through the query service — lets telemetry attribute observations
    #: to the cached plan that produced them.
    fingerprint: Optional[str] = None
    #: Trace id of the service request that executed the plan (None outside
    #: the service or with tracing disabled) — ties these metrics to the
    #: request's span tree in the exported trace.
    trace_id: Optional[str] = None

    @property
    def total_seconds(self) -> float:
        """Cumulative wall time: the sum of per-operator **self** times.

        Operator ``seconds`` are non-overlapping by construction (each
        parent's clock starts after its children finished), so this sum
        counts every backend call exactly once.
        """
        return sum(record.seconds for record in self.records)

    def by_operator(self) -> Dict[str, List[OperatorMetrics]]:
        grouped: Dict[str, List[OperatorMetrics]] = {}
        for record in self.records:
            grouped.setdefault(record.operator, []).append(record)
        return grouped

    def max_cardinality_error(self) -> Optional[float]:
        """Worst per-operator q-error, or None when no operator had an estimate."""
        errors = [
            record.cardinality_error
            for record in self.records
            if record.cardinality_error is not None
        ]
        return max(errors) if errors else None

    def join_records(self) -> List[OperatorMetrics]:
        """The join operators (hash and index nested-loop) in execution order."""
        return [
            record
            for record in self.records
            if record.operator in ("HashJoin", "IndexNestedLoopJoin")
        ]

    def summary(self) -> str:
        lines = [
            f"execution metrics ({self.engine}): "
            f"{len(self.records)} operators, {self.total_seconds * 1e3:.3f} ms "
            f"cumulative (sum of non-overlapping per-operator self times)"
        ]
        for record in self.records:
            lines.append(f"  {record.label}: {record.describe()}")
        worst = self.max_cardinality_error()
        if worst is not None:
            lines.append(f"  worst cardinality q-error: {worst:.2f}")
        return "\n".join(lines)

