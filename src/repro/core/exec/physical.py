"""Physical operator trees: what the engines actually execute.

A :class:`PhysicalPlan` is the lowered form of a logical
:class:`~repro.core.algebra.query.Query` tree: every logical operator has
been mapped to a concrete algorithm (``Select`` over an equality on a base
relation becomes an :class:`IndexScan`; a ``Join`` becomes a
:class:`HashJoin` or an :class:`IndexNestedLoopJoin` depending on the cost
model and index availability).  The plan is engine-agnostic — executing it
against an :class:`~repro.core.exec.backends.EngineBackend` produces a
classical relation on a Database and extends the representation in place on
a UWSDT, exactly as the paper's ``Q̂`` convention prescribes.

Execution records an :class:`~repro.core.exec.metrics.OperatorMetrics` per
node (rows in/out, wall time, estimated vs actual cardinality), which
``PhysicalPlan.metrics()`` rolls up and ``PhysicalPlan.explain()`` renders
next to the chosen operators.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ...obs.metrics import LATENCY_BUCKETS, QERROR_BUCKETS, get_registry
from ...obs.trace import get_tracer
from ...relational.errors import QueryError
from ...relational.predicates import Predicate
from ..verify import verifier
from .metrics import ExecutionMetrics, OperatorMetrics

#: ``check(operator label, backend, handle)`` applied to every operator's
#: output while plan verification is on (None otherwise).
OutputCheck = Optional[Callable[[str, Any, Any], None]]
#: A node's placeholder verdict from the base relations it reads.
Certainty = Callable[[Sequence[str]], Optional[str]]


class PhysicalOperator:
    """Base class of physical plan nodes."""

    op_name = "physical"

    def __init__(
        self,
        children: Tuple["PhysicalOperator", ...] = (),
        estimated_rows: Optional[float] = None,
    ) -> None:
        self.children = tuple(children)
        self.estimated_rows = estimated_rows
        #: Filled in by execution (None until the node has run).
        self.metrics: Optional[OperatorMetrics] = None
        #: Sorted base relations the lowered subtree reads.
        self.base_relation_names: Tuple[str, ...] = ()

    def label(self) -> str:
        """One-line rendering of this operator (no children)."""
        return self.op_name

    def walk(self) -> List["PhysicalOperator"]:
        """All nodes of the subtree, children before parents (execution order)."""
        nodes: List[PhysicalOperator] = []
        for child in self.children:
            nodes.extend(child.walk())
        nodes.append(self)
        return nodes


class Scan(PhysicalOperator):
    """Full scan of a stored base relation."""

    op_name = "Scan"

    def __init__(self, relation: str, estimated_rows: Optional[float] = None) -> None:
        super().__init__((), estimated_rows)
        self.relation = relation

    def label(self) -> str:
        return f"Scan({self.relation})"


class IndexScan(PhysicalOperator):
    """Equality selection over a base relation served by a hash-index probe.

    The probe hits the hash index kept on the stored relation
    (:func:`~repro.relational.indexes.hash_index`); on a UWSDT that is the
    ``template_index`` of the template, probed with the constant plus the
    ``?`` placeholder key, per Figure 16's uncertain-field path.
    """

    op_name = "IndexScan"

    def __init__(
        self, relation: str, predicate: Predicate, estimated_rows: Optional[float] = None
    ) -> None:
        super().__init__((), estimated_rows)
        self.relation = relation
        self.predicate = predicate

    def label(self) -> str:
        return f"IndexScan({self.relation}, {self.predicate!r})"


class Filter(PhysicalOperator):
    """Selection σ_pred over an arbitrary input."""

    op_name = "Filter"

    def __init__(
        self,
        child: PhysicalOperator,
        predicate: Predicate,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((child,), estimated_rows)
        self.predicate = predicate

    def label(self) -> str:
        return f"Filter({self.predicate!r})"


class Project(PhysicalOperator):
    """Projection π_U (set semantics)."""

    op_name = "Project"

    def __init__(
        self,
        child: PhysicalOperator,
        attributes: Sequence[str],
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((child,), estimated_rows)
        self.attributes = tuple(attributes)

    def label(self) -> str:
        return f"Project({', '.join(self.attributes)})"


class Rename(PhysicalOperator):
    """Attribute renaming δ."""

    op_name = "Rename"

    def __init__(
        self,
        child: PhysicalOperator,
        old: str,
        new: str,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((child,), estimated_rows)
        self.old = old
        self.new = new

    def label(self) -> str:
        return f"Rename({self.old}→{self.new})"


class Product(PhysicalOperator):
    """Cartesian product ×."""

    op_name = "Product"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((left, right), estimated_rows)


class Union(PhysicalOperator):
    """Union ∪."""

    op_name = "Union"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((left, right), estimated_rows)


class Difference(PhysicalOperator):
    """Difference −."""

    op_name = "Difference"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((left, right), estimated_rows)


class Intersection(PhysicalOperator):
    """Native intersection ∩ (Database backend only; the representation
    engines execute the lowered ``A − (A − B)`` expansion instead)."""

    op_name = "Intersection"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((left, right), estimated_rows)


class Materialize(PhysicalOperator):
    """Row handle → :class:`~repro.core.exec.columnar.ColumnBatch` boundary.

    Inserted by :func:`~repro.core.exec.columnar.insert_columnar_boundaries`
    at the edge of a columnar region; ``Materialize(Scan)`` is the
    vectorized scan.  Only the columnar backend executes these.
    """

    op_name = "Materialize"

    def __init__(
        self, child: PhysicalOperator, estimated_rows: Optional[float] = None
    ) -> None:
        super().__init__((child,), estimated_rows)


class Dematerialize(PhysicalOperator):
    """Batch → row-handle boundary (restores set semantics on the way out)."""

    op_name = "Dematerialize"

    def __init__(
        self, child: PhysicalOperator, estimated_rows: Optional[float] = None
    ) -> None:
        super().__init__((child,), estimated_rows)


class Exchange(PhysicalOperator):
    """Shard boundary: the subtree below is hash-partitioned by world-set
    component and executed once per shard in the worker pool.

    Inserted by :func:`~repro.core.exec.shard.insert_shard_boundaries`
    around component-confined subtrees (per-tuple operators only); only the
    sharded backend executes it — via the enclosing :class:`Gather`, which
    hands the whole pair to ``backend.gather``.  After execution its
    metrics carry the coordination overhead (partition + ship time not
    accounted to the subtree's own operators) and ``shard_rows`` the
    per-shard result row counts for skew reporting.
    """

    op_name = "Exchange"

    def __init__(
        self,
        child: PhysicalOperator,
        workers: int,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((child,), estimated_rows)
        self.workers = workers
        #: Per-shard result row counts, filled in by ``backend.gather``.
        self.shard_rows: List[int] = []
        #: Wall time of the parent-side merge, filled in by ``backend.gather``.
        self.merge_seconds: float = 0.0

    def label(self) -> str:
        return f"Exchange(workers={self.workers})"


class Gather(PhysicalOperator):
    """Merge boundary over an :class:`Exchange`: collects the per-shard
    results back into the parent engine (template rows under their original
    tuple ids, evolved components replacing the shipped originals)."""

    op_name = "Gather"

    def __init__(
        self, child: Exchange, estimated_rows: Optional[float] = None
    ) -> None:
        super().__init__((child,), estimated_rows)


class HashJoin(PhysicalOperator):
    """Equi-join via an ephemeral build-and-probe hash table."""

    op_name = "HashJoin"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_attr: str,
        right_attr: str,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((left, right), estimated_rows)
        self.left_attr = left_attr
        self.right_attr = right_attr

    def label(self) -> str:
        return f"HashJoin({self.left_attr} = {self.right_attr})"


class IndexNestedLoopJoin(PhysicalOperator):
    """Equi-join probing the engine's cached index over a base relation.

    The *inner* child must be a :class:`Scan` of a stored relation: the
    backend never executes it — each outer tuple probes the engine's
    hash index kept on the stored relation
    (:func:`~repro.relational.indexes.hash_index` / ``UWSDT.template_index``)
    instead.
    """

    op_name = "IndexNestedLoopJoin"

    def __init__(
        self,
        outer: PhysicalOperator,
        inner: Scan,
        left_attr: str,
        right_attr: str,
        estimated_rows: Optional[float] = None,
    ) -> None:
        super().__init__((outer, inner), estimated_rows)
        self.outer = outer
        self.inner = inner
        self.left_attr = left_attr
        self.right_attr = right_attr

    def label(self) -> str:
        return (
            f"IndexNestedLoopJoin({self.left_attr} = "
            f"{self.inner.relation}.{self.right_attr})"
        )


class ExecutionResult:
    """A query result bundled with its execution metrics and physical plan.

    ``value`` is what ``Query.run`` returns without metrics collection: the
    result :class:`~repro.relational.relation.Relation` on a Database, the
    result relation's name on a UWSDT.
    """

    def __init__(self, value: Any, metrics: ExecutionMetrics, physical: "PhysicalPlan") -> None:
        self.value = value
        self.metrics = metrics
        self.physical = physical

    def __repr__(self) -> str:
        return (
            f"ExecutionResult({self.value!r}, {len(self.metrics.records)} operators, "
            f"{self.metrics.total_seconds * 1e3:.3f} ms)"
        )


class PhysicalPlan:
    """An executable physical operator tree for one engine kind."""

    def __init__(self, root: PhysicalOperator, engine: str) -> None:
        self.root = root
        self.engine = engine

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(self, backend: Any, result_name: str = "result") -> Any:
        """Run the plan against ``backend``; returns the backend's result
        (the result :class:`~repro.relational.relation.Relation` on a
        Database, the result relation's *name* on a UWSDT)."""
        if backend.kind != self.engine:
            raise QueryError(
                f"plan lowered for the {self.engine!r} engine cannot run on "
                f"a {backend.kind!r} backend"
            )
        # Read once per execution: off costs nothing per operator.
        checker = verifier()
        check = checker.verify_set_output if checker is not None else None
        backend.begin(result_name)
        handle = self._execute(self.root, backend, result_name, check)
        return backend.finish(handle, result_name)

    def _execute(
        self, node: PhysicalOperator, backend: Any, result_name: Optional[str], check: OutputCheck
    ) -> Any:
        tracer = get_tracer()
        if not tracer.enabled:
            # Strict fast path: one attribute check, no span objects.
            return self._execute_node(node, backend, result_name, check)
        # The span covers the whole subtree (children nest inside it), so
        # its duration is *cumulative* time; ``OperatorMetrics.seconds``
        # stays the operator's own self time.
        with tracer.span(f"execute-operator:{node.op_name}", label=node.label()) as span:
            handle = self._execute_node(node, backend, result_name, check)
            if node.metrics is not None:
                span.annotate(
                    rows_out=node.metrics.rows_out,
                    self_seconds=node.metrics.seconds,
                    estimated_rows=node.metrics.estimated_rows,
                )
        return handle

    def _execute_node(
        self, node: PhysicalOperator, backend: Any, result_name: Optional[str], check: OutputCheck
    ) -> Any:
        if isinstance(node, IndexNestedLoopJoin):
            # The inner Scan is never executed: the backend probes the
            # engine's cached index over the stored relation directly.
            outer = self._execute(node.outer, backend, None, check)
            rows_in = (backend.row_count(outer), backend.base_rows(node.inner.relation))
            arity_in = (backend.arity(outer), backend.base_arity(node.inner.relation))
            start = time.perf_counter()
            handle = backend.index_join(
                outer, node.inner.relation, node.left_attr, node.right_attr, result_name
            )
            seconds = time.perf_counter() - start
            self._record(node, backend, handle, rows_in, arity_in, seconds, check)
            return handle

        if isinstance(node, Gather):
            # The Exchange subtree never executes here: the sharded backend
            # partitions the engine, runs the subtree once per shard in the
            # worker pool, merges the results, and attributes the workers'
            # per-operator metrics onto the subtree's nodes.
            exchange = node.children[0]
            start = time.perf_counter()
            handle = backend.gather(exchange, result_name)
            total = time.perf_counter() - start
            shipped = exchange.metrics.rows_out if exchange.metrics is not None else 0
            seconds = max(0.0, total - self.cumulative_seconds(exchange))
            self._record(
                node,
                backend,
                handle,
                (shipped,),
                (backend.arity(handle),),
                seconds,
                check,
            )
            return handle

        handles = [self._execute(child, backend, None, check) for child in node.children]
        rows_in = tuple(backend.row_count(handle) for handle in handles)
        arity_in = tuple(backend.arity(handle) for handle in handles)
        start = time.perf_counter()
        if isinstance(node, Scan):
            handle = backend.scan(node.relation, result_name)
        elif isinstance(node, IndexScan):
            handle = backend.index_scan(node.relation, node.predicate, result_name)
        elif isinstance(node, Filter):
            handle = backend.filter(handles[0], node.predicate, result_name)
        elif isinstance(node, Project):
            handle = backend.project(handles[0], node.attributes, result_name)
        elif isinstance(node, Rename):
            handle = backend.rename(handles[0], node.old, node.new, result_name)
        elif isinstance(node, Product):
            handle = backend.product(handles[0], handles[1], result_name)
        elif isinstance(node, Union):
            handle = backend.union(handles[0], handles[1], result_name)
        elif isinstance(node, Difference):
            handle = backend.difference(handles[0], handles[1], result_name)
        elif isinstance(node, Intersection):
            handle = backend.intersection(handles[0], handles[1], result_name)
        elif isinstance(node, HashJoin):
            handle = backend.hash_join(
                handles[0], handles[1], node.left_attr, node.right_attr, result_name
            )
        elif isinstance(node, Materialize):
            handle = backend.materialize(handles[0], result_name)
        elif isinstance(node, Dematerialize):
            handle = backend.dematerialize(handles[0], result_name)
        else:
            raise QueryError(f"unknown physical operator {node.label()}")
        seconds = time.perf_counter() - start
        if isinstance(node, (Scan, IndexScan)):
            rows_in = (backend.base_rows(node.relation),)
            arity_in = (backend.base_arity(node.relation),)
        self._record(node, backend, handle, rows_in, arity_in, seconds, check)
        return handle

    def _record(
        self,
        node: PhysicalOperator,
        backend: Any,
        handle: Any,
        rows_in: Tuple[int, ...],
        arity_in: Tuple[int, ...],
        seconds: float,
        check: OutputCheck,
    ) -> None:
        if check is not None:  # every executed operator's output passes through here
            check(node.label(), backend, handle)
        node.metrics = OperatorMetrics(
            operator=node.op_name,
            label=node.label(),
            rows_in=rows_in,
            rows_out=backend.row_count(handle),
            arity_in=arity_in,
            arity_out=backend.arity(handle),
            seconds=seconds,
            estimated_rows=node.estimated_rows,
        )
        # Feed the process-wide registry: one histogram observation per
        # executed operator (not per tuple — constant overhead per node).
        registry = get_registry()
        registry.histogram(
            "repro.exec.operator_seconds",
            LATENCY_BUCKETS,
            operator=node.op_name,
            backend=backend.kind,
        ).observe(seconds)
        error = node.metrics.cardinality_error
        if error is not None:
            registry.histogram(
                "repro.exec.operator_qerror",
                QERROR_BUCKETS,
                operator=node.op_name,
                backend=backend.kind,
            ).observe(error)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def operators(self) -> List[PhysicalOperator]:
        """All nodes, children before parents (execution order)."""
        return self.root.walk()

    def uses(self, op_name: str) -> bool:
        """True iff some operator of the plan is of the named kind."""
        return any(node.op_name == op_name for node in self.operators())

    def metrics(self) -> ExecutionMetrics:
        """Roll up the per-operator records (empty before execution)."""
        return ExecutionMetrics(
            self.engine,
            [node.metrics for node in self.operators() if node.metrics is not None],
        )

    def explain(self) -> str:
        """Human-readable physical tree with estimates (and, once the plan
        has executed, the actual cardinalities and timings)."""
        header = f"physical plan ({self.engine})"
        lines = [header, "=" * len(header)]
        lines.extend(self._render(self.root, "", ""))
        return "\n".join(lines)

    def cumulative_seconds(self, node: Optional[PhysicalOperator] = None) -> float:
        """Self time of ``node`` plus all of its descendants (0 before
        execution; unexecuted nodes such as the INLJ's inner scan count 0)."""
        node = self.root if node is None else node
        own = node.metrics.seconds if node.metrics is not None else 0.0
        return own + sum(self.cumulative_seconds(child) for child in node.children)

    def explain_analyze(
        self,
        header_lines: Sequence[str] = (),
        certainty: Optional[Certainty] = None,
    ) -> str:
        """The executed plan, annotated per node with estimated vs actual
        rows, q-error, self vs cumulative time, and per-child input rows.

        Must run after :meth:`execute`; unexecuted nodes render without
        actuals.
        ``certainty`` (:meth:`Statistics.certainty
        <repro.core.planner.cost.Statistics.certainty>` of the plan's
        statistics) additionally tags each node with its placeholder verdict.
        """
        header = f"EXPLAIN ANALYZE ({self.engine})"
        lines = [header, "=" * len(header)]
        lines.extend(header_lines)
        metrics = self.metrics()
        worst = metrics.max_cardinality_error()
        summary = (
            f"total {metrics.total_seconds * 1e3:.3f} ms across "
            f"{len(metrics.records)} operators"
        )
        if worst is not None:
            summary += f"; worst q-error {worst:.2f}"
        lines.append(summary)
        lines.extend(self._render_analyze(self.root, "", "", certainty))
        return "\n".join(lines)

    def _render_analyze(
        self,
        node: PhysicalOperator,
        prefix: str,
        child_prefix: str,
        certainty: Optional[Certainty] = None,
    ) -> List[str]:
        annotations: List[str] = []
        if node.estimated_rows is not None:
            annotations.append(f"est {node.estimated_rows:,.0f}")
        record = node.metrics
        if record is not None:
            if record.rows_in:
                annotations.append(
                    "in " + " × ".join(f"{rows:,}" for rows in record.rows_in)
                )
            annotations.append(f"actual {record.rows_out:,}")
            if record.cardinality_error is not None:
                annotations.append(f"q-err {record.cardinality_error:.2f}")
            annotations.append(f"self {record.seconds * 1e3:.3f} ms")
            annotations.append(f"cum {self.cumulative_seconds(node) * 1e3:.3f} ms")
        elif node.op_name == "Scan":
            annotations.append("not executed (index probe target)")
        if isinstance(node, Exchange) and node.shard_rows:
            annotations.append(
                "shard rows "
                + "/".join(f"{rows:,}" for rows in node.shard_rows)
                + f" (max {max(node.shard_rows):,}, min {min(node.shard_rows):,})"
            )
            annotations.append(f"merge {node.merge_seconds * 1e3:.3f} ms")
        verdict = certainty(node.base_relation_names) if certainty is not None else None
        if verdict is not None:
            annotations.append(verdict)
        suffix = f"  [{' | '.join(annotations)}]" if annotations else ""
        lines = [f"{prefix}{node.label()}{suffix}"]
        for index, child in enumerate(node.children):
            last = index == len(node.children) - 1
            branch = "└── " if last else "├── "
            extend = "    " if last else "│   "
            lines.extend(
                self._render_analyze(
                    child, child_prefix + branch, child_prefix + extend, certainty
                )
            )
        return lines

    def _render(self, node: PhysicalOperator, prefix: str, child_prefix: str) -> List[str]:
        annotations = []
        if node.estimated_rows is not None:
            annotations.append(f"est {node.estimated_rows:,.0f} rows")
        if node.metrics is not None:
            annotations.append(
                f"actual {node.metrics.rows_out:,} rows, "
                f"{node.metrics.seconds * 1e3:.3f} ms"
            )
        suffix = f"  [{'; '.join(annotations)}]" if annotations else ""
        lines = [f"{prefix}{node.label()}{suffix}"]
        for index, child in enumerate(node.children):
            last = index == len(node.children) - 1
            branch = "└── " if last else "├── "
            extend = "    " if last else "│   "
            lines.extend(self._render(child, child_prefix + branch, child_prefix + extend))
        return lines

    def __repr__(self) -> str:
        return f"PhysicalPlan({self.engine}, {len(self.operators())} operators)"
