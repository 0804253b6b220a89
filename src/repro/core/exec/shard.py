"""Sharded parallel execution: row-partitioned per-row subtrees of a Database.

A subtree that reads one row at a time (Scan / IndexScan / Filter / Project
/ Rename chains, the legs of the census join queries) computes its result
row by row, so hash-partitioning the rows of the relations it scans into
``workers`` shards and running the subtree on every shard yields the same
relation — the union of the per-shard results — as running it once.
The backend is Database-only, like the columnar one.

:class:`ShardedBackend` wraps the Database's row backend
(:class:`~repro.core.exec.backends.DatabaseBackend`) and executes the
explicit ``Gather(Exchange(subtree))`` boundary pair that
:func:`insert_shard_boundaries` places during lowering (mirroring the
columnar ``Materialize``/``Dematerialize`` markers):

* ``Exchange`` marks a per-row subtree whose scanned relations are
  hash-partitioned into ``workers`` shards and shipped to a persistent
  ``multiprocessing`` worker pool;
* ``Gather`` unions the per-shard results and re-attributes the workers'
  per-operator metrics onto the parent plan's nodes.

Joins, products and set operations stay *above* the Gather: they relate
rows that may sit on different shards.  ``analysis/invariants.py`` enforces
exactly this boundary rule on every lowered plan.

When a worker dies (or a payload refuses to pickle), the affected shard
falls back to in-process execution: counted in
``repro.shard.fallbacks{reason=...}``, logged, and identical in result — the
same :func:`_execute_shard` function runs either way.
"""

from __future__ import annotations

import logging
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ...obs.metrics import DEFAULT_BUCKETS, get_registry
from ...obs.trace import get_tracer
from ...relational.database import Database
from ...relational.errors import QueryError
from ...relational.relation import Relation
from ...relational.schema import RelationSchema
from .backends import DatabaseBackend, EngineBackend, database_only
from .metrics import OperatorMetrics
from .physical import (
    Exchange,
    Gather,
    IndexNestedLoopJoin,
    IndexScan,
    PhysicalOperator,
    PhysicalPlan,
    Scan,
)

logger = logging.getLogger(__name__)

#: Default worker count when ``backend="sharded"`` is requested without one.
DEFAULT_WORKERS = 2

#: Physical operators safe inside an ``Exchange`` subtree: each computes its
#: output row by row, so any partition of the scanned rows is exact.
#: Joins, Product and the set operations relate rows of different shards;
#: they must execute above the Gather.
SHARDABLE_OPS = frozenset({"Scan", "IndexScan", "Filter", "Project", "Rename"})

#: Result relation name inside a shard engine.
SHARD_RESULT = "__shard__"


def _stable_hash(key: Any) -> int:
    """Deterministic hash of a partition key (``hash()`` is salted per process)."""
    return zlib.crc32(repr(key).encode("utf-8"))


# --------------------------------------------------------------------------- #
# The worker task (module-level so it pickles; also the in-process fallback)
# --------------------------------------------------------------------------- #


@dataclass
class ShardResult:
    """What one shard sends back to the parent."""

    attributes: Tuple[str, ...]
    rows: List[Tuple[Any, ...]]
    #: Per-node :class:`OperatorMetrics` in ``subtree.walk()`` order.
    records: List[Optional[OperatorMetrics]] = field(default_factory=list)


def _execute_shard(payload: Tuple[Any, PhysicalOperator]) -> ShardResult:
    """Execute one shard: runs in a pool worker, or in-process on fallback."""
    database, subtree = payload
    backend = DatabaseBackend(database)
    plan = PhysicalPlan(subtree, backend.kind)
    relation = plan.execute(backend, SHARD_RESULT)
    records = [node.metrics for node in plan.operators()]
    return ShardResult(relation.schema.attributes, list(relation.rows), records)


# --------------------------------------------------------------------------- #
# Persistent worker pool
# --------------------------------------------------------------------------- #

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _shard_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS == workers:
        return _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=False)
    _POOL = ProcessPoolExecutor(max_workers=workers)
    _POOL_WORKERS = workers
    return _POOL


def reset_shard_pool() -> None:
    """Tear down the persistent pool (crash recovery and test isolation)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=False)
    _POOL = None
    _POOL_WORKERS = 0


# --------------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------------- #


def _build_database_shards(
    engine: Database, scanned: Sequence[str], shards: int
) -> List[Database]:
    databases = [Database() for _ in range(shards)]
    for name in scanned:
        relation = engine.relation(name)
        parts: List[List[Tuple[Any, ...]]] = [[] for _ in range(shards)]
        for row in relation:
            parts[_stable_hash(row) % shards].append(row)
        for database, part in zip(databases, parts):
            # A slice of a stored relation: a set because that one is.
            database.add(Relation.from_tuples(relation.schema, part, distinct=True))
    return databases


# --------------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------------- #


class ShardedBackend(EngineBackend):
    """Parallel execution wrapping the Database's row backend.

    All ordinary operators delegate to the inner row backend — only the
    ``Gather`` boundary does anything sharded, so the parts of a plan above
    the boundary (joins, set operations) behave exactly as on the row
    backend.  ``workers`` is both the pool size and the shard count.
    """

    kind = "sharded"

    def __init__(self, engine: Any, workers: int = DEFAULT_WORKERS) -> None:
        super().__init__(engine)
        inner = database_only(engine, self.kind)
        if workers < 1:
            raise QueryError(f"sharded execution needs workers >= 1, got {workers}")
        self.inner = inner
        self.workers = workers
        self.supports_index_scan = inner.supports_index_scan
        self.supports_index_join = inner.supports_index_join
        self.native_intersection = inner.native_intersection
        #: Per-shard fallbacks to in-process execution during the last gather.
        self.fallbacks = 0

    # -- lifecycle --------------------------------------------------------- #

    def begin(self, result_name: str) -> None:
        self.inner.begin(result_name)

    def finish(self, handle, result_name: str):
        return self.inner.finish(handle, result_name)

    # -- delegation: everything above the Gather runs row-at-a-time -------- #

    def scan(self, name, result_name):
        return self.inner.scan(name, result_name)

    def index_scan(self, name, predicate, key, result_name):
        return self.inner.index_scan(name, predicate, key, result_name)

    def filter(self, child, predicate, result_name):
        return self.inner.filter(child, predicate, result_name)

    def project(self, child, attributes, result_name):
        return self.inner.project(child, attributes, result_name)

    def rename(self, child, old, new, result_name):
        return self.inner.rename(child, old, new, result_name)

    def product(self, left, right, result_name):
        return self.inner.product(left, right, result_name)

    def union(self, left, right, result_name):
        return self.inner.union(left, right, result_name)

    def difference(self, left, right, result_name):
        return self.inner.difference(left, right, result_name)

    def intersection(self, left, right, result_name):
        return self.inner.intersection(left, right, result_name)

    def hash_join(self, left, right, left_attr, right_attr, result_name):
        return self.inner.hash_join(left, right, left_attr, right_attr, result_name)

    def index_join(self, outer, inner_name, outer_attr, inner_attr, result_name):
        return self.inner.index_join(
            outer, inner_name, outer_attr, inner_attr, result_name
        )

    def row_count(self, handle) -> int:
        return self.inner.row_count(handle)

    def arity(self, handle) -> int:
        return self.inner.arity(handle)

    def base_rows(self, relation_name: str) -> int:
        return self.inner.base_rows(relation_name)

    def base_arity(self, relation_name: str) -> int:
        return self.inner.base_arity(relation_name)

    # -- the boundary ------------------------------------------------------ #

    def gather(self, exchange: Exchange, result_name: Optional[str]):
        """Execute an ``Exchange`` subtree sharded and merge the results.

        Partitions the scanned relations, ships one ``(shard database,
        subtree)`` payload per non-empty shard to the worker pool, unions
        the per-shard rows, and re-attributes the workers' per-operator
        metrics onto the subtree's nodes (summed across shards).
        """
        subtree = exchange.children[0]
        scanned = sorted(
            {
                node.relation
                for node in subtree.walk()
                if isinstance(node, (Scan, IndexScan))
            }
        )
        started = time.perf_counter()
        databases = _build_database_shards(self.engine, scanned, self.workers)
        payloads = [
            (index, (database, subtree))
            for index, database in enumerate(databases)
            if any(len(database.relation(name)) for name in scanned)
        ]
        if not payloads:
            payloads = [(0, (databases[0], subtree))]

        results = self._run_shards(payloads)
        parallel_seconds = time.perf_counter() - started

        merge_started = time.perf_counter()
        handle = self._merge_database(results, result_name)
        merge_seconds = time.perf_counter() - merge_started

        self._attribute_metrics(
            exchange, subtree, results, parallel_seconds, merge_seconds
        )
        return handle

    # -- shard execution --------------------------------------------------- #

    def _run_shards(
        self, payloads: Sequence[Tuple[int, Tuple[Any, PhysicalOperator]]]
    ) -> List[ShardResult]:
        registry = get_registry()
        tracer = get_tracer()
        self.fallbacks = 0
        futures: List[Tuple[int, Any, Any]] = []
        results: List[ShardResult] = []
        if self.workers == 1 or len(payloads) == 1:
            # Nothing to parallelize: skip the serialization round trip.
            for index, payload in payloads:
                results.append(self._run_local(index, payload))
            return results
        pool = _shard_pool(self.workers)
        for index, payload in payloads:
            try:
                futures.append((index, payload, pool.submit(_execute_shard, payload)))
            except Exception as exc:  # pool already broken / shutdown race
                self._count_fallback(registry, "submit-failed", index, exc)
                futures.append((index, payload, None))
        for index, payload, future in futures:
            if tracer.enabled:
                with tracer.span("shard-execute", shard=index) as span:
                    result = self._collect(registry, index, payload, future)
                    root_record = result.records[-1] if result.records else None
                    span.annotate(
                        rows_out=len(result.rows),
                        seconds=root_record.seconds if root_record else None,
                    )
            else:
                result = self._collect(registry, index, payload, future)
            results.append(result)
        return results

    def _collect(
        self, registry, index: int, payload, future
    ) -> ShardResult:
        """One shard's result, falling back to in-process execution on failure."""
        if future is None:
            return self._run_local(index, payload)
        try:
            return future.result()
        except BrokenProcessPool as exc:
            reset_shard_pool()
            self._count_fallback(registry, "worker-died", index, exc)
            return self._run_local(index, payload)
        except Exception as exc:
            # Pickling failures and in-worker errors: re-run in-process —
            # a deterministic bug will re-raise visibly, a transport
            # problem will succeed.
            reason = (
                "unpicklable"
                if "pickle" in type(exc).__name__.lower()
                or "pickle" in str(exc).lower()
                else "worker-error"
            )
            self._count_fallback(registry, reason, index, exc)
            return self._run_local(index, payload)

    def _run_local(self, index: int, payload: Tuple[Any, PhysicalOperator]) -> ShardResult:
        result = _execute_shard(payload)
        # In-process execution wrote metrics onto the shared subtree node
        # objects; detach them so the merged attribution below starts clean.
        for node in payload[1].walk():
            node.metrics = None
        return result

    def _count_fallback(self, registry, reason: str, index: int, exc: Exception) -> None:
        self.fallbacks += 1
        registry.counter("repro.shard.fallbacks", reason=reason).inc()
        logger.warning(
            "shard %d fell back to in-process execution (%s): %s", index, reason, exc
        )

    # -- merging ----------------------------------------------------------- #

    def _merge_database(
        self, results: Sequence[ShardResult], result_name: Optional[str]
    ) -> Relation:
        name = result_name if result_name is not None else "__gather"
        rows = [row for result in results for row in result.rows]
        # No ``distinct`` claim: two shards may return the same (projected) row.
        return Relation.from_tuples(RelationSchema(name, results[0].attributes), rows)

    # -- metrics attribution ----------------------------------------------- #

    def _attribute_metrics(
        self,
        exchange: Exchange,
        subtree: PhysicalOperator,
        results: Sequence[ShardResult],
        parallel_seconds: float,
        merge_seconds: float,
    ) -> None:
        nodes = subtree.walk()
        for position, node in enumerate(nodes):
            shard_records = [
                result.records[position]
                for result in results
                if position < len(result.records) and result.records[position] is not None
            ]
            if not shard_records:
                node.metrics = None
                continue
            first = shard_records[0]
            rows_in = tuple(
                sum(record.rows_in[i] for record in shard_records)
                for i in range(len(first.rows_in))
            )
            node.metrics = OperatorMetrics(
                operator=node.op_name,
                label=node.label(),
                rows_in=rows_in,
                rows_out=sum(record.rows_out for record in shard_records),
                arity_in=first.arity_in,
                arity_out=first.arity_out,
                seconds=sum(record.seconds for record in shard_records),
                estimated_rows=node.estimated_rows,
            )
        subtree_seconds = sum(
            node.metrics.seconds for node in nodes if node.metrics is not None
        )
        shard_rows = [len(result.rows) for result in results]
        total_rows = sum(shard_rows)
        exchange.shard_rows = shard_rows
        exchange.merge_seconds = merge_seconds
        exchange.metrics = OperatorMetrics(
            operator=exchange.op_name,
            label=exchange.label(),
            rows_in=(total_rows,),
            rows_out=total_rows,
            arity_in=(results[0].records[-1].arity_out if results[0].records else 0,),
            arity_out=results[0].records[-1].arity_out if results[0].records else 0,
            seconds=max(0.0, parallel_seconds - subtree_seconds),
            estimated_rows=exchange.estimated_rows,
        )
        if shard_rows and max(shard_rows) > 0:
            mean = total_rows / len(shard_rows)
            imbalance = max(shard_rows) / mean if mean else float(len(shard_rows))
            get_registry().histogram(
                "repro.shard.imbalance", DEFAULT_BUCKETS, backend=self.inner.kind
            ).observe(imbalance)


# --------------------------------------------------------------------------- #
# Boundary insertion (the lowering pass)
# --------------------------------------------------------------------------- #


def insert_shard_boundaries(
    root: PhysicalOperator, backend: EngineBackend
) -> PhysicalOperator:
    """Wrap maximal per-row subtrees in ``Gather(Exchange(...))``.

    A subtree is shardable when every operator in it is per-row
    (:data:`SHARDABLE_OPS`); joins and set operations — which relate rows
    of different shards — stay above the boundary and execute unsharded on
    the parent Database.  Bare scans are not worth a round trip and pass
    through.  Plans for non-sharded backends are returned untouched.
    """
    if not isinstance(backend, ShardedBackend):
        return root

    def shardable(node: PhysicalOperator) -> bool:
        return node.op_name in SHARDABLE_OPS and all(
            shardable(child) for child in node.children
        )

    def wrap(node: PhysicalOperator) -> PhysicalOperator:
        exchange = Exchange(node, backend.workers)
        exchange.estimated_rows = node.estimated_rows
        exchange.base_relation_names = node.base_relation_names
        gather = Gather(exchange)
        gather.estimated_rows = node.estimated_rows
        gather.base_relation_names = node.base_relation_names
        return gather

    def visit(node: PhysicalOperator) -> PhysicalOperator:
        if isinstance(node, IndexNestedLoopJoin):
            # The inner Scan is never executed — only the outer child may be
            # sharded, and both the children tuple and the node's ``outer``
            # reference must see the boundary.
            outer = visit(node.outer)
            node.outer = outer
            node.children = (outer, node.inner)
            return node
        if shardable(node) and len(node.walk()) >= 2:
            return wrap(node)
        node.children = tuple(visit(child) for child in node.children)
        return node

    return visit(root)
