"""Lowering: logical :class:`Query` trees → :class:`PhysicalPlan`.

This is where physical alternatives are built.  What is structurally possible
is decided here; what is cheaper was decided by the estimator that priced the
tree (:mod:`~repro.core.planner.cost`) and is read off its per-node estimate:

* a ``Select`` with a hashable equality predicate directly over a base
  relation becomes an :class:`~repro.core.exec.physical.IndexScan` on
  backends that can probe one (the hash index kept on the relation);
* a ``Join`` whose *right* input is a bare base-relation scan becomes an
  :class:`~repro.core.exec.physical.IndexNestedLoopJoin` when the node's
  estimate names that algorithm (``NodeEstimate.algorithm`` — the one
  hash-vs-index comparison, whose winner is also what ``Plan.cost_after``
  and the join-order DP priced; the DP steers the bare scan to the
  right-hand side whenever that orientation wins);
* an ``Intersection`` is native on the Database backend and lowered through
  its ``A − (A − B)`` expansion on the representation backends.

Every physical node carries the planner's cardinality estimate for its
output, so executed plans can report estimated-vs-actual cardinality errors.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...relational.errors import QueryError
from ...relational.predicates import is_index_equality
from ..algebra import query as logical
from ..algebra.schema import SchemaContext
from ..planner.cost import NodeEstimate, Statistics, estimate_forest
from ..verify import verifier
from .backends import EngineBackend, backend_for
from .physical import (
    Difference,
    Filter,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    Intersection,
    PhysicalOperator,
    PhysicalPlan,
    Product,
    Project,
    Rename,
    Scan,
    Union,
)

#: Values for the ``force_join`` knob (benchmarks compare the algorithms).
JOIN_ALGORITHMS = ("hash", "index-nested-loop")


class _Lowering:
    def __init__(
        self,
        backend: EngineBackend,
        statistics: Statistics,
        force_join: Optional[str],
        estimates: Optional[Dict[logical.Query, NodeEstimate]] = None,
    ) -> None:
        self.backend = backend
        self.statistics = statistics
        self.force_join = force_join
        #: Per-node estimates keyed by node: the planner's own, when it hands
        #: them over, else filled by one bottom-up pass at the root's lookup
        #: (re-estimating every subtree here would be quadratic in the
        #: statistics' sample work).  A copy, because nodes synthesized during
        #: lowering extend it and die with the lowering.
        self.estimates = dict(estimates or ())

    def estimate(self, node: logical.Query) -> Optional[NodeEstimate]:
        """The node's estimate, made on first sight for a node synthesized
        here (the ∩ expansion); None for an unknown node, which ``lower``
        rejects with a QueryError showing the query."""
        if node not in self.estimates:
            try:
                estimate_forest(node, self.statistics, memo=self.estimates)
            except TypeError:
                return None
        return self.estimates[node]

    def lower(self, node: logical.Query) -> PhysicalOperator:
        physical = self._lower_node(node)
        physical.base_relation_names = tuple(sorted(node.base_relations()))
        return physical

    def _lower_node(self, node: logical.Query) -> PhysicalOperator:
        estimate = self.estimate(node)
        rows = estimate.rows if estimate is not None else None
        if isinstance(node, logical.BaseRelation):
            return Scan(node.name, rows)
        if isinstance(node, logical.Select):
            if (
                self.backend.supports_index_scan
                and isinstance(node.child, logical.BaseRelation)
                and is_index_equality(node.predicate)
            ):
                return IndexScan(node.child.name, node.predicate, rows)
            return Filter(self.lower(node.child), node.predicate, rows)
        if isinstance(node, logical.Project):
            return Project(self.lower(node.child), node.attributes, rows)
        if isinstance(node, logical.Rename):
            return Rename(self.lower(node.child), node.old, node.new, rows)
        if isinstance(node, logical.Product):
            return Product(self.lower(node.left), self.lower(node.right), rows)
        if isinstance(node, logical.Union):
            return Union(self.lower(node.left), self.lower(node.right), rows)
        if isinstance(node, logical.Difference):
            return Difference(self.lower(node.left), self.lower(node.right), rows)
        if isinstance(node, logical.Intersection):
            if self.backend.native_intersection:
                return Intersection(self.lower(node.left), self.lower(node.right), rows)
            return self.lower(node.expanded())
        if isinstance(node, logical.Join):
            return self.lower_join(node, rows, estimate)
        raise QueryError(
            "cannot lower query node to a physical operator:\n" + node.to_text("  ")
        )

    def lower_join(
        self, node: logical.Join, rows: Optional[float], estimate: Optional[NodeEstimate]
    ) -> PhysicalOperator:
        left = self.lower(node.left)
        right = self.lower(node.right)
        applicable = (
            self.backend.supports_index_join
            and isinstance(right, Scan)
            and self.force_join != "hash"
        )
        if applicable and self.force_join != "index-nested-loop":
            applicable = estimate is not None and estimate.algorithm == "index-nested-loop"
        if applicable:
            return IndexNestedLoopJoin(left, right, node.left_attr, node.right_attr, rows)
        return HashJoin(left, right, node.left_attr, node.right_attr, rows)


def lower(
    query: logical.Query,
    backend: EngineBackend,
    statistics: Optional[Statistics] = None,
    force_join: Optional[str] = None,
    estimates: Optional[Dict[logical.Query, NodeEstimate]] = None,
) -> PhysicalPlan:
    """Lower a logical query tree into a physical plan for ``backend``.

    ``statistics`` should be the statistics the logical plan was built with
    (physical choices then see the same cardinality estimates); without
    them, lowering falls back to default statistics for the representation
    engine the backend executes on — the columnar and sharded backends
    price with the cost model of the engine they wrap, so a verbatim tree
    lowers to the same join algorithm on every backend.  ``force_join``
    overrides the hash-vs-index choice where an index join is structurally
    possible (``"hash"`` / ``"index-nested-loop"``).  ``estimates`` is
    :attr:`Plan.estimates <repro.core.planner.planner.Plan.estimates>` of the
    plan ``query`` was chosen by (made with the same ``statistics``):
    lowering then estimates nothing the planner already did.
    """
    if force_join is not None and force_join not in JOIN_ALGORITHMS:
        raise ValueError(f"unknown join algorithm {force_join!r}; expected {JOIN_ALGORITHMS}")
    if statistics is None:
        statistics = Statistics(engine=backend_for(backend.engine).kind)
    from ...obs.trace import get_tracer

    with get_tracer().span("lowering", engine=backend.kind):
        lowering = _Lowering(backend, statistics, force_join, estimates)
        root = lowering.lower(query)
        if backend.kind == "columnar":
            from .columnar import insert_columnar_boundaries

            root = insert_columnar_boundaries(root, backend)
        elif backend.kind == "sharded":
            from .shard import insert_shard_boundaries

            root = insert_shard_boundaries(root, backend)
        physical = PhysicalPlan(root, backend.kind)
        checker = verifier()
        if checker is not None:
            checker.verify_physical(
                physical,
                backend=backend,
                schema_context=SchemaContext(statistics.attributes),
                certain_base=backend.certain_base if backend.kind == "columnar" else None,
            )
        return physical
