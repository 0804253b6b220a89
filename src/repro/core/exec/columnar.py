"""Columnar vectorized execution over the one-world Database.

A :class:`ColumnBatch` presents the rows of a Database relation as shared
per-attribute columns plus a selection vector.  The columns of a *stored*
relation live on the relation
(:func:`~repro.relational.indexes.column_store`), validated by its version
like its hash indexes, shared by every engine holding it and transposed one
attribute at a time when first read.  Vectorized kernels implement
Filter / Project / Rename / HashJoin / Union / Difference / Intersection
over batches without per-operator ``Relation`` construction and without
copying a value before a join or the region's exit needs it; relations
stay sets inside the region (Project and Union collapse the duplicates
they create).

:class:`ColumnarBackend` wraps the Database's row backend
(:class:`~repro.core.exec.backends.DatabaseBackend`) and adds two boundary
operators, mirroring the Transfer-marker idea:

* ``materialize``  — relation → batch (the vectorized scan);
* ``dematerialize`` — batch → :class:`~repro.relational.relation.Relation`.

:func:`insert_columnar_boundaries` is the lowering pass that decides where
the boundaries go: an operator runs columnar exactly when it has a kernel.
Everything else — Product, IndexNestedLoopJoin and the scans a
``Materialize`` reads — runs row-at-a-time, and mixed plans stitch the two
regions together with explicit ``Materialize`` / ``Dematerialize`` nodes.

The backend is Database-only, like the sharded one: a UWSDT query runs on
the Section 5 operators of its row backend.

:func:`resolve_backend` maps the user-facing backend spec (``"row"`` /
``"columnar"`` / ``"sharded"``; None is ``"row"``) to a concrete backend.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...relational.errors import QueryError
from ...relational.indexes import Column, ColumnStore, column_store
from ...relational.relation import Relation
from ...relational.schema import RelationSchema
from ...relational.predicates import Predicate
from .backends import EngineBackend, backend_for, database_only
from .physical import (
    Dematerialize,
    IndexNestedLoopJoin,
    Materialize,
    PhysicalOperator,
)

#: The specs ``Query.run(backend=...)`` accepts.
BACKEND_SPECS = ("row", "columnar", "sharded")

#: Physical operators with a vectorized kernel.  ``Scan`` is deliberately
#: absent: ``Materialize(Scan)`` *is* the vectorized scan — the batch reads
#: the stored relation's cached columns.
COLUMNAR_KERNEL_OPS = frozenset(
    {"Filter", "Project", "Rename", "HashJoin", "Union", "Difference", "Intersection"}
)


def _take(values: Sequence[Any], indices: Optional[Sequence[int]]) -> Sequence[Any]:
    """``values`` at ``indices`` — or, for None, all of them, uncopied."""
    return values if indices is None else list(map(values.__getitem__, indices))


class ColumnBatch:
    """Shared, lazily built columns plus an optional selection vector.

    ``selection`` lists the surviving positions of the base columns (None:
    all ``size`` of them, in order), so Filter / Project / Rename pass the
    same :class:`~repro.relational.indexes.Column` objects along and no
    value is copied before a join or the region's exit reads it.
    ``columns`` / ``to_rows`` are the *selected* view — raw values, so
    ``from_rows`` → ``to_rows`` is exact.
    """

    __slots__ = ("attributes", "base", "size", "selection")

    def __init__(
        self,
        attributes: Sequence[str],
        base: Sequence[Column],
        size: int,
        selection: Optional[List[int]] = None,
    ) -> None:
        self.attributes = tuple(attributes)
        self.base = tuple(base)
        self.size = size
        self.selection = selection

    @classmethod
    def from_rows(cls, attributes: Sequence[str], rows: Sequence[Tuple[Any, ...]]) -> "ColumnBatch":
        store = ColumnStore(rows, len(attributes))
        return cls(attributes, store.columns, store.size)

    def positions(self) -> Sequence[int]:
        """The base position of every row of the batch."""
        return range(self.size) if self.selection is None else self.selection

    def values(self, attribute: str) -> Sequence[Any]:
        """One attribute's values over the selected rows."""
        return _take(self.base[self.position(attribute)].values, self.selection)

    @property
    def columns(self) -> Tuple[Sequence[Any], ...]:
        """Per-attribute values of the selected rows (read-only: without a
        selection these are the shared base lists themselves)."""
        return tuple(_take(column.values, self.selection) for column in self.base)

    def to_rows(self) -> List[Tuple[Any, ...]]:
        """Rows in batch order, duplicates preserved."""
        if not self.base:
            return [() for _ in self.positions()]
        return list(zip(*self.columns))

    def __len__(self) -> int:
        return len(self.positions())

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def position(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise QueryError(
                f"batch has no attribute {attribute!r} (schema {self.attributes})"
            ) from None

    def gather(self, indices: Sequence[int]) -> "ColumnBatch":
        """A new batch selecting the given row positions, in order: the
        selection vectors compose, no column is read."""
        selection = list(_take(self.positions(), indices))
        return ColumnBatch(self.attributes, self.base, self.size, selection)

    def __repr__(self) -> str:
        return f"ColumnBatch({self.attributes!r}, {len(self)} rows)"


# --------------------------------------------------------------------------- #
# Vectorized kernels (set semantics: Project and Union collapse duplicates)
# --------------------------------------------------------------------------- #

def filter_batch(batch: ColumnBatch, predicate: Predicate) -> ColumnBatch:
    """σ_pred: evaluate the predicate over the referenced columns only and
    shrink the selection vector; no column is copied."""
    # A predicate that names no attribute (TRUE) is evaluated on whole rows.
    referenced = predicate.attributes() or batch.attributes
    check = predicate.compile(RelationSchema("__batch", referenced))
    truth = map(check, zip(*(batch.values(attribute) for attribute in referenced)))
    selection = list(compress(batch.positions(), truth))
    return ColumnBatch(batch.attributes, batch.base, batch.size, selection)


def _distinct(batch: ColumnBatch) -> ColumnBatch:
    """The batch without duplicate rows; the first occurrence wins."""
    rows = batch.to_rows()
    first = dict(zip(reversed(rows), range(len(rows) - 1, -1, -1)))
    return batch if len(first) == len(rows) else batch.gather(sorted(first.values()))


def project_batch(batch: ColumnBatch, attributes: Sequence[str]) -> ColumnBatch:
    """π_U: reorder/drop columns; relations are sets, so a projection that
    drops a column collapses the duplicates it creates."""
    positions = [batch.position(a) for a in attributes]
    projected = ColumnBatch(
        attributes, [batch.base[p] for p in positions], batch.size, batch.selection
    )
    return projected if len(set(positions)) == batch.arity else _distinct(projected)


def rename_batch(batch: ColumnBatch, old: str, new: str) -> ColumnBatch:
    """δ: relabel one column; the columns are shared, not copied."""
    batch.position(old)  # validate
    attributes = tuple(new if a == old else a for a in batch.attributes)
    return ColumnBatch(attributes, batch.base, batch.size, batch.selection)


def union_batch(left: ColumnBatch, right: ColumnBatch) -> ColumnBatch:
    """∪ as deduplicated column concatenation."""
    _require_same_attributes("union", left, right)

    def concatenated(lc: Sequence[Any], rc: Sequence[Any]) -> Column:
        return Column(lambda: [*lc, *rc])

    columns = [concatenated(lc, rc) for lc, rc in zip(left.columns, right.columns)]
    return _distinct(ColumnBatch(left.attributes, columns, len(left) + len(right)))


def difference_batch(left: ColumnBatch, right: ColumnBatch) -> ColumnBatch:
    """−: keep left rows whose value tuple does not occur on the right."""
    _require_same_attributes("difference", left, right)
    right_rows = set(right.to_rows())
    keep = [i for i, row in enumerate(left.to_rows()) if row not in right_rows]
    return left.gather(keep)


def intersection_batch(left: ColumnBatch, right: ColumnBatch) -> ColumnBatch:
    """∩: keep left rows whose value tuple occurs on the right."""
    _require_same_attributes("intersection", left, right)
    right_rows = set(right.to_rows())
    keep = [i for i, row in enumerate(left.to_rows()) if row in right_rows]
    return left.gather(keep)


def hash_join_batch(
    left: ColumnBatch, right: ColumnBatch, left_attr: str, right_attr: str
) -> ColumnBatch:
    """Equi-join: build on the right key column, probe the left key column.

    The output columns gather from the inputs' *base* columns, each only
    when something downstream reads it.
    """
    build: Dict[Any, List[int]] = {}
    for position, value in zip(right.positions(), right.values(right_attr)):
        build.setdefault(value, []).append(position)
    left_positions: List[int] = []
    right_positions: List[int] = []
    for position, value in zip(left.positions(), left.values(left_attr)):
        matches = build.get(value)
        if matches:
            left_positions.extend(repeat(position, len(matches)))
            right_positions.extend(matches)

    def gathered(column: Column, positions: List[int]) -> Column:
        return Column(lambda: list(_take(column.values, positions)))

    columns = [gathered(column, left_positions) for column in left.base]
    columns += [gathered(column, right_positions) for column in right.base]
    return ColumnBatch(left.attributes + right.attributes, columns, len(left_positions))


def _require_same_attributes(operator: str, left: ColumnBatch, right: ColumnBatch) -> None:
    if left.attributes != right.attributes:
        raise QueryError(
            f"columnar {operator} requires identical attribute lists; "
            f"got {left.attributes} and {right.attributes}"
        )


# --------------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------------- #


class ColumnarBackend(EngineBackend):
    """Vectorized execution wrapping the Database's row backend.

    Handles are *either* :class:`ColumnBatch` objects (inside a columnar
    region) or relations (outside).  Every operator method is
    handle-polymorphic: batch inputs run the kernel, relations go to the
    row backend.
    """

    kind = "columnar"

    def __init__(self, engine: Any) -> None:
        super().__init__(engine)
        self.inner = inner = database_only(engine, self.kind)
        self.supports_index_scan = inner.supports_index_scan
        self.supports_index_join = inner.supports_index_join
        self.native_intersection = inner.native_intersection

    # -- lifecycle --------------------------------------------------------- #

    def begin(self, result_name: str) -> None:
        self.inner.begin(result_name)

    def finish(self, handle, result_name: str):
        if isinstance(handle, ColumnBatch):
            handle = self.dematerialize(handle, result_name)
        if handle.schema.name == result_name and not self._stored(handle):
            # Built by the boundary under its final name and aliased by
            # nothing stored: the row backend's protective copy is waste.
            return handle
        return self.inner.finish(handle, result_name)

    def _stored(self, relation: Relation) -> bool:
        """True iff a relation is one the engine stores rather than an
        intermediate result: only those keep their column store, and only
        those need ``finish``'s protective copy."""
        name = relation.schema.name
        return self.engine.has_relation(name) and self.engine.relation(name) is relation

    # -- boundaries -------------------------------------------------------- #

    def materialize(self, handle: Relation, result_name: Optional[str]) -> ColumnBatch:
        """Relation → batch (the vectorized scan half of the boundary).

        The columns of a relation the engine stores come from (and stay on)
        the relation; an intermediate result gets a throwaway store —
        either way only the columns the region reads are ever transposed.
        """
        schema = handle.schema
        stored = self._stored(handle)
        store = column_store(handle) if stored else ColumnStore(handle.rows, schema.arity)
        return ColumnBatch(schema.attributes, store.columns, store.size)

    def dematerialize(self, handle: ColumnBatch, result_name: Optional[str]) -> Relation:
        """Batch → relation."""
        name = result_name if result_name is not None else "__columnar"
        # No ``distinct`` claim: a caller-built batch may be a bag.
        return Relation.from_tuples(RelationSchema(name, handle.attributes), handle.to_rows())

    def _row_handle(self, handle):
        """Coerce a batch to a relation (delegation path)."""
        if isinstance(handle, ColumnBatch):
            return self.dematerialize(handle, None)
        return handle

    # -- operators --------------------------------------------------------- #

    def scan(self, name: str, result_name: Optional[str]) -> Relation:
        return self.inner.scan(name, result_name)

    def index_scan(self, name: str, predicate: Predicate, key: Predicate, result_name):
        return self.inner.index_scan(name, predicate, key, result_name)

    def filter(self, child, predicate: Predicate, result_name):
        if isinstance(child, ColumnBatch):
            return filter_batch(child, predicate)
        return self.inner.filter(child, predicate, result_name)

    def project(self, child, attributes: Sequence[str], result_name):
        if isinstance(child, ColumnBatch):
            return project_batch(child, attributes)
        return self.inner.project(child, attributes, result_name)

    def rename(self, child, old: str, new: str, result_name):
        if isinstance(child, ColumnBatch):
            return rename_batch(child, old, new)
        return self.inner.rename(child, old, new, result_name)

    def product(self, left, right, result_name):
        return self.inner.product(self._row_handle(left), self._row_handle(right), result_name)

    def union(self, left, right, result_name):
        if isinstance(left, ColumnBatch) and isinstance(right, ColumnBatch):
            return union_batch(left, right)
        return self.inner.union(self._row_handle(left), self._row_handle(right), result_name)

    def difference(self, left, right, result_name):
        if isinstance(left, ColumnBatch) and isinstance(right, ColumnBatch):
            return difference_batch(left, right)
        return self.inner.difference(
            self._row_handle(left), self._row_handle(right), result_name
        )

    def intersection(self, left, right, result_name):
        if isinstance(left, ColumnBatch) and isinstance(right, ColumnBatch):
            return intersection_batch(left, right)
        return self.inner.intersection(
            self._row_handle(left), self._row_handle(right), result_name
        )

    def hash_join(self, left, right, left_attr: str, right_attr: str, result_name):
        if isinstance(left, ColumnBatch) and isinstance(right, ColumnBatch):
            return hash_join_batch(left, right, left_attr, right_attr)
        return self.inner.hash_join(
            self._row_handle(left), self._row_handle(right), left_attr, right_attr, result_name
        )

    def index_join(self, outer, inner_name: str, outer_attr: str, inner_attr: str, result_name):
        return self.inner.index_join(
            self._row_handle(outer), inner_name, outer_attr, inner_attr, result_name
        )

    # -- introspection ----------------------------------------------------- #

    def row_count(self, handle) -> int:
        if isinstance(handle, ColumnBatch):
            return len(handle)
        return self.inner.row_count(handle)

    def arity(self, handle) -> int:
        if isinstance(handle, ColumnBatch):
            return handle.arity
        return self.inner.arity(handle)

    def base_rows(self, relation_name: str) -> int:
        return self.inner.base_rows(relation_name)

    def base_arity(self, relation_name: str) -> int:
        return self.inner.base_arity(relation_name)


# --------------------------------------------------------------------------- #
# Boundary insertion (the lowering pass)
# --------------------------------------------------------------------------- #


def insert_columnar_boundaries(
    root: PhysicalOperator, backend: EngineBackend
) -> PhysicalOperator:
    """Mark columnar regions and stitch them to the row world.

    A node runs columnar when it has a kernel; ``Materialize`` /
    ``Dematerialize`` nodes are inserted wherever the produced handle kind
    differs from what the parent consumes.  The root always hands a row
    handle to ``finish``.  Plans for row backends pass through untouched.
    """
    if not isinstance(backend, ColumnarBackend):
        return root

    def bridge(
        node: PhysicalOperator, produces_batch: bool, want_batch: bool
    ) -> PhysicalOperator:
        if produces_batch == want_batch:
            return node
        boundary = Materialize(node) if want_batch else Dematerialize(node)
        boundary.estimated_rows = node.estimated_rows
        boundary.base_relation_names = node.base_relation_names
        return boundary

    def visit(node: PhysicalOperator, want_batch: bool) -> PhysicalOperator:
        if isinstance(node, IndexNestedLoopJoin):
            # The inner Scan is never executed — only the outer child may
            # need a boundary, and both the children tuple and the node's
            # ``outer`` reference must see it.
            outer = visit(node.outer, False)
            node.outer = outer
            node.children = (outer, node.inner)
            return bridge(node, False, want_batch)
        runs_columnar = node.op_name in COLUMNAR_KERNEL_OPS
        node.children = tuple(visit(child, runs_columnar) for child in node.children)
        return bridge(node, runs_columnar, want_batch)

    return visit(root, False)


# --------------------------------------------------------------------------- #
# Backend resolution
# --------------------------------------------------------------------------- #


def resolve_backend(
    engine: Any,
    spec: Optional[str] = None,
    workers: Optional[int] = None,
) -> EngineBackend:
    """Map a backend spec to a concrete :class:`EngineBackend`.

    ``spec`` is ``"row"``, ``"columnar"``, ``"sharded"`` or None (``"row"``).
    An already-constructed backend passes through unchanged.  ``"row"`` is
    the engine's own backend; ``"columnar"`` and ``"sharded"``
    (:data:`~repro.core.exec.backends.DATABASE_ONLY_BACKENDS`) run on a
    Database only and raise :class:`QueryError` on any other engine.
    ``workers`` sizes the sharded worker pool (None:
    ``shard.DEFAULT_WORKERS``).  The result depends on the arguments alone,
    never on the process environment: the backend kind and worker count key
    the plan cache.
    """
    if isinstance(spec, EngineBackend):
        return spec
    if spec is None:
        spec = "row"
    if spec not in BACKEND_SPECS:
        raise QueryError(f"unknown backend {spec!r}; expected one of {BACKEND_SPECS}")
    if spec == "row":
        return backend_for(engine)
    if spec == "columnar":
        return ColumnarBackend(engine)
    from .shard import DEFAULT_WORKERS, ShardedBackend

    return ShardedBackend(engine, DEFAULT_WORKERS if workers is None else workers)
