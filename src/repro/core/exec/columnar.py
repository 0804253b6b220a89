"""Columnar vectorized execution over certain (placeholder-free) subtrees.

A :class:`ColumnBatch` presents the rows of a Database relation or a UWSDT
template as shared per-attribute columns plus a selection vector, with a
row-id column carrying provenance (Database row positions, UWSDT template
tuple ids).  The columns of a *stored* relation live in the engine's
:class:`~repro.relational.indexes.IndexPool`, validated by the relation's
version like its hash indexes and transposed one attribute at a time when
first read.  Vectorized kernels implement Filter / Project / Rename /
HashJoin / Union / Difference / Intersection over batches without
per-operator ``Relation`` construction and without copying a value before
a join or the region's exit needs it; relations stay sets inside the
region (Project and Union collapse the duplicates they create).

:class:`ColumnarBackend` wraps the engine's row backend
(:class:`~repro.core.exec.backends.DatabaseBackend` or
:class:`~repro.core.exec.backends.UWSDTBackend`) and adds two boundary
operators, mirroring the Transfer-marker idea:

* ``materialize``  — row handle → batch (the vectorized scan).  On a UWSDT
  the template's tid column becomes the row ids; if the relation turns out
  to carry placeholders *at execution time* (the plan may be cached from
  before an update) it passes the row handle through unchanged and the
  downstream kernels transparently delegate to the row backend.
* ``dematerialize`` — batch → row handle.  On a Database this registers a
  :class:`~repro.relational.relation.Relation`; on a UWSDT it adds a
  certain template relation, one tuple per distinct batch row under its
  batch row id.

:func:`insert_columnar_boundaries` is the lowering pass that decides where
the boundaries go: an operator runs columnar exactly when it has a kernel
and every base relation under it is certain.  Everything else — Product,
IndexNestedLoopJoin, any subtree touching a placeholder-bearing template —
runs row-at-a-time, and mixed plans stitch the two regions together with
explicit ``Materialize`` / ``Dematerialize`` nodes.

:func:`resolve_backend` maps the user-facing backend spec (``"row"`` /
``"columnar"`` / ``"sharded"``; None is ``"row"``) to a concrete backend.
"""

from __future__ import annotations

import functools
from itertools import compress, repeat
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ...relational.errors import QueryError
from ...relational.indexes import Column, ColumnStore
from ...relational.relation import Relation
from ...relational.schema import RelationSchema
from ...relational.predicates import Predicate
from ...relational.values import PLACEHOLDER
from .backends import DatabaseBackend, EngineBackend, backend_for, index_pool_for
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
    ``columns`` / ``to_rows`` / ``row_ids`` / ``placeholder_masks`` are the
    *selected* view — raw values, including the ``?`` sentinel, so
    ``from_rows`` → ``to_rows`` is exact.  Row ids carry provenance: base
    positions for Database relations (``ids`` None), the template's tid
    column for UWSDTs, kernel-composed pairs downstream.
    """

    __slots__ = ("attributes", "base", "size", "selection", "ids")

    def __init__(
        self,
        attributes: Sequence[str],
        base: Sequence[Column],
        size: int,
        selection: Optional[List[int]] = None,
        ids: Optional[Column] = None,
    ) -> None:
        self.attributes = tuple(attributes)
        self.base = tuple(base)
        self.size = size
        self.selection = selection
        self.ids = ids

    @classmethod
    def from_rows(
        cls,
        attributes: Sequence[str],
        rows: Sequence[Tuple[Any, ...]],
        row_ids: Optional[List[Any]] = None,
    ) -> "ColumnBatch":
        store = ColumnStore(rows, len(attributes))
        ids = None if row_ids is None else Column(row_ids.copy)
        return cls(attributes, store.columns, store.size, None, ids)

    def positions(self) -> Sequence[int]:
        """The base position of every row of the batch."""
        return range(self.size) if self.selection is None else self.selection

    def base_ids(self) -> Sequence[Any]:
        return range(self.size) if self.ids is None else self.ids.values

    def values(self, attribute: str) -> Sequence[Any]:
        """One attribute's values over the selected rows."""
        return _take(self.base[self.position(attribute)].values, self.selection)

    @property
    def columns(self) -> Tuple[Sequence[Any], ...]:
        """Per-attribute values of the selected rows (read-only: without a
        selection these are the shared base lists themselves)."""
        return tuple(_take(column.values, self.selection) for column in self.base)

    @property
    def row_ids(self) -> List[Any]:
        return list(_take(self.base_ids(), self.selection))

    @property
    def placeholder_masks(self) -> Tuple[List[bool], ...]:
        return tuple([value is PLACEHOLDER for value in column] for column in self.columns)

    def to_rows(self) -> List[Tuple[Any, ...]]:
        """Rows in batch order, duplicates and placeholders preserved."""
        if not self.base:
            return [() for _ in self.positions()]
        return list(zip(*self.columns))

    def __len__(self) -> int:
        return len(self.positions())

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def placeholder_count(self) -> int:
        return sum(sum(mask) for mask in self.placeholder_masks)

    def has_placeholders(self) -> bool:
        return any(PLACEHOLDER in column for column in self.columns)

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
        return ColumnBatch(self.attributes, self.base, self.size, selection, self.ids)

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
    return ColumnBatch(batch.attributes, batch.base, batch.size, selection, batch.ids)


def _distinct(batch: ColumnBatch) -> ColumnBatch:
    """The batch without duplicate rows; first occurrence (and id) wins."""
    rows = batch.to_rows()
    first = dict(zip(reversed(rows), range(len(rows) - 1, -1, -1)))
    return batch if len(first) == len(rows) else batch.gather(sorted(first.values()))


def project_batch(batch: ColumnBatch, attributes: Sequence[str]) -> ColumnBatch:
    """π_U: reorder/drop columns; relations are sets, so a projection that
    drops a column collapses the duplicates it creates."""
    positions = [batch.position(a) for a in attributes]
    projected = ColumnBatch(
        attributes, [batch.base[p] for p in positions], batch.size, batch.selection, batch.ids
    )
    return projected if len(set(positions)) == batch.arity else _distinct(projected)


def rename_batch(batch: ColumnBatch, old: str, new: str) -> ColumnBatch:
    """δ: relabel one column; the columns are shared, not copied."""
    batch.position(old)  # validate
    attributes = tuple(new if a == old else a for a in batch.attributes)
    return ColumnBatch(attributes, batch.base, batch.size, batch.selection, batch.ids)


def union_batch(left: ColumnBatch, right: ColumnBatch) -> ColumnBatch:
    """∪ as deduplicated column concatenation; side-tagged ids keep
    provenance distinct even for a union of a batch with itself."""
    _require_same_attributes("union", left, right)

    def concatenated(lc: Sequence[Any], rc: Sequence[Any]) -> Column:
        return Column(lambda: [*lc, *rc])

    columns = [concatenated(lc, rc) for lc, rc in zip(left.columns, right.columns)]
    ids = Column(
        lambda: [(0, rid) for rid in left.row_ids] + [(1, rid) for rid in right.row_ids]
    )
    return _distinct(ColumnBatch(left.attributes, columns, len(left) + len(right), None, ids))


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
    when something downstream reads it.  Output ids are ``(left id, right
    id)`` pairs, matching the row backends' provenance convention.
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
    ids = Column(
        lambda: list(
            zip(_take(left.base_ids(), left_positions), _take(right.base_ids(), right_positions))
        )
    )
    return ColumnBatch(
        left.attributes + right.attributes, columns, len(left_positions), None, ids
    )


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
    """Vectorized execution wrapping the engine's row backend.

    Handles are *either* :class:`ColumnBatch` objects (inside a columnar
    region) or the inner backend's row handles (outside).  Every operator
    method is handle-polymorphic: batch inputs run the kernel, anything
    else delegates to the row backend — so a plan whose materialize
    boundary fell back at runtime (placeholders appeared after planning)
    still executes correctly, just row-at-a-time.
    """

    kind = "columnar"

    def __init__(self, engine: Any) -> None:
        super().__init__(engine)
        self.inner = inner = backend_for(engine)
        self.pool = index_pool_for(engine)
        self._scanned: Set[str] = set()
        self.supports_index_scan = inner.supports_index_scan
        self.supports_index_join = inner.supports_index_join
        self.native_intersection = inner.native_intersection

    # -- lifecycle --------------------------------------------------------- #

    def begin(self, result_name: str) -> None:
        self.inner.begin(result_name)

    def finish(self, handle, result_name: str):
        if isinstance(handle, ColumnBatch):
            handle = self.dematerialize(handle, result_name)
        if isinstance(handle, Relation) and handle.schema.name == result_name:
            if not self._stored(handle):
                # Built by the boundary under its final name and aliased by
                # nothing stored: the row backend's protective copy is waste.
                return handle
        return self.inner.finish(handle, result_name)

    def _stored(self, handle) -> bool:
        """True iff a row handle is a relation the engine stores rather than
        an intermediate result: only those use (and stay in) the engine's
        index pool, and only those need ``finish``'s protective copy."""
        if isinstance(self.inner, DatabaseBackend):
            name = handle.schema.name
            return self.engine.has_relation(name) and self.engine.relation(name) is handle
        return handle in self._scanned  # UWSDT intermediates are templates too

    # -- boundaries -------------------------------------------------------- #

    def certain_base(self, relation_name: str) -> bool:
        """True iff a stored relation is placeholder-free (kernel-eligible)."""
        if isinstance(self.inner, DatabaseBackend):
            return True
        return self.engine.relation_placeholder_count(relation_name) == 0

    def materialize(self, handle, result_name: Optional[str]):
        """Row handle → batch (the vectorized scan half of the boundary).

        The columns of a relation the engine stores come from (and stay in)
        the engine's index pool; an intermediate result gets a throwaway
        store — either way only the columns the region reads are ever
        transposed.
        """
        if isinstance(handle, ColumnBatch):
            return handle
        uwsdt = not isinstance(self.inner, DatabaseBackend)
        # UWSDT: the handle is a relation name.  A template that carries
        # placeholders (the engine may have changed since the plan was
        # lowered) stays a row handle; downstream operators delegate.
        # Lowering already kept uncertain subtrees in the row world, so this
        # fallback firing means a stale cached plan — counted so the drift
        # is observable.
        if uwsdt and self.engine.relation_placeholder_count(handle) != 0:
            from ...obs.metrics import get_registry

            get_registry().counter("repro.columnar.materialize_fallbacks").inc()
            return handle
        relation = self.engine.templates[handle] if uwsdt else handle
        attributes, arity = relation.schema.attributes, relation.schema.arity
        stored = self._stored(handle)
        store = self.pool.columns(relation) if stored else ColumnStore(relation.rows, arity)
        if uwsdt:  # the tid column is stored first and becomes the row ids
            return ColumnBatch(attributes[1:], store.columns[1:], store.size, None, store.columns[0])
        return ColumnBatch(attributes, store.columns, store.size)

    def dematerialize(self, handle, result_name: Optional[str]):
        """Batch → row handle the inner backend (and engine) understand."""
        if not isinstance(handle, ColumnBatch):
            # Runtime fallback passed a row handle straight through; honor
            # the result naming contract the row backends implement.
            if isinstance(self.inner, DatabaseBackend):
                return handle
            return self.inner.scan(handle, result_name)
        if handle.has_placeholders():
            raise QueryError(
                "cannot dematerialize a placeholder-bearing batch; columnar "
                "kernels only run over certain relations"
            )
        if isinstance(self.inner, DatabaseBackend):
            name = result_name if result_name is not None else "__columnar"
            # No ``distinct`` claim: a caller-built batch may be a bag.
            return Relation.from_tuples(RelationSchema(name, handle.attributes), handle.to_rows())
        target = self.inner.target(result_name)
        self.engine.add_relation(RelationSchema(target, handle.attributes))
        # Certain duplicates denote the same tuple: set semantics.
        distinct = _distinct(handle)
        rows = list(zip(distinct.row_ids, *distinct.columns))
        self.engine.load_template(target, rows, distinct=True)
        return target

    def _row_handle(self, handle):
        """Coerce a batch to an inner row handle (delegation path)."""
        if isinstance(handle, ColumnBatch):
            return self.dematerialize(handle, None)
        return handle

    # -- operators --------------------------------------------------------- #

    def scan(self, name: str, result_name: Optional[str]):
        handle = self.inner.scan(name, result_name)
        if isinstance(handle, str):
            self._scanned.add(handle)
        return handle

    def index_scan(self, name: str, predicate: Predicate, result_name):
        return self.inner.index_scan(name, predicate, result_name)

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

    A node runs columnar when it has a kernel and every base relation its
    subtree reads is certain; ``Materialize`` / ``Dematerialize`` nodes are
    inserted wherever the produced handle kind differs from what the parent
    consumes.  The root always hands a row handle to ``finish``.  Plans for
    row backends pass through untouched.
    """
    if not isinstance(backend, ColumnarBackend):
        return root
    # One engine query per relation.  The runtime materialize fallback is
    # only defense-in-depth against plans cached before an engine mutation.
    certain_base = functools.lru_cache(maxsize=None)(backend.certain_base)

    def subtree_certain(node: PhysicalOperator) -> bool:
        """Every base relation the subtree reads is certain; a node without
        recorded base relations (a hand-built plan) is not eligible."""
        names = node.base_relation_names
        return bool(names) and all(map(certain_base, names))

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
        runs_columnar = node.op_name in COLUMNAR_KERNEL_OPS and subtree_certain(node)
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
    An already-constructed backend passes through unchanged.  ``workers``
    sizes the sharded worker pool (None: ``shard.DEFAULT_WORKERS``).  The
    result depends on the arguments alone, never on the process
    environment: the backend kind and worker count key the plan cache.
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
