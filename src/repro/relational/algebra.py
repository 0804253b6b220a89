"""Classical relational algebra on in-memory relations.

These operators are the "single world" semantics that the paper's WSD
operators must agree with on every possible world (Theorem 1).  They are
used in three places:

* as the substrate for evaluating template-relation plans in UWSDT query
  processing (Section 5),
* as the correctness oracle in tests: the naive baseline enumerates every
  world, evaluates the query with these operators, and compares against
  the WSD-level evaluation,
* as the one-world / 0 %-density baseline in the Figure 30 benchmarks.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import filterfalse
from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from .errors import SchemaError
from .indexes import HashIndex
from .predicates import Predicate, index_equalities
from .relation import Relation, Row, project_rows, require_same_attributes
from .schema import RelationSchema

# Every operator collects its result rows in a list and builds the relation
# with one ``Relation.from_tuples``.  ``distinct=True`` is passed exactly where
# the output is a set whenever the inputs are — a subset of one input (σ, −,
# ∩, ρ) or the concatenation of one row from each (×, ⋈); π and ∪ can create
# duplicates and leave the pass on.


def select(
    relation: Relation,
    predicate: Predicate,
    name: Optional[str] = None,
    index: Optional[HashIndex] = None,
) -> Relation:
    """Selection ``σ_pred(R)``: keep the rows satisfying ``predicate``.

    When a :class:`~repro.relational.indexes.HashIndex` of ``relation`` over
    one attribute ``A`` is supplied and ``predicate`` is an equality ``A = c``
    or a conjunction with one (the first such conjunct is the key), only the
    index's bucket under ``c`` is read: a bare equality adopts the bucket,
    a conjunction runs its compiled scan over the bucket alone.
    """
    schema = relation.schema.renamed(name or relation.schema.name)
    rows: Iterable[Row] = relation
    if index is not None and index.relation is relation:
        key = next(
            (part for part in index_equalities(predicate) if index.attributes == (part.attribute,)),
            None,
        )
        if key is predicate:
            # ``lookup`` returns a fresh copy of the bucket: adopted as is.
            return Relation.from_tuples(schema, index.lookup(key.constant), distinct=True)
        if key is not None:
            rows = index.bucket(key.constant)
    scan = predicate.compile_scan(relation.schema)
    return Relation.from_tuples(schema, scan(rows), distinct=True)


def project(relation: Relation, attributes: Sequence[str], name: Optional[str] = None) -> Relation:
    """Projection ``π_U(R)`` with set semantics (duplicates removed)."""
    schema = relation.schema.project(attributes, name or relation.schema.name)
    positions = relation.schema.positions(attributes)
    return Relation.from_tuples(schema, list(project_rows(relation, positions)))


def product(left: Relation, right: Relation, name: Optional[str] = None) -> Relation:
    """Cartesian product ``R × S``; attribute sets must be disjoint."""
    schema = left.schema.concat(right.schema, name)
    rows = [lrow + rrow for lrow in left for rrow in right]
    return Relation.from_tuples(schema, rows, distinct=True)


def union(left: Relation, right: Relation, name: Optional[str] = None) -> Relation:
    """Union ``R ∪ S`` of union-compatible relations."""
    require_same_attributes(left, right, "union")
    schema = left.schema.renamed(name or left.schema.name)
    return Relation.from_tuples(schema, [*left, *right])


def difference(left: Relation, right: Relation, name: Optional[str] = None) -> Relation:
    """Difference ``R − S`` of union-compatible relations."""
    require_same_attributes(left, right, "difference")
    schema = left.schema.renamed(name or left.schema.name)
    rows = list(filterfalse(right.row_set().__contains__, left))
    return Relation.from_tuples(schema, rows, distinct=True)


def intersection(left: Relation, right: Relation, name: Optional[str] = None) -> Relation:
    """Intersection ``R ∩ S`` (derived operator)."""
    require_same_attributes(left, right, "intersection")
    schema = left.schema.renamed(name or left.schema.name)
    rows = list(filter(right.row_set().__contains__, left))
    return Relation.from_tuples(schema, rows, distinct=True)


def rename(relation: Relation, old: str, new: str, name: Optional[str] = None) -> Relation:
    """Attribute renaming ``δ_{A→A'}(R)``."""
    schema = relation.schema.rename_attribute(old, new, name or relation.schema.name)
    # A copy of the list: two relations never share one list object.
    return Relation.from_tuples(schema, list(relation), distinct=True)


def rename_relation(relation: Relation, name: str) -> Relation:
    """Return the same rows under a new relation name."""
    return relation.copy(name)


def natural_join(left: Relation, right: Relation, name: Optional[str] = None) -> Relation:
    """Natural join on the shared attributes of ``left`` and ``right``.

    Provided as a convenience for examples and the application scenarios;
    the paper expresses joins as product + selection + projection.
    """
    shared = [a for a in left.schema.attributes if right.schema.has_attribute(a)]
    right_only = [a for a in right.schema.attributes if a not in shared]
    schema = RelationSchema(
        name or f"{left.schema.name}_join_{right.schema.name}",
        tuple(left.schema.attributes) + tuple(right_only),
    )
    # Right rows agreeing on the shared attributes differ on the others, so
    # the output is a set whenever both inputs are.
    index: Dict[Row, list] = defaultdict(list)
    right_only_rows = project_rows(right, right.schema.positions(right_only))
    for key, rest in zip(project_rows(right, right.schema.positions(shared)), right_only_rows):
        index[key].append(rest)
    rows = [
        lrow + rest
        for lrow, key in zip(left, project_rows(left, left.schema.positions(shared)))
        for rest in index.get(key, ())
    ]
    return Relation.from_tuples(schema, rows, distinct=True)


def equi_join(
    left: Relation,
    right: Relation,
    left_attr: str,
    right_attr: str,
    name: Optional[str] = None,
    index: Optional[HashIndex] = None,
) -> Relation:
    """Equi-join ``R ⋈_{A=B} S`` implemented with a hash join.

    Attribute sets must be disjoint (use :func:`rename` first otherwise).
    When a :class:`~repro.relational.indexes.HashIndex` of ``right`` over
    ``B`` is supplied, it is the index nested-loop join: each left row reads
    the index's bucket under its ``A`` value, and no hash table is built.
    """
    schema = left.schema.concat(right.schema, name)
    left_pos = left.schema.position(left_attr)
    if index is not None and index.relation is right and index.attributes == (right_attr,):
        rows = [lrow + rrow for lrow in left for rrow in index.bucket(lrow[left_pos])]
    else:
        right_pos = right.schema.position(right_attr)
        table: Dict[Any, list] = defaultdict(list)
        for rrow in right:
            table[rrow[right_pos]].append(rrow)
        rows = [lrow + rrow for lrow in left for rrow in table.get(lrow[left_pos], ())]
    return Relation.from_tuples(schema, rows, distinct=True)


def group_count(relation: Relation, attributes: Sequence[str], count_as: str = "count") -> Relation:
    """Group by ``attributes`` and count rows per group (used by the bench harness)."""
    if count_as in attributes:
        raise SchemaError(f"count column {count_as!r} clashes with a grouping attribute")
    counts = Counter(project_rows(relation, relation.schema.positions(attributes)))
    schema = RelationSchema(relation.schema.name, tuple(attributes) + (count_as,))
    rows = [key + (count,) for key, count in counts.items()]
    return Relation.from_tuples(schema, rows, distinct=True)


def aggregate(
    relation: Relation,
    attribute: str,
    function: Callable[[Iterable[Any]], Any],
) -> Any:
    """Apply an aggregate ``function`` to one column (e.g. ``sum``, ``max``)."""
    return function(relation.column(attribute))
