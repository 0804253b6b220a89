"""Rewrite rules over :class:`~repro.core.algebra.query.Query` ASTs.

Every rule is a semantics-preserving logical rewrite: it holds world-by-world
in classical relational algebra, and therefore — by the compositionality of
the paper's ``Q̂`` rewriting (Theorem 1) — also on the represented world-set
when the plan is evaluated on a UWSDT.  The rules implemented here are the
classical ones that matter most for the representation engine:

* **selection pushdown** — σ moves below ×, ⋈, ∪, −, π and δ so that the
  per-tuple component machinery of Figure 16 runs on as few tuples as
  possible;
* **join fusion** — ``σ_{A=B}(L × R)`` becomes the native ``equi_join``
  operator, avoiding materializing the quadratic product template that
  Section 5 is designed to avoid;
* **projection pushdown** — π moves below ×, ⋈ and ∪ to shrink the width of
  intermediate templates;
* **rename elimination** — identity and mutually-cancelling δ chains are
  removed (each δ on a UWSDT copies its template and every placeholder
  field it touches).

Rules are pure functions ``apply(query, context) -> Optional[Query]``
returning the rewritten node, or ``None`` when the rule does not apply.
The :mod:`~repro.core.planner.planner` module drives them to a fixpoint.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ...relational.predicates import (
    And,
    AttrAttr,
    AttrConst,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from ..algebra.query import (
    BaseRelation,
    Difference,
    Intersection,
    Join,
    Product,
    Project,
    Query,
    Rename,
    Select,
    Union,
)
from ..algebra.schema import SchemaContext, output_schema
from .cost import Statistics


class RewriteContext:
    """Everything a rule may consult: the statistics catalog (for schemas)."""

    def __init__(self, statistics: Optional[Statistics] = None) -> None:
        self.statistics = statistics or Statistics()
        #: The base relations' attribute lists, without types: rules and the
        #: rewrite verifier read names only, and a typed derivation is not
        #: stable under rewriting — a selection pushed into one input of a
        #: set operation meets that input's narrower column type.  Types are
        #: ``plan()``'s up-front check.
        self.schema = SchemaContext(self.statistics.attributes)

    def attributes_of(self, query: Query) -> Optional[Tuple[str, ...]]:
        """Output attributes of a subquery, or None if a base schema is unknown."""
        schema = output_schema(query, self.schema)
        return None if schema is None else schema.attributes


# --------------------------------------------------------------------------- #
# Predicate helpers
# --------------------------------------------------------------------------- #


def substitute_attributes(predicate: Predicate, mapping: Dict[str, str]) -> Predicate:
    """Rebuild ``predicate`` with attribute names substituted via ``mapping``."""
    if isinstance(predicate, AttrConst):
        return AttrConst(mapping.get(predicate.attribute, predicate.attribute),
                         predicate.op, predicate.constant)
    if isinstance(predicate, AttrAttr):
        return AttrAttr(mapping.get(predicate.left, predicate.left), predicate.op,
                        mapping.get(predicate.right, predicate.right))
    if isinstance(predicate, And):
        return And(*(substitute_attributes(p, mapping) for p in predicate.parts))
    if isinstance(predicate, Or):
        return Or(*(substitute_attributes(p, mapping) for p in predicate.parts))
    if isinstance(predicate, Not):
        return Not(substitute_attributes(predicate.inner, mapping))
    if isinstance(predicate, TruePredicate):
        return predicate
    raise TypeError(f"cannot substitute attributes in {predicate!r}")


def conjuncts(predicate: Predicate) -> Tuple[Predicate, ...]:
    """The top-level conjuncts of a predicate (itself, if not a conjunction)."""
    if isinstance(predicate, And):
        return predicate.parts
    return (predicate,)


def conjunction(parts: Sequence[Predicate]) -> Predicate:
    """Re-assemble conjuncts into a predicate."""
    if not parts:
        return TruePredicate()
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


def _references_only(predicate: Predicate, attributes: Sequence[str]) -> bool:
    allowed = set(attributes)
    referenced = predicate.attributes()
    return bool(referenced) and all(a in allowed for a in referenced)


# --------------------------------------------------------------------------- #
# Rules
# --------------------------------------------------------------------------- #


class RewriteRule:
    """Base class: a named, single-node rewrite.

    Rules with ``whole_tree = True`` are applied once to the entire query
    tree by the planner (not driven bottom-up to a fixpoint) — used for
    global transformations such as join-order search.
    """

    name = "rewrite"
    whole_tree = False

    def apply(self, query: Query, context: RewriteContext) -> Optional[Query]:
        raise NotImplementedError


class EliminateTrueSelect(RewriteRule):
    """``σ_TRUE(x) → x``."""

    name = "eliminate-true-select"

    def apply(self, query: Query, context: RewriteContext) -> Optional[Query]:
        if isinstance(query, Select) and isinstance(query.predicate, TruePredicate):
            return query.child
        return None


class MergeSelects(RewriteRule):
    """``σ_p(σ_q(x)) → σ_{q ∧ p}(x)`` — canonical form before pushdown."""

    name = "merge-selects"

    def apply(self, query: Query, context: RewriteContext) -> Optional[Query]:
        if isinstance(query, Select) and isinstance(query.child, Select):
            inner = query.child
            return Select(inner.child, And(inner.predicate, query.predicate))
        return None


class PushSelectDown(RewriteRule):
    """Push a selection below the operator it sits on, conjunct by conjunct.

    * ``σ_p(L × R)`` / ``σ_p(L ⋈ R)`` — conjuncts referencing only one side
      move onto that side;
    * ``σ_p(L ∪ R) → σ_p(L) ∪ σ_p(R)``;
    * ``σ_p(L ∩ R) → σ_p(L) ∩ σ_p(R)``;
    * ``σ_p(L − R) → σ_p(L) − R``  (a row survives − iff it is in L and not
      in R; the filter only constrains the left side);
    * ``σ_p(π_U(x)) → π_U(σ_p(x))``  (p references attributes of U only);
    * ``σ_p(δ_{a→b}(x)) → δ_{a→b}(σ_{p[b→a]}(x))``.
    """

    name = "push-select-down"

    def apply(self, query: Query, context: RewriteContext) -> Optional[Query]:
        if not isinstance(query, Select):
            return None
        child = query.child
        predicate = query.predicate
        if isinstance(child, Project):
            return Project(Select(child.child, predicate), child.attributes)
        if isinstance(child, Rename):
            pushed = substitute_attributes(predicate, {child.new: child.old})
            return Rename(Select(child.child, pushed), child.old, child.new)
        if isinstance(child, Union):
            return Union(Select(child.left, predicate), Select(child.right, predicate))
        if isinstance(child, Intersection):
            return Intersection(Select(child.left, predicate), Select(child.right, predicate))
        if isinstance(child, Difference):
            return Difference(Select(child.left, predicate), child.right)
        if isinstance(child, (Product, Join)):
            left_attrs = context.attributes_of(child.left)
            right_attrs = context.attributes_of(child.right)
            if left_attrs is None or right_attrs is None:
                return None
            left_parts: List[Predicate] = []
            right_parts: List[Predicate] = []
            residual: List[Predicate] = []
            for part in conjuncts(predicate):
                if _references_only(part, left_attrs):
                    left_parts.append(part)
                elif _references_only(part, right_attrs):
                    right_parts.append(part)
                else:
                    residual.append(part)
            if not left_parts and not right_parts:
                return None
            left = Select(child.left, conjunction(left_parts)) if left_parts else child.left
            right = Select(child.right, conjunction(right_parts)) if right_parts else child.right
            if isinstance(child, Join):
                core: Query = Join(left, right, child.left_attr, child.right_attr)
            else:
                core = Product(left, right)
            if residual:
                return Select(core, conjunction(residual))
            return core
        return None


class FuseSelectIntoJoin(RewriteRule):
    """``σ_{A=B}(L × R) → L ⋈_{A=B} R`` — the Section 5 native join.

    Also handles a conjunction above the product: the first equality atom
    spanning both sides becomes the join condition, the remaining conjuncts
    stay as a selection above the join (where pushdown picks them up again).
    """

    name = "fuse-select-into-join"

    def apply(self, query: Query, context: RewriteContext) -> Optional[Query]:
        if not isinstance(query, Select) or not isinstance(query.child, Product):
            return None
        product = query.child
        left_attrs = context.attributes_of(product.left)
        right_attrs = context.attributes_of(product.right)
        if left_attrs is None or right_attrs is None:
            return None
        parts = list(conjuncts(query.predicate))
        for index, part in enumerate(parts):
            if not isinstance(part, AttrAttr) or part.op not in ("=", "=="):
                continue
            if part.left in left_attrs and part.right in right_attrs:
                join = Join(product.left, product.right, part.left, part.right)
            elif part.right in left_attrs and part.left in right_attrs:
                join = Join(product.left, product.right, part.right, part.left)
            else:
                continue
            rest = parts[:index] + parts[index + 1:]
            if rest:
                return Select(join, conjunction(rest))
            return join
        return None


class EliminateRename(RewriteRule):
    """Remove and collapse renames.

    * ``δ_{a→a}(x) → x``;
    * ``δ_{b→a}(δ_{a→b}(x)) → x``;
    * ``δ_{b→c}(δ_{a→b}(x)) → δ_{a→c}(x)``  when ``b`` is not an attribute
      of ``x`` (the intermediate name is invisible).
    """

    name = "eliminate-rename"

    def apply(self, query: Query, context: RewriteContext) -> Optional[Query]:
        if not isinstance(query, Rename):
            return None
        if query.old == query.new:
            return query.child
        inner = query.child
        if isinstance(inner, Rename) and inner.new == query.old:
            if query.new == inner.old:
                return inner.child
            attrs = context.attributes_of(inner.child)
            if attrs is not None and query.old not in attrs:
                return Rename(inner.child, inner.old, query.new)
        return None


class PushProjectDown(RewriteRule):
    """Push projections below ×, ⋈, ∪ and δ; collapse stacked projections.

    Valid under set semantics: ``π_U(L × R) = π_U(π_Ul(L) × π_Ur(R))`` where
    ``Ul``/``Ur`` are the kept attributes of each side (join attributes are
    retained on their side and projected away above if not requested).
    """

    name = "push-project-down"

    def apply(self, query: Query, context: RewriteContext) -> Optional[Query]:
        if not isinstance(query, Project):
            return None
        child = query.child
        kept = query.attributes
        child_attrs = context.attributes_of(child)
        if child_attrs is not None and kept == child_attrs:
            return child
        if isinstance(child, Project):
            return Project(child.child, kept)
        if isinstance(child, Union):
            return Union(Project(child.left, kept), Project(child.right, kept))
        if isinstance(child, Rename):
            if child.new in kept:
                inner_kept = tuple(child.old if a == child.new else a for a in kept)
                return Rename(Project(child.child, inner_kept), child.old, child.new)
            return Project(child.child, kept)
        if isinstance(child, (Product, Join)):
            left_attrs = context.attributes_of(child.left)
            right_attrs = context.attributes_of(child.right)
            if left_attrs is None or right_attrs is None:
                return None
            left_kept = [a for a in left_attrs if a in kept]
            right_kept = [a for a in right_attrs if a in kept]
            if isinstance(child, Join):
                if child.left_attr not in left_kept:
                    left_kept.append(child.left_attr)
                if child.right_attr not in right_kept:
                    right_kept.append(child.right_attr)
            if not left_kept or not right_kept:
                return None
            if len(left_kept) + len(right_kept) >= len(left_attrs) + len(right_attrs):
                return None
            left = Project(child.left, left_kept)
            right = Project(child.right, right_kept)
            if isinstance(child, Join):
                core: Query = Join(left, right, child.left_attr, child.right_attr)
            else:
                core = Product(left, right)
            if tuple(left_kept) + tuple(right_kept) == tuple(kept):
                return core
            return Project(core, kept)
        return None


class ReorderJoins(RewriteRule):
    """Join-order search over σ/×/⋈ clusters (a whole-tree rule).

    Flattens every maximal cluster of selections, products and joins with at
    least three leaf relations into a join graph and re-assembles it in the
    cheapest order found by dynamic programming over leaf subsets (greedy
    above ~8 leaves), using sampled selectivities — see
    :mod:`~repro.core.planner.joins`.
    """

    name = "reorder-joins"
    whole_tree = True

    def apply(self, query: Query, context: RewriteContext) -> Optional[Query]:
        from ...obs.trace import get_tracer
        from .joins import reorder_tree

        with get_tracer().span("join-dp"):
            return reorder_tree(query, context)


#: The default rule pipeline: each phase is run to a fixpoint in order
#: (whole-tree rules such as join reordering are applied once per phase).
DEFAULT_PHASES: Tuple[Tuple[str, Tuple[RewriteRule, ...]], ...] = (
    ("normalize", (EliminateTrueSelect(), MergeSelects(), EliminateRename())),
    ("fuse-joins", (FuseSelectIntoJoin(),)),
    ("push-selections", (MergeSelects(), PushSelectDown(), FuseSelectIntoJoin(), EliminateTrueSelect())),
    ("reorder-joins", (ReorderJoins(),)),
    ("push-projections", (PushProjectDown(),)),
    ("cleanup", (EliminateRename(), EliminateTrueSelect())),
)
