"""Join-order search: Selinger-style dynamic programming over σ/×/⋈ clusters.

PR 1's rewrite rules fuse a single ``σ_{A=B} ∘ ×`` pair into an equi-join,
but a ≥3-way join still executes in written order — and on a UWSDT a badly
ordered join materializes a quadratic intermediate *template*, copying
every placeholder component column once per partner tuple.  This module
picks the order instead:

1. :func:`extract_join_graph` flattens a maximal cluster of ``Select`` /
   ``Product`` / ``Join`` nodes into *leaves* (the non-cluster subtrees,
   e.g. renamed base relations or whole sub-queries) and *predicates*.
   Each predicate is assigned the bitmask of leaves it references:
   single-leaf conjuncts become leaf filters, equality atoms spanning two
   leaves become join graph edges, anything else is applied as soon as its
   leaves are joined.
2. :func:`enumerate_plan` runs bottom-up dynamic programming over subsets
   of leaves (``DPsub``), producing *bushy* plans; splits connected by a
   join edge are preferred, cartesian splits are considered only when a
   subset has no connected split.  Costing uses the shared per-operator
   steps of :mod:`~repro.core.planner.cost`; each predicate's selectivity
   is estimated *once* from the (filtered) leaf samples, so a subset's
   cardinality estimate is independent of the join order that produced it
   — the classical Selinger discipline that makes "keep one best plan per
   subset" exact for the enumerator's own cost metric (and the reason the
   ``DP ≤ every left-deep order`` property test is a theorem, not a
   hope).  Above :data:`GREEDY_THRESHOLD` leaves the ``3^n`` subset
   enumeration is replaced by a greedy cheapest-pair heuristic.
3. The winning tree is wrapped in a projection restoring the cluster's
   original output attribute order (a pure column permutation), so the
   reorder is invisible to everything downstream.

:func:`reorder_tree` walks a whole query top-down, reordering every
maximal cluster with at least :data:`MIN_REORDER_RELATIONS` leaves and
recursing into the leaves themselves — it is exposed to the planner as the
``ReorderJoins`` whole-tree rule of :mod:`~repro.core.planner.rules`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...relational.predicates import AttrAttr, Predicate, TruePredicate
from ..algebra.query import BaseRelation, Join, Product, Project, Query, Select
from .cost import (
    INDEX_JOIN_ENGINES,
    CostModel,
    Statistics,
    equality_join_selectivity,
    estimate_node,
    floored_predicate_selectivity,
    index_join_step,
    join_step,
    product_step,
    select_step,
)
from .rules import RewriteContext, conjunction, conjuncts
from .sampling import RelationSample

#: Reordering only pays off for ≥3 relations (2-way joins are already fused).
MIN_REORDER_RELATIONS = 3

#: Above this leaf count the exact ``3^n`` subset DP gives way to the greedy
#: cheapest-pair heuristic.
GREEDY_THRESHOLD = 8


@dataclass(frozen=True)
class PredicateEntry:
    """One cross-leaf conjunct of the cluster.

    ``mask`` is the bitmask of leaves the predicate references.  ``join``
    is set for equality atoms spanning exactly two leaves and records
    ``(left_leaf, left_attr, right_leaf, right_attr)``.
    """

    index: int
    mask: int
    predicate: Predicate
    join: Optional[Tuple[int, str, int, str]]


@dataclass
class JoinGraph:
    """A flattened σ/×/⋈ cluster: leaves, per-leaf filters, cross predicates."""

    leaves: List[Query]
    leaf_attributes: List[Tuple[str, ...]]
    filters: List[List[Predicate]]
    predicates: List[PredicateEntry]
    output_attributes: Tuple[str, ...]

    def replace_leaves(self, leaves: Sequence[Query]) -> "JoinGraph":
        """Same graph over rewritten leaves (attribute sets must be unchanged)."""
        return JoinGraph(
            list(leaves), self.leaf_attributes, self.filters, self.predicates,
            self.output_attributes,
        )


def _flatten(query: Query, leaves: List[Query], predicates: List[Predicate]) -> None:
    if isinstance(query, Product):
        _flatten(query.left, leaves, predicates)
        _flatten(query.right, leaves, predicates)
    elif isinstance(query, Join):
        _flatten(query.left, leaves, predicates)
        _flatten(query.right, leaves, predicates)
        predicates.append(AttrAttr(query.left_attr, "=", query.right_attr))
    elif isinstance(query, Select):
        predicates.extend(conjuncts(query.predicate))
        _flatten(query.child, leaves, predicates)
    else:
        leaves.append(query)


def extract_join_graph(query: Query, context: RewriteContext) -> Optional[JoinGraph]:
    """Flatten the cluster rooted at ``query``, or None when it cannot be
    reordered safely (unknown or overlapping leaf schemas, unplaceable
    predicates)."""
    if not isinstance(query, (Select, Product, Join)):
        return None
    leaves: List[Query] = []
    raw_predicates: List[Predicate] = []
    _flatten(query, leaves, raw_predicates)
    if len(leaves) < 2:
        return None

    leaf_attributes: List[Tuple[str, ...]] = []
    attribute_owner: Dict[str, int] = {}
    for index, leaf in enumerate(leaves):
        attributes = context.attributes_of(leaf)
        if attributes is None:
            return None
        for attribute in attributes:
            if attribute in attribute_owner:
                return None  # ambiguous columns: reordering could change semantics
            attribute_owner[attribute] = index
        leaf_attributes.append(attributes)

    filters: List[List[Predicate]] = [[] for _ in leaves]
    predicates: List[PredicateEntry] = []
    for predicate in raw_predicates:
        if isinstance(predicate, TruePredicate):
            continue
        referenced = predicate.attributes()
        if not referenced or any(a not in attribute_owner for a in referenced):
            return None
        mask = 0
        for attribute in referenced:
            mask |= 1 << attribute_owner[attribute]
        if _popcount(mask) == 1:
            filters[attribute_owner[referenced[0]]].append(predicate)
            continue
        join_spec: Optional[Tuple[int, str, int, str]] = None
        if (
            isinstance(predicate, AttrAttr)
            and predicate.op in ("=", "==")
            and attribute_owner[predicate.left] != attribute_owner[predicate.right]
        ):
            join_spec = (
                attribute_owner[predicate.left],
                predicate.left,
                attribute_owner[predicate.right],
                predicate.right,
            )
        predicates.append(PredicateEntry(len(predicates), mask, predicate, join_spec))

    output_attributes = tuple(a for attrs in leaf_attributes for a in attrs)
    return JoinGraph(leaves, leaf_attributes, filters, predicates, output_attributes)


# --------------------------------------------------------------------------- #
# Plan states and their combination
# --------------------------------------------------------------------------- #


@dataclass
class PlanState:
    """A candidate plan covering the leaves in ``mask``."""

    mask: int
    query: Query
    attributes: Tuple[str, ...]
    rows: float
    cost: float
    joined: bool = False  # the last combine applied at least one join edge


class _Costing:
    """Per-graph costing context: leaf states + fixed per-predicate selectivities.

    Selectivities are estimated once, from the *filtered* leaf samples, and
    never from intermediate plans — so a subset's estimated cardinality is
    the same whichever order built it (Bellman optimality for the DP).
    For the same reason the enumerator's metric applies cross-leaf
    predicates purely multiplicatively, *without* the placeholder-density
    bump ``estimate()`` uses for selections: the bump is not multiplicative
    across predicates, so which predicate becomes "the join" versus a
    residual select would otherwise make a subset's cardinality depend on
    the order that built it.
    """

    def __init__(self, graph: JoinGraph, statistics: Statistics) -> None:
        self.graph = graph
        self.statistics = statistics
        self.model: CostModel = statistics.cost_model()
        # Physical property of a leaf: a bare, unfiltered base relation on an
        # index-capable engine can serve as the *inner* of an index
        # nested-loop join (probing the engine's cached hash index), so the
        # DP costs joins against such leaves as min(hash, index-nested-loop).
        self.index_leaf_masks: set = set()
        if statistics.engine in INDEX_JOIN_ENGINES:
            for index, leaf in enumerate(graph.leaves):
                if isinstance(leaf, BaseRelation) and not graph.filters[index]:
                    self.index_leaf_masks.add(1 << index)
        self.leaf_states: List[PlanState] = []
        leaf_samples: List[Optional[RelationSample]] = []
        for index, leaf in enumerate(graph.leaves):
            if graph.filters[index]:
                leaf = Select(leaf, conjunction(graph.filters[index]))
            node = estimate_node(leaf, statistics, self.model)
            leaf_samples.append(node.sample)
            self.leaf_states.append(
                PlanState(
                    mask=1 << index,
                    query=leaf,
                    attributes=graph.leaf_attributes[index],
                    rows=node.rows,
                    cost=node.cost,
                )
            )
        self.selectivities: Dict[int, float] = {}
        for entry in graph.predicates:
            if entry.join is not None:
                leaf_l, attr_l, leaf_r, attr_r = entry.join
                self.selectivities[entry.index] = equality_join_selectivity(
                    leaf_samples[leaf_l], attr_l, leaf_samples[leaf_r], attr_r
                )
            else:
                self.selectivities[entry.index] = floored_predicate_selectivity(entry.predicate)

    def combine(self, left: PlanState, right: PlanState) -> PlanState:
        """Join (or cross) two disjoint plan states, applying every predicate
        that becomes available, with the shared cost steps of ``cost.py``."""
        mask = left.mask | right.mask
        applicable = [
            entry
            for entry in self.graph.predicates
            if entry.mask & left.mask and entry.mask & right.mask and not entry.mask & ~mask
        ]
        attributes = left.attributes + right.attributes
        cost = left.cost + right.cost

        join_edges = [entry for entry in applicable if entry.join is not None]
        if join_edges:
            # The most selective edge becomes the join condition (fewest
            # emits); ties break on predicate index for determinism.
            chosen = min(join_edges, key=lambda e: (self.selectivities[e.index], e.index))
            leaf_l, attr_l, leaf_r, attr_r = chosen.join
            if (1 << leaf_l) & left.mask:
                left_attr, right_attr = attr_l, attr_r
            else:
                left_attr, right_attr = attr_r, attr_l
            selectivity = self.selectivities[chosen.index]
            out_arity = len(attributes)
            rows, added = join_step(left.rows, right.rows, selectivity, out_arity, self.model)
            query: Query = Join(left.query, right.query, left_attr, right_attr)
            # Physical alternatives: an index nested-loop join with the bare
            # base-relation side as the inner (either orientation — output
            # cardinality is identical, so subset estimates stay
            # order-independent; a swap only reorders columns, which the
            # final projection restores).
            if right.mask in self.index_leaf_masks:
                _, inlj_cost = index_join_step(
                    left.rows, right.rows, selectivity, out_arity, self.model
                )
                if inlj_cost < added:
                    added = inlj_cost
            if left.mask in self.index_leaf_masks:
                _, inlj_cost = index_join_step(
                    right.rows, left.rows, selectivity, out_arity, self.model
                )
                if inlj_cost < added:
                    added = inlj_cost
                    query = Join(right.query, left.query, right_attr, left_attr)
                    attributes = right.attributes + left.attributes
            remaining = [entry for entry in applicable if entry is not chosen]
            joined = True
        else:
            out_arity = len(attributes)
            rows, added = product_step(left.rows, right.rows, out_arity, self.model)
            query = Product(left.query, right.query)
            remaining = applicable
            joined = False

        cost += added
        if remaining:
            selectivity = 1.0
            for entry in remaining:
                selectivity *= self.selectivities[entry.index]
            # Density bump deliberately omitted (see class docstring): the
            # metric must stay multiplicative for order-independence.
            rows, select_cost = select_step(rows, selectivity, 0.0, self.model)
            cost += select_cost
            query = Select(query, conjunction([entry.predicate for entry in remaining]))

        return PlanState(mask, query, attributes, rows, cost, joined)


# --------------------------------------------------------------------------- #
# Enumeration: exact subset DP, greedy fallback
# --------------------------------------------------------------------------- #


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _dp_enumerate(costing: _Costing) -> PlanState:
    best: Dict[int, PlanState] = {state.mask: state for state in costing.leaf_states}
    full = (1 << len(costing.leaf_states)) - 1
    masks = sorted(
        (m for m in range(3, full + 1) if _popcount(m) >= 2), key=_popcount
    )
    for mask in masks:
        lowest = mask & -mask
        # Every split is considered, cartesian ones included: a plan ending in
        # a pure product above two well-filtered sides can be the optimum, and
        # with order-independent costing each combine is cheap enough that the
        # classical "connected splits only" pruning buys nothing.
        sub = (mask - 1) & mask
        while sub:
            if sub & lowest:
                other = mask ^ sub
                candidate = costing.combine(best[sub], best[other])
                current = best.get(mask)
                if current is None or candidate.cost < current.cost:
                    best[mask] = candidate
            sub = (sub - 1) & mask
    return best[full]


def _greedy_enumerate(costing: _Costing) -> PlanState:
    current = list(costing.leaf_states)
    while len(current) > 1:
        best_pair: Optional[Tuple[int, int]] = None
        best_state: Optional[PlanState] = None
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                candidate = costing.combine(current[i], current[j])
                # Never pick a cartesian pair while a joinable pair exists.
                if best_state is not None and best_state.joined and not candidate.joined:
                    continue
                if (
                    best_state is None
                    or (candidate.joined and not best_state.joined)
                    or candidate.cost < best_state.cost
                ):
                    best_pair = (i, j)
                    best_state = candidate
        i, j = best_pair
        current = [s for k, s in enumerate(current) if k not in (i, j)]
        current.append(best_state)
    return current[0]


def enumerate_plan(graph: JoinGraph, statistics: Statistics) -> Query:
    """The cheapest join order for ``graph`` (output columns order-preserved)."""
    best = enumerate_plan_state(graph, statistics)
    query = best.query
    if best.attributes != graph.output_attributes:
        query = Project(query, graph.output_attributes)
    return query


def enumerate_plan_state(graph: JoinGraph, statistics: Statistics) -> PlanState:
    """The winning :class:`PlanState` (exposed for the property tests)."""
    costing = _Costing(graph, statistics)
    if len(costing.leaf_states) > GREEDY_THRESHOLD:
        return _greedy_enumerate(costing)
    return _dp_enumerate(costing)


def forced_order_state(
    graph: JoinGraph, statistics: Statistics, order: Sequence[int]
) -> PlanState:
    """The left-deep plan joining the leaves in exactly ``order``.

    Costed with the same per-subset discipline as the enumerator — the
    property tests compare the DP winner against every such forced order.
    """
    costing = _Costing(graph, statistics)
    state = costing.leaf_states[order[0]]
    for index in order[1:]:
        state = costing.combine(state, costing.leaf_states[index])
    return state


# --------------------------------------------------------------------------- #
# Whole-tree driver (the ReorderJoins rule)
# --------------------------------------------------------------------------- #


def reorder_tree(query: Query, context: RewriteContext) -> Optional[Query]:
    """Reorder every maximal ≥3-leaf cluster of ``query``; None if unchanged."""
    if isinstance(query, (Select, Product, Join)):
        graph = extract_join_graph(query, context)
        if graph is not None and len(graph.leaves) >= MIN_REORDER_RELATIONS:
            rewritten_leaves: List[Query] = []
            leaves_changed = False
            for leaf in graph.leaves:
                rewritten = reorder_tree(leaf, context)
                rewritten_leaves.append(rewritten if rewritten is not None else leaf)
                leaves_changed = leaves_changed or rewritten is not None
            if leaves_changed:
                graph = graph.replace_leaves(rewritten_leaves)
            best = enumerate_plan(graph, context.statistics)
            if repr(best) != repr(query):
                return best
            return None
    children = query.children()
    if not children:
        return None
    rewritten_children = tuple(reorder_tree(child, context) for child in children)
    if all(child is None for child in rewritten_children):
        return None
    return query.with_children(
        tuple(
            rewritten if rewritten is not None else original
            for rewritten, original in zip(rewritten_children, children)
        )
    )
