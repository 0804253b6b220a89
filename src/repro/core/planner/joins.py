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
   subset has no connected split.  This module is the *search* — which
   pairs, which edge becomes the join condition, which side is the inner;
   every candidate is priced by the node-level steps of
   :mod:`~repro.core.planner.cost`, the estimator ``estimate()`` and
   lowering read too.  It prices a predicate across leaves from the two
   (filtered) leaf samples, so a subset's cardinality is independent of the
   join order that produced it — the classical Selinger discipline that
   makes "keep one best plan per subset" exact, and the ``DP ≤ every
   left-deep order`` property test a theorem about ``estimate()``.  Above
   :data:`GREEDY_THRESHOLD` leaves the ``3^n`` subset enumeration is
   replaced by a greedy cheapest-pair heuristic.
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
    NodeEstimate,
    Statistics,
    estimate_forest,
    join_estimate,
    product_estimate,
    select_estimate,
)
from .rules import RewriteContext, conjunction, conjuncts

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
    """A candidate plan covering the leaves in ``mask``, priced by the estimator."""

    mask: int
    query: Query
    attributes: Tuple[str, ...]
    estimate: NodeEstimate
    joined: bool = False  # the last combine applied at least one join edge

    @property
    def rows(self) -> float:
        return self.estimate.rows

    @property
    def cost(self) -> float:
        return self.estimate.cost


class _Search:
    """Per-graph search context: the leaf states and how two states combine.

    It decides *which* candidates exist — which predicates a pair makes
    applicable, which edge becomes the join condition, which side is the
    inner — and builds their trees; every number is the estimator's
    (:mod:`~repro.core.planner.cost`), whose cardinalities do not depend on
    the order that built a subset (Bellman optimality for the DP).
    """

    def __init__(self, graph: JoinGraph, statistics: Statistics) -> None:
        self.graph = graph
        self.statistics = statistics
        self.model = statistics.cost_model()
        self.leaf_states: List[PlanState] = []
        for index, leaf in enumerate(graph.leaves):
            if graph.filters[index]:
                leaf = Select(leaf, conjunction(graph.filters[index]))
            estimate = estimate_forest(leaf, statistics, self.model)[leaf]
            self.leaf_states.append(
                PlanState(1 << index, leaf, graph.leaf_attributes[index], estimate)
            )

    def _join(self, left: PlanState, right: PlanState, edge: PredicateEntry) -> PlanState:
        leaf_l, left_attr, _leaf_r, right_attr = edge.join
        if not (1 << leaf_l) & left.mask:
            left_attr, right_attr = right_attr, left_attr
        estimate = join_estimate(
            left.estimate,
            right.estimate,
            left_attr,
            right_attr,
            isinstance(right.query, BaseRelation),
            self.statistics,
            self.model,
        )
        return PlanState(
            left.mask | right.mask,
            Join(left.query, right.query, left_attr, right_attr),
            left.attributes + right.attributes,
            estimate,
            joined=True,
        )

    def combine(self, left: PlanState, right: PlanState) -> PlanState:
        """Join (or cross) two disjoint plan states, applying every predicate
        that becomes available."""
        mask = left.mask | right.mask
        remaining = [
            entry
            for entry in self.graph.predicates
            if entry.mask & left.mask and entry.mask & right.mask and not entry.mask & ~mask
        ]
        join_edges = [entry for entry in remaining if entry.join is not None]
        if join_edges:
            # The most selective edge becomes the join condition (fewest
            # emits); ties break on predicate index for determinism.
            state, chosen = min(
                ((self._join(left, right, edge), edge) for edge in join_edges),
                key=lambda candidate: (candidate[0].rows, candidate[1].index),
            )
            # A bare base relation can be the inner of an index nested-loop
            # join: price that orientation too (same cardinality; the swap
            # only reorders columns, which the final projection restores).
            if isinstance(left.query, BaseRelation):
                swapped = self._join(right, left, chosen)
                if swapped.cost < state.cost:
                    state = swapped
            remaining.remove(chosen)
        else:
            state = PlanState(
                mask,
                Product(left.query, right.query),
                left.attributes + right.attributes,
                product_estimate(left.estimate, right.estimate, self.model),
            )
        if remaining:
            predicate = conjunction([entry.predicate for entry in remaining])
            state.query = Select(state.query, predicate)
            state.estimate = select_estimate(state.estimate, predicate, self.model)
        return state


# --------------------------------------------------------------------------- #
# Enumeration: exact subset DP, greedy fallback
# --------------------------------------------------------------------------- #


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _dp_enumerate(search: _Search) -> PlanState:
    best: Dict[int, PlanState] = {state.mask: state for state in search.leaf_states}
    full = (1 << len(search.leaf_states)) - 1
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
                candidate = search.combine(best[sub], best[other])
                current = best.get(mask)
                if current is None or candidate.cost < current.cost:
                    best[mask] = candidate
            sub = (sub - 1) & mask
    return best[full]


def _greedy_enumerate(search: _Search) -> PlanState:
    current = list(search.leaf_states)
    while len(current) > 1:
        best_pair: Optional[Tuple[int, int]] = None
        best_state: Optional[PlanState] = None
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                candidate = search.combine(current[i], current[j])
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
    search = _Search(graph, statistics)
    if len(search.leaf_states) > GREEDY_THRESHOLD:
        return _greedy_enumerate(search)
    return _dp_enumerate(search)


def forced_order_state(
    graph: JoinGraph, statistics: Statistics, order: Sequence[int]
) -> PlanState:
    """The left-deep plan joining the leaves in exactly ``order`` — the
    property tests compare the DP winner against every such forced order."""
    search = _Search(graph, statistics)
    state = search.leaf_states[order[0]]
    for index in order[1:]:
        state = search.combine(state, search.leaf_states[index])
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
            if best != query:
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
