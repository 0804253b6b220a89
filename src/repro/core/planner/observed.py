"""Observed-cardinality feedback: semantic keys and EWMA records.

PR 5 installed the runtime→planner feedback channel
(:meth:`~repro.core.planner.catalog.StatisticsCatalog.record_actual`) but
keyed observations by the *physical operator label* — a rendering no
planner code path could ever look up again, because the next planning pass
works on logical trees whose shapes (and labels) depend on the very join
order the feedback is supposed to correct.  This module fixes the keying:

* :func:`cardinality_key` canonicalizes a σ/×/⋈ subtree into an
  order-independent string — the sorted leaf identities plus the sorted
  canonical predicates applied in the subtree.  Two subtrees that join the
  same relations under the same predicates get the same key *whatever
  order* built them, which is exactly the Selinger discipline the
  join-order DP already relies on for its own cardinality estimates.  An
  executed ``HashJoin(R⋈S)`` therefore records its actual output rows
  under the same key the DP computes for the ``{R, S}`` subset next time —
  the lookup that closes the loop.
* :class:`ObservedCardinality` is the per-key record: EWMAs of the actual
  *and* the estimated output rows (both blended with the same weight, so
  error metrics compare like with like), the observation count, and a
  snapshot of the version keys of every base relation the subtree touches
  (observations go stale the moment any of those relations mutates).

Consumption lives in :mod:`~repro.core.planner.cost` (``Statistics``
prefers a sufficiently observed EWMA over the sampled estimate) and in
:mod:`~repro.core.planner.joins` (the DP overrides subset cardinalities).
Projections deliberately bound the keyed region: π can shrink a set-
semantics result, so a subtree containing a projection is keyed as an
opaque leaf rather than folded into the surrounding join cluster —
feedback through a projection is merely *missed*, never misattributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from ...relational.predicates import And, AttrAttr, Predicate, TruePredicate
from ..algebra.query import Join, Product, Query, Select

#: Observations below this count are ignored by the planner: one noisy
#: execution must not override a sampled estimate.
OBSERVED_MIN_COUNT = 2

#: Default EWMA weight of one observation.
OBSERVED_ALPHA = 0.5


@dataclass(frozen=True)
class ObservedCardinality:
    """EWMA-blended estimated-vs-actual output rows of one keyed subtree."""

    #: EWMA of the observed output cardinality.
    actual_rows: float
    #: EWMA of the planner's estimate — blended with the same ``alpha`` as
    #: the actuals, so the pair stays comparable (a fresh estimate compared
    #: against a stale actual EWMA systematically misreports the error).
    estimated_rows: float
    #: Number of observations folded in so far.
    count: int
    #: Base relations the subtree reads (sorted), and their version keys at
    #: recording time — the staleness check.
    relations: Tuple[str, ...]
    versions: Tuple[Any, ...]

    def blend(self, estimated: float, actual: float, alpha: float, versions: Tuple[Any, ...]) -> "ObservedCardinality":
        """Fold one more observation in (restarting if the data moved)."""
        if versions != self.versions:
            # The base relations changed since the last observation: the old
            # EWMA describes different data, so restart rather than blend.
            return ObservedCardinality(actual, estimated, 1, self.relations, versions)
        return ObservedCardinality(
            (1.0 - alpha) * self.actual_rows + alpha * actual,
            (1.0 - alpha) * self.estimated_rows + alpha * estimated,
            self.count + 1,
            self.relations,
            versions,
        )

    @property
    def q_error(self) -> float:
        """``max(est, actual) / min(est, actual)`` of the EWMAs (≥ 1)."""
        estimated = max(1.0, self.estimated_rows)
        actual = max(1.0, self.actual_rows)
        return max(estimated, actual) / min(estimated, actual)


def predicate_key(predicate: Predicate) -> str:
    """Canonical rendering of one conjunct (``A = B`` equals ``B = A``)."""
    if isinstance(predicate, AttrAttr) and predicate.op in ("=", "=="):
        left, right = sorted((predicate.left, predicate.right))
        return f"{left}={right}"
    return repr(predicate)


def _conjuncts(predicate: Predicate) -> List[Predicate]:
    if isinstance(predicate, And):
        parts: List[Predicate] = []
        for part in predicate.parts:
            parts.extend(_conjuncts(part))
        return parts
    return [predicate]


def _flatten(query: Query, leaves: List[Query], predicates: List[Predicate]) -> None:
    """Flatten a σ/×/⋈ cluster, mirroring the join-order enumerator's walk.

    Anything else — including π, whose duplicate elimination changes
    cardinality — becomes an opaque leaf.
    """
    if isinstance(query, Product):
        _flatten(query.left, leaves, predicates)
        _flatten(query.right, leaves, predicates)
    elif isinstance(query, Join):
        _flatten(query.left, leaves, predicates)
        _flatten(query.right, leaves, predicates)
        predicates.append(AttrAttr(query.left_attr, "=", query.right_attr))
    elif isinstance(query, Select):
        predicates.extend(_conjuncts(query.predicate))
        _flatten(query.child, leaves, predicates)
    else:
        leaves.append(query)


def cardinality_key(query: Query) -> str:
    """Order-independent cardinality identity of a query subtree.

    Every join order the enumerator could produce for the same cluster maps
    to the same key; non-cluster leaves contribute their (deterministic)
    ``repr``.  The key is what executed-operator observations are recorded
    under, and what the estimator and the join-order DP look up.
    """
    leaves: List[Query] = []
    predicates: List[Predicate] = []
    _flatten(query, leaves, predicates)
    leaf_keys = sorted(repr(leaf) for leaf in leaves)
    predicate_keys = sorted(
        predicate_key(p) for p in predicates if not isinstance(p, TruePredicate)
    )
    return "&".join(leaf_keys) + "|" + "&".join(predicate_keys)
