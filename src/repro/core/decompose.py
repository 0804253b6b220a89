"""Product decomposition of components (relational prime factorization).

A product ``m``-decomposition of a relation ``R`` is a set of relations
``{C1, ..., Cm}`` with ``C1 × ... × Cm = R``; it is *maximal* if no finer
decomposition exists (Section 2).  The paper relies on a companion result
([9], ICDT 2007) showing the maximal decomposition is unique and computable
in polynomial time.  Here we provide a correct (exact) decomposition for the
component sizes that occur in practice, based on two facts:

* For a set ``S`` of columns of ``R``, ``R = π_S(R) × π_{U∖S}(R)`` holds iff
  ``|R| = |π_S(R)| · |π_{U∖S}(R)|`` (because ``R`` is always contained in the
  product of its projections).
* Factors are closed under complement, so the maximal decomposition can be
  found by recursively splitting the column set in two.

For components of small arity (the overwhelmingly common case — see the
component-size distribution of Figure 28) the exact recursive search is
cheap.  For very wide components we fall back to singleton splitting, which
still returns a *valid* (if possibly non-maximal) decomposition; this is
explicitly allowed by the paper, which treats maximality as an optimization.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .component import Component
from .fields import FieldRef

#: Above this arity the exact (exponential-in-arity) split search is skipped.
EXACT_ARITY_LIMIT = 16


def _project_rows(
    rows: Sequence[Tuple[Any, ...]],
    probabilities: Optional[Sequence[float]],
    positions: Sequence[int],
) -> Tuple[List[Tuple[Any, ...]], Optional[List[float]]]:
    """Project rows onto ``positions``, merging duplicates and summing probabilities."""
    merged: Dict[Tuple[Any, ...], float] = {}
    order: List[Tuple[Any, ...]] = []
    for index, row in enumerate(rows):
        key = tuple(row[p] for p in positions)
        if key not in merged:
            merged[key] = 0.0
            order.append(key)
        merged[key] += probabilities[index] if probabilities is not None else 1.0
    if probabilities is None:
        return order, None
    return order, [merged[key] for key in order]


def _splits(positions: Sequence[int]):
    """Candidate binary splits of ``positions`` (first element pinned to the left side)."""
    rest = positions[1:]
    for size in range(0, len(rest)):
        for combo in itertools.combinations(rest, size):
            left = (positions[0],) + combo
            right = tuple(p for p in positions if p not in left)
            if right:
                yield left, right


def _is_factor_split(
    rows: Sequence[Tuple[Any, ...]],
    left: Sequence[int],
    right: Sequence[int],
) -> bool:
    """Check whether the rows decompose as the product of the two projections."""
    left_proj = {tuple(row[p] for p in left) for row in rows}
    right_proj = {tuple(row[p] for p in right) for row in rows}
    if len(left_proj) * len(right_proj) != len(set(rows)):
        return False
    return True


def decompose_component(component: Component) -> List[Component]:
    """Maximally decompose ``component`` into independent factors.

    Probabilities are recomputed as marginals of each factor, which is the
    probabilistic analogue of relational factorization: for independent
    factors, the joint probability is the product of the marginals.  If the
    component's distribution does not factorize exactly (the relation does
    but the probabilities do not), the component is kept whole to preserve
    the represented distribution.
    """
    if component.arity == 1 or component.size == 1:
        return [component]
    distinct_rows = list(dict.fromkeys(component.rows))
    positions = tuple(range(component.arity))
    if component.arity > EXACT_ARITY_LIMIT:
        return [component]

    split = _find_split(distinct_rows, positions)
    if split is None:
        return [component]
    left, right = split
    left_factor = _build_factor(component, left)
    right_factor = _build_factor(component, right)
    if component.is_probabilistic and not _distribution_factorizes(
        component, left_factor, right_factor
    ):
        return [component]
    return decompose_component(left_factor) + decompose_component(right_factor)


def _find_split(
    rows: Sequence[Tuple[Any, ...]], positions: Sequence[int]
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    for left, right in _splits(tuple(positions)):
        if _is_factor_split(rows, left, right):
            return left, right
    return None


def _build_factor(component: Component, positions: Sequence[int]) -> Component:
    fields = tuple(component.fields[p] for p in positions)
    rows, probabilities = _project_rows(component.rows, component.probabilities, positions)
    return Component(fields, rows, probabilities)


def _distribution_factorizes(
    component: Component, left: Component, right: Component, tolerance: float = 1e-9
) -> bool:
    """Check that the joint distribution equals the product of the marginals."""
    left_positions = [component.position(f) for f in left.fields]
    right_positions = [component.position(f) for f in right.fields]
    left_prob = {row: left.probability(i) for i, row in enumerate(left.rows)}
    right_prob = {row: right.probability(i) for i, row in enumerate(right.rows)}

    joint: Dict[Tuple[Tuple[Any, ...], Tuple[Any, ...]], float] = {}
    for index, row in enumerate(component.rows):
        key = (
            tuple(row[p] for p in left_positions),
            tuple(row[p] for p in right_positions),
        )
        joint[key] = joint.get(key, 0.0) + component.probability(index)

    for left_row, lp in left_prob.items():
        for right_row, rp in right_prob.items():
            expected = lp * rp
            actual = joint.get((left_row, right_row), 0.0)
            if abs(expected - actual) > tolerance:
                return False
    return True


def decompose_wsd(wsd) -> None:
    """Replace every component of ``wsd`` by its maximal decomposition (in place).

    This is the ``decompose`` normalization of Figure 20.
    """
    new_components: List[Component] = []
    for component in wsd.components:
        new_components.extend(decompose_component(component))
    wsd.components = new_components
    wsd._rebuild_field_index()
