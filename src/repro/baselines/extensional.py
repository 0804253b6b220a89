"""Extensional query evaluation on tuple-independent probabilistic databases.

The paper contrasts WSDs with the probabilistic databases of Dalvi & Suciu,
where query evaluation computes per-tuple output probabilities directly
("probabilistic-ranked retrieval") rather than a representation of the
answer world-set.  This module implements the standard extensional rules
for safe operator trees (independent-project, independent-join, selection)
so that the baseline's behaviour — and its limits — can be demonstrated and
tested against the exact semantics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..relational.predicates import Predicate
from ..relational.schema import RelationSchema
from ..worlds.tuple_independent import TupleIndependentRelation

#: A ranked answer: tuple values with their marginal probability.
RankedAnswer = Tuple[Tuple[Any, ...], float]


def select(
    relation: TupleIndependentRelation, predicate: Predicate
) -> TupleIndependentRelation:
    """Selection: keep the satisfying tuples with unchanged probabilities."""
    result = TupleIndependentRelation(relation.schema)
    for item in relation:
        if predicate.evaluate(relation.schema, item.values):
            result.insert(item.values, item.probability)
    return result


def project_independent(
    relation: TupleIndependentRelation, attributes: Sequence[str], name: str = "result"
) -> List[RankedAnswer]:
    """Independent projection: ``P(t) = 1 − Π (1 − p_i)`` over merged input tuples.

    This is the extensional rule that is *exact* only when the merged tuples
    are independent — which holds in a tuple-independent database but not,
    in general, for intermediate results.  The exactness on base relations
    is covered by tests against the naive engine.
    """
    positions = relation.schema.positions(attributes)
    absent: Dict[Tuple[Any, ...], float] = {}
    order: List[Tuple[Any, ...]] = []
    for item in relation:
        key = tuple(item.values[p] for p in positions)
        if key not in absent:
            absent[key] = 1.0
            order.append(key)
        absent[key] *= 1.0 - item.probability
    return [(key, 1.0 - absent[key]) for key in order]


def join_independent(
    left: TupleIndependentRelation,
    right: TupleIndependentRelation,
    left_attr: str,
    right_attr: str,
) -> List[RankedAnswer]:
    """Independent join: ``P(t1 ⋈ t2) = p1 · p2`` (exact for distinct base relations)."""
    left_position = left.schema.position(left_attr)
    right_position = right.schema.position(right_attr)
    index: Dict[Any, List] = {}
    for item in right:
        index.setdefault(item.values[right_position], []).append(item)
    answers: List[RankedAnswer] = []
    for left_item in left:
        for right_item in index.get(left_item.values[left_position], ()):
            answers.append(
                (left_item.values + right_item.values, left_item.probability * right_item.probability)
            )
    return answers

