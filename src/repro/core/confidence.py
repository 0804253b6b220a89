"""Confidence computation and the ``possible`` operator (Section 6, Figures 17–19).

These are the operators that look *across* worlds:

* ``conf(t)``        — probability that tuple ``t`` appears in a relation,
* ``possible(R)``    — tuples appearing in at least one world,
* ``possible_p(R)``  — possible tuples together with their confidences,
* ``certain(R)``     — tuples appearing in every world (derived).

The implementation follows the paper's algorithm: prune the components to
the columns relevant for the queried relation, normalize to a *tuple-level*
WSD (every tuple's fields in one component — this step can be exponential
in the worst case, which is unavoidable since certainty checking is
NP-hard), and then combine per-component matches with the independence
formula ``c := 1 − (1 − c) · (1 − conf_C)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..relational.errors import RepresentationError
from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from ..relational.values import BOTTOM
from .component import Component, compose_all, fill_placeholders
from .fields import FieldRef
from .unionfind import UnionFind
from .uwsdt import UWSDT
from .wsd import WSD

#: A possible tuple together with its confidence.
RankedTuple = Tuple[Tuple[Any, ...], float]


# --------------------------------------------------------------------------- #
# Tuple-level normalization
# --------------------------------------------------------------------------- #


def tuple_level_components(wsd: WSD, relation_name: str) -> List[Tuple[Component, List[Any]]]:
    """Group the components so every tuple of ``relation_name`` lives in one component.

    Returns ``(component, tuple_ids)`` pairs: the (possibly composed)
    component together with the tuple ids of ``relation_name`` it defines.
    Components not defining any field of ``relation_name`` are dropped (they
    cannot influence membership of its tuples).
    """
    relation_schema = wsd.schema.relation(relation_name)

    # Restrict each component to the columns of the queried relation.
    pruned: List[Component] = []
    for component in wsd.components:
        keep = [f for f in component.fields if f.relation == relation_name]
        if not keep:
            continue
        drop = [f for f in component.fields if f.relation != relation_name]
        reduced = component.project_away(drop) if drop else component
        if reduced is not None:
            pruned.append(reduced)

    # Union-find over tuple ids so all fields of one tuple end up together.
    groups: List[List[Component]] = []
    group_of_tuple: Dict[Any, int] = {}
    for component in pruned:
        tuple_ids = {f.tuple_id for f in component.fields}
        touching = sorted({group_of_tuple[t] for t in tuple_ids if t in group_of_tuple})
        if not touching:
            groups.append([component])
            index = len(groups) - 1
        else:
            index = touching[0]
            groups[index].append(component)
            for other in touching[1:]:
                groups[index].extend(groups[other])
                groups[other] = []
        for component_in_group in groups[index]:
            for field in component_in_group.fields:
                group_of_tuple[field.tuple_id] = index

    result: List[Tuple[Component, List[Any]]] = []
    for group in groups:
        if not group:
            continue
        composed = compose_all(group)
        tuple_ids = sorted({f.tuple_id for f in composed.fields}, key=repr)
        result.append((composed, tuple_ids))
    return result


def _tuple_values(
    component: Component,
    relation_name: str,
    tuple_id: Any,
    row: Tuple[Any, ...],
    attributes: Sequence[str],
    certain: Dict[str, Any],
) -> Optional[Tuple[Any, ...]]:
    """The values of one tuple in one local world, or None if the tuple is absent."""
    values: List[Any] = []
    for attribute in attributes:
        field = FieldRef(relation_name, tuple_id, attribute)
        if component.has_field(field):
            value = row[component.position(field)]
        elif attribute in certain:
            value = certain[attribute]
        else:
            return None
        if value is BOTTOM:
            return None
        values.append(value)
    return tuple(values)


# --------------------------------------------------------------------------- #
# WSD-level operators (Figures 17–19)
# --------------------------------------------------------------------------- #


def confidence(wsd: WSD, relation_name: str, values: Sequence[Any]) -> float:
    """``conf(t)``: probability that tuple ``values`` is in ``relation_name`` (Figure 17)."""
    target = tuple(values)
    arity = wsd.schema.relation(relation_name).arity
    if len(target) != arity:
        raise RepresentationError(f"tuple {target!r} has arity {len(target)}, expected {arity}")
    return dict(possible_with_confidence(wsd, relation_name)).get(target, 0.0)


def _confidences(wsd: WSD, relation_name: str) -> Dict[Tuple[Any, ...], float]:
    """Every possible tuple of ``relation_name`` with its confidence, in one
    pass over the tuple-level components: each component's matching mass is
    accumulated per tuple it produces, and the independent components
    combine as ``c := 1 − (1 − c) · (1 − conf_C)``.  Tuples are in order of
    first production (component, local world, tuple id)."""
    attributes = wsd.schema.relation(relation_name).attributes
    confidences: Dict[Tuple[Any, ...], float] = {}
    for component, tuple_ids in tuple_level_components(wsd, relation_name):
        matches: Dict[Tuple[Any, ...], float] = {}
        for row_index, row in enumerate(component.rows):
            # A tuple two ids produce in one local world counts that world once.
            produced = dict.fromkeys(
                _tuple_values(component, relation_name, tuple_id, row, attributes, {})
                for tuple_id in tuple_ids
            )
            produced.pop(None, None)
            for candidate in produced:
                matches[candidate] = matches.get(candidate, 0.0) + component.probability(row_index)
        for candidate, mass in matches.items():
            confidences[candidate] = 1.0 - (1.0 - confidences.get(candidate, 0.0)) * (1.0 - mass)
    return confidences


def possible(wsd: WSD, relation_name: str) -> List[Tuple[Any, ...]]:
    """``possible(R)``: tuples appearing in at least one world (Figure 18)."""
    return list(_confidences(wsd, relation_name))


def possible_with_confidence(wsd: WSD, relation_name: str) -> List[RankedTuple]:
    """``possible_p(R)``: possible tuples with their confidences (Figure 19),
    in the order :func:`possible` lists them."""
    if not wsd.is_probabilistic:
        raise RepresentationError("confidence computation requires a probabilistic WSD")
    return list(_confidences(wsd, relation_name).items())


def certain(wsd: WSD, relation_name: str, tolerance: float = 1e-9) -> List[Tuple[Any, ...]]:
    """Tuples whose confidence is 1 (present in every world)."""
    return [
        row
        for row, conf in possible_with_confidence(wsd, relation_name)
        if conf >= 1.0 - tolerance
    ]


def possible_relation(wsd: WSD, relation_name: str, result_name: str = "possible") -> Relation:
    """Materialize ``possible(R)`` as an ordinary relation."""
    attributes = wsd.schema.relation(relation_name).attributes
    relation = Relation(RelationSchema(result_name, attributes))
    for row in possible(wsd, relation_name):
        relation.insert(row)
    return relation


# --------------------------------------------------------------------------- #
# UWSDT-level operators
# --------------------------------------------------------------------------- #


def _uwsdt_tuple_groups(uwsdt: UWSDT, relation_name: str) -> List[Tuple[List[int], List[Any]]]:
    """Group the uncertain tuples of one relation into independent ``(cids, tuple ids)`` groups.

    Two tuples are correlated when a chain of shared components connects
    them, so the groups are the connected components of the graph linking
    the component ids of each tuple — the independence combination is only
    sound between tuples of different groups.
    """
    links = UnionFind()
    cids_of_tuple: Dict[Any, List[int]] = {}
    for tuple_id, placeholders in uwsdt.uncertain_tuples(relation_name).items():
        cids = [uwsdt.component_of(FieldRef(relation_name, tuple_id, a)) for a in placeholders]
        cids_of_tuple[tuple_id] = cids
        for cid in cids[1:]:
            links.union(cids[0], cid)
    groups: Dict[int, Tuple[Set[int], List[Any]]] = {}
    for tuple_id, cids in cids_of_tuple.items():
        group_cids, tuple_ids = groups.setdefault(links.find(cids[0]), (set(), []))
        group_cids.update(cids)
        tuple_ids.append(tuple_id)
    return [(sorted(cids), tuple_ids) for cids, tuple_ids in groups.values()]


def uwsdt_possible_with_confidence(uwsdt: UWSDT, relation_name: str) -> List[RankedTuple]:
    """``possible_p(R)`` natively on a UWSDT.

    The certain rows contribute confidence 1 directly, read off the certain
    relation; open rows are resolved through their (composed) components.
    """
    template = uwsdt.templates[relation_name]
    uncertain = uwsdt.uncertain_tuples(relation_name)
    position_of = uwsdt.schema.relation(relation_name).position

    # In first-production order; a certain row's confidence is 1 whatever
    # else produces it.
    confidences: Dict[Tuple[Any, ...], float] = dict.fromkeys(template.certain, 1.0)
    uncertain_values = {row[0]: row[1:] for row in template.open}

    for cids, tuple_ids in _uwsdt_tuple_groups(uwsdt, relation_name):
        composed = compose_all([uwsdt.components[cid] for cid in cids])
        entries = [
            (
                uncertain_values[tuple_id],
                composed.slots(relation_name, tuple_id, uncertain[tuple_id], position_of),
            )
            for tuple_id in tuple_ids
        ]
        per_row_matches: Dict[Tuple[Any, ...], float] = {}
        for row_index, local_world in enumerate(composed.rows):
            produced = set()
            for values, slots in entries:
                filled = fill_placeholders(values, slots, local_world)
                if filled is not None:
                    produced.add(tuple(filled))
            for produced_row in produced:
                per_row_matches[produced_row] = per_row_matches.get(produced_row, 0.0) + (
                    composed.probability(row_index)
                )
        for produced_row, component_confidence in per_row_matches.items():
            previous = confidences.get(produced_row, 0.0)
            confidences[produced_row] = 1.0 - (1.0 - previous) * (
                1.0 - min(component_confidence, 1.0)
            )

    return list(confidences.items())


def uwsdt_possible(uwsdt: UWSDT, relation_name: str) -> List[Tuple[Any, ...]]:
    """``possible(R)`` natively on a UWSDT."""
    return [row for row, _ in uwsdt_possible_with_confidence(uwsdt, relation_name)]


def uwsdt_confidence(uwsdt: UWSDT, relation_name: str, values: Sequence[Any]) -> float:
    """``conf(t)`` natively on a UWSDT."""
    target = tuple(values)
    for row, conf in uwsdt_possible_with_confidence(uwsdt, relation_name):
        if row == target:
            return conf
    return 0.0
