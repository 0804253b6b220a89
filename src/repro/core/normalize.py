"""Normalization of (probabilistic) WSDs — the three algorithms of Figure 20.

* ``remove_invalid_tuples`` — a tuple whose fields are ``⊥`` in *every*
  local world of its components appears in no world at all; its fields can
  be dropped from the decomposition entirely (Example 12).
* ``decompose``             — replace each component by its maximal product
  decomposition (delegated to :mod:`repro.core.decompose`).
* ``compress``              — merge identical local worlds of a component,
  summing their probabilities.

``normalize_wsd`` runs all three until a fixpoint is reached, which yields
the minimal equivalent WSD the paper's Section 7 describes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..relational.values import BOTTOM
from .decompose import decompose_wsd
from .fields import FieldRef
from .wsd import WSD


def remove_invalid_tuples(wsd: WSD) -> List[Tuple[str, Any]]:
    """Drop tuples that are absent (``⊥``) in every world; return the dropped ids.

    Mirrors ``remove invalid tuples`` of Figure 20: if some field of a tuple
    has only ``⊥`` values in its component, the tuple occurs in no world,
    so every field of that tuple is projected away and its slot removed.
    """
    invalid: List[Tuple[str, Any]] = []
    for relation_schema in wsd.schema:
        for tuple_id in list(wsd.tuple_ids.get(relation_schema.name, ())):
            if _tuple_is_invalid(wsd, relation_schema.name, tuple_id, relation_schema.attributes):
                invalid.append((relation_schema.name, tuple_id))

    if not invalid:
        return invalid

    wsd.project_away_fields(
        {
            FieldRef(relation_name, tuple_id, attribute)
            for relation_name, tuple_id in invalid
            for attribute in wsd.schema.relation(relation_name).attributes
        }
    )
    for relation_name, tuple_id in invalid:
        wsd.tuple_ids[relation_name] = [
            existing for existing in wsd.tuple_ids[relation_name] if existing != tuple_id
        ]
    return invalid


def _tuple_is_invalid(wsd: WSD, relation: str, tuple_id: Any, attributes) -> bool:
    """A tuple is invalid iff some of its fields is ``⊥`` in every local world."""
    for attribute in attributes:
        field = FieldRef(relation, tuple_id, attribute)
        component = wsd.component_for(field)
        if all(value is BOTTOM for value in component.column(field)):
            return True
    return False


def compress_components(wsd: WSD) -> None:
    """Merge identical local worlds in every component (Figure 20, ``compress``)."""
    wsd.components = [component.compress() for component in wsd.components]
    wsd._rebuild_field_index()


def normalize_wsd(wsd: WSD) -> WSD:
    """Run remove-invalid-tuples, compress and decompose to a fixpoint (in place).

    Returns the same ``wsd`` object for chaining convenience.
    """
    while True:
        before = _signature(wsd)
        remove_invalid_tuples(wsd)
        compress_components(wsd)
        decompose_wsd(wsd)
        if _signature(wsd) == before:
            return wsd


def _signature(wsd: WSD) -> Tuple[int, int, int]:
    """Cheap change detector for the normalization fixpoint."""
    return (
        len(wsd.components),
        wsd.representation_size(),
        sum(len(ids) for ids in wsd.tuple_ids.values()),
    )


def component_size_histogram(wsd: WSD) -> Dict[int, int]:
    """Histogram ``arity -> number of components`` (the statistic of Figure 28)."""
    histogram: Dict[int, int] = {}
    for component in wsd.components:
        histogram[component.arity] = histogram.get(component.arity, 0) + 1
    return histogram
