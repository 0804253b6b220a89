"""Relational algebra on WSDs — the algorithms of Figure 9.

These operators are the specification the UWSDT engine is checked against,
not a query engine: :func:`~repro.core.algebra.query.evaluate_on_wsd` is
their one interpreter, and they carry no fast paths.  A join is the derived
``σ_{A=B}(R × S)``.

Every operator follows the paper's pattern: the input WSD is *extended*
with a result relation (so correlations between the input and the result
are preserved, as required for compositional query evaluation), and the
operator manipulates components via ``ext`` (copy columns), ``compose``
(merge components) and ``propagate-⊥``.

The operators are generalized slightly beyond the figure in one harmless
way: selection conditions may be arbitrary boolean combinations of
``A θ c`` and ``A θ B`` atoms over attributes of a *single* tuple (the
census queries of Figure 29 use conjunctions and disjunctions).  A selection
whose atoms reference a single attribute needs no composition, exactly as
``select[Aθc]``; conditions spanning several attributes compose the
components of the referenced fields first, exactly as ``select[AθB]``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ...relational.errors import SchemaError
from ...relational.predicates import Predicate
from ...relational.schema import DatabaseSchema, RelationSchema
from ...relational.values import BOTTOM
from ..component import Component
from ..fields import FieldRef, product_tuple_id, union_tuple_id
from ..wsd import WSD


def copy_relation(wsd: WSD, source: str, target: str) -> None:
    """``copy(R, P)``: extend the WSD with a relation ``P`` that copies ``R``.

    Every component defining a field ``R.t.A`` is extended by a new column
    ``P.t.A`` with identical values (Section 4).
    """
    source_schema = wsd.schema.relation(source)
    if wsd.schema.has_relation(target):
        raise SchemaError(f"relation {target!r} already exists in the WSD")
    wsd.add_relation(RelationSchema(target, source_schema.attributes), wsd.tuple_ids[source])
    for index, component in enumerate(wsd.components):
        extended = component
        for field in component.fields:
            if field.relation == source:
                extended = extended.ext(field, FieldRef(target, field.tuple_id, field.attribute))
        if extended is not component:
            wsd.replace_component(index, extended)


def _tuple_field_values(
    component: Component, relation: str, tuple_id: Any, row: Tuple[Any, ...]
) -> Dict[str, Any]:
    """Values of the fields of one tuple inside one local world of a component."""
    values: Dict[str, Any] = {}
    for position, field in enumerate(component.fields):
        if field.relation == relation and field.tuple_id == tuple_id:
            values[field.attribute] = row[position]
    return values


def _mark_deleted(component: Component, relation: str, tuple_id: Any, row_indices: Sequence[int]) -> Component:
    """Set all fields of ``(relation, tuple_id)`` to ``⊥`` in the given local worlds."""
    positions = [
        index
        for index, field in enumerate(component.fields)
        if field.relation == relation and field.tuple_id == tuple_id
    ]
    target = set(row_indices)
    new_rows = []
    for index, row in enumerate(component.rows):
        if index in target:
            values = list(row)
            for position in positions:
                values[position] = BOTTOM
            new_rows.append(tuple(values))
        else:
            new_rows.append(row)
    return Component(component.fields, new_rows, component.probabilities)


def select(wsd: WSD, source: str, target: str, predicate: Predicate) -> None:
    """Selection ``P := σ_pred(R)`` on a WSD (Figure 9, both selection variants).

    ``predicate`` may reference several attributes of ``R``; the referenced
    fields of each tuple are brought into one component (composing if they
    are spread over several), then local worlds violating the condition get
    the tuple marked as deleted (``⊥``), followed by ``propagate-⊥``.
    """
    source_schema = wsd.schema.relation(source)
    for attribute in predicate.attributes():
        source_schema.position(attribute)

    copy_relation(wsd, source, target)
    referenced = predicate.attributes()
    for tuple_id in wsd.tuple_ids[target]:
        fields = [FieldRef(target, tuple_id, attribute) for attribute in referenced]
        component_index = wsd.merge_components_of(fields)
        component = wsd.components[component_index]

        # The tuple's fields sit at the same positions in every local world
        # of the merged component: one layout, one compiled condition.
        positions = [
            position
            for position, field in enumerate(component.fields)
            if field.relation == target and field.tuple_id == tuple_id
        ]
        satisfied = predicate.compile(
            RelationSchema(target, [component.fields[p].attribute for p in positions])
        )
        failing: List[int] = []
        for row_index, row in enumerate(component.rows):
            pseudo_row = tuple(row[p] for p in positions)
            if any(value is BOTTOM for value in pseudo_row):
                continue
            if not satisfied(pseudo_row):
                failing.append(row_index)
        if failing:
            component = _mark_deleted(component, target, tuple_id, failing)
            component = component.propagate_bottom()
            wsd.replace_component(component_index, component)


def project(wsd: WSD, source: str, target: str, attributes: Sequence[str]) -> None:
    """Projection ``P := π_U(R)`` on a WSD (Figure 9).

    Before dropping the fields not in ``U``, tuple-presence information
    (``⊥`` values) carried by those fields is propagated into the kept
    fields, composing components where necessary (Example 10).
    """
    source_schema = wsd.schema.relation(source)
    for attribute in attributes:
        source_schema.position(attribute)

    copy_relation(wsd, source, target)
    kept = list(attributes)
    dropped = [a for a in source_schema.attributes if a not in kept]

    for tuple_id in wsd.tuple_ids[target]:
        dropped_with_bottom = []
        for attribute in dropped:
            field = FieldRef(target, tuple_id, attribute)
            component = wsd.component_for(field)
            if any(value is BOTTOM for value in component.column(field)):
                dropped_with_bottom.append(field)
        if dropped_with_bottom:
            kept_fields = [FieldRef(target, tuple_id, attribute) for attribute in kept]
            component_index = wsd.merge_components_of(kept_fields + dropped_with_bottom)
            component = wsd.components[component_index].propagate_bottom()
            wsd.replace_component(component_index, component)

    wsd.project_away_fields(
        {
            FieldRef(target, tuple_id, attribute)
            for tuple_id in wsd.tuple_ids[target]
            for attribute in dropped
        }
    )
    wsd.schema = DatabaseSchema(
        RelationSchema(target, tuple(kept)) if rs.name == target else rs for rs in wsd.schema
    )


def product(wsd: WSD, left: str, right: str, target: str) -> None:
    """Product ``T := R × S`` on a WSD (Figure 9).

    Every component holding a field of ``R.t_i`` is extended with one copy
    per tuple ``t_j`` of ``S`` (and symmetrically), producing fields
    ``T.t_ij.A``.
    """
    left_schema = wsd.schema.relation(left)
    right_schema = wsd.schema.relation(right)
    overlap = set(left_schema.attributes) & set(right_schema.attributes)
    if overlap:
        raise SchemaError(f"product requires disjoint attributes, both sides have {sorted(overlap)!r}")

    target_ids = [
        product_tuple_id(i, j) for i in wsd.tuple_ids[left] for j in wsd.tuple_ids[right]
    ]
    wsd.add_relation(
        RelationSchema(target, left_schema.attributes + right_schema.attributes), target_ids
    )

    for index, component in enumerate(wsd.components):
        extended = component
        for field in component.fields:
            if field.relation == left:
                for j in wsd.tuple_ids[right]:
                    extended = extended.ext(
                        field, FieldRef(target, product_tuple_id(field.tuple_id, j), field.attribute)
                    )
            elif field.relation == right:
                for i in wsd.tuple_ids[left]:
                    extended = extended.ext(
                        field, FieldRef(target, product_tuple_id(i, field.tuple_id), field.attribute)
                    )
        if extended is not component:
            wsd.replace_component(index, extended)

    # Note: a product tuple t_ij is absent from a world as soon as *any* of
    # its fields is ⊥, so copying ⊥ values from either operand already
    # encodes "present only if both operands are present"; no component
    # composition is needed here (it is performed lazily by projection).


def union(wsd: WSD, left: str, right: str, target: str) -> None:
    """Union ``T := R ∪ S`` on a WSD (Figure 9)."""
    left_schema = wsd.schema.relation(left)
    right_schema = wsd.schema.relation(right)
    if left_schema.attributes != right_schema.attributes:
        raise SchemaError(
            f"union requires identical attribute lists, got {left_schema.attributes!r} "
            f"and {right_schema.attributes!r}"
        )
    target_ids = [union_tuple_id(left, i) for i in wsd.tuple_ids[left]] + [
        union_tuple_id(right, j) for j in wsd.tuple_ids[right]
    ]
    wsd.add_relation(RelationSchema(target, left_schema.attributes), target_ids)
    for index, component in enumerate(wsd.components):
        extended = component
        for field in component.fields:
            if field.relation == left:
                extended = extended.ext(
                    field, FieldRef(target, union_tuple_id(left, field.tuple_id), field.attribute)
                )
            elif field.relation == right:
                extended = extended.ext(
                    field, FieldRef(target, union_tuple_id(right, field.tuple_id), field.attribute)
                )
        if extended is not component:
            wsd.replace_component(index, extended)


def rename(wsd: WSD, source: str, target: str, old: str, new: str) -> None:
    """Renaming ``P := δ_{A→A'}(R)`` on a WSD (Figure 9)."""
    copy_relation(wsd, source, target)
    mapping: Dict[FieldRef, FieldRef] = {}
    for tuple_id in wsd.tuple_ids[target]:
        mapping[FieldRef(target, tuple_id, old)] = FieldRef(target, tuple_id, new)
    wsd.components = [component.rename_fields(mapping) for component in wsd.components]
    wsd.schema = DatabaseSchema(
        rs.rename_attribute(old, new) if rs.name == target else rs for rs in wsd.schema
    )
    wsd._rebuild_field_index()


def difference(wsd: WSD, left: str, right: str, target: str) -> None:
    """Difference ``P := R − S`` on a WSD (Figure 9).

    For every pair of tuples ``(t_i of P, t_j of S)`` the components holding
    their fields are composed; in local worlds where the two tuples agree on
    every attribute (and the ``S`` tuple is present), the ``P`` tuple is
    marked deleted.
    """
    left_schema = wsd.schema.relation(left)
    right_schema = wsd.schema.relation(right)
    if left_schema.attributes != right_schema.attributes:
        raise SchemaError(
            f"difference requires identical attribute lists, got {left_schema.attributes!r} "
            f"and {right_schema.attributes!r}"
        )
    copy_relation(wsd, left, target)
    attributes = left_schema.attributes
    for i in wsd.tuple_ids[target]:
        for j in wsd.tuple_ids[right]:
            fields = [FieldRef(target, i, a) for a in attributes] + [
                FieldRef(right, j, a) for a in attributes
            ]
            component_index = wsd.merge_components_of(fields)
            component = wsd.components[component_index]
            failing: List[int] = []
            for row_index, row in enumerate(component.rows):
                target_values = _tuple_field_values(component, target, i, row)
                right_values = _tuple_field_values(component, right, j, row)
                if any(value is BOTTOM for value in right_values.values()):
                    continue
                if any(value is BOTTOM for value in target_values.values()):
                    continue
                if all(target_values[a] == right_values[a] for a in attributes):
                    failing.append(row_index)
            if failing:
                component = _mark_deleted(component, target, i, failing)
                component = component.propagate_bottom()
            wsd.replace_component(component_index, component)
