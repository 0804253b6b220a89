"""Relational algebra on WSDs — the algorithms of Figure 9.

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

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...relational.errors import RepresentationError, SchemaError
from ...relational.indexes import HashIndex
from ...relational.predicates import AttrConst, Predicate
from ...relational.relation import Relation
from ...relational.schema import DatabaseSchema, RelationSchema
from ...relational.values import BOTTOM, is_domain_value
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


def _equality_fast_path(wsd: WSD, target: str, predicate: Predicate):
    """Resolve tuples with a *certain* referenced field via a hash-index probe.

    For a pushed-down equality selection ``σ_{A=c}``, a tuple whose ``A``
    field takes the same domain value in every local world is decided by a
    single probe of a :class:`~repro.relational.indexes.HashIndex` built
    over those certain values: matching tuples are kept untouched, the rest
    are marked deleted (``⊥``) wholesale.  Returns the tuple ids whose
    referenced field is genuinely uncertain (they still need the per-local-
    world treatment of Figure 9), or None when the fast path does not apply.
    """
    if not isinstance(predicate, AttrConst) or predicate.op not in ("=", "=="):
        return None
    try:
        hash(predicate.constant)
    except TypeError:
        return None
    attribute = predicate.attribute
    probe = Relation(RelationSchema("__select_probe__", ("TID", "VAL")))
    uncertain = []
    for tuple_id in wsd.tuple_ids[target]:
        field = FieldRef(target, tuple_id, attribute)
        component = wsd.component_for(field)
        column = component.column(field)
        first = column[0] if column else BOTTOM
        if is_domain_value(first) and all(value == first for value in column[1:]):
            probe.insert((tuple_id, first))
        else:
            uncertain.append(tuple_id)
    index = HashIndex(probe, ("VAL",))
    matching = {row[0] for row in index.lookup(predicate.constant)}
    for tuple_id, _ in probe:
        if tuple_id in matching:
            continue
        field = FieldRef(target, tuple_id, attribute)
        component_index = wsd.component_of(field)
        component = wsd.components[component_index]
        component = _mark_deleted(component, target, tuple_id, range(component.size))
        wsd.replace_component(component_index, component.propagate_bottom())
    return uncertain


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
    remaining = _equality_fast_path(wsd, target, predicate)
    if remaining is None:
        remaining = wsd.tuple_ids[target]
    for tuple_id in remaining:
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

    # Drop the non-projected fields from all components.
    drop_fields = {
        FieldRef(target, tuple_id, attribute)
        for tuple_id in wsd.tuple_ids[target]
        for attribute in dropped
    }
    new_components: List[Component] = []
    for component in wsd.components:
        to_drop = [field for field in component.fields if field in drop_fields]
        if not to_drop:
            new_components.append(component)
            continue
        reduced = component.project_away(to_drop)
        if reduced is not None:
            new_components.append(reduced)
    wsd.components = new_components
    # Adjust the schema of the target relation.
    wsd.schema = DatabaseSchema(
        RelationSchema(target, tuple(kept)) if rs.name == target else rs for rs in wsd.schema
    )
    wsd._rebuild_field_index()


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


def equi_join(wsd: WSD, left: str, right: str, left_attr: str, right_attr: str, target: str) -> None:
    """Equi-join ``T := R ⋈_{A=B} S`` natively on a WSD.

    The derived-operator expansion (product, then selection) extends every
    component once per *pair* of tuples — quadratic even when almost no pair
    can ever join.  This operator creates result slots only for pairs whose
    join fields share at least one possible domain value: certain/certain
    pairs are matched with a hash index, pairs involving an uncertain join
    field are matched on candidate-set overlap and then conditioned on the
    join values actually agreeing (compose + mark-deleted + ``propagate-⊥``,
    the ``select[AθB]`` machinery of Figure 9).

    Tuple-presence composition is inherited from the product argument: a
    result tuple is absent from a world as soon as any copied field is
    ``⊥``, so copying the operand columns already encodes "present only if
    both operands are present".
    """
    left_schema = wsd.schema.relation(left)
    right_schema = wsd.schema.relation(right)
    overlap = set(left_schema.attributes) & set(right_schema.attributes)
    if overlap:
        raise SchemaError(
            f"equi-join requires disjoint attributes, both sides have {sorted(overlap)!r}"
        )
    left_schema.position(left_attr)
    right_schema.position(right_attr)
    if wsd.schema.has_relation(target):
        raise SchemaError(f"relation {target!r} already exists in the WSD")

    def candidates(relation: str, tuple_id: Any, attribute: str) -> frozenset:
        field = FieldRef(relation, tuple_id, attribute)
        column = wsd.component_for(field).column(field)
        return frozenset(value for value in column if value is not BOTTOM)

    certain_probe = Relation(RelationSchema("__join_probe__", ("TID", "VAL")))
    uncertain_right: List[Tuple[Any, frozenset]] = []
    for j in wsd.tuple_ids[right]:
        right_candidates = candidates(right, j, right_attr)
        if not right_candidates:
            continue  # deleted in every world: can never join
        if len(right_candidates) == 1:
            certain_probe.insert((j, next(iter(right_candidates))))
        else:
            uncertain_right.append((j, right_candidates))
    certain_index = HashIndex(certain_probe, ("VAL",))

    #: Matched pairs; ``must_check`` marks pairs whose join values can differ.
    pairs: List[Tuple[Any, Any, bool]] = []
    for i in wsd.tuple_ids[left]:
        left_candidates = candidates(left, i, left_attr)
        if not left_candidates:
            continue
        left_certain = len(left_candidates) == 1
        matched: set = set()
        for value in left_candidates:
            for j, _ in certain_index.lookup(value):
                if j not in matched:
                    matched.add(j)
                    pairs.append((i, j, not left_certain))
        for j, right_candidates in uncertain_right:
            if left_candidates & right_candidates:
                pairs.append((i, j, True))

    target_ids = [product_tuple_id(i, j) for i, j, _ in pairs]
    wsd.add_relation(
        RelationSchema(target, left_schema.attributes + right_schema.attributes), target_ids
    )

    pairs_by_left: Dict[Any, List[Any]] = {}
    pairs_by_right: Dict[Any, List[Any]] = {}
    for i, j, _ in pairs:
        tuple_id = product_tuple_id(i, j)
        pairs_by_left.setdefault(i, []).append(tuple_id)
        pairs_by_right.setdefault(j, []).append(tuple_id)

    for index, component in enumerate(wsd.components):
        extended = component
        for field in component.fields:
            if field.relation == left:
                for tuple_id in pairs_by_left.get(field.tuple_id, ()):
                    extended = extended.ext(field, FieldRef(target, tuple_id, field.attribute))
            elif field.relation == right:
                for tuple_id in pairs_by_right.get(field.tuple_id, ()):
                    extended = extended.ext(field, FieldRef(target, tuple_id, field.attribute))
        if extended is not component:
            wsd.replace_component(index, extended)

    # Condition pairs with uncertain join fields on the values agreeing.
    for i, j, must_check in pairs:
        if not must_check:
            continue
        tuple_id = product_tuple_id(i, j)
        left_field = FieldRef(target, tuple_id, left_attr)
        right_field = FieldRef(target, tuple_id, right_attr)
        component_index = wsd.merge_components_of([left_field, right_field])
        component = wsd.components[component_index]
        left_position = component.position(left_field)
        right_position = component.position(right_field)
        failing = [
            row_index
            for row_index, row in enumerate(component.rows)
            if row[left_position] is not BOTTOM
            and row[right_position] is not BOTTOM
            and row[left_position] != row[right_position]
        ]
        if failing:
            component = _mark_deleted(component, target, tuple_id, failing)
            wsd.replace_component(component_index, component.propagate_bottom())


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
