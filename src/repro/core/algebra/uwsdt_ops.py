"""Relational algebra natively on UWSDTs — the engine of Section 5.

Each operator extends the input UWSDT with a result relation.  A template is
a certain relation plus its open rows (:class:`~repro.core.uwsdt.Template`),
so the certain part of every operator is the :mod:`~repro.relational.algebra`
call a one-world Database makes, and only the open rows — and the pairs of a
certain row with an open one — reach the component store.  This is what
makes query evaluation on UWSDTs track the one-world evaluation time so
closely in Figure 30: for placeholder densities of 0.005 %–0.1 %, the
overwhelming majority of template tuples never reach the component machinery.

Each operator declares its result under the schema its
:mod:`~repro.relational.algebra` call gave the certain rows, and installs
the template once the open rows are known.  An open result row keeps the
tuple id it derives from — its own under σ, π,
ρ and −, ``(R, t)`` under ∪, ``(t, u)`` for a pair; a certain row turning
open is named by :func:`~repro.core.uwsdt.certain_tid`, and an open row whose
projection keeps no ``?`` and no presence field joins the certain rows.

Field copies (the ``copy`` step of Figure 9, Section 4's ``ext``) wait in a
buffer local to the call and reach the engine as one
:meth:`~repro.core.uwsdt.UWSDT.copy_fields` — one ``ext_many`` per touched
component.  The buffer is flushed before the operator merges, replaces or
creates a component, so the store sees the writes in the order of copies
applied at once.  It never outlives the call: services run operators
concurrently.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ...obs.metrics import get_registry
from ...relational import algebra as relational_algebra
from ...relational.errors import RepresentationError, SchemaError
from ...relational.indexes import hash_index
from ...relational.predicates import And, AttrConst, Predicate, is_index_equality
from ...relational.relation import Relation
from ...relational.values import BOTTOM, PLACEHOLDER
from ..component import Component, fill_placeholders
from ..fields import FieldRef
from ..uwsdt import UWSDT, certain_tid, open_schema

#: An open row: the tuple id followed by the attribute values.
Row = Tuple[Any, ...]


class _FieldCopies:
    """The field copies one operator call has made and not yet applied."""

    __slots__ = ("uwsdt", "pending")

    def __init__(self, uwsdt: UWSDT) -> None:
        self.uwsdt = uwsdt
        self.pending: List[Tuple[FieldRef, FieldRef]] = []

    def add(self, source: str, source_tid: Any, target: str, target_tid: Any, attributes) -> None:
        """Copy ``source.source_tid.A`` to ``target.target_tid.A`` for each ``A``."""
        self.pending.extend(
            (FieldRef(source, source_tid, a), FieldRef(target, target_tid, a)) for a in attributes
        )

    def flush(self) -> UWSDT:
        """Apply the pending copies; returns the engine."""
        if self.pending:
            self.uwsdt.copy_fields(self.pending)
            self.pending = []
        return self.uwsdt


def _merge(copies: _FieldCopies, fields: Sequence[FieldRef]) -> int:
    """Flush the pending copies and compose the components of ``fields`` into one; its cid."""
    uwsdt = copies.flush()
    cids = [uwsdt.component_of(field) for field in fields]
    if None in cids:
        raise RepresentationError(f"field {fields[cids.index(None)].label()} has no component")
    return uwsdt.merge_components(cids)


def _delete_where(copies: _FieldCopies, relation: str, row: Row, fields, failing) -> bool:
    """Lines 4–6 of Figure 16 for result tuple ``row``: merge the components of
    ``fields`` and delete the tuple in the local worlds ``failing(component)``
    lists (:meth:`~repro.core.component.Component.delete_tuple`).  True iff no
    local world keeps it; its fields — the row's own ``?``s, as the result's
    template is not installed yet — then leave the components again and the
    caller leaves the row out."""
    uwsdt = copies.uwsdt
    cid = _merge(copies, fields)
    worlds = failing(uwsdt.components[cid])
    component, deleted = uwsdt.components[cid].delete_tuple(relation, row[0], worlds)
    if worlds:
        uwsdt.replace_component(cid, component)
    if deleted:
        attributes = uwsdt.schema.relation(relation).attributes
        for attribute, value in zip(attributes, row[1:]):
            if value is not PLACEHOLDER:
                continue
            field = FieldRef(relation, row[0], attribute)
            cid = uwsdt.component_of(field)
            reduced = uwsdt.components[cid].project_away([field])
            if reduced is None:
                uwsdt.remove_component(cid)
            else:
                uwsdt.replace_component(cid, reduced)
    return deleted


def _copy_all(uwsdt: UWSDT, source: str, target: str, tuple_id, renamed=None) -> None:
    """Copy every placeholder field of ``source`` to ``target``, under
    ``tuple_id(t)`` and, for a renamed attribute, its new name."""
    renamed = renamed or {}
    uwsdt.copy_fields(
        (FieldRef(source, t, a), FieldRef(target, tuple_id(t), renamed.get(a, a)))
        for t, placeholders in uwsdt.uncertain_tuples(source).items()
        for a in placeholders
    )


def _filled(component: Component, relation: str, row: Row, attributes, position_of) -> List:
    """Per local world of ``component``: ``row`` with its ``attributes`` filled
    in (:func:`~repro.core.component.fill_placeholders`), None where absent."""
    slots = component.slots(relation, row[0], attributes, position_of)
    return [fill_placeholders(row, slots, world) for world in component.rows]


def _with_ids(relation: str, rows: Iterable[Row]) -> List[Row]:
    """``relation``'s certain rows in the open-row layout, each under its
    :func:`certain_tid`."""
    return [(certain_tid(relation, row), *row) for row in rows]


def select(
    uwsdt: UWSDT,
    source: str,
    target: str,
    predicate: Predicate,
    key: Optional[AttrConst] = None,
) -> None:
    """Selection ``P := σ_pred(R)`` on a UWSDT (the algorithm of Figure 16, generalized).

    The certain rows are selected by :func:`relational_algebra.select
    <repro.relational.algebra.select>`, an open row without a ``?`` on a
    referenced attribute on its values (line 1); the open rows with one —
    :meth:`~repro.core.uwsdt.UWSDT.placeholder_rows_on` — lose the local
    worlds violating the condition (lines 2–6).  With a ``key`` — an
    index-equality conjunct ``A = c``; a bare equality is its own — the
    certain rows and the open rows are read from their hash indexes'
    buckets under ``c``, and of the open rows with a ``?`` on a referenced
    attribute only those whose ``A`` is ``c`` or ``?`` are visited.
    """
    source_schema = uwsdt.schema.relation(source)
    referenced = predicate.attributes()
    for attribute in referenced:
        source_schema.position(attribute)

    template = uwsdt.templates[source]
    if key is None and is_index_equality(predicate):
        key = predicate
    index = None if key is None else hash_index(template.certain, (key.attribute,))
    certain = relational_algebra.select(template.certain, predicate, target, index=index)
    uwsdt.add_relation(certain.schema)
    scanned = len(template.certain) if index is None else len(index.bucket(key.constant))
    candidates: Sequence[Row] = template.open
    open_rows = uwsdt.placeholder_rows_on(source, referenced) if candidates else []
    if key is not None and candidates:
        # The rows under ``c``; those with a ``?`` on ``A`` reach only the components.
        candidates = hash_index(template.open, (key.attribute,)).bucket(key.constant)
        position, constant = template.open.schema.position(key.attribute), key.constant
        open_rows = [
            row for row in open_rows if (value := row[position]) is PLACEHOLDER or value == constant
        ]
    registry = get_registry()  # once per selection, never per row (docs/observability.md)
    registry.counter("repro.uwsdt_ops.rows_scanned").inc(scanned + len(candidates))
    registry.counter("repro.uwsdt_ops.rows_through_components").inc(len(open_rows))

    schema = template.open.schema
    uncertain = uwsdt.uncertain_tuples(source)
    copies = _FieldCopies(uwsdt)
    kept: List[Row] = []
    # Line 1: an open row without a ``?`` on a referenced attribute is judged on its values.
    decided = set(referenced).isdisjoint
    satisfied, scan = predicate.compile_both(schema) if candidates or open_rows else (None, None)
    for row in scan(candidates) if candidates else ():
        placeholders = uncertain.get(row[0], ())
        if decided(placeholders):
            copies.add(source, row[0], target, row[0], placeholders)
            kept.append(row)
    conjuncts = [
        (set(part.attributes()), part)
        for part in (predicate.parts if isinstance(predicate, And) else ())
    ]
    for row in open_rows:
        placeholders = uncertain.get(row[0], ())
        refs = [a for a in referenced if a in placeholders]
        if not refs or any(
            attributes.isdisjoint(placeholders) and not part.evaluate(schema, row)
            for attributes, part in conjuncts
        ):
            continue  # decided on its values above, or by a conjunct over certain fields

        def failing(component: Component) -> List[int]:
            worlds = _filled(component, target, row, refs, schema.position)
            return [i for i, values in enumerate(worlds) if values and not satisfied(values)]

        copies.add(source, row[0], target, row[0], placeholders)
        fields = [FieldRef(target, row[0], a) for a in refs]
        if not _delete_where(copies, target, row, fields, failing):
            kept.append(row)
    copies.flush()
    uwsdt.set_template(target, certain, kept)


def project(uwsdt: UWSDT, source: str, target: str, attributes: Sequence[str]) -> None:
    """Projection ``P := π_U(R)`` on a UWSDT.

    The certain rows are projected by :func:`relational_algebra.project
    <repro.relational.algebra.project>`.  The presence an open row's dropped
    placeholder fields carry moves into a kept placeholder field or, when
    all kept fields are certain, into the first one turned into a
    placeholder (the "exists column" device at the end of Section 4).  An
    open row keeping neither is certain, and joins the certain rows.
    """
    source_schema = uwsdt.schema.relation(source)
    for attribute in attributes:
        source_schema.position(attribute)

    template = uwsdt.templates[source]
    certain = relational_algebra.project(template.certain, attributes, target)
    uwsdt.add_relation(certain.schema)
    position = template.open.schema.position
    kept = operator.itemgetter(0, *map(position, attributes))
    uncertain = uwsdt.uncertain_tuples(source)
    copies = _FieldCopies(uwsdt)
    open_rows: List[Row] = []
    collapsed: List[Row] = []
    for row in template.open:
        tuple_id, placeholders, kept_row = row[0], uncertain[row[0]], kept(row)
        kept_placeholders = [a for a in attributes if a in placeholders]
        # Which dropped placeholder fields may mark the tuple as absent?
        dropped = (FieldRef(source, tuple_id, a) for a in placeholders if a not in attributes)
        presence = [
            field
            for field in dropped
            if BOTTOM in uwsdt.components[uwsdt.component_of(field)].column(field)
        ]
        if not kept_placeholders and not presence:
            collapsed.append(kept_row[1:])
            continue
        copies.add(source, tuple_id, target, tuple_id, kept_placeholders)
        if not presence:
            open_rows.append(kept_row)
        elif kept_placeholders:
            # Delete the tuple in the local worlds where a presence field is ``⊥``.
            absent = [field.attribute for field in presence]
            fields = [FieldRef(target, tuple_id, a) for a in kept_placeholders] + presence
            if not _delete_where(
                copies,
                target,
                kept_row,
                fields,
                lambda component: [
                    i
                    for i, values in enumerate(_filled(component, source, row, absent, position))
                    if values is None
                ],
            ):
                open_rows.append(kept_row)
        else:
            # All kept attributes are certain: the first one becomes a
            # placeholder that encodes tuple presence.
            cid = _merge(copies, presence)
            field = FieldRef(target, tuple_id, attributes[0])
            uwsdt.replace_component(
                cid, uwsdt.components[cid].ext_presence(field, kept_row[1], presence)
            )
            open_rows.append((tuple_id, PLACEHOLDER) + kept_row[2:])
    copies.flush()
    if collapsed:
        extra = Relation.from_tuples(certain.schema, collapsed)
        certain = relational_algebra.union(certain, extra, target)
    uwsdt.set_template(target, certain, open_rows)


def rename(uwsdt: UWSDT, source: str, target: str, old: str, new: str) -> None:
    """Renaming ``P := δ_{A→A'}(R)`` on a UWSDT."""
    template = uwsdt.templates[source]
    certain = relational_algebra.rename(template.certain, old, new, target)
    uwsdt.add_relation(certain.schema)
    uwsdt.set_template(target, certain, list(template.open))
    _copy_all(uwsdt, source, target, lambda tuple_id: tuple_id, {old: new})


def union(uwsdt: UWSDT, left: str, right: str, target: str) -> None:
    """Union ``T := R ∪ S`` on a UWSDT; an open row's tuple id is tagged with its side."""
    left_schema = uwsdt.schema.relation(left)
    if left_schema.attributes != uwsdt.schema.relation(right).attributes:
        raise SchemaError("union requires identical attribute lists")
    sides = (left, right)
    certain = relational_algebra.union(*(uwsdt.templates[side].certain for side in sides), target)
    uwsdt.add_relation(certain.schema)
    rows = [((side, row[0]), *row[1:]) for side in sides for row in uwsdt.templates[side].open]
    # The side-tagged tuple ids are distinct unless a relation meets itself.
    uwsdt.set_template(target, certain, rows, distinct=left != right)
    for side in sides:
        _copy_all(uwsdt, side, target, lambda tuple_id: (side, tuple_id))


def _pair_builder(copies: _FieldCopies, left: str, right: str, target: str):
    """``pair(left_row, right_row)``: two open-layout rows' concatenation under
    ``(left tid, right tid)``, the placeholder fields of either side copied."""
    uncertain = copies.uwsdt.uncertain_tuples(left), copies.uwsdt.uncertain_tuples(right)

    def pair(left_row: Row, right_row: Row) -> Row:
        target_tid = (left_row[0], right_row[0])
        for side, tuple_id, placeholders in zip((left, right), target_tid, uncertain):
            if tuple_id in placeholders:
                copies.add(side, tuple_id, target, target_tid, placeholders[tuple_id])
        return (target_tid, *left_row[1:], *right_row[1:])

    return pair


def product(uwsdt: UWSDT, left: str, right: str, target: str) -> None:
    """Product ``T := R × S`` on a UWSDT (attribute sets must be disjoint).

    Certain × certain is :func:`relational_algebra.product
    <repro.relational.algebra.product>`; a pair with an open row is open.
    """
    left_template, right_template = uwsdt.templates[left], uwsdt.templates[right]
    certain = relational_algebra.product(left_template.certain, right_template.certain, target)
    uwsdt.add_relation(certain.schema)
    copies = _FieldCopies(uwsdt)
    pair = _pair_builder(copies, left, right, target)
    right_rows = [*_with_ids(right, right_template.certain), *right_template.open]
    rows = [pair(l, r) for l in left_template.open for r in right_rows]
    left_rows = _with_ids(left, left_template.certain)
    rows += [pair(l, r) for l in left_rows for r in right_template.open]
    copies.flush()
    uwsdt.set_template(target, certain, rows)


def equi_join(
    uwsdt: UWSDT,
    left: str,
    right: str,
    left_attr: str,
    right_attr: str,
    target: str,
    use_template_index: bool = False,
) -> None:
    """Equi-join ``T := R ⋈_{A=B} S`` on a UWSDT.

    Certain × certain is :func:`relational_algebra.equi_join
    <repro.relational.algebra.equi_join>`; with ``use_template_index=True``
    (the index nested-loop join, Section 5's "employing indices") it probes
    the index kept on the right side's certain rows.  A pair with an open row
    whose join value is a ``?`` is matched on its component's values, its
    presence conditioned on the join values agreeing.
    """
    left_schema, right_schema = uwsdt.schema.relation(left), uwsdt.schema.relation(right)
    target_schema = left_schema.concat(right_schema, target)
    left_template, right_template = uwsdt.templates[left], uwsdt.templates[right]
    index = hash_index(right_template.certain, (right_attr,)) if use_template_index else None
    certain = relational_algebra.equi_join(
        left_template.certain, right_template.certain, left_attr, right_attr, target, index=index
    )
    uwsdt.add_relation(certain.schema)

    # Positions in open-layout rows (the tid column comes first).
    left_position = left_schema.position(left_attr) + 1
    right_position = right_schema.position(right_attr) + 1

    target_position = open_schema(target_schema).position
    compared = target_position(left_attr), target_position(right_attr)
    copies = _FieldCopies(uwsdt)
    pair = _pair_builder(copies, left, right, target)
    rows: List[Row] = []

    def join_values(relation: str, row: Row, attribute: str, position: int) -> Iterable[Any]:
        """The values a row's join field may take: its own, or its component's."""
        if row[position] is not PLACEHOLDER:
            return (row[position],)
        field = FieldRef(relation, row[0], attribute)
        column = uwsdt.components[uwsdt.component_of(field)].column(field)
        return dict.fromkeys(value for value in column if value is not BOTTOM)

    def emit_conditioned(row: Row, check: List[str]) -> None:
        """Emit a pair whose presence depends on the join values agreeing."""

        def failing(component: Component) -> List[int]:
            worlds = _filled(component, target, row, check, target_position)
            return [i for i, v in enumerate(worlds) if v and v[compared[0]] != v[compared[1]]]

        fields = [FieldRef(target, row[0], a) for a in check]
        if not _delete_where(copies, target, row, fields, failing):
            rows.append(row)

    def join(left_rows: Iterable[Row], right_rows: Iterable[Row]) -> None:
        """The pairs of ``left_rows`` and ``right_rows`` (open layout) that may join."""
        by_value: Dict[Any, List[Row]] = {}
        for right_row in right_rows:
            for value in join_values(right, right_row, right_attr, right_position):
                by_value.setdefault(value, []).append(right_row)
        for left_row in left_rows:
            paired = set()  # a right row under several of the left row's values pairs once
            for value in join_values(left, left_row, left_attr, left_position):
                for right_row in by_value.get(value, ()):
                    if right_row[0] in paired:
                        continue
                    paired.add(right_row[0])
                    check = [
                        attribute
                        for attribute, value in (
                            (left_attr, left_row[left_position]),
                            (right_attr, right_row[right_position]),
                        )
                        if value is PLACEHOLDER
                    ]
                    if check:
                        emit_conditioned(pair(left_row, right_row), check)
                    else:
                        rows.append(pair(left_row, right_row))

    if left_template.open:
        join(left_template.open, [*_with_ids(right, right_template.certain), *right_template.open])
    if right_template.open:
        join(_with_ids(left, left_template.certain), right_template.open)
    copies.flush()
    uwsdt.set_template(target, certain, rows)


def _may_be_equal(left_row: Row, right_row: Row) -> bool:
    """False iff two open-layout rows certainly differ on some attribute."""
    return all(
        lv == rv or lv is PLACEHOLDER or rv is PLACEHOLDER
        for lv, rv in zip(left_row[1:], right_row[1:])
    )


def difference(uwsdt: UWSDT, left: str, right: str, target: str) -> None:
    """Difference ``P := R − S`` on a UWSDT, the most expensive operator:
    possibly-equal pairs force component composition.

    Certain − certain is :func:`relational_algebra.difference
    <repro.relational.algebra.difference>`; a certain left row an open right
    row may equal turns open under a presence placeholder on its first
    attribute (the "exists column" device).
    """
    left_schema = uwsdt.schema.relation(left)
    if left_schema.attributes != uwsdt.schema.relation(right).attributes:
        raise SchemaError("difference requires identical attribute lists")
    first = left_schema.attributes[0]
    left_template, right_template = uwsdt.templates[left], uwsdt.templates[right]
    uncertain_left = uwsdt.uncertain_tuples(left)
    uncertain_right = uwsdt.uncertain_tuples(right)
    copies = _FieldCopies(uwsdt)
    position_of = left_template.open.schema.position

    def survives(row: Row, placeholders: Sequence[str], right_rows: Iterable[Row]) -> bool:
        """Delete ``row`` in the worlds where a right row equals it; is it kept in one?"""
        tuple_id = row[0]
        for right_row in right_rows:
            if not _may_be_equal(row, right_row):
                continue
            right_placeholders = uncertain_right.get(right_row[0], ())

            def failing(component: Component) -> List[int]:
                worlds = zip(
                    _filled(component, target, row, placeholders, position_of),
                    _filled(component, right, right_row, right_placeholders, position_of),
                )
                # A right tuple absent from a world removes nothing there.
                return [i for i, (l, r) in enumerate(worlds) if l and r and l[1:] == r[1:]]

            fields = [FieldRef(target, tuple_id, a) for a in placeholders]
            fields += [FieldRef(right, right_row[0], a) for a in right_placeholders]
            if _delete_where(copies, target, row, fields, failing):
                return False  # no world keeps the tuple: it stays out of the result
        return True

    certain = relational_algebra.difference(left_template.certain, right_template.certain, target)
    uwsdt.add_relation(certain.schema)
    rows: List[Row] = []
    if right_template.open:
        staying = []
        for left_row in certain:
            tuple_id = certain_tid(left, left_row)
            if not any(_may_be_equal((tuple_id, *left_row), r) for r in right_template.open):
                staying.append(left_row)
                continue
            # Certain, but its membership depends on open right rows.
            field = FieldRef(target, tuple_id, first)
            copies.flush().new_component(Component.certain(field, left_row[0]))
            row = (tuple_id, PLACEHOLDER, *left_row[1:])
            if survives(row, (first,), right_template.open):
                rows.append(row)
        if len(staying) != len(certain):
            certain = Relation.from_tuples(certain.schema, staying, distinct=True)

    right_rows = []
    if left_template.open:
        right_rows = [*_with_ids(right, right_template.certain), *right_template.open]
    for left_row in left_template.open:
        tuple_id, placeholders = left_row[0], uncertain_left[left_row[0]]
        copies.add(left, tuple_id, target, tuple_id, placeholders)
        if survives(left_row, placeholders, right_rows):
            rows.append(left_row)
    copies.flush()
    uwsdt.set_template(target, certain, rows)
