"""Relational algebra natively on UWSDTs — the engine of Section 5.

Each operator extends the input UWSDT with a result relation, touching the
template relation with ordinary relational processing and the component
store only for tuples that actually carry placeholders.  This is what makes
query evaluation on UWSDTs track the one-world evaluation time so closely
in Figure 30: for placeholder densities of 0.005 %–0.1 %, the overwhelming
majority of template tuples never reach the component machinery.

The split is made on the UWSDT's placeholder index
(:meth:`~repro.core.uwsdt.UWSDT.uncertain_tuples`): a template row whose
tuple id is not indexed is fully certain, so the compiled predicate,
projection or hash join runs on the raw row exactly as on a one-world
database; the indexed rows name their placeholder attributes and go through
their components.  Every operator collects the result's template rows in a
list and installs them with one :meth:`~repro.core.uwsdt.UWSDT.load_template`
— tuple ids are distinct, so the rows are a set by construction; a tuple that
no local world keeps is left out of the list rather than inserted and removed
again.  The list is in template order, except that a selection lists the rows
its components decide after the rows the template decides (each part in
template order).

An operator's field copies (the ``copy`` step of Figure 9, Section 4's
``ext``) are collected in a buffer local to the call and applied as one
:meth:`~repro.core.uwsdt.UWSDT.copy_fields` — one
:meth:`~repro.core.component.Component.ext_many` per touched component — at
the end of the operator.  The pending-copy rule: the buffer is flushed
before the operator merges, replaces or creates a component or reads a
copied field, so the component store sees the same writes in the same
order as with each copy applied at once; reading a column a component had
before needs no flush.  The buffer never outlives the call and is never
kept on the engine or in this module: services run operators concurrently.

The selection algorithm follows Figure 16: the result template keeps the
tuples that certainly satisfy the condition or have a placeholder on a
referenced attribute; component values violating the condition are removed
(here: marked ``⊥`` and propagated by one
:meth:`~repro.core.component.Component.delete_tuple`), and tuples left
without any satisfying local world are dropped from the result template
again (lines 4–6 of the figure).  As in the chase, a selection is a
predicate: one generated scan
(:meth:`~repro.relational.predicates.Predicate.compile_scan`) over the
template judges line 1, and only the rows with a ``?`` on a referenced
attribute — read off the memoised per-attribute lookup
:meth:`~repro.core.uwsdt.UWSDT.placeholder_rows_on` — reach lines 2–6.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...obs.metrics import get_registry
from ...relational.errors import RepresentationError, SchemaError
from ...relational.predicates import And, AttrConst, Predicate, is_index_equality
from ...relational.schema import RelationSchema
from ...relational.values import BOTTOM, PLACEHOLDER
from ..component import Component, fill_placeholders
from ..fields import FieldRef
from ..uwsdt import UWSDT

#: A raw template row: the tuple id followed by the attribute values.
Row = Tuple[Any, ...]


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #


def _add_result_relation(uwsdt: UWSDT, target: str, attributes: Sequence[str]) -> None:
    """Declare result relation ``target``; its template is loaded when the rows are known."""
    if uwsdt.schema.has_relation(target):
        raise SchemaError(f"relation {target!r} already exists")
    uwsdt.add_relation(RelationSchema(target, tuple(attributes)))


class _FieldCopies:
    """The field copies (``ext``) one operator call has made and not yet applied.

    A copy only adds a column, so copies wait here and reach the engine as
    one :meth:`~repro.core.uwsdt.UWSDT.copy_fields` — one ``ext_many`` per
    touched component — when the operator is done, or earlier, by
    :meth:`flush`, before it touches the component store in any other way:
    a merge, a replacement, a new component, or a read of a copied field.
    The store then sees the same writes in the same order as with every copy
    applied at once, with runs of copies merged.  Reading a column the
    component had before the copies needs no flush.  The buffer lives and
    dies with one operator call: services run operators concurrently, so no
    pending copy is kept on the engine or in this module.
    """

    __slots__ = ("uwsdt", "pending")

    def __init__(self, uwsdt: UWSDT) -> None:
        self.uwsdt = uwsdt
        self.pending: List[Tuple[FieldRef, FieldRef]] = []

    def flush(self) -> UWSDT:
        """Apply the pending copies; returns the engine."""
        if self.pending:
            self.uwsdt.copy_fields(self.pending)
            self.pending = []
        return self.uwsdt


def _copy_placeholder_fields(
    copies: _FieldCopies,
    source: str,
    source_tid: Any,
    target: str,
    target_tid: Any,
    attributes: Iterable[str],
) -> None:
    """Copy ``source.tid.A`` to ``target.tid.A`` for each attribute ``A``, into ``copies``."""
    copies.pending.extend(
        (FieldRef(source, source_tid, a), FieldRef(target, target_tid, a)) for a in attributes
    )


def _drop_result_fields(uwsdt: UWSDT, relation: str, tuple_id: Any) -> None:
    """Remove the fields of a result tuple that no world keeps from the components."""
    for attribute in uwsdt.uncertain_tuples(relation).get(tuple_id, ()):
        field = FieldRef(relation, tuple_id, attribute)
        cid = uwsdt.component_of(field)
        reduced = uwsdt.components[cid].project_away([field])
        if reduced is None:
            uwsdt.remove_component(cid)
        else:
            uwsdt.replace_component(cid, reduced)


def _delete_in_worlds(
    copies: _FieldCopies, cid: int, relation: str, row: Row, failing: Sequence[int]
) -> bool:
    """Delete result tuple ``row`` in the ``failing`` local worlds of component ``cid``.

    Lines 4–6 of Figure 16 (:meth:`~repro.core.component.Component.delete_tuple`):
    returns True iff no local world keeps the tuple; its fields are then gone
    from the components again and the caller leaves the row out of the
    result template.
    """
    uwsdt = copies.flush()
    component, deleted = uwsdt.components[cid].delete_tuple(relation, row[0], failing)
    if failing:
        uwsdt.replace_component(cid, component)
    if deleted:
        _drop_result_fields(uwsdt, relation, row[0])
    return deleted


def _merge_target_components(copies: _FieldCopies, fields: Sequence[FieldRef]) -> int:
    """Ensure all placeholder ``fields`` live in one component; return its cid."""
    uwsdt = copies.flush()
    cids = []
    for field in fields:
        cid = uwsdt.component_of(field)
        if cid is None:
            raise RepresentationError(f"field {field.label()} has no component")
        cids.append(cid)
    return uwsdt.merge_components(cids)


# --------------------------------------------------------------------------- #
# Selection
# --------------------------------------------------------------------------- #


def _count_select(rows_scanned: int, rows_through_components: int) -> None:
    """Once per selection, never per row (docs/observability.md)."""
    registry = get_registry()
    registry.counter("repro.uwsdt_ops.rows_scanned").inc(rows_scanned)
    registry.counter("repro.uwsdt_ops.rows_through_components").inc(rows_through_components)


def select(
    uwsdt: UWSDT,
    source: str,
    target: str,
    predicate: Predicate,
    key: Optional[AttrConst] = None,
) -> None:
    """Selection ``P := σ_pred(R)`` on a UWSDT (the algorithm of Figure 16, generalized).

    A selection is a predicate: one generated scan judges the template rows as
    one-world data, and only the rows with a ``?`` on a referenced attribute —
    taken from :meth:`~repro.core.uwsdt.UWSDT.placeholder_rows_on` — go
    through Figure 16's lines 2–6, judged by the row check, which is compiled
    only when there are such rows.  With a ``key`` — an index-equality
    conjunct ``A = c`` of ``predicate``, and a bare equality is its own key
    by default — the scan reads only the template index's bucket under ``c``
    (a bare equality adopts it), and of the rows with a ``?`` only those whose
    ``A`` is ``c`` or ``?`` are visited: one with a certain ``A ≠ c`` fails
    line 1 for every local world and is dropped there without a component
    write anyway.  The result holds the rows the template decides, in
    template order, then the rows the components decide, in template order.
    """
    source_schema = uwsdt.schema.relation(source)
    referenced = predicate.attributes()
    for attribute in referenced:
        source_schema.position(attribute)
    _add_result_relation(uwsdt, target, source_schema.attributes)

    template = uwsdt.templates[source]
    schema = template.schema
    uncertain = uwsdt.uncertain_tuples(source)
    open_rows = uwsdt.placeholder_rows_on(source, referenced) if uncertain else []
    if key is None and is_index_equality(predicate):
        key = predicate
    if key is not None:
        bucket = uwsdt.template_index(source, key.attribute).bucket(key.constant)
        rows_scanned = len(bucket)
        # Every row under ``c`` meets ``A = c``: a bare equality keeps them all.
        decided = list(bucket) if key is predicate else predicate.compile_scan(schema)(bucket)
        position, constant = schema.position(key.attribute), key.constant
        open_rows = [
            entry
            for entry in open_rows
            if (value := entry[0][position]) is PLACEHOLDER or value == constant
        ]
    else:
        # Compiled against the raw template layout: certain rows are scanned as
        # in one world, local worlds are judged on a filled-in copy of the row.
        rows_scanned = len(template)
        decided = predicate.compile_scan(schema)(template)
    _count_select(rows_scanned, len(open_rows))
    if not uncertain:
        uwsdt.load_template(target, decided, distinct=True)
        return

    copies = _FieldCopies(uwsdt)
    # Line 1 of Figure 16: no ``?`` on a referenced attribute.
    template_decides = set(referenced).isdisjoint

    def kept_by_template(row: Row, placeholders: Tuple[str, ...]) -> bool:
        """Is an indexed row that the scan passed kept on the template's word?"""
        if not template_decides(placeholders):
            return False  # its components decide, below
        _copy_placeholder_fields(copies, source, row[0], target, row[0], placeholders)
        return True

    conjuncts = [
        (set(part.attributes()), part)
        for part in (predicate.parts if isinstance(predicate, And) else ())
    ]

    def keeps(row: Row, placeholders: Tuple[str, ...]) -> bool:
        """Figure 16 for a row with a ``?`` on a referenced attribute: is it kept?"""
        tuple_id = row[0]
        if any(
            attributes.isdisjoint(placeholders) and not part.evaluate(schema, row)
            for attributes, part in conjuncts
        ):
            # Line 1 per conjunct: one over certain fields fails, so no world
            # keeps the tuple and no component needs copying or merging.
            return False
        _copy_placeholder_fields(copies, source, tuple_id, target, tuple_id, placeholders)
        # The condition depends on uncertain fields: keep the tuple and filter
        # its local worlds (lines 2-6 of Figure 16).
        uncertain_refs = [a for a in referenced if a in placeholders]
        cid = _merge_target_components(
            copies, [FieldRef(target, tuple_id, a) for a in uncertain_refs]
        )
        component = uwsdt.components[cid]
        slots = component.slots(target, tuple_id, uncertain_refs, schema.position)
        failing = []
        for index, local_world in enumerate(component.rows):
            values = fill_placeholders(row, slots, local_world)
            if values is not None and not satisfied(values):
                failing.append(index)
        return not _delete_in_worlds(copies, cid, target, row, failing)

    placeholders_of = uncertain.get
    kept = [
        row
        for row in decided
        if (placeholders := placeholders_of(row[0])) is None or kept_by_template(row, placeholders)
    ]
    if open_rows:
        satisfied = predicate.compile(schema)  # read by ``keeps``
        kept.extend(row for row, placeholders in open_rows if keeps(row, placeholders))
    copies.flush()
    uwsdt.load_template(target, kept, distinct=True)


# --------------------------------------------------------------------------- #
# Projection
# --------------------------------------------------------------------------- #


def project(uwsdt: UWSDT, source: str, target: str, attributes: Sequence[str]) -> None:
    """Projection ``P := π_U(R)`` on a UWSDT.

    Presence information carried by projected-away placeholder fields is
    preserved: it is propagated into a kept placeholder field, or — when all
    kept fields are certain — a kept field is turned into a placeholder whose
    component encodes "value if present, ``⊥`` otherwise" (the "exists
    column" device discussed at the end of Section 4).
    """
    source_schema = uwsdt.schema.relation(source)
    for attribute in attributes:
        source_schema.position(attribute)
    _add_result_relation(uwsdt, target, attributes)

    template = uwsdt.templates[source]
    kept = operator.itemgetter(0, *(template.schema.position(a) for a in attributes))
    uncertain = uwsdt.uncertain_tuples(source)
    copies = _FieldCopies(uwsdt)

    def projected(row: Row, placeholders: Tuple[str, ...]) -> Row:
        """The result row of one row with placeholders, its components extended."""
        tuple_id = row[0]
        kept_placeholders = [a for a in attributes if a in placeholders]

        # Which dropped placeholder fields may mark the tuple as absent?
        presence_fields: List[FieldRef] = []
        for attribute in placeholders:
            if attribute in attributes:
                continue
            field = FieldRef(source, tuple_id, attribute)
            component = uwsdt.components[uwsdt.component_of(field)]
            if any(value is BOTTOM for value in component.column(field)):
                presence_fields.append(field)

        if kept_placeholders or not presence_fields:
            _copy_placeholder_fields(copies, source, tuple_id, target, tuple_id, kept_placeholders)
            if not presence_fields:
                return kept(row)
            target_fields = [FieldRef(target, tuple_id, a) for a in kept_placeholders]
            cid = _merge_target_components(copies, target_fields + presence_fields)
            component = uwsdt.components[cid]
            presence_positions = [component.position(f) for f in presence_fields]
            absent_rows = [
                index
                for index, local_world in enumerate(component.rows)
                if any(local_world[p] is BOTTOM for p in presence_positions)
            ]
            if absent_rows:
                component, _ = component.delete_tuple(target, tuple_id, absent_rows)
                uwsdt.replace_component(cid, component)
            return kept(row)

        # All kept attributes are certain: turn the first kept attribute into a
        # placeholder that encodes tuple presence.
        kept_row = kept(row)
        cid = _merge_target_components(copies, presence_fields)
        presence = uwsdt.components[cid].ext_presence(
            FieldRef(target, tuple_id, attributes[0]), kept_row[1], presence_fields
        )
        uwsdt.replace_component(cid, presence)
        return (tuple_id, PLACEHOLDER) + kept_row[2:]

    if not uncertain:
        result = list(map(kept, template))
    else:
        placeholders_of = uncertain.get
        result = [
            kept(row)
            if (placeholders := placeholders_of(row[0])) is None
            else projected(row, placeholders)
            for row in template
        ]
        copies.flush()
    uwsdt.load_template(target, result, distinct=True)


# --------------------------------------------------------------------------- #
# Renaming, union, product
# --------------------------------------------------------------------------- #


def rename(uwsdt: UWSDT, source: str, target: str, old: str, new: str) -> None:
    """Renaming ``P := δ_{A→A'}(R)`` on a UWSDT."""
    renamed_schema = uwsdt.schema.relation(source).rename_attribute(old, new, target)
    _add_result_relation(uwsdt, target, renamed_schema.attributes)
    uwsdt.load_template(target, list(uwsdt.templates[source]), distinct=True)
    uwsdt.copy_fields(
        [
            (FieldRef(source, tuple_id, a), FieldRef(target, tuple_id, new if a == old else a))
            for tuple_id, placeholders in uwsdt.uncertain_tuples(source).items()
            for a in placeholders
        ]
    )


def union(uwsdt: UWSDT, left: str, right: str, target: str) -> None:
    """Union ``T := R ∪ S`` on a UWSDT."""
    left_schema = uwsdt.schema.relation(left)
    if left_schema.attributes != uwsdt.schema.relation(right).attributes:
        raise SchemaError("union requires identical attribute lists")
    _add_result_relation(uwsdt, target, left_schema.attributes)
    rows = [((side, row[0]), *row[1:]) for side in (left, right) for row in uwsdt.templates[side]]
    # The side-tagged tuple ids are distinct unless a relation meets itself.
    uwsdt.load_template(target, rows, distinct=left != right)
    copies = _FieldCopies(uwsdt)
    for side in (left, right):
        for tuple_id, placeholders in uwsdt.uncertain_tuples(side).items():
            _copy_placeholder_fields(copies, side, tuple_id, target, (side, tuple_id), placeholders)
    copies.flush()


def _pair_builder(copies: _FieldCopies, left: str, right: str, target: str):
    """``pair(left_row, right_row)``: the rows' concatenation as a row of ``target``,
    the placeholder fields of either side copied under its tuple id."""
    uncertain_left = copies.uwsdt.uncertain_tuples(left)
    uncertain_right = copies.uwsdt.uncertain_tuples(right)

    def pair(left_row: Row, right_row: Row) -> Row:
        left_tid, right_tid = left_row[0], right_row[0]
        target_tid = (left_tid, right_tid)
        if left_tid in uncertain_left:
            _copy_placeholder_fields(
                copies, left, left_tid, target, target_tid, uncertain_left[left_tid]
            )
        if right_tid in uncertain_right:
            _copy_placeholder_fields(
                copies, right, right_tid, target, target_tid, uncertain_right[right_tid]
            )
        return (target_tid, *left_row[1:], *right_row[1:])

    return pair


def product(uwsdt: UWSDT, left: str, right: str, target: str) -> None:
    """Product ``T := R × S`` on a UWSDT (attribute sets must be disjoint)."""
    target_schema = uwsdt.schema.relation(left).concat(uwsdt.schema.relation(right), target)
    _add_result_relation(uwsdt, target, target_schema.attributes)
    copies = _FieldCopies(uwsdt)
    pair = _pair_builder(copies, left, right, target)
    rows = [
        pair(left_row, right_row)
        for left_row in uwsdt.templates[left]
        for right_row in uwsdt.templates[right]
    ]
    copies.flush()
    uwsdt.load_template(target, rows, distinct=True)


# --------------------------------------------------------------------------- #
# Equi-join (the operator actually exercised by query Q5)
# --------------------------------------------------------------------------- #


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

    Pairs whose join attributes are both certain are matched with a hash
    join on the templates.  Pairs involving an uncertain join attribute are
    matched against the candidate values stored in the components, and the
    resulting tuple's presence is conditioned on the join values agreeing —
    the composition the paper describes for selections with condition
    ``A θ B``.

    With ``use_template_index=True`` (the executor's index nested-loop
    join), the right side must be a stored relation: instead of scanning
    its template to build an ephemeral hash table, each certain left value
    probes the engine's cached ``template_index`` — the "employing indices"
    tuning of Section 5.  Placeholder right rows are found under the ``?``
    key of the same index.
    """
    left_schema = uwsdt.schema.relation(left)
    right_schema = uwsdt.schema.relation(right)
    target_schema = left_schema.concat(right_schema, target)
    _add_result_relation(uwsdt, target, target_schema.attributes)

    # Positions in raw template rows (the tid column comes first).
    left_position = left_schema.position(left_attr) + 1
    right_position = right_schema.position(right_attr) + 1
    target_position = uwsdt.templates[target].schema.position
    copies = _FieldCopies(uwsdt)
    pair = _pair_builder(copies, left, right, target)
    rows: List[Row] = []

    def candidates(relation: str, tuple_id: Any, attribute: str) -> Set[Any]:
        field = FieldRef(relation, tuple_id, attribute)
        component = uwsdt.components[uwsdt.component_of(field)]
        return {v for v in component.column(field) if v is not BOTTOM}

    template_index = None
    certain_index: Dict[Any, List[Row]] = {}
    if use_template_index:
        template_index = uwsdt.template_index(right, right_attr)
        uncertain_right = template_index.lookup(PLACEHOLDER)
    else:
        uncertain_right = []
        for right_row in uwsdt.templates[right]:
            join_value = right_row[right_position]
            if join_value is PLACEHOLDER:
                uncertain_right.append(right_row)
            else:
                certain_index.setdefault(join_value, []).append(right_row)
    uncertain_right = [
        (right_row, candidates(right, right_row[0], right_attr)) for right_row in uncertain_right
    ]

    def probe_certain(value: Any) -> List[Row]:
        if template_index is not None:
            try:
                hash(value)
            except TypeError:
                return []
            return template_index.lookup(value)
        return certain_index.get(value, [])

    def emit_conditioned(left_row: Row, right_row: Row) -> None:
        """Emit a pair whose presence depends on the join values agreeing."""
        row = pair(left_row, right_row)
        join_values = (
            (left_attr, left_row[left_position]),
            (right_attr, right_row[right_position]),
        )
        check = [attribute for attribute, value in join_values if value is PLACEHOLDER]
        cid = _merge_target_components(copies, [FieldRef(target, row[0], a) for a in check])
        component = uwsdt.components[cid]
        slots = component.slots(target, row[0], check, target_position)
        left_value, right_value = target_position(left_attr), target_position(right_attr)
        failing = []
        for index, local_world in enumerate(component.rows):
            values = fill_placeholders(row, slots, local_world)
            if values is not None and values[left_value] != values[right_value]:
                failing.append(index)
        if not _delete_in_worlds(copies, cid, target, row, failing):
            rows.append(row)

    for left_row in uwsdt.templates[left]:
        left_join_value = left_row[left_position]
        if left_join_value is not PLACEHOLDER:
            for right_row in probe_certain(left_join_value):
                rows.append(pair(left_row, right_row))
            for right_row, right_candidates in uncertain_right:
                if left_join_value in right_candidates:
                    emit_conditioned(left_row, right_row)
        else:
            left_candidates = candidates(left, left_row[0], left_attr)
            matched_right: Set[Any] = set()
            for value in left_candidates:
                for right_row in probe_certain(value):
                    if right_row[0] in matched_right:
                        continue
                    matched_right.add(right_row[0])
                    emit_conditioned(left_row, right_row)
            for right_row, right_candidates in uncertain_right:
                if left_candidates & right_candidates:
                    emit_conditioned(left_row, right_row)
    copies.flush()
    uwsdt.load_template(target, rows, distinct=True)


# --------------------------------------------------------------------------- #
# Difference
# --------------------------------------------------------------------------- #


def _may_be_equal(left_row: Row, right_row: Row) -> bool:
    """False iff two template rows certainly differ on some attribute."""
    return all(
        lv == rv or lv is PLACEHOLDER or rv is PLACEHOLDER
        for lv, rv in zip(left_row[1:], right_row[1:])
    )


def difference(uwsdt: UWSDT, left: str, right: str, target: str) -> None:
    """Difference ``P := R − S`` on a UWSDT.

    As in the paper, this is by far the most expensive operator: pairs of
    possibly-equal tuples force component composition.  Certain/certain
    pairs are resolved on the templates alone, as a one-world hash
    difference; a certain left tuple is then only compared with the right
    tuples the placeholder index lists.
    """
    left_schema = uwsdt.schema.relation(left)
    if left_schema.attributes != uwsdt.schema.relation(right).attributes:
        raise SchemaError("difference requires identical attribute lists")
    _add_result_relation(uwsdt, target, left_schema.attributes)
    position_of = uwsdt.templates[target].schema.position
    attributes = left_schema.attributes
    rows: List[Row] = []

    uncertain_left = uwsdt.uncertain_tuples(left)
    uncertain_right = uwsdt.uncertain_tuples(right)
    right_rows = list(uwsdt.templates[right])
    certain_right = {row[1:] for row in right_rows if row[0] not in uncertain_right}
    open_right = [row for row, _ in uwsdt.placeholder_rows(right)]
    copies = _FieldCopies(uwsdt)

    for left_row in uwsdt.templates[left]:
        left_tid = left_row[0]
        left_placeholders: Sequence[str] = uncertain_left.get(left_tid, ())
        if not left_placeholders and left_row[1:] in certain_right:
            continue  # a certain, certainly equal right tuple removes it outright
        conditional_matches = [
            right_row
            for right_row in (right_rows if left_placeholders else open_right)
            if _may_be_equal(left_row, right_row)
        ]

        if not left_placeholders and conditional_matches:
            # The left tuple is fully certain but its membership in the result
            # depends on uncertain right tuples: introduce a presence placeholder
            # (the "exists column" device) on the first attribute.
            left_placeholders = attributes[:1]
            target_row = (left_tid, PLACEHOLDER) + left_row[2:]
            copies.flush().new_component(
                Component.certain(FieldRef(target, left_tid, attributes[0]), left_row[1])
            )
        else:
            target_row = left_row
            _copy_placeholder_fields(copies, left, left_tid, target, left_tid, left_placeholders)

        target_fields = [FieldRef(target, left_tid, a) for a in left_placeholders]
        for right_row in conditional_matches:
            right_placeholders = uncertain_right.get(right_row[0], ())
            right_fields = [FieldRef(right, right_row[0], a) for a in right_placeholders]
            cid = _merge_target_components(copies, target_fields + right_fields)
            component = uwsdt.components[cid]
            target_slots = component.slots(target, left_tid, left_placeholders, position_of)
            right_slots = component.slots(right, right_row[0], right_placeholders, position_of)
            failing = []
            for index, local_world in enumerate(component.rows):
                left_values = fill_placeholders(target_row, target_slots, local_world)
                if left_values is None:
                    continue
                # A right tuple absent from this world removes nothing.
                right_values = fill_placeholders(right_row, right_slots, local_world)
                if right_values is not None and left_values[1:] == right_values[1:]:
                    failing.append(index)
            if _delete_in_worlds(copies, cid, target, target_row, failing):
                break  # no world keeps the tuple: it stays out of the result
        else:
            rows.append(target_row)
    copies.flush()
    uwsdt.load_template(target, rows, distinct=True)
