"""Uniform WSDs with template relations (UWSDTs) — the engine-grade representation.

Section 3 of the paper introduces UWSDTs to avoid relations of arbitrary
arity: all uncertain values are stored in a fixed-schema triple of relations

* ``C[FID, LWID, VAL]``  — component values per field and local world,
* ``F[FID, CID]``        — which component defines which field,
* ``W[CID, LWID, PR]``   — local worlds of each component and their probability,

plus one *template relation* ``R⁰`` per database relation, holding certain
values and the ``?`` placeholder for uncertain fields.

This class keeps the same information in an equivalent, faster-to-access
layout: template relations are substrate :class:`~repro.relational.relation.Relation`
objects keyed by a tuple-id column, and the C/F/W content is held as a
dictionary of :class:`~repro.core.component.Component` objects indexed by
component id.  :meth:`to_uniform_relations` materializes the exact
fixed-schema relations of the paper (and :meth:`from_uniform_relations`
reads them back), so the uniform encoding itself is also implemented and
tested; the dictionary layout is an optimization the paper performs inside
PostgreSQL with indexes on ``FID`` and ``CID``.

Tuple presence semantics follow the WSD convention: a template tuple is
present in a chosen world unless one of its placeholder fields takes the
``⊥`` value in that world.

A query (Section 4's ``Q̂``) only *adds* relations and components, so
:meth:`UWSDT.copy` shares the template relations and the (immutable)
components with the original and copies only the dictionaries that index
them.  Whatever is derived from a template — its hash indexes, its column
store, the planner's statistics — lives on the template relation
(:meth:`Relation.derived <repro.relational.relation.Relation.derived>`), so
an engine and all its copies derive each structure once per template
version.  The one in-place template write, :meth:`UWSDT.add_template_tuple`,
first gives the writing engine a private copy of a shared template.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..relational.database import Database
from ..relational.errors import ArityError, RepresentationError
from ..relational.indexes import HashIndex, hash_index
from ..relational.relation import Relation, Row
from ..relational.schema import DatabaseSchema, RelationSchema
from ..relational.values import BOTTOM, PLACEHOLDER, is_placeholder
from ..worlds.orset import OrSet, OrSetRelation
from ..worlds.worldset import WorldSet
from .component import Component
from .fields import FieldRef
from .wsd import WSD
from .wsdt import WSDT

#: Name of the tuple-id column added to template relations.
TID = "__tid__"

#: A template row with a placeholder and its ``?`` attributes in schema order.
PlaceholderRow = Tuple[Row, Tuple[str, ...]]
#: A :meth:`UWSDT.placeholder_rows` memo entry: the template and its version it
#: was built from, the rows, and per attribute the positions of the rows in
#: that list with a ``?`` on it (ascending).
_PlaceholderMemo = Tuple[Relation, int, List[PlaceholderRow], Dict[str, List[int]]]


def _positions_by_attribute(rows: Sequence[PlaceholderRow]) -> Dict[str, List[int]]:
    """Per attribute, the positions in ``rows`` of the rows with a ``?`` on it."""
    by_attribute: Dict[str, List[int]] = {}
    for position, (_, placeholders) in enumerate(rows):
        for attribute in placeholders:
            by_attribute.setdefault(attribute, []).append(position)
    return by_attribute


class UWSDT:
    """A uniform world-set decomposition with template relations."""

    def __init__(self, schema: Optional[DatabaseSchema] = None) -> None:
        self.schema = schema or DatabaseSchema()
        #: Template relations, one per represented relation, keyed by name.
        self.templates: Dict[str, Relation] = {}
        #: Components keyed by component id.
        self.components: Dict[int, Component] = {}
        #: Which component defines which placeholder field (the ``F`` relation).
        self.field_to_cid: Dict[FieldRef, int] = {}
        #: The placeholder index: ``relation -> tuple id -> placeholder
        #: attributes`` in schema order (``F`` grouped by tuple).  Written only
        #: by :meth:`_map_field` / :meth:`_unmap_field`; a template row absent
        #: from it is fully certain and never needs the component machinery.
        self._placeholders: Dict[str, Dict[Any, Tuple[str, ...]]] = {}
        #: Memo of :meth:`placeholder_rows`: ``relation -> (template, version,
        #: rows, attribute -> positions in rows)``.  Dropped by
        #: :meth:`_map_field` / :meth:`_unmap_field`.
        self._placeholder_rows: Dict[str, _PlaceholderMemo] = {}
        #: Names of the templates no other engine holds: only these may be
        #: written in place.  :meth:`copy` empties it on both sides.
        self._private_templates: Set[str] = set()
        self._next_cid = 1
        for relation_schema in self.schema:
            self._init_template(relation_schema)

    # ------------------------------------------------------------------ #
    # Template and component plumbing
    # ------------------------------------------------------------------ #

    def _init_template(self, relation_schema: RelationSchema) -> None:
        template_schema = RelationSchema(
            relation_schema.name, (TID,) + relation_schema.attributes
        )
        self.templates[relation_schema.name] = Relation(template_schema)
        self._private_templates.add(relation_schema.name)

    def add_relation(self, relation_schema: RelationSchema) -> None:
        """Declare a new (initially empty) represented relation."""
        if self.schema.has_relation(relation_schema.name):
            raise RepresentationError(f"relation {relation_schema.name!r} already present")
        self.schema.add(relation_schema)
        self._init_template(relation_schema)

    def add_template_tuple(self, relation_name: str, tuple_id: Any, values: Sequence[Any]) -> None:
        """Add one template tuple (values may include ``PLACEHOLDER``).

        A template shared with a copy is first replaced by a private
        :meth:`Relation.copy <repro.relational.relation.Relation.copy>`, so
        the write reaches this engine only.
        """
        relation_schema = self.schema.relation(relation_name)
        if len(values) != relation_schema.arity:
            raise RepresentationError(
                f"template tuple for {relation_name!r} has arity {len(values)}, "
                f"expected {relation_schema.arity}"
            )
        if relation_name not in self._private_templates:
            self.templates[relation_name] = self.templates[relation_name].copy()
            self._private_templates.add(relation_name)
        self.templates[relation_name].insert((tuple_id,) + tuple(values))

    def load_template(
        self, relation_name: str, rows: List[Row], distinct: bool = False
    ) -> None:
        """Replace a template's rows by ``rows``, built in one step.

        ``rows`` are raw template rows — the tuple id, then the values (which
        may include ``PLACEHOLDER``) — and are handed over as
        :meth:`Relation.from_tuples <repro.relational.relation.Relation.from_tuples>`
        takes them: the list is adopted, and ``distinct=True`` is the
        caller's proof that they are a set (distinct tuple ids).  This is how
        the loaders and every operator fill the relation they just declared.
        """
        schema = self.templates[relation_name].schema
        try:
            self.templates[relation_name] = Relation.from_tuples(schema, rows, distinct)
        except ArityError as error:
            raise RepresentationError(
                f"malformed template tuple for {relation_name!r}: {error}"
            ) from error
        self._private_templates.add(relation_name)

    def relation_placeholder_count(self, relation_name: str) -> int:
        """Number of ``?`` fields of one relation (its slice of ``F``).

        Together with the template relation's version this fully determines
        the relation's planner statistics — samples read only the template,
        densities only this count — so the statistics catalog uses the pair
        as its invalidation key: component surgery that merely rewires or
        extends components (the chase, ``Q̂`` intermediates) leaves cached
        entries valid, while anything adding or dropping a placeholder of
        the relation invalidates them.  Read off the placeholder index.
        """
        return sum(map(len, self._placeholders.get(relation_name, {}).values()))

    def uncertain_tuples(self, relation_name: str) -> Mapping[Any, Tuple[str, ...]]:
        """The placeholder index of one relation: ``tuple id -> ? attributes``.

        Read-only for callers; attributes are in schema order.  Every
        consumer splits its work on it: template rows whose id is absent are
        handled by one-world processing on the raw rows, the (few) others go
        through their components.
        """
        return self._placeholders.get(relation_name, {})

    def placeholder_rows(self, relation_name: str) -> List[PlaceholderRow]:
        """The indexed template rows of one relation with their ``?`` attributes.

        ``[(row, uncertain_tuples(name)[row[0]]) ...]`` in template order —
        the rows that reach the component machinery, without a scan of the
        template per consumer.  Memoised per relation; the entry is valid
        while the template object and its ``version`` are unchanged, and
        :meth:`_map_field` / :meth:`_unmap_field` drop it.  Read-only for
        callers.
        """
        return self._placeholder_memo(relation_name)[2]

    def placeholder_rows_on(
        self, relation_name: str, attributes: Iterable[str]
    ) -> List[PlaceholderRow]:
        """The :meth:`placeholder_rows` with a ``?`` on one of ``attributes``, in template order.

        Read off the memo entry's per-attribute positions: a selection or a
        dependency visits the rows its attributes make uncertain, not every
        row with a placeholder.
        """
        _, _, rows, by_attribute = self._placeholder_memo(relation_name)
        hits = [by_attribute[a] for a in set(attributes) if a in by_attribute]
        if not hits:
            return []
        positions = hits[0] if len(hits) == 1 else sorted(set().union(*hits))
        return [rows[position] for position in positions]

    def _placeholder_memo(self, relation_name: str) -> _PlaceholderMemo:
        """The valid memo entry of one relation, built from a template scan when needed."""
        memo = self._memoised_placeholder_rows(relation_name)
        if memo is None:
            template = self.templates[relation_name]
            uncertain = self.uncertain_tuples(relation_name)
            rows = [(row, uncertain[row[0]]) for row in template if row[0] in uncertain]
            memo = (template, template.version, rows, _positions_by_attribute(rows))
            self._placeholder_rows[relation_name] = memo
        return memo

    def _memoised_placeholder_rows(self, relation_name: str) -> Optional[_PlaceholderMemo]:
        """The memo entry of :meth:`placeholder_rows`, or None when absent or stale."""
        template = self.templates[relation_name]
        memo = self._placeholder_rows.get(relation_name)
        if memo is None or memo[0] is not template or memo[1] != template.version:
            return None
        return memo

    def _map_field(self, field: FieldRef, cid: int) -> None:
        existing = self.field_to_cid.get(field)
        if existing is not None:
            raise RepresentationError(
                f"field {field.label()} already assigned to component {existing}"
            )
        self.field_to_cid[field] = cid
        self._placeholder_rows.pop(field.relation, None)
        rows = self._placeholders.setdefault(field.relation, {})
        attributes = rows.get(field.tuple_id, ()) + (field.attribute,)
        if len(attributes) > 1:
            order = self.schema.relation(field.relation).position
            attributes = tuple(sorted(attributes, key=order))
        rows[field.tuple_id] = attributes

    def _unmap_field(self, field: FieldRef) -> None:
        if self.field_to_cid.pop(field, None) is None:
            return
        self._placeholder_rows.pop(field.relation, None)
        rows = self._placeholders[field.relation]
        attributes = tuple(a for a in rows[field.tuple_id] if a != field.attribute)
        if attributes:
            rows[field.tuple_id] = attributes
        else:
            del rows[field.tuple_id]

    def new_component(self, component: Component) -> int:
        """Register a component and return its component id."""
        cid = self._next_cid
        self._next_cid += 1
        self.components[cid] = component
        for field in component.fields:
            self._map_field(field, cid)
        return cid

    def replace_component(self, cid: int, component: Component) -> None:
        """Replace the component stored under ``cid``; only fields it drops or adds are remapped."""
        old = self.components[cid]
        if component.fields != old.fields:
            for field in old.fields:
                if not component.has_field(field):
                    self._unmap_field(field)
            for field in component.fields:
                if not old.has_field(field):
                    self._map_field(field, cid)
        self.components[cid] = component

    def copy_fields(self, pairs: Iterable[Tuple[FieldRef, FieldRef]]) -> None:
        """Add each ``target`` as a copy of its ``source`` to the component defining it (``ext``).

        One ``ext_many`` per component: the field map takes the targets in
        the order given, and each component receives its pairs in that
        order, so the result equals the pairs copied one by one, while a
        component receiving k copies is rebuilt once, not k times.  Every
        source must already have a component and no target may have one;
        otherwise nothing changes.
        """
        batches: Dict[int, List[Tuple[FieldRef, FieldRef]]] = {}
        mapped: Dict[FieldRef, int] = {}
        for source, target in pairs:
            cid = self.field_to_cid.get(source)
            if cid is None:
                raise RepresentationError(
                    f"expected a component for placeholder field {source.label()}"
                )
            existing = self.field_to_cid.get(target, mapped.get(target))
            if existing is not None:
                raise RepresentationError(
                    f"field {target.label()} already assigned to component {existing}"
                )
            mapped[target] = cid
            batches.setdefault(cid, []).append((source, target))
        extended = {cid: self.components[cid].ext_many(batch) for cid, batch in batches.items()}
        for target, cid in mapped.items():
            self._map_field(target, cid)
        self.components.update(extended)

    def remove_component(self, cid: int) -> None:
        component = self.components.pop(cid)
        for field in component.fields:
            self._unmap_field(field)

    def component_of(self, field: FieldRef) -> Optional[int]:
        """Component id defining ``field`` (None for certain template fields)."""
        return self.field_to_cid.get(field)

    def merge_components(self, cids: Sequence[int]) -> int:
        """Compose several components into one; return the surviving cid."""
        unique = sorted(set(cids))
        merged = self.components[unique[0]]
        for cid in unique[1:]:
            absorbed = self.components.pop(cid)
            merged = merged.compose(absorbed)
            for field in absorbed.fields:
                self.field_to_cid[field] = unique[0]
        self.components[unique[0]] = merged
        return unique[0]

    def template_index(self, relation_name: str, attribute: str) -> HashIndex:
        """A (cached) hash index over one attribute of a template relation.

        The index maps template values — including the ``?`` placeholder
        sentinel — to full template rows.  Pushed-down equality selections
        probe it with the constant plus ``?`` instead of scanning the whole
        template.  It is kept on the template relation and rebuilt when the
        template changes (:func:`~repro.relational.indexes.hash_index`), so
        copies sharing the template share the index.
        """
        return hash_index(self.templates[relation_name], (attribute,))

    def template_rows(self, relation_name: str) -> Iterator[Tuple[Any, Tuple[Any, ...]]]:
        """Yield ``(tuple_id, values)`` pairs of one template (values without the tid column).

        The tid column is always stored first (:meth:`_init_template`), so
        consumers on a hot path read the raw template rows instead and skip
        the per-row slice.
        """
        for row in self.templates[relation_name]:
            yield row[0], row[1:]

    # ------------------------------------------------------------------ #
    # Statistics (the columns of Figure 27 / Figure 28)
    # ------------------------------------------------------------------ #

    def component_count(self) -> int:
        """``#comp`` of Figure 27: number of components."""
        return len(self.components)

    def multi_placeholder_component_count(self) -> int:
        """``#comp>1`` of Figure 27: components spanning more than one placeholder."""
        return sum(1 for component in self.components.values() if component.arity > 1)

    def component_relation_size(self) -> int:
        """``|C|`` of Figure 27: rows of the uniform component relation ``C``."""
        return sum(
            component.arity * component.size for component in self.components.values()
        )

    def template_size(self, relation_name: Optional[str] = None) -> int:
        """``|R|`` of Figure 27: number of template tuples."""
        if relation_name is not None:
            return len(self.templates[relation_name])
        return sum(len(template) for template in self.templates.values())

    def placeholder_count(self) -> int:
        """Number of ``?`` fields across all templates."""
        return len(self.field_to_cid)

    def component_size_distribution(self) -> Dict[int, int]:
        """Histogram ``placeholders-per-component -> count`` (Figure 28)."""
        histogram: Dict[int, int] = {}
        for component in self.components.values():
            histogram[component.arity] = histogram.get(component.arity, 0) + 1
        return histogram

    def statistics(self) -> Dict[str, int]:
        """All Figure 27 statistics in one dictionary."""
        return {
            "components": self.component_count(),
            "components_gt1": self.multi_placeholder_component_count(),
            "component_relation_size": self.component_relation_size(),
            "template_size": self.template_size(),
            "placeholders": self.placeholder_count(),
        }

    def validate(self) -> None:
        """Check structural invariants (placeholder coverage, probability mass).

        The placeholder index must equal a scan of the templates in both
        directions: every ``?`` is indexed (and so has a component), and
        every indexed field is a ``?`` of an existing template row.  A valid
        :meth:`placeholder_rows` memo entry must equal the same scan.  The
        field map, too, is checked both ways: every component field maps to
        its component, and every entry is a ``?`` field of the component it
        names.
        """
        for relation_schema in self.schema:
            name, attributes = relation_schema.name, relation_schema.attributes
            scanned = {}
            for row in self.templates[name]:
                placeholders = tuple(
                    a for a, value in zip(attributes, row[1:]) if is_placeholder(value)
                )
                if placeholders:
                    scanned[row[0]] = placeholders
            indexed = self.uncertain_tuples(name)
            if scanned != indexed:
                tuple_id = next(
                    t for t in list(scanned) + list(indexed) if scanned.get(t) != indexed.get(t)
                )
                raise RepresentationError(
                    f"tuple {tuple_id!r} of {name!r} has placeholders "
                    f"{scanned.get(tuple_id, ())!r} but is indexed (has components) for "
                    f"{indexed.get(tuple_id, ())!r}"
                )
            memoised = self._memoised_placeholder_rows(name)
            if memoised is not None:
                rows = [
                    (row, scanned[row[0]]) for row in self.templates[name] if row[0] in scanned
                ]
                if memoised[2] != rows or memoised[3] != _positions_by_attribute(rows):
                    raise RepresentationError(f"placeholder-row memo of {name!r} is out of date")
        for cid, component in self.components.items():
            component.validate()
            for field in component.fields:
                if self.field_to_cid.get(field) != cid:
                    raise RepresentationError(
                        f"field map out of sync for {field.label()} (component {cid})"
                    )
        # The other way: each entry names a component holding the field, and
        # the field is a ``?`` of the placeholder index — which then holds
        # exactly the field map's entries.
        for field, cid in self.field_to_cid.items():
            component = self.components.get(cid)
            if component is None or not component.has_field(field):
                raise RepresentationError(
                    f"field map sends {field.label()} to component {cid}, which does not hold it"
                )
            if field.attribute not in self.uncertain_tuples(field.relation).get(field.tuple_id, ()):
                raise RepresentationError(
                    f"field map holds {field.label()}, which is not a placeholder"
                )
        indexed = sum(len(a) for rows in self._placeholders.values() for a in rows.values())
        if len(self.field_to_cid) != indexed:
            raise RepresentationError("the placeholder index holds a field the field map lacks")

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    @classmethod
    def from_wsdt(cls, wsdt: WSDT) -> "UWSDT":
        """Build a UWSDT from a WSDT (same templates, components get ids)."""
        result = cls(DatabaseSchema(list(wsdt.schema)))
        for relation_schema in wsdt.schema:
            for tuple_id, fields in wsdt.templates[relation_schema.name].items():
                values = tuple(fields[a] for a in relation_schema.attributes)
                result.add_template_tuple(relation_schema.name, tuple_id, values)
        for component in wsdt.components:
            result.new_component(component)
        return result

    @classmethod
    def from_wsd(cls, wsd: WSD) -> "UWSDT":
        """Build a UWSDT from a WSD by first extracting templates."""
        return cls.from_wsdt(WSDT.from_wsd(wsd))

    @classmethod
    def from_relation(cls, relation: Relation, probabilistic: bool = True) -> "UWSDT":
        """A UWSDT of a fully certain relation (no placeholders at all)."""
        result = cls(DatabaseSchema([relation.schema]))
        rows = [(index, *row) for index, row in enumerate(relation, start=1)]
        result.load_template(relation.schema.name, rows, distinct=True)
        return result

    @classmethod
    def from_orset_relation(cls, orset: OrSetRelation, probabilistic: bool = True) -> "UWSDT":
        """Direct linear encoding of an or-set relation (the census ingestion path).

        Certain fields go straight to the template; each or-set field becomes
        a one-placeholder component.  This avoids materializing the
        field-per-component WSD for large relations.
        """
        return cls.from_orset_relations([orset], probabilistic)

    @classmethod
    def from_orset_relations(
        cls, orsets: Sequence[OrSetRelation], probabilistic: bool = True
    ) -> "UWSDT":
        """Linear encoding of several or-set relations into one UWSDT.

        The relations' or-sets are independent of each other, exactly as if
        each had been encoded separately — the multi-relation input the join
        queries (and the possible-worlds oracle) work on.
        """
        result = cls(DatabaseSchema([orset.schema for orset in orsets]))
        for orset in orsets:
            name, attributes = orset.schema.name, orset.schema.attributes
            template: List[Row] = []
            for index, row in enumerate(orset.rows, start=1):
                # One test per row, on its handful of classes: a row without
                # an or-set (the overwhelming majority) is adopted as it is.
                if not any(issubclass(cls_, OrSet) for cls_ in set(map(type, row))):
                    template.append((index, *row))
                    continue
                template_values: List[Any] = [index]
                for attribute, value in zip(attributes, row):
                    if not isinstance(value, OrSet):
                        template_values.append(value)
                        continue
                    template_values.append(PLACEHOLDER)
                    field = FieldRef(name, index, attribute)
                    if value.probabilities is not None:
                        component = Component(
                            (field,), [(v,) for v in value.values], list(value.probabilities)
                        )
                    elif probabilistic:
                        component = Component.uniform(field, value.values)
                    else:
                        component = Component((field,), [(v,) for v in value.values], None)
                    result.new_component(component)
                template.append(tuple(template_values))
            result.load_template(name, template, distinct=True)
        return result

    def to_wsdt(self) -> WSDT:
        """Convert back to the (non-uniform) WSDT representation."""
        templates: Dict[str, Dict[Any, Dict[str, Any]]] = {}
        for relation_schema in self.schema:
            template: Dict[Any, Dict[str, Any]] = {}
            for tuple_id, values in self.template_rows(relation_schema.name):
                template[tuple_id] = dict(zip(relation_schema.attributes, values))
            templates[relation_schema.name] = template
        return WSDT(
            DatabaseSchema(list(self.schema)), templates, list(self.components.values())
        )

    def to_wsd(self) -> WSD:
        """Convert to a plain WSD (singleton components for certain fields)."""
        return self.to_wsdt().to_wsd()

    def to_worldset(self, max_worlds: Optional[int] = 1_000_000) -> WorldSet:
        """The represented set of possible worlds (``rep``)."""
        return self.to_wsdt().to_worldset(max_worlds)

    rep = to_worldset

    @property
    def is_probabilistic(self) -> bool:
        return all(component.is_probabilistic for component in self.components.values())

    def copy(self) -> "UWSDT":
        """A copy sharing everything a query does not change, in O(relations + components).

        The template relations and the components (immutable) are shared;
        only the dictionaries indexing them are copied — ``templates``,
        ``components``, ``field_to_cid``, the placeholder index — and the
        :meth:`placeholder_rows` memo, whose entries check the template's
        identity and version.  Structures derived from a shared template
        (hash indexes, column stores, statistics) live on it and stay warm
        for both engines.  Afterwards neither engine owns a template: the
        first :meth:`add_template_tuple` on either side copies it.  The plan
        cache and the statistics catalog object are per engine and are not
        carried over, so the copy plans every query anew.
        """
        result = UWSDT()
        result.schema = DatabaseSchema(list(self.schema))
        result.templates = dict(self.templates)
        result.components = dict(self.components)
        result.field_to_cid = dict(self.field_to_cid)
        result._placeholders = {name: dict(rows) for name, rows in self._placeholders.items()}
        result._placeholder_rows = dict(self._placeholder_rows)
        result._next_cid = self._next_cid
        self._private_templates = set()
        return result

    # ------------------------------------------------------------------ #
    # The paper's fixed-schema uniform relations
    # ------------------------------------------------------------------ #

    def to_uniform_relations(self) -> Dict[str, Relation]:
        """Materialize the paper's fixed-schema relations ``C``, ``F`` and ``W``.

        ``FID`` is flattened into three columns (``REL``, ``TID``, ``ATTR``) as
        the paper's footnote 3 describes.
        """
        component_relation = Relation(
            RelationSchema("C", ("REL", "TID", "ATTR", "LWID", "VAL"))
        )
        mapping_relation = Relation(RelationSchema("F", ("REL", "TID", "ATTR", "CID")))
        world_relation = Relation(RelationSchema("W", ("CID", "LWID", "PR")))
        for cid in sorted(self.components):
            component = self.components[cid]
            for field in component.fields:
                mapping_relation.insert(
                    (field.relation, field.tuple_id, field.attribute, cid)
                )
            for lwid in range(1, component.size + 1):
                world_relation.insert((cid, lwid, component.probability(lwid - 1)))
                row = component.rows[lwid - 1]
                for field, value in zip(component.fields, row):
                    component_relation.insert(
                        (field.relation, field.tuple_id, field.attribute, lwid, value)
                    )
        return {"C": component_relation, "F": mapping_relation, "W": world_relation}

    @classmethod
    def from_uniform_relations(
        cls,
        schema: DatabaseSchema,
        templates: Dict[str, Relation],
        uniform: Dict[str, Relation],
        probabilistic: bool = True,
    ) -> "UWSDT":
        """Rebuild a UWSDT from template relations plus the C/F/W relations."""
        result = cls(DatabaseSchema(list(schema)))
        for relation_schema in schema:
            template = templates[relation_schema.name]
            tid_position = template.schema.position(TID)
            for row in template:
                values = row[:tid_position] + row[tid_position + 1 :]
                result.add_template_tuple(relation_schema.name, row[tid_position], values)

        mapping = uniform["F"]
        component_values = uniform["C"]
        worlds = uniform["W"]

        fields_per_cid: Dict[Any, List[FieldRef]] = {}
        cid_of_field: Dict[FieldRef, Any] = {}
        for rel, tid, attr, cid in mapping.rows:
            field = FieldRef(rel, tid, attr)
            fields_per_cid.setdefault(cid, []).append(field)
            cid_of_field.setdefault(field, cid)

        probabilities_per_cid: Dict[Any, Dict[Any, float]] = {}
        for cid, lwid, probability in worlds.rows:
            probabilities_per_cid.setdefault(cid, {})[lwid] = probability

        values_per_cid: Dict[Any, Dict[Any, Dict[FieldRef, Any]]] = {}
        for rel, tid, attr, lwid, value in component_values.rows:
            field = FieldRef(rel, tid, attr)
            cid = cid_of_field.get(field)
            if cid is None:
                raise RepresentationError(f"value for unmapped field {field.label()}")
            values_per_cid.setdefault(cid, {}).setdefault(lwid, {})[field] = value

        for cid, fields in fields_per_cid.items():
            local_worlds = values_per_cid.get(cid, {})
            lwids = sorted(local_worlds)
            rows = []
            probabilities = [] if probabilistic else None
            for lwid in lwids:
                assignment = local_worlds[lwid]
                rows.append(tuple(assignment.get(field, BOTTOM) for field in fields))
                if probabilities is not None:
                    probabilities.append(probabilities_per_cid.get(cid, {}).get(lwid, 0.0))
            result.new_component(Component(tuple(fields), rows, probabilities))
        return result

    # ------------------------------------------------------------------ #
    # Decoding helpers shared by rep(), possible() and the benchmarks
    # ------------------------------------------------------------------ #

    def certain_world(self) -> Database:
        """The single world obtained by ignoring uncertainty (placeholders dropped).

        Used as the "one world, 0 % density" baseline of Figure 30: when the
        representation has no placeholders this *is* the represented world.
        """
        database = Database()
        for relation_schema in self.schema:
            uncertain = self.uncertain_tuples(relation_schema.name)
            rows = [
                row[1:] for row in self.templates[relation_schema.name] if row[0] not in uncertain
            ]
            database.add(Relation.from_tuples(relation_schema, rows))
        return database

    def __repr__(self) -> str:
        return (
            f"UWSDT(relations {list(self.schema.relation_names)!r}, "
            f"{self.template_size()} template tuples, {self.component_count()} components)"
        )
