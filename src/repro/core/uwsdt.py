"""Uniform WSDs with template relations (UWSDTs) — the engine-grade representation.

Section 3 of the paper introduces UWSDTs to avoid relations of arbitrary
arity: all uncertain values are stored in a fixed-schema triple of relations

* ``C[FID, LWID, VAL]``  — component values per field and local world,
* ``F[FID, CID]``        — which component defines which field,
* ``W[CID, LWID, PR]``   — local worlds of each component and their probability,

plus one *template relation* ``R⁰`` per database relation, holding certain
values and the ``?`` placeholder for uncertain fields.

This class keeps the same information in an equivalent, faster-to-access
layout.  Each template ``R⁰`` is a :class:`Template`: two substrate
:class:`~repro.relational.relation.Relation` objects,

* ``certain`` — the rows without a ``?``, under the relation's own schema
  and with set semantics: exactly what a one-world
  :class:`~repro.relational.database.Database` holds, so the certain part of
  every operator is the :mod:`~repro.relational.algebra` call a Database
  makes;
* ``open`` — the rows with a ``?``, each under its tuple id in a leading
  ``TID`` column, since components name their fields by tuple id.

The C/F/W content is held as a dictionary of
:class:`~repro.core.component.Component` objects indexed by component id.
A placeholder is recorded where the paper records it: a ``?`` in an open
row and its ``F`` entry (:attr:`UWSDT.field_to_cid`); which fields of a
relation are ``?`` is read off its open rows.
:meth:`to_uniform_relations` materializes the exact fixed-schema relations
of the paper (and :meth:`from_uniform_relations` reads them back), so the
uniform encoding itself is also implemented and tested; the dictionary
layout is an optimization the paper performs inside PostgreSQL with
indexes on ``FID`` and ``CID``.

A certain row has no tuple id.  Where one turns open — a certain row under
a difference whose right side may remove it, or the certain side of a join
or product pair with an open row — it is given :func:`certain_tid`, built
from its relation's name and its values under a marker no base tuple id
holds.

Tuple presence semantics follow the WSD convention: a template tuple is
present in a chosen world unless one of its placeholder fields takes the
``⊥`` value in that world.

A query (Section 4's ``Q̂``) only *adds* relations and components, so
:meth:`UWSDT.copy` shares the templates and the (immutable) components with
the original and copies only the dictionaries that index them.  Whatever is
derived from a template — its hash indexes, its column store, the planner's
statistics — lives on its relations
(:meth:`Relation.derived <repro.relational.relation.Relation.derived>`), so
an engine and all its copies derive each structure once per version.  The
one in-place template write, :meth:`UWSDT.add_template_tuple`, first gives
the writing engine a private copy of a shared template.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..relational.database import Database
from ..relational.errors import ArityError, RepresentationError
from ..relational.relation import Relation, Row
from ..relational.schema import DatabaseSchema, RelationSchema
from ..relational.values import BOTTOM, PLACEHOLDER
from ..worlds.orset import OrSet, OrSetRelation
from ..worlds.worldset import WorldSet
from .component import Component
from .fields import FieldRef
from .wsd import WSD
from .wsdt import WSDT

#: Name of the tuple-id column leading the open rows of a template.
TID = "__tid__"


class _CertainMark:
    """The marker of :func:`certain_tid`: one object, equal only to itself."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "CERTAIN"

    def __hash__(self) -> int:
        return 0x5CE27A1  # fixed: tuple ids hash alike in every process

    def __reduce__(self) -> str:
        return "CERTAIN"  # pickles and copies as the module's one object


CERTAIN = _CertainMark()


def certain_tid(relation: str, values: Row) -> Tuple[_CertainMark, str, Row]:
    """The tuple id of ``relation``'s certain row ``values`` turned open.

    Certain rows are a set, so the relation and the values name the row.
    No base tuple id holds the marker, so a union tid ``("R", 1)`` differs
    from the id of a certain row ``("R", 1)``.  An operator gives this id to
    a row of its inputs and writes it to its result, which σ, π, ρ and −
    carry on unchanged; so no open row of ``relation`` holds it, even where
    a reordering π makes an inherited id's values one of its certain rows.
    """
    return (CERTAIN, relation, values)


def _has_placeholder(row: Iterable[Any]) -> bool:
    """Does ``row`` hold a ``?``?"""
    return any(value is PLACEHOLDER for value in row)


class Template:
    """One relation's template ``R⁰``: its certain rows and its open rows.

    ``certain`` has the relation's own schema and no ``?``; ``open`` has the
    schema ``(TID,) + attributes`` and holds the rows with a ``?``.  A value:
    writers install a new one (:meth:`UWSDT.set_template`) rather than
    mutating a shared one.  ``len()`` counts both.
    """

    __slots__ = ("certain", "open")

    def __init__(self, certain: Relation, open_rows: Relation) -> None:
        self.certain = certain
        self.open = open_rows

    def __len__(self) -> int:
        return len(self.certain) + len(self.open)

    def __repr__(self) -> str:
        return (
            f"Template({self.certain.schema.name!r}, {len(self.certain)} certain, "
            f"{len(self.open)} open)"
        )


def open_schema(relation_schema: RelationSchema) -> RelationSchema:
    """The schema of a template's open rows: the tuple id, then the attributes."""
    return RelationSchema(relation_schema.name, (TID,) + relation_schema.attributes)


def _template_relation(schema: RelationSchema, rows: List[Row], distinct: bool) -> Relation:
    """``Relation.from_tuples``, its malformed rows reported as a representation error."""
    try:
        return Relation.from_tuples(schema, rows, distinct)
    except ArityError as error:
        message = f"malformed template tuple for {schema.name!r}: {error}"
        raise RepresentationError(message) from error


class UWSDT:
    """A uniform world-set decomposition with template relations."""

    def __init__(self, schema: Optional[DatabaseSchema] = None) -> None:
        self.schema = schema or DatabaseSchema()
        #: Templates, one per represented relation, keyed by name.
        self.templates: Dict[str, Template] = {}
        #: Components keyed by component id.
        self.components: Dict[int, Component] = {}
        #: Which component defines which placeholder field (the ``F`` relation).
        self.field_to_cid: Dict[FieldRef, int] = {}
        #: Names of the templates no other engine holds: only these may be
        #: written in place.  :meth:`copy` empties it on both sides.
        self._private_templates: Set[str] = set()
        self._next_cid = 1
        #: The index of the next intermediate relation name
        #: (:meth:`intermediate_name`); relations are never dropped, so a
        #: name once given stays taken.
        self._next_intermediate = 1
        for relation_schema in self.schema:
            self._init_template(relation_schema)

    # ------------------------------------------------------------------ #
    # Template and component plumbing
    # ------------------------------------------------------------------ #

    def _init_template(self, relation_schema: RelationSchema) -> None:
        self.templates[relation_schema.name] = Template(
            Relation(relation_schema), Relation(open_schema(relation_schema))
        )
        self._private_templates.add(relation_schema.name)

    def add_relation(self, relation_schema: RelationSchema) -> None:
        """Declare a new (initially empty) represented relation."""
        if self.schema.has_relation(relation_schema.name):
            raise RepresentationError(f"relation {relation_schema.name!r} already present")
        self.schema.add(relation_schema)
        self._init_template(relation_schema)

    def intermediate_name(self) -> str:
        """A fresh relation name ``__q<n>`` for a query's intermediate result.

        The index lives on the engine and moves past every name it gives, so
        a name is probed once; a probe only skips a name a user took.
        """
        while True:
            name = f"__q{self._next_intermediate}"
            self._next_intermediate += 1
            if not self.schema.has_relation(name):
                return name

    def add_template_tuple(self, relation_name: str, tuple_id: Any, values: Sequence[Any]) -> None:
        """Add one template tuple (values may include ``PLACEHOLDER``).

        A row with a ``?`` joins the open rows under ``tuple_id``; a certain
        row joins the certain rows, and ``tuple_id`` is not kept.  A template
        shared with a copy is first replaced by a private copy of both
        relations, so the write reaches this engine only.
        """
        relation_schema = self.schema.relation(relation_name)
        if len(values) != relation_schema.arity:
            raise RepresentationError(
                f"template tuple for {relation_name!r} has arity {len(values)}, "
                f"expected {relation_schema.arity}"
            )
        template = self.templates[relation_name]
        if relation_name not in self._private_templates:
            template = Template(template.certain.copy(), template.open.copy())
            self.templates[relation_name] = template
            self._private_templates.add(relation_name)
        if _has_placeholder(values):
            template.open.insert((tuple_id,) + tuple(values))
        else:
            template.certain.insert(values)

    def set_template(
        self, relation_name: str, certain: Relation, open_rows: List[Row], distinct: bool = True
    ) -> None:
        """Install a template built in one step: the ``certain`` relation and the open rows.

        ``certain`` is adopted (it must hold no ``?``).  ``open_rows`` are
        ``(tuple id, *values)`` rows with a ``?`` each, handed over as
        :meth:`Relation.from_tuples <repro.relational.relation.Relation.from_tuples>`
        takes them: the list is adopted, and ``distinct=True`` is the
        caller's proof that the tuple ids are distinct.  This is how the
        loaders and every operator fill the relation they just declared.
        """
        schema = self.templates[relation_name].open.schema
        self.templates[relation_name] = Template(
            certain, _template_relation(schema, open_rows, distinct)
        )
        self._private_templates.add(relation_name)

    def relation_placeholder_count(self, relation_name: str) -> int:
        """Number of ``?`` fields of one relation (its slice of ``F``).

        Together with the row count it gives the relation's placeholder
        density, which the planner's statistics read.  Counted off the open
        rows (:meth:`uncertain_tuples`), so it moves only with a template
        write.
        """
        return sum(map(len, self.uncertain_tuples(relation_name).values()))

    def uncertain_tuples(self, relation_name: str) -> Mapping[Any, Tuple[str, ...]]:
        """One relation's open rows as ``tuple id -> ? attributes``, in open-row order.

        Read-only for callers; attributes are in schema order.  Derived on
        the open relation (:meth:`~repro.relational.relation.Relation.derived`:
        built once per version, shared by copies).
        """
        opened = self.templates[relation_name].open
        attributes = opened.schema.attributes[1:]

        def scan() -> Dict[Any, Tuple[str, ...]]:
            return {
                row[0]: tuple(a for a, value in zip(attributes, row[1:]) if value is PLACEHOLDER)
                for row in opened
            }

        return opened.derived(("?",), scan)

    def placeholder_rows_on(self, relation_name: str, attributes: Iterable[str]) -> List[Row]:
        """The open rows with a ``?`` on one of ``attributes``, in open-row order.

        Per attribute, the positions of the open rows holding ``?`` there are
        derived on the open relation (:meth:`~repro.relational.relation.Relation.derived`:
        built once per version, shared by copies): a selection or a
        dependency visits the rows its attributes make uncertain, not every
        open row.
        """
        opened = self.templates[relation_name].open

        def positions_on(attribute: str) -> List[int]:
            column = opened.schema.position(attribute)
            return [i for i, row in enumerate(opened) if row[column] is PLACEHOLDER]

        hits = [
            positions
            for attribute in dict.fromkeys(attributes)
            if (positions := opened.derived(("?", attribute), lambda a=attribute: positions_on(a)))
        ]
        if not hits:
            return []
        rows = opened.rows
        return [rows[i] for i in (hits[0] if len(hits) == 1 else sorted(set().union(*hits)))]

    def _map_field(self, field: FieldRef, cid: int) -> None:
        existing = self.field_to_cid.get(field)
        if existing is not None:
            raise RepresentationError(
                f"field {field.label()} already assigned to component {existing}"
            )
        self.field_to_cid[field] = cid

    def _unmap_field(self, field: FieldRef) -> None:
        self.field_to_cid.pop(field, None)

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

        Per template: the certain rows hold no ``?``, every open row holds
        one, and the open rows' tuple ids are distinct.  The field map is
        checked against the open rows both ways: every ``?`` has an entry,
        and every entry names a component holding the field and is a ``?``
        of an open row.  Every component field maps to its component.
        """
        uncertain: Dict[str, Mapping[Any, Tuple[str, ...]]] = {}
        for relation_schema in self.schema:
            name = relation_schema.name
            template = self.templates[name]
            if any(map(_has_placeholder, template.certain)):
                raise RepresentationError(f"a certain row of {name!r} holds a placeholder")
            uncertain[name] = self.uncertain_tuples(name)
            if len(uncertain[name]) != len(template.open):
                [(duplicate, _)] = Counter(row[0] for row in template.open).most_common(1)
                raise RepresentationError(f"tuple id {duplicate!r} of {name!r} is not unique")
            for tuple_id, attributes in uncertain[name].items():
                if not attributes:
                    raise RepresentationError(
                        f"open tuple {tuple_id!r} of {name!r} holds no placeholder"
                    )
                for attribute in attributes:
                    field = FieldRef(name, tuple_id, attribute)
                    if field not in self.field_to_cid:
                        raise RepresentationError(
                            f"placeholder {field.label()} has no field map entry"
                        )
        for cid, component in self.components.items():
            component.validate()
            for field in component.fields:
                if self.field_to_cid.get(field) != cid:
                    raise RepresentationError(
                        f"field map out of sync for {field.label()} (component {cid})"
                    )
        for field, cid in self.field_to_cid.items():
            component = self.components.get(cid)
            if component is None or not component.has_field(field):
                raise RepresentationError(
                    f"field map sends {field.label()} to component {cid}, which does not hold it"
                )
            if field.attribute not in uncertain.get(field.relation, {}).get(field.tuple_id, ()):
                raise RepresentationError(
                    f"field map holds {field.label()}, which is not a placeholder"
                )

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
        certain = Relation.from_tuples(relation.schema, list(relation), distinct=True)
        result.set_template(relation.schema.name, certain, [])
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
        queries (and the possible-worlds oracle) work on.  The row at
        position ``i`` (from 1) is tuple ``i``; only the rows with an or-set
        keep that id.
        """
        result = cls(DatabaseSchema([orset.schema for orset in orsets]))
        for orset in orsets:
            name, attributes = orset.schema.name, orset.schema.attributes
            certain: List[Row] = []
            open_rows: List[Row] = []
            for index, row in enumerate(orset.rows, start=1):
                # One test per row, on its handful of classes: a row without
                # an or-set (the overwhelming majority) is adopted as it is.
                if not any(issubclass(cls_, OrSet) for cls_ in set(map(type, row))):
                    certain.append(row)
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
                open_rows.append(tuple(template_values))
            result.set_template(name, _template_relation(orset.schema, certain, False), open_rows)
        return result

    def to_wsdt(self) -> WSDT:
        """Convert back to the (non-uniform) WSDT representation.

        A certain row is given :func:`certain_tid` as its tuple id.
        """
        templates: Dict[str, Dict[Any, Dict[str, Any]]] = {}
        for relation_schema in self.schema:
            name, attributes = relation_schema.name, relation_schema.attributes
            template = self.templates[name]
            rows = {certain_tid(name, row): dict(zip(attributes, row)) for row in template.certain}
            rows.update((row[0], dict(zip(attributes, row[1:]))) for row in template.open)
            templates[relation_schema.name] = rows
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

        The templates and the components (immutable) are shared; only the
        dictionaries indexing them are copied — ``templates``,
        ``components``, ``field_to_cid`` — with the next intermediate name's
        index.  Structures derived from a shared template's relations (hash
        indexes, column stores, statistics, the placeholder views) live on
        them and stay warm for both engines.  Afterwards neither engine
        owns a template: the first :meth:`add_template_tuple` on either side
        copies it.  The plan cache and the statistics catalog object are per
        engine and are not carried over, so the copy plans every query anew.
        """
        result = UWSDT()
        result.schema = DatabaseSchema(list(self.schema))
        result.templates = dict(self.templates)
        result.components = dict(self.components)
        result.field_to_cid = dict(self.field_to_cid)
        result._next_cid = self._next_cid
        result._next_intermediate = self._next_intermediate
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
        templates: Mapping[str, Template],
        uniform: Dict[str, Relation],
        probabilistic: bool = True,
    ) -> "UWSDT":
        """Rebuild a UWSDT from its templates plus the C/F/W relations."""
        result = cls(DatabaseSchema(list(schema)))
        for relation_schema in schema:
            template = templates[relation_schema.name]
            result.set_template(
                relation_schema.name, template.certain.copy(), list(template.open)
            )

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
        It is the certain relations, copied.
        """
        database = Database()
        for relation_schema in self.schema:
            database.add(self.templates[relation_schema.name].certain.copy())
        return database

    def __repr__(self) -> str:
        return (
            f"UWSDT(relations {list(self.schema.relation_names)!r}, "
            f"{self.template_size()} template tuples, {self.component_count()} components)"
        )
