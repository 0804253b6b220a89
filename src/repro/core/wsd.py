"""World-set decompositions (WSDs): the paper's core representation system.

A WSD represents a finite set of possible worlds as a set of *components*
whose relational product is the world-set relation of the world-set
(Definition 1).  Every field ``R.t.A`` of the inlined schema is defined by
exactly one component; choosing one local world per component and reading
off the field values yields one possible world, whose probability is the
product of the chosen local-world probabilities.

The class below stores

* ``schema``      — the database schema ``Σ`` of the represented worlds,
* ``tuple_ids``   — for every relation the ordered list of tuple positions
  (``|R|max`` entries),
* ``components``  — the list of :class:`~repro.core.component.Component`
  factors, jointly covering every field exactly once.

A WSD defines semantics (Sections 3–4): ``rep()``, the normalisations, the
chase and the Figure 9 operators.  Queries are planned and executed on its
Section 5 refinement, the :class:`~repro.core.uwsdt.UWSDT`
(``UWSDT.from_wsd`` / ``UWSDT.to_wsd``).
"""

from __future__ import annotations

import itertools
from typing import Any, Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..relational.database import Database
from ..relational.errors import RepresentationError
from ..relational.relation import Relation
from ..relational.schema import DatabaseSchema, RelationSchema
from ..relational.values import BOTTOM
from ..worlds.orset import OrSetRelation, is_or_set
from ..worlds.tuple_independent import TupleIndependentDatabase
from ..worlds.worldset import WorldSet
from ..worlds.worldset_relation import WorldSetRelation
from .component import Component
from .fields import FieldRef


class WSD:
    """A world-set decomposition over a relational database schema."""

    def __init__(
        self,
        schema: DatabaseSchema,
        tuple_ids: Dict[str, Sequence[Any]],
        components: Iterable[Component],
    ) -> None:
        self.schema = schema
        self.tuple_ids: Dict[str, List[Any]] = {
            name: list(ids) for name, ids in tuple_ids.items()
        }
        self.components: List[Component] = list(components)
        self._field_owner: Dict[FieldRef, int] = {}
        self._rebuild_field_index()
        self._check_coverage()

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #

    def _rebuild_field_index(self) -> None:
        self._field_owner = {}
        for index, component in enumerate(self.components):
            for field in component.fields:
                if field in self._field_owner:
                    raise RepresentationError(
                        f"field {field.label()} is defined by more than one component"
                    )
                self._field_owner[field] = index

    def _check_coverage(self) -> None:
        for relation_schema in self.schema:
            for tuple_id in self.tuple_ids.get(relation_schema.name, ()):
                for attribute in relation_schema.attributes:
                    field = FieldRef(relation_schema.name, tuple_id, attribute)
                    if field not in self._field_owner:
                        raise RepresentationError(
                            f"field {field.label()} is not covered by any component"
                        )

    def component_of(self, field: FieldRef) -> int:
        """Index of the component defining ``field``."""
        try:
            return self._field_owner[field]
        except KeyError:
            raise RepresentationError(f"field {field.label()} is not part of this WSD") from None

    def component_for(self, field: FieldRef) -> Component:
        """The component defining ``field``."""
        return self.components[self.component_of(field)]

    @property
    def is_probabilistic(self) -> bool:
        return all(component.is_probabilistic for component in self.components)

    def world_count(self) -> int:
        """Number of component combinations (upper bound on distinct worlds)."""
        count = 1
        for component in self.components:
            count *= component.size
        return count

    def representation_size(self) -> int:
        """Total number of field values stored across all components."""
        return sum(component.arity * component.size for component in self.components)

    def component_count(self) -> int:
        return len(self.components)

    def validate(self) -> None:
        """Validate every component (probability mass sums to one, etc.)."""
        for component in self.components:
            component.validate()

    def copy(self) -> "WSD":
        """Structural copy (components are immutable in practice, but copied anyway)."""
        return WSD(
            DatabaseSchema(list(self.schema)),
            {name: list(ids) for name, ids in self.tuple_ids.items()},
            [Component(c.fields, c.rows, c.probabilities) for c in self.components],
        )

    # ------------------------------------------------------------------ #
    # Component surgery (used by the query operators and the chase)
    # ------------------------------------------------------------------ #

    def replace_components(self, indices: Sequence[int], replacement: Component) -> None:
        """Replace the components at ``indices`` by a single ``replacement``."""
        index_set = set(indices)
        kept = [c for i, c in enumerate(self.components) if i not in index_set]
        kept.append(replacement)
        self.components = kept
        self._rebuild_field_index()

    def replace_component(self, index: int, replacement: Component) -> None:
        self.components[index] = replacement
        self._rebuild_field_index()

    def merge_components_of(self, fields: Sequence[FieldRef]) -> int:
        """Ensure all ``fields`` live in one component (composing if needed).

        Returns the index of the (possibly new) component.
        """
        indices = sorted({self.component_of(field) for field in fields})
        if len(indices) == 1:
            return indices[0]
        merged = self.components[indices[0]]
        for index in indices[1:]:
            merged = merged.compose(self.components[index])
        self.replace_components(indices, merged)
        return len(self.components) - 1

    def drop_relation(self, relation_name: str) -> None:
        """Remove a relation (and all its fields) from the WSD."""
        if not self.schema.has_relation(relation_name):
            raise RepresentationError(f"relation {relation_name!r} is not part of this WSD")
        self.project_away_fields(
            {field for field in self._field_owner if field.relation == relation_name}
        )
        self.schema = DatabaseSchema(
            relation_schema
            for relation_schema in self.schema
            if relation_schema.name != relation_name
        )
        self.tuple_ids.pop(relation_name, None)

    def project_away_fields(self, fields: Collection[FieldRef]) -> None:
        """Project ``fields`` out of every component defining one of them.

        A component left without fields is dropped.  The schema and the
        tuple ids are the caller's to adjust.
        """
        components: List[Component] = []
        for component in self.components:
            dropped = [field for field in component.fields if field in fields]
            if not dropped:
                components.append(component)
                continue
            reduced = component.project_away(dropped)
            if reduced is not None:
                components.append(reduced)
        self.components = components
        self._rebuild_field_index()

    def restrict_to_relations(self, relation_names: Sequence[str]) -> "WSD":
        """Return a copy containing only the given relations (used after queries)."""
        result = self.copy()
        for name in list(result.schema.relation_names):
            if name not in relation_names:
                result.drop_relation(name)
        return result

    def add_relation(
        self,
        relation_schema: RelationSchema,
        tuple_ids: Sequence[Any],
    ) -> None:
        """Register a new (empty so far) relation; its fields must be added next.

        Callers must immediately extend/attach components covering every field
        of the new relation — the operators in
        :mod:`repro.core.algebra.wsd_ops` do so.
        """
        self.schema.add(relation_schema)
        self.tuple_ids[relation_schema.name] = list(tuple_ids)

    # ------------------------------------------------------------------ #
    # Semantics: rep()
    # ------------------------------------------------------------------ #

    def iterate_worlds(self) -> Iterator[Tuple[Database, Optional[float]]]:
        """Yield ``(database, probability)`` for every component combination.

        Different combinations may yield the same database; callers that
        need set semantics (``rep``) should merge them — :meth:`to_worldset`
        does that and sums probabilities.
        """
        field_lookup: Dict[FieldRef, Tuple[int, int]] = {}
        for component_index, component in enumerate(self.components):
            for column, field in enumerate(component.fields):
                field_lookup[field] = (component_index, column)

        choices = [range(component.size) for component in self.components]
        for combination in itertools.product(*choices):
            probability: Optional[float] = 1.0 if self.is_probabilistic else None
            if probability is not None:
                for component_index, row_index in enumerate(combination):
                    probability *= self.components[component_index].probability(row_index)
            database = Database()
            for relation_schema in self.schema:
                relation = Relation(relation_schema)
                for tuple_id in self.tuple_ids.get(relation_schema.name, ()):
                    values = []
                    for attribute in relation_schema.attributes:
                        field = FieldRef(relation_schema.name, tuple_id, attribute)
                        component_index, column = field_lookup[field]
                        row_index = combination[component_index]
                        values.append(self.components[component_index].rows[row_index][column])
                    if any(value is BOTTOM for value in values):
                        continue
                    relation.insert(tuple(values))
                database.add(relation)
            yield database, probability

    def to_worldset(self, max_worlds: Optional[int] = 1_000_000) -> WorldSet:
        """The ``rep`` function of Definition 2: the represented set of worlds."""
        count = self.world_count()
        if max_worlds is not None and count > max_worlds:
            raise RepresentationError(
                f"WSD represents up to {count} worlds, refusing to expand more than {max_worlds}"
            )
        result = WorldSet()
        for database, probability in self.iterate_worlds():
            result.add(database, probability)
        return result

    # Alias matching the paper's terminology.
    rep = to_worldset

    # ------------------------------------------------------------------ #
    # Constructors from other representation systems
    # ------------------------------------------------------------------ #

    @classmethod
    def from_relation(cls, relation: Relation, probabilistic: bool = True) -> "WSD":
        """A WSD of a single certain relation: one singleton component per field."""
        tuple_ids = list(range(1, len(relation) + 1))
        components: List[Component] = []
        for tuple_id, row in zip(tuple_ids, relation):
            for attribute, value in zip(relation.schema.attributes, row):
                field = FieldRef(relation.schema.name, tuple_id, attribute)
                components.append(
                    Component((field,), [(value,)], [1.0] if probabilistic else None)
                )
        if not components:
            # An empty relation still needs a representable (single) world; use a
            # single padding tuple of ⊥ values so the schema keeps one tuple slot.
            field_list = [
                FieldRef(relation.schema.name, 1, attribute)
                for attribute in relation.schema.attributes
            ]
            components = [
                Component((field,), [(BOTTOM,)], [1.0] if probabilistic else None)
                for field in field_list
            ]
            tuple_ids = [1]
        return cls(
            DatabaseSchema([relation.schema]),
            {relation.schema.name: tuple_ids},
            components,
        )

    @classmethod
    def from_orset_relation(cls, orset: OrSetRelation, probabilistic: bool = True) -> "WSD":
        """Linear encoding of an or-set relation (Example 1): one component per field."""
        return cls.from_orset_relations([orset], probabilistic)

    @classmethod
    def from_orset_relations(
        cls, orsets: Sequence[OrSetRelation], probabilistic: bool = True
    ) -> "WSD":
        """Linear encoding of several or-set relations into one WSD.

        The relations' or-sets are independent of each other, exactly as if
        each had been encoded separately — this is the multi-relation input
        the join queries (and the possible-worlds oracle) work on.
        """
        schema = DatabaseSchema()
        tuple_ids: Dict[str, List[Any]] = {}
        components: List[Component] = []
        for orset in orsets:
            schema.add(orset.schema)
            ids = list(range(1, len(orset.rows) + 1))
            tuple_ids[orset.schema.name] = ids
            for tuple_id, row in zip(ids, orset.rows):
                for attribute, value in zip(orset.schema.attributes, row):
                    field = FieldRef(orset.schema.name, tuple_id, attribute)
                    if is_or_set(value):
                        if value.probabilities is not None:
                            components.append(
                                Component(
                                    (field,),
                                    [(v,) for v in value.values],
                                    list(value.probabilities),
                                )
                            )
                        elif probabilistic:
                            components.append(Component.uniform(field, value.values))
                        else:
                            components.append(
                                Component((field,), [(v,) for v in value.values], None)
                            )
                    else:
                        components.append(
                            Component((field,), [(value,)], [1.0] if probabilistic else None)
                        )
        return cls(schema, tuple_ids, components)

    @classmethod
    def from_tuple_independent(cls, database: TupleIndependentDatabase) -> "WSD":
        """Encoding of a tuple-independent probabilistic database (Figure 7).

        Every uncertain tuple becomes one component with two local worlds:
        the tuple itself (probability ``c``) and the all-``⊥`` tuple
        (probability ``1 − c``).
        """
        schema = DatabaseSchema()
        tuple_ids: Dict[str, List[Any]] = {}
        components: List[Component] = []
        for name, relation in database.relations.items():
            schema.add(relation.schema)
            ids = list(range(1, len(relation) + 1))
            tuple_ids[name] = ids
            for tuple_id, item in zip(ids, relation):
                fields = tuple(
                    FieldRef(name, tuple_id, attribute)
                    for attribute in relation.schema.attributes
                )
                present = tuple(item.values)
                absent = tuple(BOTTOM for _ in fields)
                if item.probability >= 1.0:
                    components.append(Component(fields, [present], [1.0]))
                elif item.probability <= 0.0:
                    components.append(Component(fields, [absent], [1.0]))
                else:
                    components.append(
                        Component(
                            fields,
                            [present, absent],
                            [item.probability, 1.0 - item.probability],
                        )
                    )
        return cls(schema, tuple_ids, components)

    @classmethod
    def from_worldset(cls, worldset: WorldSet) -> "WSD":
        """The 1-WSD of an explicit world-set (Proposition 1).

        The result has a single component whose local worlds are the inlined
        worlds.  Use :func:`repro.core.decompose.decompose_wsd` afterwards to
        obtain the maximal decomposition.
        """
        wide = WorldSetRelation.from_worldset(worldset)
        fields = tuple(
            FieldRef(relation, position + 1, attribute)
            for relation, position, attribute in wide.fields
        )
        probabilities = wide.probabilities
        component = Component(fields, wide.rows, probabilities)
        tuple_ids = {
            name: list(range(1, cardinality + 1))
            for name, cardinality in wide.max_cardinality.items()
        }
        return cls(wide.schema, tuple_ids, [component])

    # ------------------------------------------------------------------ #
    # Display
    # ------------------------------------------------------------------ #

    def to_text(self) -> str:
        """Render all components, separated by the ``×`` of the paper's figures."""
        blocks = [component.to_text() for component in self.components]
        return "\n  ×\n".join(blocks)

    def __repr__(self) -> str:
        return (
            f"WSD({len(self.components)} components, relations {list(self.schema.relation_names)!r})"
        )
