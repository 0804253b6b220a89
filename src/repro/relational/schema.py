"""Relation and database schemas for the named perspective of the relational model.

The paper (Section 2) uses the named perspective: a relational schema is a
tuple ``(R1[U1], ..., Rk[Uk])`` where each ``Ri`` is a relation name and
``Ui`` a set of attribute names.  We additionally fix an *order* on the
attributes of each relation so that tuples can be stored as plain Python
tuples of values, which keeps the in-memory engine compact and fast.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import SchemaError, UnknownAttributeError, UnknownRelationError


class RelationSchema:
    """Schema of a single relation: a name plus an ordered list of attributes.

    Parameters
    ----------
    name:
        The relation name (``R`` in ``R[A, B, C]``).
    attributes:
        Attribute names in storage order.  Names must be unique.
    """

    __slots__ = ("name", "attributes", "_positions")

    def __init__(self, name: str, attributes: Sequence[str]) -> None:
        attrs = tuple(attributes)
        if not name:
            raise SchemaError("relation name must be a non-empty string")
        if not attrs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"duplicate attribute names in schema of {name!r}: {attrs!r}")
        self.name = name
        self.attributes = attrs
        self._positions: Dict[str, int] = {a: i for i, a in enumerate(attrs)}

    @property
    def arity(self) -> int:
        """Number of attributes (``ar(R)`` in the paper)."""
        return len(self.attributes)

    def position(self, attribute: str) -> int:
        """Return the storage position of ``attribute``.

        Raises :class:`UnknownAttributeError` if the attribute is not part of
        the schema.
        """
        try:
            return self._positions[attribute]
        except KeyError:
            raise UnknownAttributeError(attribute, self.attributes) from None

    def has_attribute(self, attribute: str) -> bool:
        """Return True if ``attribute`` belongs to this schema."""
        return attribute in self._positions

    def positions(self, attributes: Iterable[str]) -> Tuple[int, ...]:
        """Return storage positions for several attributes, in the given order."""
        return tuple(self.position(a) for a in attributes)

    def project(self, attributes: Sequence[str], name: Optional[str] = None) -> "RelationSchema":
        """Return a new schema restricted to ``attributes`` (kept in the given order)."""
        for a in attributes:
            self.position(a)
        return RelationSchema(name or self.name, attributes)

    def rename_attribute(self, old: str, new: str, name: Optional[str] = None) -> "RelationSchema":
        """Return a new schema with ``old`` renamed to ``new``."""
        self.position(old)
        if self.has_attribute(new) and new != old:
            raise SchemaError(
                f"cannot rename {old!r} to {new!r}: attribute already exists in {self.name!r}"
            )
        attrs = tuple(new if a == old else a for a in self.attributes)
        return RelationSchema(name or self.name, attrs)

    def renamed(self, name: str) -> "RelationSchema":
        """Return the same schema under a different relation name.

        The attributes are already validated, so the result shares this
        schema's attribute tuple and position map (neither is ever mutated).
        """
        if not name:
            raise SchemaError("relation name must be a non-empty string")
        schema = RelationSchema.__new__(RelationSchema)
        schema.name = name
        schema.attributes = self.attributes
        schema._positions = self._positions
        return schema

    def concat(self, other: "RelationSchema", name: Optional[str] = None) -> "RelationSchema":
        """Return the schema of the product of this relation with ``other``.

        The attribute sets must be disjoint (as required by the paper's
        product operator).
        """
        overlap = set(self.attributes) & set(other.attributes)
        if overlap:
            raise SchemaError(
                f"cannot build product schema of {self.name!r} and {other.name!r}: "
                f"attributes {sorted(overlap)!r} occur in both"
            )
        return RelationSchema(name or f"{self.name}_x_{other.name}", self.attributes + other.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self.name == other.name and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))

    def __iter__(self) -> Iterator[str]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __repr__(self) -> str:
        return f"RelationSchema({self.name!r}, {list(self.attributes)!r})"


class DatabaseSchema:
    """A database schema: an ordered collection of relation schemas."""

    __slots__ = ("_relations",)

    def __init__(self, relations: Iterable[RelationSchema] = ()) -> None:
        self._relations: Dict[str, RelationSchema] = {}
        for schema in relations:
            self.add(schema)

    def add(self, schema: RelationSchema) -> None:
        """Add a relation schema; the name must not already be present."""
        if schema.name in self._relations:
            raise SchemaError(f"relation {schema.name!r} already declared in database schema")
        self._relations[schema.name] = schema

    def relation(self, name: str) -> RelationSchema:
        """Return the schema of relation ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name, tuple(self._relations)) from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return self._relations == other._relations

    def __repr__(self) -> str:
        return f"DatabaseSchema({list(self._relations.values())!r})"
