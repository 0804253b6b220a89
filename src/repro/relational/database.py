"""A database: a collection of named relations over a database schema.

A :class:`Database` is a single "possible world" in the paper's sense: a
set of relations ``R^A``, one per relation schema in ``Σ``.  The possible
worlds layer (:mod:`repro.worlds`) builds finite sets of these.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from .errors import SchemaError, UnknownRelationError
from .relation import Relation
from .schema import DatabaseSchema


class Database:
    """A collection of named relations (one possible world).

    Parameters
    ----------
    relations:
        The relations of the database.  Relation names must be unique.
    """

    # ``_statistics_catalog`` is the planner's lazily attached per-engine
    # view of the statistics kept on the relations (see
    # repro.core.planner.catalog.catalog_for); ``_plan_cache`` is the
    # engine's cache of lowered plans, used by every default ``Query.run``
    # (see repro.core.exec.plan_cache.plan_cache_for).  Hash indexes and
    # column stores live on the relations themselves (Relation.derived).
    __slots__ = ("_relations", "_statistics_catalog", "_plan_cache", "__weakref__")

    def __init__(self, relations: Iterable[Relation] = ()) -> None:
        self._relations: Dict[str, Relation] = {}
        for relation in relations:
            self.add(relation)

    @classmethod
    def from_mapping(cls, relations: Mapping[str, Relation]) -> "Database":
        """Build a database from a mapping ``name -> relation``.

        The mapping keys must agree with each relation's schema name.
        """
        database = cls()
        for name, relation in relations.items():
            if name != relation.schema.name:
                raise SchemaError(
                    f"mapping key {name!r} does not match relation name {relation.schema.name!r}"
                )
            database.add(relation)
        return database

    def add(self, relation: Relation) -> None:
        """Add a relation; its name must not be present yet."""
        if relation.schema.name in self._relations:
            raise SchemaError(f"relation {relation.schema.name!r} already exists in database")
        self._relations[relation.schema.name] = relation

    def replace(self, relation: Relation) -> None:
        """Add or overwrite a relation."""
        self._relations[relation.schema.name] = relation

    def relation(self, name: str) -> Relation:
        """Return the relation called ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name, tuple(self._relations)) from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def drop(self, name: str) -> None:
        """Remove a relation from the database."""
        if name not in self._relations:
            raise UnknownRelationError(name, tuple(self._relations))
        del self._relations[name]

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def schema(self) -> DatabaseSchema:
        """Return the database schema induced by the stored relations."""
        return DatabaseSchema(relation.schema for relation in self._relations.values())

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def copy(self) -> "Database":
        """Return a copy with copied relations (rows are shared immutable tuples)."""
        return Database(relation.copy() for relation in self._relations.values())

    def canonical_form(self) -> Tuple[Tuple[str, Tuple[str, ...], frozenset], ...]:
        """A hashable, order-insensitive rendering of the database contents.

        Two databases are the same possible world iff their canonical forms
        are equal.  Used heavily by tests that compare world-sets.
        """
        return tuple(
            sorted(
                (name, relation.schema.attributes, relation.row_set())
                for name, relation in self._relations.items()
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.canonical_form() == other.canonical_form()

    def __hash__(self) -> int:
        return hash(self.canonical_form())

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}({len(rel)})" for name, rel in self._relations.items())
        return f"Database({parts})"


def empty_database(schema: DatabaseSchema) -> Database:
    """Return a database with an empty relation for each schema in ``schema``."""
    return Database(Relation(relation_schema) for relation_schema in schema)


def single_relation_database(relation: Relation) -> Database:
    """Convenience constructor for the common single-relation case."""
    return Database([relation])
