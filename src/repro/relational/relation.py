"""In-memory relations with set semantics.

A :class:`Relation` couples a :class:`~repro.relational.schema.RelationSchema`
with a set of rows.  Rows are stored as plain Python tuples whose positions
follow the schema's attribute order; named access goes through the schema.

Relations follow set semantics (as in the paper): inserting a duplicate row
is a no-op.  Iteration order is insertion order, which keeps query results
deterministic and makes golden tests stable.

Two ways in: :meth:`Relation.insert` (and the constructor) coerce and check
one row at a time — the user-facing mutation API — while
:meth:`Relation.from_tuples` adopts a whole list of tuples in one step, which
is how every operator builds its result.  The hash set behind membership
tests is derived from the row list on first need: a result that is only ever
iterated never hashes its rows.

Everything else derived from the rows — hash indexes, column stores, the
planner's statistics entry — lives on the relation too, in one memo
(:meth:`Relation.derived`) validated by :attr:`Relation.version`.  Every
engine holding the same relation object (a UWSDT and its copies share their
templates) therefore derives each structure once per version.  The memo is
neither copied nor pickled: :meth:`Relation.copy` and an unpickled relation
start without one.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .errors import ArityError, SchemaError
from .schema import RelationSchema
from .values import format_value

Row = Tuple[Any, ...]

_Derived = TypeVar("_Derived")


class Relation:
    """A named relation: a schema plus a set of rows.

    Parameters
    ----------
    schema:
        The relation schema.
    rows:
        Optional initial rows.  Each row may be a sequence (interpreted in
        schema order) or a mapping from attribute name to value.
    """

    __slots__ = ("schema", "_rows", "_members", "_version", "_derived", "__weakref__")

    def __init__(self, schema: RelationSchema, rows: Iterable[Any] = ()) -> None:
        self.schema = schema
        self._rows: List[Row] = []
        #: The set twin of ``_rows``; None until something needs membership
        #: (:meth:`_member_set`), in step with ``_rows`` from then on.
        self._members: Optional[set] = set()
        self._version = 0
        #: The memo of :meth:`derived`: ``key -> ((version, stamp) at build, structure)``;
        #: None until something derives a structure.
        self._derived: Optional[Dict[Hashable, Tuple[Tuple[int, Hashable], Any]]] = None
        for row in rows:
            self.insert(row)

    def __getstate__(self) -> Tuple[Any, ...]:
        # The memo stays behind: a relation crossing a process boundary (a
        # shard payload) carries its rows only and derives on demand.
        return (self.schema, self._rows, self._members, self._version)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        self.schema, self._rows, self._members, self._version = state
        self._derived = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_tuples(
        cls, schema: RelationSchema, rows: Iterable[Row], distinct: bool = False
    ) -> "Relation":
        """Build a relation from a list of tuples in one step.

        A list is adopted, not copied: the caller hands it over and must not
        touch it again.  Every row must be a plain ``tuple`` of the schema's
        arity (:class:`ArityError` otherwise — nothing is coerced here).
        Duplicates are dropped, first occurrence first, exactly as inserting
        the rows one by one would; ``distinct=True`` skips that pass and is
        the caller's *proof* that the rows are already a set (a subset or a
        concatenation of sets), not a setting.  ``version`` is the row count,
        what the per-row inserts would have left.
        """
        if type(rows) is not list:
            rows = list(rows)
        if not (set(map(type, rows)) <= {tuple} and set(map(len, rows)) <= {schema.arity}):
            for row in rows:
                if type(row) is not tuple:
                    raise ArityError(
                        f"bulk row {row!r} for relation {schema.name!r} is a "
                        f"{type(row).__name__}, not a tuple"
                    )
                if len(row) != schema.arity:
                    raise ArityError(
                        f"row {row!r} has arity {len(row)}, "
                        f"expected {schema.arity} for relation {schema.name!r}"
                    )
        if not distinct:
            unique = dict.fromkeys(rows)
            if len(unique) != len(rows):
                rows = list(unique)
        relation = cls(schema)
        relation._rows = rows
        relation._members = None
        relation._version = len(rows)
        return relation

    @classmethod
    def from_dicts(
        cls, name: str, attributes: Sequence[str], dicts: Iterable[Mapping[str, Any]]
    ) -> "Relation":
        """Build a relation from dictionaries keyed by attribute name."""
        relation = cls(RelationSchema(name, attributes))
        for record in dicts:
            relation.insert(record)
        return relation

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _coerce(self, row: Any) -> Row:
        if isinstance(row, Mapping):
            missing = [a for a in self.schema.attributes if a not in row]
            if missing:
                raise ArityError(
                    f"row for {self.schema.name!r} is missing attributes {missing!r}"
                )
            extra = [k for k in row if not self.schema.has_attribute(k)]
            if extra:
                raise ArityError(
                    f"row for {self.schema.name!r} has unknown attributes {extra!r}"
                )
            return tuple(row[a] for a in self.schema.attributes)
        values = tuple(row)
        if len(values) != self.schema.arity:
            raise ArityError(
                f"row {values!r} has arity {len(values)}, "
                f"expected {self.schema.arity} for relation {self.schema.name!r}"
            )
        return values

    def _member_set(self) -> set:
        """The rows as a hash set, derived from the row list on first need.

        Two sessions racing the first read each build the same set; one wins.
        """
        members = self._members
        if members is None:
            members = self._members = set(self._rows)
        return members

    def insert(self, row: Any) -> bool:
        """Insert a row; return True if it was new, False if a duplicate."""
        values = self._coerce(row)
        members = self._members  # a slot read per row; the call only once
        if members is None:
            members = self._member_set()
        if values in members:
            return False
        members.add(values)
        self._rows.append(values)
        self._version += 1
        return True

    def insert_many(self, rows: Iterable[Any]) -> int:
        """Insert several rows; return the number of newly inserted rows."""
        return sum(1 for row in rows if self.insert(row))

    def remove(self, row: Any) -> bool:
        """Remove a row if present; return True if it was removed."""
        values = self._coerce(row)
        members = self._member_set()
        if values not in members:
            return False
        members.discard(values)
        self._rows.remove(values)
        self._version += 1
        return True

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Any) -> bool:
        try:
            return self._coerce(row) in self._member_set()
        except ArityError:
            return False

    @property
    def rows(self) -> Tuple[Row, ...]:
        """The rows of the relation, in insertion order."""
        return tuple(self._rows)

    @property
    def version(self) -> int:
        """Mutation counter; bumped on every effective insert or remove.

        The memo of :meth:`derived` (hash indexes, column stores, the
        statistics catalog's entries) validates against this value; polling
        it is also how the plan cache invalidates — the only way.
        """
        return self._version

    def derived(
        self, key: Hashable, build: Callable[[], _Derived], stamp: Hashable = None
    ) -> _Derived:
        """The structure ``build()`` derives from this relation, built once per version.

        ``key`` names the structure (its kind and parameters); there is one
        entry per key.  An entry is served while :attr:`version` equals the
        version read before it was built and ``stamp`` equals the stamp it
        was built under (state outside the relation that the structure also
        depends on), and replaced on the first read after either moves.  A
        structure must not hold a strong reference back to this relation: the memo
        lives on it, and a cycle would leave every dropped relation to the
        cycle collector.  Two sessions racing the first build each build
        the same structure; one wins.
        """
        memo = self._derived
        if memo is None:
            memo = self._derived = {}
        token = (self._version, stamp)
        entry = memo.get(key)
        if entry is not None and entry[0] == token:
            return entry[1]
        built = build()
        memo[key] = (token, built)
        return built

    def row_set(self) -> frozenset:
        """The rows as a frozen set (for order-insensitive comparison)."""
        return frozenset(self._member_set())

    def value(self, row: Row, attribute: str) -> Any:
        """Return the value of ``attribute`` in ``row``."""
        return row[self.schema.position(attribute)]

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Return the rows as dictionaries keyed by attribute name."""
        attrs = self.schema.attributes
        return [dict(zip(attrs, row)) for row in self._rows]

    def column(self, attribute: str) -> List[Any]:
        """Return the values of one attribute, in row order (with duplicates)."""
        pos = self.schema.position(attribute)
        return [row[pos] for row in self._rows]

    def distinct_values(self, attribute: str) -> set:
        """Return the set of distinct values of one attribute."""
        pos = self.schema.position(attribute)
        return {row[pos] for row in self._rows}

    # ------------------------------------------------------------------ #
    # Comparison and display
    # ------------------------------------------------------------------ #

    def same_rows(self, other: "Relation") -> bool:
        """Return True if both relations contain exactly the same row set.

        Attribute order must match; relation names are ignored.
        """
        if self.schema.attributes != other.schema.attributes:
            return False
        return self._member_set() == other._member_set()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and self._member_set() == other._member_set()

    def __hash__(self) -> int:
        return hash((self.schema, self.row_set()))

    def copy(self, name: Optional[str] = None) -> "Relation":
        """Return a shallow copy (rows are immutable tuples, so this is safe).

        The copy starts with an empty :meth:`derived` memo.
        """
        schema = self.schema if name is None else self.schema.renamed(name)
        copied = Relation(schema)
        copied._rows = list(self._rows)
        members = self._members  # copied only if it exists: most results never need one
        copied._members = None if members is None else set(members)
        copied._version = self._version
        return copied

    def to_text(self, max_rows: int = 20) -> str:
        """Render the relation as an ASCII table (used by examples and docs)."""
        attrs = self.schema.attributes
        shown = self._rows[:max_rows]
        cells = [[format_value(v) for v in row] for row in shown]
        widths = [
            max([len(a)] + [len(row[i]) for row in cells]) for i, a in enumerate(attrs)
        ]
        header = " | ".join(a.ljust(widths[i]) for i, a in enumerate(attrs))
        separator = "-+-".join("-" * w for w in widths)
        lines = [f"{self.schema.name} ({len(self)} rows)", header, separator]
        lines.extend(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in cells
        )
        if len(self._rows) > max_rows:
            lines.append(f"... ({len(self._rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Relation({self.schema.name!r}, {len(self)} rows)"


def project_rows(rows: Iterable[Row], positions: Sequence[int]) -> Iterator[Row]:
    """Each row's values at ``positions``, as one tuple per row."""
    if len(positions) == 1:
        return zip(map(itemgetter(positions[0]), rows))
    if not positions:
        return (() for _ in rows)
    return map(itemgetter(*positions), rows)


def require_same_attributes(left: Relation, right: Relation, operation: str) -> None:
    """Raise :class:`SchemaError` unless both relations have identical attribute lists."""
    if left.schema.attributes != right.schema.attributes:
        raise SchemaError(
            f"{operation} requires union-compatible relations, got "
            f"{left.schema.attributes!r} and {right.schema.attributes!r}"
        )
