"""WSD components: the factors of a world-set decomposition.

A component is a relation over a set of *fields* (``R.t.A`` triples); its
rows are the *local worlds* of the component.  In the probabilistic case
every local world carries a probability and the probabilities of one
component sum to one (Section 3, "Modeling Probabilistic Information").

Components support the primitive operations the paper's algorithms are
built from:

* ``ext``       — add a copy of an existing column under a new field name
  (the ``ext(C, A_i, B)`` function of Section 4),
* ``compose``   — relational product of two components with probabilities
  multiplied (the ``compose`` function of Section 4),
* ``propagate_bottom`` — the ``propagate-⊥`` algorithm of Figure 12,
* ``project_away`` / ``restrict`` / ``compress`` — used by projection,
  selection and the normalization algorithms of Figure 20.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..relational.errors import RepresentationError
from ..relational.values import BOTTOM, format_value
from .fields import FieldRef

#: Tolerance used when validating that local-world probabilities sum to one.
PROBABILITY_TOLERANCE = 1e-6


class Component:
    """One factor of a WSD: a relation over fields, with optional probabilities."""

    __slots__ = ("fields", "rows", "probabilities", "_positions")

    def __init__(
        self,
        fields: Sequence[FieldRef],
        rows: Iterable[Sequence[Any]],
        probabilities: Optional[Sequence[float]] = None,
    ) -> None:
        self.fields: Tuple[FieldRef, ...] = tuple(fields)
        if not self.fields:
            raise RepresentationError("a component must cover at least one field")
        if len(set(self.fields)) != len(self.fields):
            raise RepresentationError(f"component fields must be distinct: {self.fields!r}")
        self.rows: List[Tuple[Any, ...]] = [tuple(row) for row in rows]
        if not self.rows:
            raise RepresentationError("a component must have at least one local world")
        for row in self.rows:
            if len(row) != len(self.fields):
                raise RepresentationError(
                    f"local world {row!r} has {len(row)} values, expected {len(self.fields)}"
                )
        if probabilities is None:
            self.probabilities: Optional[List[float]] = None
        else:
            self.probabilities = [float(p) for p in probabilities]
            if len(self.probabilities) != len(self.rows):
                raise RepresentationError("probabilities must parallel the local worlds")
        self._positions: Dict[FieldRef, int] = {f: i for i, f in enumerate(self.fields)}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def certain(cls, field: FieldRef, value: Any) -> "Component":
        """A singleton component: one field with one certain value."""
        return cls((field,), [(value,)], [1.0])

    @classmethod
    def uniform(cls, field: FieldRef, values: Sequence[Any]) -> "Component":
        """A one-field component whose values are equally likely."""
        values = list(values)
        probability = 1.0 / len(values)
        return cls((field,), [(v,) for v in values], [probability] * len(values))

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def arity(self) -> int:
        return len(self.fields)

    @property
    def size(self) -> int:
        """Number of local worlds."""
        return len(self.rows)

    @property
    def is_probabilistic(self) -> bool:
        return self.probabilities is not None

    def position(self, field: FieldRef) -> int:
        """Column position of ``field`` in this component."""
        try:
            return self._positions[field]
        except KeyError:
            raise RepresentationError(
                f"field {field.label()} is not defined by this component"
            ) from None

    def has_field(self, field: FieldRef) -> bool:
        return field in self._positions

    def value(self, row_index: int, field: FieldRef) -> Any:
        """Value of ``field`` in local world ``row_index``."""
        return self.rows[row_index][self.position(field)]

    def probability(self, row_index: int) -> float:
        """Probability of local world ``row_index`` (1.0 for non-probabilistic components)."""
        if self.probabilities is None:
            return 1.0
        return self.probabilities[row_index]

    def fields_of_tuple(self, relation: str, tuple_id: Any) -> Tuple[FieldRef, ...]:
        """The fields of this component belonging to one tuple."""
        return tuple(
            f for f in self.fields if f.relation == relation and f.tuple_id == tuple_id
        )

    def tuples_covered(self) -> List[Tuple[str, Any]]:
        """Distinct ``(relation, tuple_id)`` pairs this component touches."""
        seen: List[Tuple[str, Any]] = []
        for field in self.fields:
            key = (field.relation, field.tuple_id)
            if key not in seen:
                seen.append(key)
        return seen

    def slots(
        self,
        relation: str,
        tuple_id: Any,
        attributes: Iterable[str],
        position_of: Callable[[str], int],
    ) -> List[Tuple[int, int]]:
        """Where one template row's placeholders live: ``(row position, column)`` per attribute.

        ``position_of`` maps an attribute to its position in the template
        row; the pairs drive :func:`fill_placeholders`.
        """
        return [
            (position_of(a), self.position(FieldRef(relation, tuple_id, a))) for a in attributes
        ]

    def validate(self) -> None:
        """Check internal consistency (probability mass, arities)."""
        if self.probabilities is not None:
            total = sum(self.probabilities)
            if abs(total - 1.0) > PROBABILITY_TOLERANCE:
                raise RepresentationError(
                    f"component probabilities sum to {total}, expected 1 "
                    f"(fields {[f.label() for f in self.fields]})"
                )
            if any(p < -PROBABILITY_TOLERANCE for p in self.probabilities):
                raise RepresentationError("component has a negative local-world probability")

    # ------------------------------------------------------------------ #
    # Paper primitives
    # ------------------------------------------------------------------ #

    def ext(self, source: FieldRef, target: FieldRef) -> "Component":
        """Extend with a new column ``target`` that copies column ``source``.

        This is the ``ext(C, A_i, B)`` primitive of Section 4, used by the
        ``copy`` step of every operator in Figure 9.
        """
        if self.has_field(target):
            raise RepresentationError(f"field {target.label()} already defined by component")
        position = self.position(source)
        fields = self.fields + (target,)
        rows = [row + (row[position],) for row in self.rows]
        return Component(fields, rows, self.probabilities)

    def compose(self, other: "Component") -> "Component":
        """Relational product of two components (probabilities multiplied).

        This is the ``compose`` function of Section 4.  The two components
        must define disjoint field sets.
        """
        overlap = set(self.fields) & set(other.fields)
        if overlap:
            raise RepresentationError(
                f"cannot compose components sharing fields {[f.label() for f in overlap]}"
            )
        fields = self.fields + other.fields
        rows: List[Tuple[Any, ...]] = []
        probabilities: Optional[List[float]] = (
            [] if self.is_probabilistic and other.is_probabilistic else None
        )
        for i, left in enumerate(self.rows):
            for j, right in enumerate(other.rows):
                rows.append(left + right)
                if probabilities is not None:
                    probabilities.append(self.probability(i) * other.probability(j))
        return Component(fields, rows, probabilities)

    def propagate_bottom(self) -> "Component":
        """Apply the ``propagate-⊥`` algorithm of Figure 12.

        In every local world, if any field of a tuple is ``⊥``, all fields
        of that tuple defined by this component become ``⊥``.
        """
        tuple_groups: Dict[Tuple[str, Any], List[int]] = {}
        for index, field in enumerate(self.fields):
            tuple_groups.setdefault((field.relation, field.tuple_id), []).append(index)

        new_rows: List[Tuple[Any, ...]] = []
        for row in self.rows:
            values = list(row)
            for positions in tuple_groups.values():
                if any(values[p] is BOTTOM for p in positions):
                    for p in positions:
                        values[p] = BOTTOM
            new_rows.append(tuple(values))
        return Component(self.fields, new_rows, self.probabilities)

    def map_rows(self, transform: Callable[[Tuple[Any, ...]], Tuple[Any, ...]]) -> "Component":
        """Return a component with ``transform`` applied to every local world."""
        return Component(self.fields, [transform(row) for row in self.rows], self.probabilities)

    def set_field_where(
        self, field: FieldRef, value: Any, condition: Callable[[Tuple[Any, ...]], bool]
    ) -> "Component":
        """Set ``field`` to ``value`` in every local world satisfying ``condition``."""
        position = self.position(field)

        def transform(row: Tuple[Any, ...]) -> Tuple[Any, ...]:
            if condition(row):
                values = list(row)
                values[position] = value
                return tuple(values)
            return row

        return self.map_rows(transform)

    def project_away(self, fields: Iterable[FieldRef]) -> Optional["Component"]:
        """Drop the given fields; returns None if no field remains.

        Local worlds that become identical after the drop are merged and
        their probabilities summed (the ``compress`` normalization).
        """
        drop = set(fields)
        keep_positions = [i for i, f in enumerate(self.fields) if f not in drop]
        if not keep_positions:
            return None
        kept_fields = tuple(self.fields[i] for i in keep_positions)
        merged: Dict[Tuple[Any, ...], float] = {}
        order: List[Tuple[Any, ...]] = []
        for index, row in enumerate(self.rows):
            reduced = tuple(row[i] for i in keep_positions)
            if reduced not in merged:
                merged[reduced] = 0.0
                order.append(reduced)
            merged[reduced] += self.probability(index)
        probabilities = [merged[row] for row in order] if self.is_probabilistic else None
        return Component(kept_fields, order, probabilities)

    def rename_fields(self, mapping: Dict[FieldRef, FieldRef]) -> "Component":
        """Rename fields according to ``mapping`` (fields not mentioned stay)."""
        fields = tuple(mapping.get(f, f) for f in self.fields)
        return Component(fields, self.rows, self.probabilities)

    def filter_rows(
        self, keep: Callable[[Tuple[Any, ...]], bool], renormalize: bool = True
    ) -> Optional["Component"]:
        """Keep only the local worlds satisfying ``keep``.

        With ``renormalize=True`` (the chase semantics, Figure 24) the
        probabilities of the surviving local worlds are rescaled to sum to
        one.  Returns None if no local world survives (inconsistency).
        """
        kept_rows: List[Tuple[Any, ...]] = []
        kept_probabilities: List[float] = []
        for index, row in enumerate(self.rows):
            if keep(row):
                kept_rows.append(row)
                kept_probabilities.append(self.probability(index))
        if not kept_rows:
            return None
        if not self.is_probabilistic:
            return Component(self.fields, kept_rows, None)
        if renormalize:
            mass = sum(kept_probabilities)
            if mass <= 0:
                return None
            kept_probabilities = [p / mass for p in kept_probabilities]
        return Component(self.fields, kept_rows, kept_probabilities)

    def compress(self) -> "Component":
        """Merge identical local worlds, summing probabilities (Figure 20, ``compress``)."""
        merged: Dict[Tuple[Any, ...], float] = {}
        order: List[Tuple[Any, ...]] = []
        for index, row in enumerate(self.rows):
            if row not in merged:
                merged[row] = 0.0
                order.append(row)
            merged[row] += self.probability(index)
        probabilities = [merged[row] for row in order] if self.is_probabilistic else None
        return Component(self.fields, order, probabilities)

    def is_certain(self) -> bool:
        """True iff the component has exactly one local world (certain information)."""
        return len(self.rows) == 1

    def column(self, field: FieldRef) -> List[Any]:
        """All values of ``field`` across local worlds (with duplicates)."""
        position = self.position(field)
        return [row[position] for row in self.rows]

    # ------------------------------------------------------------------ #
    # Display and comparison
    # ------------------------------------------------------------------ #

    def to_text(self) -> str:
        """ASCII rendering used by examples, mirroring the paper's figures."""
        headers = [f.label() for f in self.fields]
        if self.is_probabilistic:
            headers.append("P")
        body: List[List[str]] = []
        for index, row in enumerate(self.rows):
            cells = [format_value(v) for v in row]
            if self.is_probabilistic:
                cells.append(f"{self.probability(index):.4g}")
            body.append(cells)
        widths = [max(len(headers[i]), *(len(r[i]) for r in body)) for i in range(len(headers))]
        lines = [
            " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "-+-".join("-" * w for w in widths),
        ]
        lines.extend(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in body
        )
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Component):
            return NotImplemented
        return (
            self.fields == other.fields
            and self.rows == other.rows
            and self.probabilities == other.probabilities
        )

    def __repr__(self) -> str:
        return (
            f"Component({[f.label() for f in self.fields]!r}, {self.size} local worlds)"
        )


def fill_placeholders(
    row: Sequence[Any], slots: Sequence[Tuple[int, int]], local_world: Sequence[Any]
) -> Optional[List[Any]]:
    """``row`` with its placeholder positions filled in from one local world.

    Returns None when the tuple is absent in that world (a filled-in value
    is ``⊥``).  ``slots`` comes from :meth:`Component.slots`.
    """
    values = list(row)
    for row_position, column in slots:
        value = local_world[column]
        if value is BOTTOM:
            return None
        values[row_position] = value
    return values


def compose_all(components: Sequence[Component]) -> Component:
    """Compose a non-empty sequence of components left to right."""
    if not components:
        raise RepresentationError("compose_all requires at least one component")
    result = components[0]
    for component in components[1:]:
        result = result.compose(component)
    return result
