"""WSD components: the factors of a world-set decomposition.

A component is a relation over a set of *fields* (``R.t.A`` triples); its
rows are the *local worlds* of the component.  In the probabilistic case
every local world carries a probability and the probabilities of one
component sum to one (Section 3, "Modeling Probabilistic Information").

Components support the primitive operations the paper's algorithms are
built from:

* ``ext``       — add a copy of an existing column under a new field name
  (the ``ext(C, A_i, B)`` function of Section 4); ``ext_many`` adds several
  in one pass over the local worlds,
* ``compose``   — relational product of two components with probabilities
  multiplied (the ``compose`` function of Section 4),
* ``propagate_bottom`` — the ``propagate-⊥`` algorithm of Figure 12, and
  ``delete_tuple``, which marks a tuple ``⊥`` in some local worlds and
  propagates in the same walk (lines 4–6 of Figure 16),
* ``project_away`` / ``filter_rows`` / ``compress`` — used by projection,
  selection, the chase and the normalization algorithms of Figure 20.

A component is immutable: its fields, local worlds and probabilities are
tuples, and every primitive returns a new component.  A UWSDT and its
copies share component objects (:meth:`~repro.core.uwsdt.UWSDT.copy`), so
an in-place write would change every engine holding one; as tuples, such a
write raises instead.

Checked and derived construction.  ``Component(...)`` is the checked
constructor: it turns its arguments into tuples and checks the shape
(fields non-empty and distinct, at least one local world, every row of the
fields' arity, probabilities parallel to the rows).  A primitive deriving a
component from a valid one knows its result has that shape, so it builds it
with the module-private :func:`_derive`, which adopts the tuples and reuses
or extends the parent's position map — k copies into one component cost one
walk over its local worlds, not k re-checks.  The checks move rather than
vanish: :meth:`Component.validate` runs them, :meth:`UWSDT.validate
<repro.core.uwsdt.UWSDT.validate>` validates every component, and plan
verification validates every component an operator's result reaches.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..relational.errors import RepresentationError
from ..relational.values import BOTTOM, format_value
from .fields import FieldRef

#: A component's local worlds and their probabilities, as stored.
Rows = Tuple[Tuple[Any, ...], ...]
Probabilities = Tuple[float, ...]

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
        self.rows: Rows = tuple(tuple(row) for row in rows)
        self.probabilities: Optional[Probabilities] = (
            None if probabilities is None else tuple(float(p) for p in probabilities)
        )
        self._positions: Dict[FieldRef, int] = {f: i for i, f in enumerate(self.fields)}
        self._check_structure()

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

    def _check_structure(self) -> None:
        """The checks of the public constructor: the shape every component has."""
        if not self.fields:
            raise RepresentationError("a component must cover at least one field")
        if len(set(self.fields)) != len(self.fields):
            raise RepresentationError(f"component fields must be distinct: {self.fields!r}")
        if not self.rows:
            raise RepresentationError("a component must have at least one local world")
        for row in self.rows:
            if len(row) != len(self.fields):
                raise RepresentationError(
                    f"local world {row!r} has {len(row)} values, expected {len(self.fields)}"
                )
        if self.probabilities is not None and len(self.probabilities) != len(self.rows):
            raise RepresentationError("probabilities must parallel the local worlds")

    def validate(self) -> None:
        """Check the component's structure and its probability mass.

        The primitives below derive a component from a valid one without
        the constructor's checks (:func:`_derive`); this re-checks what they
        promise: the constructor's checks, a position map equal to the
        fields' enumeration, and fields, local worlds and probabilities
        stored as tuples.
        """
        self._check_structure()
        if not (
            type(self.fields) is tuple
            and type(self.rows) is tuple
            and all(type(row) is tuple for row in self.rows)
            and (self.probabilities is None or type(self.probabilities) is tuple)
        ):
            raise RepresentationError(
                f"component over {[f.label() for f in self.fields]} is not stored as tuples"
            )
        if self._positions != {f: i for i, f in enumerate(self.fields)}:
            raise RepresentationError(
                f"position map out of sync with fields {[f.label() for f in self.fields]}"
            )
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
        return self.ext_many(((source, target),))

    def ext_many(self, pairs: Iterable[Tuple[FieldRef, FieldRef]]) -> "Component":
        """``ext`` for each ``(source, target)`` pair in order, in one pass.

        Equal to applying :meth:`ext` pair by pair, but every local world is
        extended once: k copies into one component cost one walk over its
        local worlds instead of k.  Sources must be fields of this component.
        """
        positions = dict(self._positions)
        targets: List[FieldRef] = []
        sources: List[int] = []
        for source, target in pairs:
            if target in positions:
                raise RepresentationError(f"field {target.label()} already defined by component")
            sources.append(self.position(source))
            positions[target] = len(positions)
            targets.append(target)
        if not targets:
            return self
        if len(sources) == 1:
            (position,) = sources
            rows = tuple([row + (row[position],) for row in self.rows])
        else:
            pick = operator.itemgetter(*sources)
            rows = tuple([row + pick(row) for row in self.rows])
        return _derive(self.fields + tuple(targets), rows, self.probabilities, positions)

    def ext_presence(
        self, target: FieldRef, value: Any, presence: Iterable[FieldRef]
    ) -> "Component":
        """Extend with a new column ``target``: ``⊥`` in the local worlds where a
        ``presence`` field is ``⊥``, ``value`` in the others.

        The "exists column" at the end of Section 4: a certain value turned
        into a placeholder that carries a tuple's presence.
        """
        if self.has_field(target):
            raise RepresentationError(f"field {target.label()} already defined by component")
        checked = [self.position(field) for field in presence]
        rows = tuple(
            [
                row + (BOTTOM if any(row[p] is BOTTOM for p in checked) else value,)
                for row in self.rows
            ]
        )
        positions = dict(self._positions)
        positions[target] = len(self.fields)
        return _derive(self.fields + (target,), rows, self.probabilities, positions)

    def compose(self, other: "Component") -> "Component":
        """Relational product of two components (probabilities multiplied).

        This is the ``compose`` function of Section 4.  The two components
        must define disjoint field sets.
        """
        overlap = [f for f in other.fields if f in self._positions]
        if overlap:
            raise RepresentationError(
                f"cannot compose components sharing fields {[f.label() for f in overlap]}"
            )
        offset = len(self.fields)
        positions = dict(self._positions)
        positions.update((f, offset + i) for i, f in enumerate(other.fields))
        rows = tuple([left + right for left in self.rows for right in other.rows])
        probabilities = None
        if self.probabilities is not None and other.probabilities is not None:
            probabilities = tuple(
                [p * q for p in self.probabilities for q in other.probabilities]
            )
        return _derive(self.fields + other.fields, rows, probabilities, positions)

    def _tuple_groups(self) -> Dict[Tuple[str, Any], List[int]]:
        """Column positions per ``(relation, tuple id)``, in field order."""
        groups: Dict[Tuple[str, Any], List[int]] = {}
        for index, field in enumerate(self.fields):
            groups.setdefault((field.relation, field.tuple_id), []).append(index)
        return groups

    def propagate_bottom(self) -> "Component":
        """Apply the ``propagate-⊥`` algorithm of Figure 12.

        In every local world, if any field of a tuple is ``⊥``, all fields
        of that tuple defined by this component become ``⊥``.
        """
        groups = list(self._tuple_groups().values())
        rows = tuple([_bottom_propagated(row, groups) for row in self.rows])
        return _derive(self.fields, rows, self.probabilities, self._positions)

    def delete_tuple(
        self, relation: str, tuple_id: Any, local_worlds: Iterable[int]
    ) -> Tuple["Component", bool]:
        """Delete tuple ``(relation, tuple_id)`` in the given local worlds (Figure 16, lines 4-6).

        Every field of the tuple becomes ``⊥`` in those local worlds, then
        ``propagate-⊥`` runs over the whole component — one walk and one
        derivation for both.  Returns the component (this one when
        ``local_worlds`` is empty) and whether every local world now deletes
        the tuple; a tuple without a field here is never deleted.
        """
        groups = self._tuple_groups()
        marked = groups.get((relation, tuple_id), [])
        failing = set(local_worlds)
        component = self
        if failing:
            others = list(groups.values())
            rows = []
            for index, row in enumerate(self.rows):
                if index in failing:
                    values = list(row)
                    for position in marked:
                        values[position] = BOTTOM
                    row = tuple(values)
                rows.append(_bottom_propagated(row, others))
            component = _derive(self.fields, tuple(rows), self.probabilities, self._positions)
        deleted = bool(marked) and all(
            any(row[p] is BOTTOM for p in marked) for row in component.rows
        )
        return component, deleted

    def _merged(self, rows: Iterable[Tuple[Any, ...]]) -> Tuple[Rows, Optional[Probabilities]]:
        """``rows`` (parallel to the local worlds) with equal rows merged, probabilities summed."""
        merged: Dict[Tuple[Any, ...], float] = {}
        for index, row in enumerate(rows):
            merged[row] = merged.get(row, 0.0) + self.probability(index)
        probabilities = tuple(merged.values()) if self.is_probabilistic else None
        return tuple(merged), probabilities

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
        rows, probabilities = self._merged(
            tuple(row[i] for i in keep_positions) for row in self.rows
        )
        return _derive(kept_fields, rows, probabilities)

    def rename_fields(self, mapping: Dict[FieldRef, FieldRef]) -> "Component":
        """Rename fields according to ``mapping`` (fields not mentioned stay)."""
        fields = tuple(mapping.get(f, f) for f in self.fields)
        component = _derive(fields, self.rows, self.probabilities)
        if len(component._positions) != len(fields):
            raise RepresentationError(f"component fields must be distinct: {fields!r}")
        return component

    def filter_rows(
        self, keep: Callable[[Tuple[Any, ...]], bool], renormalize: bool = True
    ) -> Optional["Component"]:
        """Keep only the local worlds satisfying ``keep``.

        With ``renormalize=True`` (the chase semantics, Figure 24) the
        probabilities of the surviving local worlds are rescaled to sum to
        one.  Returns None if no local world survives (inconsistency).
        """
        kept = [index for index, row in enumerate(self.rows) if keep(row)]
        if not kept:
            return None
        rows = tuple([self.rows[index] for index in kept])
        if self.probabilities is None:
            return _derive(self.fields, rows, None, self._positions)
        probabilities = [self.probabilities[index] for index in kept]
        if renormalize:
            mass = sum(probabilities)
            if mass <= 0:
                return None
            probabilities = [p / mass for p in probabilities]
        return _derive(self.fields, rows, tuple(probabilities), self._positions)

    def compress(self) -> "Component":
        """Merge identical local worlds, summing probabilities (Figure 20, ``compress``)."""
        rows, probabilities = self._merged(self.rows)
        return _derive(self.fields, rows, probabilities, self._positions)

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


def _bottom_propagated(row: Tuple[Any, ...], groups: Iterable[List[int]]) -> Tuple[Any, ...]:
    """``row`` with every tuple group that holds a ``⊥`` set to ``⊥`` throughout."""
    if BOTTOM not in row:  # identity is tried first, so False means no ``⊥``
        return row
    values = list(row)
    for positions in groups:
        if any(values[p] is BOTTOM for p in positions):
            for p in positions:
                values[p] = BOTTOM
    return tuple(values)


def _derive(
    fields: Tuple[FieldRef, ...],
    rows: Rows,
    probabilities: Optional[Probabilities],
    positions: Optional[Dict[FieldRef, int]] = None,
) -> Component:
    """A component derived by a primitive from a valid one, adopted without checks.

    The caller's proof replaces the constructor's checks: ``fields``,
    ``rows`` and ``probabilities`` are tuples of the right shapes, and
    ``positions`` — built from ``fields`` when omitted — is their position
    map, shared with the parent when the fields are the parent's (the map
    is never written after construction).  :meth:`Component.validate`
    re-checks all of it.  Only this module calls it.
    """
    component = Component.__new__(Component)
    component.fields = fields
    component.rows = rows
    component.probabilities = probabilities
    component._positions = (
        positions if positions is not None else {f: i for i, f in enumerate(fields)}
    )
    return component


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
