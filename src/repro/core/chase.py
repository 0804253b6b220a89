"""Chasing dependencies on WSDs and UWSDTs — data cleaning (Section 8, Figure 24).

Two classes of dependencies are supported, as in the paper:

* functional dependencies  ``A1, ..., Am -> A0``,
* single-tuple equality-generating dependencies
  ``A1 θ1 c1 ∧ ... ∧ Am θm cm  ⇒  A0 θ0 c0``, whose atoms are the
  selection conditions :class:`~repro.relational.predicates.AttrConst`.

Enforcing a dependency removes the worlds violating it: the components
holding the involved fields are composed and the violating local worlds are
deleted, with the probabilities of the surviving local worlds renormalized
(``y' = y / (1 − x)`` accumulated over all removed mass).  If a component
loses all its local worlds the world-set is inconsistent and
:class:`~repro.relational.errors.InconsistentWorldSetError` is raised —
the ``error("World-set is inconsistent")`` exit of Figure 24.

The chase needs a single pass over dependencies and tuples (no fixpoint),
because removing worlds can never introduce new violations.

Both chases skip a tuple when no world can satisfy an EGD's premises and
falsify its conclusion; one witness search answers that for a WSD and a
UWSDT alike.  The UWSDT variant applies the refinement discussed in the
paper: fields whose template value already decides a premise or conclusion
never force a component composition.  It splits every template into its
certain rows and its open rows (:class:`~repro.core.uwsdt.Template`).  The
certain side of an EGD is a selection: its violation condition ``φ1 ∧ ... ∧ φm ∧ ¬φ0`` is a
:class:`~repro.relational.predicates.Predicate`.  The disjunction of a
relation's EGD violations is rendered into one generated scan over its
certain rows and one over its open rows, EGDs with equal premises sharing
one disjunct ``φ1 ∧ ... ∧ φm ∧ (¬φ0 ∨ ¬φ0′ ∨ ...)`` so that a row tests each
premise once; each EGD's own scans then read only
the rows those kept — a reported row without a placeholder on the
dependency's attributes is inconsistent in every world — and its open rows'
source also yields the row check that judges the filled-in local worlds.
The uncertain side visits only the open rows with a ``?`` on one of the
EGD's attributes
(:meth:`~repro.core.uwsdt.UWSDT.placeholder_rows_on`), so with realistic
placeholder densities almost all work happens on the certain relations.
``holds_for`` is the specification of both dependency classes (the naive
baseline, the WSD chase and the generated function's ``TypeError`` fallback
read it); the UWSDT chase itself never calls it.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs.metrics import get_registry
from ..relational.errors import InconsistentWorldSetError, RepresentationError
from ..relational.predicates import AttrConst, Or, Predicate, compare
from ..relational.relation import Row
from ..relational.schema import RelationSchema
from ..relational.values import BOTTOM, PLACEHOLDER
from .component import Component, fill_placeholders
from .fields import FieldRef
from .uwsdt import UWSDT, certain_tid
from .wsd import WSD


class FunctionalDependency:
    """A functional dependency ``A1, ..., Am -> A0`` over one relation."""

    def __init__(self, relation: str, determinants: Sequence[str], dependent: str) -> None:
        if not determinants:
            raise RepresentationError("a functional dependency needs at least one determinant")
        self.relation = relation
        self.determinants = tuple(determinants)
        self.dependent = dependent

    def attributes(self) -> Tuple[str, ...]:
        return self.determinants + (self.dependent,)

    def holds_for(self, left: Any, right: Any) -> bool:
        """Check the FD for one pair of tuples (given full value assignments)."""
        if all(left[a] == right[a] for a in self.determinants):
            return left[self.dependent] == right[self.dependent]
        return True

    def compile(
        self, schema: RelationSchema
    ) -> Callable[[Sequence[Any], Sequence[Any]], bool]:
        """:meth:`holds_for` on pairs of raw rows laid out by ``schema``."""
        key_of = operator.itemgetter(*map(schema.position, self.determinants))
        dependent = schema.position(self.dependent)
        return lambda left, right: (
            key_of(left) != key_of(right) or left[dependent] == right[dependent]
        )

    def __repr__(self) -> str:
        return f"FD({self.relation}: {', '.join(self.determinants)} -> {self.dependent})"


class EqualityGeneratingDependency:
    """A single-tuple EGD ``φ1 ∧ ... ∧ φm ⇒ φ0`` over one relation.

    Each atom ``A θ c`` is an :class:`~repro.relational.predicates.AttrConst`,
    the selection condition of Figure 16; anything else is rejected here
    rather than inside a chase.
    """

    def __init__(self, relation: str, premises: Sequence[AttrConst], conclusion: AttrConst) -> None:
        self.relation = relation
        self.premises = tuple(premises)
        self.conclusion = conclusion
        for atom in (*self.premises, conclusion):
            if not isinstance(atom, AttrConst):
                raise RepresentationError(
                    f"an EGD atom must be an AttrConst 'A θ c', got {atom!r}"
                )

    def attributes(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for atom in list(self.premises) + [self.conclusion]:
            if atom.attribute not in seen:
                seen.append(atom.attribute)
        return tuple(seen)

    def holds_for(self, values: Any) -> bool:
        """Check the EGD for one tuple (given a full value assignment)."""
        if all(compare(values[p.attribute], p.op, p.constant) for p in self.premises):
            conclusion = self.conclusion
            return compare(values[conclusion.attribute], conclusion.op, conclusion.constant)
        return True

    def __repr__(self) -> str:
        def text(atom: AttrConst) -> str:
            return f"{atom.attribute} {atom.op} {atom.constant!r}"

        premises = " AND ".join(map(text, self.premises))
        return f"EGD({self.relation}: {premises} => {text(self.conclusion)})"


class _Violation(Predicate):
    """The rows violating one of some EGDs with equal premises,
    ``φ1 ∧ ... ∧ φm ∧ (¬φ0 ∨ ¬φ0′ ∨ ...)``, as a selection condition.

    One dependency is its own violation, ``φ1 ∧ ... ∧ φm ∧ ¬φ0``.  The shared
    premises are tested once; the caller groups only EGDs whose premise
    lists are equal (:func:`_premise_key`).  The negation is a plain ``not``:
    :class:`~repro.relational.predicates.Not` excludes ``⊥`` and ``?``
    cells, which is selection semantics, whereas ``holds_for`` says a ``⊥``
    or ``?`` conclusion is not met.
    """

    def __init__(self, *dependencies: EqualityGeneratingDependency) -> None:
        self.dependencies = dependencies

    def evaluate(self, schema: RelationSchema, row: Sequence[Any]) -> bool:
        def values(dependency: EqualityGeneratingDependency) -> Dict[str, Any]:
            return {a: row[schema.position(a)] for a in dependency.attributes()}

        return any(not d.holds_for(values(d)) for d in self.dependencies)

    def _fragment(self, source) -> str:
        broken = " or ".join(f"not {d.conclusion._fragment(source)}" for d in self.dependencies)
        if len(self.dependencies) > 1:
            broken = f"({broken})"
        premises = [premise._fragment(source) for premise in self.dependencies[0].premises]
        return "(" + " and ".join([*premises, broken]) + ")"


Dependency = Any  # FunctionalDependency | EqualityGeneratingDependency


# --------------------------------------------------------------------------- #
# Chase on WSDs (Figure 24)
# --------------------------------------------------------------------------- #


def chase_wsd(wsd: WSD, dependencies: Iterable[Dependency]) -> WSD:
    """Chase all ``dependencies`` on ``wsd`` in place (Figure 24); returns ``wsd``."""
    for dependency in dependencies:
        if isinstance(dependency, FunctionalDependency):
            _chase_fd_wsd(wsd, dependency)
        elif isinstance(dependency, EqualityGeneratingDependency):
            _chase_egd_wsd(wsd, dependency)
        else:
            raise RepresentationError(f"unsupported dependency {dependency!r}")
    return wsd


def _filter_component(component: Component, keep: Callable[[Tuple[Any, ...]], bool]) -> Component:
    filtered = component.filter_rows(keep, renormalize=True)
    if filtered is None:
        raise InconsistentWorldSetError("World-set is inconsistent.")
    return filtered


def _all_open(attribute: str) -> Any:
    """A WSD has no template: each of its fields is held by a component."""
    return PLACEHOLDER


def _chase_egd_wsd(wsd: WSD, dependency: EqualityGeneratingDependency) -> None:
    relation = dependency.relation
    attributes = dependency.attributes()
    for tuple_id in wsd.tuple_ids.get(relation, ()):
        if not _egd_violation_possible(wsd, dependency, tuple_id, _all_open):
            continue
        fields = [FieldRef(relation, tuple_id, attribute) for attribute in attributes]
        component_index = wsd.merge_components_of(fields)
        component = wsd.components[component_index]
        positions = {attribute: component.position(field) for attribute, field in zip(attributes, fields)}

        def keep(row: Tuple[Any, ...]) -> bool:
            values = {attribute: row[positions[attribute]] for attribute in attributes}
            if any(value is BOTTOM for value in values.values()):
                return True
            return dependency.holds_for(values)

        wsd.replace_component(component_index, _filter_component(component, keep))


def _egd_violation_possible(
    engine: Any,
    dependency: EqualityGeneratingDependency,
    tuple_id: Any,
    template_value: Callable[[str], Any],
) -> bool:
    """Refinement: can some world satisfy every premise and falsify the conclusion?

    ``engine`` is a WSD or a UWSDT; ``template_value(attribute)`` is the
    tuple's template value there, ``?`` where a component holds the field.
    Atoms over template values are decided directly.  The others are
    grouped by the component holding their field and each group is checked
    against the component's local worlds; components are independent, so a
    violating world exists iff every group has a witness.  The check is per
    component, not per attribute: two premises whose fields an earlier
    dependency already composed are judged jointly, so a conjunction that can
    no longer hold does not force another composition.
    """
    relation = dependency.relation
    groups: Dict[int, List[AttrConst]] = {}
    for premise in dependency.premises:
        value = template_value(premise.attribute)
        if value is PLACEHOLDER:
            cid = engine.component_of(FieldRef(relation, tuple_id, premise.attribute))
            groups.setdefault(cid, []).append(premise)
        elif not compare(value, premise.op, premise.constant):
            return False
    conclusion = dependency.conclusion
    conclusion_cid: Optional[int] = None
    value = template_value(conclusion.attribute)
    if value is PLACEHOLDER:
        conclusion_cid = engine.component_of(FieldRef(relation, tuple_id, conclusion.attribute))
        groups.setdefault(conclusion_cid, [])
    elif compare(value, conclusion.op, conclusion.constant):
        return False

    for cid, atoms in groups.items():
        component = engine.components[cid]
        positions = [
            (atom, component.position(FieldRef(relation, tuple_id, atom.attribute)))
            for atom in atoms
        ]
        conclusion_position = (
            component.position(FieldRef(relation, tuple_id, conclusion.attribute))
            if cid == conclusion_cid
            else None
        )
        if not _egd_component_witness(component, positions, conclusion, conclusion_position):
            return False
    return True


def _egd_component_witness(
    component: Component,
    premise_positions: Sequence[Tuple[AttrConst, int]],
    conclusion: AttrConst,
    conclusion_position: Optional[int],
) -> bool:
    """True iff some local world satisfies the premises and can falsify the conclusion.

    ``BOTTOM`` values are treated conservatively (the atom may still go either
    way), matching the ``keep`` closures of the chase proper.
    """
    for row in component.rows:
        satisfied = True
        for atom, position in premise_positions:
            value = row[position]
            if value is not BOTTOM and not compare(value, atom.op, atom.constant):
                satisfied = False
                break
        if not satisfied:
            continue
        if conclusion_position is not None:
            value = row[conclusion_position]
            if value is not BOTTOM and compare(value, conclusion.op, conclusion.constant):
                continue
        return True
    return False


def _chase_fd_wsd(wsd: WSD, dependency: FunctionalDependency) -> None:
    relation = dependency.relation
    attributes = dependency.attributes()
    tuple_ids = wsd.tuple_ids.get(relation, [])
    for index, first in enumerate(tuple_ids):
        for second in tuple_ids[index + 1 :]:
            if not _fd_may_be_violated_wsd(wsd, dependency, first, second):
                continue
            # Refinement (Section 8): when the dependent values certainly differ,
            # the dependency reduces to "the determinants must differ", so the
            # dependent components stay unmerged (exactly Figure 3 / Figure 4).
            dependents_differ = _values_certainly_differ_wsd(
                wsd, relation, first, second, dependency.dependent
            )
            involved_attributes = (
                dependency.determinants if dependents_differ else attributes
            )
            fields = [
                FieldRef(relation, first, attribute) for attribute in involved_attributes
            ] + [FieldRef(relation, second, attribute) for attribute in involved_attributes]
            component_index = wsd.merge_components_of(fields)
            component = wsd.components[component_index]
            first_positions = {
                attribute: component.position(FieldRef(relation, first, attribute))
                for attribute in involved_attributes
            }
            second_positions = {
                attribute: component.position(FieldRef(relation, second, attribute))
                for attribute in involved_attributes
            }

            def keep(row: Tuple[Any, ...]) -> bool:
                left = {a: row[first_positions[a]] for a in involved_attributes}
                right = {a: row[second_positions[a]] for a in involved_attributes}
                if any(value is BOTTOM for value in left.values()) or any(
                    value is BOTTOM for value in right.values()
                ):
                    return True
                if dependents_differ:
                    # The dependents differ in every world, so worlds where the
                    # determinants agree are inconsistent.
                    return not all(
                        left[a] == right[a] for a in dependency.determinants
                    )
                return dependency.holds_for(left, right)

            wsd.replace_component(component_index, _filter_component(component, keep))


def _values_certainly_differ_wsd(
    wsd: WSD, relation: str, first: Any, second: Any, attribute: str
) -> bool:
    """True iff the two fields take different values in every world."""
    first_field = FieldRef(relation, first, attribute)
    second_field = FieldRef(relation, second, attribute)
    first_index = wsd.component_of(first_field)
    second_index = wsd.component_of(second_field)
    if first_index == second_index:
        component = wsd.components[first_index]
        first_position = component.position(first_field)
        second_position = component.position(second_field)
        return all(
            row[first_position] is BOTTOM
            or row[second_position] is BOTTOM
            or row[first_position] != row[second_position]
            for row in component.rows
        )
    first_values = _possible_values(wsd, relation, first, attribute)
    second_values = _possible_values(wsd, relation, second, attribute)
    return bool(first_values) and bool(second_values) and not (first_values & second_values)


def _fd_may_be_violated_wsd(
    wsd: WSD, dependency: FunctionalDependency, first: Any, second: Any
) -> bool:
    """Refinement: skip pairs that certainly agree on the dependent or certainly disagree on a determinant."""
    relation = dependency.relation
    for attribute in dependency.determinants:
        if _values_certainly_differ_wsd(wsd, relation, first, second, attribute):
            return False
    first_dependent = _possible_values(wsd, relation, first, dependency.dependent)
    second_dependent = _possible_values(wsd, relation, second, dependency.dependent)
    return not (len(first_dependent) == 1 and first_dependent == second_dependent)


def _possible_values(engine: Any, relation: str, tuple_id: Any, attribute: str) -> set:
    """The non-``⊥`` values a component of the WSD or UWSDT ``engine`` gives the
    field; empty for a UWSDT field its template holds."""
    field = FieldRef(relation, tuple_id, attribute)
    cid = engine.component_of(field)
    if cid is None:
        return set()
    return {value for value in engine.components[cid].column(field) if value is not BOTTOM}


# --------------------------------------------------------------------------- #
# Chase on UWSDTs (the engine used for the Figure 26 experiments)
# --------------------------------------------------------------------------- #


def chase_uwsdt(uwsdt: UWSDT, dependencies: Iterable[Dependency]) -> UWSDT:
    """Chase all ``dependencies`` on ``uwsdt`` in place; returns ``uwsdt``.

    A relation's template is read once for all of its EGDs: one generated
    scan each over its certain and its open rows keeps the rows violating
    any of them (normally none), and each EGD then judges only those
    candidates, in list order.  All of this runs before the first component
    is touched — the scans are read-only and independent of component state
    — so a fully certain violation (or an unsupported dependency) raises
    with ``uwsdt`` as it was passed in, naming the same EGD and row as a
    scan per EGD would (an EGD naming an attribute its relation lacks
    raises at the relation's first EGD).  Not covered: certain rows
    violating an FD are found inside its bucket walk, at the FD's place in
    the list, and an inconsistency found *inside* a component (all its local
    worlds removed) raises mid-way, after the earlier dependencies were
    applied, as in Figure 24.
    """
    dependencies = list(dependencies)
    candidates: Dict[str, Tuple[List[Row], List[Row]]] = {}
    steps = []
    for dependency in dependencies:
        if isinstance(dependency, EqualityGeneratingDependency):
            relation = dependency.relation
            if relation not in candidates:
                candidates[relation] = _violation_candidates(uwsdt, relation, dependencies)
            steps.append(
                (dependency, _check_certain_rows_egd(uwsdt, dependency, *candidates[relation]))
            )
        elif isinstance(dependency, FunctionalDependency):
            steps.append((dependency, None))
        else:
            raise RepresentationError(f"unsupported dependency {dependency!r}")
    # The chase never edits a template nor adds or drops a placeholder field,
    # so the open rows' ``?`` buckets are built once and stay valid throughout.
    for dependency, checked in steps:
        if checked is None:
            _chase_fd_uwsdt(uwsdt, dependency)
        else:
            _chase_egd_uwsdt(uwsdt, dependency, *checked)
    return uwsdt


def _count_chase(rows_scanned: int, rows_through_components: int, removed: int) -> None:
    """Once per dependency, never per row (docs/observability.md)."""
    registry = get_registry()
    registry.counter("repro.chase.rows_scanned").inc(rows_scanned)
    registry.counter("repro.chase.rows_through_components").inc(rows_through_components)
    registry.counter("repro.chase.local_worlds_removed").inc(removed)


def _premise_key(dependency: EqualityGeneratingDependency) -> Any:
    """What EGDs sharing one violation disjunct have equal: per premise its
    attribute, operator and constant with its class (``AttrConst.value_key``);
    the dependency itself, equal only to itself, when a constant does not hash."""
    key = tuple(premise.value_key() for premise in dependency.premises)
    return dependency if None in key else key


def _violation_candidates(
    uwsdt: UWSDT, relation: str, dependencies: Sequence[Dependency]
) -> Tuple[List[Row], List[Row]]:
    """The certain and the open rows of ``relation`` violating one of its EGDs.

    One generated scan over each side for the disjunction of every EGD's
    violation: a row violates the disjunction iff it violates one of them,
    so each EGD finds its own violating rows among these, in template order.
    EGDs with equal premises are one disjunct, so a shared premise is tested
    once per row.
    """
    template = uwsdt.templates[relation]
    groups: Dict[Any, List[EqualityGeneratingDependency]] = {}
    for dependency in dependencies:
        if isinstance(dependency, EqualityGeneratingDependency) and dependency.relation == relation:
            groups.setdefault(_premise_key(dependency), []).append(dependency)
    violation = Or(*(_Violation(*group) for group in groups.values()))
    get_registry().counter("repro.chase.rows_scanned").inc(len(template))
    return (
        violation.compile_scan(template.certain.schema)(template.certain),
        violation.compile_scan(template.open.schema)(template.open),
    )


def _check_certain_rows_egd(
    uwsdt: UWSDT,
    dependency: EqualityGeneratingDependency,
    certain: List[Row],
    opened: List[Row],
) -> Tuple[Callable[[Sequence[Any]], bool], int]:
    """One-world cleaning: the EGD's generated scans over its relation's candidate rows.

    ``certain`` and ``opened`` are :func:`_violation_candidates`.  A reported
    open row with a placeholder on the dependency's attributes (``?`` never
    meets a conclusion) is not a certain violation; its components decide.
    A violating row is named by its values.  Returns the row check of the
    open rows' source, the violation test for the uncertain side, and the
    number of candidate rows read.
    """
    relation = dependency.relation
    template = uwsdt.templates[relation]
    violation = _Violation(dependency)
    violated, scan = violation.compile_both(template.open.schema)
    violating = violation.compile_scan(template.certain.schema)(certain) if certain else []
    positions = [template.open.schema.position(a) for a in dependency.attributes()]
    violating += [
        row[1:]
        for row in scan(opened)
        if all(row[p] is not PLACEHOLDER for p in positions)
    ]
    if violating:
        raise InconsistentWorldSetError(
            f"certain tuple {violating[0]!r} of {relation!r} violates {dependency!r} "
            "in every world"
        )
    return violated, len(certain) + len(opened)


def _chase_egd_uwsdt(
    uwsdt: UWSDT,
    dependency: EqualityGeneratingDependency,
    violated: Callable[[Sequence[Any]], bool],
    rows_scanned: int,
) -> None:
    """The uncertain side of one EGD: the rows with a ``?`` on its attributes reach components."""
    relation = dependency.relation
    position_of = uwsdt.templates[relation].open.schema.position
    attributes = dependency.attributes()
    positions = [(a, position_of(a)) for a in attributes]
    through_components = removed = 0

    for row in uwsdt.placeholder_rows_on(relation, attributes):
        through_components += 1
        tuple_id = row[0]
        if not _egd_violation_possible(
            uwsdt, dependency, tuple_id, lambda attribute: row[position_of(attribute)]
        ):
            continue

        open_attributes = [a for a, p in positions if row[p] is PLACEHOLDER]
        cid = uwsdt.merge_components(
            [uwsdt.component_of(FieldRef(relation, tuple_id, a)) for a in open_attributes]
        )
        component = uwsdt.components[cid]
        slots = component.slots(relation, tuple_id, open_attributes, position_of)

        def keep(local_world: Tuple[Any, ...]) -> bool:
            values = fill_placeholders(row, slots, local_world)
            return values is None or not violated(values)

        filtered = _filter_component(component, keep)
        removed += len(component.rows) - len(filtered.rows)
        uwsdt.replace_component(cid, filtered)
    _count_chase(rows_scanned, through_components, removed)


def _chase_fd_uwsdt(uwsdt: UWSDT, dependency: FunctionalDependency) -> None:
    """FD chase on a UWSDT.

    Tuples are grouped by the possible values of the determinant attributes
    so that only pairs that may agree on the left-hand side are examined —
    the practical observation of Section 9 that key constraints rarely force
    large compositions.  The groups read the certain rows, each under its
    :func:`~repro.core.uwsdt.certain_tid`, then the open rows.  Within a
    group the rows certain on the dependency's attributes are checked as in
    one world (they all must carry the first one's dependent value); only
    pairs involving a row with a placeholder on the dependency's attributes
    reach the components.  A certain violation names its rows by their values.
    """
    relation = dependency.relation
    template = uwsdt.templates[relation]
    schema = template.open.schema
    holds = dependency.compile(schema)
    position_of = schema.position
    attributes = dependency.attributes()
    key_of = operator.itemgetter(*(position_of(a) for a in dependency.determinants))
    if len(dependency.determinants) == 1:
        value_of = key_of  # itemgetter yields the bare value; bucket keys are tuples

        def key_of(row: Tuple[Any, ...]) -> Tuple[Any, ...]:
            return (value_of(row),)

    positions = [(a, position_of(a)) for a in attributes]

    buckets: Dict[Any, List[Tuple[Any, ...]]] = {}
    open_attributes: Dict[Any, List[str]] = {}
    certain_rows = [(certain_tid(relation, row), *row) for row in template.certain]
    for row in certain_rows:
        buckets.setdefault(key_of(row), []).append(row)
    for row in template.open:
        placeholders = [a for a, p in positions if row[p] is PLACEHOLDER]
        if placeholders:
            open_attributes[row[0]] = placeholders
            keys = _determinant_keys(uwsdt, dependency, row, placeholders, position_of)
        else:
            keys = (key_of(row),)
        for key in keys:
            buckets.setdefault(key, []).append(row)

    removed = 0
    examined: Set[Tuple[Any, Any]] = set()
    for rows in buckets.values():
        if len(rows) == 1:
            continue
        certain = [row for row in rows if row[0] not in open_attributes]
        for row in certain[1:]:
            if not holds(certain[0], row):
                raise InconsistentWorldSetError(
                    f"certain tuples {certain[0][1:]!r} and {row[1:]!r} of {relation!r} "
                    f"violate {dependency!r} in every world"
                )
        if len(certain) == len(rows):
            continue
        for index, first in enumerate(rows):
            first_open = open_attributes.get(first[0], ())
            for second in rows[index + 1 :]:
                second_open = open_attributes.get(second[0], ())
                if not first_open and not second_open:
                    continue
                if first_open and second_open:
                    # Two open rows can share several buckets; chase the pair once.
                    if (first[0], second[0]) in examined:
                        continue
                    examined.add((first[0], second[0]))
                removed += _chase_fd_pair_uwsdt(
                    uwsdt, dependency, holds, first, first_open, second, second_open
                )
    _count_chase(len(template), len(open_attributes), removed)


def _determinant_keys(
    uwsdt: UWSDT,
    dependency: FunctionalDependency,
    row: Tuple[Any, ...],
    placeholders: Sequence[str],
    position_of: Callable[[str], int],
):
    """All possible determinant value combinations of one tuple (for bucketing)."""
    per_attribute: List[List[Any]] = []
    for attribute in dependency.determinants:
        if attribute in placeholders:
            per_attribute.append(
                sorted(
                    _possible_values(uwsdt, dependency.relation, row[0], attribute),
                    key=repr,
                )
            )
        else:
            per_attribute.append([row[position_of(attribute)]])
    return itertools.product(*per_attribute)


def _chase_fd_pair_uwsdt(
    uwsdt: UWSDT,
    dependency: FunctionalDependency,
    holds: Callable[[Sequence[Any], Sequence[Any]], bool],
    first: Tuple[Any, ...],
    first_open: Sequence[str],
    second: Tuple[Any, ...],
    second_open: Sequence[str],
) -> int:
    """Chase one pair of template rows of which at least one has open FD attributes.

    Returns the number of local worlds removed."""
    relation = dependency.relation
    position_of = uwsdt.templates[relation].open.schema.position
    dependent = position_of(dependency.dependent)

    # Refinement: certainly equal dependents cannot cause a violation.
    if (
        dependency.dependent not in first_open
        and dependency.dependent not in second_open
        and first[dependent] == second[dependent]
    ):
        return 0

    cid = uwsdt.merge_components(
        [uwsdt.component_of(FieldRef(relation, first[0], a)) for a in first_open]
        + [uwsdt.component_of(FieldRef(relation, second[0], a)) for a in second_open]
    )
    component = uwsdt.components[cid]
    first_slots = component.slots(relation, first[0], first_open, position_of)
    second_slots = component.slots(relation, second[0], second_open, position_of)

    def keep(local_world: Tuple[Any, ...]) -> bool:
        left = fill_placeholders(first, first_slots, local_world)
        right = fill_placeholders(second, second_slots, local_world)
        return left is None or right is None or holds(left, right)

    filtered = _filter_component(component, keep)
    uwsdt.replace_component(cid, filtered)
    return len(component.rows) - len(filtered.rows)
