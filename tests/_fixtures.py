"""Shared strategies and the possible-worlds oracle.

This module is imported by test modules as ``from _fixtures import ...``.
It deliberately has a non-``conftest`` name: the benchmark suite has its own
``benchmarks/conftest.py``, and importing fixtures *by module name* from a
file called ``conftest`` resolves to whichever conftest pytest put on
``sys.path`` first — a collection-order lottery.  Pytest fixtures proper
live in ``tests/conftest.py`` (which re-exports from here).

The oracle checks the paper's correctness condition ``rep(Q̂(W)) = Q(rep(W))``:
a :class:`Case` is (or-set relations, dependencies chased into them, a
query), :func:`check_oracle` computes the reference once by brute force
(``naive.clean``, then ``naive.evaluate_query`` in every world) and holds
every execution path of :data:`CELLS` to it — result distribution, the
representation's invariants and every result tuple's confidence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import pytest
from hypothesis import event
from hypothesis import strategies as st

from repro.baselines import naive
from repro.core import UWSDT, WSD, FieldRef, normalize_wsd
from repro.core.algebra import BaseRelation, Query, evaluate_on_wsd
from repro.core.chase import (
    EqualityGeneratingDependency,
    FunctionalDependency,
    chase_uwsdt,
    chase_wsd,
)
from repro.core.confidence import (
    possible,
    possible_with_confidence,
    uwsdt_possible_with_confidence,
)
from repro.core.planner import GREEDY_THRESHOLD, plan_call_count, sampling_call_count
from repro.relational import (
    BOTTOM,
    And,
    AttrAttr,
    AttrConst,
    Database,
    InconsistentWorldSetError,
    Or,
    Relation,
    RelationSchema,
)
from repro.worlds import OrSet, OrSetRelation

#: Small domain values for generated relations/or-sets.
values_strategy = st.integers(min_value=0, max_value=4)
#: Numbers of three classes that compare equal across them (1 == 1.0 == True).
numbers_strategy = st.one_of(values_strategy, st.sampled_from([0.0, 1.0, 2.5]), st.booleans())
#: Numbers and strings in one column, as :func:`cases` draws them.
mixed_values_strategy = st.one_of(numbers_strategy, st.sampled_from(["1", "a"]))


def mixed_row_values(row: int):
    """The values of row ``row`` of a :func:`cases` relation: the first row is
    numbers only, so every column's type is a number or ``any`` and an
    integer constant may be compared with it; later rows mix in strings."""
    return numbers_strategy if row == 0 else mixed_values_strategy


def equal_across_types(relations) -> bool:
    """Do two values of different classes compare equal somewhere in ``relations``?"""
    seen = {}
    for relation in relations:
        for row in relation.rows:
            for cell in row:
                for value in cell.values if isinstance(cell, OrSet) else (cell,):
                    if seen.setdefault(value, type(value)) is not type(value):
                        return True
    return False


@st.composite
def orset_relations(draw, max_rows: int = 3, max_attrs: int = 3, max_alternatives: int = 3):
    """Random small or-set relations (bounded world count)."""
    attrs = draw(st.integers(min_value=1, max_value=max_attrs))
    schema = ("R", tuple(f"A{i}" for i in range(attrs)))
    fields = max_rows * attrs  # a budget that never runs out
    return draw(budgeted_orset_relations([schema], max_rows, max_alternatives, fields))[0]


@st.composite
def budgeted_orset_relations(
    draw,
    schemas,
    max_rows: int = 2,
    max_alternatives: int = 2,
    uncertain_budget: int = 4,
    row_values=lambda row: values_strategy,
):
    """One or-set relation per ``(name, attributes)`` schema, sharing a bound
    on the *total* number of uncertain fields; ``row_values(i)`` draws the
    values of row ``i``.

    The budget caps the represented world count at
    ``max_alternatives ** uncertain_budget`` regardless of how many
    relations or attributes the oracle query ranges over — that is what
    keeps deep multi-relation oracle runs enumerable.
    """
    budget = uncertain_budget
    relations = []
    for name, attributes in schemas:
        schema = RelationSchema(name, tuple(attributes))
        relation = OrSetRelation(schema)
        rows = draw(st.integers(min_value=1, max_value=max_rows))
        for index in range(rows):
            values = row_values(index)
            row = []
            for _ in attributes:
                if budget > 0 and draw(st.booleans()):
                    budget -= 1
                    size = draw(st.integers(min_value=2, max_value=max_alternatives))
                    candidates = draw(st.lists(values, min_size=size, max_size=size, unique=True))
                    row.append(OrSet(candidates))
                else:
                    row.append(draw(values))
            relation.insert(tuple(row))
        relations.append(relation)
    return relations


def orsets(name, attributes, *rows):
    """A written or-set relation: ``orsets("R", "AB", (1, OrSet([2, 3])))``."""
    return OrSetRelation.from_dicts(name, list(attributes), [dict(zip(attributes, r)) for r in rows])


@st.composite
def plain_relations(draw, name: str = "R", max_rows: int = 5, max_attrs: int = 3):
    """Random small plain relations."""
    attrs = draw(st.integers(min_value=1, max_value=max_attrs))
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    schema = RelationSchema(name, tuple(f"A{i}" for i in range(attrs)))
    relation = Relation(schema)
    for _ in range(rows):
        relation.insert(tuple(draw(values_strategy) for _ in range(attrs)))
    return relation


# --------------------------------------------------------------------------- #
# Query trees and dependencies
# --------------------------------------------------------------------------- #

#: The three disjoint-attribute relations of the deep oracle.
ORACLE_SCHEMAS = (
    ("R", ("A0", "A1", "A2")),
    ("S", ("B0", "B1", "B2")),
    ("T", ("C0", "C1", "C2")),
)
ORACLE_ATTRS = dict(ORACLE_SCHEMAS)


@st.composite
def atoms(draw, attrs):
    """``A θ c`` or, over two attributes, ``A θ B``."""
    attr = draw(st.sampled_from(sorted(attrs)))
    if len(attrs) >= 2 and draw(st.integers(min_value=0, max_value=2)) == 0:
        other = draw(st.sampled_from(sorted(set(attrs) - {attr})))
        return AttrAttr(attr, draw(st.sampled_from(["=", "<"])), other)
    return AttrConst(attr, draw(st.sampled_from(["=", "!=", "<", ">="])), draw(values_strategy))


@st.composite
def predicates(draw, attrs):
    """An atom, or a conjunction / disjunction of 2–4 atoms."""
    kind = draw(st.sampled_from(["atom", "atom", "and", "or"]))
    if kind == "atom":
        return draw(atoms(attrs))
    parts = draw(st.lists(atoms(attrs), min_size=2, max_size=4))
    return And(*parts) if kind == "and" else Or(*parts)


def _schema_preserving(draw, name, attrs):
    """A selection chain over one base relation (keeps the base schema)."""
    query = BaseRelation(name)
    for _ in range(draw(st.integers(min_value=0, max_value=1))):
        query = query.select(draw(predicates(attrs)))
    return query


@st.composite
def query_trees(draw, schemas=ORACLE_SCHEMAS, min_depth=3, max_depth=4):
    """Random trees of every operator over the given base relations."""
    depth = draw(st.integers(min_value=min_depth, max_value=max_depth))
    query, _ = _tree(draw, depth, [0], dict(schemas))
    return query


def _base(draw, schemas):
    name = draw(st.sampled_from(sorted(schemas)))
    return BaseRelation(name), schemas[name]


def _tree(draw, depth, counter, schemas):
    if depth == 0:
        return _base(draw, schemas)
    op = draw(
        st.sampled_from(
            [
                "base",
                "select",
                "select",
                "project",
                "rename",
                "union",
                "difference",
                "intersection",
                "product",
                "join",
            ]
        )
    )
    if op == "base":
        return _base(draw, schemas)
    if op == "select":
        child, attrs = _tree(draw, depth - 1, counter, schemas)
        return child.select(draw(predicates(attrs))), attrs
    if op == "project":
        child, attrs = _tree(draw, depth - 1, counter, schemas)
        keep = tuple(a for a in attrs if draw(st.booleans()))
        if not keep:
            keep = (attrs[0],)
        # Any order: a reordering π can make an inherited tuple id's values
        # those of a certain row.
        keep = tuple(draw(st.permutations(keep)))
        return child.project(keep), keep
    if op == "rename":
        child, attrs = _tree(draw, depth - 1, counter, schemas)
        old = draw(st.sampled_from(sorted(attrs)))
        new = f"Z{draw(st.integers(min_value=0, max_value=2))}"
        if new in attrs:
            return child, attrs
        return child.rename(old, new), tuple(new if a == old else a for a in attrs)
    if op in ("union", "difference", "intersection"):
        name = draw(st.sampled_from(sorted(schemas)))
        attrs = schemas[name]
        left = _schema_preserving(draw, name, attrs)
        right = _schema_preserving(draw, name, attrs)
        if op == "union":
            return left.union(right), attrs
        if op == "intersection":
            return left.intersection(right), attrs
        return left.difference(right), attrs
    # product / join: the right side is a fully renamed copy of a base
    # relation so the attribute sets are disjoint (the counter keeps nested
    # products apart).
    left, left_attrs = _tree(draw, depth - 1, counter, schemas)
    right, base_attrs = _base(draw, schemas)
    right_attrs = []
    for attribute in base_attrs:
        fresh = f"W{counter[0]}"
        counter[0] += 1
        right = right.rename(attribute, fresh)
        right_attrs.append(fresh)
    if op == "product":
        return left.product(right), tuple(left_attrs) + tuple(right_attrs)
    left_attr = draw(st.sampled_from(sorted(left_attrs)))
    right_attr = draw(st.sampled_from(sorted(right_attrs)))
    return left.join(right, left_attr, right_attr), tuple(left_attrs) + tuple(right_attrs)


@st.composite
def set_heavy_trees(draw, schemas=ORACLE_SCHEMAS, max_set_depth=2):
    """Union/difference/intersection trees over selection chains.

    The operands of a set operator are drawn from the relations sharing one
    attribute list (so they stay union-compatible); the tree is optionally
    topped by a selection and joined with, or multiplied by, a set tree
    over a relation with disjoint attributes.
    """
    schemas = dict(schemas)

    def set_tree(attrs, depth):
        compatible = sorted(name for name, other in schemas.items() if other == attrs)
        if depth == 0:
            return _schema_preserving(draw, draw(st.sampled_from(compatible)), attrs)
        left = set_tree(attrs, depth - 1)
        right = set_tree(attrs, depth - 1)
        op = draw(st.sampled_from(["union", "difference", "intersection", "union"]))
        if op == "union":
            return left.union(right)
        if op == "intersection":
            return left.intersection(right)
        return left.difference(right)

    attrs = schemas[draw(st.sampled_from(sorted(schemas)))]
    query = set_tree(attrs, draw(st.integers(min_value=1, max_value=max_set_depth)))
    if draw(st.booleans()):
        query = query.select(draw(predicates(attrs)))
    disjoint = sorted(name for name, other in schemas.items() if not set(other) & set(attrs))
    if disjoint and draw(st.booleans()):
        other_attrs = schemas[draw(st.sampled_from(disjoint))]
        other = set_tree(other_attrs, draw(st.integers(min_value=0, max_value=1)))
        if draw(st.booleans()):
            query = query.join(
                other,
                draw(st.sampled_from(sorted(attrs))),
                draw(st.sampled_from(sorted(other_attrs))),
            )
        else:
            query = query.product(other)
    return query


COMPARISONS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def chase_dependencies(draw):
    """A random FD or single-tuple EGD (1-2 premises) over the oracle relation ``R``."""
    attrs = ORACLE_ATTRS["R"]
    if draw(st.booleans()):
        determinants = draw(
            st.lists(st.sampled_from(attrs), min_size=1, max_size=2, unique=True)
        )
        remaining = [a for a in attrs if a not in determinants]
        dependent = draw(st.sampled_from(remaining or list(attrs)))
        return FunctionalDependency("R", determinants, dependent)
    premise_attrs = draw(
        st.lists(st.sampled_from(attrs), min_size=1, max_size=2, unique=True)
    )
    premises = [
        AttrConst(attribute, draw(st.sampled_from(COMPARISONS)), draw(values_strategy))
        for attribute in premise_attrs
    ]
    conclusion_attr = draw(st.sampled_from(attrs))
    conclusion = AttrConst(
        conclusion_attr, draw(st.sampled_from(COMPARISONS)), draw(values_strategy)
    )
    return EqualityGeneratingDependency("R", premises, conclusion)


@st.composite
def chase_dependency_lists(draw, max_size=3):
    """1-3 dependencies chased in sequence, so they can interact on shared components."""
    return draw(st.lists(chase_dependencies(), min_size=1, max_size=max_size))


# --------------------------------------------------------------------------- #
# Cases
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, repr=False)
class Case:
    """One oracle input: or-set relations, the dependencies chased into them, a query."""

    relations: Tuple[OrSetRelation, ...]
    query: Query
    dependencies: Tuple = ()

    def uwsdt(self) -> UWSDT:
        """A fresh UWSDT of the input, chased — nothing derived from another run."""
        engine = UWSDT.from_orset_relations(self.relations)
        return chase_uwsdt(engine, self.dependencies) if self.dependencies else engine

    def wsd(self) -> WSD:
        wsd = WSD.from_orset_relations(self.relations)
        return chase_wsd(wsd, self.dependencies) if self.dependencies else wsd

    def __repr__(self) -> str:
        relations = "; ".join(
            f"{r.schema.name}{r.schema.attributes}: {list(r.rows)}" for r in self.relations
        )
        return f"Case({relations} | dependencies {list(self.dependencies)} | {self.query.to_text()})"


@st.composite
def cases(
    draw,
    schemas=ORACLE_SCHEMAS,
    queries=None,
    dependencies=False,
    max_rows=2,
    max_alternatives=2,
    uncertain_budget=4,
):
    """The one case strategy: relations with at most ``uncertain_budget``
    uncertain fields in all, 1–3 random FDs/EGDs over ``R`` if
    ``dependencies``, and a query (default: a deep tree over ``schemas``).

    The budget itself is drawn, so some inputs are (nearly) certain: those
    run the one-world paths — certain rows, column kernels — end to end.
    A column mixes ints, floats, bools and strings
    (:func:`mixed_row_values`), so values equal across classes meet.
    """
    budget = draw(st.integers(min_value=0, max_value=uncertain_budget))
    relations = draw(
        budgeted_orset_relations(schemas, max_rows, max_alternatives, budget, mixed_row_values)
    )
    if equal_across_types(relations):
        event("values equal across types")
    chased = tuple(draw(chase_dependency_lists())) if dependencies else ()
    query = draw(queries if queries is not None else query_trees(schemas))
    return Case(tuple(relations), query, chased)


@st.composite
def single_relation_cases(draw):
    """Depth-2 trees over one relation of 1–3 attributes, 1–3 rows and
    or-sets of up to three alternatives."""
    arity = draw(st.integers(min_value=1, max_value=3))
    schemas = (("R", tuple(f"A{i}" for i in range(arity))),)
    return draw(cases(schemas, query_trees(schemas, 2, 2), max_rows=3, max_alternatives=3))


#: Schemas for the greedy-fallback chains: one more relation than the DP limit.
GREEDY_SCHEMAS = tuple(
    (f"G{i}", (f"G{i}a", f"G{i}b")) for i in range(GREEDY_THRESHOLD + 1)
)


@st.composite
def greedy_chain_queries(draw):
    """A (GREEDY_THRESHOLD+1)-way product chain with consecutive equality
    predicates — the join-order enumerator must take the greedy fallback."""
    query = BaseRelation(GREEDY_SCHEMAS[0][0])
    for name, _ in GREEDY_SCHEMAS[1:]:
        query = query.product(BaseRelation(name))
    equalities = [
        AttrAttr(
            f"G{i - 1}{draw(st.sampled_from('ab'))}",
            "=",
            f"G{i}{draw(st.sampled_from('ab'))}",
        )
        for i in range(1, len(GREEDY_SCHEMAS))
    ]
    return query.select(And(*equalities))


# --------------------------------------------------------------------------- #
# Worlds
# --------------------------------------------------------------------------- #


def world_values(uwsdt, choices):
    """``{field: value}`` when each component ``cid`` of ``choices`` takes the
    local world ``choices[cid]`` (an index into its rows)."""
    values = {}
    for cid, index in choices.items():
        component = uwsdt.components[cid]
        values.update(zip(component.fields, component.rows[index]))
    return values


def local_worlds(uwsdt, cids):
    """``(values, probability)`` of every combination of local worlds of the
    components ``cids``."""
    components = [uwsdt.components[cid] for cid in cids]
    for choice in itertools.product(*(range(len(c.rows)) for c in components)):
        probability = math.prod(c.probability(i) for c, i in zip(components, choice))
        yield world_values(uwsdt, dict(zip(cids, choice))), probability


def tuple_in_world(uwsdt, relation_name, row, values):
    """One open row (its tuple id, then its values) in the world ``values``
    describes: its ``?`` fields read there.  None when a ``⊥`` makes the
    tuple absent."""
    tid, filled = row[0], list(row[1:])
    position = uwsdt.schema.relation(relation_name).position
    for attribute in uwsdt.uncertain_tuples(relation_name)[tid]:
        filled[position(attribute)] = values[FieldRef(relation_name, tid, attribute)]
    return None if BOTTOM in filled else tuple(filled)


def world_tuples(uwsdt, values, relation_name):
    """``{tuple id: row}`` of one relation's open rows present in the world
    ``values`` describes."""
    tuples = {}
    for row in uwsdt.templates[relation_name].open:
        filled = tuple_in_world(uwsdt, relation_name, row, values)
        if filled is not None:
            tuples[row[0]] = filled
    return tuples


def world_database(uwsdt, values, relations=None):
    """The one-world ``Database`` a UWSDT represents in the world ``values``
    describes, restricted to the named ``relations`` (default: all): the
    certain rows and the open rows present there."""
    database = Database()
    for schema in uwsdt.schema:
        if relations is None or schema.name in relations:
            rows = [
                *uwsdt.templates[schema.name].certain,
                *world_tuples(uwsdt, values, schema.name).values(),
            ]
            database.add(Relation.from_tuples(schema, rows))
    return database


def placeholder_components(uwsdt, names):
    """The components holding a ``?`` of the named relations."""
    return sorted(
        {
            uwsdt.component_of(FieldRef(name, tid, attribute))
            for name in names
            for tid, attributes in uwsdt.uncertain_tuples(name).items()
            for attribute in attributes
        }
    )


def uwsdt_distribution(uwsdt, names):
    """``{(row set of each of names): probability}`` over the worlds of a
    UWSDT, enumerating only the components holding a ``?`` of those
    relations (the others sum to one and drop out)."""
    assert uwsdt.is_probabilistic  # else the other components would not sum to one
    distribution = {}
    for values, probability in local_worlds(uwsdt, placeholder_components(uwsdt, names)):
        world = world_database(uwsdt, values, names)
        key = tuple(world.relation(name).row_set() for name in names)
        distribution[key] = distribution.get(key, 0.0) + probability
    return distribution


def worldset_distribution(worldset, names):
    """``{(row set of each of names): probability}`` over explicit worlds."""
    distribution = {}
    for world in worldset:
        key = tuple(world.database.relation(name).row_set() for name in names)
        probability = world.probability if world.probability is not None else 1.0
        distribution[key] = distribution.get(key, 0.0) + probability
    return distribution


def assert_same_distribution(actual, expected):
    assert set(actual) == set(expected)
    assert actual == pytest.approx(expected, abs=1e-9)


def assert_same_result_distribution(left, right, relation_name="P"):
    """Two explicit world-sets agree on the distribution of one relation."""
    assert_same_distribution(
        worldset_distribution(left, (relation_name,)),
        worldset_distribution(right, (relation_name,)),
    )


# --------------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------------- #


class Oracle:
    """The brute-force reference of one case: the (cleaned) input worlds and
    the query's result ``P`` in each."""

    def __init__(self, case: Case, worlds) -> None:
        self.case = case
        self.input = worlds
        self._inserted = {}
        self.result = naive.evaluate_query(worlds, case.query, "P")
        self.distribution = worldset_distribution(self.result, ("P",))
        self.confidences = {
            row: naive.tuple_confidence(self.result, "P", row)
            for row in naive.possible_tuples(self.result, "P")
        }

    @classmethod
    def of(cls, case: Case) -> "Oracle":
        worlds = WSD.from_orset_relations(case.relations).rep()
        if case.dependencies:
            worlds = naive.clean(worlds, case.dependencies)
        return cls(case, worlds)

    def with_row(self, relation_name: str, row) -> "Oracle":
        """The reference after inserting the certain ``row`` into a base relation."""

        def insert(database):
            extended = database.copy()
            relation = database.relation(relation_name)
            extended.replace(Relation(relation.schema, list(relation.rows) + [row]))
            return extended

        key = (relation_name, row)
        if key not in self._inserted:
            self._inserted[key] = Oracle(self.case, self.input.map(insert))
        return self._inserted[key]

    def check_input(self) -> None:
        """The case's UWSDT and WSD, chased, represent the reference input."""
        names = tuple(relation.schema.name for relation in self.case.relations)
        expected = worldset_distribution(self.input, names)
        engine = self.case.uwsdt()
        check_representation(engine)
        assert_same_distribution(uwsdt_distribution(engine, names), expected)
        assert_same_distribution(worldset_distribution(self.case.wsd().rep(), names), expected)

    def check_uwsdt(self, engine: UWSDT, name: str) -> None:
        """``engine``'s relation ``name`` is ``P``: representation invariants,
        world distribution and every tuple's confidence."""
        check_representation(engine)
        assert_same_distribution(uwsdt_distribution(engine, (name,)), self.distribution)
        ranked = dict(uwsdt_possible_with_confidence(engine, name))
        assert set(ranked) == set(self.confidences)
        assert ranked == pytest.approx(self.confidences, abs=1e-9)

    def check_wsd(self, wsd: WSD, name: str) -> None:
        """The WSD's relation ``name`` is ``P``: distribution and confidences,
        read after dropping every other relation — and again after the
        Figure 20 normalisation."""
        wsd = wsd.restrict_to_relations([name])
        assert_same_distribution(worldset_distribution(wsd.rep(), (name,)), self.distribution)
        assert set(possible(wsd, name)) == set(self.confidences)
        ranked = dict(possible_with_confidence(wsd, name))
        assert set(ranked) == set(self.confidences)
        assert ranked == pytest.approx(self.confidences, abs=1e-9)
        normalized = normalize_wsd(wsd)
        assert_same_distribution(
            worldset_distribution(normalized.rep(), (name,)), self.distribution
        )


def check_representation(uwsdt: UWSDT) -> None:
    """``validate()`` (which checks the open rows and the field map against
    each other both ways), and each relation's certain rows are a set."""
    uwsdt.validate()
    for schema in uwsdt.schema:
        certain = uwsdt.templates[schema.name].certain
        assert len(certain.row_set()) == len(certain), f"the certain rows of {schema.name} are a bag"


# --------------------------------------------------------------------------- #
# The cells: one execution path each
# --------------------------------------------------------------------------- #


def _inserted_row(oracle):
    """A certain row for the first base relation the query reads."""
    name = sorted(oracle.case.query.base_relations())[0]
    arity = next(r.schema.arity for r in oracle.case.relations if r.schema.name == name)
    return name, (1,) * arity


def _one_engine(oracle):
    """One UWSDT through the states a long-lived one passes: cold; again (a
    plan-cache hit, no planning and no sampling); on a ``copy()`` planning
    from the statistics it shares; after a certain insert (exactly one
    replan)."""
    query, engine = oracle.case.query, oracle.case.uwsdt()
    query.run(engine, "P")
    oracle.check_uwsdt(engine, "P")
    plans, samples = plan_call_count(), sampling_call_count()
    query.run(engine, "P_cached")
    assert (plan_call_count(), sampling_call_count()) == (plans, samples), "not a hit"
    oracle.check_uwsdt(engine, "P_cached")
    names = engine.schema.relation_names
    twin = engine.copy()
    query.run(twin, "P_copy")
    assert sampling_call_count() == samples, "the copy re-sampled its shared relations"
    oracle.check_uwsdt(twin, "P_copy")
    assert engine.schema.relation_names == names  # nothing wrote through
    check_representation(engine)
    relation, row = _inserted_row(oracle)
    engine.add_template_tuple(relation, "inserted", row)
    plans = plan_call_count()
    query.run(engine, "P_inserted")
    assert plan_call_count() == plans + 1, "the insert did not invalidate the plan"
    oracle.with_row(relation, row).check_uwsdt(engine, "P_inserted")


def _verbatim(oracle):
    engine = oracle.case.uwsdt()
    oracle.case.query.run(engine, "P", optimize=False)
    oracle.check_uwsdt(engine, "P")


def _chased_after_caching(oracle):
    """The dependencies are chased into an engine whose plan is cached
    already: the next run must answer for the chased worlds."""
    case = oracle.case
    if not case.dependencies:
        return
    engine = UWSDT.from_orset_relations(case.relations)
    case.query.run(engine, "P_unchased")
    chase_uwsdt(engine, case.dependencies)
    case.query.run(engine, "P")
    oracle.check_uwsdt(engine, "P")


def _forced_join(join):
    def run(oracle):
        engine = oracle.case.uwsdt()
        oracle.case.query.run(engine, "P", force_join=join)
        oracle.check_uwsdt(engine, "P")

    return run


def _wsd_as_uwsdt(oracle):
    converted = UWSDT.from_wsd(oracle.case.wsd())
    oracle.case.query.run(converted, "P")
    oracle.check_uwsdt(converted, "P")
    oracle.check_wsd(converted.to_wsd(), "P")


def _figure9(oracle):
    wsd = oracle.case.wsd()
    evaluate_on_wsd(oracle.case.query, wsd, "P")
    oracle.check_wsd(wsd, "P")


def _check_first_world(oracle, result):
    """``result`` is the reference's ``P`` in the input's first world."""
    expected = next(iter(oracle.result)).database.relation("P")
    assert result.schema.attributes == expected.schema.attributes
    assert result.row_set() == expected.row_set()


def _one_world_database(oracle):
    """The classical engine on the first world of the input, planned and
    verbatim, against the reference's ``P`` in that world."""
    world = next(iter(oracle.input)).database
    for optimize in (True, False):
        _check_first_world(oracle, oracle.case.query.run(world.copy(), "P", optimize=optimize))


def _database_only(backend, optimize, workers=None):
    """A Database-only backend on the first world of the input, through the
    states a long-lived Database passes: cold; again (planned: a plan-cache
    hit, no planning and no sampling; columnar: the stored relations scan
    their cached column store); after a certain insert (planned: exactly
    one replan; columnar: the column store is stale)."""

    def run(oracle):
        query = oracle.case.query
        database = next(iter(oracle.input)).database.copy()

        def execute():
            return query.run(database, "P", optimize=optimize, backend=backend, workers=workers)

        _check_first_world(oracle, execute())
        plans, samples = plan_call_count(), sampling_call_count()
        _check_first_world(oracle, execute())
        if optimize:
            assert (plan_call_count(), sampling_call_count()) == (plans, samples), "not a hit"
        name, row = _inserted_row(oracle)
        relation = database.relation(name)
        database.replace(Relation(relation.schema, list(relation.rows) + [row]))
        plans = plan_call_count()
        result = execute()
        if optimize:
            assert plan_call_count() == plans + 1, "the insert did not invalidate the plan"
        _check_first_world(oracle.with_row(name, row), result)

    return run


@dataclass(frozen=True)
class Cell:
    name: str
    kind: str
    run: Callable[[Oracle], None]


#: Every execution path the oracle holds to brute force.  A shape picks
#: cells by kind: "row" (the UWSDT on the row backend, its one executor),
#: "join" (the two join algorithms forced), "wsd", "columnar" and "sharded"
#: (the Database-only backends, on the input's first world) and "database".
CELLS = (
    Cell("UWSDT planned: cold, cached, on a copy, after an insert", "row", _one_engine),
    Cell("UWSDT verbatim", "row", _verbatim),
    Cell("UWSDT chased after its plan was cached", "row", _chased_after_caching),
    Cell("UWSDT hash join forced", "join", _forced_join("hash")),
    Cell("UWSDT index nested-loop join forced", "join", _forced_join("index-nested-loop")),
    Cell("WSD as a UWSDT", "wsd", _wsd_as_uwsdt),
    Cell("WSD by Figure 9", "wsd", _figure9),
    Cell("columnar planned: cold, cached, after an insert", "columnar", _database_only("columnar", True)),
    Cell("columnar verbatim: cold, again, after an insert", "columnar", _database_only("columnar", False)),
    Cell("sharded planned, 2 workers", "sharded", _database_only("sharded", True, 2)),
    Cell("sharded verbatim, 2 workers", "sharded", _database_only("sharded", False, 2)),
    Cell("Database on one world, planned and verbatim", "database", _one_world_database),
)


def cells(*kinds):
    return tuple(cell for cell in CELLS if cell.kind in kinds)


def check_oracle(case: Case, cells=CELLS) -> None:
    """Compute the reference of ``case`` once and hold every cell to it.

    An input no world of which satisfies the dependencies must make both
    chases raise instead.
    """
    try:
        oracle = Oracle.of(case)
    except InconsistentWorldSetError:
        with pytest.raises(InconsistentWorldSetError):
            case.uwsdt()
        with pytest.raises(InconsistentWorldSetError):
            case.wsd()
        return
    oracle.check_input()
    for cell in cells:
        try:
            cell.run(oracle)
        except AssertionError as error:
            raise AssertionError(f"cell {cell.name!r} disagrees with brute force: {error}") from error


# --------------------------------------------------------------------------- #
# The benchmark's inputs and queries at smoke size
# --------------------------------------------------------------------------- #


def census_engines(rows: int = 400, density: float = 0.005, seed: int = 42):
    """``(Database, chased UWSDT)`` over one generated census relation —
    perfbench's input at its smoke scale.  Both are built anew on each call,
    so nothing is derived from their relations yet (a UWSDT *copy* would
    share its templates, and with them their statistics and indexes)."""
    from repro.bench import census_instance

    instance = census_instance(rows, density, seed)
    return instance.one_world_database(), instance.chased()


def benchmark_queries():
    """The nine queries perfbench plans, by label: the paper's Q1–Q6, the two
    product-form joins and the 4-way join."""
    from repro.census import (
        census_query,
        q5_product_form,
        q6_self_join_product_form,
        q_four_way_join,
        query_names,
    )

    queries = [(name, census_query(name)) for name in query_names()]
    queries.append(("Q5_product", q5_product_form()))
    queries.append(("Q6_self_join", q6_self_join_product_form()))
    queries.append(("four_way", q_four_way_join()))
    return queries
