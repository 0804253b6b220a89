"""Shared hypothesis strategies and world-set comparison helpers.

This module is imported by test modules as ``from _fixtures import ...``.
It deliberately has a non-``conftest`` name: the benchmark suite has its own
``benchmarks/conftest.py``, and importing fixtures *by module name* from a
file called ``conftest`` resolves to whichever conftest pytest put on
``sys.path`` first — a collection-order lottery.  Pytest fixtures proper
live in ``tests/conftest.py`` (which re-exports from here).
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.core import FieldRef
from repro.relational import BOTTOM, Database, Relation, RelationSchema
from repro.relational.values import is_placeholder
from repro.worlds import OrSet, OrSetRelation

#: Small domain values for generated relations/or-sets.
values_strategy = st.integers(min_value=0, max_value=4)


@st.composite
def orset_relations(draw, max_rows: int = 3, max_attrs: int = 3, max_alternatives: int = 3):
    """Random small or-set relations (bounded world count)."""
    attrs = draw(st.integers(min_value=1, max_value=max_attrs))
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    schema = RelationSchema("R", tuple(f"A{i}" for i in range(attrs)))
    relation = OrSetRelation(schema)
    for _ in range(rows):
        row = []
        for _ in range(attrs):
            uncertain = draw(st.booleans())
            if uncertain:
                size = draw(st.integers(min_value=2, max_value=max_alternatives))
                candidates = draw(
                    st.lists(values_strategy, min_size=size, max_size=size, unique=True)
                )
                row.append(OrSet(candidates))
            else:
                row.append(draw(values_strategy))
        relation.insert(tuple(row))
    return relation


@st.composite
def budgeted_orset_relations(
    draw,
    schemas,
    max_rows: int = 2,
    max_alternatives: int = 2,
    uncertain_budget: int = 4,
):
    """One or-set relation per ``(name, attributes)`` schema, sharing a bound
    on the *total* number of uncertain fields.

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
        for _ in range(rows):
            row = []
            for _ in attributes:
                if budget > 0 and draw(st.booleans()):
                    budget -= 1
                    size = draw(st.integers(min_value=2, max_value=max_alternatives))
                    candidates = draw(
                        st.lists(values_strategy, min_size=size, max_size=size, unique=True)
                    )
                    row.append(OrSet(candidates))
                else:
                    row.append(draw(values_strategy))
            relation.insert(tuple(row))
        relations.append(relation)
    return relations


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


# --------------------------------------------------------------------------- #
# World-set helpers (shared by the query, planner and world-sampling oracle tests)
# --------------------------------------------------------------------------- #


def result_distribution(worldset, relation_name="P"):
    """Map each world to (frozenset of result rows) -> total probability."""
    distribution = {}
    for world in worldset:
        key = frozenset(world.database.relation(relation_name).rows)
        probability = world.probability if world.probability is not None else 1.0
        distribution[key] = distribution.get(key, 0.0) + probability
    return distribution


def assert_same_result_distribution(left, right, relation_name="P"):
    first = result_distribution(left, relation_name)
    second = result_distribution(right, relation_name)
    assert set(first) == set(second)
    for key in first:
        assert first[key] == pytest.approx(second[key], abs=1e-9)


def sampled_world(uwsdt, choices, relations=None):
    """The one-world ``Database`` a UWSDT represents when every component
    takes the local world ``choices[cid]`` (an index into its rows).

    Each ``?`` field reads its component's value in that local world; a
    tuple with a ``⊥`` field is absent from the world.  ``relations``
    restricts the result to the named relations (default: all of them).
    """
    values = {}
    for cid, component in uwsdt.components.items():
        values.update(zip(component.fields, component.rows[choices[cid]]))
    database = Database()
    for schema in uwsdt.schema:
        if relations is not None and schema.name not in relations:
            continue
        rows = []
        for tid, template in uwsdt.template_rows(schema.name):
            row = tuple(
                values[FieldRef(schema.name, tid, attribute)] if is_placeholder(value) else value
                for attribute, value in zip(schema.attributes, template)
            )
            if not any(value is BOTTOM for value in row):
                rows.append(row)
        database.add(Relation.from_tuples(schema, rows))
    return database
