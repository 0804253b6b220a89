"""A cold query pass on a UWSDT pays for its placeholders, not for its template.

Two places used to do template-sized work where one world does not: the
statistics sample read every row to draw 256 of them, and a selection probed
the placeholder index for every row it judged.  Pinned here, as exact counts
rather than timings: (a) the sample is drawn by position and reads only the
rows it keeps; (b) a selection is the Database's selection of the certain
rows plus Figure 16 on only the open rows with a ``?`` on a referenced
attribute; (c) the open rows with a ``?`` on an attribute, derived on the
open relation, never go stale.
"""

from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import census_instance
from repro.core import UWSDT, WSD
from repro.core.algebra import uwsdt_ops
from repro.core.component import Component
from repro.core.fields import FieldRef
from repro.core.planner import DEFAULT_SAMPLE_SIZE, positional_sample
from repro.core.planner.sampling import SAMPLE_SEED, sample_database, sample_uwsdt
from repro.obs.metrics import get_registry
from repro.relational import (
    And,
    Database,
    Relation,
    RelationSchema,
    RepresentationError,
    eq,
    ne,
)
from repro.relational import algebra
from repro.relational.indexes import hash_index
from repro.relational.predicates import Predicate
from repro.relational.values import PLACEHOLDER
from repro.worlds import OrSet, OrSetRelation

from _fixtures import orset_relations


class CountedRows(Sequence):
    """A row sequence that may be read by position only, and counts the reads."""

    def __init__(self, rows):
        self._rows = list(rows)
        self.reads = []

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, position):
        assert isinstance(position, int), "the sampler sliced the rows"
        self.reads.append(position)
        return self._rows[position]

    def __iter__(self):
        raise AssertionError("the sampler iterated the rows")


# --------------------------------------------------------------------------- #
# (a) The sample is drawn by position
# --------------------------------------------------------------------------- #


class TestPositionalSample:
    @pytest.mark.parametrize("population", [0, 1, 255, 256, 257, 10_000])
    def test_reads_min_n_capacity_distinct_positions_in_order(self, population):
        rows = CountedRows((i, i % 7) for i in range(population))
        sample, counted = positional_sample(rows, DEFAULT_SAMPLE_SIZE)
        assert counted == population
        assert len(rows.reads) == min(population, DEFAULT_SAMPLE_SIZE)
        assert rows.reads == sorted(set(rows.reads))
        assert sample == [(p, p % 7) for p in rows.reads]

    def test_the_same_seed_gives_the_same_rows(self):
        rows = [(i,) for i in range(10_000)]
        first, _ = positional_sample(rows, 256)
        assert positional_sample(rows, 256)[0] == first
        assert positional_sample(rows, 256, seed=SAMPLE_SEED)[0] == first
        assert positional_sample(rows, 256, seed=SAMPLE_SEED + 1)[0] != first

    def test_the_engine_samplers_share_the_draw(self, monkeypatch):
        schema = RelationSchema("R", ("A", "B"))
        relation = Relation.from_tuples(schema, [(i, i % 3) for i in range(1_000)])
        expected, population = positional_sample(relation.rows, 256)

        from_database = sample_database(Database([relation]), "R", 256)
        assert (from_database.rows, from_database.population) == (expected, population)

        uwsdt = UWSDT.from_relation(relation)
        assert sample_uwsdt(uwsdt, "R", 256).rows == expected

        # A WSD is planned as the UWSDT it converts to: the same draw.
        converted = UWSDT.from_wsd(WSD.from_relation(relation))
        assert sample_uwsdt(converted, "R", 256).rows == expected

        # With open rows: the same draw over the certain rows then the open
        # rows' values, read by position — no relation is iterated, and no
        # undrawn row is sliced.
        rows = [{"A": i, "B": OrSet([0, 1]) if i % 10 == 0 else i % 3} for i in range(1_000)]
        uwsdt = UWSDT.from_orset_relation(OrSetRelation.from_dicts("R", ["A", "B"], rows))
        template = uwsdt.templates["R"]
        assert len(template.open) == 100
        drawn_from = [*template.certain, *(row[1:] for row in template.open)]
        positions, _ = positional_sample(range(len(drawn_from)), 256)

        counted = []

        def counted_rows(relation):
            counted.append(CountedRows(relation._rows))
            return counted[-1]

        monkeypatch.setattr(Relation, "rows", property(counted_rows))
        monkeypatch.setattr(Relation, "__iter__", CountedRows.__iter__)
        sample = sample_uwsdt(uwsdt, "R", 256)
        assert (sample.rows, sample.population) == ([drawn_from[p] for p in positions], 1_000)
        assert sum(len(reader.reads) for reader in counted) == 256


# --------------------------------------------------------------------------- #
# (b) Work counts of a selection
# --------------------------------------------------------------------------- #


def select_counters():
    registry = get_registry()
    return [
        registry.counter(f"repro.uwsdt_ops.{name}").value
        for name in ("rows_scanned", "rows_through_components")
    ]


@pytest.fixture(scope="module")
def chased_census():
    return census_instance(2000, 0.001, seed=42).chased()


class TestSelectionWorkCounts:
    def _run(self, uwsdt, predicate, monkeypatch, key=None):
        compiles = []
        compile_both = Predicate.compile_both

        def counted_compile(self, schema):
            compiles.append(self)
            return compile_both(self, schema)

        monkeypatch.setattr(Predicate, "compile_both", counted_compile)
        before = select_counters()
        uwsdt_ops.select(uwsdt, "R", "P", predicate, key=key)
        uwsdt.validate()
        return [after - start for after, start in zip(select_counters(), before)], compiles

    def test_only_rows_with_a_referenced_placeholder_reach_components(
        self, chased_census, monkeypatch
    ):
        uwsdt = chased_census.copy()
        template = uwsdt.templates["R"]
        referenced = {"YEARSCH", "CITIZEN"}
        uncertain = uwsdt.uncertain_tuples("R")
        open_rows = [tid for tid, attrs in uncertain.items() if referenced.intersection(attrs)]
        assert 0 < len(open_rows) < len(uncertain)  # the parent sent every indexed row
        # The IndexScan's key: of the open rows, only those whose YEARSCH is
        # 17 or ``?`` can meet ``YEARSCH = 17``; the others fail line 1.
        position = template.open.schema.position("YEARSCH")
        by_tid = {row[0]: row for row in template.open}
        keyed = [
            tid
            for tid in open_rows
            if by_tid[tid][position] is PLACEHOLDER or by_tid[tid][position] == 17
        ]
        assert len(keyed) < len(open_rows)

        key = eq("YEARSCH", 17)
        predicate = And(key, eq("CITIZEN", 0))
        (scanned, through_components), compiles = self._run(
            uwsdt, predicate, monkeypatch, key=key
        )
        open_index = hash_index(template.open, ("YEARSCH",))
        assert scanned == (
            len(hash_index(template.certain, ("YEARSCH",)).bucket(17)) + len(open_index.bucket(17))
        )
        assert through_components == len(keyed)
        # One source for the open rows' scan and row check (the certain rows'
        # selection is the library's and compiles its own scan).
        assert compiles == [predicate, predicate]

        # The certain rows are the Database's own selection, read off the same bucket.
        index = hash_index(template.certain, ("YEARSCH",))
        selected = algebra.select(template.certain, predicate, index=index)
        assert uwsdt.templates["P"].certain.rows == selected.rows

    def test_an_equality_reads_its_two_index_buckets(self, chased_census, monkeypatch):
        uwsdt = chased_census.copy()
        template = uwsdt.templates["R"]
        bucket = hash_index(template.certain, ("YEARSCH",)).bucket(12)
        open_index = hash_index(template.open, ("YEARSCH",))
        open_bucket = open_index.bucket(PLACEHOLDER)
        assert open_index.bucket(12) and open_bucket
        scans = []
        compile_both = Predicate.compile_both

        def recorded_scan(self, schema):
            check, scan = compile_both(self, schema)

            def recorded(rows):
                scans.append(list(rows))
                return scan(scans[-1])

            return check, recorded

        monkeypatch.setattr(Predicate, "compile_both", recorded_scan)
        (scanned, through_components), compiles = self._run(
            uwsdt, eq("YEARSCH", 12), monkeypatch
        )
        # The certain bucket is adopted whole; the one scan reads the open
        # rows under 12, never one with a ``?`` on YEARSCH (those go to the
        # components, each counted once).
        assert [row for rows in scans for row in rows] == list(open_index.bucket(12))
        assert (scanned, through_components) == (
            len(bucket) + len(open_index.bucket(12)),
            len(open_bucket),
        )
        assert len(compiles) == 1


# --------------------------------------------------------------------------- #
# (c) The open rows with a ``?`` on an attribute are read off the open rows
# --------------------------------------------------------------------------- #


def assert_placeholder_rows_coherent(uwsdt):
    for name in uwsdt.schema.relation_names:
        opened = uwsdt.templates[name].open
        attributes = uwsdt.schema.relation(name).attributes
        for attribute in attributes:
            position = opened.schema.position(attribute)
            assert uwsdt.placeholder_rows_on(name, [attribute]) == [
                row for row in opened if row[position] is PLACEHOLDER
            ]
        assert uwsdt.placeholder_rows_on(name, attributes) == list(opened)


OPERATIONS = (
    "add_template_tuple",
    "set_template",
    "new_component",
    "replace_component",
    "remove_component",
    "copy_fields",
    "select",
)


def _valid(uwsdt):
    try:
        uwsdt.validate()
    except RepresentationError:
        return False
    return True


def apply_operation(uwsdt, operation, data, step):
    """One mutation of ``uwsdt``; a no-op when the state offers nothing to mutate."""
    names = sorted(uwsdt.schema.relation_names)
    name = data.draw(st.sampled_from(names))
    attributes = uwsdt.schema.relation(name).attributes
    template = uwsdt.templates[name]
    tuple_ids = [row[0] for row in template.open]
    unmapped = [
        FieldRef(name, tid, a)
        for tid in tuple_ids
        for a in attributes
        if uwsdt.component_of(FieldRef(name, tid, a)) is None
    ]
    if operation == "add_template_tuple":
        values = data.draw(st.tuples(*(st.integers(0, 4) for _ in attributes)))
        uwsdt.add_template_tuple(name, ("new", step), values)
    elif operation == "set_template":
        rows = data.draw(st.permutations(list(template.open)))
        certain = list(template.certain)[: data.draw(st.integers(0, len(template.certain)))]
        certain = Relation.from_tuples(template.certain.schema, certain)
        uwsdt.set_template(name, certain, rows[: data.draw(st.integers(0, len(rows)))])
    elif operation == "new_component" and unmapped:
        uwsdt.new_component(Component.uniform(data.draw(st.sampled_from(unmapped)), (0, 1)))
    elif operation == "replace_component" and uwsdt.components:
        cid = data.draw(st.sampled_from(sorted(uwsdt.components)))
        component = uwsdt.components[cid]
        if unmapped and data.draw(st.booleans()):
            added = Component.uniform(data.draw(st.sampled_from(unmapped)), (0, 1))
            uwsdt.replace_component(cid, component.compose(added))
        elif component.arity > 1:
            uwsdt.replace_component(cid, component.project_away(component.fields[:1]))
    elif operation == "remove_component" and uwsdt.components:
        uwsdt.remove_component(data.draw(st.sampled_from(sorted(uwsdt.components))))
    elif operation == "copy_fields" and uwsdt.field_to_cid and unmapped:
        sources = sorted(uwsdt.field_to_cid, key=repr)
        targets = data.draw(st.lists(st.sampled_from(unmapped), min_size=1, unique=True))
        uwsdt.copy_fields([(data.draw(st.sampled_from(sources)), t) for t in targets])
    elif operation == "select" and _valid(uwsdt):
        # Operators take valid states only.  ≠ and a conjunction visit every open row.
        attribute = data.draw(st.sampled_from(attributes))
        predicate = data.draw(
            st.sampled_from(
                [ne(attribute, 1), And(ne(attribute, 0), ne(attributes[0], 3))]
            )
        )
        uwsdt_ops.select(uwsdt, name, f"S{step}", predicate)


class TestPlaceholderRows:
    @given(
        orset_relations(max_rows=3, max_attrs=2, max_alternatives=2),
        st.lists(st.sampled_from(OPERATIONS), max_size=8),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_a_scan_after_every_operation(self, orset, operations, data):
        uwsdt = UWSDT.from_orset_relation(orset)
        assert_placeholder_rows_coherent(uwsdt)
        for step, operation in enumerate(operations):
            apply_operation(uwsdt, operation, data, step)
            assert_placeholder_rows_coherent(uwsdt)

    def test_derived_on_the_open_rows_and_shared_by_a_copy(self, chased_census):
        uwsdt = chased_census.copy()
        attribute = uwsdt.schema.relation("R").attributes[0]
        opened = uwsdt.templates["R"].open
        rows = uwsdt.placeholder_rows_on("R", [attribute])
        assert rows == list(hash_index(opened, (attribute,)).bucket(PLACEHOLDER))
        positions = opened._derived[("?", attribute)][1]
        uwsdt.placeholder_rows_on("R", [attribute])
        assert opened._derived[("?", attribute)][1] is positions  # built once per version

        # A copy shares R's open rows and so the entry; the copy's own write
        # gives it its own open rows, whose entry counts the new row.
        copied = uwsdt.copy()
        assert copied.placeholder_rows_on("R", [attribute]) == rows
        assert copied.templates["R"].open._derived[("?", attribute)][1] is positions
        width = len(uwsdt.schema.relation("R").attributes)
        copied.add_template_tuple("R", "new", (PLACEHOLDER,) + (0,) * (width - 1))
        copied.new_component(Component.uniform(FieldRef("R", "new", attribute), [1, 2]))
        assert len(copied.placeholder_rows_on("R", [attribute])) == len(rows) + 1
        copied.validate()
        assert uwsdt.placeholder_rows_on("R", [attribute]) == rows
        assert opened._derived[("?", attribute)][1] is positions
        uwsdt.validate()
