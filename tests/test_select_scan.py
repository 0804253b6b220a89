"""A cold query pass on a UWSDT pays for its placeholders, not for its template.

Two places used to do template-sized work where one world does not: the
statistics sample read every row to draw 256 of them, and a selection probed
the placeholder index for every row it judged.  Pinned here, as exact counts
rather than timings: (a) the sample is drawn by position and reads only the
rows it keeps; (b) a selection is one compiled ``filter`` plus Figure 16 on
only the rows with a ``?`` on a referenced attribute; (c) the memoised list of
a relation's placeholder rows never goes stale.
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
from repro.relational.predicates import Predicate
from repro.relational.values import PLACEHOLDER

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

    def test_the_engine_samplers_share_the_draw(self):
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
        compile_ = Predicate.compile

        def counted_compile(self, schema):
            compiles.append(self)
            return compile_(self, schema)

        monkeypatch.setattr(Predicate, "compile", counted_compile)
        before = select_counters()
        uwsdt_ops.select(uwsdt, "R", "P", predicate, key=key)
        uwsdt.validate()
        return [after - start for after, start in zip(select_counters(), before)], compiles

    def test_only_rows_with_a_referenced_placeholder_reach_components(
        self, chased_census, monkeypatch
    ):
        uwsdt = chased_census.copy()
        referenced = {"YEARSCH", "CITIZEN"}
        uncertain = uwsdt.uncertain_tuples("R")
        open_rows = [tid for tid, attrs in uncertain.items() if referenced.intersection(attrs)]
        assert 0 < len(open_rows) < len(uncertain)  # the parent sent every indexed row
        # The IndexScan's key: of the open rows, only those whose YEARSCH is
        # 17 or ``?`` can meet ``YEARSCH = 17``; the others fail line 1.
        position = uwsdt.templates["R"].schema.position("YEARSCH")
        template = {row[0]: row for row in uwsdt.templates["R"]}
        keyed = [
            tid
            for tid in open_rows
            if template[tid][position] is PLACEHOLDER or template[tid][position] == 17
        ]
        assert len(keyed) < len(open_rows)

        key = eq("YEARSCH", 17)
        predicate = And(key, eq("CITIZEN", 0))
        (scanned, through_components), compiles = self._run(
            uwsdt, predicate, monkeypatch, key=key
        )
        assert scanned == len(uwsdt.template_index("R", "YEARSCH").bucket(17))
        assert through_components == len(keyed)
        assert compiles == [predicate]  # the parent compiled each conjunct again

        # Two segments, each in template order: the template's rows, then the components'.
        order = {row[0]: position for position, row in enumerate(uwsdt.templates["R"])}
        result = [row[0] for row in uwsdt.templates["P"]]
        late = set(open_rows)
        assert result == sorted(result, key=lambda tid: (tid in late, order[tid]))

    def test_an_equality_reads_its_two_index_buckets(self, chased_census, monkeypatch):
        uwsdt = chased_census.copy()
        index = uwsdt.template_index("R", "YEARSCH")
        bucket, open_bucket = index.lookup(17), index.lookup(uwsdt_ops.PLACEHOLDER)
        (scanned, through_components), compiles = self._run(
            uwsdt, eq("YEARSCH", 17), monkeypatch
        )
        assert (scanned, through_components) == (len(bucket), len(open_bucket))
        assert len(compiles) == 1


# --------------------------------------------------------------------------- #
# (c) The placeholder-row memo is coherent
# --------------------------------------------------------------------------- #


def scanned_placeholder_rows(uwsdt, name):
    index = uwsdt.uncertain_tuples(name)
    return [(row, index[row[0]]) for row in uwsdt.templates[name] if row[0] in index]


def assert_memo_coherent(uwsdt):
    for name in uwsdt.schema.relation_names:
        scanned = scanned_placeholder_rows(uwsdt, name)
        assert uwsdt.placeholder_rows(name) == scanned
        for attribute in uwsdt.schema.relation(name).attributes:
            assert uwsdt.placeholder_rows_on(name, [attribute]) == [
                (row, placeholders) for row, placeholders in scanned if attribute in placeholders
            ]


OPERATIONS = (
    "add_template_tuple",
    "load_template",
    "new_component",
    "replace_component",
    "remove_component",
    "copy_fields",
    "select",
)


def apply_operation(uwsdt, operation, data, step):
    """One mutation of ``uwsdt``; a no-op when the state offers nothing to mutate."""
    names = sorted(uwsdt.schema.relation_names)
    name = data.draw(st.sampled_from(names))
    attributes = uwsdt.schema.relation(name).attributes
    template = uwsdt.templates[name]
    tuple_ids = [row[0] for row in template]
    unmapped = [
        FieldRef(name, tid, a)
        for tid in tuple_ids
        for a in attributes
        if uwsdt.component_of(FieldRef(name, tid, a)) is None
    ]
    if operation == "add_template_tuple":
        values = data.draw(st.tuples(*(st.integers(0, 4) for _ in attributes)))
        uwsdt.add_template_tuple(name, ("new", step), values)
    elif operation == "load_template":
        rows = data.draw(st.permutations(list(template)))
        uwsdt.load_template(name, rows[: data.draw(st.integers(0, len(rows)))], distinct=True)
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
    elif operation == "select":
        # ≠ and a conjunction take the template scan, which reads the memo.
        attribute = data.draw(st.sampled_from(attributes))
        predicate = data.draw(
            st.sampled_from(
                [ne(attribute, 1), And(ne(attribute, 0), ne(attributes[0], 3))]
            )
        )
        uwsdt_ops.select(uwsdt, name, f"S{step}", predicate)


class TestPlaceholderRowMemo:
    @given(
        orset_relations(max_rows=3, max_attrs=2, max_alternatives=2),
        st.lists(st.sampled_from(OPERATIONS), max_size=8),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_a_scan_after_every_operation(self, orset, operations, data):
        uwsdt = UWSDT.from_orset_relation(orset)
        assert_memo_coherent(uwsdt)
        for step, operation in enumerate(operations):
            apply_operation(uwsdt, operation, data, step)
            assert_memo_coherent(uwsdt)

    def test_memoised_per_relation_and_carried_by_a_copy(self, chased_census):
        uwsdt = chased_census.copy()
        rows = uwsdt.placeholder_rows("R")
        assert uwsdt.placeholder_rows("R") is rows
        assert len(rows) == len(uwsdt.uncertain_tuples("R"))
        uwsdt.validate()  # checks the present entry against its scan

        # A copy shares R's template, so the entry stays valid there; the
        # copy's own field mapping drops the copy's entry only.
        copied = uwsdt.copy()
        assert copied.placeholder_rows("R") is rows
        attributes = copied.schema.relation("R").attributes
        copied.add_template_tuple("R", "new", (PLACEHOLDER,) + (0,) * (len(attributes) - 1))
        copied.new_component(Component.uniform(FieldRef("R", "new", attributes[0]), [1, 2]))
        assert "R" not in copied._placeholder_rows
        assert len(copied.placeholder_rows("R")) == len(rows) + 1
        copied.validate()
        assert uwsdt.placeholder_rows("R") is rows

        template = uwsdt.templates["R"]
        by_attribute = uwsdt._placeholder_rows["R"][3]
        uwsdt._placeholder_rows["R"] = (template, template.version, rows[1:], by_attribute)
        with pytest.raises(RepresentationError, match="out of date"):
            uwsdt.validate()
