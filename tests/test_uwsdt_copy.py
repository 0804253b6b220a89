"""A UWSDT copy shares what a query does not change.

``UWSDT.copy`` shares the template relations and the components with the
original and copies only the dictionaries indexing them; what is derived
from a template (hash indexes, column stores, the planner's statistics)
lives on the template.  These tests check the contract on the chased
2 000-row census UWSDT at 0.1 % placeholders:

* whatever runs on one side — the paper's queries, template writes, the
  chase — leaves the other side's templates, components, field map,
  placeholder index and statistics as they were;
* a write gives the writing engine a template of its own;
* a second copy plans from warm statistics and probes the index the first
  copy built, while its plan cache starts empty;
* derived state is neither pickled nor a reference cycle.
"""

import gc
import pickle
import weakref

import pytest

from repro.bench import census_instance
from repro.census import (
    CENSUS_RELATION,
    census_dependencies,
    census_query,
    q6_self_join_product_form,
    q_four_way_join,
    query_names,
)
from repro.core import UWSDT, FieldRef
from repro.core.chase import chase_uwsdt
from repro.core.component import Component
from repro.core.exec.plan_cache import plan_cache_for
from repro.core.planner import sampling_call_count
from repro.relational import Relation, RelationSchema
from repro.relational import indexes
from repro.relational.values import PLACEHOLDER

ROWS, DENSITY, SEED = 2000, 0.001, 42
PAPER_QUERIES = [(name, census_query(name)) for name in query_names()]
QUERIES = PAPER_QUERIES + [
    ("Q6_self_join", q6_self_join_product_form()),
    ("four_way", q_four_way_join()),
]


def loaded() -> UWSDT:
    """The census UWSDT before the chase, built anew (nothing derived yet)."""
    return census_instance(ROWS, DENSITY, SEED).loaded()


def chased() -> UWSDT:
    return census_instance(ROWS, DENSITY, SEED).chased()


def state(uwsdt: UWSDT) -> dict:
    """Everything a copy must not see change, objects kept for identity."""
    return {
        "templates": {
            name: (template, template.version, template.rows)
            for name, template in uwsdt.templates.items()
        },
        "components": dict(uwsdt.components),
        "field_to_cid": dict(uwsdt.field_to_cid),
        "uncertain": {
            name: dict(uwsdt.uncertain_tuples(name)) for name in uwsdt.schema.relation_names
        },
        "statistics": uwsdt.statistics(),
    }


def assert_unchanged(uwsdt: UWSDT, before: dict) -> None:
    after = state(uwsdt)
    assert after["templates"].keys() == before["templates"].keys()
    for name, (template, version, rows) in before["templates"].items():
        now, now_version, now_rows = after["templates"][name]
        assert now is template, name
        assert (now_version, now_rows) == (version, rows), name
    assert after["components"].keys() == before["components"].keys()
    for cid, component in before["components"].items():
        assert after["components"][cid] is component, cid
    for key in ("field_to_cid", "uncertain", "statistics"):
        assert after[key] == before[key], key


def new_row(uwsdt: UWSDT) -> tuple:
    return (0,) * uwsdt.schema.relation(CENSUS_RELATION).arity


def run_queries(uwsdt: UWSDT) -> None:
    for name, query in QUERIES:
        query.run(uwsdt, name)


def add_tuple(uwsdt: UWSDT) -> None:
    uwsdt.add_template_tuple(CENSUS_RELATION, "added", new_row(uwsdt))


def load_template(uwsdt: UWSDT) -> None:
    """Reload R without its last certain row."""
    rows = list(uwsdt.templates[CENSUS_RELATION])
    uncertain = uwsdt.uncertain_tuples(CENSUS_RELATION)
    rows.remove(next(row for row in reversed(rows) if row[0] not in uncertain))
    uwsdt.load_template(CENSUS_RELATION, rows, distinct=True)


def add_uncertain_tuple(uwsdt: UWSDT) -> None:
    """A template tuple whose first field is a ``?`` with two local worlds."""
    attribute = uwsdt.schema.relation(CENSUS_RELATION).attributes[0]
    uwsdt.add_template_tuple(CENSUS_RELATION, "open", (PLACEHOLDER,) + new_row(uwsdt)[1:])
    uwsdt.new_component(Component.uniform(FieldRef(CENSUS_RELATION, "open", attribute), [1, 2]))


WRITES = {
    "queries": run_queries,
    "add_template_tuple": add_tuple,
    "add_uncertain_tuple": add_uncertain_tuple,
    "load_template": load_template,
}


@pytest.fixture(scope="module")
def original() -> UWSDT:
    return chased()


class TestIsolation:
    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_a_write_on_the_copy_leaves_the_original(self, original, write):
        before = state(original)
        copy = original.copy()
        WRITES[write](copy)
        copy.validate()
        assert_unchanged(original, before)

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_a_write_on_the_original_leaves_the_copy(self, write):
        source = chased()
        copy = source.copy()
        before = state(copy)
        WRITES[write](source)
        source.validate()
        assert_unchanged(copy, before)

    def test_the_chase_on_either_side_leaves_the_other(self):
        source = loaded()
        copy = source.copy()
        before = state(source)
        chase_uwsdt(copy, census_dependencies())
        copy.validate()
        assert_unchanged(source, before)
        assert copy.statistics() != before["statistics"]  # the chase did work

        copy_before = state(copy)
        chase_uwsdt(source, census_dependencies())
        assert_unchanged(copy, copy_before)

    @pytest.mark.parametrize("write", ["add_template_tuple", "load_template"])
    def test_a_write_gives_the_writer_its_own_template(self, original, write):
        copy = original.copy()
        assert copy.templates[CENSUS_RELATION] is original.templates[CENSUS_RELATION]
        WRITES[write](copy)
        assert copy.templates[CENSUS_RELATION] is not original.templates[CENSUS_RELATION]
        # Written once, the template is the writer's own: no second copy.
        written = copy.templates[CENSUS_RELATION]
        copy.add_template_tuple(CENSUS_RELATION, "again", new_row(copy))
        assert copy.templates[CENSUS_RELATION] is written

    def test_components_refuse_in_place_writes(self, original):
        component = next(iter(original.components.values()))
        with pytest.raises(TypeError):
            component.rows[0] = component.rows[0]  # type: ignore[index]
        with pytest.raises(AttributeError):
            component.probabilities.append(0.0)  # type: ignore[union-attr]


class TestDerivedStateIsShared:
    def test_a_second_copy_plans_warm_and_probes_the_same_index(self, original, monkeypatch):
        first = original.copy()
        for name, query in PAPER_QUERIES:
            query.run(first, name)

        built = []
        build = indexes.HashIndex.__init__

        def counted(self, relation, attributes):
            built.append((relation.schema.name, tuple(attributes)))
            build(self, relation, attributes)

        monkeypatch.setattr(indexes.HashIndex, "__init__", counted)
        second = original.copy()
        assert len(plan_cache_for(second)) == 0
        calls = sampling_call_count()
        for name, query in PAPER_QUERIES:
            assert query.plan(second).statistics.provenance(CENSUS_RELATION) == "cached-sample"
            query.run(second, name)
        assert sampling_call_count() == calls
        assert [entry for entry in built if entry[0] == CENSUS_RELATION] == []
        # Each copy still plans and lowers every query itself.
        assert len(plan_cache_for(second)) == len(PAPER_QUERIES)

    def test_replanning_after_uncertain_inserts_keeps_one_statistics_entry(self):
        engine = chased()
        query = census_query("Q1")
        query.plan(engine)
        for round_ in range(4):
            attribute = engine.schema.relation(CENSUS_RELATION).attributes[0]
            tuple_id = f"open{round_}"
            engine.add_template_tuple(
                CENSUS_RELATION, tuple_id, (PLACEHOLDER,) + new_row(engine)[1:]
            )
            field = FieldRef(CENSUS_RELATION, tuple_id, attribute)
            engine.new_component(Component.uniform(field, [1, 2]))
            assert query.plan(engine).statistics.provenance(CENSUS_RELATION) == "fresh-sample"
        memo = engine.templates[CENSUS_RELATION]._derived
        assert [key for key in memo if key[0] == "statistics"] == [("statistics", "uwsdt")]

    def test_a_pickled_relation_leaves_its_index_behind(self):
        schema = RelationSchema("R", ("A", "B"))
        rows = [(i % 7, i) for i in range(500)]
        bare = Relation.from_tuples(schema, list(rows))
        indexed = Relation.from_tuples(schema, list(rows))
        index = indexes.hash_index(indexed, ("A",))
        assert indexes.hash_index(indexed, ("A",)) is index
        shipped = pickle.dumps(indexed)
        assert len(shipped) <= len(pickle.dumps(bare))
        assert pickle.loads(shipped)._derived is None

    def test_a_dropped_private_template_is_freed_without_the_collector(self, original):
        gc.collect()
        gc.disable()  # from here on, anything in a reference cycle stays
        try:
            copy = original.copy()
            add_tuple(copy)  # the copy's own R from here on
            private = copy.templates[CENSUS_RELATION]
            assert private is not original.templates[CENSUS_RELATION]
            for name, query in PAPER_QUERIES:
                query.run(copy, name)
            assert private._derived  # statistics and the ENGLISH index live on it
            reference = weakref.ref(private)
            del private, copy
            assert reference() is None
        finally:
            gc.enable()

    def test_a_written_template_starts_with_nothing_derived(self, original):
        copy = original.copy()
        shared = copy.templates[CENSUS_RELATION]
        copy.template_index(CENSUS_RELATION, "ENGLISH")
        assert shared._derived
        copy.add_template_tuple(CENSUS_RELATION, "added", new_row(copy))
        assert copy.templates[CENSUS_RELATION]._derived is None
