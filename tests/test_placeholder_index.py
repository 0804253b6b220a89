"""The UWSDT placeholder index and the certain/uncertain split built on it.

``UWSDT.uncertain_tuples`` (``relation -> tuple id -> ? attributes``) is what
lets the chase and every ``uwsdt_ops`` operator treat fully certain template
rows as one-world data.  These tests pin the invariant it rests on — after
*every* operation the index equals a scan of the templates, in both
directions — and the behaviour the split must not change: compiled
dependencies agree with ``holds_for``, a certain violation still raises,
and the census chase leaves exactly the components it left before.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.census import CensusGenerator, census_dependencies
from repro.core import UWSDT
from repro.core.algebra import BaseRelation, uwsdt_ops
from repro.core.chase import (
    Comparison,
    EqualityGeneratingDependency,
    FunctionalDependency,
    _Violation,
    chase_uwsdt,
)
from repro.core.component import Component
from repro.core.exec import reset_shard_pool
from repro.core.fields import FieldRef
from repro.core.uwsdt import TID
from repro.relational import InconsistentWorldSetError, RelationSchema, RepresentationError, eq
from repro.relational.predicates import COMPARATORS
from repro.relational.values import BOTTOM, PLACEHOLDER
from repro.worlds import OrSet, OrSetRelation

from _fixtures import budgeted_orset_relations
from test_planner_oracle import (
    ORACLE_SCHEMAS,
    chase_dependency_lists,
    deep_query_trees,
    set_heavy_trees,
)


@pytest.fixture(scope="module", autouse=True)
def _tear_down_pool():
    yield
    reset_shard_pool()


def assert_index_matches_template_scan(uwsdt):
    """The index, the field map and the templates describe the same placeholders."""
    uwsdt.validate()
    indexed_fields = set()
    for relation_schema in uwsdt.schema:
        name = relation_schema.name
        scanned = {}
        for tuple_id, values in uwsdt.template_rows(name):
            placeholders = tuple(
                a for a, v in zip(relation_schema.attributes, values) if v is PLACEHOLDER
            )
            if placeholders:
                scanned[tuple_id] = placeholders
        assert dict(uwsdt.uncertain_tuples(name)) == scanned
        assert uwsdt.relation_placeholder_count(name) == sum(map(len, scanned.values()))
        indexed_fields.update(
            FieldRef(name, tuple_id, a) for tuple_id, attrs in scanned.items() for a in attrs
        )
    assert set(uwsdt.field_to_cid) == indexed_fields


# --------------------------------------------------------------------------- #
# (a) The invariant survives every mutation path
# --------------------------------------------------------------------------- #


class TestIndexEqualsTemplateScan:
    @given(
        budgeted_orset_relations(ORACLE_SCHEMAS, max_rows=3, uncertain_budget=5),
        chase_dependency_lists(),
        st.one_of(deep_query_trees(min_depth=2, max_depth=3), set_heavy_trees()),
    )
    @settings(max_examples=60, deadline=None)
    def test_after_ingest_chase_copy_and_queries(self, relations, dependencies, query):
        uwsdt = UWSDT.from_orset_relations(relations)
        assert_index_matches_template_scan(uwsdt)
        try:
            chase_uwsdt(uwsdt, dependencies)
        except InconsistentWorldSetError:
            uwsdt = UWSDT.from_orset_relations(relations)
        assert_index_matches_template_scan(uwsdt)

        for optimize, backend in ((True, "row"), (False, "row"), (True, "sharded")):
            copy = uwsdt.copy()
            assert_index_matches_template_scan(copy)
            query.run(copy, "P", optimize=optimize, backend=backend, workers=2)
            assert_index_matches_template_scan(copy)
        # Query evaluation on the copies never wrote through to the original.
        assert_index_matches_template_scan(uwsdt)

    def test_component_surgery_keeps_the_index_in_step(self):
        uwsdt = UWSDT.from_orset_relation(
            OrSetRelation.from_dicts(
                "R", ["A", "B"], [{"A": OrSet([1, 2]), "B": OrSet([3, 4])}, {"A": 5, "B": 6}]
            )
        )
        assert dict(uwsdt.uncertain_tuples("R")) == {1: ("A", "B")}
        first, second = (uwsdt.component_of(FieldRef("R", 1, a)) for a in "AB")
        merged = uwsdt.merge_components([second, first])
        assert merged == min(first, second) and uwsdt.component_count() == 1
        assert_index_matches_template_scan(uwsdt)

        # Schema order, whatever order the fields were mapped in.
        uwsdt.remove_component(merged)
        assert dict(uwsdt.uncertain_tuples("R")) == {}
        uwsdt.new_component(Component.uniform(FieldRef("R", 1, "B"), (3, 4)))
        uwsdt.new_component(Component.uniform(FieldRef("R", 1, "A"), (1, 2)))
        assert dict(uwsdt.uncertain_tuples("R")) == {1: ("A", "B")}
        assert_index_matches_template_scan(uwsdt)

    def test_validate_reports_both_directions(self):
        uwsdt = UWSDT.from_orset_relation(
            OrSetRelation.from_dicts("R", ["A"], [{"A": OrSet([1, 2])}, {"A": 3}])
        )
        orphan = uwsdt.copy()
        orphan.remove_component(orphan.component_of(FieldRef("R", 1, "A")))
        with pytest.raises(RepresentationError, match="placeholders"):
            orphan.validate()  # a ? without an index entry
        stale = uwsdt.copy()
        stale.new_component(Component.uniform(FieldRef("R", 2, "A"), (3, 4)))
        with pytest.raises(RepresentationError, match="placeholders"):
            stale.validate()  # an index entry on a certain field


# --------------------------------------------------------------------------- #
# (b) Compiled dependencies agree with holds_for
# --------------------------------------------------------------------------- #

ATTRS = ("A", "B", "C")
TEMPLATE_SCHEMA = RelationSchema("R", (TID,) + ATTRS)
cell_values = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["0", "2", "x"]),
    st.sampled_from([BOTTOM, PLACEHOLDER]),
)
template_rows = st.tuples(st.integers(), cell_values, cell_values, cell_values)
atoms = st.builds(
    Comparison,
    st.sampled_from(ATTRS),
    st.sampled_from(sorted(COMPARATORS)),
    st.one_of(st.integers(min_value=0, max_value=3), st.sampled_from(["0", "2", "x"])),
)


class TestCompiledDependencies:
    @given(st.lists(atoms, min_size=1, max_size=3), atoms, st.lists(template_rows, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_compiled_egd_equals_holds_for(self, premises, conclusion, rows):
        """The chase's certain-row scan reports exactly the rows ``holds_for`` rejects."""
        dependency = EqualityGeneratingDependency("R", premises, conclusion)
        scan = _Violation(dependency).compile_scan(TEMPLATE_SCHEMA)
        assert scan(rows) == [
            row for row in rows if not dependency.holds_for(dict(zip(ATTRS, row[1:])))
        ]

    @given(st.lists(atoms, min_size=1, max_size=3), atoms, template_rows)
    @settings(max_examples=300, deadline=None)
    def test_compiled_violation_is_not_holds_for(self, premises, conclusion, row):
        """The chase's scan kernel: the violation predicate through ``Predicate.compile``."""
        dependency = EqualityGeneratingDependency("R", premises, conclusion)
        violated = _Violation(dependency).compile(TEMPLATE_SCHEMA)
        expected = not dependency.holds_for(dict(zip(ATTRS, row[1:])))
        assert violated(row) is expected and violated(list(row)) is expected
        assert _Violation(dependency).evaluate(TEMPLATE_SCHEMA, row) is expected

    @given(
        st.lists(st.sampled_from(ATTRS), min_size=1, max_size=2, unique=True),
        st.sampled_from(ATTRS),
        template_rows,
        template_rows,
    )
    @settings(max_examples=300, deadline=None)
    def test_compiled_fd_equals_holds_for(self, determinants, dependent, left, right):
        dependency = FunctionalDependency("R", determinants, dependent)
        compiled = dependency.compile(TEMPLATE_SCHEMA)
        assert compiled(left, right) == dependency.holds_for(
            dict(zip(ATTRS, left[1:])), dict(zip(ATTRS, right[1:]))
        )


# --------------------------------------------------------------------------- #
# (c) Chase parity with the row-at-a-time implementation
# --------------------------------------------------------------------------- #


def chase_digest(uwsdt):
    digest = hashlib.sha1()
    for cid in sorted(uwsdt.components):
        component = uwsdt.components[cid]
        probabilities = component.probabilities
        digest.update(
            repr(
                (
                    cid,
                    component.fields,
                    list(component.rows),
                    None if probabilities is None else list(probabilities),
                )
            ).encode()
        )
    digest.update(repr(sorted(uwsdt.statistics().items())).encode())
    return digest.hexdigest()


class TestChaseParity:
    def _certain_with_one_orset(self):
        return UWSDT.from_orset_relation(
            OrSetRelation.from_dicts(
                "R",
                ["A", "B"],
                [{"A": 1, "B": 1}, {"A": OrSet([1, 2]), "B": 2}, {"A": 3, "B": 7}],
            )
        )

    def test_certain_egd_violation_names_tuple_and_dependency(self):
        dependency = EqualityGeneratingDependency(
            "R", [Comparison("A", "=", 3)], Comparison("B", "<", 5)
        )
        with pytest.raises(InconsistentWorldSetError) as error:
            chase_uwsdt(self._certain_with_one_orset(), [dependency])
        assert "certain tuple 3" in str(error.value)
        assert repr(dependency) in str(error.value)

    def test_certain_fd_violation_names_tuples_and_dependency(self):
        uwsdt = self._certain_with_one_orset()
        uwsdt.add_template_tuple("R", 4, (3, 8))
        dependency = FunctionalDependency("R", ["A"], "B")
        with pytest.raises(InconsistentWorldSetError) as error:
            chase_uwsdt(uwsdt, [dependency])
        assert "certain tuples 3 and 4" in str(error.value)
        assert repr(dependency) in str(error.value)

    def test_placeholder_outside_the_dependency_is_a_certain_row(self):
        """A ``?`` on an attribute the dependency ignores must not hide a violation."""
        uwsdt = self._certain_with_one_orset()
        dependency = EqualityGeneratingDependency(
            "R", [Comparison("B", "=", 2)], Comparison("B", "!=", 2)
        )
        with pytest.raises(InconsistentWorldSetError, match="certain tuple 2"):
            chase_uwsdt(uwsdt, [dependency])

    @pytest.mark.parametrize(
        "rows, density, extra, expected",
        [
            # The benchmark's shape (tiny scale): single-placeholder components only.
            (400, 0.005, [], "96db1ebb7e22e1300438a34937e135d9d2ecf047"),
            # Dense enough to compose components, plus an FD over four attributes.
            (
                300,
                0.05,
                [FunctionalDependency("R", ["POWSTATE", "POB", "FERTIL", "YEARSCH"], "RPOB")],
                "c1597a7756f7118141a5dd4cf2d880604de5542f",
            ),
        ],
    )
    def test_census_chase_digest_is_pinned(self, rows, density, extra, expected):
        """Components, probabilities and statistics as left by the pre-index chase."""
        generator = CensusGenerator(seed=42)
        noisy = generator.add_noise(generator.clean_relation(rows), density)
        uwsdt = chase_uwsdt(UWSDT.from_orset_relation(noisy), census_dependencies() + extra)
        assert_index_matches_template_scan(uwsdt)
        assert chase_digest(uwsdt) == expected


# --------------------------------------------------------------------------- #
# (d) Operators leave no stale index entries
# --------------------------------------------------------------------------- #


class TestOperatorsLeaveNoStaleEntries:
    @pytest.fixture
    def uwsdt(self):
        relation = OrSetRelation.from_dicts(
            "R",
            ["A", "B"],
            [{"A": 1, "B": OrSet([2, 3])}, {"A": 1, "B": OrSet([3, 4])}, {"A": 5, "B": 6}],
        )
        other = OrSetRelation.from_dicts("S", ["C", "D"], [{"C": 1, "D": 0}, {"C": 5, "D": 0}])
        return UWSDT.from_orset_relations([relation, other])

    def test_select_filters_every_placeholder_row_out(self, uwsdt):
        uwsdt_ops.select(uwsdt, "R", "P", eq("A", 5))
        assert dict(uwsdt.uncertain_tuples("P")) == {}
        assert [values for _, values in uwsdt.template_rows("P")] == [(5, 6)]
        assert_index_matches_template_scan(uwsdt)

    def test_select_keeps_every_placeholder_row(self, uwsdt):
        uwsdt_ops.select(uwsdt, "R", "P", eq("A", 1))
        assert dict(uwsdt.uncertain_tuples("P")) == {1: ("B",), 2: ("B",)}
        assert_index_matches_template_scan(uwsdt)

    def test_select_drops_a_tuple_no_world_keeps(self, uwsdt):
        uwsdt_ops.select(uwsdt, "R", "P", eq("B", 2))  # only tuple 1 can have B = 2
        assert dict(uwsdt.uncertain_tuples("P")) == {1: ("B",)}
        assert not any(f.relation == "P" and f.tuple_id == 2 for f in uwsdt.field_to_cid)
        assert_index_matches_template_scan(uwsdt)
        uwsdt_ops.select(uwsdt, "R", "none", eq("B", 9))
        assert uwsdt.template_size("none") == 0
        assert dict(uwsdt.uncertain_tuples("none")) == {}
        assert_index_matches_template_scan(uwsdt)

    def test_project_away_and_onto_the_placeholders(self, uwsdt):
        uwsdt_ops.project(uwsdt, "R", "certain", ["A"])
        assert dict(uwsdt.uncertain_tuples("certain")) == {}
        uwsdt_ops.project(uwsdt, "R", "kept", ["B"])
        assert dict(uwsdt.uncertain_tuples("kept")) == {1: ("B",), 2: ("B",)}
        assert_index_matches_template_scan(uwsdt)
        # Presence carried by a projected-away field moves onto a kept one.
        uwsdt_ops.select(uwsdt, "R", "half", eq("B", 3))
        uwsdt_ops.project(uwsdt, "half", "presence", ["A"])
        assert dict(uwsdt.uncertain_tuples("presence")) == {1: ("A",), 2: ("A",)}
        assert_index_matches_template_scan(uwsdt)

    def test_rename_indexes_the_new_attribute_name(self, uwsdt):
        uwsdt_ops.rename(uwsdt, "R", "P", "B", "B2")
        assert dict(uwsdt.uncertain_tuples("P")) == {1: ("B2",), 2: ("B2",)}
        uwsdt_ops.rename(uwsdt, "S", "T", "C", "C2")
        assert dict(uwsdt.uncertain_tuples("T")) == {}
        assert_index_matches_template_scan(uwsdt)

    def test_equi_join_on_certain_and_uncertain_attributes(self, uwsdt):
        uwsdt_ops.equi_join(uwsdt, "R", "S", "A", "C", "kept")
        assert dict(uwsdt.uncertain_tuples("kept")) == {(1, 1): ("B",), (2, 1): ("B",)}
        uwsdt_ops.select(uwsdt, "S", "five", eq("C", 5))
        uwsdt_ops.equi_join(uwsdt, "R", "five", "A", "C", "filtered")
        assert dict(uwsdt.uncertain_tuples("filtered")) == {}
        assert uwsdt.template_size("filtered") == 1
        # B ∈ {2, 3} / {3, 4} against D = 0: no candidate value matches, nothing is emitted.
        uwsdt_ops.equi_join(uwsdt, "R", "S", "B", "D", "none")
        assert uwsdt.template_size("none") == 0
        assert dict(uwsdt.uncertain_tuples("none")) == {}
        assert_index_matches_template_scan(uwsdt)

    def test_queries_through_the_executor(self, uwsdt):
        query = BaseRelation("R").select(eq("B", 3)).join(BaseRelation("S"), "A", "C")
        query.run(uwsdt, "P")
        assert set(uwsdt.uncertain_tuples("P")) == {
            tuple_id for tuple_id, _ in uwsdt.template_rows("P")
        }
        assert_index_matches_template_scan(uwsdt)
