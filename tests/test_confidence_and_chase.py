"""Confidence computation (Section 6) and the chase (Section 8), against the naive oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import naive
from repro.core import (
    UWSDT,
    WSD,
    EqualityGeneratingDependency,
    FunctionalDependency,
    certain,
    chase_uwsdt,
    chase_wsd,
    confidence,
    possible,
    possible_relation,
    possible_with_confidence,
    uwsdt_confidence,
    uwsdt_possible,
    uwsdt_possible_with_confidence,
)
from repro.core.algebra import BaseRelation, evaluate_on_wsd
from repro.relational import (
    AttrConst,
    Database,
    InconsistentWorldSetError,
    Relation,
    RelationSchema,
    RepresentationError,
)
from repro.worlds import OrSet, OrSetRelation, WorldSet

from _fixtures import ORACLE_ATTRS, chase_dependency_lists, orset_relations, values_strategy


@pytest.fixture
def figure4_wsd(census_forms):
    """The probabilistic WSD of Figure 4 (with the paper's exact probabilities)."""
    from repro.core import Component, FieldRef
    from repro.relational import DatabaseSchema, RelationSchema

    schema = DatabaseSchema([RelationSchema("R", ("S", "N", "M"))])
    components = [
        Component(
            (FieldRef("R", 1, "S"), FieldRef("R", 2, "S")),
            [(185, 186), (785, 185), (785, 186)],
            [0.2, 0.4, 0.4],
        ),
        Component((FieldRef("R", 1, "N"),), [("Smith",)], [1.0]),
        Component((FieldRef("R", 1, "M"),), [(1,), (2,)], [0.7, 0.3]),
        Component((FieldRef("R", 2, "N"),), [("Brown",)], [1.0]),
        Component((FieldRef("R", 2, "M"),), [(1,), (2,), (3,), (4,)], [0.25] * 4),
    ]
    return WSD(schema, {"R": [1, 2]}, components)


class TestConfidenceOnWSD:
    def test_example11_projection_confidences(self, figure4_wsd):
        """Example 11: conf of the answers to Q = π_S(R) is 0.6 / 0.6 / 0.8."""
        evaluate_on_wsd(BaseRelation("R").project(["S"]), figure4_wsd, "Q")
        ranked = dict(possible_with_confidence(figure4_wsd, "Q"))
        assert ranked[(185,)] == pytest.approx(0.6)
        assert ranked[(186,)] == pytest.approx(0.6)
        assert ranked[(785,)] == pytest.approx(0.8)

    def test_confidence_matches_naive_on_base_relation(self, figure4_wsd):
        worlds = figure4_wsd.rep()
        for row in possible(figure4_wsd, "R"):
            assert confidence(figure4_wsd, "R", row) == pytest.approx(
                naive.tuple_confidence(worlds, "R", row)
            )

    def test_possible_and_certain(self, figure4_wsd):
        worlds = figure4_wsd.rep()
        assert set(possible(figure4_wsd, "R")) == naive.possible_tuples(worlds, "R")
        assert set(certain(figure4_wsd, "R")) == naive.certain_tuples(worlds, "R")

    def test_possible_relation_materialization(self, figure4_wsd):
        relation = possible_relation(figure4_wsd, "R")
        assert relation.schema.attributes == ("S", "N", "M")
        assert len(relation) == len(possible(figure4_wsd, "R"))

    def test_confidence_requires_probabilistic_wsd(self, census_forms):
        wsd = WSD.from_orset_relation(census_forms, probabilistic=False)
        with pytest.raises(RepresentationError):
            confidence(wsd, "R", (185, "Smith", 1))

    def test_confidence_arity_checked(self, figure4_wsd):
        with pytest.raises(RepresentationError):
            confidence(figure4_wsd, "R", (185,))

    def test_confidence_of_impossible_tuple_is_zero(self, figure4_wsd):
        assert confidence(figure4_wsd, "R", (999, "Nobody", 1)) == 0.0

    def test_tuple_independent_confidences(self):
        from repro.relational import RelationSchema
        from repro.worlds import TupleIndependentDatabase
        from repro.worlds.tuple_independent import TupleIndependentRelation

        relation = TupleIndependentRelation(RelationSchema("S", ("A",)))
        relation.insert((1,), 0.8)
        relation.insert((2,), 0.5)
        wsd = WSD.from_tuple_independent(TupleIndependentDatabase([relation]))
        assert confidence(wsd, "S", (1,)) == pytest.approx(0.8)
        assert confidence(wsd, "S", (2,)) == pytest.approx(0.5)

    def test_a_tuple_produced_twice_in_one_local_world_counts_it_once(self):
        from repro.core import Component, FieldRef
        from repro.relational import DatabaseSchema, RelationSchema

        schema = DatabaseSchema([RelationSchema("R", ("S",))])
        both = Component(
            (FieldRef("R", 1, "S"), FieldRef("R", 2, "S")), [(5, 5), (5, 6)], [0.5, 0.5]
        )
        wsd = WSD(schema, {"R": [1, 2]}, [both])
        assert possible_with_confidence(wsd, "R") == [((5,), pytest.approx(1.0)), ((6,), 0.5)]
        assert certain(wsd, "R") == [(5,)]

    @given(orset_relations(max_rows=2, max_attrs=2))
    @settings(max_examples=20, deadline=None)
    def test_every_possible_tuple_and_projection_matches_naive(self, relation):
        """One pass ranks every possible tuple, of the relation and of a
        projection that merges tuple ids; ``confidence``, ``possible`` and
        ``certain`` read the same ranking."""
        wsd = WSD.from_orset_relation(relation)
        evaluate_on_wsd(BaseRelation("R").project([relation.schema.attributes[-1]]), wsd, "Q")
        worlds = wsd.rep()
        for name in ("R", "Q"):
            ranked = possible_with_confidence(wsd, name)
            assert [row for row, _ in ranked] == possible(wsd, name)
            assert set(possible(wsd, name)) == naive.possible_tuples(worlds, name)
            assert set(certain(wsd, name)) == naive.certain_tuples(worlds, name)
            for row, value in ranked:
                assert value == pytest.approx(naive.tuple_confidence(worlds, name, row), abs=1e-9)
                assert confidence(wsd, name, row) == value


class TestConfidenceOnUWSDT:
    def test_matches_wsd_confidence(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        wsd = WSD.from_orset_relation(census_forms)
        wsd_ranked = dict(possible_with_confidence(wsd, "R"))
        uwsdt_ranked = dict(uwsdt_possible_with_confidence(uwsdt, "R"))
        assert set(wsd_ranked) == set(uwsdt_ranked)
        for row, value in wsd_ranked.items():
            assert uwsdt_ranked[row] == pytest.approx(value)

    def test_certain_tuples_have_confidence_one(self, small_relation):
        uwsdt = UWSDT.from_relation(small_relation)
        ranked = uwsdt_possible_with_confidence(uwsdt, "Emp")
        assert len(ranked) == len(small_relation)
        assert all(value == pytest.approx(1.0) for _, value in ranked)

    def test_uwsdt_confidence_single_tuple(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        assert uwsdt_confidence(uwsdt, "R", (185, "Smith", 1)) == pytest.approx(0.2 * 0.7)
        assert uwsdt_confidence(uwsdt, "R", (999, "Smith", 1)) == 0.0

    def test_possible_after_chase(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        chase_uwsdt(
            uwsdt,
            [FunctionalDependency("R", ["S"], "N"), FunctionalDependency("R", ["S"], "M")],
        )
        worlds = uwsdt.rep()
        assert set(uwsdt_possible(uwsdt, "R")) == naive.possible_tuples(worlds, "R")

    @given(orset_relations(max_rows=2, max_attrs=2))
    @settings(max_examples=20, deadline=None)
    def test_confidences_match_naive(self, relation):
        uwsdt = UWSDT.from_orset_relation(relation)
        worlds = uwsdt.rep()
        for row, value in uwsdt_possible_with_confidence(uwsdt, "R"):
            assert value == pytest.approx(naive.tuple_confidence(worlds, "R", row), abs=1e-9)


class TestChaseOnWSD:
    def test_intro_key_constraint(self, census_forms):
        wsd = WSD.from_orset_relation(census_forms)
        reference = naive.clean(
            wsd.rep(),
            [FunctionalDependency("R", ["S"], "N"), FunctionalDependency("R", ["S"], "M")],
        )
        chase_wsd(
            wsd,
            [FunctionalDependency("R", ["S"], "N"), FunctionalDependency("R", ["S"], "M")],
        )
        assert len(wsd.rep()) == 24
        assert wsd.rep().same_distribution(reference)

    def test_figure22_egd_after_key(self, figure4_wsd):
        """Chasing S = 785 ⇒ M = 1 on the Figure 4 WSD yields the Figure 22 WSD."""
        egd = EqualityGeneratingDependency(
            "R", [AttrConst("S", "=", 785)], AttrConst("M", "=", 1)
        )
        reference = naive.clean(figure4_wsd.rep(), [egd])
        chase_wsd(figure4_wsd, [egd])
        assert figure4_wsd.rep().same_distribution(reference)
        # The probabilities of Figure 22 (merged S/M component).
        ranked = dict(possible_with_confidence(figure4_wsd, "R"))
        assert ranked[(785, "Smith", 1)] == pytest.approx(0.3684 + 0.3684, abs=1e-3)

    def test_figure23_order_independence(self):
        """Chasing d1 then d2 and d2 alone yield the same world-set (Figure 23)."""
        relation = OrSetRelation.from_dicts(
            "R",
            ["A", "B", "C"],
            [
                {"A": 1, "B": OrSet([1, 2]), "C": 5},
                {"A": 2, "B": OrSet([2, 3]), "C": OrSet([5, 6])},
            ],
        )
        d1 = FunctionalDependency("R", ["B"], "C")
        d2 = EqualityGeneratingDependency("R", [AttrConst("A", "=", 1)], AttrConst("B", "!=", 2))

        first = WSD.from_orset_relation(relation)
        chase_wsd(first, [d1, d2])
        second = WSD.from_orset_relation(relation)
        chase_wsd(second, [d2, d1])
        assert first.rep().same_worlds(second.rep())
        # d2 first avoids merging: the decomposition stays finer.
        assert second.component_count() >= first.component_count()
        reference = naive.clean(WSD.from_orset_relation(relation).rep(), [d1, d2])
        assert first.rep().same_distribution(reference)
        assert second.rep().same_distribution(reference)

    def test_inconsistent_worldset_raises(self):
        relation = OrSetRelation.from_dicts("R", ["A", "B"], [{"A": 1, "B": OrSet([2, 3])}])
        egd = EqualityGeneratingDependency(
            "R", [AttrConst("A", "=", 1)], AttrConst("B", "=", 9)
        )
        wsd = WSD.from_orset_relation(relation)
        with pytest.raises(InconsistentWorldSetError):
            chase_wsd(wsd, [egd])

    def test_fd_requires_determinant(self):
        with pytest.raises(RepresentationError):
            FunctionalDependency("R", [], "A")

    @given(orset_relations(max_rows=2, max_attrs=2), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_random_egd_matches_naive(self, relation, constant):
        first, last = relation.schema.attributes[0], relation.schema.attributes[-1]
        egd = EqualityGeneratingDependency(
            "R", [AttrConst(first, "=", constant)], AttrConst(last, "!=", constant)
        )
        wsd = WSD.from_orset_relation(relation)
        try:
            reference = naive.clean(wsd.rep(), [egd])
        except InconsistentWorldSetError:
            with pytest.raises(InconsistentWorldSetError):
                chase_wsd(wsd, [egd])
            return
        chase_wsd(wsd, [egd])
        assert wsd.rep().same_distribution(reference)


class TestChaseOnUWSDT:
    def test_matches_wsd_chase(self, census_forms):
        dependencies = [
            FunctionalDependency("R", ["S"], "N"),
            FunctionalDependency("R", ["S"], "M"),
        ]
        wsd = WSD.from_orset_relation(census_forms)
        chase_wsd(wsd, dependencies)
        uwsdt = UWSDT.from_orset_relation(census_forms)
        chase_uwsdt(uwsdt, dependencies)
        uwsdt.validate()
        assert uwsdt.rep().same_distribution(wsd.rep())

    def test_certain_violation_raises(self):
        relation = OrSetRelation.from_dicts("R", ["A", "B"], [{"A": 1, "B": 2}])
        egd = EqualityGeneratingDependency(
            "R", [AttrConst("A", "=", 1)], AttrConst("B", "=", 9)
        )
        uwsdt = UWSDT.from_orset_relation(relation)
        with pytest.raises(InconsistentWorldSetError):
            chase_uwsdt(uwsdt, [egd])

    def test_certain_fd_violation_raises(self):
        relation = OrSetRelation.from_dicts(
            "R", ["A", "B"], [{"A": 1, "B": 2}, {"A": 1, "B": 3}]
        )
        uwsdt = UWSDT.from_orset_relation(relation)
        with pytest.raises(InconsistentWorldSetError):
            chase_uwsdt(uwsdt, [FunctionalDependency("R", ["A"], "B")])

    def test_refinement_skips_unrelated_tuples(self, census_forms):
        """An EGD whose premise is certainly false never composes components."""
        uwsdt = UWSDT.from_orset_relation(census_forms)
        before = uwsdt.component_count()
        egd = EqualityGeneratingDependency(
            "R", [AttrConst("N", "=", "Nobody")], AttrConst("M", "=", 1)
        )
        chase_uwsdt(uwsdt, [egd])
        assert uwsdt.component_count() == before
        assert uwsdt.multi_placeholder_component_count() == 0

    @given(orset_relations(max_rows=3, max_attrs=2), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_random_egd_matches_naive(self, relation, constant):
        first, last = relation.schema.attributes[0], relation.schema.attributes[-1]
        egd = EqualityGeneratingDependency(
            "R", [AttrConst(first, ">", constant)], AttrConst(last, "<=", constant)
        )
        uwsdt = UWSDT.from_orset_relation(relation)
        try:
            reference = naive.clean(uwsdt.rep(), [egd])
        except InconsistentWorldSetError:
            with pytest.raises(InconsistentWorldSetError):
                chase_uwsdt(uwsdt, [egd])
            return
        chase_uwsdt(uwsdt, [egd])
        assert uwsdt.rep().same_distribution(reference)

    @given(orset_relations(max_rows=3, max_attrs=2))
    @settings(max_examples=15, deadline=None)
    def test_random_fd_matches_naive(self, relation):
        first, last = relation.schema.attributes[0], relation.schema.attributes[-1]
        dependency = FunctionalDependency("R", [first], last)
        uwsdt = UWSDT.from_orset_relation(relation)
        try:
            reference = naive.clean(uwsdt.rep(), [dependency])
        except InconsistentWorldSetError:
            with pytest.raises(InconsistentWorldSetError):
                chase_uwsdt(uwsdt, [dependency])
            return
        chase_uwsdt(uwsdt, [dependency])
        assert uwsdt.rep().same_distribution(reference)


@st.composite
def one_component_worldsets(draw):
    """1-4 weighted worlds of 1-3 rows over the oracle relation ``R``."""
    schema = RelationSchema("R", ORACLE_ATTRS["R"])
    row = st.tuples(*[values_strategy] * schema.arity)
    worlds = draw(st.lists(st.lists(row, min_size=1, max_size=3), min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(worlds), max_size=len(worlds)))
    worldset = WorldSet()
    for rows, weight in zip(worlds, weights):
        worldset.add(Database([Relation(schema, rows)]), weight / sum(weights))
    return worldset


class TestChaseOnOneComponent:
    """``WSD.from_worldset`` keeps every field in one component, so each tuple
    spans a component before the first dependency is chased: the joint
    per-component witness decides from the start, on both engines."""

    @given(one_component_worldsets(), chase_dependency_lists())
    @settings(max_examples=80, deadline=None)
    def test_wsd_and_uwsdt_chases_match_naive(self, worldset, dependencies):
        wsd = WSD.from_worldset(worldset)
        assert wsd.component_count() == 1
        uwsdt = UWSDT.from_wsd(wsd)
        try:
            reference = naive.clean(worldset, dependencies)
        except InconsistentWorldSetError:
            with pytest.raises(InconsistentWorldSetError):
                chase_wsd(wsd, dependencies)
            with pytest.raises(InconsistentWorldSetError):
                chase_uwsdt(uwsdt, dependencies)
            return
        chase_wsd(wsd, dependencies)
        wsd.validate()
        assert wsd.rep().same_distribution(reference)
        chase_uwsdt(uwsdt, dependencies)
        uwsdt.validate()
        assert uwsdt.rep().same_distribution(reference)
