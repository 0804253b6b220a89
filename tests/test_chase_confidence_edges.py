"""Edge cases for the chase (Section 8) and confidence computation (Section 6).

Covers the corners the main suites skip over: chasing an already-consistent
instance must be a structural no-op, certain tuples must carry confidence
exactly 1.0, and the confidences over an or-set column must reproduce the
marginals of the paper's Figure 1 census forms.
"""

import pytest

from repro.core import (
    UWSDT,
    WSD,
    EqualityGeneratingDependency,
    FunctionalDependency,
    chase_uwsdt,
    chase_wsd,
    confidence,
    possible_with_confidence,
    uwsdt_confidence,
    uwsdt_possible_with_confidence,
)
from repro.core.component import Component
from repro.core.fields import FieldRef
from repro.relational import AttrConst, DatabaseSchema, Relation, RelationSchema
from repro.relational.values import PLACEHOLDER
from repro.worlds import OrSet, OrSetRelation


class TestChaseNoOp:
    """The chase of a consistent instance changes nothing."""

    @pytest.fixture
    def consistent_orset(self):
        # Distinct SSNs in every world: the key S -> (N, M) can never fire.
        return OrSetRelation.from_dicts(
            "R",
            ["S", "N", "M"],
            [
                {"S": OrSet([1, 2]), "N": "a", "M": 1},
                {"S": OrSet([7, 8]), "N": "b", "M": OrSet([3, 4])},
            ],
        )

    def test_uwsdt_chase_consistent_is_noop(self, consistent_orset):
        uwsdt = UWSDT.from_orset_relation(consistent_orset)
        before_stats = uwsdt.statistics()
        before_rep = uwsdt.rep()
        chase_uwsdt(
            uwsdt,
            [FunctionalDependency("R", ["S"], "N"), FunctionalDependency("R", ["S"], "M")],
        )
        uwsdt.validate()
        assert uwsdt.statistics() == before_stats
        assert uwsdt.rep().same_distribution(before_rep)

    def test_wsd_chase_consistent_is_noop(self, consistent_orset):
        wsd = WSD.from_orset_relation(consistent_orset)
        before_components = wsd.component_count()
        before_rep = wsd.rep()
        chase_wsd(
            wsd,
            [FunctionalDependency("R", ["S"], "N"), FunctionalDependency("R", ["S"], "M")],
        )
        assert wsd.component_count() == before_components
        assert wsd.rep().same_distribution(before_rep)

    def test_egd_with_false_premise_is_noop(self, consistent_orset):
        uwsdt = UWSDT.from_orset_relation(consistent_orset)
        before = uwsdt.statistics()
        egd = EqualityGeneratingDependency(
            "R", [AttrConst("N", "=", "nobody")], AttrConst("M", "=", 1)
        )
        chase_uwsdt(uwsdt, [egd])
        assert uwsdt.statistics() == before

    def test_certain_instance_chase_is_noop(self):
        relation = Relation(RelationSchema("R", ("S", "N")), [(1, "a"), (2, "b")])
        uwsdt = UWSDT.from_relation(relation)
        before = uwsdt.statistics()
        chase_uwsdt(uwsdt, [FunctionalDependency("R", ["S"], "N")])
        assert uwsdt.statistics() == before
        assert uwsdt.component_count() == 0


class TestCertainTupleConfidence:
    """A tuple present in every world has confidence exactly 1.0."""

    def test_uwsdt_certain_tuple(self):
        relation = Relation(RelationSchema("R", ("A", "B")), [(1, 2), (3, 4)])
        uwsdt = UWSDT.from_relation(relation)
        assert uwsdt_confidence(uwsdt, "R", (1, 2)) == 1.0
        assert uwsdt_confidence(uwsdt, "R", (3, 4)) == 1.0

    def test_wsd_certain_tuple(self):
        relation = Relation(RelationSchema("R", ("A", "B")), [(1, 2)])
        wsd = WSD.from_relation(relation)
        assert confidence(wsd, "R", (1, 2)) == 1.0

    def test_certain_tuple_next_to_uncertain_one(self):
        orset = OrSetRelation.from_dicts(
            "R",
            ["A", "B"],
            [{"A": 1, "B": 2}, {"A": OrSet([5, 6]), "B": 7}],
        )
        uwsdt = UWSDT.from_orset_relation(orset)
        assert uwsdt_confidence(uwsdt, "R", (1, 2)) == 1.0
        wsd = WSD.from_orset_relation(orset)
        assert confidence(wsd, "R", (1, 2)) == 1.0


class TestCorrelatedTupleGroups:
    """Tuples linked through a *chain* of shared components are ranked together."""

    def test_transitively_correlated_tuples_share_a_group(self):
        """Regression: grouping was one non-transitive pass over the cid sets.

        ``t1`` and ``t2`` share no component, but ``t3`` shares one with each,
        so all three are correlated.  ``(1, 1)`` is produced by ``t2`` in one
        world and by ``t3`` in the other — confidence 1.0, where combining
        ``{t1, t3}`` and ``{t2}`` as independent groups gave 0.75.
        """
        uwsdt = UWSDT(DatabaseSchema([RelationSchema("R", ("A", "B"))]))
        for tuple_id in (1, 2, 3):
            uwsdt.add_template_tuple("R", tuple_id, (PLACEHOLDER, PLACEHOLDER))

        def field(tuple_id, attribute):
            return FieldRef("R", tuple_id, attribute)

        uwsdt.new_component(Component((field(1, "A"),), [(9,)], [1.0]))
        uwsdt.new_component(Component((field(1, "B"), field(3, "A")), [(5, 1)], [1.0]))
        uwsdt.new_component(
            Component((field(2, "A"), field(3, "B")), [(1, 0), (0, 1)], [0.5, 0.5])
        )
        uwsdt.new_component(Component((field(2, "B"),), [(1,)], [1.0]))
        uwsdt.validate()

        worlds = uwsdt.to_worldset()
        ranked = dict(uwsdt_possible_with_confidence(uwsdt, "R"))
        assert ranked == pytest.approx(
            {row: worlds.tuple_confidence("R", row) for row in ranked}
        )
        assert ranked[(1, 1)] == pytest.approx(1.0)


class TestFigure1Probabilities:
    """Confidence sums over the or-set columns of the Figure 1 census forms."""

    def test_tuple1_socsec_marginals(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        # Tuple 1: S ∈ {185 (0.2), 785 (0.8)}, N = Smith, M ∈ {1 (0.7), 2 (0.3)}.
        assert uwsdt_confidence(uwsdt, "R", (185, "Smith", 1)) == pytest.approx(0.2 * 0.7)
        assert uwsdt_confidence(uwsdt, "R", (185, "Smith", 2)) == pytest.approx(0.2 * 0.3)
        assert uwsdt_confidence(uwsdt, "R", (785, "Smith", 1)) == pytest.approx(0.8 * 0.7)
        assert uwsdt_confidence(uwsdt, "R", (785, "Smith", 2)) == pytest.approx(0.8 * 0.3)

    def test_socsec_column_sums_to_orset_probabilities(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        ranked = dict(uwsdt_possible_with_confidence(uwsdt, "R"))
        smith = {row: conf for row, conf in ranked.items() if row[1] == "Smith"}
        # Summing out M recovers the or-set marginals of the S column.
        assert sum(conf for row, conf in smith.items() if row[0] == 185) == pytest.approx(0.2)
        assert sum(conf for row, conf in smith.items() if row[0] == 785) == pytest.approx(0.8)
        # The whole Smith row sums to 1: the tuple exists in every world.
        assert sum(smith.values()) == pytest.approx(1.0)

    def test_brown_uniform_marital_column(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        ranked = dict(uwsdt_possible_with_confidence(uwsdt, "R"))
        brown = {row: conf for row, conf in ranked.items() if row[1] == "Brown"}
        # M ∈ {1, 2, 3, 4} without probabilities defaults to uniform 0.25.
        for marital in (1, 2, 3, 4):
            assert sum(
                conf for row, conf in brown.items() if row[2] == marital
            ) == pytest.approx(0.25)

    def test_wsd_and_uwsdt_marginals_agree(self, census_forms):
        uwsdt = UWSDT.from_orset_relation(census_forms)
        wsd = WSD.from_orset_relation(census_forms)
        uwsdt_ranked = dict(uwsdt_possible_with_confidence(uwsdt, "R"))
        wsd_ranked = dict(possible_with_confidence(wsd, "R"))
        assert set(uwsdt_ranked) == set(wsd_ranked)
        for row, value in wsd_ranked.items():
            assert uwsdt_ranked[row] == pytest.approx(value)
