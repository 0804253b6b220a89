"""Tests for components, WSDs, WSDTs, decomposition and normalization."""

import pytest
from hypothesis import given, settings

from repro.core import (
    WSD,
    WSDT,
    Component,
    FieldRef,
    component_size_histogram,
    compose_all,
    decompose_component,
    decompose_wsd,
    normalize_wsd,
    remove_invalid_tuples,
)
from repro.relational import BOTTOM, DatabaseSchema, RelationSchema, RepresentationError
from repro.worlds import OrSet, OrSetRelation, TupleIndependentDatabase
from repro.worlds.tuple_independent import TupleIndependentRelation

from conftest import orset_relations


def field(tid, attr, rel="R"):
    return FieldRef(rel, tid, attr)


class TestComponent:
    def test_construction_validation(self):
        with pytest.raises(RepresentationError):
            Component((), [], None)
        with pytest.raises(RepresentationError):
            Component((field(1, "A"),), [], None)
        with pytest.raises(RepresentationError):
            Component((field(1, "A"), field(1, "A")), [(1, 2)], None)
        with pytest.raises(RepresentationError):
            Component((field(1, "A"),), [(1, 2)], None)
        with pytest.raises(RepresentationError):
            Component((field(1, "A"),), [(1,)], [0.5, 0.5])

    def test_probability_mass_validation(self):
        component = Component((field(1, "A"),), [(1,), (2,)], [0.5, 0.4])
        with pytest.raises(RepresentationError):
            component.validate()
        Component((field(1, "A"),), [(1,), (2,)], [0.5, 0.5]).validate()

    def test_certain_and_uniform_constructors(self):
        certain = Component.certain(field(1, "A"), 7)
        assert certain.is_certain() and certain.probability(0) == 1.0
        uniform = Component.uniform(field(1, "A"), [1, 2, 3, 4])
        assert uniform.size == 4
        assert uniform.probability(2) == pytest.approx(0.25)

    def test_ext_copies_column(self):
        component = Component((field(1, "A"),), [(1,), (2,)], [0.6, 0.4])
        extended = component.ext(field(1, "A"), FieldRef("P", 1, "A"))
        assert extended.fields == (field(1, "A"), FieldRef("P", 1, "A"))
        assert extended.rows == ((1, 1), (2, 2))
        with pytest.raises(RepresentationError):
            extended.ext(field(1, "A"), FieldRef("P", 1, "A"))

    def test_compose_multiplies_probabilities(self):
        first = Component((field(1, "A"),), [(1,), (2,)], [0.3, 0.7])
        second = Component((field(2, "A"),), [(5,), (6,)], [0.5, 0.5])
        composed = first.compose(second)
        assert composed.size == 4
        assert composed.probability(0) == pytest.approx(0.15)
        composed.validate()
        with pytest.raises(RepresentationError):
            first.compose(first)

    def test_compose_all(self):
        parts = [Component.certain(field(i, "A"), i) for i in range(3)]
        composed = compose_all(parts)
        assert composed.arity == 3 and composed.size == 1
        with pytest.raises(RepresentationError):
            compose_all([])

    def test_propagate_bottom(self):
        component = Component(
            (field(1, "A"), field(1, "B"), field(2, "A")),
            [(BOTTOM, 5, 9), (1, 2, 3)],
            [0.5, 0.5],
        )
        propagated = component.propagate_bottom()
        assert propagated.rows[0] == (BOTTOM, BOTTOM, 9)
        assert propagated.rows[1] == (1, 2, 3)

    def test_project_away_merges_duplicates(self):
        component = Component(
            (field(1, "A"), field(1, "B")),
            [(1, 10), (1, 20), (2, 30)],
            [0.2, 0.3, 0.5],
        )
        reduced = component.project_away([field(1, "B")])
        assert reduced.rows == ((1,), (2,))
        assert reduced.probabilities == pytest.approx([0.5, 0.5])
        assert component.project_away(component.fields) is None

    def test_filter_rows_renormalizes(self):
        component = Component((field(1, "A"),), [(1,), (2,), (3,)], [0.2, 0.3, 0.5])
        filtered = component.filter_rows(lambda row: row[0] != 1)
        assert filtered.probabilities == pytest.approx([0.375, 0.625])
        assert component.filter_rows(lambda row: False) is None

    def test_compress(self):
        component = Component((field(1, "A"),), [(1,), (1,), (2,)], [0.25, 0.25, 0.5])
        compressed = component.compress()
        assert compressed.size == 2
        assert compressed.probabilities == pytest.approx([0.5, 0.5])

    def test_to_text(self):
        component = Component((field(1, "A"),), [(1,), (BOTTOM,)], [0.5, 0.5])
        text = component.to_text()
        assert "R.t1.A" in text and "⊥" in text and "P" in text


class TestWSDConstruction:
    def test_field_coverage_enforced(self):
        schema = DatabaseSchema([RelationSchema("R", ("A", "B"))])
        with pytest.raises(RepresentationError):
            WSD(schema, {"R": [1]}, [Component.certain(field(1, "A"), 1)])

    def test_duplicate_field_rejected(self):
        schema = DatabaseSchema([RelationSchema("R", ("A",))])
        with pytest.raises(RepresentationError):
            WSD(
                schema,
                {"R": [1]},
                [Component.certain(field(1, "A"), 1), Component.certain(field(1, "A"), 2)],
            )

    def test_from_relation(self, small_relation):
        wsd = WSD.from_relation(small_relation)
        assert wsd.world_count() == 1
        worlds = wsd.rep()
        assert len(worlds) == 1
        assert worlds.databases[0].relation("Emp").same_rows(small_relation)

    def test_from_empty_relation(self):
        from repro.relational import Relation

        empty = Relation(RelationSchema("R", ("A",)))
        wsd = WSD.from_relation(empty)
        worlds = wsd.rep()
        assert len(worlds) == 1
        assert len(worlds.databases[0].relation("R")) == 0

    def test_from_orset_relation_is_linear(self, census_forms):
        wsd = WSD.from_orset_relation(census_forms)
        assert wsd.component_count() == 6  # one component per field
        assert wsd.representation_size() == census_forms.representation_size()
        assert len(wsd.rep()) == 32

    def test_from_tuple_independent_matches_expansion(self):
        s = TupleIndependentRelation(RelationSchema("S", ("A", "B")))
        s.insert(("m", 1), 0.8)
        s.insert(("n", 1), 0.5)
        t = TupleIndependentRelation(RelationSchema("T", ("C", "D")))
        t.insert((1, "p"), 0.6)
        database = TupleIndependentDatabase([s, t])
        wsd = WSD.from_tuple_independent(database)
        assert wsd.component_count() == 3
        assert wsd.rep().same_distribution(database.to_worldset())

    def test_from_tuple_independent_degenerate_probabilities(self):
        s = TupleIndependentRelation(RelationSchema("S", ("A",)))
        s.insert((1,), 1.0)
        s.insert((2,), 0.0)
        wsd = WSD.from_tuple_independent(TupleIndependentDatabase([s]))
        worlds = wsd.rep()
        assert len(worlds) == 1
        assert worlds.databases[0].relation("S").row_set() == {(1,)}

    def test_from_worldset_roundtrip(self, census_forms):
        worlds = census_forms.to_worldset()
        wsd = WSD.from_worldset(worlds)
        assert wsd.component_count() == 1  # 1-WSD by construction
        assert wsd.rep().same_distribution(worlds)

    def test_copy_is_independent(self, census_forms):
        wsd = WSD.from_orset_relation(census_forms)
        clone = wsd.copy()
        clone.merge_components_of([field(1, "S"), field(2, "S")])
        assert wsd.component_count() == 6
        assert clone.component_count() == 5

    def test_world_count_guard(self):
        relation = OrSetRelation(RelationSchema("R", ("A",)))
        for _ in range(25):
            relation.insert((OrSet([0, 1]),))
        wsd = WSD.from_orset_relation(relation)
        with pytest.raises(RepresentationError):
            wsd.to_worldset(max_worlds=1000)

    def test_drop_and_restrict_relations(self, census_forms):
        wsd = WSD.from_orset_relation(census_forms)
        from repro.core.algebra import wsd_ops

        wsd_ops.copy_relation(wsd, "R", "P")
        restricted = wsd.restrict_to_relations(["P"])
        assert restricted.schema.relation_names == ("P",)
        assert len(restricted.rep()) == 32
        wsd.drop_relation("P")
        assert wsd.schema.relation_names == ("R",)


class TestProjectAwayFields:
    def wsd(self):
        schema = DatabaseSchema([RelationSchema("R", ("A", "B"))])
        pair = Component((field(1, "A"), field(1, "B")), [(1, 10), (1, 20), (2, 30)], [0.2, 0.3, 0.5])
        singles = [
            Component((field(2, "A"),), [(5,), (6,)], [0.5, 0.5]),
            Component.certain(field(2, "B"), 7),
        ]
        return WSD(schema, {"R": [1, 2]}, [pair, *singles])

    def test_reduces_only_the_components_defining_a_field(self):
        wsd = self.wsd()
        untouched = wsd.components[1:]
        wsd.project_away_fields({field(1, "B")})
        reduced = wsd.component_for(field(1, "A"))
        assert reduced.fields == (field(1, "A"),)
        assert reduced.rows == ((1,), (2,))
        assert reduced.probabilities == pytest.approx([0.5, 0.5])
        assert all(any(c is u for c in wsd.components) for u in untouched)

    def test_drops_emptied_components_and_reindexes_the_rest(self):
        wsd = self.wsd()
        wsd.project_away_fields({field(1, "A"), field(1, "B"), field(2, "B")})
        assert wsd.component_count() == 1
        assert wsd.component_for(field(2, "A")).rows == ((5,), (6,))
        for gone in (field(1, "A"), field(1, "B"), field(2, "B")):
            with pytest.raises(RepresentationError):
                wsd.component_of(gone)

    def test_drop_relation_keeps_the_other_relations_worlds(self, census_forms):
        wsd = WSD.from_orset_relation(census_forms)
        from repro.core.algebra import wsd_ops

        before = wsd.rep()
        wsd_ops.copy_relation(wsd, "R", "P")
        wsd.drop_relation("P")
        assert not any(f.relation == "P" for c in wsd.components for f in c.fields)
        assert wsd.rep().same_distribution(before)


class TestDecompose:
    def test_independent_fields_split(self):
        component = Component(
            (field(1, "A"), field(1, "B")),
            [(1, 10), (1, 20), (2, 10), (2, 20)],
            [0.25, 0.25, 0.25, 0.25],
        )
        factors = decompose_component(component)
        assert len(factors) == 2
        assert sorted(factor.arity for factor in factors) == [1, 1]

    def test_correlated_fields_stay_together(self):
        component = Component(
            (field(1, "A"), field(1, "B")),
            [(1, 10), (2, 20)],
            [0.5, 0.5],
        )
        assert len(decompose_component(component)) == 1

    def test_xor_relation_is_prime(self):
        # Pairwise independent but not decomposable: c = a XOR b.
        rows = [(a, b, a ^ b) for a in (0, 1) for b in (0, 1)]
        component = Component(
            (field(1, "A"), field(1, "B"), field(1, "C")), rows, [0.25] * 4
        )
        assert len(decompose_component(component)) == 1

    def test_probability_correlation_blocks_split(self):
        # The relation factorizes but the distribution does not.
        component = Component(
            (field(1, "A"), field(1, "B")),
            [(1, 10), (1, 20), (2, 10), (2, 20)],
            [0.4, 0.1, 0.1, 0.4],
        )
        assert len(decompose_component(component)) == 1

    def test_three_way_split(self):
        parts = [Component.uniform(field(i, "A"), [0, 1]) for i in range(3)]
        composed = compose_all(parts)
        factors = decompose_component(composed)
        assert len(factors) == 3
        for factor in factors:
            factor.validate()

    def test_decompose_wsd_preserves_semantics(self, census_forms):
        worlds = census_forms.to_worldset()
        wsd = WSD.from_worldset(worlds)
        decompose_wsd(wsd)
        assert wsd.component_count() > 1
        assert wsd.rep().same_distribution(worlds)


class TestNormalize:
    def test_remove_invalid_tuples(self):
        schema = DatabaseSchema([RelationSchema("R", ("A", "B"))])
        components = [
            Component((field(1, "A"),), [(BOTTOM,)], [1.0]),
            Component((field(1, "B"),), [(5,)], [1.0]),
            Component((field(2, "A"),), [(1,), (2,)], [0.5, 0.5]),
            Component((field(2, "B"),), [(7,)], [1.0]),
        ]
        wsd = WSD(schema, {"R": [1, 2]}, components)
        removed = remove_invalid_tuples(wsd)
        assert removed == [("R", 1)]
        assert wsd.tuple_ids["R"] == [2]
        assert len(wsd.rep()) == 2

    def test_normalize_reaches_fixpoint_and_preserves_rep(self, census_forms):
        worlds = census_forms.to_worldset()
        wsd = WSD.from_worldset(worlds)
        normalize_wsd(wsd)
        assert wsd.rep().same_distribution(worlds)
        histogram = component_size_histogram(wsd)
        assert sum(histogram.values()) == wsd.component_count()

    def test_normalization_of_query_answer_example12(self, figure10_orset):
        """Example 12: a tuple that is ⊥ in all worlds disappears after normalization."""
        from repro.core.algebra import BaseRelation, evaluate_on_wsd
        from repro.relational import eq

        wsd = WSD.from_orset_relation(figure10_orset)
        evaluate_on_wsd(BaseRelation("R").select(eq("C", 7)), wsd, "P")
        before = wsd.rep()
        result = wsd.restrict_to_relations(["P"])
        # t2 has C=0 in every world, so it is invalid in P.
        removed = remove_invalid_tuples(result)
        assert ("P", 2) in removed
        after_worlds = result.rep()
        projected_before = before.map(
            lambda db: type(db)([db.relation("P")])
        )
        assert after_worlds.same_distribution(projected_before)


class TestWSDT:
    def test_from_wsd_moves_certain_data_to_templates(self, census_forms):
        wsd = WSD.from_orset_relation(census_forms)
        wsdt = WSDT.from_wsd(wsd)
        assert wsdt.placeholder_count() == 4
        assert wsdt.component_count() == 4
        assert wsdt.template_size() == 2
        # Certain names are in the template.
        assert wsdt.templates["R"][1]["N"] == "Smith"
        assert wsdt.rep().same_distribution(wsd.rep())

    def test_roundtrip_wsd_wsdt(self, census_forms):
        wsd = WSD.from_orset_relation(census_forms)
        wsdt = WSDT.from_wsd(wsd)
        back = wsdt.to_wsd()
        assert back.rep().same_distribution(wsd.rep())

    def test_validation_rejects_uncovered_placeholder(self):
        schema = DatabaseSchema([RelationSchema("R", ("A",))])
        from repro.relational import PLACEHOLDER

        with pytest.raises(RepresentationError):
            WSDT(schema, {"R": {1: {"A": PLACEHOLDER}}}, [])

    def test_validation_rejects_component_on_certain_field(self):
        schema = DatabaseSchema([RelationSchema("R", ("A",))])
        with pytest.raises(RepresentationError):
            WSDT(schema, {"R": {1: {"A": 5}}}, [Component.uniform(field(1, "A"), [1, 2])])

    def test_template_relation_materialization(self, census_forms):
        wsdt = WSDT.from_wsd(WSD.from_orset_relation(census_forms))
        template = wsdt.template_relation("R")
        assert template.schema.attributes == ("TID", "S", "N", "M")
        assert len(template) == 2

    def test_statistics(self, census_forms):
        wsdt = WSDT.from_wsd(WSD.from_orset_relation(census_forms))
        assert wsdt.component_relation_size() == 2 + 2 + 2 + 4
        assert "WSDT" in repr(wsdt)
        assert "Template" in wsdt.to_text()


class TestPropertyBased:
    @given(orset_relations())
    @settings(max_examples=25, deadline=None)
    def test_orset_to_wsd_preserves_worlds(self, relation):
        wsd = WSD.from_orset_relation(relation)
        worlds = wsd.rep()
        assert worlds.same_worlds(relation.to_worldset(max_worlds=None))
        assert worlds.total_probability() == pytest.approx(1.0)

    @given(orset_relations())
    @settings(max_examples=25, deadline=None)
    def test_wsd_wsdt_roundtrip(self, relation):
        wsd = WSD.from_orset_relation(relation)
        wsdt = WSDT.from_wsd(wsd)
        assert wsdt.to_wsd().rep().same_distribution(wsd.rep())

    @given(orset_relations())
    @settings(max_examples=20, deadline=None)
    def test_normalize_preserves_rep(self, relation):
        worlds = relation.to_worldset(max_worlds=None)
        wsd = WSD.from_worldset(worlds)
        normalize_wsd(wsd)
        assert wsd.rep().same_distribution(worlds)
        for component in wsd.components:
            component.validate()
