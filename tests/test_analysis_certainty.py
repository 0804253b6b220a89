"""The certainty dataflow: facts, rendering, columnar eligibility, fallback.

* Lattice and context behavior: densities → certain/maybe, probe fallback,
  unknown for unseen relations, memoized probes.
* Per-attribute propagation through σ/π/δ/⋈/∪/−.
* ``Plan.explain()`` and ``explain_analyze`` annotate nodes with their
  verdicts when placeholder densities are known.
* Columnar eligibility is the static analysis' call: certain subtrees get
  boundaries, uncertain ones stay row-at-a-time (already covered by
  test_columnar; here we pin the analysis function itself), and the runtime
  materialize fallback counts into ``repro.columnar.materialize_fallbacks``
  when a cached plan goes stale under an engine mutation.
"""

import pytest

from repro.analysis.certainty import (
    CERTAIN,
    MAYBE,
    UNKNOWN,
    CertaintyContext,
    attribute_facts,
    lub,
    node_certainty,
    physical_certainty,
    render_with_certainty,
    subtree_certain,
)
from repro.analysis.schema import SchemaContext
from repro.core import UWSDT
from repro.core.algebra import BaseRelation
from repro.core.exec import ColumnarBackend
from repro.core.planner import Statistics, plan
from repro.obs.metrics import get_registry
from repro.relational import RelationSchema
from repro.relational.predicates import AttrAttr, AttrConst
from repro.worlds import OrSet, OrSetRelation


@pytest.fixture
def context() -> CertaintyContext:
    return CertaintyContext(densities={"R": 0.0, "S": 0.25})


class TestLatticeAndContext:
    def test_lub_ordering(self):
        assert lub(CERTAIN, CERTAIN) == CERTAIN
        assert lub(CERTAIN, MAYBE) == MAYBE
        assert lub(UNKNOWN, CERTAIN) == UNKNOWN
        assert lub(UNKNOWN, MAYBE) == MAYBE

    def test_density_facts(self, context):
        assert context.relation("R") == CERTAIN
        assert context.relation("S") == MAYBE
        assert context.relation("T") == UNKNOWN

    def test_probe_fallback_memoized(self):
        calls = []

        def probe(name):
            calls.append(name)
            return name == "R"

        context = CertaintyContext(probe=probe)
        assert context.relation("R") == CERTAIN
        assert context.relation("R") == CERTAIN
        assert context.relation("S") == MAYBE
        assert calls == ["R", "S"]

    def test_relations_combined(self, context):
        assert context.relations(["R"]) == CERTAIN
        assert context.relations(["R", "S"]) == MAYBE
        assert context.relations([]) == UNKNOWN

    def test_subtree_certain(self, context):
        assert subtree_certain(("R",), context)
        assert not subtree_certain(("R", "S"), context)
        # No provenance: the analysis cannot vouch, so not eligible.
        assert not subtree_certain((), context)

    def test_physical_certainty(self, context):
        assert physical_certainty(("R",), context) == CERTAIN
        assert physical_certainty((), context) == UNKNOWN


class TestDataflow:
    def test_facts_flow_through_operators(self, context):
        schema_context = SchemaContext(
            attributes={"R": ("A", "B"), "S": ("A", "B")}
        )
        query = (
            BaseRelation("R")
            .select(AttrConst("A", "=", 1))
            .rename("B", "B2")
            .union(BaseRelation("S").rename("B", "B2"))
        )
        facts = attribute_facts(query, context, schema_context)
        # Union takes the pointwise lub: certain R ⊔ maybe S = maybe.
        assert facts == (("A", MAYBE), ("B2", MAYBE))

    def test_join_concatenates_facts(self, context):
        schema_context = SchemaContext(
            attributes={"R": ("A", "B"), "S": ("C", "D")}
        )
        query = BaseRelation("R").join(BaseRelation("S"), "A", "C")
        facts = attribute_facts(query, context, schema_context)
        assert facts == (
            ("A", CERTAIN),
            ("B", CERTAIN),
            ("C", MAYBE),
            ("D", MAYBE),
        )

    def test_difference_keeps_left_facts(self, context):
        schema_context = SchemaContext(attributes={"R": ("A",), "S": ("A",)})
        query = BaseRelation("R").difference(BaseRelation("S"))
        assert attribute_facts(query, context, schema_context) == (("A", CERTAIN),)

    def test_node_certainty_is_subtree_lub(self, context):
        query = BaseRelation("R").product(BaseRelation("S").rename("A", "X"))
        facts = node_certainty(query, context)
        assert facts[query] == MAYBE
        assert facts[query.left] == CERTAIN

    def test_render_marks_certain_and_maybe(self, context):
        query = BaseRelation("R").union(BaseRelation("S"))
        rendered = render_with_certainty(query, context)
        assert rendered == "∪  [maybe]\n  R  [certain]\n  S  [maybe]"

    def test_render_leaves_unknown_unannotated(self):
        rendered = render_with_certainty(
            BaseRelation("T"), CertaintyContext(densities={})
        )
        assert rendered == "T"


class TestExplainAnnotations:
    def test_plan_explain_annotates_certainty(self):
        statistics = Statistics(
            row_counts={"R": 10},
            placeholder_densities={"R": 0.0},
            attributes={"R": ("A", "B")},
        )
        result = plan(BaseRelation("R").select(AttrConst("A", "=", 1)), statistics)
        explained = result.explain()
        assert "[certain]" in explained

    def test_plan_explain_marks_uncertain_sources(self):
        statistics = Statistics(
            row_counts={"R": 10},
            placeholder_densities={"R": 0.4},
            attributes={"R": ("A", "B")},
        )
        result = plan(BaseRelation("R"), statistics)
        assert "[maybe]" in result.explain()

    def test_explain_analyze_carries_certainty(self):
        relation = OrSetRelation(RelationSchema("R", ("A0", "A1", "A2")))
        relation.insert((1, OrSet([1, 2]), 3))
        relation.insert((2, 0, 1))
        uwsdt = UWSDT.from_orset_relation(relation)
        report = BaseRelation("R").select(AttrConst("A0", "=", 1)).explain_analyze(uwsdt)
        assert "maybe" in report

    def test_explain_analyze_certain_database_unannotated_or_certain(self):
        # A Database engine reports density 0.0 everywhere: nodes tag certain.
        from repro.relational import Database, Relation

        database = Database(
            [Relation(RelationSchema("R", ("A", "B")), [(1, 2), (3, 4)])]
        )
        report = BaseRelation("R").select(AttrConst("A", "=", 1)).explain_analyze(database)
        assert "certain" in report


class TestColumnarEligibilityAndFallback:
    def _uwsdt(self):
        relation = OrSetRelation(RelationSchema("R", ("A0", "A1", "A2")))
        relation.insert((1, 2, 3))
        relation.insert((2, 0, 1))
        return UWSDT.from_orset_relation(relation)

    def test_certain_relation_gets_boundaries(self):
        # An attribute-attribute filter cannot collapse into an IndexScan,
        # so the certain subtree lowers through the columnar kernels.
        uwsdt = self._uwsdt()
        physical = (
            BaseRelation("R")
            .select(AttrAttr("A0", "<", "A2"))
            .physical_plan(uwsdt, backend="columnar")
        )
        assert physical.uses("Materialize") and physical.uses("Dematerialize")

    def test_stale_plan_fallback_is_counted(self):
        uwsdt = self._uwsdt()
        backend = ColumnarBackend(uwsdt)
        query = BaseRelation("R").select(AttrAttr("A0", "<", "A2"))
        physical = query.physical_plan(uwsdt, backend=backend)
        assert physical.uses("Materialize")
        # The engine mutates after lowering: R now carries a placeholder
        # field wired to a component, so ``relation_placeholder_count`` > 0.
        from repro.core import Component, FieldRef
        from repro.relational.values import PLACEHOLDER

        uwsdt.add_template_tuple("R", "t-new", (9, PLACEHOLDER, 9))
        uwsdt.new_component(Component((FieldRef("R", "t-new", "A1"),), [(7,), (8,)]))
        counter = get_registry().counter("repro.columnar.materialize_fallbacks")
        before = counter.value
        query.run(uwsdt, "P", physical=physical, backend=backend)
        assert counter.value == before + 1
        uwsdt.validate()
