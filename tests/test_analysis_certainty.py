"""The explain verdict of placeholder certainty.

* ``Statistics.certainty``: a node reading only relations of placeholder
  density 0 is ``certain``, one reading any relation of density above 0 is
  ``maybe``, anything else carries no verdict.
* ``Plan.explain()`` and ``explain_analyze`` annotate nodes with it when
  placeholder densities are known.
"""

from repro.core import UWSDT
from repro.core.algebra import BaseRelation
from repro.core.planner import Statistics, plan
from repro.relational import RelationSchema
from repro.relational.predicates import AttrConst
from repro.worlds import OrSet, OrSetRelation


class TestTheVerdict:
    STATISTICS = Statistics(placeholder_densities={"R": 0.0, "S": 0.25})

    def test_one_relation(self):
        assert self.STATISTICS.certainty(["R"]) == "certain"
        assert self.STATISTICS.certainty(["S"]) == "maybe"
        assert self.STATISTICS.certainty(["T"]) is None

    def test_several_relations(self):
        # An uncertain source decides; otherwise one unknown source leaves
        # the node without a verdict.
        assert self.STATISTICS.certainty(["R", "S"]) == "maybe"
        assert self.STATISTICS.certainty(["T", "S"]) == "maybe"
        assert self.STATISTICS.certainty(["R", "T"]) is None
        assert self.STATISTICS.certainty([]) is None

    def test_explain_marks_every_node(self):
        statistics = Statistics(
            row_counts={"R": 10, "S": 10},
            placeholder_densities={"R": 0.0, "S": 0.25},
            attributes={"R": ("A", "B"), "S": ("A", "B")},
        )
        explained = plan(BaseRelation("R").union(BaseRelation("S")), statistics).explain()
        assert "chosen tree:\n  ∪  [maybe]\n    R  [certain]\n    S  [maybe]\n" in explained

    def test_explain_leaves_unknown_unannotated(self):
        statistics = Statistics(placeholder_densities={"R": 0.0})
        assert "chosen tree:\n  T\n" in plan(BaseRelation("T"), statistics).explain()


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

    def test_explain_analyze_marks_every_physical_node(self):
        # The join reads an uncertain and a certain relation: the verdict of
        # each operator is that of the base relations beneath it.
        uncertain = OrSetRelation(RelationSchema("R", ("A", "B")))
        uncertain.insert((1, OrSet([1, 2])))
        uncertain.insert((2, 0))
        certain = OrSetRelation(RelationSchema("S", ("C", "D")))
        certain.insert((1, 5))
        certain.insert((2, 6))
        uwsdt = UWSDT.from_orset_relations([uncertain, certain])
        report = BaseRelation("R").join(BaseRelation("S"), "A", "C").explain_analyze(uwsdt)
        verdicts = {
            line.split("  [")[0].lstrip("├└─ "): line.rsplit(" | ", 1)[1].rstrip("]")
            for line in report.splitlines()
            if "  [" in line
        }
        assert verdicts == {"HashJoin(A = C)": "maybe", "Scan(R)": "maybe", "Scan(S)": "certain"}
