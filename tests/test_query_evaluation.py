"""Query evaluation on WSDs and UWSDTs, checked against per-world evaluation.

The central correctness statement is Theorem 1: for every relational algebra
query ``Q`` and WSD ``W``, evaluating the rewritten query ``Q̂`` on ``W`` and
keeping only the result relation represents ``{Q(A) | A ∈ rep(W)}``.  These
tests verify it, operator by operator and for composed queries, against the
naive engine that evaluates ``Q`` in every world — for the Figure 9
specification on the WSD and for the UWSDT engine.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import naive
from repro.core import UWSDT, WSD
from repro.core.algebra import (
    BaseRelation,
    evaluate_on_database,
    evaluate_on_uwsdt,
    evaluate_on_wsd,
)
from repro.obs.metrics import get_registry
from repro.relational import And, Database, Or, QueryError, attr_eq, eq, gt, ne
from repro.worlds import OrSet, OrSetRelation

from _fixtures import (
    assert_same_result_distribution,
    orset_relations,
    result_distribution,
)


def check_query_on_both_engines(orset_relation, query, relation_name="P"):
    """Evaluate the query by Figure 9 on the WSD and on the UWSDT engine, and
    compare both with the naive engine."""
    wsd = WSD.from_orset_relation(orset_relation)
    reference = naive.evaluate_query(wsd.rep(), query, relation_name)

    wsd_copy = WSD.from_orset_relation(orset_relation)
    evaluate_on_wsd(query, wsd_copy, relation_name)
    assert_same_result_distribution(wsd_copy.rep(), reference, relation_name)

    uwsdt = UWSDT.from_orset_relation(orset_relation)
    evaluate_on_uwsdt(query, uwsdt, relation_name)
    uwsdt.validate()
    assert_same_result_distribution(uwsdt.rep(), reference, relation_name)


@pytest.fixture
def abc_orset():
    """Three tuples over (A, B, C) with a few uncertain fields."""
    return OrSetRelation.from_dicts(
        "R",
        ["A", "B", "C"],
        [
            {"A": 1, "B": OrSet([1, 2]), "C": 7},
            {"A": OrSet([4, 5]), "B": 3, "C": 0},
            {"A": 6, "B": 6, "C": OrSet([7, 0])},
        ],
    )


class TestOperatorsAgainstNaive:
    def test_selection_constant(self, abc_orset):
        check_query_on_both_engines(abc_orset, BaseRelation("R").select(eq("C", 7)))

    def test_selection_constant_no_match(self, abc_orset):
        check_query_on_both_engines(abc_orset, BaseRelation("R").select(eq("A", 99)))

    def test_selection_conjunction_and_disjunction(self, abc_orset):
        query = BaseRelation("R").select(And(gt("A", 1), Or(eq("C", 7), eq("B", 3))))
        check_query_on_both_engines(abc_orset, query)

    def test_selection_attribute_comparison(self, abc_orset):
        check_query_on_both_engines(abc_orset, BaseRelation("R").select(attr_eq("A", "B")))

    def test_selection_on_two_uncertain_fields_of_one_tuple(self):
        relation = OrSetRelation.from_dicts(
            "R",
            ["A", "B"],
            [{"A": OrSet([1, 2]), "B": OrSet([1, 2])}, {"A": 3, "B": 3}],
        )
        check_query_on_both_engines(relation, BaseRelation("R").select(attr_eq("A", "B")))

    def test_projection(self, abc_orset):
        check_query_on_both_engines(abc_orset, BaseRelation("R").project(["A", "B"]))

    def test_projection_after_selection_keeps_presence(self, abc_orset):
        query = BaseRelation("R").select(eq("C", 7)).project(["A"])
        check_query_on_both_engines(abc_orset, query)

    def test_projection_dropping_the_uncertain_attribute(self, abc_orset):
        query = BaseRelation("R").select(eq("B", 1)).project(["C"])
        check_query_on_both_engines(abc_orset, query)

    def test_rename(self, abc_orset):
        check_query_on_both_engines(abc_orset, BaseRelation("R").rename("A", "X"))

    def test_union(self, abc_orset):
        query = (
            BaseRelation("R").select(eq("C", 7)).union(BaseRelation("R").select(eq("B", 3)))
        )
        check_query_on_both_engines(abc_orset, query)

    def test_difference(self):
        relation = OrSetRelation.from_dicts(
            "R",
            ["A", "B"],
            [{"A": 1, "B": OrSet([1, 2])}, {"A": OrSet([1, 3]), "B": 2}],
        )
        query = BaseRelation("R").difference(BaseRelation("R").select(eq("B", 2)))
        check_query_on_both_engines(relation, query)

    def test_difference_certain_left_uncertain_right(self):
        relation = OrSetRelation.from_dicts(
            "R",
            ["A", "B"],
            [{"A": 1, "B": 2}, {"A": OrSet([1, 9]), "B": 2}],
        )
        query = BaseRelation("R").select(eq("A", 1)).difference(
            BaseRelation("R").select(gt("A", 5))
        )
        check_query_on_both_engines(relation, query)

    def test_product(self):
        left = OrSetRelation.from_dicts("R", ["A"], [{"A": OrSet([1, 2])}, {"A": 3}])
        wsd = WSD.from_orset_relation(left)
        # Add a second relation S by unioning another or-set relation into the same WSD.
        right = OrSetRelation.from_dicts("S", ["B"], [{"B": OrSet([7, 8])}])
        right_wsd = WSD.from_orset_relation(right)
        # Merge the two WSDs manually (disjoint relations are independent).
        combined = WSD(
            __import__("repro.relational.schema", fromlist=["DatabaseSchema"]).DatabaseSchema(
                list(wsd.schema) + list(right_wsd.schema)
            ),
            {**wsd.tuple_ids, **right_wsd.tuple_ids},
            wsd.components + right_wsd.components,
        )
        query = BaseRelation("R").product(BaseRelation("S"))
        reference = naive.evaluate_query(combined.rep(), query, "P")
        working = combined.copy()
        evaluate_on_wsd(query, working, "P")
        assert_same_result_distribution(working.rep(), reference, "P")

    def test_join(self):
        relation = OrSetRelation.from_dicts(
            "R",
            ["A", "B"],
            [{"A": 1, "B": OrSet([1, 2])}, {"A": 2, "B": 1}],
        )
        query = (
            BaseRelation("R")
            .rename("A", "A1")
            .rename("B", "B1")
            .join(BaseRelation("R").rename("A", "A2").rename("B", "B2"), "B1", "A2")
        )
        check_query_on_both_engines(relation, query)

    def test_composed_census_like_query(self, abc_orset):
        query = (
            BaseRelation("R")
            .select(Or(eq("C", 7), eq("C", 0)))
            .select(gt("A", 0))
            .project(["A", "C"])
        )
        check_query_on_both_engines(abc_orset, query)

    def test_unknown_node_raises(self):
        class Bogus(BaseRelation):
            pass

        bogus = Bogus("R")
        bogus.__class__ = type("Strange", (), {"children": lambda self: ()})
        with pytest.raises(Exception):
            evaluate_on_database(object(), Database([]))  # type: ignore[arg-type]


def operator_observations(kind):
    """``repro.exec.operator_seconds`` observations so far, per operator of one backend."""
    prefix = "repro.exec.operator_seconds{" + f'backend="{kind}",operator="'
    return Counter(
        {
            name[len(prefix) : -2]: histogram["count"]
            for name, histogram in get_registry().snapshot()["histograms"].items()
            if name.startswith(prefix)
        }
    )


class TestEvaluateOnIsTheExecutor:
    """``evaluate_on_uwsdt`` is a spelling of ``Query.run(optimize=False)``:
    same executor, same names, same worlds.  ``evaluate_on_wsd`` is the
    Figure 9 specification beside it: it executes no physical operator, yet
    names its relations as the executor does on the converted WSD."""

    ENGINES = [
        ("wsd", WSD.from_orset_relation, evaluate_on_wsd, UWSDT.from_wsd),
        ("uwsdt", UWSDT.from_orset_relation, evaluate_on_uwsdt, UWSDT.copy),
    ]

    @pytest.mark.parametrize("kind, build, evaluate, runner", ENGINES, ids=["wsd", "uwsdt"])
    def test_one_executed_physical_operator_per_node(self, abc_orset, kind, build, evaluate, runner):
        query = (
            BaseRelation("R")
            .select(gt("A", 0))
            .project(["A", "C"])
            .union(BaseRelation("R").project(["A", "C"]))
            .intersection(BaseRelation("R").project(["A", "C"]))
        )
        engine = build(abc_orset)
        twin = runner(engine)
        before = operator_observations("uwsdt")
        assert evaluate(query, engine, "P") == "P"
        executed = operator_observations("uwsdt") - before
        physical = query.physical_plan(twin, optimize=False, backend="row")
        operators = Counter(node.op_name for node in physical.operators())
        assert executed == (operators if kind == "uwsdt" else Counter())
        assert query.run(twin, "P", optimize=False) == "P"
        assert [rs.name for rs in engine.schema] == [rs.name for rs in twin.schema]
        assert_same_result_distribution(engine.rep(), twin.rep(), "P")

    @pytest.mark.parametrize("kind, build, evaluate, runner", ENGINES, ids=["wsd", "uwsdt"])
    def test_self_union_alias_and_reuse_of_an_extended_engine(
        self, abc_orset, kind, build, evaluate, runner
    ):
        # R ∪ R needs an alias of one operand (tuple ids derive from operand
        # names); a second evaluation restarts the intermediate counter on an
        # engine whose schema already holds the first one's ``__q`` names.
        query = BaseRelation("R").union(BaseRelation("R")).select(eq("C", 7))
        engine = build(abc_orset)
        worlds = engine.rep()
        twin = runner(engine)
        for name in ("P", "P2"):
            assert evaluate(query, engine, name) == name
            assert query.run(twin, name, optimize=False) == name
        names = [rs.name for rs in engine.schema]
        assert names == [rs.name for rs in twin.schema]
        assert len(names) == len(set(names)) == 7  # R, 2 × (alias, ∪, result)
        for name in ("P", "P2"):
            reference = naive.evaluate_query(worlds, query, name)
            assert_same_result_distribution(engine.rep(), reference, name)
            assert_same_result_distribution(twin.rep(), reference, name)

    def test_a_wsd_is_not_an_engine(self, abc_orset):
        wsd = WSD.from_orset_relation(abc_orset)
        with pytest.raises(QueryError, match=r"UWSDT\.from_wsd"):
            BaseRelation("R").run(wsd, "P")
        assert [rs.name for rs in wsd.schema] == ["R"]


class TestQueryAst:
    def test_base_relations_collected(self):
        query = (
            BaseRelation("R").select(eq("A", 1)).join(BaseRelation("S"), "A", "B").union(
                BaseRelation("R").project(["A"]).product(BaseRelation("T"))
            )
        )
        assert query.base_relations() == ["R", "S", "T"]

    def test_repr_is_readable(self):
        query = BaseRelation("R").select(eq("A", 1)).project(["A"])
        text = repr(query)
        assert "σ" in text and "π" in text and "R" in text

    def test_database_evaluation_matches_manual(self, small_relation):
        database = Database([small_relation])
        query = BaseRelation("Emp").select(eq("DEPT", "eng")).project(["NAME"])
        result = evaluate_on_database(query, database, "names")
        assert result.row_set() == {("ann",), ("bob",)}
        assert result.schema.name == "names"


class TestPropertyBasedQueries:
    @given(orset_relations(max_rows=2, max_attrs=2), st.integers(min_value=0, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_random_selection_matches_naive(self, relation, constant):
        attribute = relation.schema.attributes[0]
        query = BaseRelation("R").select(eq(attribute, constant))
        check_query_on_both_engines(relation, query)

    @given(orset_relations(max_rows=2, max_attrs=3))
    @settings(max_examples=20, deadline=None)
    def test_random_projection_matches_naive(self, relation):
        attributes = list(relation.schema.attributes[:1])
        query = BaseRelation("R").project(attributes)
        check_query_on_both_engines(relation, query)

    @given(orset_relations(max_rows=2, max_attrs=2))
    @settings(max_examples=15, deadline=None)
    def test_random_select_project_pipeline(self, relation):
        first_attribute = relation.schema.attributes[0]
        last_attribute = relation.schema.attributes[-1]
        query = (
            BaseRelation("R").select(gt(first_attribute, 0)).project([last_attribute])
        )
        check_query_on_both_engines(relation, query)
