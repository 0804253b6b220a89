"""Query evaluation entry points on WSDs and UWSDTs.

Theorem 1 — ``Q̂`` on ``W`` represents ``{Q(A) | A ∈ rep(W)}`` — is checked
operator by operator and for composed queries by the possible-worlds
oracle (``tests/test_possible_worlds_oracle.py``), Figure 9 on the WSD and
the UWSDT engine alike.  Here: ``evaluate_on_uwsdt`` is the executor run
verbatim, ``evaluate_on_wsd`` names its relations as the executor does, a
WSD is not an engine, and the query AST's own helpers.
"""

from collections import Counter

import pytest

from repro.baselines import naive
from repro.core import UWSDT, WSD
from repro.core.algebra import (
    BaseRelation,
    evaluate_on_database,
    evaluate_on_uwsdt,
    evaluate_on_wsd,
)
from repro.obs.metrics import get_registry
from repro.relational import Database, QueryError, eq, gt
from repro.worlds import OrSet, OrSetRelation

from _fixtures import assert_same_result_distribution


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
    def test_unknown_node_raises(self):
        class Bogus(BaseRelation):
            pass

        bogus = Bogus("R")
        bogus.__class__ = type("Strange", (), {"children": lambda self: ()})
        with pytest.raises(Exception):
            evaluate_on_database(object(), Database([]))  # type: ignore[arg-type]

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
