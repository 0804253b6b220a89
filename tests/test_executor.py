"""The physical execution layer: lowering, backends, metrics.

Covers the PR 5 tentpole:

* logical plans lower to per-engine physical operator trees
  (``Scan``/``IndexScan``/``Filter``/``HashJoin``/``IndexNestedLoopJoin``/…),
* the hash-join vs index-nested-loop-join choice is a cost-model decision —
  a small-outer/large-inner join *provably* selects the index join
  (asserted via ``PhysicalPlan.explain()``), a balanced join keeps the hash
  join, and both algorithms produce identical results on every engine,
* execution records per-operator metrics (rows in/out, wall time,
  estimated-vs-actual cardinality) exposed as ``ExecutionMetrics`` on the
  query result and folded into the statistics catalog,
* every backend prices physical choices with the wrapped representation
  engine's cost model, so verbatim and planned trees lower to the same join
  algorithm on row, columnar and sharded alike,
* ``Query.intersection`` evaluates natively on a Database and through its
  ``A − (A − B)`` expansion on a UWSDT and in the Figure 9 specification.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines import naive
from repro.core import UWSDT, WSD
from repro.core.algebra import BaseRelation, Query, evaluate_on_database, evaluate_on_wsd
from repro.core.exec import DatabaseBackend, ExecutionResult, backend_for, lower
from repro.core.planner import COST_MODELS, Statistics
from repro.core.planner.cost import join_step
from repro.relational import Database, QueryError, Relation, RelationSchema, algebra
from repro.relational.indexes import hash_index
from repro.relational.predicates import (
    And,
    AttrAttr,
    AttrConst,
    Not,
    Or,
    gt,
    index_equalities,
    is_index_equality,
)
from repro.worlds import OrSet, OrSetRelation

from _fixtures import assert_same_result_distribution, orsets, uwsdt_distribution


def eq(attribute, value):
    return AttrConst(attribute, "=", value)


def small_large_database(small=6, large=600):
    """R is tiny, S is big: the canonical index-nested-loop-join shape."""
    R = Relation(RelationSchema("R", ("A", "B")), [(i % 3, i) for i in range(small)])
    S = Relation(RelationSchema("S", ("C", "D")), [(i % small, i * 2) for i in range(large)])
    return Database([R, S])


def balanced_database(rows=200):
    R = Relation(RelationSchema("R", ("A", "B")), [(i % 3, i) for i in range(rows)])
    S = Relation(RelationSchema("S", ("C", "D")), [(i % 7, i * 2) for i in range(rows)])
    return Database([R, S])


ORACLE_RELATIONS = [
    OrSetRelation.from_dicts(
        "R",
        ["A0", "A1"],
        [{"A0": 1, "A1": OrSet([2, 3])}, {"A0": 0, "A1": 4}, {"A0": 1, "A1": 2}],
    ),
    OrSetRelation.from_dicts(
        "S",
        ["B0", "B1"],
        [{"B0": 2, "B1": OrSet([0, 1])}, {"B0": 4, "B1": 7}],
    ),
]


class TestLowering:
    def test_database_plan_uses_index_scan_for_pushed_equality(self):
        database = small_large_database()
        query = BaseRelation("R").select(eq("A", 1))
        physical = query.physical_plan(database)
        assert physical.uses("IndexScan")
        assert "IndexScan(R" in physical.explain()

    def test_a_wsd_is_lowered_as_its_uwsdt(self):
        wsd = WSD.from_orset_relations(ORACLE_RELATIONS)
        query = BaseRelation("R").select(eq("A0", 1))
        with pytest.raises(QueryError, match=r"UWSDT\.from_wsd"):
            query.physical_plan(wsd)
        assert query.physical_plan(UWSDT.from_wsd(wsd)).uses("IndexScan")

    def test_unplanned_lowering_executes_verbatim_tree(self):
        database = small_large_database()
        query = BaseRelation("R").product(BaseRelation("S")).select(AttrAttr("B", "=", "C"))
        physical = query.physical_plan(database, optimize=False)
        assert physical.uses("Product")
        assert not physical.uses("HashJoin")

    def test_intersection_native_on_database_expanded_on_uwsdt(self):
        database = small_large_database()
        query = BaseRelation("R").intersection(BaseRelation("R").select(eq("A", 1)))
        assert query.physical_plan(database).uses("Intersection")

        uwsdt = UWSDT.from_orset_relations(ORACLE_RELATIONS)
        query = BaseRelation("R").intersection(BaseRelation("R").select(eq("A0", 1)))
        physical = query.physical_plan(uwsdt)
        assert not physical.uses("Intersection")
        assert physical.uses("Difference")

    def test_unknown_node_error_renders_query_text(self):
        class Mystery(Query):
            def children(self):
                return ()

            def node_label(self):
                return "mystery"

        database = small_large_database()
        with pytest.raises(QueryError) as excinfo:
            Mystery().run(database, optimize=False)
        assert "mystery" in str(excinfo.value)

    def test_backend_for_rejects_unknown_engines(self):
        with pytest.raises(QueryError):
            backend_for(object())
        with pytest.raises(QueryError):
            BaseRelation("R").run(42)

    def test_one_cost_model_per_query_engine(self):
        assert set(COST_MODELS) == {"generic", "database", "uwsdt"}
        engines = [
            small_large_database(),
            UWSDT.from_orset_relations(ORACLE_RELATIONS),
        ]
        for engine in engines:
            kind = backend_for(engine).kind
            assert Statistics(engine=kind).cost_model() is COST_MODELS[kind]


class TestJoinAlgorithmChoice:
    def test_small_outer_large_inner_selects_index_nested_loop(self):
        """The acceptance case: the cost model provably prefers the index
        join when the outer side is small and the inner is a big base scan."""
        database = small_large_database()
        query = BaseRelation("R").select(eq("A", 1)).join(BaseRelation("S"), "B", "C")
        physical = query.physical_plan(database)
        assert physical.uses("IndexNestedLoopJoin")
        assert not physical.uses("HashJoin")
        assert "IndexNestedLoopJoin" in physical.explain()

    def test_balanced_join_keeps_hash_join(self):
        database = balanced_database()
        query = BaseRelation("R").join(BaseRelation("S"), "A", "C")
        physical = query.physical_plan(database)
        assert physical.uses("HashJoin")
        assert not physical.uses("IndexNestedLoopJoin")

    def test_uwsdt_small_outer_selects_index_nested_loop(self):
        small = OrSetRelation.from_dicts(
            "R", ["A0", "A1"], [{"A0": 1, "A1": OrSet([2, 3])}, {"A0": 0, "A1": 4}]
        )
        large = OrSetRelation.from_dicts(
            "S", ["B0", "B1"], [{"B0": i % 9, "B1": i} for i in range(300)]
        )
        uwsdt = UWSDT.from_orset_relations([small, large])
        query = BaseRelation("R").join(BaseRelation("S"), "A1", "B0")
        physical = query.physical_plan(uwsdt)
        assert "IndexNestedLoopJoin" in physical.explain()

    @pytest.mark.parametrize("force", ["hash", "index-nested-loop"])
    def test_both_algorithms_agree_with_brute_force(self, force):
        """Placeholders on either join side: both algorithms must produce
        the same world distribution as the naive engine."""
        query = BaseRelation("R").join(BaseRelation("S"), "A1", "B0")
        base = WSD.from_orset_relations(ORACLE_RELATIONS)
        reference = naive.evaluate_query(base.rep(), query, "P")
        uwsdt = UWSDT.from_orset_relations(ORACLE_RELATIONS)
        result = query.run(uwsdt, "P", collect_metrics=True, force_join=force)
        uwsdt.validate()
        assert_same_result_distribution(uwsdt.rep(), reference, "P")
        operators = [record.operator for record in result.metrics.records]
        if force == "index-nested-loop":
            assert "IndexNestedLoopJoin" in operators
        else:
            assert "HashJoin" in operators

    def test_database_index_join_matches_hash_join(self):
        database = small_large_database()
        query = BaseRelation("R").select(eq("A", 1)).join(BaseRelation("S"), "B", "C")
        via_index = query.run(database, "idx", force_join="index-nested-loop")
        via_hash = query.run(database, "hash", force_join="hash")
        assert via_index.row_set() == via_hash.row_set()
        assert via_index.schema.attributes == via_hash.schema.attributes

    def test_index_pool_is_shared_across_runs(self):
        database = small_large_database()
        query = BaseRelation("R").select(eq("A", 1)).join(BaseRelation("S"), "B", "C")
        query.run(database, "first", force_join="index-nested-loop")
        built = {name: dict(database.relation(name)._derived or {}) for name in ("R", "S")}
        assert built["S"]  # the index nested-loop join's index over S
        query.run(database, "second", force_join="index-nested-loop")
        # The second run probed the indexes kept on the relations.
        for name, derived in built.items():
            assert dict(database.relation(name)._derived or {}) == derived

    @pytest.mark.parametrize("backend", ["row", "columnar", "sharded"])
    @pytest.mark.parametrize("optimize", [False, True])
    def test_every_backend_lowers_to_the_same_join_algorithm(self, backend, optimize):
        """The columnar and sharded backends wrap the Database's row backend
        and price with its model: probing the outer side (833 units on the
        verbatim tree's default statistics) beats build + probe (1 333)
        whichever backend executes, planned or not."""
        database = small_large_database(small=50, large=200)
        query = BaseRelation("R").select(gt("A", 0)).join(BaseRelation("S"), "B", "C")
        physical = query.physical_plan(
            database, optimize=optimize, backend=backend, workers=2
        )
        assert physical.uses("IndexNestedLoopJoin")
        assert not physical.uses("HashJoin")


    @pytest.mark.parametrize(
        "build, predicate, algorithm",
        [
            (small_large_database, eq("A", 1), "index-nested-loop"),
            (balanced_database, gt("A", -1), "hash"),
        ],
    )
    def test_lowering_builds_the_algorithm_the_estimate_names(self, build, predicate, algorithm):
        """One hash-vs-index comparison: the estimator's.  The lowered join is
        the algorithm ``Plan.estimates`` records for the node, ``force_join``
        overrides it, and ``cost_after`` is the cost of the plan that runs —
        an index nested-loop plan is priced below hash pricing of its tree."""
        database = build()
        query = BaseRelation("R").select(predicate).join(BaseRelation("S"), "B", "C")
        built = query.plan(database)
        join = built.estimates[built.chosen]
        assert join.algorithm == algorithm
        operator = {"hash": "HashJoin", "index-nested-loop": "IndexNestedLoopJoin"}
        lowered = query.physical_plan(database, plan=built)
        assert type(lowered.root).__name__ == operator[algorithm]
        for force, name in operator.items():
            forced = query.physical_plan(database, plan=built, force_join=force)
            assert type(forced.root).__name__ == name

        left, right = (built.estimates[child] for child in built.chosen.children())
        _, hash_cost = join_step(
            left.rows,
            right.rows,
            join.rows / (left.rows * right.rows),
            join.arity,
            built.statistics.cost_model(),
        )
        hash_priced = left.cost + right.cost + hash_cost
        if algorithm == "index-nested-loop":
            assert built.cost_after.cost < hash_priced
        else:
            assert built.cost_after.cost == pytest.approx(hash_priced)


class TestExecutionMetrics:
    def test_metrics_report_rows_time_and_estimates(self):
        database = small_large_database()
        query = BaseRelation("R").select(eq("A", 1)).join(BaseRelation("S"), "B", "C")
        result = query.run(database, "out", collect_metrics=True)
        assert isinstance(result, ExecutionResult)
        reference = query.run(database, "out2")
        assert result.value.row_set() == reference.row_set()

        metrics = result.metrics
        assert metrics.engine == "database"
        assert metrics.records
        final = metrics.records[-1]
        assert final.rows_out == len(result.value)
        assert final.seconds >= 0.0
        assert final.estimated_rows is not None
        assert final.cardinality_error is not None and final.cardinality_error >= 1.0
        assert "actual" in result.physical.explain()
        assert "execution metrics" in metrics.summary()

    def test_uwsdt_metrics_and_result_name(self):
        uwsdt = UWSDT.from_orset_relations(ORACLE_RELATIONS)
        query = BaseRelation("R").select(eq("A0", 1))
        result = query.run(uwsdt, "P", collect_metrics=True)
        assert result.value == "P"
        assert uwsdt.schema.has_relation("P")
        assert result.metrics.engine == "uwsdt"
        assert result.metrics.records[-1].rows_out == uwsdt.template_size("P")


class TestIntersection:
    def test_intersection_matches_brute_force_on_all_engines(self):
        query = (
            BaseRelation("R")
            .select(eq("A0", 1))
            .intersection(BaseRelation("R").select(AttrAttr("A0", "<", "A1")))
        )
        base = WSD.from_orset_relations(ORACLE_RELATIONS)
        reference = naive.evaluate_query(base.rep(), query, "P")

        uwsdt = UWSDT.from_orset_relations(ORACLE_RELATIONS)
        query.run(uwsdt, "P")
        uwsdt.validate()
        assert_same_result_distribution(uwsdt.rep(), reference, "P")

        wsd = WSD.from_orset_relations(ORACLE_RELATIONS)
        evaluate_on_wsd(query, wsd, "P")
        assert_same_result_distribution(wsd.rep(), reference, "P")

        certain_rows = [
            row
            for relation in ORACLE_RELATIONS
            for row in ([] if relation.schema.name != "R" else relation.rows)
            if not any(isinstance(value, OrSet) for value in row)
        ]
        database = Database(
            [
                Relation(RelationSchema("R", ("A0", "A1")), certain_rows),
                Relation(RelationSchema("S", ("B0", "B1")), []),
            ]
        )
        planned = query.run(database, "planned")
        classical = evaluate_on_database(query, database, "classical")
        assert planned.row_set() == classical.row_set()

    def test_selection_pushes_into_both_intersection_sides(self):
        query = BaseRelation("R").intersection(BaseRelation("R")).select(eq("A0", 1))
        statistics = Statistics(
            {"R": 100}, attributes={"R": ("A0", "A1")}, engine="database"
        )
        built = query.plan(statistics=statistics)
        rendered = repr(built.chosen)
        assert rendered.count("σ") == 2  # one pushed copy per side

    def test_intersection_repr_and_text(self):
        query = BaseRelation("R").intersection(BaseRelation("S"))
        assert "∩" in repr(query)
        assert "∩" in query.to_text()


class TestQueryText:
    def test_to_text_is_indented_and_symbolic(self):
        query = (
            BaseRelation("R")
            .select(eq("A0", 1))
            .join(BaseRelation("S"), "A1", "B0")
            .project(["A0", "B1"])
        )
        text = query.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("π[")
        assert any(line.lstrip().startswith("σ[") for line in lines)
        assert any("⋈" in line for line in lines)
        assert any(line.startswith("      ") for line in lines)  # depth ≥ 3

    def test_plan_explain_includes_chosen_tree(self):
        query = BaseRelation("R").select(eq("A0", 1))
        statistics = Statistics({"R": 10}, attributes={"R": ("A0", "A1")})
        explained = query.plan(statistics=statistics).explain()
        assert "chosen tree:" in explained
        assert "σ[" in explained


# --------------------------------------------------------------------------- #
# A conjunction with an equality reads one index bucket
# --------------------------------------------------------------------------- #

NAN = float("nan")
#: Values that hash and compare equal across types (1, 1.0, True), are not
#: equal to themselves (nan), or do not order against each other (str).
MIXED_VALUES = st.one_of(
    st.integers(min_value=-1, max_value=2),
    st.sampled_from([0.0, -0.0, 1.0, 1.5, NAN]),
    st.booleans(),
    st.sampled_from(["", "a", "1"]),
)


@st.composite
def residual_parts(draw, attributes):
    """``A θ c``, ``A θ B``, or the negation or disjunction of two such."""
    atom = st.one_of(
        st.builds(
            AttrConst,
            st.sampled_from(attributes),
            st.sampled_from(["=", "!=", "<", ">="]),
            MIXED_VALUES,
        ),
        st.builds(
            AttrAttr,
            st.sampled_from(attributes),
            st.sampled_from(["=", "<"]),
            st.sampled_from(attributes),
        ),
    )
    kind = draw(st.sampled_from(["atom", "atom", "not", "or"]))
    if kind == "atom":
        return draw(atom)
    if kind == "not":
        return Not(draw(atom))
    return Or(draw(atom), draw(atom))


def evaluated(relation, predicate):
    """σ by the specification: ``Predicate.evaluate`` on every row."""
    return {row for row in relation if predicate.evaluate(relation.schema, row)}


class TestIndexScanWithResidual:
    """σ[A = c ∧ rest](R) reads the bucket under ``c`` of A's hash index and
    judges the whole predicate over that bucket only."""

    def test_a_conjunction_lowers_to_an_index_scan_naming_its_key(self):
        database = small_large_database()
        predicate = And(gt("B", 1), eq("A", 1))
        (scan,) = BaseRelation("R").select(predicate).physical_plan(database).root.walk()
        assert scan.label() == "IndexScan(R, key (A = 1), ((B > 1) AND (A = 1)))"
        (bare,) = BaseRelation("R").select(eq("A", 1)).physical_plan(database).root.walk()
        assert bare.label() == "IndexScan(R, (A = 1))"
        assert BaseRelation("R").select(predicate).run(database).row_set() == {(1, 4)}

    def test_the_key_is_the_equality_with_the_fewest_sampled_rows(self):
        database = small_large_database()  # A = 1 on two of R's six rows, B = 4 on one
        sampled = Statistics.from_engine(database)

        def key(predicate, statistics=sampled):
            query = BaseRelation("R").select(predicate)
            return lower(query, backend_for(database), statistics).root.key

        assert key(And(eq("A", 1), eq("B", 4))) == eq("B", 4)
        assert key(And(eq("B", 4), eq("A", 1))) == eq("B", 4)
        assert key(And(eq("A", 1), eq("A", 2))) == eq("A", 1)  # a tie: the first
        assert key(And(eq("A", 1), eq("B", 99))) == eq("B", 99)  # no sampled row
        # Without a sample, the first equality in predicate order.
        assert key(And(eq("A", 1), eq("B", 4)), Statistics(engine="database")) == eq("A", 1)

    def test_a_nan_constant_is_no_index_equality(self):
        relation = Relation(RelationSchema("R", ("A", "B")), [(NAN, 1), (1.0, 2)])
        assert not is_index_equality(eq("A", NAN))
        assert index_equalities(And(eq("A", NAN), eq("B", 2))) == (eq("B", 2),)
        index = hash_index(relation, ("A",))
        assert algebra.select(relation, eq("A", NAN), index=index).row_set() == set()

    @pytest.mark.parametrize(
        "predicate",
        [eq("A", NAN), And(eq("A", NAN), gt("B", 0)), And(eq("B", 2), eq("A", NAN))],
        ids=["A = nan", "A = nan and B > 0", "B = 2 and A = nan"],
    )
    def test_a_nan_equality_answers_as_evaluate_does(self, predicate):
        """A dict probe finds the very ``nan`` object; ``nan == nan`` is False."""
        query = BaseRelation("R").select(predicate)
        relation = Relation(
            RelationSchema("R", ("A", "B")), [(NAN, 1), (NAN, 2), (1.0, 2), (2.5, 3)]
        )
        database = Database([relation])
        assert query.run(database).row_set() == evaluated(relation, predicate) == set()

        uwsdt = UWSDT.from_orset_relation(
            orsets("R", "AB", (NAN, 2), (NAN, OrSet([1, 2])), (OrSet([2.5, NAN]), 2), (1.0, 3))
        )
        schema = uwsdt.schema.relation("R")
        expected = {}
        for (rows,), probability in uwsdt_distribution(uwsdt, ("R",)).items():
            kept = frozenset(row for row in rows if predicate.evaluate(schema, row))
            expected[(kept,)] = expected.get((kept,), 0.0) + probability
        query.run(uwsdt, "P")
        uwsdt.validate()
        assert uwsdt_distribution(uwsdt, ("P",)) == pytest.approx(expected)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_the_bucket_and_its_residual_equal_a_scan(self, data):
        arity = data.draw(st.integers(min_value=1, max_value=3))
        attributes = tuple(f"A{i}" for i in range(arity))
        rows = data.draw(st.lists(st.tuples(*[MIXED_VALUES] * arity), max_size=12))
        relation = Relation(RelationSchema("R", attributes), rows)
        key = eq(data.draw(st.sampled_from(attributes)), data.draw(MIXED_VALUES))
        assume(is_index_equality(key))
        parts = data.draw(st.lists(residual_parts(attributes), max_size=3))
        parts.insert(data.draw(st.integers(min_value=0, max_value=len(parts))), key)
        predicate = And(*parts) if len(parts) > 1 else key

        expected = algebra.select(relation, predicate)
        assert evaluated(relation, predicate) == expected.row_set()
        database = Database([relation])
        probed = DatabaseBackend(database).index_scan("R", predicate, key, None)
        assert probed.rows == expected.rows  # same rows, same order, same representatives
        # Lowered without statistics (the planner's type analysis refuses a
        # column mixing str and int): the first equality is the key.
        backend = backend_for(database)
        physical = lower(BaseRelation("R").select(predicate), backend)
        assert physical.root.key == index_equalities(predicate)[0]
        assert physical.execute(backend).rows == expected.rows
