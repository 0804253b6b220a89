"""Unit tests for the logical planner: rules, cost model, Plan, Query.run."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UWSDT, WSD
from repro.core.algebra import (
    BaseRelation,
    Difference,
    Join,
    Product,
    Project,
    Rename,
    Select,
    Union,
    evaluate_on_wsd,
)
from repro.core.planner import (
    CostEstimate,
    FIXED_SELECTIVITY_FLOOR,
    Plan,
    RelationSample,
    RewriteContext,
    Statistics,
    estimate,
    floored_predicate_selectivity,
    join_selectivity,
    plan,
    predicate_selectivity,
    rewrite,
)
from repro.relational import (
    And,
    Database,
    HashIndex,
    IndexPool,
    Not,
    Or,
    QueryError,
    Relation,
    RelationSchema,
    TruePredicate,
    attr_eq,
    eq,
    gt,
)
from repro.relational.indexes import hash_index
from repro.relational.values import BOTTOM, PLACEHOLDER, is_placeholder
from repro.worlds import OrSet, OrSetRelation

STATS = Statistics(
    row_counts={"R": 1000, "S": 100},
    attributes={"R": ("A", "B", "C"), "S": ("D", "E")},
)


def rewritten(query):
    return plan(query, STATS).optimized


class TestRules:
    def test_join_fusion(self):
        query = BaseRelation("R").product(BaseRelation("S")).select(attr_eq("B", "D"))
        result = rewritten(query)
        assert isinstance(result, Join)
        assert (result.left_attr, result.right_attr) == ("B", "D")

    def test_join_fusion_swapped_sides(self):
        query = BaseRelation("R").product(BaseRelation("S")).select(attr_eq("D", "B"))
        result = rewritten(query)
        assert isinstance(result, Join)
        assert (result.left_attr, result.right_attr) == ("B", "D")

    def test_selection_pushdown_into_product(self):
        query = BaseRelation("R").product(BaseRelation("S")).select(
            And(eq("A", 1), gt("E", 5))
        )
        result = rewritten(query)
        assert isinstance(result, Product)
        assert isinstance(result.left, Select) and result.left.predicate.attributes() == ("A",)
        assert isinstance(result.right, Select) and result.right.predicate.attributes() == ("E",)

    def test_selection_pushdown_below_union(self):
        left = BaseRelation("R")
        right = BaseRelation("R")
        query = left.union(right).select(eq("A", 1))
        result = rewritten(query)
        from repro.core.algebra import Union

        assert isinstance(result, Union)
        assert isinstance(result.left, Select) and isinstance(result.right, Select)

    def test_selection_pushdown_below_difference_left_only(self):
        query = BaseRelation("R").difference(BaseRelation("R")).select(eq("A", 1))
        result = rewritten(query)
        from repro.core.algebra import Difference

        assert isinstance(result, Difference)
        assert isinstance(result.left, Select)
        assert isinstance(result.right, BaseRelation)

    def test_selection_pushdown_through_rename_substitutes(self):
        query = BaseRelation("R").rename("A", "X").select(eq("X", 1))
        result = rewritten(query)
        assert isinstance(result, Rename)
        assert isinstance(result.child, Select)
        assert result.child.predicate.attributes() == ("A",)

    def test_identity_rename_eliminated(self):
        query = BaseRelation("R").rename("A", "A").select(eq("A", 1))
        result = rewritten(query)
        assert isinstance(result, Select) and isinstance(result.child, BaseRelation)

    def test_inverse_renames_cancel(self):
        query = BaseRelation("R").rename("A", "X").rename("X", "A")
        assert isinstance(rewritten(query), BaseRelation)

    def test_rename_chain_collapses(self):
        query = BaseRelation("R").rename("A", "X").rename("X", "Y")
        result = rewritten(query)
        assert isinstance(result, Rename)
        assert (result.old, result.new) == ("A", "Y")
        assert isinstance(result.child, BaseRelation)

    def test_projection_pushdown_through_product(self):
        query = BaseRelation("R").product(BaseRelation("S")).project(["A", "D"])
        result = rewritten(query)
        assert isinstance(result, Product)
        assert isinstance(result.left, Project) and result.left.attributes == ("A",)
        assert isinstance(result.right, Project) and result.right.attributes == ("D",)

    def test_projection_keeps_join_attributes(self):
        query = BaseRelation("R").join(BaseRelation("S"), "B", "D").project(["A", "E"])
        result = rewritten(query)
        assert isinstance(result, Project)
        join = result.child
        assert isinstance(join, Join)
        assert "B" in join.left.attributes and "D" in join.right.attributes

    def test_stacked_projections_collapse(self):
        query = BaseRelation("R").project(["A", "B"]).project(["A"])
        result = rewritten(query)
        assert isinstance(result, Project) and result.attributes == ("A",)
        assert isinstance(result.child, BaseRelation)

    def test_true_select_eliminated(self):
        query = Select(BaseRelation("R"), TruePredicate())
        assert isinstance(rewritten(query), BaseRelation)

    def test_unknown_schema_blocks_pushdown_but_not_correctness(self):
        # No attributes known for "T": side-partitioning rewrites are skipped.
        query = BaseRelation("T").product(BaseRelation("U")).select(eq("A", 1))
        result = plan(query, Statistics()).optimized
        assert isinstance(result, Select)

    def test_attributes_of_inference(self):
        context = RewriteContext(STATS)
        query = BaseRelation("R").rename("A", "X").join(BaseRelation("S"), "X", "D")
        assert context.attributes_of(query) == ("X", "B", "C", "D", "E")
        assert context.attributes_of(BaseRelation("T")) is None
        # Where only the right side of a set operation resolves, that side
        # answers; a node of no known class is an error, not unresolvable.
        assert context.attributes_of(Union(BaseRelation("T"), BaseRelation("S"))) == ("D", "E")
        assert context.attributes_of(Difference(BaseRelation("T"), BaseRelation("U"))) is None
        with pytest.raises(TypeError):
            context.attributes_of(object())


class TestCostModel:
    def test_equality_more_selective_than_range(self):
        assert predicate_selectivity(eq("A", 1)) < predicate_selectivity(gt("A", 1))

    def test_and_tightens_or_loosens(self):
        atom = eq("A", 1)
        assert predicate_selectivity(And(atom, atom)) < predicate_selectivity(atom)
        assert predicate_selectivity(Or(atom, atom)) > predicate_selectivity(atom)

    def test_join_cheaper_than_select_over_product(self):
        product_form = BaseRelation("R").product(BaseRelation("S")).select(attr_eq("B", "D"))
        join_form = BaseRelation("R").join(BaseRelation("S"), "B", "D")
        assert estimate(join_form, STATS).cost < estimate(product_form, STATS).cost

    def test_pushed_selection_cheaper(self):
        raw = BaseRelation("R").product(BaseRelation("S")).select(eq("A", 1))
        pushed = BaseRelation("R").select(eq("A", 1)).product(BaseRelation("S"))
        assert estimate(pushed, STATS).cost < estimate(raw, STATS).cost

    def test_placeholder_density_inflates_selection_output(self):
        dense = Statistics(
            row_counts={"R": 1000},
            placeholder_densities={"R": 0.5},
            attributes={"R": ("A",)},
        )
        sparse = Statistics(
            row_counts={"R": 1000},
            placeholder_densities={"R": 0.0},
            attributes={"R": ("A",)},
        )
        query = BaseRelation("R").select(eq("A", 1))
        assert estimate(query, dense).rows > estimate(query, sparse).rows

    def test_statistics_from_engines(self):
        relation = Relation(RelationSchema("R", ("A", "B")), [(1, 2), (3, 4)])
        database = Database([relation])
        stats = Statistics.from_database(database)
        assert stats.row_count("R") == 2
        assert stats.relation_attributes("R") == ("A", "B")

        orset = OrSetRelation.from_dicts(
            "R", ["A", "B"], [{"A": OrSet([1, 2]), "B": 3}, {"A": 4, "B": 5}]
        )
        uwsdt_stats = Statistics.from_uwsdt(UWSDT.from_orset_relation(orset))
        assert uwsdt_stats.row_count("R") == 2
        assert 0.0 < uwsdt_stats.placeholder_density("R") < 1.0

        # A WSD is described by the UWSDT it converts to.
        converted = Statistics.from_uwsdt(UWSDT.from_wsd(WSD.from_orset_relation(orset)))
        assert converted.row_count("R") == 2
        assert converted.placeholder_density("R") == uwsdt_stats.placeholder_density("R")


class TestSamplingGuards:
    """Degenerate samples must fall back or floor — never divide by zero or
    report selectivity 0.0 (which would zero out whole plan costs)."""

    def test_empty_sample_falls_back_to_constants(self):
        empty = RelationSample("R", ("A", "B"), [], 0)
        assert empty.select(eq("A", 1)) == (None, empty)
        assert empty.histogram("A") == {}
        other = RelationSample("S", ("C",), [(1,)], 1)
        assert join_selectivity(empty, "A", other, "C") is None
        assert join_selectivity(other, "C", empty, "A") is None

    def test_unknown_attribute_falls_back(self):
        sample = RelationSample("R", ("A",), [(1,)], 1)
        assert sample.select(eq("NOPE", 1)) == (None, sample)
        with pytest.raises(KeyError):
            sample.histogram("NOPE")

    def test_all_placeholder_column_join_falls_back(self):
        from repro.relational.values import PLACEHOLDER

        left = RelationSample("R", ("A",), [(PLACEHOLDER,), (PLACEHOLDER,)], 2)
        right = RelationSample("S", ("B",), [(1,), (2,)], 2)
        assert left.histogram("A") == {}
        assert join_selectivity(left, "A", right, "B") is None

    def test_zero_overlap_join_selectivity_is_floored(self):
        left = RelationSample("R", ("A",), [(1,), (2,)], 2)
        right = RelationSample("S", ("B",), [(8,), (9,)], 2)
        selectivity = join_selectivity(left, "A", right, "B")
        assert selectivity is not None and selectivity > 0

    def test_zero_match_sample_selectivity_is_floored(self):
        sample = RelationSample("R", ("A",), [(1,), (2,), (3,)], 3)
        selectivity, derived = sample.select(eq("A", 99))
        assert selectivity is not None and 0 < selectivity < 1
        assert derived.rows == [] and derived.population == 1

    def test_impossible_fixed_predicate_is_floored(self):
        from repro.relational import Not

        impossible = Not(TruePredicate())
        assert predicate_selectivity(impossible) == 0.0  # the pure function
        assert floored_predicate_selectivity(impossible) == FIXED_SELECTIVITY_FLOOR

    def test_filter_no_sampled_row_passes_keeps_the_join_column_distribution(self):
        """An empty *filtered* sample is not "no sample": the more selective a
        leaf filter, the join above it must not fall back to the fixed 10 %."""
        left = Relation(RelationSchema("L", ("K", "F")), [(i % 60, i % 7) for i in range(600)])
        right = Relation(RelationSchema("S2", ("K2", "G")), [(i % 60, i) for i in range(600)])
        statistics = Statistics.from_database(Database([left, right]))
        filtered = BaseRelation("L").select(eq("F", 99))
        joined = filtered.join(BaseRelation("S2"), "K", "K2")
        expected = estimate(filtered, statistics).rows * 600 / 60
        assert estimate(joined, statistics).rows == pytest.approx(expected, rel=0.25)

    def test_impossible_selection_does_not_zero_plan_costs(self):
        from repro.relational import Not

        query = (
            BaseRelation("R")
            .select(Not(TruePredicate()))
            .product(BaseRelation("S"))
        )
        result = estimate(query, STATS)
        assert result.rows > 0
        assert result.cost > 0

    def test_empty_relation_plans_without_error(self):
        database = Database([Relation(RelationSchema("R", ("A", "B")))])
        query = BaseRelation("R").select(eq("A", 1)).project(["B"])
        built = query.plan(database)
        assert built.cost_after.cost >= 0
        assert built.statistics.row_count("R") == 0


def reference_selectivity(sample, predicate):
    """The selectivity half of ``RelationSample.select`` as one separate pass,
    with the row check — the specification of the fused pass."""
    if not sample.rows:
        return None
    referenced = predicate.attributes()
    if not sample.has_attributes(referenced):
        return None
    positions = [sample.position(a) for a in referenced]
    compiled = predicate.compile(RelationSchema(sample.relation or "__sample__", sample.attributes))
    matched = 0
    for row in sample.rows:
        if any(is_placeholder(row[p]) for p in positions):
            matched += 1
        elif compiled(row):
            matched += 1
    return max(min(matched / len(sample.rows), 1.0), 0.5 / max(1, len(sample.rows)))


def reference_filter(sample, predicate):
    """The filtered-sample half of ``RelationSample.select`` (see above)."""
    referenced = predicate.attributes()
    if not sample.rows or not sample.has_attributes(referenced):
        return sample
    positions = [sample.position(a) for a in referenced]
    compiled = predicate.compile(RelationSchema(sample.relation or "__sample__", sample.attributes))
    kept = [
        row
        for row in sample.rows
        if any(is_placeholder(row[p]) for p in positions) or compiled(row)
    ]
    fraction = max(min(len(kept) / len(sample.rows), 1.0), 0.5 / max(1, len(sample.rows)))
    return RelationSample(
        sample.relation, sample.attributes, kept, max(1, round(sample.population * fraction))
    )


SAMPLE_PREDICATES = [
    eq("A", 1),
    gt("B", 0),
    attr_eq("A", "B"),
    And(eq("A", 1), gt("B", 1)),
    Or(eq("A", 0), eq("B", "x")),
    Not(eq("A", 1)),
    TruePredicate(),
    eq("Z", 1),  # not an attribute of the sample
    And(eq("A", 1), eq("Z", 1)),
]


class TestFusedSampleSelection:
    """``select`` is the two separate passes in one compile and one scan."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2, "x", PLACEHOLDER, BOTTOM]),
                st.sampled_from([0, 1, 2, "x", PLACEHOLDER]),
            ),
            max_size=8,
        ),
        certain=st.booleans(),
        predicate=st.sampled_from(SAMPLE_PREDICATES),
        scale=st.integers(min_value=1, max_value=50),
    )
    def test_select_equals_the_two_separate_passes(self, rows, certain, predicate, scale):
        if certain:
            rows = [row for row in rows if PLACEHOLDER not in row and BOTTOM not in row]
        sample = RelationSample("R", ("A", "B"), rows, len(rows) * scale)
        selectivity, derived = sample.select(predicate)
        assert selectivity == reference_selectivity(sample, predicate)
        expected = reference_filter(sample, predicate)
        if expected is sample:
            assert derived is sample
        else:
            assert derived.rows == expected.rows
            assert derived.population == expected.population
            assert (derived.relation, derived.attributes) == ("R", ("A", "B"))

    def test_statistics_share_one_scan_per_sample_and_predicate(self):
        from repro.obs.metrics import get_registry

        scans = get_registry().counter("repro.planner.sample_scans")

        def drawn():
            return RelationSample("R", ("A", "B", "C"), [(1, 2, 3), (4, 5, 6)], 2)

        def view(sample):  # what each plan gets from the catalog
            return Statistics({"R": 2}, attributes={"R": ("A", "B", "C")}, samples={"R": sample})

        def selected(constant):
            return BaseRelation("R").select(eq("A", constant))

        sample, before = drawn(), scans.value
        # Two plans, each with an equal predicate built separately: one scan.
        assert estimate(selected(1), view(sample)) == estimate(selected(1), view(sample))
        assert scans.value == before + 1
        # Another predicate value, or another sample (a fresh view), scans again.
        estimate(selected(4), view(sample))
        estimate(selected(1), view(drawn()))
        assert scans.value == before + 3


class TestPlanObject:
    def test_explain_mentions_rules_and_costs(self):
        query = BaseRelation("R").product(BaseRelation("S")).select(attr_eq("B", "D"))
        explained = plan(query, STATS).explain()
        assert "fuse-select-into-join" in explained
        assert "cost" in explained and "chosen" in explained

    def test_plan_keeps_original_when_nothing_applies(self):
        query = BaseRelation("R").select(eq("A", 1))
        result = plan(query, STATS)
        assert not result.applications
        assert result.chosen is query
        assert "(none applied)" in result.explain()

    def test_query_plan_method_uses_engine_statistics(self):
        relation = Relation(RelationSchema("R", ("A", "B")), [(1, 2)])
        database = Database([relation])
        result = BaseRelation("R").select(eq("A", 1)).plan(database)
        assert isinstance(result, Plan)
        assert result.statistics.row_count("R") == 1


class TestQueryRun:
    @pytest.fixture
    def orset(self):
        return OrSetRelation.from_dicts(
            "R",
            ["A", "B", "C"],
            [
                {"A": 1, "B": OrSet([1, 2]), "C": 7},
                {"A": OrSet([4, 5]), "B": 3, "C": 0},
                {"A": 6, "B": 6, "C": OrSet([7, 0])},
            ],
        )

    @pytest.fixture
    def join_query(self):
        left = BaseRelation("R").rename("A", "A1").rename("B", "B1").rename("C", "C1")
        right = BaseRelation("R").rename("A", "A2").rename("B", "B2").rename("C", "C2")
        return (
            left.product(right)
            .select(attr_eq("B1", "A2"))
            .select(gt("C1", 0))
            .project(["A1", "A2"])
        )

    def test_run_on_database(self, small_relation):
        database = Database([small_relation])
        query = BaseRelation("Emp").select(eq("DEPT", "eng")).project(["NAME"])
        optimized = query.run(database, "names", optimize=True)
        raw = query.run(database, "names", optimize=False)
        assert optimized.row_set() == raw.row_set() == {("ann",), ("bob",)}

    def test_run_rejects_unknown_engine(self):
        with pytest.raises(QueryError):
            BaseRelation("R").run(object())

    def test_run_planned_matches_unplanned_on_uwsdt(self, orset, join_query):
        planned = UWSDT.from_orset_relation(orset)
        unplanned = UWSDT.from_orset_relation(orset)
        join_query.run(planned, "P", optimize=True)
        join_query.run(unplanned, "P", optimize=False)
        planned.validate()
        assert _distribution(planned.rep(), "P") == pytest.approx(
            _distribution(unplanned.rep(), "P")
        )

    def test_run_planned_on_a_converted_wsd_matches_figure_9(self, orset, join_query):
        planned = UWSDT.from_wsd(WSD.from_orset_relation(orset))
        join_query.run(planned, "P", optimize=True)
        specified = WSD.from_orset_relation(orset)
        evaluate_on_wsd(join_query, specified, "P")
        assert _distribution(planned.to_wsd().rep(), "P") == pytest.approx(
            _distribution(specified.rep(), "P")
        )

    def test_rerun_on_extended_representation(self, orset, join_query):
        """A second query on the same (in-place extended) engine must not
        collide with the first run's ``__q*`` intermediates."""
        uwsdt = UWSDT.from_orset_relation(orset)
        join_query.run(uwsdt, "first", optimize=False)
        join_query.run(uwsdt, "second", optimize=False)
        wsd = WSD.from_orset_relation(orset)
        evaluate_on_wsd(join_query, wsd, "first")
        evaluate_on_wsd(join_query, wsd, "second")
        assert _distribution(wsd.rep(), "second") == pytest.approx(
            _distribution(wsd.rep(), "first")
        )
        fresh = UWSDT.from_orset_relation(orset)
        join_query.run(fresh, "first", optimize=False)
        assert _distribution(uwsdt.rep(), "second") == pytest.approx(
            _distribution(fresh.rep(), "first")
        )

    def test_run_accepts_prebuilt_plan(self, orset, join_query):
        uwsdt = UWSDT.from_orset_relation(orset)
        prebuilt = join_query.plan(uwsdt)
        join_query.run(uwsdt, "P", plan=prebuilt)
        reference = UWSDT.from_orset_relation(orset)
        join_query.run(reference, "P", optimize=False)
        assert _distribution(uwsdt.rep(), "P") == pytest.approx(
            _distribution(reference.rep(), "P")
        )


class TestIndexing:
    def test_index_pool_caches_until_mutation(self):
        relation = Relation(RelationSchema("R", ("A", "B")), [(1, 2), (3, 4)])
        pool = IndexPool()
        first = pool.hash_index(relation, ("A",))
        assert pool.hash_index(relation, ("A",)) is first
        relation.insert((5, 6))
        second = pool.hash_index(relation, ("A",))
        assert second is not first
        assert second.lookup(5) == [(5, 6)]

    def test_relation_version_counts_effective_mutations(self):
        relation = Relation(RelationSchema("R", ("A",)))
        start = relation.version
        relation.insert((1,))
        assert relation.version == start + 1
        relation.insert((1,))  # duplicate: no-op
        assert relation.version == start + 1
        relation.remove((1,))
        assert relation.version == start + 2

    def test_select_with_index_probe(self, small_relation):
        from repro.relational import algebra

        index = HashIndex(small_relation, ("DEPT",))
        probed = algebra.select(small_relation, eq("DEPT", "hr"), index=index)
        scanned = algebra.select(small_relation, eq("DEPT", "hr"))
        assert probed.row_set() == scanned.row_set()

    def test_uwsdt_certain_rows_index_cached(self):
        orset = OrSetRelation.from_dicts(
            "R", ["A", "B"], [{"A": 1, "B": 2}, {"A": OrSet([3, 4]), "B": 5}]
        )
        uwsdt = UWSDT.from_orset_relation(orset)
        first = hash_index(uwsdt.templates["R"].certain, ("A",))
        assert hash_index(uwsdt.templates["R"].certain, ("A",)) is first
        uwsdt.add_template_tuple("R", 99, (7, 8))
        assert hash_index(uwsdt.templates["R"].certain, ("A",)) is not first


def _distribution(worldset, relation_name):
    distribution = {}
    for world in worldset:
        key = frozenset(world.database.relation(relation_name).rows)
        probability = world.probability if world.probability is not None else 1.0
        distribution[key] = distribution.get(key, 0.0) + probability
    return {key: distribution[key] for key in sorted(distribution, key=repr)}
