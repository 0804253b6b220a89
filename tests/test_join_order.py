"""Property tests for the join-order enumerator itself.

Two families:

* **optimality** — on random join graphs the DP winner's cost is never
  beaten by any left-deep join order.  This is a theorem of the subset DP as
  long as a subset's cardinality estimate does not depend on the order that
  built it — a property of the one estimator (``cost.py`` prices a predicate
  across leaves from the two leaf samples, whichever node spells it), which
  the DP, ``estimate()`` and lowering all read: the DP's cost *is*
  ``estimate()``'s cost of the tree it returns.
* **semantics** — planned evaluation of 3/4/5-way census joins produces
  exactly the written-order result, on the classical engine (row sets) and
  on the UWSDT (possible tuples with confidences).

And two regressions: the uncertain 4-way census join executes the order the
DP picked, on eleven seeds; and on the census 4-way join the DP's metric and
``estimate()`` rank the 24 left-deep orders identically (two costings used to
disagree on 8–20 of the 276 order pairs).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import census_instance
from repro.census.queries import q3, q4_citizen, q6, q_four_way_join
from repro.core.algebra import BaseRelation, Join, Project
from repro.core.confidence import uwsdt_possible_with_confidence
from repro.core.planner import (
    GREEDY_THRESHOLD,
    MIN_REORDER_RELATIONS,
    RewriteContext,
    Statistics,
    describe_join_order,
    estimate,
    extract_join_graph,
    plan,
)
from repro.core.planner.joins import enumerate_plan_state, forced_order_state
from repro.core.planner.planner import rewrite
from repro.core.planner.rules import DEFAULT_PHASES
from repro.relational import AttrAttr, Database, Relation, RelationSchema
from repro.relational.predicates import And

#: Number of leaf relations in generated join graphs (kept within the DP
#: regime; the greedy fallback is exercised separately).
MIN_LEAVES, MAX_LEAVES = 3, 5


@st.composite
def join_graph_cases(draw, min_leaves=MIN_LEAVES, max_leaves=MAX_LEAVES):
    """A random database + a ×-chain query with random equality predicates."""
    leaf_count = draw(st.integers(min_value=min_leaves, max_value=max_leaves))
    relations = []
    for index in range(leaf_count):
        schema = RelationSchema(f"L{index}", (f"X{index}a", f"X{index}b"))
        relation = Relation(schema)
        rows = draw(st.integers(min_value=0, max_value=10))
        for _ in range(rows):
            relation.insert(
                (
                    draw(st.integers(min_value=0, max_value=3)),
                    draw(st.integers(min_value=0, max_value=3)),
                )
            )
        relations.append(relation)
    database = Database(relations)

    predicate_count = draw(st.integers(min_value=1, max_value=leaf_count))
    predicates = []
    for _ in range(predicate_count):
        left, right = draw(
            st.tuples(
                st.integers(min_value=0, max_value=leaf_count - 1),
                st.integers(min_value=0, max_value=leaf_count - 1),
            ).filter(lambda pair: pair[0] != pair[1])
        )
        predicates.append(
            AttrAttr(
                f"X{left}{draw(st.sampled_from('ab'))}",
                "=",
                f"X{right}{draw(st.sampled_from('ab'))}",
            )
        )

    query = BaseRelation("L0")
    for index in range(1, leaf_count):
        query = query.product(BaseRelation(f"L{index}"))
    query = query.select(And(*predicates) if len(predicates) > 1 else predicates[0])
    return database, query, leaf_count


class TestEnumeratorOptimality:
    @given(join_graph_cases())
    @settings(max_examples=60, deadline=None)
    def test_dp_cost_never_beaten_by_left_deep_orders(self, case):
        database, query, leaf_count = case
        statistics = Statistics.from_database(database)
        graph = extract_join_graph(query, RewriteContext(statistics))
        assert graph is not None and len(graph.leaves) == leaf_count
        best = enumerate_plan_state(graph, statistics)
        for order in itertools.permutations(range(leaf_count)):
            forced = forced_order_state(graph, statistics, order)
            assert best.cost <= forced.cost * (1 + 1e-9) + 1e-9, (
                f"DP cost {best.cost} beaten by left-deep order {order} "
                f"({forced.cost})"
            )

    @given(
        join_graph_cases(),
        st.lists(
            st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
            min_size=MAX_LEAVES,
            max_size=MAX_LEAVES,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_dp_optimality_holds_at_nonzero_density(self, case, densities):
        """The enumerator's metric must stay order-independent under
        placeholder densities too (it deliberately omits the density bump)."""
        database, query, leaf_count = case
        statistics = Statistics.from_database(database)
        for index in range(leaf_count):
            statistics.placeholder_densities[f"L{index}"] = densities[index]
        graph = extract_join_graph(query, RewriteContext(statistics))
        best = enumerate_plan_state(graph, statistics)
        for order in itertools.permutations(range(leaf_count)):
            forced = forced_order_state(graph, statistics, order)
            assert best.cost <= forced.cost * (1 + 1e-9) + 1e-9

    @given(
        join_graph_cases(),
        st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
                min_size=MAX_LEAVES,
                max_size=MAX_LEAVES,
            ),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_dp_metric_is_estimate_and_sizes_ignore_the_order(self, case, densities):
        """One estimator: the DP winner costs what ``estimate()`` says its
        tree costs, and ``estimate()`` gives every left-deep order of the
        cluster the same output cardinality — with and without densities."""
        database, query, leaf_count = case
        statistics = Statistics.from_database(database)
        for index in range(leaf_count if densities else 0):
            statistics.placeholder_densities[f"L{index}"] = densities[index]
        graph = extract_join_graph(query, RewriteContext(statistics))
        best = enumerate_plan_state(graph, statistics)
        assert estimate(best.query, statistics) == best.estimate.as_cost_estimate()
        for order in itertools.permutations(range(leaf_count)):
            forced = forced_order_state(graph, statistics, order)
            estimated = estimate(forced.query, statistics)
            assert estimated.cost == forced.cost
            assert estimated.rows == pytest.approx(best.rows, rel=1e-9)

    @given(join_graph_cases(min_leaves=GREEDY_THRESHOLD + 1, max_leaves=GREEDY_THRESHOLD + 2))
    @settings(max_examples=10, deadline=None)
    def test_greedy_fallback_produces_a_complete_plan(self, case):
        """Above the DP cutover the greedy heuristic must still cover every
        leaf and apply every predicate (semantics checked via the oracle and
        the census equality tests; here we check structure)."""
        database, query, leaf_count = case
        statistics = Statistics.from_database(database)
        graph = extract_join_graph(query, RewriteContext(statistics))
        best = enumerate_plan_state(graph, statistics)
        assert best.mask == (1 << leaf_count) - 1
        assert tuple(sorted(best.attributes)) == tuple(sorted(graph.output_attributes))

    def test_reorder_only_fires_at_min_relations(self):
        """A 2-way cluster is left to join fusion, not reordered."""
        statistics = Statistics(
            row_counts={"L0": 10, "L1": 10},
            attributes={"L0": ("X0a", "X0b"), "L1": ("X1a", "X1b")},
        )
        query = BaseRelation("L0").product(BaseRelation("L1")).select(
            AttrAttr("X0a", "=", "X1a")
        )
        built = plan(query, statistics)
        assert MIN_REORDER_RELATIONS == 3
        assert not any(a.rule == "reorder-joins" for a in built.applications)
        assert isinstance(built.optimized, Join)


# --------------------------------------------------------------------------- #
# Planned ≡ written order on census joins (3-, 4- and 5-way)
# --------------------------------------------------------------------------- #


def _three_way_join():
    a = q6().rename("POWSTATE", "W1").rename("POB", "B1")
    b = q4_citizen().rename("POWSTATE", "W2").rename("CITIZEN", "C2")
    c = q3().rename("POWSTATE", "P3").rename("MARITAL", "M3").rename("FERTIL", "F3")
    return a.join(b, "W1", "W2").join(c, "B1", "P3")


def _five_way_join():
    base = q_four_way_join()
    e = q6().rename("POWSTATE", "W5").rename("POB", "B5")
    return base.join(e, "W1", "W5")


CENSUS_JOINS = {
    "3-way": _three_way_join,
    "4-way": q_four_way_join,
    "5-way": _five_way_join,
}


@pytest.mark.parametrize("name", sorted(CENSUS_JOINS))
class TestPlannedMatchesWrittenOrder:
    def test_database_row_sets_equal(self, name):
        database = census_instance(120, 0.0).one_world_database()
        query = CENSUS_JOINS[name]()
        planned = query.run(database, "planned", optimize=True)
        written = query.run(database, "written", optimize=False)
        assert planned.schema.attributes == written.schema.attributes
        assert planned.row_set() == written.row_set()

    def test_uwsdt_possible_tuples_and_confidences_equal(self, name):
        chased = census_instance(120, 0.005).chased()
        query = CENSUS_JOINS[name]()

        planned = chased.copy()
        query.run(planned, "P", optimize=True)
        planned.validate()
        planned_ranked = dict(uwsdt_possible_with_confidence(planned, "P"))

        written = chased.copy()
        query.run(written, "P", optimize=False)
        written.validate()
        written_ranked = dict(uwsdt_possible_with_confidence(written, "P"))

        assert set(planned_ranked) == set(written_ranked)
        for row, confidence in written_ranked.items():
            assert planned_ranked[row] == pytest.approx(confidence, abs=1e-9)

    def test_plan_reports_a_join_order(self, name):
        database = census_instance(120, 0.0).one_world_database()
        built = CENSUS_JOINS[name]().plan(database)
        assert built.join_order is not None
        assert "⋈" in built.join_order
        assert built.join_order.count("(") == built.join_order.count(")")


@pytest.mark.parametrize("seed", [*range(1, 11), 42])
def test_uncertain_four_way_join_runs_the_order_the_dp_picked(seed):
    """Cold, plan only: the two unselective leaves are never joined to each
    other first, and the executed tree carries the DP's order (an
    accept-rewrite gate used to swap the written tree back in on five of
    these seeds)."""
    chased = census_instance(1000, 0.001, seed).chased()
    built = q_four_way_join().plan(chased.copy())
    assert "(R→C1 ⋈ R→C2)" not in built.join_order
    assert describe_join_order(built.chosen) == describe_join_order(built.optimized)


def _sign(difference):
    return (difference > 1e-9) - (difference < -1e-9)


@pytest.mark.parametrize("kind", ["database", "uwsdt"])
@pytest.mark.parametrize("seed", [1, 2, 3, 6, 42])
def test_estimate_ranks_the_left_deep_orders_as_the_dp_does(seed, kind):
    """The census 4-way join at 2 000 rows: over the 24 left-deep orders no
    pair ranks one way under the DP's metric and the other under
    ``estimate()``, every order has the same estimated size, and the winner's
    numbers are the ones ``plan()`` reports (up to the column-restoring π)."""
    instance = census_instance(2000, 0.001, seed)
    engine = instance.one_world_database() if kind == "database" else instance.chased().copy()
    query = q_four_way_join()
    built = query.plan(engine)
    statistics = built.statistics
    context = RewriteContext(statistics)
    cluster = rewrite(query, context, DEFAULT_PHASES[:3])  # everything before reorder-joins
    graph = extract_join_graph(cluster, context)
    assert graph is not None and len(graph.leaves) == 4

    dp_costs, estimate_costs, sizes = [], [], set()
    for order in itertools.permutations(range(4)):
        forced = forced_order_state(graph, statistics, order)
        estimated = estimate(forced.query, statistics)
        dp_costs.append(forced.cost)
        estimate_costs.append(estimated.cost)
        sizes.add(round(estimated.rows, 6))
    inversions = [
        (i, j)
        for i, j in itertools.combinations(range(24), 2)
        if _sign(dp_costs[i] - dp_costs[j]) != _sign(estimate_costs[i] - estimate_costs[j])
    ]
    assert inversions == []
    assert len(sizes) == 1

    best = enumerate_plan_state(graph, statistics)
    assert estimate(best.query, statistics) == best.estimate.as_cost_estimate()
    cluster_root = built.optimized
    if isinstance(cluster_root, Project):  # the column-restoring projection
        cluster_root = cluster_root.child
    reported = built.estimates[cluster_root]
    assert (reported.cost, reported.rows) == (best.cost, best.rows)
    assert built.cost_after.rows == best.rows


def test_describe_join_order_handles_rename_above_join():
    """A δ above a join must not mangle the rendered skeleton."""
    query = (
        BaseRelation("R")
        .rename("A", "W1")
        .join(BaseRelation("S"), "W1", "B")
        .rename("B", "Z9")
    )
    rendered = describe_join_order(query)
    assert rendered == "(R→W1 ⋈ S)"
    assert rendered.count("(") == rendered.count(")")
