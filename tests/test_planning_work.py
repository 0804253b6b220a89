"""Planning derives each fact of a sample once — asserted from the registry.

Work counts, not timings.  Every fact derived from a catalog sample (its
column types, its filtered, projected and renamed samples, their histograms
and overlaps) is memoised on the sample it comes from, so a second plan of
the same query on a warm catalog scans no sample, reads no column's types
and generates no code; lowering estimates nothing the planner already did and
renders no tree.  A mutation costs one sample draw and one type scan, and
the memo stays bounded under ad-hoc predicates.  The counters are
``repro.analysis.type_scans``, ``repro.planner.sample_scans`` and
``repro.predicates.code_generated`` (docs/observability.md).
"""

import gc

import pytest

from repro.analysis import invariants
from repro.census import CENSUS_RELATION, census_query, query_names
from repro.core.algebra.query import BaseRelation
from repro.core.planner import Statistics, planner, sampling
from repro.core.planner.sampling import sampling_call_count
from repro.obs.metrics import get_registry

from _fixtures import benchmark_queries, census_engines


def type_scans(source: str) -> int:
    return get_registry().counter("repro.analysis.type_scans", source=source).value


def sample_scans() -> int:
    return get_registry().counter("repro.planner.sample_scans").value


@pytest.fixture(scope="module")
def engines():
    database, uwsdt = census_engines()
    return {"database": database, "uwsdt": uwsdt}


def work() -> tuple:
    """The three counters a warm plan must leave where they are."""
    return (
        sample_scans(),
        type_scans("sample"),
        type_scans("engine"),
        get_registry().counter("repro.predicates.code_generated").value,
    )


def node_estimates(plan) -> list:
    """Every node of the chosen tree with its estimate, in tree order."""
    found = []

    def walk(node):
        estimate = plan.estimates[node]
        found.append((node.node_label(), estimate.rows, estimate.cost, estimate.algorithm))
        for child in node.children():
            walk(child)

    walk(plan.chosen)
    return found


@pytest.mark.parametrize("kind", ["database", "uwsdt"])
class TestWarmCatalog:
    def test_second_planning_round_scans_nothing_and_generates_no_code(self, engines, kind):
        engine = engines[kind]
        queries = benchmark_queries()
        for _label, query in queries:  # the cold round draws, types and derives
            query.physical_plan(engine, plan=query.plan(engine), backend="row")
        for label, query in queries:
            before = work()
            query.physical_plan(engine, plan=query.plan(engine), backend="row")
            assert work() == before, label

    def test_one_insert_costs_one_draw_and_one_type_scan(self, engines, kind):
        engine = engines[kind]
        queries = [(name, census_query(name)) for name in query_names()]
        stale = {label: query.plan(engine) for label, query in queries}
        if kind == "database":
            relation = engine.relation(CENSUS_RELATION)
            relation.insert(tuple(-1 for _ in relation.schema.attributes))
        else:
            arity = engine.schema.relation(CENSUS_RELATION).arity
            engine.add_template_tuple(CENSUS_RELATION, "inserted", (-1,) * arity)
        draws, typed = sampling_call_count(), type_scans("sample")
        replanned = {label: query.plan(engine) for label, query in queries}
        assert (sampling_call_count(), type_scans("sample")) == (draws + 1, typed + 1)
        fresh = Statistics.from_database(engine)
        for label, query in queries:
            plan = replanned[label]
            assert plan.statistics.sample(CENSUS_RELATION) is not (
                stale[label].statistics.sample(CENSUS_RELATION)
            )
            assert node_estimates(plan) == node_estimates(planner.plan(query, fresh)), label


@pytest.mark.parametrize("kind", ["database", "uwsdt"])
def test_one_estimate_pass_per_plan_and_lowering_renders_no_tree(engines, kind, monkeypatch):
    engine = engines[kind]
    roots, rendered = [], []
    estimate_forest, leaf_repr = planner.estimate_forest, BaseRelation.__repr__

    def counted_forest(query, *args, **kwargs):
        roots.append(query)
        return estimate_forest(query, *args, **kwargs)

    def counted_repr(leaf):
        rendered.append(leaf)
        return leaf_repr(leaf)

    monkeypatch.setattr(planner, "estimate_forest", counted_forest)
    for label, query in benchmark_queries():
        del roots[:]
        plan = query.plan(engine)
        assert roots == [plan.chosen], label
        # Every rendering of a tree reaches its leaves.
        with monkeypatch.context() as patch:
            patch.setattr(BaseRelation, "__repr__", counted_repr)
            query.physical_plan(engine, plan=plan, backend="row")
        assert rendered == [], label


@pytest.mark.parametrize("kind", ["database", "uwsdt"])
def test_each_join_predicate_overlaps_its_histograms_once(engines, kind, monkeypatch):
    """The 4-way join has three cross-leaf equalities.  The join-order DP asks
    for their selectivities dozens of times, the estimate pass over the
    returned tree and lowering ask again: one histogram overlap each on the
    first plan, none on the second."""
    engine = dict(zip(("database", "uwsdt"), census_engines()))[kind]  # nothing derived yet
    overlaps = []
    join_selectivity = sampling.join_selectivity

    def counted(left, left_attr, right, right_attr):
        overlaps.append({left_attr, right_attr})
        return join_selectivity(left, left_attr, right, right_attr)

    monkeypatch.setattr(sampling, "join_selectivity", counted)
    query = dict(benchmark_queries())["four_way"]
    for expected in ([["C1", "C2"], ["P3", "P4"], ["P3", "W1"]], []):
        del overlaps[:]
        plan = query.plan(engine)
        query.physical_plan(engine, plan=plan, backend="row")
        assert sorted(map(sorted, overlaps)) == expected


def test_planned_runs_leave_nothing_to_the_cycle_collector(engines):
    database = engines["database"]
    queries = benchmark_queries()[:8]

    def run_all():
        for label, query in queries:
            query.run(database, label)

    # The user path: the suite's plan verifier builds recursive closures.
    previous = invariants.set_verification(False)
    try:
        run_all()
        gc.collect()
        gc.disable()
        for _ in range(20):
            run_all()
        assert gc.collect() == 0
    finally:
        gc.enable()
        invariants.set_verification(previous)
