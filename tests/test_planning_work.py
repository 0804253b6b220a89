"""Planning does each piece of sample work once — asserted from the registry.

Work counts, not timings: on a warm statistics catalog a plan reads column
types off the classes memoised on the catalog's samples (zero type scans),
compiles and scans a sample at most once per distinct ``(sample, predicate)``
of the tree it costs — the one it returns, estimated in one pass — and
lowering estimates nothing the planner already did and renders no tree.  The counters are ``repro.analysis.type_scans`` and
``repro.planner.sample_scans`` (docs/observability.md).
"""

import gc

import pytest

from repro.analysis import invariants
from repro.census import CENSUS_RELATION
from repro.core.algebra.query import BaseRelation, Select
from repro.core.planner import cost, planner
from repro.obs.metrics import get_registry

from _fixtures import benchmark_queries, census_engines


def type_scans(source: str) -> int:
    return get_registry().counter("repro.analysis.type_scans", source=source).value


def sample_scans() -> int:
    return get_registry().counter("repro.planner.sample_scans").value


def selections(plan) -> set:
    """The σ nodes of the tree the plan costed."""
    found = set()

    def walk(node):
        if isinstance(node, Select):
            found.add(node)
        for child in node.children():
            walk(child)

    walk(plan.optimized)
    return found


@pytest.fixture(scope="module")
def engines():
    database, uwsdt = census_engines()
    return {"database": database, "uwsdt": uwsdt}


@pytest.mark.parametrize("kind", ["database", "uwsdt"])
class TestWarmCatalog:
    def test_second_planning_round_scans_no_types_and_each_selection_once(
        self, engines, kind
    ):
        engine = engines[kind]
        queries = benchmark_queries()
        for _label, query in queries:  # the cold round draws and types the sample
            query.plan(engine)
        sampled, whole = type_scans("sample"), type_scans("engine")
        for label, query in queries:
            before = sample_scans()
            plan = query.plan(engine)
            planned = sample_scans()
            query.physical_plan(engine, plan=plan, backend="row")
            assert sample_scans() == planned, f"{label}: lowering scanned a sample"
            assert 0 < planned - before <= len(selections(plan)), label
        assert type_scans("sample") == sampled
        # Whole columns are read on the error path only.
        assert type_scans("engine") == whole

    def test_one_insert_costs_one_type_scan(self, engines, kind):
        engine = engines[kind]
        query = dict(benchmark_queries())["Q2"]
        stale = query.plan(engine).statistics
        if kind == "database":
            relation = engine.relation(CENSUS_RELATION)
            relation.insert(tuple(-1 for _ in relation.schema.attributes))
        else:
            arity = engine.schema.relation(CENSUS_RELATION).arity
            engine.add_template_tuple(CENSUS_RELATION, "inserted", (-1,) * arity)
        before = type_scans("sample")
        fresh = query.plan(engine).statistics
        query.plan(engine)
        assert type_scans("sample") == before + 1
        assert fresh.sample(CENSUS_RELATION) is not stale.sample(CENSUS_RELATION)


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
    returned tree and lowering ask again: one histogram overlap each."""
    engine = engines[kind]
    overlaps = []
    join_selectivity = cost.join_selectivity

    def counted(left, left_attr, right, right_attr):
        overlaps.append({left_attr, right_attr})
        return join_selectivity(left, left_attr, right, right_attr)

    monkeypatch.setattr(cost, "join_selectivity", counted)
    query = dict(benchmark_queries())["four_way"]
    plan = query.plan(engine)
    query.physical_plan(engine, plan=plan, backend="row")
    assert sorted(map(sorted, overlaps)) == [["C1", "C2"], ["P3", "P4"], ["P3", "W1"]]


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
