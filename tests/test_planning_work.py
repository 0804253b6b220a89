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
from collections import Counter

import pytest

from repro.analysis import invariants
from repro.census import CENSUS_RELATION, census_query, query_names
from repro.core.algebra.query import BaseRelation
from repro.core.planner import Statistics, planner, sampling
from repro.core.planner.sampling import sampling_call_count
from repro.obs.metrics import get_registry
from repro.relational import RelationSchema, RepresentationError
from repro.relational.predicates import Predicate

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


class TestIntermediateNames:
    """A UWSDT keeps the index of its next intermediate name ``__q<n>``, so a
    name costs one probe of the schema, however many passes came before; it
    probes again only past a name a user took.  UWSDT relations are never
    dropped, so the names are those the engine always gave: numbered on
    across passes."""

    def _pass(self, monkeypatch, engine, label):
        """Run the paper's queries once; the intermediates created, in order,
        and the probes of names the schema already held."""
        taken = []
        has_relation = type(engine.schema).has_relation

        def probed(schema, name):
            present = has_relation(schema, name)
            if present and name.startswith("__q"):
                taken.append(name)
            return present

        monkeypatch.setattr(type(engine.schema), "has_relation", probed)
        before = list(engine.schema.relation_names)
        for name in query_names():
            census_query(name).run(engine, f"{name}_{label}")
        monkeypatch.undo()
        created = [n for n in engine.schema.relation_names if n not in before]
        return [n for n in created if n.startswith("__q")], taken

    def test_a_relation_is_probed_once_to_name_it_and_once_to_declare_it(self, monkeypatch):
        """An operator declares its result with the one probe of
        ``UWSDT.add_relation``; an intermediate's name took one more."""
        engine = census_engines()[1]
        probes = Counter()
        has_relation = type(engine.schema).has_relation

        def counted(schema, name):
            probes[name] += 1
            return has_relation(schema, name)

        monkeypatch.setattr(type(engine.schema), "has_relation", counted)
        for name in query_names():
            census_query(name).run(engine, name)
        monkeypatch.undo()
        intermediates = [n for n in probes if n.startswith("__q")]
        assert intermediates and all(probes[n] == 2 for n in intermediates)
        assert {n: probes[n] for n in query_names()} == dict.fromkeys(query_names(), 1)
        with pytest.raises(RepresentationError, match="'Q1' already present"):
            census_query("Q1").run(engine, "Q1")

    def test_twenty_passes_name_alike_and_probe_once(self, monkeypatch, engines):
        engine = engines["uwsdt"].copy()
        first, _ = self._pass(monkeypatch, engine, 0)
        per_pass = len(first)
        assert first == [f"__q{i}" for i in range(1, per_pass + 1)]
        for label in range(1, 20):
            names, taken = self._pass(monkeypatch, engine, label)
            start = label * per_pass + 1
            assert names == [f"__q{i}" for i in range(start, start + per_pass)]
            assert taken == []  # no probe of a name an earlier pass gave

        # A copy numbers on; a name a user took is skipped with one more probe.
        twin = engine.copy()
        assert twin.intermediate_name() == f"__q{20 * per_pass + 1}"
        engine.add_relation(RelationSchema(f"__q{20 * per_pass + 1}", ("X",)))
        names, taken = self._pass(monkeypatch, engine, "user")
        assert taken == [f"__q{20 * per_pass + 1}"]
        assert names == [f"__q{i}" for i in range(20 * per_pass + 2, 21 * per_pass + 2)]


def test_a_warm_paper_pass_on_the_uwsdt_builds_one_source_per_selection_part(monkeypatch):
    """A warm Q1–Q6 pass on a copy of the chased UWSDT builds 13 predicate
    sources (each a hit of the code-object memo): the Database's selection
    of the certain rows, 6 (a bare equality's IndexScan compiles nothing),
    and Figure 16 over the open rows, 7 — one each, for the open rows'
    scan and their row check share it."""
    chased = census_engines()[1]
    sources = []
    compile_both = Predicate.compile_both

    def counted(predicate, schema):
        sources.append(predicate)
        return compile_both(predicate, schema)

    monkeypatch.setattr(Predicate, "compile_both", counted)
    for _ in range(2):  # the first pass plans and samples; the second is warm
        del sources[:]
        engine = chased.copy()
        for name in query_names():
            census_query(name).run(engine, name)
    assert len(sources) == 13
