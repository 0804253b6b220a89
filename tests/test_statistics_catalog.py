"""Statistics catalog: version-keyed caching, invalidation, provenance.

Covers the PR's acceptance criteria directly:

* planning the same (or a similar) query twice against an unchanged engine
  performs **zero** re-sampling, asserted via the module-level sampling
  call counter;
* mutating a relation after planning — classical inserts, template inserts,
  component surgery, the chase — invalidates exactly the affected cached
  entries, and replanning picks up changed estimates;
* ``Plan.explain()`` reports, per relation, whether its costs came from a
  cached sample, a fresh sample, or the fixed-constant fallback.
"""

import pytest

from repro.core import UWSDT, WSD
from repro.core.algebra import BaseRelation
from repro.core.chase import FunctionalDependency, chase_uwsdt, chase_wsd
from repro.core.planner import Statistics, catalog_for, sampling_call_count
from repro.core.planner.catalog import StatisticsCatalog
from repro.relational import Database, QueryError, Relation, RelationSchema, attr_eq, eq
from repro.worlds import OrSet, OrSetRelation


def _database(rows_r=40, rows_s=20):
    r = Relation(
        RelationSchema("R", ("K", "A")), [(i % 5, i) for i in range(rows_r)]
    )
    s = Relation(
        RelationSchema("S", ("K2", "B")), [(i % 5, i) for i in range(rows_s)]
    )
    return Database([r, s])


def _orsets():
    r = OrSetRelation.from_dicts(
        "R",
        ["K", "A"],
        [{"K": i % 3, "A": OrSet([i, i + 10]) if i % 4 == 0 else i} for i in range(12)],
    )
    s = OrSetRelation.from_dicts(
        "S", ["K2", "B"], [{"K2": i % 3, "B": i} for i in range(8)]
    )
    return [r, s]


def assert_same_statistics(fresh, cached):
    """Everything the cost model reads, relation by relation."""
    assert fresh.engine == cached.engine
    assert fresh.row_counts == cached.row_counts
    assert fresh.placeholder_densities == cached.placeholder_densities
    assert fresh.attributes == cached.attributes
    assert set(fresh.samples) == set(cached.samples)
    for name, sample in fresh.samples.items():
        assert sample.rows == cached.samples[name].rows
        assert sample.attributes == cached.samples[name].attributes
        assert sample.population == cached.samples[name].population


def _chaseable_orsets():
    """Inputs on which ``FD R: K → A`` is satisfiable and correlating: the
    two K=1 tuples' or-sets overlap in A=2 only, so the chase must merge
    their components."""
    r = OrSetRelation.from_dicts(
        "R",
        ["K", "A"],
        [
            {"K": 1, "A": OrSet([2, 3])},
            {"K": 1, "A": OrSet([2, 4])},
            {"K": 2, "A": 5},
        ],
    )
    s = OrSetRelation.from_dicts("S", ["K2", "B"], [{"K2": 1, "B": 7}, {"K2": 2, "B": 8}])
    return [r, s]


JOIN_QUERY = BaseRelation("R").join(BaseRelation("S"), "K", "K2")


class TestZeroResamplingOnRepeat:
    def test_same_query_twice_on_database(self):
        database = _database()
        JOIN_QUERY.plan(database)
        before = sampling_call_count()
        plan2 = JOIN_QUERY.plan(database)
        assert sampling_call_count() == before
        assert plan2.statistics.provenance("R") == "cached-sample"
        assert plan2.statistics.provenance("S") == "cached-sample"

    def test_similar_query_reuses_samples(self):
        """A *different* query over the same relations also plans sample-free."""
        database = _database()
        JOIN_QUERY.plan(database)
        before = sampling_call_count()
        other = BaseRelation("R").select(eq("A", 3)).join(BaseRelation("S"), "K", "K2")
        built = other.plan(database)
        assert sampling_call_count() == before
        assert built.statistics.provenance("R") == "cached-sample"

    def test_same_query_twice_on_uwsdt_and_a_converted_wsd(self):
        for engine in (
            UWSDT.from_orset_relations(_orsets()),
            UWSDT.from_wsd(WSD.from_orset_relations(_orsets())),
        ):
            JOIN_QUERY.plan(engine)
            before = sampling_call_count()
            plan2 = JOIN_QUERY.plan(engine)
            assert sampling_call_count() == before, type(engine).__name__
            assert plan2.statistics.provenance("R") == "cached-sample"

    def test_catalog_is_attached_once_per_engine(self):
        database = _database()
        catalog = catalog_for(database)
        assert catalog_for(database) is catalog
        assert catalog.kind == "database"
        # Copies get their own catalog lazily.
        assert catalog_for(database.copy()) is not catalog

    def test_statistics_views_share_sample_objects(self):
        """Warm views reuse the identical RelationSample (and its memoized
        histograms), not a re-sampled copy."""
        database = _database()
        first = Statistics.from_engine(database)
        first.sample("R").histogram("K")  # memoize a histogram
        second = Statistics.from_engine(database)
        assert second.sample("R") is first.sample("R")
        assert second.source == "catalog"


class TestMutationInvalidation:
    def test_database_insert_invalidates_only_that_relation(self):
        database = _database()
        plan1 = JOIN_QUERY.plan(database)
        # Skew R heavily towards one key: row count and the K histogram move.
        database.relation("R").insert_many((0, 1_000 + i) for i in range(200))
        before = sampling_call_count()
        plan2 = JOIN_QUERY.plan(database)
        assert sampling_call_count() == before + 1  # only R was re-sampled
        assert plan2.statistics.provenance("R") == "fresh-sample"
        assert plan2.statistics.provenance("S") == "cached-sample"
        assert plan2.statistics.row_count("R") == 240
        assert plan2.cost_before.cost != plan1.cost_before.cost

    def test_database_remove_invalidates(self):
        database = _database()
        JOIN_QUERY.plan(database)
        database.relation("S").remove((0, 0))
        plan2 = JOIN_QUERY.plan(database)
        assert plan2.statistics.provenance("S") == "fresh-sample"
        assert plan2.statistics.row_count("S") == 19

    def test_uwsdt_template_insert_invalidates(self):
        uwsdt = UWSDT.from_orset_relations(_orsets())
        plan1 = JOIN_QUERY.plan(uwsdt)
        for i in range(100, 140):
            uwsdt.add_template_tuple("R", i, (0, i))
        plan2 = JOIN_QUERY.plan(uwsdt)
        assert plan2.statistics.provenance("R") == "fresh-sample"
        assert plan2.statistics.provenance("S") == "cached-sample"
        assert plan2.statistics.row_count("R") == 52
        assert plan2.cost_before.cost != plan1.cost_before.cost

    def test_uwsdt_chase_keeps_cached_statistics_correct(self):
        """The chase merges/filters components but writes neither templates
        nor the placeholder map — so cached entries stay valid, and they
        must agree exactly with what fresh sampling would produce."""
        uwsdt = UWSDT.from_orset_relations(_chaseable_orsets())
        JOIN_QUERY.plan(uwsdt)
        chase_uwsdt(uwsdt, [FunctionalDependency("R", ["K"], "A")])
        assert any(
            component.arity > 1 for component in uwsdt.components.values()
        ), "expected the chase to correlate placeholder fields"
        plan2 = JOIN_QUERY.plan(uwsdt)
        assert plan2.statistics.provenance("R") == "cached-sample"
        assert_same_statistics(Statistics.from_uwsdt(uwsdt), plan2.statistics)

    @pytest.mark.parametrize(
        "fresh_statistics, build",
        [
            (Statistics.from_database, _database),
            (Statistics.from_uwsdt, lambda: UWSDT.from_wsd(WSD.from_orset_relations(_orsets()))),
            (Statistics.from_uwsdt, lambda: UWSDT.from_orset_relations(_orsets())),
        ],
        ids=["database", "wsd", "uwsdt"],
    )
    def test_fresh_statistics_are_the_view_of_an_unattached_catalog(
        self, fresh_statistics, build
    ):
        """``Statistics.from_*`` and the catalog are one code path: what the
        first returns equals ``from_engine`` on an engine nothing has sampled
        yet — also when sampling is restricted to some relations — and it
        leaves nothing behind on the engine."""
        engine = build()
        for restriction in (None, ("S",)):
            fresh = fresh_statistics(engine, sample_relations=restriction)
            assert fresh.source == "fresh" and fresh.catalog is None
            cached = Statistics.from_engine(build(), sample_relations=restriction)
            assert cached.source == "catalog"
            assert_same_statistics(fresh, cached)
            for name in ("R", "S"):
                assert fresh.provenance(name) == cached.provenance(name)
        assert fresh.provenance("R") == "fixed-constants"
        assert fresh.provenance("S") == "fresh-sample"
        assert getattr(engine, "_statistics_catalog", None) is None

    def test_uwsdt_query_execution_keeps_base_entries_valid(self):
        """Q̂ extends the representation with intermediates; the *base*
        relations are untouched, so their cached statistics survive."""
        uwsdt = UWSDT.from_orset_relations(_orsets())
        JOIN_QUERY.plan(uwsdt)
        JOIN_QUERY.run(uwsdt, "P", optimize=True)
        before = sampling_call_count()
        plan2 = JOIN_QUERY.plan(uwsdt)
        assert sampling_call_count() == before
        assert plan2.statistics.provenance("R") == "cached-sample"

    def test_a_wsd_is_planned_as_its_uwsdt(self):
        """A WSD has no catalog: planning one is a typed error naming the
        conversion, and the converted chased WSD plans like any UWSDT."""
        wsd = WSD.from_orset_relations(_chaseable_orsets())
        with pytest.raises(QueryError, match=r"UWSDT\.from_wsd"):
            JOIN_QUERY.plan(wsd)
        assert getattr(wsd, "_statistics_catalog", None) is None
        chase_wsd(wsd, [FunctionalDependency("R", ["K"], "A")])
        uwsdt = UWSDT.from_wsd(wsd)
        plan = JOIN_QUERY.plan(uwsdt)
        assert plan.statistics.engine == "uwsdt"
        assert_same_statistics(Statistics.from_uwsdt(uwsdt), plan.statistics)

    def test_placeholder_counts_stay_in_sync_with_field_map(self):
        """The incremental per-relation placeholder counters must equal a
        recount of ``field_to_cid`` after every mutation path — ingestion,
        query execution (including the difference operator's result-tuple
        dropping) and the chase."""
        uwsdt = UWSDT.from_orset_relations(_chaseable_orsets())
        query = (
            BaseRelation("R")
            .join(BaseRelation("S"), "K", "K2")
            .difference(BaseRelation("R").select(eq("K", 1)).join(BaseRelation("S"), "K", "K2"))
        )
        query.run(uwsdt, "P", optimize=True)
        chase_uwsdt(uwsdt, [FunctionalDependency("R", ["K"], "A")])
        for relation_schema in uwsdt.schema:
            recount = sum(
                1 for f in uwsdt.field_to_cid if f.relation == relation_schema.name
            )
            assert uwsdt.relation_placeholder_count(relation_schema.name) == recount
        copied = uwsdt.copy()
        assert copied.relation_placeholder_count("R") == uwsdt.relation_placeholder_count("R")


class TestExplainProvenance:
    def test_explain_reports_cached_fresh_and_fallback(self):
        database = _database()
        plan1 = JOIN_QUERY.plan(database)
        assert "fresh sample" in plan1.explain()
        plan2 = JOIN_QUERY.plan(database)
        explained = plan2.explain()
        assert "R: cached sample" in explained
        assert "S: cached sample" in explained
        assert "cost model: database" in explained.splitlines()

    def test_explain_reports_mixed_provenance(self):
        database = _database()
        JOIN_QUERY.plan(database)
        database.relation("R").insert((0, 12_345))
        explained = JOIN_QUERY.plan(database).explain()
        assert "R: fresh sample" in explained
        assert "S: cached sample" in explained

    def test_explain_reports_fixed_constant_fallback(self):
        stats = Statistics(
            row_counts={"R": 10, "S": 10},
            attributes={"R": ("K", "A"), "S": ("K2", "B")},
        )
        from repro.core.planner import plan as build_plan

        explained = build_plan(JOIN_QUERY, stats).explain()
        assert "R: fixed-constant fallback" in explained


class TestCatalogEdges:
    def test_unknown_engine_rejected(self):
        with pytest.raises(QueryError):
            StatisticsCatalog(object())

    def test_restricted_view_samples_only_named_relations(self):
        database = _database()
        before = sampling_call_count()
        stats = Statistics.from_engine(database, sample_relations=("R",))
        assert sampling_call_count() == before + 1
        assert stats.sample("R") is not None
        assert stats.sample("S") is None
        # The restriction covers everything the view reads: a plan depends
        # on its query's relations only, so their version keys validate it.
        assert set(stats.row_counts) == {"R"}
        assert stats.relation_attributes("S") is None
        assert stats.provenance("S") == "fixed-constants"
        assert set(catalog_for(database).statistics(("R",)).row_counts) == {"R"}
