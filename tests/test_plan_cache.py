"""Plan-cache correctness: fingerprints, version-key invalidation, oracles.

The engine's :class:`~repro.core.exec.plan_cache.PlanCache` memoizes the
whole planning pipeline (rewrite + join-order DP + sampling + lowering)
keyed by the query fingerprint and validated against the catalog version
keys of every touched base relation.  Every default ``Query.run`` and every
service request goes through it.  The contract under test:

* equal query text ⇒ equal fingerprint ⇒ cache hit with **zero** sampling
  and **zero** planner invocations,
* any mutation or replacement of a touched base relation (insert / remove /
  template insert / chase / ``Database.replace`` / ``UWSDT.set_template``)
  invalidates exactly the entries that touch it,
* ``plan=``, ``physical=``, ``force_join=`` and ``optimize=False`` bypass
  the cache; ``Query.run`` and the service share its entries,
* the cache is bounded, and safe under concurrent ``Query.run``,
* a cache *hit* never changes results: executing the cached physical plan
  matches a freshly planned run on both engines.  That a hit, and the
  replan after an insert or a chase, equal brute force in every world is
  the possible-worlds oracle's (its cached and after-mutation cells).
"""

import asyncio
import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import invariants
from repro.analysis.schema import AnalysisError
from repro.core import UWSDT, WSD
from repro.core.algebra import BaseRelation, evaluate_on_database, evaluate_on_wsd
from repro.core.exec import ColumnarBackend, backend_for, lower
from repro.core.exec.plan_cache import MAX_ENTRIES, plan_cache_for
from repro.relational.errors import QueryError
from repro.core.planner import plan_call_count, sampling_call_count
from repro.core.planner.catalog import catalog_for
from repro.obs.metrics import get_registry
from repro.relational import Database, Relation, RelationSchema
from repro.relational.predicates import AttrAttr, AttrConst, Not
from repro.service import QueryService
from repro.worlds import OrSet, OrSetRelation

from _fixtures import ORACLE_SCHEMAS, assert_same_result_distribution, census_engines


def small_database() -> Database:
    r = Relation(RelationSchema("R", ("A", "RV")), [(i % 5, i) for i in range(40)])
    s = Relation(RelationSchema("S", ("B", "C")), [(i % 5, i % 7) for i in range(40)])
    t = Relation(RelationSchema("T", ("D", "TV")), [(i % 7, i) for i in range(40)])
    return Database([r, s, t])


def small_orset_relations():
    relations = []
    for name, attributes in ORACLE_SCHEMAS:
        schema = RelationSchema(name, attributes)
        relation = OrSetRelation(schema)
        relation.insert((1, OrSet([1, 2]), 3) if name == "R" else (1, 2, 3))
        relation.insert((2, 0, 1))
        relations.append(relation)
    return relations


def populate(cache, query, engine, backend=None):
    """The cache's entry for ``query`` (planned, lowered and stored on a miss)."""
    entry, _hit = cache.lowered(query, backend or backend_for(engine))
    return entry


class TestFingerprints:
    def test_equal_queries_share_fingerprint(self):
        first = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        second = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        assert first is not second
        assert first.fingerprint() == second.fingerprint()

    def test_different_queries_differ(self):
        base = BaseRelation("R").select(AttrConst("A", "=", 1))
        other_constant = BaseRelation("R").select(AttrConst("A", "=", 2))
        other_shape = BaseRelation("R").select(AttrAttr("A", "=", "RV"))
        prints = {q.fingerprint() for q in (base, other_constant, other_shape)}
        assert len(prints) == 3


class TestDatabaseInvalidation:
    def test_hit_skips_sampling_and_planning(self):
        database = small_database()
        cache = plan_cache_for(database)
        query = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        entry = populate(cache, query, database)

        plans_before = plan_call_count()
        samples_before = sampling_call_count()
        hit = cache.lookup(query.fingerprint())
        assert hit is entry
        result = query.run(database, physical=hit.physical)
        assert plan_call_count() == plans_before
        assert sampling_call_count() == samples_before
        assert sorted(result) == sorted(query.run(database, optimize=False))
        assert cache.hits == 1 and cache.misses == 1

    def test_insert_invalidates_exactly_the_touched_entries(self):
        database = small_database()
        cache = plan_cache_for(database)
        joined = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        lone = BaseRelation("T").select(AttrConst("D", "=", 3))
        populate(cache, joined, database)
        populate(cache, lone, database)

        database.relation("R").insert((4, 999))
        assert cache.lookup(joined.fingerprint()) is None
        assert cache.lookup(lone.fingerprint()) is not None
        assert cache.invalidations == 1

    def test_remove_invalidates(self):
        database = small_database()
        cache = plan_cache_for(database)
        lone = BaseRelation("T").select(AttrConst("D", "=", 3))
        populate(cache, lone, database)
        database.relation("T").remove((0, 0))
        assert cache.lookup(lone.fingerprint()) is None

    def test_refreshed_entry_serves_again(self):
        database = small_database()
        cache = plan_cache_for(database)
        query = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        populate(cache, query, database)
        database.relation("R").insert((4, 998))
        assert cache.lookup(query.fingerprint()) is None
        refreshed = populate(cache, query, database)
        assert cache.lookup(query.fingerprint()) is refreshed
        result = query.run(database, physical=refreshed.physical)
        assert sorted(result) == sorted(query.run(database, optimize=False))


class TestRepresentationEngines:
    def test_uwsdt_template_insert_invalidates(self):
        uwsdt = UWSDT.from_orset_relations(small_orset_relations())
        cache = plan_cache_for(uwsdt)
        query = BaseRelation("R").join(BaseRelation("S"), "A1", "B1")
        populate(cache, query, uwsdt)
        assert cache.lookup(query.fingerprint()) is not None

        uwsdt.add_template_tuple("R", "fresh", (7, 7, 7))
        assert cache.lookup(query.fingerprint()) is None

    def test_uwsdt_cached_physical_matches_cold_plan(self):
        uwsdt = UWSDT.from_orset_relations(small_orset_relations())
        cache = plan_cache_for(uwsdt)
        query = BaseRelation("R").join(BaseRelation("S"), "A1", "B1")
        entry = populate(cache, query, uwsdt)

        warm_copy = uwsdt.copy()
        query.run(warm_copy, "P", physical=entry.physical)
        cold_copy = uwsdt.copy()
        query.run(cold_copy, "P", optimize=False)
        assert_same_result_distribution(warm_copy.rep(), cold_copy.rep(), "P")

    def test_uwsdt_entry_survives_its_own_executions(self):
        # Q̂ extends the UWSDT with intermediates but moves no base relation's
        # version key, so a cached plan stays valid across its executions.
        uwsdt = UWSDT.from_orset_relations(small_orset_relations())
        cache = plan_cache_for(uwsdt)
        query = BaseRelation("R").join(BaseRelation("S"), "A1", "B1")
        entry = populate(cache, query, uwsdt)
        for name in ("P1", "P2"):
            query.run(uwsdt, name, physical=entry.physical)
            assert cache.lookup(query.fingerprint()) is entry
        assert cache.invalidations == 0

    def test_a_wsd_is_cached_as_its_uwsdt(self):
        wsd = WSD.from_orset_relations(small_orset_relations())
        with pytest.raises(QueryError, match=r"UWSDT\.from_wsd"):
            plan_cache_for(wsd)
        converted = UWSDT.from_wsd(wsd)
        cache = plan_cache_for(converted)
        query = BaseRelation("S").product(BaseRelation("T")).select(AttrAttr("B0", "=", "C0"))
        entry = populate(cache, query, converted)

        warm_copy = converted.copy()
        query.run(warm_copy, "P", physical=entry.physical)
        specified = wsd.copy()
        evaluate_on_wsd(query, specified, "P")
        assert_same_result_distribution(warm_copy.to_wsd().rep(), specified.rep(), "P")


class TestEngineLifetime:
    """The plan cache hangs off its engine and must not point back at it: the
    service discards whole engine copies, and a cycle would keep each one (rows,
    templates, components) resident until the collector's next full pass."""

    @pytest.mark.parametrize(
        "build, left_key, right_key",
        [
            (small_database, "A", "B"),
            (lambda: UWSDT.from_orset_relations(small_orset_relations()), "A1", "B1"),
        ],
        ids=["database", "uwsdt"],
    )
    def test_engine_with_catalog_cache_and_cached_plan_dies_by_refcount(
        self, build, left_key, right_key
    ):
        query = BaseRelation("R").join(BaseRelation("S"), left_key, right_key)
        # The user path: the suite's plan verifier builds recursive closures
        # over the backend, which are cyclic garbage of their own.
        previous = invariants.set_verification(False)
        gc.collect()
        gc.disable()
        try:
            engine = build()
            catalog_for(engine)
            cache = plan_cache_for(engine)
            entry = populate(cache, query, engine)
            assert cache.lookup(query.fingerprint()) is entry
            alive = weakref.ref(engine)
            del engine, cache, entry
            assert alive() is None
        finally:
            gc.enable()
            invariants.set_verification(previous)


class TestBackendKeying:
    """The cache key includes the executing backend: a row-backend plan
    cached for a query must never be served to a columnar request (its
    physical tree has no Materialize/Dematerialize boundaries, so the
    columnar backend would run it row-at-a-time — or worse, a columnar
    tree handed to a row backend would crash on batch handles)."""

    def test_cached_row_plan_is_not_served_to_a_columnar_request(self):
        database = small_database()
        cache = plan_cache_for(database)
        query = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        row_entry = populate(cache, query, database)

        # Same fingerprint, different backend: must miss, not serve the
        # row plan.
        assert cache.lookup(query.fingerprint(), "columnar") is None

        columnar_entry = populate(cache, query, database, ColumnarBackend(database))

        # Both entries coexist under the same fingerprint, keyed by backend.
        assert columnar_entry is not row_entry
        assert cache.lookup(query.fingerprint(), "columnar") is columnar_entry
        assert cache.lookup(query.fingerprint()) is row_entry
        assert row_entry.backend == "database"
        assert columnar_entry.backend == "columnar"

        # And each executes to the same rows on its own backend.
        expected = sorted(query.run(database, optimize=False))
        assert sorted(query.run(database, physical=row_entry.physical)) == expected
        assert (
            sorted(
                query.run(
                    database,
                    physical=columnar_entry.physical,
                    backend=ColumnarBackend(database),
                )
            )
            == expected
        )

    def test_executing_a_plan_on_the_wrong_backend_raises(self):
        database = small_database()
        query = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        plan = query.plan(database)
        columnar_physical = lower(plan.chosen, ColumnarBackend(database), plan.statistics)
        with pytest.raises(QueryError):
            columnar_physical.execute(backend_for(database), "mismatch")

    def test_service_keys_cache_entries_by_backend(self):
        from repro.service import QueryService

        async def scenario():
            service = QueryService()
            service.register_engine("database", small_database())
            session = service.session("database")
            query = BaseRelation("R").join(BaseRelation("S"), "A", "B")

            row_run = await session.execute(query)
            columnar_run = await session.execute(query, backend="columnar")
            # The columnar request must not hit the row entry...
            assert not row_run.cached and not columnar_run.cached
            assert row_run.backend == "database"
            assert columnar_run.backend == "columnar"
            assert sorted(row_run.value) == sorted(columnar_run.value)

            # ...but each backend's own entry serves repeats.
            assert (await session.execute(query)).cached
            assert (await session.execute(query, backend="columnar")).cached

        asyncio.run(scenario())


class TestReplacedRelations:
    """A version key names the relation object, not only its mutation count:
    ``Relation.version`` of a bulk-built relation is its row count, so a
    replacement of the same size has the same count as the relation it
    replaces, and only the identity tells a plan cached for the old one
    from a plan for the new one."""

    @staticmethod
    def _relation(second: str, offset: int = 0) -> Relation:
        rows = [(i + offset, -i) for i in range(100)]
        return Relation.from_tuples(RelationSchema("R", ("A", second)), rows)

    def test_database_replace_invalidates_plans_and_snapshots(self):
        database = Database([self._relation("B")])
        query = BaseRelation("R").select(AttrConst("A", "=", 5)).project(["A", "B"])

        async def scenario():
            service = QueryService()
            service.register_engine("db", database)
            session = service.session("db")
            snapshot = session.snapshot(["R"])
            assert sorted((await session.execute(query)).value) == [(5, -5)]
            await session.mutate(lambda engine: engine.replace(self._relation("C")))
            # Planned afresh, the query names an attribute R no longer has.
            with pytest.raises(AnalysisError, match="unknown-attribute"):
                await session.execute(query)
            assert snapshot.changed() == ["R"]

        asyncio.run(scenario())
        with pytest.raises(AnalysisError, match="unknown-attribute"):
            query.run(database)

    def test_uwsdt_set_template_invalidates_plans_and_snapshots(self):
        uwsdt = UWSDT.from_relation(self._relation("B"))
        query = BaseRelation("R").select(AttrConst("A", "=", 5))

        async def scenario():
            service = QueryService()
            service.register_engine("uw", uwsdt)
            session = service.session("uw")
            snapshot = session.snapshot(["R"])
            await session.execute(query)
            assert (await session.execute(query)).cached
            certain = uwsdt.templates["R"].certain
            shifted = Relation.from_tuples(certain.schema, [(a + 3, b) for a, b in certain])
            await session.mutate(lambda engine: engine.set_template("R", shifted, []))
            fresh = await session.execute(query, "fresh")
            assert not fresh.cached
            assert snapshot.changed() == ["R"]
            return fresh.result_name

        name = asyncio.run(scenario())
        verbatim = uwsdt.copy()
        query.run(verbatim, "verbatim", optimize=False)
        assert sorted(uwsdt.templates[name].certain) == sorted(
            verbatim.templates["verbatim"].certain
        ) == [(5, -2)]


class TestOnePath:
    """``Query.run``, ``physical_plan``, ``explain_analyze`` and the service
    share one cache; the explicit arguments bypass it."""

    def test_repeated_runs_plan_once_and_an_insert_replans_once(self):
        database = small_database()
        query = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        before = plan_call_count()
        first = query.run(database)
        assert query.run(database) == first
        assert plan_call_count() == before + 1
        database.relation("R").insert((4, 999))
        query.run(database)
        query.run(database)
        assert plan_call_count() == before + 2
        assert query.physical_plan(database) is plan_cache_for(database).lookup(
            query.fingerprint()
        ).physical

    def test_explicit_arguments_bypass_the_cache(self):
        database = small_database()
        query = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        cache = plan_cache_for(database)
        expected = sorted(query.run(database))
        counts = (cache.hits, cache.misses, len(cache))
        physical = query.physical_plan(database, optimize=False)
        results = [
            query.run(database, plan=query.plan(database)),
            query.run(database, physical=physical),
            query.run(database, force_join="hash"),
            query.run(database, force_join="index-nested-loop"),
            query.run(database, optimize=False),
        ]
        query.physical_plan(database, force_join="hash")
        query.explain_analyze(database, optimize=False)
        assert (cache.hits, cache.misses, len(cache)) == counts
        assert all(sorted(result) == expected for result in results)

    def test_a_run_after_a_service_request_is_a_hit(self):
        database = small_database()
        query = BaseRelation("R").join(BaseRelation("S"), "A", "B")

        async def request():
            service = QueryService()
            service.register_engine("db", database)
            return await service.session("db").execute(query)

        served = asyncio.run(request())
        cache = plan_cache_for(database)
        hits, plans = cache.hits, plan_call_count()
        assert sorted(query.run(database)) == sorted(served.value)
        assert cache.hits == hits + 1 and plan_call_count() == plans
        assert "cost model: database" in query.explain_analyze(database)
        assert cache.hits == hits + 2

    def test_census_queries_served_twice_on_a_chased_uwsdt(self):
        from repro.census import census_query, query_names
        from repro.core.confidence import uwsdt_possible_with_confidence

        _database, chased = census_engines(200, 0.005)
        for name in query_names():
            query = census_query(name)
            verbatim = chased.copy()
            query.run(verbatim, "V", optimize=False)
            expected = sorted(uwsdt_possible_with_confidence(verbatim, "V"), key=repr)
            for label in (f"{name}_a", f"{name}_b"):
                query.run(chased, label)
                served = sorted(uwsdt_possible_with_confidence(chased, label), key=repr)
                assert [row for row, _ in served] == [row for row, _ in expected]
                assert [p for _, p in served] == pytest.approx([p for _, p in expected])
        cache = plan_cache_for(chased)
        assert len(cache) == len(query_names())
        assert cache.hits == len(query_names())

    def test_the_cache_is_bounded(self):
        database = small_database()
        cache = plan_cache_for(database)
        evictions = get_registry().counter("repro.plan_cache.evictions", reason="bound")
        before = evictions.value
        for constant in range(MAX_ENTRIES + 20):
            query = BaseRelation("T").select(AttrConst("TV", "=", constant))
            query.run(database)
            assert len(cache) <= MAX_ENTRIES
        assert evictions.value - before == MAX_ENTRIES

    def test_concurrent_runs_return_the_single_thread_answers(self):
        from repro.census import census_query, query_names

        database, _chased = census_engines(400, 0.005)
        queries = [census_query(name) for name in query_names()]
        expected = [sorted(evaluate_on_database(query, database)) for query in queries]
        cache = plan_cache_for(database)
        barrier = threading.Barrier(8, timeout=60)

        def work(_index):
            barrier.wait()
            return [[sorted(query.run(database)) for query in queries] for _ in range(2)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                answers = list(pool.map(work, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(passes == [expected, expected] for passes in answers)
        # One lookup per run, none lost; every query planned at least once.
        assert cache.hits + cache.misses == 8 * 2 * len(queries)
        assert len(cache) == len(queries)


MIXED = Database(
    [
        Relation(
            RelationSchema("M", ("A", "B")),
            [(1, "1"), (2, 1.5), ("1", 1), (0, True), (1.5, "x"), ("x", 0)],
        )
    ]
)

predicates = st.one_of(
    st.builds(
        AttrConst,
        st.sampled_from(["A", "B"]),
        st.sampled_from(["=", "!=", "<"]),
        st.sampled_from([1, 1.0, True, "1"]),
    ),
    st.builds(AttrAttr, st.just("A"), st.sampled_from(["=", "!="]), st.just("B")),
)


def _value(predicate):
    """A predicate as a value: what two queries must agree on to share an entry."""
    if isinstance(predicate, AttrConst):
        constant = predicate.constant
        return ("const", predicate.attribute, predicate.op, type(constant), constant)
    return ("attr", predicate.left, predicate.op, predicate.right)


class TestEntriesAreKeyedByValue:
    @given(shapes=st.lists(st.tuples(predicates, st.booleans()), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_queries_differing_in_a_constant_type_attribute_or_shape_never_share(
        self, shapes
    ):
        database = Database([MIXED.relation("M").copy()])
        values = set()
        for predicate, negate in shapes:
            query = BaseRelation("M").select(Not(predicate) if negate else predicate)
            answer = evaluate_on_database(query, database)
            assert sorted(query.run(database), key=repr) == sorted(answer, key=repr)
            values.add((negate, _value(predicate)))
        assert len(plan_cache_for(database)) == len(values)

    # Two pairs of unequal queries whose display texts are identical: the
    # attribute list ``A, B`` is also one attribute named ``A, B``, and
    # ``δ[B→C→D]`` renames ``B`` to ``C→D`` as well as ``B→C`` to ``D``.
    # Whichever of a pair runs second must get its own answer.
    COLLIDING = {
        "projection": (
            BaseRelation("R").project(["A", "B"]),
            BaseRelation("R").project(["A, B"]),
        ),
        "rename": (
            BaseRelation("R").rename("B", "C→D"),
            BaseRelation("R").rename("B→C", "D"),
        ),
    }

    TRICKY = RelationSchema("R", ("A", "B", "B→C", "A, B"))
    TRICKY_ROWS = ((1, 2, 3, 4), (5, 6, 7, 8), (1, 2, 9, 9))

    def tricky_database(self):
        return Database([Relation(self.TRICKY, self.TRICKY_ROWS)])

    def tricky_uwsdt(self):
        relation = OrSetRelation(self.TRICKY)
        for row in self.TRICKY_ROWS:
            relation.insert(row)
        return UWSDT.from_orset_relation(relation)

    @staticmethod
    def one_world_answer(uwsdt, name):
        (world,) = list(uwsdt.rep())
        answer = world.database.relation(name)
        return answer.schema.attributes, sorted(answer.rows)

    @pytest.mark.parametrize("pair", sorted(COLLIDING))
    def test_queries_rendering_alike_each_get_their_own_answer_on_a_database(self, pair):
        database = self.tricky_database()
        for query in self.COLLIDING[pair]:
            answer, expected = query.run(database), evaluate_on_database(query, database)
            assert answer.schema.attributes == expected.schema.attributes
            assert sorted(answer.rows) == sorted(expected.rows)
        assert len(plan_cache_for(database)) == 2

    @pytest.mark.parametrize("pair", sorted(COLLIDING))
    def test_queries_rendering_alike_each_get_their_own_answer_on_a_uwsdt(self, pair):
        uwsdt = self.tricky_uwsdt()
        for index, query in enumerate(self.COLLIDING[pair]):
            name = f"P{index}"
            written = uwsdt.copy()
            query.run(written, name, optimize=False)
            query.run(uwsdt, name)
            assert self.one_world_answer(uwsdt, name) == self.one_world_answer(written, name)
        assert len(plan_cache_for(uwsdt)) == 2

    @pytest.mark.parametrize("pair", sorted(COLLIDING))
    def test_queries_rendering_alike_each_get_their_own_answer_from_the_service(self, pair):
        database = self.tricky_database()
        uwsdt = self.tricky_uwsdt()

        async def serve():
            service = QueryService()
            service.register_engine("db", database)
            service.register_engine("uw", uwsdt)
            outcomes = []
            for engine in ("db", "uw"):
                outcomes.append([])
                for query in self.COLLIDING[pair]:
                    outcomes[-1].append(await service.session(engine).execute(query))
            return outcomes

        on_database, on_uwsdt = asyncio.run(serve())
        for query, outcome in zip(self.COLLIDING[pair], on_database):
            expected = evaluate_on_database(query, database)
            assert outcome.value.schema.attributes == expected.schema.attributes
            assert sorted(outcome.value.rows) == sorted(expected.rows)
        for query, outcome in zip(self.COLLIDING[pair], on_uwsdt):
            written = self.tricky_uwsdt()
            query.run(written, "P", optimize=False)
            assert self.one_world_answer(uwsdt, outcome.value) == self.one_world_answer(
                written, "P"
            )
        assert not any(outcome.cached for outcome in on_database + on_uwsdt)
