"""The asyncio query service: sessions, cache hits, concurrency.

End-to-end coverage of :mod:`repro.service`:

* a repeated query is served from the plan cache — zero sampling calls,
  zero planner invocations, identical results,
* mutations invalidate exactly the affected fingerprints,
* snapshot reads detect concurrent writers via version keys,
* the shared statistics catalog and index pool survive overlapping clients
  (thread stress for the locking added in this PR),
* the concurrent-traffic benchmark reports a healthy hit rate and a warm
  speedup of at least the 3× acceptance bar.
"""

import asyncio
import threading

import pytest

from repro.core import UWSDT, WSD
from repro.core.algebra import BaseRelation
from repro.core.planner import catalog_for, plan_call_count, sampling_call_count
from repro.relational.indexes import hash_index
from repro.relational import Database, QueryError, Relation, RelationSchema
from repro.relational.predicates import AttrConst
from repro.service import QueryService, run_traffic_benchmark
from repro.worlds import OrSet, OrSetRelation


def small_database() -> Database:
    r = Relation(RelationSchema("R", ("A", "RV")), [(i % 5, i) for i in range(40)])
    s = Relation(RelationSchema("S", ("B", "C")), [(i % 5, i % 7) for i in range(40)])
    t = Relation(RelationSchema("T", ("D", "TV")), [(i % 7, i) for i in range(40)])
    return Database([r, s, t])


class TestServiceRequests:
    def test_repeated_query_is_served_from_cache(self):
        async def scenario():
            service = QueryService()
            service.register_engine("database", small_database())
            session = service.session("database", "client")
            query = BaseRelation("R").join(BaseRelation("S"), "A", "B")

            first = await session.execute(query)
            plans_before = plan_call_count()
            samples_before = sampling_call_count()
            second = await session.execute(query)

            assert not first.cached and second.cached
            assert plan_call_count() == plans_before
            assert sampling_call_count() == samples_before
            assert sorted(first.value) == sorted(second.value)
            assert service.plan_cache("database").hits == 1
            assert session.hit_rate == 0.5
            assert service.stats.hit_rate == 0.5

        asyncio.run(scenario())

    def test_sessions_share_the_plan_cache(self):
        async def scenario():
            service = QueryService()
            service.register_engine("database", small_database())
            query = BaseRelation("T").select(AttrConst("D", "=", 3))
            alice = service.session("database", "alice")
            bob = service.session("database", "bob")
            await alice.execute(query)
            outcome = await bob.execute(query)
            assert outcome.cached
            assert bob.cache_hits == 1

        asyncio.run(scenario())

    def test_mutation_invalidates_only_touched_fingerprints(self):
        async def scenario():
            service = QueryService()
            service.register_engine("database", small_database())
            session = service.session("database")
            joined = BaseRelation("R").join(BaseRelation("S"), "A", "B")
            lone = BaseRelation("T").select(AttrConst("D", "=", 3))
            await session.execute(joined)
            await session.execute(lone)

            await session.mutate(lambda engine: engine.relation("R").insert((4, 999)))

            after_joined = await session.execute(joined)
            after_lone = await session.execute(lone)
            assert not after_joined.cached  # touched R → invalidated
            assert after_lone.cached  # untouched → still warm
            # The refreshed plan reflects the mutation.
            oracle = joined.run(service.engines["database"], optimize=False)
            assert sorted(after_joined.value) == sorted(oracle)

        asyncio.run(scenario())

    def test_snapshot_detects_concurrent_writers(self):
        async def scenario():
            service = QueryService()
            service.register_engine("database", small_database())
            session = service.session("database")
            snapshot = session.snapshot(["R", "T"])
            assert snapshot.valid()
            await session.mutate(lambda engine: engine.relation("R").insert((4, 997)))
            assert snapshot.changed() == ["R"]
            assert not snapshot.valid()

        asyncio.run(scenario())

    def test_a_wsd_is_served_as_its_uwsdt(self):
        forms = OrSetRelation.from_dicts("R", ["A", "RV"], [{"A": OrSet([1, 2]), "RV": 7}])
        service = QueryService()
        with pytest.raises(QueryError, match=r"UWSDT\.from_wsd"):
            service.register_engine("wsd", WSD.from_orset_relation(forms))
        assert "wsd" not in service.engines

        async def scenario():
            service.register_engine("uwsdt", UWSDT.from_wsd(WSD.from_orset_relation(forms)))
            session = service.session("uwsdt")
            query = BaseRelation("R").select(AttrConst("A", "=", 1))
            first = await session.execute(query)
            second = await session.execute(query)
            assert not first.cached and second.cached

        asyncio.run(scenario())


class TestSharedStateUnderConcurrency:
    def test_catalog_and_index_pool_survive_overlapping_clients(self):
        database = small_database()
        catalog = catalog_for(database)
        relation = database.relation("R")
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    catalog.entry("R")
                    catalog.statistics(("R", "S"))
                    hash_index(relation, ("A",))
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        def writer():
            try:
                for i in range(200):
                    relation.insert((5 + (i % 7), 1000 + i))
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        writers = [threading.Thread(target=writer) for _ in range(2)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()

        assert errors == []
        # The catalog converges on the final state of the relation.
        entry, _ = catalog.entry("R")
        assert entry.row_count == len(relation.rows)
        index = hash_index(relation, ("A",))
        indexed = sum(len(index.lookup(key)) for key in range(12))
        assert indexed == len(relation.rows)

    def test_interleaved_async_clients_agree_on_results(self):
        async def scenario():
            service = QueryService()
            service.register_engine("database", small_database())
            query = BaseRelation("R").join(BaseRelation("S"), "A", "B")
            sessions = [service.session("database", f"c{i}") for i in range(4)]

            async def drive(session):
                return [await session.execute(query) for _ in range(5)]

            outcomes = await asyncio.gather(*(drive(s) for s in sessions))
            flat = [outcome for batch in outcomes for outcome in batch]
            baseline = sorted(flat[0].value)
            assert all(sorted(outcome.value) == baseline for outcome in flat)
            # Exactly one cold plan across every interleaving.
            assert sum(1 for outcome in flat if not outcome.cached) == 1

        asyncio.run(scenario())


class TestTrafficBenchmark:
    def test_smoke_meets_the_acceptance_bar(self):
        report = run_traffic_benchmark(rows=600, clients=3, requests_per_client=12)
        assert report["requests"] == 36
        assert report["cache"]["hit_rate"] >= 0.5
        latency = report["latency_seconds"]
        assert latency["warm_p50"] is not None and latency["warm_p99"] is not None
        assert latency["warm_p50"] <= latency["warm_p99"]
        # The acceptance bar: repeated traffic at least 3× faster than cold.
        assert report["warm_speedup"] >= 3.0
