"""The observability subsystem: metrics registry, tracer, slow-query log.

Coverage of :mod:`repro.obs` and its wiring:

* counters / bounded histograms — get-or-create identity, label
  separation, exact totals under thread stress, bucket-edge percentiles,
  snapshot and Prometheus text exposition,
* the contextvar tracer — parentage within one context, isolation across
  interleaved asyncio tasks, root trace-id minting, JSONL and Chrome
  trace-event export, ``REPRO_TRACE`` configuration,
* **the disabled fast path**: a disabled tracer hands out the shared
  ``NOOP_SPAN`` singleton (no allocation, no recording during
  ``Query.run``) and its per-call cost stays within a generous micro
  bound — the acceptance criterion that observability is free when off,
* the service slow-query log: threshold from argument or
  ``REPRO_SLOW_QUERY_MS``, bounded retention, registry counter.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.core.algebra import BaseRelation
from repro.obs import (
    LATENCY_BUCKETS,
    NOOP_SPAN,
    QERROR_BUCKETS,
    configure_from_env,
    get_registry,
    get_tracer,
    render_name,
)
from repro.relational import Database, Relation, RelationSchema
from repro.relational.predicates import AttrConst
from repro.service import QueryService
from repro.service.server import slow_query_threshold_from_env


@pytest.fixture(autouse=True)
def clean_obs():
    """Reset the process-wide tracer and registry around every test."""
    get_tracer().reset()
    get_registry().reset()
    yield
    get_tracer().reset()
    get_registry().reset()


def small_database() -> Database:
    r = Relation(RelationSchema("R", ("A", "RV")), [(i % 5, i) for i in range(40)])
    s = Relation(RelationSchema("S", ("B", "C")), [(i % 5, i % 7) for i in range(40)])
    t = Relation(RelationSchema("T", ("D", "TV")), [(i % 7, i) for i in range(40)])
    return Database([r, s, t])


def small_query():
    return (
        BaseRelation("R")
        .select(AttrConst("A", "=", 1))
        .join(BaseRelation("S"), "A", "B")
        .join(BaseRelation("T"), "C", "D")
    )


# --------------------------------------------------------------------------- #
# MetricsRegistry
# --------------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_counter_identity_and_labels(self):
        registry = get_registry()
        a = registry.counter("repro.test.events", kind="x")
        b = registry.counter("repro.test.events", kind="x")
        c = registry.counter("repro.test.events", kind="y")
        assert a is b and a is not c
        a.inc()
        a.inc(3)
        assert a.value == 4 and c.value == 0

    def test_type_conflict_is_an_error(self):
        registry = get_registry()
        registry.counter("repro.test.conflict")
        with pytest.raises(TypeError):
            registry.histogram("repro.test.conflict")

    def test_render_name(self):
        assert render_name("repro.x", ()) == "repro.x"
        assert render_name("repro.x", (("a", "1"), ("b", "2"))) == 'repro.x{a="1",b="2"}'

    def test_histogram_totals_and_percentiles(self):
        histogram = get_registry().histogram(
            "repro.test.latency", buckets=(0.001, 0.01, 0.1, 1.0)
        )
        for value in (0.0005, 0.002, 0.002, 0.05, 0.5):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(0.5545)
        # Percentiles resolve to bucket upper edges.
        assert histogram.percentile(0.50) == 0.01
        assert histogram.percentile(0.99) == 1.0
        snap = histogram.snapshot()
        assert snap["min"] == 0.0005 and snap["max"] == 0.5
        assert snap["buckets"][-1][0] == "+Inf"

    def test_histogram_overflow_resolves_to_observed_max(self):
        histogram = get_registry().histogram("repro.test.over", buckets=(1.0,))
        histogram.observe(40.0)
        assert histogram.percentile(0.95) == 40.0

    def test_qerror_ladder_starts_at_one(self):
        assert QERROR_BUCKETS[0] == 1.0
        assert LATENCY_BUCKETS[0] == pytest.approx(1e-6)

    def test_thread_stress_exact_totals(self):
        registry = get_registry()
        counter = registry.counter("repro.test.stress")
        histogram = registry.histogram("repro.test.stress_seconds", buckets=(0.5, 1.0))

        def worker():
            for _ in range(1_000):
                counter.inc()
                histogram.observe(0.25)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8_000
        assert histogram.count == 8_000
        assert histogram.sum == pytest.approx(2_000.0)

    def test_snapshot_document(self):
        registry = get_registry()
        registry.counter("repro.test.events", kind="x").inc(2)
        registry.histogram("repro.test.seconds", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["format"] == "repro-metrics" and snap["version"] == 1
        assert snap["counters"]['repro.test.events{kind="x"}'] == 2
        assert snap["histograms"]["repro.test.seconds"]["count"] == 1
        json.dumps(snap)  # must be JSON-serializable as-is

    def test_prometheus_text(self):
        registry = get_registry()
        registry.counter("repro.test.events", kind="x").inc(2)
        registry.histogram("repro.test.seconds", buckets=(1.0,)).observe(0.5)
        text = registry.to_prometheus_text()
        assert "# TYPE repro_test_events counter" in text
        assert 'repro_test_events{kind="x"} 2' in text
        assert "# TYPE repro_test_seconds histogram" in text
        assert 'repro_test_seconds_bucket{le="1.0"} 1' in text
        assert "repro_test_seconds_count 1" in text


# --------------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------------- #


class TestTracer:
    def test_nesting_and_trace_id_inheritance(self):
        tracer = get_tracer()
        tracer.enable()
        with tracer.span("request") as root:
            with tracer.span("plan") as plan:
                assert plan.parent_id == root.span_id
                assert plan.trace_id == root.trace_id
                assert tracer.current() is plan
            assert tracer.current() is root
        assert tracer.current() is None
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["plan", "request"]  # children finish first

    def test_separate_roots_get_separate_trace_ids(self):
        tracer = get_tracer()
        tracer.enable()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_exception_annotates_error(self):
        tracer = get_tracer()
        tracer.enable()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = tracer.finished_spans()
        assert span.attrs["error"] == "ValueError"

    def test_asyncio_tasks_keep_isolated_span_trees(self):
        tracer = get_tracer()
        tracer.enable()

        async def request(name):
            with tracer.span("request", client=name) as root:
                await asyncio.sleep(0)
                with tracer.span("inner") as inner:
                    await asyncio.sleep(0)
                    assert inner.parent_id == root.span_id
                return root.trace_id

        async def scenario():
            return await asyncio.gather(*(request(f"c{i}") for i in range(4)))

        trace_ids = asyncio.run(scenario())
        assert len(set(trace_ids)) == 4
        spans = tracer.finished_spans()
        roots = {s.span_id: s for s in spans if s.name == "request"}
        for span in spans:
            if span.name == "inner":
                assert roots[span.parent_id].trace_id == span.trace_id

    def test_jsonl_export(self, tmp_path):
        tracer = get_tracer()
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(str(path)) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {line["name"] for line in lines} == {"outer", "inner"}
        assert all("seconds" in line and "trace_id" in line for line in lines)

    def test_chrome_export_parses_and_tracks_by_trace(self, tmp_path):
        tracer = get_tracer()
        tracer.enable()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        path = tmp_path / "trace.json"
        assert tracer.export_chrome(str(path)) == 2
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert all(
            event["ph"] == "X" and {"ts", "dur", "name", "pid", "tid"} <= set(event)
            for event in events
        )
        # Distinct traces render on distinct tracks.
        assert len({event["tid"] for event in events}) == 2

    def test_configure_from_env(self, tmp_path, monkeypatch):
        tracer = get_tracer()
        assert configure_from_env({"REPRO_TRACE": ""}) is None
        assert configure_from_env({"REPRO_TRACE": "0"}) is None
        assert configure_from_env({"REPRO_TRACE": "false"}) is None
        assert not tracer.enabled
        target = str(tmp_path / "env_trace.json")
        assert configure_from_env({"REPRO_TRACE": target}) == target
        assert tracer.enabled
        tracer.reset()
        # Redirect the "=1" default so the registered atexit export lands
        # in tmp rather than littering the working directory.
        from repro.obs import trace as trace_module

        default = str(tmp_path / "default_trace.json")
        monkeypatch.setattr(trace_module, "DEFAULT_TRACE_PATH", default)
        assert configure_from_env({"REPRO_TRACE": "1"}) == default
        assert tracer.enabled


# --------------------------------------------------------------------------- #
# The disabled fast path
# --------------------------------------------------------------------------- #


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_singleton(self):
        tracer = get_tracer()
        assert not tracer.enabled
        span = tracer.span("anything", key="value")
        assert span is NOOP_SPAN
        assert tracer.span("other") is NOOP_SPAN  # no per-call allocation
        with span as entered:
            entered.annotate(ignored=True)
        assert tracer.finished_spans() == []

    def test_query_run_records_nothing_while_disabled(self):
        tracer = get_tracer()
        query = small_query()
        result = query.run(small_database(), "__q", collect_metrics=True)
        assert result.metrics is not None
        assert tracer.finished_spans() == []
        assert tracer.dropped == 0

    def test_disabled_span_call_is_micro_cheap(self):
        """The instrumented hot path costs one attribute check per span site.

        The bound is deliberately generous (5 µs/call amortized over 50k
        calls — two orders of magnitude above the real cost) so the test
        asserts the *mechanism* (no allocation, no clock read, no contextvar
        write) without flaking on a loaded CI machine.
        """
        tracer = get_tracer()
        assert not tracer.enabled
        calls = 50_000
        start = time.perf_counter()
        for _ in range(calls):
            with tracer.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed / calls < 5e-6
        assert tracer.finished_spans() == []

    def test_query_run_timing_parity_disabled_vs_uninstrumented_floor(self):
        """Disabled-tracer Query.run stays within noise of its own repeat runs.

        We cannot run the *uninstrumented* code, so assert the next-best
        thing: with the tracer disabled the run-to-run spread of Query.run
        is dominated by ordinary noise, and enabling the tracer afterwards
        records spans (proving the instrumented sites are genuinely on this
        code path and were being skipped for free).
        """
        database = small_database()
        query = small_query()
        query.run(database, "__warm")  # warm caches, indexes, statistics

        tracer = get_tracer()
        assert not tracer.enabled
        disabled = min(
            _timed(lambda i=i: query.run(database, f"__d{i}")) for i in range(5)
        )
        tracer.enable()
        query.run(database, "__traced")
        assert any(
            span.name.startswith("execute-operator:") for span in tracer.finished_spans()
        )
        tracer.disable()
        disabled_again = min(
            _timed(lambda i=i: query.run(database, f"__e{i}")) for i in range(5)
        )
        # Both disabled measurements sit on the same fast path; 5x covers
        # scheduler noise while still catching an accidentally-left-on
        # tracing path (which costs far more than 5x on this tiny query).
        assert disabled_again < disabled * 5 + 1e-3


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


# --------------------------------------------------------------------------- #
# Slow-query log and service telemetry
# --------------------------------------------------------------------------- #


class TestSlowQueryLog:
    def test_threshold_zero_records_every_request(self):
        async def scenario():
            service = QueryService(slow_query_seconds=0.0)
            service.register_engine("database", small_database())
            session = service.session("database")
            await session.execute(small_query())
            await session.execute(small_query())
            return service

        service = asyncio.run(scenario())
        assert len(service.slow_queries) == 2
        record = service.slow_queries[0]
        assert record.engine == "database"
        assert record.seconds > 0
        assert record.cached is False and service.slow_queries[1].cached is True
        assert record.worst_qerror is None or record.worst_qerror >= 1.0
        assert get_registry().counter("repro.service.slow_queries").value == 2

    def test_high_threshold_records_nothing(self):
        async def scenario():
            service = QueryService(slow_query_seconds=60.0)
            service.register_engine("database", small_database())
            await service.session("database").execute(small_query())
            return service

        service = asyncio.run(scenario())
        assert len(service.slow_queries) == 0

    def test_threshold_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "5")
        assert slow_query_threshold_from_env() == pytest.approx(0.005)
        assert QueryService().slow_query_seconds == pytest.approx(0.005)
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "not-a-number")
        assert slow_query_threshold_from_env() == pytest.approx(0.25)
        monkeypatch.delenv("REPRO_SLOW_QUERY_MS")
        assert QueryService().slow_query_seconds == pytest.approx(0.25)

    def test_stats_snapshot_and_prometheus_exposition(self):
        async def scenario():
            service = QueryService()
            service.register_engine("database", small_database())
            session = service.session("database")
            for _ in range(3):
                await session.execute(small_query())
            return service

        service = asyncio.run(scenario())
        snap = service.stats_snapshot()
        assert snap["requests"] == 3 and snap["cache_hits"] == 2
        assert snap["plan_caches"]["database"]["hits"] == 2
        assert snap["registry"]["counters"]['repro.service.requests{cache="hit"}'] == 2
        assert snap["latency_seconds"]["warm_p50"] is not None
        json.dumps(snap)
        text = service.metrics_text()
        assert "# TYPE repro_service_requests counter" in text
        assert "repro_service_request_seconds_bucket" in text


class TestConcurrentSessionsObservability:
    def test_interleaved_sessions_produce_coherent_traces_and_counters(self):
        """Three asyncio clients against one engine: every request gets its
        own trace, operator spans chain to their request, and the registry
        totals equal the request count."""
        get_tracer().enable()

        async def scenario():
            service = QueryService()
            service.register_engine("database", small_database())
            sessions = [service.session("database", f"c{i}") for i in range(3)]

            async def client(session):
                for _ in range(4):
                    await session.execute(small_query())

            await asyncio.gather(*(client(s) for s in sessions))
            return service

        asyncio.run(scenario())
        spans = get_tracer().finished_spans()
        requests = [s for s in spans if s.name == "request"]
        assert len(requests) == 12
        assert len({s.trace_id for s in requests}) == 12
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if not span.name.startswith("execute-operator:"):
                continue
            cursor = span
            while cursor.parent_id is not None:
                cursor = by_id[cursor.parent_id]
            assert cursor.name == "request"
            assert cursor.trace_id == span.trace_id
        counters = get_registry().snapshot()["counters"]
        hits = counters.get('repro.service.requests{cache="hit"}', 0)
        misses = counters.get('repro.service.requests{cache="miss"}', 0)
        assert hits + misses == 12
