"""EXPLAIN ANALYZE and the REPRO_TRACE acceptance path.

The PR's acceptance criteria, as tests:

* ``Session.explain_analyze()`` on a *cached* four-way join renders every
  physical operator with estimated vs actual rows, q-error, per-child input
  cardinalities and self vs cumulative time, plus the cache provenance
  header; executions never change an estimate,
* ``Query.explain_analyze(engine)`` produces the same per-operator report
  without a service,
* a run with ``REPRO_TRACE`` set produces a Chrome trace-event file whose
  span tree nests ``execute-operator`` spans (transitively) under the
  ``request`` span, with timestamp containment on the request's track —
  verified both in-process and through a real subprocess whose export is
  written by the atexit hook,
* ``OperatorMetrics.describe`` / ``ExecutionMetrics.summary`` expose the
  self-vs-cumulative contract: per-operator ``seconds`` are non-overlapping
  self times, so their sum is the true cumulative total.
"""

import asyncio
import json
import os
import re
import subprocess
import sys

import pytest

from repro.core.algebra import BaseRelation
from repro.obs import get_registry, get_tracer
from repro.relational import Database, Relation, RelationSchema
from repro.relational.predicates import AttrConst
from repro.service import QueryService


@pytest.fixture(autouse=True)
def clean_obs():
    get_tracer().reset()
    get_registry().reset()
    yield
    get_tracer().reset()
    get_registry().reset()


def four_way_database() -> Database:
    r = Relation(RelationSchema("R", ("A", "RV")), [(i % 10, i) for i in range(60)])
    s = Relation(RelationSchema("S", ("B", "C")), [(i % 10, i % 12) for i in range(60)])
    t = Relation(RelationSchema("T", ("D", "TV")), [(i % 12, i % 9) for i in range(60)])
    u = Relation(RelationSchema("U", ("E", "UV")), [(i % 9, i) for i in range(60)])
    return Database([r, s, t, u])


def four_way_query():
    return (
        BaseRelation("R")
        .select(AttrConst("A", "=", 1))
        .join(BaseRelation("S"), "A", "B")
        .join(BaseRelation("T"), "C", "D")
        .join(BaseRelation("U"), "TV", "E")
    )


class TestSessionExplainAnalyze:
    def test_cached_four_way_join_report(self):
        """The acceptance criterion: a cached 4-way join, fully annotated."""

        async def scenario():
            service = QueryService()
            service.register_engine("database", four_way_database())
            session = service.session("database")
            query = four_way_query()
            for _ in range(3):  # populate the cache
                await session.execute(query)
            return await session.explain_analyze(query)

        report = asyncio.run(scenario())
        assert "EXPLAIN ANALYZE (database)" in report
        assert "plan source: plan cache (hit)" in report
        assert "fingerprint:" in report
        # Every operator line carries actuals, q-error and self/cum times.
        assert "actual" in report
        assert "q-err" in report
        assert "self" in report and "cum" in report
        # Join fan-in is explicit per child.
        assert " × " in report
        assert "4 cached execution(s)" in report  # three warm-ups + this run
        # All four base relations appear in the plan.
        for relation in ("R", "S", "T", "U"):
            assert f"({relation}" in report or f"{relation}," in report

    def test_miss_and_replan_provenance(self):
        async def scenario():
            service = QueryService()
            service.register_engine("database", four_way_database())
            session = service.session("database")
            return await session.explain_analyze(four_way_query())

        report = asyncio.run(scenario())
        assert "planned this request (miss)" in report
        assert "replan" not in report

    def test_trace_id_in_header_when_tracing(self):
        get_tracer().enable()

        async def scenario():
            service = QueryService()
            service.register_engine("database", four_way_database())
            session = service.session("database")
            return await session.explain_analyze(four_way_query())

        report = asyncio.run(scenario())
        assert "trace: t" in report


class TestQueryExplainAnalyze:
    def test_direct_report_without_a_service(self):
        database = four_way_database()
        query = four_way_query()
        report = query.explain_analyze(database)
        assert "EXPLAIN ANALYZE (database)" in report
        assert "actual" in report and "q-err" in report
        assert "self" in report and "cum" in report

    def test_feedback_provenance_after_repeated_runs(self):
        """Executions leave the estimates alone: same ``est`` per operator
        on a fresh engine and after two runs."""

        def estimates(report):
            return re.findall(r"\[est [\d,]+", report)

        query = four_way_query()
        fresh = query.explain_analyze(four_way_database())
        database = four_way_database()
        query.run(database, "__r1", collect_metrics=True)
        query.run(database, "__r2", collect_metrics=True)
        report = query.explain_analyze(database)
        assert estimates(report) and estimates(report) == estimates(fresh)
        assert "feedback" not in report


class TestSelfVsCumulativeTime:
    def test_describe_and_summary_expose_the_contract(self):
        database = four_way_database()
        result = four_way_query().run(database, "__m", collect_metrics=True)
        metrics = result.metrics
        join_records = [r for r in metrics.records if r.rows_in]
        assert join_records, "a 4-way join must execute join operators"
        for record in join_records:
            line = record.describe()
            assert "in " in line and " × ".join(
                f"{rows:,}" for rows in record.rows_in
            ) in line
            assert "ms self" in line
        summary = metrics.summary()
        assert "cumulative" in summary and "self" in summary
        # The physical tree agrees: root-cumulative == sum of self times.
        assert result.physical.cumulative_seconds() == pytest.approx(
            metrics.total_seconds
        )

    def test_total_seconds_is_sum_of_non_overlapping_self_times(self):
        database = four_way_database()
        result = four_way_query().run(database, "__t", collect_metrics=True)
        metrics = result.metrics
        assert metrics.total_seconds == pytest.approx(
            sum(record.seconds for record in metrics.records)
        )


class TestChromeTraceNesting:
    def test_request_span_contains_operator_spans(self, tmp_path):
        get_tracer().enable()

        async def scenario():
            service = QueryService()
            service.register_engine("database", four_way_database())
            session = service.session("database")
            for _ in range(2):
                await session.execute(four_way_query())

        asyncio.run(scenario())
        path = tmp_path / "trace.json"
        assert get_tracer().export_chrome(str(path)) > 0
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        by_id = {event["args"]["span_id"]: event for event in events}
        requests = [e for e in events if e["name"] == "request"]
        operators = [e for e in events if e["name"].startswith("execute-operator:")]
        assert requests and operators
        for operator in operators:
            cursor = operator
            while cursor["args"]["parent_id"] is not None:
                cursor = by_id[cursor["args"]["parent_id"]]
            assert cursor["name"] == "request"
            # Same synthetic track, and timestamp containment within it.
            assert operator["tid"] == cursor["tid"]
            assert operator["ts"] >= cursor["ts"] - 1e-3
            assert operator["ts"] + operator["dur"] <= cursor["ts"] + cursor["dur"] + 1e-3

    def test_repro_trace_env_subprocess_end_to_end(self, tmp_path):
        """REPRO_TRACE=<path> on a real process: the atexit hook writes a
        parseable Chrome trace with nested operator spans."""
        target = tmp_path / "subproc_trace.json"
        script = (
            "import asyncio\n"
            "from repro.core.algebra import BaseRelation\n"
            "from repro.relational import Database, Relation, RelationSchema\n"
            "from repro.relational.predicates import AttrConst\n"
            "from repro.service import QueryService\n"
            "r = Relation(RelationSchema('R', ('A', 'RV')), [(i % 5, i) for i in range(30)])\n"
            "s = Relation(RelationSchema('S', ('B', 'C')), [(i % 5, i % 7) for i in range(30)])\n"
            "q = BaseRelation('R').select(AttrConst('A', '=', 1)).join(BaseRelation('S'), 'A', 'B')\n"
            "async def main():\n"
            "    service = QueryService()\n"
            "    service.register_engine('database', Database([r, s]))\n"
            "    session = service.session('database')\n"
            "    await session.execute(q)\n"
            "    await session.execute(q)\n"
            "asyncio.run(main())\n"
        )
        env = dict(os.environ, REPRO_TRACE=str(target))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr
        document = json.loads(target.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert "request" in names
        assert any(name.startswith("execute-operator:") for name in names)
