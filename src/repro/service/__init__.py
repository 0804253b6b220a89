"""The always-on query service: sessions, plan cache, self-correction.

The paper's representation systems are built for *interactive* querying
over large uncertain databases; this package is the serving layer that
makes repeated traffic cheap.  A :class:`QueryService` owns the registered
engines and serves concurrent asyncio sessions; per engine, a
:class:`~repro.service.plan_cache.PlanCache` memoizes the full planning
pipeline keyed by query fingerprint and validated by catalog version keys,
and the executed plans' cardinality feedback (recorded under semantic keys
by :func:`repro.core.exec.record_into_catalog`) lets the service evict and replan hot
queries whose estimates stay wrong — the self-correcting loop.

* :mod:`repro.service.server`     — the service, request path, replan trigger.
* :mod:`repro.service.session`    — client sessions and snapshot reads.
* :mod:`repro.service.plan_cache` — fingerprint → lowered plan, version-key
  validated.
* :mod:`repro.service.benchmark`  — the concurrent-traffic benchmark
  (p50/p95/p99 + hit rate), run by ``python -m repro.service``.

Observability: every request runs under a ``request`` span (cache lookup,
planning and each physical operator nest inside it), feeds the process-wide
:mod:`repro.obs` metrics registry, and lands in the slow-query log when it
crosses the configured threshold; ``Session.explain_analyze`` renders the
executed plan with cache/feedback provenance.  See ``docs/observability.md``.
"""

from .plan_cache import CACHE_ATTRIBUTE, EVICTION_REASONS, CachedPlan, PlanCache, plan_cache_for
from .server import (
    DEFAULT_REPLAN_MIN_EXECUTIONS,
    DEFAULT_REPLAN_QERROR,
    DEFAULT_SLOW_QUERY_SECONDS,
    SLOW_QUERY_ENV,
    QueryOutcome,
    QueryService,
    ServiceStats,
    SlowQuery,
)
from .session import Session, Snapshot
from .benchmark import run_traffic_benchmark, traffic_database, traffic_queries

__all__ = [
    "CACHE_ATTRIBUTE",
    "EVICTION_REASONS",
    "CachedPlan",
    "PlanCache",
    "plan_cache_for",
    "DEFAULT_REPLAN_MIN_EXECUTIONS",
    "DEFAULT_REPLAN_QERROR",
    "DEFAULT_SLOW_QUERY_SECONDS",
    "SLOW_QUERY_ENV",
    "QueryOutcome",
    "QueryService",
    "ServiceStats",
    "SlowQuery",
    "Session",
    "Snapshot",
    "run_traffic_benchmark",
    "traffic_database",
    "traffic_queries",
]
