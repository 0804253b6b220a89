"""The always-on query service: sessions over registered engines.

The paper's representation systems are built for *interactive* querying
over large uncertain databases; this package is the serving layer.  A
:class:`QueryService` owns the registered engines and serves concurrent
asyncio sessions; repeated traffic is cheap because every request takes its
lowered plan from the engine's
:class:`~repro.core.exec.plan_cache.PlanCache`, the same cache a default
``Query.run`` uses.

* :mod:`repro.service.server`     — the service and its request path.
* :mod:`repro.service.session`    — client sessions and snapshot reads.
* :mod:`repro.service.benchmark`  — the concurrent-traffic benchmark
  (p50/p95/p99 + hit rate), run by ``python -m repro.service``.

Observability: every request runs under a ``request`` span (cache lookup,
planning and each physical operator nest inside it), feeds the process-wide
:mod:`repro.obs` metrics registry, and lands in the slow-query log when it
crosses the configured threshold; ``Session.explain_analyze`` renders the
executed plan with cache provenance.  See ``docs/observability.md``.
"""

from .server import (
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
