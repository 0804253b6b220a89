"""Concurrent-traffic benchmark for the query service.

Unlike the single-query wall-time benchmarks of :mod:`repro.bench`, this
drives the service the way clients would: several asyncio sessions issuing
a mixed stream of repeated queries against one shared engine, and reports

* cold latency (plan-cache misses: full rewrite + DP + sampling + lowering),
* warm p50/p95/p99 latency (cache hits: fingerprint lookup + execution),
* the plan-cache hit rate, and
* the warm speedup ``cold_p50 / warm_p50``.

The workload joins three synthetic relations under a handful of distinct
selection constants, so the traffic has a small set of hot fingerprints —
the regime the plan cache is built for.  ``python -m repro.service --smoke``
runs it at CI sizes and writes the JSON artifact uploaded next to the BENCH
artifact.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List

from ..core.algebra import BaseRelation
from ..relational import Database, Relation, RelationSchema
from ..relational.predicates import AttrConst
from .server import QueryService

#: Distinct selection constants → distinct hot fingerprints in the traffic.
DEFAULT_DISTINCT_QUERIES = 4


def traffic_database(rows: int) -> Database:
    """Three joinable relations for selective R ⋈ S ⋈ T traffic.

    Key spaces are wide relative to ``rows`` so each hot query touches a
    handful of tuples — the interactive regime where planning (sampling +
    rewrite + join-order DP + lowering), not execution, dominates a cold
    request, which is exactly what the plan cache amortizes.
    """
    r = Relation(
        RelationSchema("R", ("A", "RV")),
        [(i % 200, i) for i in range(rows)],
    )
    s = Relation(
        RelationSchema("S", ("B", "C")),
        [(i % 200, i % 300) for i in range(rows)],
    )
    t = Relation(
        RelationSchema("T", ("D", "TV")),
        [(i % 300, i) for i in range(rows)],
    )
    return Database([r, s, t])


def traffic_queries(distinct: int = DEFAULT_DISTINCT_QUERIES) -> List[Any]:
    """``distinct`` structurally different three-way join queries."""
    queries = []
    for constant in range(distinct):
        queries.append(
            BaseRelation("R")
            .select(AttrConst("A", "=", constant))
            .join(BaseRelation("S"), "A", "B")
            .join(BaseRelation("T"), "C", "D")
        )
    return queries


async def _client(service: QueryService, session, queries: List[Any], requests: int) -> None:
    for index in range(requests):
        await session.execute(queries[index % len(queries)])


async def _drive(
    service: QueryService, clients: int, requests_per_client: int, queries: List[Any]
) -> None:
    sessions = [service.session("database", f"client-{i}") for i in range(clients)]
    # Rotate each client's starting offset so the sessions contend for the
    # same hot fingerprints rather than marching in lockstep.
    await asyncio.gather(
        *(
            _client(service, session, queries[i % len(queries):] + queries[: i % len(queries)], requests_per_client)
            for i, session in enumerate(sessions)
        )
    )


def run_traffic_benchmark(
    rows: int = 2_000,
    clients: int = 4,
    requests_per_client: int = 25,
    distinct_queries: int = DEFAULT_DISTINCT_QUERIES,
) -> Dict[str, Any]:
    """Run the concurrent-traffic benchmark; returns the report payload."""
    service = QueryService()
    service.register_engine("database", traffic_database(rows))
    queries = traffic_queries(distinct_queries)
    asyncio.run(_drive(service, clients, requests_per_client, queries))

    stats = service.stats
    cache = service.plan_cache("database")
    summary = stats.latency_summary()
    cold_p50 = summary["cold_p50"]
    warm_p50 = summary["warm_p50"]
    speedup = (
        cold_p50 / warm_p50 if cold_p50 is not None and warm_p50 not in (None, 0.0) else None
    )
    return {
        "format": "repro-service-bench",
        "version": 1,
        "workload": {
            "rows": rows,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "distinct_queries": distinct_queries,
        },
        "requests": stats.requests,
        "cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "invalidations": cache.invalidations,
            "hit_rate": stats.hit_rate,
        },
        "latency_seconds": summary,
        "warm_speedup": speedup,
    }
