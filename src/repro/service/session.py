"""Client sessions: per-client state and snapshot reads over version counters.

A :class:`Session` is one client's handle onto the
:class:`~repro.service.server.QueryService`.  It carries no engine state of
its own — engines, catalogs and plan caches are shared service-side — but it

* names the engine the client talks to,
* counts the client's own traffic (requests, cache hits, latency),
* provides *snapshot reads*: :meth:`snapshot` captures the catalog version
  keys of a set of relations, and :meth:`changed_since` later reports
  exactly which of them have mutated.  This is the same version-counter
  machinery the statistics catalog and the plan cache poll, reused as a
  client-visible consistency primitive — a client that snapshots before a
  batch of reads can detect (and react to) concurrent writers without any
  locking on the read path.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.planner.catalog import catalog_for

_session_ids = itertools.count(1)


class Snapshot:
    """Version keys of a set of relations at one instant."""

    def __init__(self, engine: Any, relations: Sequence[str]) -> None:
        catalog = catalog_for(engine)
        self.engine = engine
        self.versions: Dict[str, Tuple[Any, ...]] = {
            name: catalog.version_key(name) for name in relations
        }

    def changed(self) -> List[str]:
        """Relations whose version key has moved since the snapshot."""
        catalog = catalog_for(self.engine)
        moved = []
        for name, key in self.versions.items():
            try:
                current = catalog.version_key(name)
            except KeyError:
                moved.append(name)
                continue
            if current != key:
                moved.append(name)
        return moved

    def valid(self) -> bool:
        return not self.changed()


class Session:
    """One client's conversational state against the query service."""

    def __init__(self, service: Any, engine_name: str, name: Optional[str] = None) -> None:
        self.service = service
        self.engine_name = engine_name
        self.name = name or f"session-{next(_session_ids)}"
        self.requests = 0
        self.cache_hits = 0
        self.latencies: List[float] = []

    @property
    def engine(self) -> Any:
        return self.service.engines[self.engine_name]

    async def execute(
        self, query, result_name: Optional[str] = None, backend=None, workers=None
    ):
        """Run a query through the service, accounting it to this session.

        ``backend`` selects the executing backend (``"row"`` / ``"columnar"``
        / ``"sharded"``) and ``workers`` sizes the sharded
        worker pool; both are part of the service's plan-cache key.  A UWSDT
        runs on the row backend only: asking for another raises
        :class:`~repro.relational.errors.QueryError`, and the service caches
        nothing for the request.
        """
        outcome = await self.service.execute(
            self.engine_name, query, result_name, backend, workers=workers
        )
        self.requests += 1
        if outcome.cached:
            self.cache_hits += 1
        self.latencies.append(outcome.seconds)
        return outcome

    async def mutate(self, mutator):
        """Apply a mutation to this session's engine under the engine lock."""
        return await self.service.mutate(self.engine_name, mutator)

    async def explain_analyze(
        self, query, result_name: Optional[str] = None, backend=None, workers=None
    ) -> str:
        """Execute ``query`` through the service and render EXPLAIN ANALYZE.

        The report is the executed physical plan annotated per operator with
        estimated vs actual rows, q-error, per-child input rows and self vs
        cumulative time — plus the *service* provenance a bare
        ``Query.explain_analyze`` cannot know: whether the plan came from
        the cache, how many times the cached entry has executed, and the
        request's trace id.
        """
        outcome = await self.execute(query, result_name, backend, workers)
        header = [
            f"fingerprint: {outcome.fingerprint}  engine: {outcome.engine}",
            "plan source: "
            + ("plan cache (hit)" if outcome.cached else "planned this request (miss)")
            + f", {outcome.executions} cached execution(s)",
            f"request: {outcome.seconds * 1e3:.3f} ms"
            + (f"  trace: {outcome.trace_id}" if outcome.trace_id else ""),
        ]
        return outcome.physical.explain_analyze(header)

    def snapshot(self, relations: Sequence[str]) -> Snapshot:
        """Capture the named relations' version keys for later staleness checks."""
        return Snapshot(self.engine, relations)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    def __repr__(self) -> str:
        return (
            f"Session({self.name}, engine={self.engine_name!r}, "
            f"{self.requests} requests, hit rate {self.hit_rate:.0%})"
        )
