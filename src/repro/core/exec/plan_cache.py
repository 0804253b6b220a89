"""One plan cache per engine: a query's lowered plan, planned once.

:meth:`PlanCache.lowered` is the one path from a query to the physical plan
an engine runs it with.  ``Query.run``, ``Query.physical_plan`` and
``Query.explain_analyze`` take it by default, and so does
``QueryService.execute``: the first call of a query on an engine plans
(rewrite, join-order DP, sampling) and lowers it for the executing backend,
and every later call of the same query on the unchanged engine reuses that
physical plan.  An explicit ``plan=``, ``physical=``, ``force_join=`` or
``optimize=False`` lowers fresh and leaves the cache alone, and
``Query.plan`` is the uncached planner.

An entry is keyed by the query's
:meth:`~repro.core.algebra.query.Query.fingerprint` (a digest of the query's
value), the backend kind and, for the sharded backend, the worker count its
Exchange nodes were sized for.  :meth:`PlanCache.lowered` serves an entry
only to a query equal to the one it planned (query trees are values), so
a digest collision is a miss, never a wrong answer.  An entry is valid for
the relation objects it was planned on: it keeps the
catalog version key of every base relation of the query, which names the
relation object and its mutation count (``Relation.version`` on a Database;
on a UWSDT, the same of the template's certain and open relations plus its
placeholder count), and a lookup compares them with the current ones.  A
mutation, ``Database.replace`` or ``UWSDT.set_template`` of any base
relation therefore invalidates exactly
the entries that read it; the intermediates ``Q̂`` adds to a UWSDT move no
base relation's key.  Polling is the only invalidation.

The cache holds at most :data:`MAX_ENTRIES` entries; storing one more
empties it (``repro.plan_cache.evictions{reason="bound"}``), so ad-hoc
queries cannot grow it without end.  An executed entry's operator nodes
carry the metrics of its latest execution.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ...obs.metrics import get_registry
from ..planner.catalog import StatisticsCatalog, catalog_for
from ..verify import verifier
from .backends import DATABASE_ONLY_BACKENDS, EngineBackend, backend_for
from .lower import lower
from .physical import PhysicalPlan

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..algebra.query import Query
    from ..planner.planner import Plan

#: Attribute under which :func:`plan_cache_for` stores the cache on an engine.
CACHE_ATTRIBUTE = "_plan_cache"

#: Entries one engine's cache holds before storing another empties it.
MAX_ENTRIES = 256


@dataclass
class CachedPlan:
    """One planned and lowered query, ready to execute again."""

    plan: "Plan"
    physical: PhysicalPlan
    #: Backend kind the physical plan was lowered for (``physical.engine``).
    backend: str
    #: Version key of every base relation at planning time; the entry is
    #: valid exactly while all of them still match.
    version_keys: Dict[str, Tuple[Any, ...]]
    #: How many service requests executed this entry (printed in the
    #: ``Session.explain_analyze`` header).
    executions: int = 0


class PlanCache:
    """Per-engine cache of lowered plans, validated by version-key polling."""

    def __init__(self, engine: Any) -> None:
        #: No reference back to ``engine`` (the cache hangs off it, the catalog
        #: holds it weakly): a discarded engine dies by reference count.
        self.catalog: StatisticsCatalog = catalog_for(engine)
        self._lock = threading.RLock()
        self._entries: Dict[str, CachedPlan] = {}
        #: Backend kind assumed when ``lookup`` is called without one.
        self._default_backend = backend_for(engine).kind
        #: The other backend kinds the engine runs: a Database's only.
        self._database_only: Tuple[str, ...] = (
            DATABASE_ONLY_BACKENDS if self._default_backend == "database" else ()
        )
        self.hits = 0
        self.misses = 0
        #: Entries dropped because a base relation's version key moved.
        self.invalidations = 0

    def _key(self, fingerprint: str, backend: Optional[str], workers: Optional[int]) -> str:
        return f"{fingerprint}@{backend or self._default_backend}@{workers or 0}"

    def _current_keys(self, relations: Tuple[str, ...]) -> Optional[Dict[str, Tuple[Any, ...]]]:
        try:
            return {name: self.catalog.version_key(name) for name in relations}
        except KeyError:
            return None  # a base relation is missing: nothing valid to key on

    def _verify(self, recorded: str, physical: PhysicalPlan) -> None:
        checker = verifier()
        if checker is not None:
            checker.verify_cached_backend(
                recorded, physical.engine, (self._default_backend, *self._database_only)
            )

    def lookup(
        self,
        fingerprint: str,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> Optional[CachedPlan]:
        """The valid entry for ``fingerprint`` on ``backend``, or None.

        ``backend`` is the executing backend's kind (default: the engine's
        row backend) and ``workers`` a sharded plan's worker count.  A stale
        entry (some base relation's version key moved) is dropped and
        counted as an invalidation and a miss.  The fingerprint alone names
        the entry: :meth:`lowered` also checks that it planned an equal query.
        """
        return self._get(self._key(fingerprint, backend, workers), None)

    def _get(self, key: str, query: Optional["Query"]) -> Optional[CachedPlan]:
        """:meth:`lookup` under ``key``, a miss unless the entry planned
        ``query`` (when one is given)."""
        registry = get_registry()
        with self._lock:
            entry = self._entries.get(key)
            stale = entry is not None and (
                self._current_keys(tuple(entry.version_keys)) != entry.version_keys
            )
            if stale:
                del self._entries[key]
                self.invalidations += 1
                registry.counter("repro.plan_cache.evictions", reason="stale-version").inc()
                entry = None
            if entry is not None and query is not None and entry.plan.original != query:
                entry = None  # another query with the same digest
            if entry is None:
                self.misses += 1
                registry.counter("repro.plan_cache.misses").inc()
                return None
            self.hits += 1
            registry.counter("repro.plan_cache.hits").inc()
            self._verify(entry.backend, entry.physical)
            return entry

    def lowered(self, query: "Query", backend: EngineBackend) -> Tuple[CachedPlan, bool]:
        """The valid entry for ``query`` on ``backend`` and whether it was a
        hit; on a miss, plan, lower and store it first."""
        key = self._key(query.fingerprint(), backend.kind, getattr(backend, "workers", None))
        entry = self._get(key, query)
        if entry is not None:
            return entry, True
        relations = tuple(query.base_relations())
        statistics = self.catalog.statistics(relations)
        plan = query.plan(statistics=statistics)
        physical = lower(plan.chosen, backend, statistics, estimates=plan.estimates)
        # The keys of the relation versions the plan was made from: a
        # mutation during planning leaves the entry stale, never wrong.
        keys = statistics.version_keys
        entry = CachedPlan(plan, physical, backend.kind, keys)
        self._verify(backend.kind, physical)
        if len(keys) == len(relations):
            with self._lock:
                if len(self._entries) >= MAX_ENTRIES:
                    get_registry().counter("repro.plan_cache.evictions", reason="bound").inc(
                        len(self._entries)
                    )
                    self._entries.clear()
                self._entries[key] = entry
        return entry, False

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        with self._lock:
            count = len(self._entries)
        return (
            f"PlanCache({count} plans, {self.hits} hits / "
            f"{self.misses} misses, {self.invalidations} invalidations)"
        )


def plan_cache_for(engine: Any) -> PlanCache:
    """The plan cache attached to ``engine``, created on first use.

    Engine ``copy()`` methods do not carry the cache over, mirroring the
    statistics catalog's attachment discipline.  Anything but a Database or
    a UWSDT (a WSD included) raises ``QueryError``.
    """
    cache = getattr(engine, CACHE_ATTRIBUTE, None)
    if cache is None:
        cache = PlanCache(engine)
        try:
            setattr(engine, CACHE_ATTRIBUTE, cache)
        except AttributeError:
            pass
    return cache
