"""Fingerprinted plan cache with version-key validation.

A :class:`PlanCache` memoizes the full planning pipeline per engine: logical
rewrite, join-order DP, and lowering.  Entries are keyed by the query's
:meth:`~repro.core.algebra.query.Query.fingerprint` (a stable hash of the
canonical ``to_text()`` rendering) and validated by the *catalog version
keys* of every base relation the query touches — the exact per-engine
tokens :class:`~repro.core.planner.catalog.StatisticsCatalog` already uses
to invalidate statistics (``Relation.version`` on a Database, template
version + placeholder count on a UWSDT).

Validation is by *polling* at lookup time: a hit compares each stored
version key against the relation's current one, so any mutation of any
touched base relation invalidates exactly the entries that read it — no
more (untouched queries keep their plans) and no less (a stale plan is
never served).  Polling costs a few integer comparisons per base relation,
and it composes with every mutation path for free: classical inserts,
template inserts, component surgery, the chase — anything that moves the
version key.  Both keys are precise — the intermediates ``Q̂`` adds to a
UWSDT move no base relation's key — so repeated traffic is served sample-
and DP-free.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..core.exec.backends import backend_for
from ..core.exec.physical import PhysicalPlan
from ..core.planner.catalog import StatisticsCatalog, catalog_for
from ..core.planner.planner import Plan
from ..obs.metrics import get_registry

#: Attribute under which :func:`plan_cache_for` stores the cache on an engine.
CACHE_ATTRIBUTE = "_plan_cache"

#: Eviction reasons recorded in ``repro.plan_cache.evictions{reason=...}``:
#: ``stale-version`` (a base relation's version key moved under the entry),
#: ``explicit`` (direct invalidation), ``clear`` (whole-cache drop).
EVICTION_REASONS = ("stale-version", "explicit", "clear")


@dataclass
class CachedPlan:
    """One fully planned and lowered query, ready to re-execute."""

    fingerprint: str
    plan: Plan
    physical: PhysicalPlan
    #: Backend kind the physical plan was lowered for (``physical.engine``).
    #: Part of the cache key: a row-backend plan must never be served to a
    #: columnar request (or vice versa) — the plans differ structurally
    #: (materialize boundaries) and ``PhysicalPlan.execute`` rejects a
    #: backend-kind mismatch outright.
    backend: str
    #: Worker count a sharded plan was lowered for (0 for in-process
    #: backends).  Part of the cache key: a sharded plan's Exchange nodes
    #: bake in the shard fan-out, so plans for different worker counts are
    #: distinct entries.
    workers: int
    base_relations: Tuple[str, ...]
    #: Version key of every base relation at planning time; the entry is
    #: valid exactly while all of them still match.
    version_keys: Dict[str, Tuple[Any, ...]]
    #: How many times this entry has been executed (printed in the
    #: ``Session.explain_analyze`` header).
    executions: int = 0
    metadata: Dict[str, Any] = field(default_factory=dict)


class PlanCache:
    """Per-engine cache of lowered plans, validated by version-key polling."""

    def __init__(self, engine: Any) -> None:
        #: No reference back to ``engine`` (the cache hangs off it, the catalog
        #: holds it weakly): a discarded engine dies by reference count.
        self.catalog: StatisticsCatalog = catalog_for(engine)
        self._lock = threading.RLock()
        self._entries: Dict[str, CachedPlan] = {}
        #: Backend kind assumed when ``lookup``/``peek`` are called without
        #: one — the engine's row backend, the pre-columnar behavior.
        self._default_backend = backend_for(engine).kind
        self.hits = 0
        self.misses = 0
        #: Entries dropped because a base relation's version key moved.
        self.invalidations = 0

    def _key(
        self, fingerprint: str, backend: Optional[str], workers: Optional[int] = None
    ) -> str:
        return f"{fingerprint}@{backend or self._default_backend}@{workers or 0}"

    def _current_keys(self, relations: Tuple[str, ...]) -> Optional[Dict[str, Tuple[Any, ...]]]:
        try:
            return {name: self.catalog.version_key(name) for name in relations}
        except KeyError:
            return None  # a base relation was dropped: treat as invalid

    def lookup(
        self,
        fingerprint: str,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> Optional[CachedPlan]:
        """The valid cached plan for ``fingerprint`` on ``backend``, or None.

        ``backend`` is the executing backend's kind (defaulting to the
        engine's row backend) and is part of the key: a plan lowered for one
        backend is structurally wrong for another.  ``workers`` further
        scopes sharded plans (the Exchange fan-out is baked into the plan).
        A structurally present but stale entry (any base relation's version
        key moved) is dropped and counted as an invalidation + miss.
        """
        registry = get_registry()
        key = self._key(fingerprint, backend, workers)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                registry.counter("repro.plan_cache.misses").inc()
                return None
            current = self._current_keys(entry.base_relations)
            if current != entry.version_keys:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                registry.counter("repro.plan_cache.misses").inc()
                registry.counter(
                    "repro.plan_cache.evictions", reason="stale-version"
                ).inc()
                return None
            self.hits += 1
            registry.counter("repro.plan_cache.hits").inc()
            from ..analysis import invariants

            if invariants.verification_enabled():
                # A served entry's recorded backend kind must match the
                # engine kind its physical plan was lowered for, and be one
                # this engine can execute.
                invariants.verify_cached_backend(
                    entry.backend,
                    entry.physical.engine,
                    (self._default_backend, "columnar", "sharded"),
                )
            return entry

    def peek(
        self,
        fingerprint: str,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> Optional[CachedPlan]:
        """The raw entry, without validation or hit/miss accounting (telemetry
        and ``explain_analyze`` provenance; never use it to serve a plan)."""
        with self._lock:
            return self._entries.get(self._key(fingerprint, backend, workers))

    def store(
        self,
        fingerprint: str,
        plan: Plan,
        physical: PhysicalPlan,
        workers: Optional[int] = None,
    ) -> CachedPlan:
        """Cache a freshly planned + lowered query under its fingerprint, the
        backend kind the physical plan was lowered for, and (for sharded
        plans) the worker count the Exchange fan-out was sized for."""
        from ..analysis import invariants

        if invariants.verification_enabled():
            invariants.verify_cached_backend(
                physical.engine,
                physical.engine,
                (self._default_backend, "columnar", "sharded"),
            )
        with self._lock:
            relations = tuple(sorted(plan.original.base_relations()))
            keys = self._current_keys(relations)
            entry = CachedPlan(
                fingerprint=fingerprint,
                plan=plan,
                physical=physical,
                backend=physical.engine,
                workers=workers or 0,
                base_relations=relations,
                version_keys=keys if keys is not None else {},
            )
            self._entries[self._key(fingerprint, physical.engine, workers)] = entry
            return entry

    def invalidate(
        self,
        fingerprint: Optional[str] = None,
        reason: str = "explicit",
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        """Drop one entry (or all of them when ``fingerprint`` is None).

        With a ``fingerprint`` but no ``backend``, every backend's plan for
        that query is dropped (whatever its worker count).  ``reason``
        labels the eviction counter (see :data:`EVICTION_REASONS`).
        """
        registry = get_registry()
        with self._lock:
            if fingerprint is None:
                if self._entries:
                    registry.counter("repro.plan_cache.evictions", reason="clear").inc(
                        len(self._entries)
                    )
                self._entries.clear()
                return
            if backend is not None:
                keys = [self._key(fingerprint, backend, workers)]
            else:
                keys = [
                    key
                    for key, entry in self._entries.items()
                    if entry.fingerprint == fingerprint
                ]
            for key in keys:
                if self._entries.pop(key, None) is not None:
                    registry.counter("repro.plan_cache.evictions", reason=reason).inc()

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
    statistics catalog's attachment discipline.
    """
    cache = getattr(engine, CACHE_ATTRIBUTE, None)
    if cache is None:
        cache = PlanCache(engine)
        try:
            setattr(engine, CACHE_ATTRIBUTE, cache)
        except AttributeError:
            pass
    return cache
