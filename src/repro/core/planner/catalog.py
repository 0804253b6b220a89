"""Planner statistics kept on the relations, with version-based invalidation.

Before the catalog, every ``Query.run(optimize=True)`` re-sampled the
query's base relations: planning the *same* query twice against an
unchanged engine paid the full sampling cost twice.  The catalog caches,
per relation,

* the bounded :class:`~repro.core.planner.sampling.RelationSample`, drawn by
  position so that a cold entry reads at most ``DEFAULT_SAMPLE_SIZE`` rows; every
  fact derived from it — histograms, value classes and column types, the
  filtered, projected and renamed samples and the ``A = B`` selectivities,
  each keyed by value in the sample's bounded memo — persists and is
  invalidated with it, so a warm plan derives nothing twice,
* the row count and the placeholder density,
* the attribute list,

valid while a *version key* is unchanged, one that moves exactly when the
underlying relation could have changed:

========  ==================================================================
engine    version key of relation ``R``
========  ==================================================================
Database  identity + ``Relation.version`` of ``R`` (bumped per mutation)
UWSDT     identity + version of the ``R`` template relation, plus
          ``UWSDT.relation_placeholder_count(R)`` — together they fully
          determine ``R``'s statistics (samples read only the template,
          densities only the count), so query intermediates added by
          ``Q̂`` and chase component merges leave base entries valid
========  ==================================================================

An entry is stored on the relation object itself (:meth:`Relation.derived
<repro.relational.relation.Relation.derived>`, which checks the identity
and version parts of the key), one per engine kind, stamped with the rest
of the key — on a UWSDT, the placeholder count — and rebuilt when that
moves.  Every engine holding the relation therefore reads the same entry:
a UWSDT copy shares its templates (:meth:`~repro.core.uwsdt.UWSDT.copy`)
and plans from warm statistics.

A :class:`~repro.core.wsd.WSD` has no catalog: it is the paper's
specification (Sections 3–4), not a query engine.  Plan on
``UWSDT.from_wsd(wsd)`` instead.

Entries are checked lazily on every access (polling the version key is an
integer comparison plus, on a UWSDT, a sum over the relation's placeholder
index — one term per uncertain tuple).  Polling is the one invalidation
mechanism: every mutation path bumps a version, so "mutate, then replan"
picks up fresh statistics, and a stale entry is replaced on its next read.

The :class:`StatisticsCatalog` object itself is per engine
(:func:`catalog_for` stores it on the engine; a copy gets its own): it
computes version keys, counts hits and misses and serialises one engine's
readers.  ``Statistics.from_engine`` — and therefore ``Query.plan``/``Query.run`` —
is a thin view over it: planning a repeated or similar query performs zero
sampling work, which :func:`~repro.core.planner.sampling.sampling_call_count`
lets tests and benchmarks assert directly.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...relational.database import Database
from ..uwsdt import UWSDT
from .cost import Statistics, uwsdt_relation_statistics
from .sampling import DEFAULT_SAMPLE_SIZE, RelationSample, sample_database, sample_uwsdt

#: Attribute under which :func:`catalog_for` stores the catalog on an engine.
CATALOG_ATTRIBUTE = "_statistics_catalog"


class Same:
    """The identity part of a version key: equal to another ``Same`` exactly
    when both hold the same object.  ``Relation.version`` counts mutations
    of one object, so two relations (a replaced one and its replacement)
    can share a version; the key tells them apart by identity, and holding
    the object keeps its ``id`` from being reused while the key lives."""

    __slots__ = ("target",)

    def __init__(self, target: Any) -> None:
        self.target = target

    def __eq__(self, other: object) -> bool:
        return type(other) is Same and other.target is self.target

    def __hash__(self) -> int:
        return id(self.target)

    def __repr__(self) -> str:
        return f"Same({type(self.target).__name__}@{id(self.target):#x})"


@dataclass
class CatalogEntry:
    """Cached statistics of one relation, kept on the relation object."""

    row_count: int
    density: float
    attributes: Tuple[str, ...]
    sample: RelationSample


class StatisticsCatalog:
    """Version-validated view of the per-relation planner statistics of one engine."""

    def __init__(self, engine: Any) -> None:
        if not isinstance(engine, (Database, UWSDT)):
            from ..exec.backends import unsupported_engine

            raise unsupported_engine(engine)
        #: Weak: the catalog hangs off its engine (:func:`catalog_for`), and a
        #: strong reference back would turn
        #: every discarded engine copy into cyclic garbage that stays
        #: resident until the collector's next full pass.
        self._engine = weakref.ref(engine)
        #: Reentrant so public methods can compose without lock juggling.
        #: Concurrent sessions share one catalog per engine; one engine's
        #: readers build each missing entry once.
        self._lock = threading.RLock()
        #: Cache telemetry (reads that reused / rebuilt an entry).
        self.hits = 0
        self.misses = 0
        self.kind = "database" if isinstance(engine, Database) else "uwsdt"

    @property
    def engine(self) -> Any:
        return self._engine()

    def _registry_counter(self, event: str):
        from ...obs.metrics import get_registry

        return get_registry().counter("repro.catalog." + event, engine=self.kind)

    # ------------------------------------------------------------------ #
    # Engine adapters
    # ------------------------------------------------------------------ #

    def relation_names(self) -> List[str]:
        if self.kind == "database":
            return list(self.engine.relation_names)
        return [rs.name for rs in self.engine.schema]

    def _row_count_and_density(self, name: str) -> Tuple[int, float]:
        if self.kind == "database":
            return len(self.engine.relation(name)), 0.0
        return uwsdt_relation_statistics(self.engine, name)

    def _sample_one(self, name: str) -> RelationSample:
        from ...obs.trace import get_tracer

        with get_tracer().span("sampling", relation=name, engine=self.kind):
            if self.kind == "database":
                return sample_database(self.engine, name, DEFAULT_SAMPLE_SIZE)
            return sample_uwsdt(self.engine, name, DEFAULT_SAMPLE_SIZE)

    # ------------------------------------------------------------------ #
    # Entries
    # ------------------------------------------------------------------ #

    def _build(self, name: str) -> CatalogEntry:
        row_count, density = self._row_count_and_density(name)
        return CatalogEntry(
            row_count=row_count,
            density=density,
            attributes=self._relation_attributes(name),
            sample=self._sample_one(name),
        )

    def _lookup(self, name: str, key: Tuple[Any, ...]) -> Tuple[CatalogEntry, bool]:
        """The entry for ``key`` and whether it was built by this call.

        ``key[0]`` names the relation and ``key[1]`` is its version — the
        relation's memo checks both; the rest of the key stamps the one
        entry the relation keeps for this engine kind.
        """
        built: List[CatalogEntry] = []

        def build() -> CatalogEntry:
            built.append(self._build(name))
            return built[0]

        entry = key[0].target.derived(("statistics", self.kind), build, stamp=key[2:])
        return entry, bool(built)

    def entry(self, name: str) -> Tuple[CatalogEntry, str]:
        """The (validated) entry for one relation, plus its provenance:
        ``"cached-sample"`` when reused, ``"fresh-sample"`` when rebuilt."""
        return self._entry(name, self.version_key(name))

    def _entry(self, name: str, key: Tuple[Any, ...]) -> Tuple[CatalogEntry, str]:
        with self._lock:
            entry, fresh = self._lookup(name, key)
            if fresh:
                self.misses += 1
                self._registry_counter("misses").inc()
                return entry, "fresh-sample"
            self.hits += 1
            self._registry_counter("hits").inc()
            return entry, "cached-sample"

    def version_key(self, name: str) -> Tuple[Any, ...]:
        """The current version key of one relation — the token catalog
        entries, plan-cache entries and session snapshots keep and poll.
        It moves when the relation object is replaced (``Database.replace``,
        ``UWSDT.load_template``, a copy-on-write ``UWSDT.add_template_tuple``)
        as well as when it is mutated."""
        if self.kind == "database":
            relation = self.engine.relation(name)
            return (Same(relation), relation.version)
        template = self.engine.templates[name]
        return (Same(template), template.version, self.engine.relation_placeholder_count(name))

    def _relation_attributes(self, name: str) -> Tuple[str, ...]:
        if self.kind == "database":
            return self.engine.relation(name).schema.attributes
        return self.engine.schema.relation(name).attributes

    # ------------------------------------------------------------------ #
    # The Statistics view
    # ------------------------------------------------------------------ #

    def statistics(self, relations: Optional[Sequence[str]] = None) -> Statistics:
        """A :class:`Statistics` view over the catalog.

        ``relations`` restricts the view to the named relations (planning
        passes the query's base relations, so a plan reads nothing of a
        relation outside its query and is valid exactly as long as its own
        relations' version keys are); None covers every relation of the
        engine.  Warm entries are served without any sampling work; a
        catalog attached to nothing has none, which is how
        ``Statistics.from_database`` / ``from_uwsdt`` build fresh
        statistics.
        """
        with self._lock:
            known = self.relation_names()
            if relations is not None:
                wanted = set(relations)
                known = [name for name in known if name in wanted]
            row_counts: Dict[str, int] = {}
            densities: Dict[str, float] = {}
            attributes: Dict[str, Tuple[str, ...]] = {}
            samples: Dict[str, RelationSample] = {}
            provenance: Dict[str, str] = {}
            keys: Dict[str, Tuple[Any, ...]] = {}
            for name in known:
                keys[name] = key = self.version_key(name)
                entry, source = self._entry(name, key)
                row_counts[name] = entry.row_count
                densities[name] = entry.density
                attributes[name] = entry.attributes
                samples[name] = entry.sample
                provenance[name] = source
            view = Statistics(
                row_counts,
                densities,
                attributes,
                samples,
                engine=self.kind,
                sample_provenance=provenance,
                source="catalog",
                catalog=self,
            )
            view.version_keys = keys
            return view

    def __repr__(self) -> str:
        return f"StatisticsCatalog({self.kind}, {self.hits} hits / {self.misses} misses)"


class FreshStatistics(StatisticsCatalog):
    """A catalog that derives every entry anew and keeps none: the
    uncached statistics of ``Statistics.from_database`` / ``from_uwsdt``."""

    def _lookup(self, name: str, key: Tuple[Any, ...]) -> Tuple[CatalogEntry, bool]:
        return self._build(name), True


def catalog_for(engine: Any) -> StatisticsCatalog:
    """The catalog attached to ``engine``, creating (and attaching) it on
    first use.  A copy of an engine gets a catalog object of its own, which
    reads the entries kept on the relations it shares."""
    catalog = getattr(engine, CATALOG_ATTRIBUTE, None)
    if catalog is None:
        catalog = StatisticsCatalog(engine)
        try:
            setattr(engine, CATALOG_ATTRIBUTE, catalog)
        except AttributeError:
            pass  # engine type without the slot: still usable, just unattached
    return catalog
