"""Secondary indexes over in-memory relations.

The paper's prototype tunes query evaluation on the fixed UWSDT schema
"by employing indices and materializing often used temporary results"
(Section 5).  This module provides the two index flavours used by the
engines: an exact-match hash index and a sorted index supporting range
scans, plus the *column* representation of a stored relation
(:class:`ColumnStore`), the "materialized temporary result" the columnar
executor scans instead of re-transposing the rows per query.

:func:`hash_index` and :func:`column_store` keep what they build on the
relation itself (:meth:`Relation.derived
<repro.relational.relation.Relation.derived>`), valid while its version is
unchanged: every engine holding the relation — a Database, a UWSDT and
each of its copies, which share their templates — probes the same index,
built once per version.  Nothing derived holds a strong reference back to
its relation, so a dropped relation is freed without the cycle collector.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from collections import defaultdict
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .relation import Relation, Row, project_rows


class HashIndex:
    """Exact-match index mapping a key (one or more attributes) to rows."""

    __slots__ = ("_relation", "attributes", "_positions", "_buckets")

    def __init__(self, relation: Relation, attributes: Sequence[str]) -> None:
        #: Weak: the index may live in its relation's memo.
        self._relation = weakref.ref(relation)
        self.attributes = tuple(attributes)
        self._positions = relation.schema.positions(self.attributes)
        buckets: Dict[Tuple[Any, ...], List[Row]] = defaultdict(list)
        for key, row in zip(project_rows(relation, self._positions), relation):
            buckets[key].append(row)
        self._buckets = dict(buckets)

    @property
    def relation(self) -> Optional[Relation]:
        """The indexed relation (None once it has been freed)."""
        return self._relation()

    def _key(self, row: Row) -> Tuple[Any, ...]:
        return tuple(row[p] for p in self._positions)

    def add(self, row: Row) -> None:
        """Register a row that has been inserted in the indexed relation."""
        self._buckets.setdefault(self._key(row), []).append(row)

    def bucket(self, *key: Any) -> Sequence[Row]:
        """The rows whose indexed attributes equal ``key``, in insertion order,
        as the index holds them: read them, never keep or change the list."""
        return self._buckets.get(tuple(key), ())

    def lookup(self, *key: Any) -> List[Row]:
        """Return the rows whose indexed attributes equal ``key`` (a fresh list)."""
        return list(self.bucket(*key))

    def contains(self, *key: Any) -> bool:
        """Return True iff some row has the given key."""
        return tuple(key) in self._buckets

    def keys(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate over the distinct keys present in the index."""
        return iter(self._buckets)

    def group_sizes(self) -> Dict[Tuple[Any, ...], int]:
        """Return the number of rows per key (used for component statistics)."""
        return {key: len(rows) for key, rows in self._buckets.items()}

    def __len__(self) -> int:
        return len(self._buckets)


class Column:
    """One attribute's values as a list that is built on first read.

    Two sessions racing the first read each build the same list; one wins.
    """

    __slots__ = ("_build", "_values")

    def __init__(self, build: Callable[[], List[Any]]) -> None:
        self._build = build
        self._values: Optional[List[Any]] = None

    @property
    def values(self) -> List[Any]:
        if self._values is None:
            self._values = self._build()
        return self._values


def _transpose(rows: Sequence[Row], position: int) -> List[Any]:
    return [row[position] for row in rows]


class ColumnStore:
    """The columns of one row snapshot, each transposed only when read.

    Built over a stored relation by :func:`column_store` (and then reused
    until the relation's version moves), or directly over the rows of an
    intermediate result, which nothing keeps.
    """

    __slots__ = ("size", "columns")

    def __init__(self, rows: Sequence[Row], arity: int) -> None:
        self.size = len(rows)
        self.columns = tuple(Column(partial(_transpose, rows, p)) for p in range(arity))


def hash_index(relation: Relation, attributes: Sequence[str]) -> HashIndex:
    """The hash index over ``attributes`` of ``relation``, kept on the relation.

    Built on the first probe after each mutation and shared by every engine
    holding the relation.
    """
    key = tuple(attributes)
    return relation.derived(("hash-index", key), lambda: HashIndex(relation, key))


def column_store(relation: Relation) -> ColumnStore:
    """The column store of a stored ``relation``, kept on the relation."""
    return relation.derived(
        "column-store", lambda: ColumnStore(relation.rows, relation.schema.arity)
    )


_Cached = TypeVar("_Cached")  # a HashIndex or a ColumnStore


class IndexPool:
    """A version-validated cache of :class:`HashIndex` and :class:`ColumnStore` objects.

    No engine owns one: indexes and column stores live on their relation
    (:func:`hash_index`, :func:`column_store`).  The class stays only for the
    benchmark's index-build probe, which times a fresh build through
    ``IndexPool().hash_index(...)``; ROADMAP item 1 ("Benchmark of record
    v2") deletes it with that probe.

    Keys use ``id(relation)``, and each entry keeps its relation so that the
    id cannot be reused while the entry lives; :meth:`invalidate` releases
    it.  A lock makes check-then-build atomic.
    """

    __slots__ = ("_cache", "_lock")

    def __init__(self) -> None:
        #: ``(id(relation), indexed attributes — None for the column store)``
        #: → ``(relation, its version at build time, the HashIndex or ColumnStore)``.
        self._cache: Dict[Tuple[int, Optional[Tuple[str, ...]]], Tuple[Relation, int, Any]] = {}
        self._lock = threading.RLock()

    def __getstate__(self) -> bool:
        # The cache keys by ``id(relation)`` — meaningless in another
        # process — and the lock cannot pickle.  A pool crossing a process
        # boundary starts empty and rebuilds on demand.
        return True

    def __setstate__(self, state: bool) -> None:
        IndexPool.__init__(self)

    def _cached(
        self, relation: Relation, what: Optional[Tuple[str, ...]], build: Callable[[], _Cached]
    ) -> _Cached:
        with self._lock:
            key = (id(relation), what)
            entry = self._cache.get(key)
            if entry is not None and entry[0] is relation and entry[1] == relation.version:
                return entry[2]
            version = relation.version
            built = build()
            self._cache[key] = (relation, version, built)
            return built

    def hash_index(self, relation: Relation, attributes: Sequence[str]) -> HashIndex:
        """Return a (cached) hash index over ``attributes`` of ``relation``."""
        return self._cached(relation, tuple(attributes), lambda: HashIndex(relation, attributes))

    def columns(self, relation: Relation) -> ColumnStore:
        """Return the (cached) column store of a stored ``relation``."""
        return self._cached(
            relation, None, lambda: ColumnStore(relation.rows, relation.schema.arity)
        )

    def invalidate(self, relation: Relation) -> None:
        """Drop all cached indexes and columns of one relation."""
        with self._lock:
            stale = [key for key in self._cache if key[0] == id(relation)]
            for key in stale:
                del self._cache[key]

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)


class SortedIndex:
    """Sorted single-attribute index supporting range lookups."""

    __slots__ = ("relation", "attribute", "_position", "_keys", "_sorted_rows")

    def __init__(self, relation: Relation, attribute: str) -> None:
        self.relation = relation
        self.attribute = attribute
        self._position = relation.schema.position(attribute)
        pairs = sorted(
            ((row[self._position], row) for row in relation),
            key=lambda pair: pair[0],
        )
        self._keys = [key for key, _ in pairs]
        self._sorted_rows = [row for _, row in pairs]

    def range(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[Row]:
        """Return rows whose key lies in the interval ``[low, high]``.

        ``None`` bounds are unbounded.  Inclusion of each endpoint is
        controlled by ``include_low`` / ``include_high``.
        """
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(self._keys, low)
        else:
            start = bisect.bisect_right(self._keys, low)
        if high is None:
            stop = len(self._keys)
        elif include_high:
            stop = bisect.bisect_right(self._keys, high)
        else:
            stop = bisect.bisect_left(self._keys, high)
        return self._sorted_rows[start:stop]

    def equal(self, key: Any) -> List[Row]:
        """Return rows whose key equals ``key``."""
        return self.range(key, key)

    def min_key(self) -> Optional[Any]:
        """Smallest key, or None if the relation is empty."""
        return self._keys[0] if self._keys else None

    def max_key(self) -> Optional[Any]:
        """Largest key, or None if the relation is empty."""
        return self._keys[-1] if self._keys else None

    def __len__(self) -> int:
        return len(self._sorted_rows)
