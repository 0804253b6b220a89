"""Sampled statistics for the planner: bounded uniform samples of template rows.

The cost model of PR 1 priced every equality atom at a fixed 10 % and every
range atom at 1/3 — good enough to prefer a join over a product, but blind
to the difference between joining census copies on ``POWSTATE`` (60 states,
selectivity ≈ 1/60) and on ``CITIZEN`` (85 % of the population shares one
value, selectivity ≈ 0.73).  Join-order search lives or dies on exactly
that distinction, so this module estimates selectivities and distinct
counts from a *bounded uniform sample* of template rows instead.

Design:

* :func:`positional_sample` draws a fixed-size uniform sample without
  replacement from a row sequence by position: a seeded
  ``random.Random.sample`` of ``capacity`` positions, read in increasing
  order.  Its cost is O(capacity) — the rows that are not drawn are never
  touched — and plans are deterministic for a given engine state.
* :class:`RelationSample` holds the sampled rows plus the estimated
  population size and supports the operations the cost model needs:
  predicate selectivity (a row whose referenced field is a ``?``
  placeholder counts as satisfied — on the representation such tuples
  survive every selection, lines 2–6 of Figure 16), per-attribute value
  histograms, and *derived* samples: ``select`` /
  ``project`` / ``rename`` carry a leaf's sample up through the unary
  operators above it.  Nothing derives a sample from two relations: the
  estimator prices a predicate across leaves from the two leaf samples
  (:mod:`~repro.core.planner.cost`).  Every fact derived from a sample —
  its histograms, its per-column value classes and types, the samples
  ``selection`` / ``project`` / ``rename`` derive from it and the ``A = B``
  selectivities it takes part in — is memoised on it, keyed by value and
  bounded (:data:`MEMO_ENTRIES`), so it lives exactly as long as the
  statistics catalog keeps the sample valid and a warm plan derives nothing
  twice.
* :func:`join_selectivity` estimates the selectivity of ``A = B`` across
  two samples from the value histograms, ``Σ_v f_L(v) · f_R(v)`` — the
  frequency-weighted generalization of Selinger's ``1/max(d_A, d_B)`` that
  stays accurate under the census generator's skew;
  :func:`equi_join_selectivity` is its memoised, orientation-free form.

Estimated selectivities are floored (:func:`floor_selectivity`) so an
empty sample intersection never makes a plan look free.

``sample_database`` / ``sample_uwsdt`` draw one relation's sample for the
statistics catalog; a UWSDT's placeholder fields stay the ``?`` sentinel.
"""

from __future__ import annotations

import random
import weakref
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ...relational.predicates import Predicate
from ...relational.schema import RelationSchema
from ...relational.values import BOTTOM, is_placeholder
from ..algebra.schema import SENTINEL_CLASS, column_classes

#: Default bound on sampled rows per relation.
DEFAULT_SAMPLE_SIZE = 256

#: Fixed seed: sampling must be deterministic for reproducible plans.
SAMPLE_SEED = 0x5EED

#: Monotonic count of relations sampled since import.  The statistics
#: catalog's whole point is that this stops moving once its entries are
#: warm; tests and benchmarks assert on deltas of it.
_SAMPLING_CALLS = 0


def sampling_call_count() -> int:
    """Number of relation-sampling passes performed so far (monotonic)."""
    return _SAMPLING_CALLS


def _record_sampling() -> None:
    from ...obs.metrics import get_registry

    global _SAMPLING_CALLS
    _SAMPLING_CALLS += 1
    get_registry().counter("repro.planner.sampling_calls").inc()


def positional_sample(
    rows: Sequence[Any], capacity: int, seed: int = SAMPLE_SEED
) -> Tuple[List[Any], int]:
    """A uniform sample without replacement, read by position; ``(sample, population)``.

    The ``capacity`` positions are drawn by one seeded ``random.Random.sample``
    and read in increasing order, so the sample keeps the sequence's order;
    a population no larger than ``capacity`` is taken whole.
    """
    population = len(rows)
    if population <= capacity:
        positions: Iterable[int] = range(population)
    else:
        positions = sorted(random.Random(seed).sample(range(population), capacity))
    return [rows[position] for position in positions], population


def floor_selectivity(selectivity: float, sample_size: int) -> float:
    """Clamp into ``(0, 1]``: a zero-match sample must not make a plan free."""
    floor = 0.5 / max(1, sample_size)
    return max(min(selectivity, 1.0), floor)


#: Entries one sample's memo keeps (:meth:`RelationSample.derive`).  A catalog
#: sample outlives any number of ad-hoc predicates; at the bound its memo
#: starts over, like a full ``lru_cache`` dropping its entries.
MEMO_ENTRIES = 64

_MISSING = object()


class RelationSample:
    """A bounded row sample of one relation (or of a derived subplan)."""

    __slots__ = (
        "relation",
        "attributes",
        "rows",
        "population",
        "_histograms",
        "_classes",
        "_memo",
        "__weakref__",
    )

    def __init__(
        self,
        relation: str,
        attributes: Sequence[str],
        rows: Sequence[Tuple[Any, ...]],
        population: int,
    ) -> None:
        self.relation = relation
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self.rows: List[Tuple[Any, ...]] = [tuple(row) for row in rows]
        self.population = population
        self._histograms: Dict[str, Dict[Any, int]] = {}
        self._classes: Optional[Tuple[FrozenSet[type], ...]] = None
        self._memo: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def position(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise KeyError(attribute) from None

    def has_attributes(self, attributes: Iterable[str]) -> bool:
        known = set(self.attributes)
        return all(a in known for a in attributes)

    # -- the memo ---------------------------------------------------------- #

    def derive(
        self, key: Optional[Hashable], compute: Callable[..., Any], *arguments: Any
    ) -> Any:
        """``compute(*arguments)``, once per ``key`` for as long as this sample lives.

        ``key`` is a value; None means the fact has none and is computed
        without being stored.  A catalog sample lives for one relation version
        (the catalog's version-key polling), and so does everything derived
        from it, derived samples included, each memoising its own derivations.
        At most :data:`MEMO_ENTRIES` entries are kept: the insert that passes
        the bound empties the memo.  Each step is one dict operation, atomic
        under the GIL, so the samples concurrent sessions share through one
        catalog need no lock; two threads deriving one key at once compute
        it twice and one of the two equal results stays.
        """
        if key is None:
            return compute(*arguments)
        memo = self._memo
        found = memo.get(key, _MISSING)
        if found is _MISSING:
            found = memo[key] = compute(*arguments)
            if len(memo) > MEMO_ENTRIES:
                memo.clear()
        return found

    def _layout(self) -> RelationSchema:
        """The row layout predicates compile against."""
        return self.derive(
            "layout", RelationSchema, self.relation or "__sample__", self.attributes
        )

    # -- selection --------------------------------------------------------- #

    def select(self, predicate: Predicate) -> Tuple[Optional[float], "RelationSample"]:
        """``(selectivity, derived sample)`` of σ_predicate: one compile, one scan.

        The selectivity is the fraction of sampled rows satisfying
        ``predicate``; the derived sample holds exactly those rows, its
        population scaled by that fraction.  Rows with a placeholder in a
        referenced attribute count as satisfied (they survive the selection
        on the representation).  An empty sample, or one missing a
        referenced attribute, answers ``(None, self)`` — callers fall back
        to the fixed constants.  Every call scans; the estimator reads the
        memoised :meth:`selection`.
        """
        referenced = predicate.attributes()
        if not self.rows or not self.has_attributes(referenced):
            return None, self
        from ...obs.metrics import get_registry

        get_registry().counter("repro.planner.sample_scans").inc()
        positions = [self.position(a) for a in referenced]
        schema = self._layout()
        if any(
            SENTINEL_CLASS in set(map(type, map(itemgetter(p), self.rows)))
            for p in positions
        ):
            compiled = predicate.compile(schema)
            kept = [
                row
                for row in self.rows
                if any(is_placeholder(row[p]) for p in positions) or compiled(row)
            ]
        else:
            kept = predicate.compile_scan(schema)(self.rows)
        fraction = floor_selectivity(len(kept) / len(self.rows), len(self.rows))
        return fraction, RelationSample(
            self.relation, self.attributes, kept, max(1, round(self.population * fraction))
        )

    def selection(self, predicate: Predicate) -> Tuple[Optional[float], "RelationSample"]:
        """:meth:`select` as the estimator reads it, once per predicate *value*.

        Keyed by the predicate, a value, so the same query planned again on
        an unchanged relation — or an equal predicate built separately —
        scans nothing; a predicate without value identity is scanned every
        time and stored nowhere.
        A filter no sampled row passes is a small selectivity and not a
        missing sample: the unfiltered rows (the filter taken as independent
        of the other columns) keep the leaf's column distributions for the
        joins above under the scaled population, which would otherwise fall
        back to ``EQUALITY_SELECTIVITY`` — the worse, the more selective the
        filter.
        """
        referenced = predicate.attributes()
        if not self.rows or not self.has_attributes(referenced):
            return None, self
        value = predicate.value_key()
        key = ("σ", value) if value is not None else None
        return self.derive(key, self._narrow, predicate)

    def _narrow(self, predicate: Predicate) -> Tuple[Optional[float], "RelationSample"]:
        selectivity, narrowed = self.select(predicate)
        if not narrowed.rows:
            narrowed = RelationSample(
                self.relation, self.attributes, self.rows, narrowed.population
            )
        return selectivity, narrowed

    # -- facts of the rows, memoised --------------------------------------- #

    def column_classes(self) -> Tuple[FrozenSet[type], ...]:
        """Per attribute, the set of classes of its sampled values."""
        if self._classes is None:
            from ...obs.metrics import get_registry

            get_registry().counter("repro.analysis.type_scans", source="sample").inc()
            self._classes = column_classes(self.rows)
        return self._classes

    def histogram(self, attribute: str) -> Dict[Any, int]:
        """Value counts of ``attribute`` over the sample (placeholders excluded)."""
        if attribute not in self._histograms:
            position = self.position(attribute)
            counts: Dict[Any, int] = {}
            for row in self.rows:
                value = row[position]
                if is_placeholder(value) or value is BOTTOM:
                    continue
                counts[value] = counts.get(value, 0) + 1
            self._histograms[attribute] = counts
        return self._histograms[attribute]

    # -- derived samples, memoised ---------------------------------------- #

    def project(self, attributes: Sequence[str]) -> Optional["RelationSample"]:
        attributes = tuple(attributes)
        return self.derive(("π", attributes), self._project, attributes)

    def _project(self, attributes: Tuple[str, ...]) -> Optional["RelationSample"]:
        if not self.has_attributes(attributes):
            return None
        columns = [map(itemgetter(self.position(a)), self.rows) for a in attributes]
        return RelationSample(self.relation, attributes, zip(*columns), self.population)

    def rename(self, old: str, new: str) -> "RelationSample":
        return self.derive(("ρ", old, new), self._rename, old, new)

    def _rename(self, old: str, new: str) -> "RelationSample":
        attributes = tuple(new if a == old else a for a in self.attributes)
        return RelationSample(self.relation, attributes, self.rows, self.population)


def equi_join_selectivity(
    left: RelationSample, left_attr: str, right: RelationSample, right_attr: str
) -> Optional[float]:
    """:func:`join_selectivity`, memoised on the side that sorts first by
    (relation, attribute): one histogram overlap per join predicate and pair
    of samples, whichever side spells it first.  The order is by name, never
    by object identity, so the overlap's float sum is the same in every process.
    The other side is in the key weakly: no sample keeps another alive, so
    two samples never form a cycle the collector would have to find."""
    (first, first_attr), (second, second_attr) = sorted(
        ((left, left_attr), (right, right_attr)), key=lambda side: (side[0].relation, side[1])
    )
    return first.derive(
        ("⋈", first_attr, weakref.ref(second), second_attr),
        join_selectivity, first, first_attr, second, second_attr,
    )


def join_selectivity(
    left: RelationSample, left_attr: str, right: RelationSample, right_attr: str
) -> Optional[float]:
    """Selectivity of ``left_attr = right_attr``: ``Σ_v f_L(v) · f_R(v)``.

    Returns None when either sample is empty or misses the attribute, so
    callers fall back to the fixed equality constant.
    """
    if not left.rows or not right.rows:
        return None
    if not left.has_attributes((left_attr,)) or not right.has_attributes((right_attr,)):
        return None
    left_histogram = left.histogram(left_attr)
    right_histogram = right.histogram(right_attr)
    if not left_histogram or not right_histogram:
        return None
    smaller, larger = (
        (left_histogram, right_histogram)
        if len(left_histogram) <= len(right_histogram)
        else (right_histogram, left_histogram)
    )
    overlap = sum(count * larger.get(value, 0) for value, count in smaller.items())
    selectivity = overlap / (len(left.rows) * len(right.rows))
    return floor_selectivity(selectivity, len(left.rows) * len(right.rows))


# --------------------------------------------------------------------------- #
# Engine samplers (one relation at a time, for the statistics catalog)
# --------------------------------------------------------------------------- #


def sample_database(database: Any, name: str, capacity: int) -> RelationSample:
    """Sample the rows of one stored relation."""
    _record_sampling()
    relation = database.relation(name)
    rows, population = positional_sample(relation.rows, capacity)
    return RelationSample(name, relation.schema.attributes, rows, population)


def sample_uwsdt(uwsdt: Any, name: str, capacity: int) -> RelationSample:
    """Sample one relation's template: its certain rows, then its open rows'
    values, where placeholder fields stay the ``?`` sentinel."""
    _record_sampling()
    template = uwsdt.templates[name]
    certain, open_rows = template.certain.rows, template.open.rows
    positions, population = positional_sample(range(len(certain) + len(open_rows)), capacity)
    rows = [certain[p] if p < len(certain) else open_rows[p - len(certain)][1:] for p in positions]
    return RelationSample(name, uwsdt.schema.relation(name).attributes, rows, population)
