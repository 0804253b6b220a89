"""Output checks that run before every measured pass.

The timed loops only compare each result's size with the first
iteration's; whether the first iteration is *right* is established here, on
inputs small enough for the slow oracles:

* every census query, planned versus ``optimize=False``, must give the same
  possible tuples with the same confidences on a chased UWSDT and the same
  rows on the one-world Database;
* the chase must agree with removing the violating worlds one by one
  (``repro.baselines.naive.clean``) on an instance with 9 placeholders.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.baselines import naive
from repro.census import (
    CensusGenerator,
    census_dependencies,
    census_schema,
    q_four_way_join,
)
from repro.core.chase import chase_uwsdt
from repro.core.confidence import uwsdt_possible_with_confidence
from repro.core.uwsdt import UWSDT
from repro.worlds import OrSet, OrSetRelation

from workloads import PAPER_QUERIES, PRODUCT_JOINS, CensusInput

PREFLIGHT_ROWS = 200
PREFLIGHT_DENSITY = 0.01
CONFIDENCE_TOLERANCE = 1e-9

#: Per brute-force row, the attributes turned into two-value or-sets.  Each
#: group touches the premise or conclusion of at least one dependency, and
#: the two-attribute groups create correlated components.
BRUTE_FORCE_FIELDS = (
    ("IMMIGR",),
    ("RSPOUSE",),
    ("CITIZEN", "IMMIGR"),
    ("MILITARY", "WWII"),
    ("ENGLISH",),
    ("KOREAN", "SCHOOL"),
)


def _ranked(uwsdt: UWSDT, relation: str) -> List[Tuple[Any, float]]:
    return sorted(uwsdt_possible_with_confidence(uwsdt, relation), key=lambda item: repr(item[0]))


def _same_ranking(left: List[Tuple[Any, float]], right: List[Tuple[Any, float]]) -> bool:
    if [row for row, _ in left] != [row for row, _ in right]:
        return False
    return all(abs(a - b) <= CONFIDENCE_TOLERANCE for (_, a), (_, b) in zip(left, right))


def check_planned_equals_unplanned(seed: int) -> List[str]:
    """Failures of the planned ≡ unplanned oracle (empty when all agree)."""
    census = CensusInput(seed, PREFLIGHT_ROWS, PREFLIGHT_DENSITY)
    chased = census.chased()
    database = census.database()
    failures = []
    for label, factory in PAPER_QUERIES + PRODUCT_JOINS + [("four_way", q_four_way_join)]:
        planned, unplanned = chased.copy(), chased.copy()
        factory().run(planned, "out")
        factory().run(unplanned, "out", optimize=False)
        if not _same_ranking(_ranked(planned, "out"), _ranked(unplanned, "out")):
            failures.append(f"{label}: planned and unplanned UWSDT answers differ")
        rows = set(factory().run(database, "out").rows)
        if rows != set(factory().run(database, "out", optimize=False).rows):
            failures.append(f"{label}: planned and unplanned Database answers differ")
    return failures


def brute_force_instance(seed: int) -> OrSetRelation:
    generator = CensusGenerator(seed=seed)
    domains = generator.domains
    relation = OrSetRelation(census_schema())
    for fields in BRUTE_FORCE_FIELDS:
        values = dict(zip(generator.attributes, generator.generate_row()))
        for attribute in fields:
            original = values[attribute]
            alternatives = sorted({original, (original + 1) % domains[attribute]})
            values[attribute] = OrSet(alternatives, [1.0 / len(alternatives)] * len(alternatives))
        relation.insert(tuple(values[a] for a in generator.attributes))
    return relation


def check_chase_against_worlds(seed: int) -> List[str]:
    """The chased UWSDT must represent exactly the worlds that satisfy the
    dependencies, with renormalized probabilities."""
    orset = brute_force_instance(seed)
    expected = naive.clean(orset.to_worldset(), census_dependencies())
    uwsdt = UWSDT.from_orset_relation(orset)
    chase_uwsdt(uwsdt, census_dependencies())
    uwsdt.validate()
    if not uwsdt.to_worldset().same_distribution(expected, tolerance=CONFIDENCE_TOLERANCE):
        return [f"chase disagrees with per-world cleaning ({len(expected)} consistent worlds)"]
    return []


CHECKS: List[Tuple[str, Callable[[int], List[str]]]] = [
    ("planned==unplanned", check_planned_equals_unplanned),
    ("chase==per-world", check_chase_against_worlds),
]
