"""Synthetic census data generator with or-set noise injection.

The paper's evaluation pipeline is:

1. take the (clean) IPUMS census relation,
2. *add incompleteness* by replacing a fraction of the fields ("noise ratio"
   or placeholder density: 0.005 %–0.1 %) by or-sets of 2–8 candidate values
   (average ≈ 3.5),
3. clean the data by chasing the 12 dependencies of Figure 25,
4. run the queries of Figure 29 on the resulting UWSDT.

This module reproduces steps 1 and 2 with a synthetic relation of the same
shape.  Value distributions are mildly skewed so that the Figure 29 queries
have selectivities of the same order as in the paper; the generated clean
data always satisfies the 12 dependencies, so — as in the paper — only the
injected or-sets can make worlds inconsistent.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..relational.predicates import compare
from ..relational.relation import Relation
from ..worlds.orset import OrSet, OrSetRelation
from .dependencies import census_dependencies
from .schema import CENSUS_RELATION, attribute_domains, census_attributes, census_schema

#: Maximum or-set size used by the noise injector (as in the paper).
MAX_OR_SET_SIZE = 8

#: Skewed value distributions for the attributes driving query selectivity.
#: Each entry maps a value to its sampling weight; unspecified domain values
#: share the remaining mass uniformly.
_VALUE_WEIGHTS: Dict[str, Dict[int, float]] = {
    "CITIZEN": {0: 0.85},
    "IMMIGR": {0: 0.80},
    "YEARSCH": {17: 0.02},
    "ENGLISH": {3: 0.10, 4: 0.05},
    "LANG1": {2: 0.70},
    "MARITAL": {0: 0.45, 1: 0.10},
    "RSPOUSE": {1: 0.25, 2: 0.15},
    "FERTIL": {1: 0.25},
    "MILITARY": {4: 0.55},
    "SCHOOL": {0: 0.70},
    "WWII": {1: 0.05},
    "KOREAN": {1: 0.04},
    "VIETNAM": {1: 0.06},
    "FEB55": {1: 0.03},
    "RPOB": {52: 0.01},
}


class CensusGenerator:
    """Deterministic generator for clean census rows and or-set noise."""

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        self.attributes = census_attributes()
        self.domains = attribute_domains()
        self.dependencies = census_dependencies()
        self._random = random.Random(seed)

    # ------------------------------------------------------------------ #
    # Clean data
    # ------------------------------------------------------------------ #

    def _sample_value(self, attribute: str) -> int:
        domain_size = self.domains[attribute]
        weights = _VALUE_WEIGHTS.get(attribute)
        if not weights:
            return self._random.randrange(domain_size)
        roll = self._random.random()
        cumulative = 0.0
        for value, weight in weights.items():
            cumulative += weight
            if roll < cumulative:
                return value
        # Remaining mass spread uniformly over the unweighted values.
        others = [v for v in range(domain_size) if v not in weights]
        if not others:
            return self._random.randrange(domain_size)
        return self._random.choice(others)

    def _repair_row(self, values: Dict[str, int]) -> Dict[str, int]:
        """Adjust a sampled row so it satisfies all 12 dependencies."""
        for dependency in self.dependencies:
            if dependency.holds_for(values):
                continue
            conclusion = dependency.conclusion
            if conclusion.op in ("=", "=="):
                values[conclusion.attribute] = conclusion.constant
            else:
                domain_size = self.domains[conclusion.attribute]
                candidates = [
                    v for v in range(domain_size) if compare(v, conclusion.op, conclusion.constant)
                ]
                values[conclusion.attribute] = candidates[0] if candidates else 0
        return values

    def generate_row(self) -> Tuple[int, ...]:
        """One clean census row satisfying all dependencies."""
        values = {attribute: self._sample_value(attribute) for attribute in self.attributes}
        values = self._repair_row(values)
        return tuple(values[attribute] for attribute in self.attributes)

    def clean_relation(self, rows: int) -> Relation:
        """A clean census relation with ``rows`` tuples."""
        relation = Relation(census_schema())
        for index in range(rows):
            # Guarantee distinct rows without rejection sampling: embed a
            # counter in the last filler attribute's high bits would change
            # the domain, so instead retry a couple of times and accept that
            # occasional duplicates are dropped by set semantics.
            inserted = relation.insert(self.generate_row())
            attempts = 0
            while not inserted and attempts < 5:
                inserted = relation.insert(self.generate_row())
                attempts += 1
        return relation

    # ------------------------------------------------------------------ #
    # Noise injection (step 2 of the paper's pipeline)
    # ------------------------------------------------------------------ #

    def add_noise(self, relation: Relation, density: float) -> OrSetRelation:
        """Replace a ``density`` fraction of the fields by or-sets.

        Mirrors the paper: each or-set has a random size in
        ``[2, min(8, domain size)]`` and always contains the original value,
        so the clean world remains one of the possible worlds.
        """
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density {density} outside [0, 1]")
        noisy = OrSetRelation(census_schema())
        rng = random.Random(self.seed + 1)
        for row in relation:
            values: List[object] = []
            for attribute, value in zip(self.attributes, row):
                if rng.random() < density:
                    values.append(self._make_or_set(rng, attribute, value))
                else:
                    values.append(value)
            noisy.insert(tuple(values))
        return noisy

    def _make_or_set(self, rng: random.Random, attribute: str, original: int) -> OrSet:
        domain_size = self.domains[attribute]
        maximum = min(MAX_OR_SET_SIZE, domain_size)
        size = rng.randint(2, maximum) if maximum >= 2 else 2
        candidates = {original}
        while len(candidates) < size:
            candidates.add(rng.randrange(domain_size))
        ordered = sorted(candidates)
        return OrSet(ordered)



def uncertain_field_count(orset_relation: OrSetRelation) -> int:
    """Number of or-set fields (the ``#placeholders`` statistic)."""
    return len(orset_relation.uncertain_fields())
