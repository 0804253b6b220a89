"""Explicit finite sets of possible worlds.

A :class:`WorldSet` is the *semantic* object of the paper: a finite set of
databases over a common schema, optionally weighted by probabilities.  All
representation systems in this package (world-set relations, or-set
relations, tuple-independent databases, WSDs, WSDTs, UWSDTs) come with a
``to_worldset``/``rep`` method producing one of these, which is how tests
check that transformations preserve semantics.

Explicit world-sets are only feasible for small examples — which is exactly
the paper's point — so this class is used as the correctness oracle and as
the naive baseline, never as the production representation.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..relational.database import Database
from ..relational.errors import RepresentationError

#: Tolerance used when checking that probabilities sum to one.
PROBABILITY_TOLERANCE = 1e-9


class PossibleWorld:
    """One possible world: a database plus an optional probability."""

    __slots__ = ("database", "probability")

    def __init__(self, database: Database, probability: Optional[float] = None) -> None:
        if probability is not None and (probability < -PROBABILITY_TOLERANCE or probability > 1 + PROBABILITY_TOLERANCE):
            raise RepresentationError(f"world probability {probability} outside [0, 1]")
        self.database = database
        self.probability = probability

    def __repr__(self) -> str:
        if self.probability is None:
            return f"PossibleWorld({self.database!r})"
        return f"PossibleWorld({self.database!r}, p={self.probability:.6g})"


class WorldSet:
    """A finite set of possible worlds over a common schema.

    Duplicate databases are merged; their probabilities (if any) are summed.
    This mirrors the paper's semantics where a world-set is a *set* of
    databases, and the probability of a database is the total mass of the
    component combinations producing it.
    """

    __slots__ = ("_worlds", "_order")

    def __init__(self, worlds: Iterable[PossibleWorld] = ()) -> None:
        self._worlds: Dict[tuple, PossibleWorld] = {}
        self._order: List[tuple] = []
        for world in worlds:
            self.add(world.database, world.probability)

    def add(self, database: Database, probability: Optional[float] = None) -> None:
        """Add one world, merging with an identical existing world."""
        key = database.canonical_form()
        existing = self._worlds.get(key)
        if existing is None:
            if self._worlds:
                sample = next(iter(self._worlds.values()))
                if (sample.probability is None) != (probability is None):
                    raise RepresentationError(
                        "cannot mix probabilistic and non-probabilistic worlds in one world-set"
                    )
            self._worlds[key] = PossibleWorld(database, probability)
            self._order.append(key)
            return
        if existing.probability is None and probability is None:
            return
        if existing.probability is None or probability is None:
            raise RepresentationError(
                "cannot mix probabilistic and non-probabilistic worlds in one world-set"
            )
        self._worlds[key] = PossibleWorld(existing.database, existing.probability + probability)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._worlds)

    def __iter__(self) -> Iterator[PossibleWorld]:
        return (self._worlds[key] for key in self._order)

    @property
    def databases(self) -> List[Database]:
        return [world.database for world in self]

    @property
    def is_probabilistic(self) -> bool:
        """True iff every world carries a probability."""
        return all(world.probability is not None for world in self) and len(self) > 0

    def total_probability(self) -> float:
        """Sum of world probabilities (should be ~1 for a valid distribution)."""
        return sum(world.probability or 0.0 for world in self)

    def validate_probabilities(self) -> None:
        """Raise unless probabilities are present and sum to one (within tolerance)."""
        if not self.is_probabilistic:
            raise RepresentationError("world-set is not probabilistic")
        total = self.total_probability()
        if abs(total - 1.0) > 1e-6:
            raise RepresentationError(f"world probabilities sum to {total}, expected 1")

    def probability_of(self, database: Database) -> float:
        """Return the probability mass of ``database`` (0 if absent)."""
        world = self._worlds.get(database.canonical_form())
        if world is None:
            return 0.0
        return world.probability if world.probability is not None else 0.0

    def contains(self, database: Database) -> bool:
        """Return True iff ``database`` is one of the possible worlds."""
        return database.canonical_form() in self._worlds

    # ------------------------------------------------------------------ #
    # Queries across worlds
    # ------------------------------------------------------------------ #

    def map(self, transform: Callable[[Database], Database]) -> "WorldSet":
        """Apply ``transform`` to each world (the paper's per-world query semantics)."""
        result = WorldSet()
        for world in self:
            result.add(transform(world.database), world.probability)
        return result

    def filter(self, keep: Callable[[Database], bool], renormalize: bool = False) -> "WorldSet":
        """Keep only worlds satisfying ``keep``; optionally renormalize probabilities.

        With ``renormalize=True`` this is exactly the semantics of chasing
        integrity constraints: surviving worlds are reweighted by the total
        surviving mass.
        """
        kept = [(world.database, world.probability) for world in self if keep(world.database)]
        result = WorldSet()
        if renormalize and kept and all(p is not None for _, p in kept):
            mass = sum(p for _, p in kept)  # type: ignore[misc]
            if mass <= 0:
                return result
            for database, probability in kept:
                result.add(database, probability / mass)  # type: ignore[operator]
            return result
        for database, probability in kept:
            result.add(database, probability)
        return result

    def possible_tuples(self, relation_name: str) -> set:
        """All tuples appearing in relation ``relation_name`` in at least one world."""
        tuples = set()
        for world in self:
            if world.database.has_relation(relation_name):
                tuples.update(world.database.relation(relation_name).rows)
        return tuples

    def certain_tuples(self, relation_name: str) -> set:
        """Tuples appearing in relation ``relation_name`` in *every* world."""
        result: Optional[set] = None
        for world in self:
            if not world.database.has_relation(relation_name):
                return set()
            rows = set(world.database.relation(relation_name).rows)
            result = rows if result is None else (result & rows)
        return result or set()

    def tuple_confidence(self, relation_name: str, row: Tuple) -> float:
        """Probability that ``row`` appears in ``relation_name`` (paper, Section 6)."""
        confidence = 0.0
        for world in self:
            if world.probability is None:
                raise RepresentationError("tuple confidence requires a probabilistic world-set")
            if world.database.has_relation(relation_name) and row in world.database.relation(
                relation_name
            ):
                confidence += world.probability
        return confidence

    # ------------------------------------------------------------------ #
    # Comparison
    # ------------------------------------------------------------------ #

    def same_worlds(self, other: "WorldSet") -> bool:
        """True iff both world-sets contain exactly the same databases (ignoring probabilities)."""
        return set(self._worlds) == set(other._worlds)

    def same_distribution(self, other: "WorldSet", tolerance: float = 1e-6) -> bool:
        """True iff both world-sets assign (approximately) the same probability to every world."""
        if set(self._worlds) != set(other._worlds):
            return False
        for key, world in self._worlds.items():
            other_world = other._worlds[key]
            p_self = world.probability if world.probability is not None else 1.0
            p_other = other_world.probability if other_world.probability is not None else 1.0
            if abs(p_self - p_other) > tolerance:
                return False
        return True

    def __repr__(self) -> str:
        return f"WorldSet({len(self)} worlds)"
