"""Shared fixtures for the test suite.

Hypothesis strategies live in :mod:`_fixtures` (an importable module, not a
conftest) so that test modules can import them by name without colliding
with ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import os

# The whole tier-1 suite runs with plan verification on: every rewrite-rule
# output is checked schema-preserving and every lowered physical plan is
# checked well-formed (see repro.analysis.invariants).  An explicit setting
# from the environment wins.
os.environ.setdefault("REPRO_VERIFY_PLANS", "1")

import pytest

from repro.core.exec import reset_shard_pool
from repro.relational import Relation, RelationSchema
from repro.worlds import OrSet, OrSetRelation

from _fixtures import orset_relations, plain_relations, values_strategy  # noqa: F401


@pytest.fixture(scope="module", autouse=True)
def _tear_down_shard_pool():
    """No module leaves sharded-backend worker processes to the next."""
    yield
    reset_shard_pool()


# --------------------------------------------------------------------------- #
# Paper running examples
# --------------------------------------------------------------------------- #


@pytest.fixture
def census_forms() -> OrSetRelation:
    """The two ambiguous census forms of Figure 1 (32 possible worlds)."""
    return OrSetRelation.from_dicts(
        "R",
        ["S", "N", "M"],
        [
            {"S": OrSet([185, 785], [0.2, 0.8]), "N": "Smith", "M": OrSet([1, 2], [0.7, 0.3])},
            {"S": OrSet([185, 186], [0.5, 0.5]), "N": "Brown", "M": OrSet([1, 2, 3, 4])},
        ],
    )


@pytest.fixture
def figure10_orset() -> OrSetRelation:
    """The or-set relation whose expansion is the eight-world set of Figure 10 (a).

    The 7-WSD of Figure 10 (b) has independent components for t1.A
    ({1, 2}), t2.A ({4, 5}) and a joint component correlating t1.B, t1.C
    and t2.B.  The joint part cannot be written as an or-set relation, so
    this fixture provides only the independent skeleton used to build it;
    tests construct the correlated component explicitly.
    """
    return OrSetRelation.from_dicts(
        "R",
        ["A", "B", "C"],
        [
            {"A": OrSet([1, 2]), "B": 1, "C": 0},
            {"A": OrSet([4, 5]), "B": 3, "C": 0},
            {"A": 6, "B": 6, "C": 7},
        ],
    )


@pytest.fixture
def small_relation() -> Relation:
    """A small plain relation used by relational-algebra tests."""
    return Relation(
        RelationSchema("Emp", ("NAME", "DEPT", "SALARY")),
        [
            ("ann", "eng", 100),
            ("bob", "eng", 90),
            ("cat", "hr", 80),
            ("dan", "hr", 95),
            ("eve", "ops", 70),
        ],
    )


@pytest.fixture
def departments() -> Relation:
    return Relation(
        RelationSchema("Dept", ("DNAME", "FLOOR")),
        [("eng", 3), ("hr", 1), ("ops", 2)],
    )
