"""The world-sampling oracle: sampled worlds of a chased census UWSDT.

The brute-force oracle enumerates every world and is limited to a handful
of fields.  Here the census input runs at 2 000 rows with 1 % placeholders,
far past enumeration, so worlds are *sampled*: every component takes one
random local world, and the one-world database that choice represents
(:func:`_fixtures.sampled_world`) is checked

* against the dependencies: a chased world satisfies every census rule;
* against ``Q̂``: each query was run (planned) on the UWSDT, which keeps the
  correlations of its result with the input, so in every world the result
  relation must be what ``evaluate_on_database`` computes from that world's
  ``R`` — the paper's correctness condition ``rep(Q̂(W)) = Q(rep(W))``,
  one world at a time.
"""

import random

import pytest

from repro.baselines.naive import _database_satisfies
from repro.bench import census_instance
from repro.census import (
    CENSUS_RELATION,
    census_dependencies,
    census_query,
    q6_self_join_product_form,
    q_four_way_join,
    query_names,
)
from repro.core.algebra import evaluate_on_database
from repro.relational import Database

from _fixtures import sampled_world

WORLDS_PER_SEED = 5
QUERIES = [(name, census_query(name)) for name in query_names()] + [
    ("four_way", q_four_way_join()),
    ("Q6_self_join", q6_self_join_product_form()),
]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_worlds_agree_with_the_one_world_evaluation(seed):
    uwsdt = census_instance(2000, 0.01, seed).chased()
    assert uwsdt.component_count() > 0
    for name, query in QUERIES:
        query.run(uwsdt, name)
    rng = random.Random(seed)
    relations = {CENSUS_RELATION} | {name for name, _ in QUERIES}
    for _ in range(WORLDS_PER_SEED):
        choices = {cid: rng.randrange(len(c.rows)) for cid, c in uwsdt.components.items()}
        world = sampled_world(uwsdt, choices, relations)
        census = Database([world.relation(CENSUS_RELATION)])
        for dependency in census_dependencies():
            assert _database_satisfies(census, dependency), dependency
        for name, query in QUERIES:
            expected = evaluate_on_database(query, census).row_set()
            assert world.relation(name).row_set() == expected, name
