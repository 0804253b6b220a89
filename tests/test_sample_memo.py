"""The memo every catalog sample keeps of what is derived from it — its edges.

A fact is keyed by value: equal predicates built separately share an entry,
constants of different classes do not, and a predicate without value
identity is computed every time and stored nowhere.  The memo is bounded
however many ad-hoc predicates arrive, and samples shared by concurrent
sessions through one catalog plan exactly as one session does.
"""

import sys
import threading

from repro.census import CENSUS_RELATION, census_query, query_names
from repro.core.algebra import BaseRelation
from repro.core.planner import RelationSample, Statistics, catalog_for, plan
from repro.core.planner.sampling import MEMO_ENTRIES
from repro.obs.metrics import get_registry
from repro.relational import (
    And,
    Database,
    Or,
    Predicate,
    Relation,
    RelationSchema,
    eq,
    gt,
    lt,
    ne,
)

from _fixtures import census_engines


def sample_scans() -> int:
    return get_registry().counter("repro.planner.sample_scans").value


def sample() -> RelationSample:
    rows = [(i % 4, "x" if i % 3 else "1") for i in range(12)]
    return RelationSample("R", ("A", "B"), rows, 120)


def compound() -> Predicate:
    return And(eq("A", 1), Or(ne("B", "x"), lt("A", 3)))


class Odd(Predicate):
    """A predicate that only defines ``evaluate``: it has no value identity."""

    def evaluate(self, schema, row):
        return row[schema.position("A")] % 2 == 1

    def _referenced(self):
        return ("A",)


class TestKeyedByValue:
    def test_equal_predicates_built_separately_share_one_entry(self):
        memoised, before = sample(), sample_scans()
        first = memoised.selection(compound())
        assert memoised.selection(compound()) is first
        assert memoised.selection(eq("A", 2)) is memoised.selection(eq("A", 2))
        assert sample_scans() == before + 2

    def test_constants_of_different_classes_do_not_share(self):
        memoised, before = sample(), sample_scans()
        constants = (1, 1.0, True, "1")
        results = [memoised.selection(eq("A", constant)) for constant in constants]
        assert len({id(result) for result in results}) == len(constants)
        assert sample_scans() == before + len(constants)
        keys = {eq("A", constant) for constant in constants}
        assert len(keys) == len(constants)
        # The referenced attribute is part of the value: ``A = ⊥`` and
        # ``B = ⊥`` generate one function but keep different placeholder rows.
        assert eq("A", 1) != eq("B", 1)

    def test_a_predicate_without_value_identity_is_computed_and_not_stored(self):
        memoised = sample()
        for predicate in (eq("A", [1]), Odd()):
            assert predicate.value_key() is None
            before = sample_scans()
            (first, narrowed), (second, again) = (
                memoised.selection(predicate) for _ in range(2)
            )
            assert (first, narrowed.rows) == (second, again.rows) and narrowed is not again
            assert sample_scans() == before + 2

    def test_an_unhashable_constant_plans_and_runs_like_the_written_tree(self):
        rows = [(i % 4, i) for i in range(40)]
        database = Database([Relation(RelationSchema("R", ("A", "B")), rows)])
        query = BaseRelation("R").select(Or(eq("A", [1]), gt("B", 30))).project(["B"])
        planned = query.run(database.copy(), "out")
        written = query.run(database.copy(), "out", optimize=False)
        assert sorted(planned.rows) == sorted(written.rows) == [(b,) for b in range(31, 40)]
        query.plan(database)
        before = sample_scans()
        query.plan(database)
        assert sample_scans() == before + 1


def reachable_samples(root: RelationSample) -> list:
    """``root`` and every sample its memo (and theirs) holds."""
    found, stack = [], [root]
    while stack:
        current = stack.pop()
        found.append(current)
        for value in current._memo.values():
            parts = value if isinstance(value, tuple) else (value,)
            stack.extend(part for part in parts if isinstance(part, RelationSample))
    return found


def test_ad_hoc_predicates_leave_every_memo_within_its_bound():
    rows = [(i, i % 7) for i in range(600)]
    database = Database([Relation(RelationSchema("R", ("A", "B")), rows)])
    for k in range(1000):
        BaseRelation("R").select(eq("A", k)).project(["B"]).plan(database)
    entry, _ = catalog_for(database).entry("R")
    samples = reachable_samples(entry.sample)
    assert len(samples) > 1
    assert max(len(derived._memo) for derived in samples) <= MEMO_ENTRIES
    # What the memo still holds is what a fresh view derives.
    query = BaseRelation("R").select(eq("A", 999)).project(["B"])
    fresh = plan(query, Statistics.from_database(database))
    assert query.plan(database).cost_after == fresh.cost_after


#: More sessions than a two-core machine has cores; each plans Q1–Q6 this many times.
SESSIONS, ROUNDS = 4, 50


def test_concurrent_sessions_on_one_engine_plan_as_one_session_does():
    """Sessions share the engine's catalog and so its samples' memos; one
    ad-hoc predicate per round per session also makes them pass the bound
    and start over while other sessions read them."""
    queries = [(name, census_query(name)) for name in query_names()]

    def warm_engine():
        database, _uwsdt = census_engines()
        Statistics.from_engine(database)  # draws the samples, derives nothing
        return database

    reference = warm_engine()
    expected = {label: query.plan(reference).explain() for label, query in queries}
    shared, errors, texts = warm_engine(), [], []

    def session(number):
        try:
            for round_ in range(ROUNDS):
                texts.extend((label, query.plan(shared).explain()) for label, query in queries)
                constant = 1000 * number + round_
                BaseRelation(CENSUS_RELATION).select(eq("POWSTATE", constant)).plan(shared)
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=session, args=(n,)) for n in range(SESSIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(texts) == SESSIONS * ROUNDS * len(queries)
    assert all(text == expected[label] for label, text in texts)
    entry, _ = catalog_for(shared).entry(CENSUS_RELATION)
    assert max(len(derived._memo) for derived in reachable_samples(entry.sample)) <= MEMO_ENTRIES
