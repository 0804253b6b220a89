"""The closed feedback loop: observed cardinalities steer the planner.

PR 5 recorded estimated-vs-actual cardinalities into the statistics catalog
but the planner never read them back.  These tests pin the full loop:

* ``record_actual`` EWMA-blends *both* sides (actuals and estimates) instead
  of overwriting the stored estimate with the latest guess,
* semantically keyed observations enter ``Statistics.observed`` once they
  reach :data:`OBSERVED_MIN_COUNT` and are dropped when any underlying
  relation mutates (version-key staleness),
* the join-order DP consults them: a correlated, mis-estimated join flips
  to the genuinely cheaper order after two observed executions — confirmed
  against the unoptimized oracle,
* catalog invalidation releases its relation watchers (the PR-5 leak).
"""

from repro.core.algebra import BaseRelation
from repro.core.planner import OBSERVED_MIN_COUNT, cardinality_key, catalog_for
from repro.relational import Database, Relation, RelationSchema
from repro.relational.predicates import AttrAttr, AttrConst


def skewed_database() -> Database:
    """Heavy-hitter skew the fixed-constant estimator cannot see.

    With ``sample_size=0`` the DP prices both equi-join edges at the fixed
    0.1 selectivity:

    * est ``|R ⋈ S|`` = 60·60·0.1 = 360, but the correlated heavy hitter
      (key 0 on 50 rows of each side) makes the truth 50·50 + 10 = 2510;
    * est ``|S ⋈ T|`` = 60·200·0.1 = 1200, truth 60·10 = 600 (uniform).

    So the cold plan joins R and S first — the order that is *truly* four
    times more expensive.
    """
    r = Relation(
        RelationSchema("R", ("A", "RV")),
        [(0 if i < 50 else i - 49, i) for i in range(60)],
    )
    s = Relation(
        RelationSchema("S", ("B", "C", "SV")),
        [(0 if i < 50 else i - 49, i % 20, i) for i in range(60)],
    )
    t = Relation(RelationSchema("T", ("D", "TV")), [(i % 20, i) for i in range(200)])
    return Database([r, s, t])


def skewed_query():
    return (
        BaseRelation("R")
        .join(BaseRelation("S"), "A", "B")
        .join(BaseRelation("T"), "C", "D")
    )


class TestObservedStore:
    def test_record_actual_blends_estimates_symmetrically(self):
        database = Database(
            [Relation(RelationSchema("R", ("A",)), [(1,), (2,)])]
        )
        catalog = catalog_for(database)
        catalog.record_actual("op", estimated_rows=100.0, actual_rows=10.0)
        catalog.record_actual("op", estimated_rows=50.0, actual_rows=20.0)
        record = catalog.observed_view(min_count=1)["op"]
        assert record.actual_rows == 15.0  # 0.5·10 + 0.5·20
        # The stored estimate must be the same EWMA blend, not the latest
        # planner guess (which would make the q-error trend meaningless).
        assert record.estimated_rows == 75.0  # 0.5·100 + 0.5·50
        assert record.count == 2

    def test_observations_require_min_count(self):
        database = skewed_database()
        catalog = catalog_for(database, sample_size=0)
        query = skewed_query()
        query.run(database, "once", collect_metrics=True)
        assert OBSERVED_MIN_COUNT > 1
        assert catalog.observed_view() == {}
        # A second execution crosses the threshold.
        query.run(database, "twice", collect_metrics=True)
        assert catalog.observed_view() != {}

    def test_observations_dropped_when_relation_mutates(self):
        database = skewed_database()
        catalog = catalog_for(database, sample_size=0)
        query = skewed_query()
        query.run(database, "one", collect_metrics=True)
        query.run(database, "two", collect_metrics=True)
        observed = catalog.observed_view()
        join_key = cardinality_key(BaseRelation("R").join(BaseRelation("S"), "A", "B"))
        assert join_key in observed
        assert "T|" in observed

        database.relation("R").insert((999, 999))
        observed = catalog.observed_view()
        # Every observation touching R is stale; the rest survives.
        assert join_key not in observed
        assert "R|" not in observed
        assert "T|" in observed

    def test_cardinality_key_is_order_independent(self):
        left = BaseRelation("R").join(BaseRelation("S"), "A", "B")
        right = BaseRelation("S").join(BaseRelation("R"), "B", "A")
        assert cardinality_key(left) == cardinality_key(right)
        # A product plus the equivalent selection shares the key too.
        fused = (
            BaseRelation("S")
            .product(BaseRelation("R"))
            .select(AttrAttr("B", "=", "A"))
        )
        assert cardinality_key(fused) == cardinality_key(left)
        other = BaseRelation("R").join(BaseRelation("S"), "A", "C")
        assert cardinality_key(other) != cardinality_key(left)


class TestReplanAfterFeedback:
    def test_misestimated_join_replans_to_cheaper_order(self):
        database = skewed_database()
        catalog = catalog_for(database, sample_size=0)
        query = skewed_query()

        cold = query.plan(database)
        assert "(R ⋈ S)" in cold.join_order  # the mis-estimated order

        query.run(database, "one", collect_metrics=True)
        query.run(database, "two", collect_metrics=True)

        warm = query.plan(database)
        assert "(R ⋈ S)" not in warm.join_order
        assert "(S ⋈ T)" in warm.join_order or "(T ⋈ S)" in warm.join_order

        # The corrected plan is an optimization, never a semantic change.
        corrected = query.run(database, "corrected", plan=warm)
        oracle = query.run(database, "oracle", optimize=False)
        assert sorted(corrected) == sorted(oracle)

    def test_feedback_is_inert_below_threshold(self):
        database = skewed_database()
        catalog_for(database, sample_size=0)
        query = skewed_query()
        cold = query.plan(database)
        query.run(database, "one", collect_metrics=True)
        still_cold = query.plan(database)
        assert still_cold.join_order == cold.join_order


class TestWatcherRelease:
    def test_invalidate_releases_relation_watchers(self):
        database = skewed_database()
        catalog = catalog_for(database)
        query = skewed_query()
        for _ in range(3):
            query.plan(database)
        # One persistent watcher per watched relation, however often planned.
        assert len(database.relation("R")._watchers) == 1
        assert len(database.relation("S")._watchers) == 1

        catalog.invalidate("R")
        assert len(database.relation("R")._watchers) == 0
        assert len(database.relation("S")._watchers) == 1

        catalog.invalidate()
        for name in ("R", "S", "T"):
            assert len(database.relation(name)._watchers) == 0

    def test_plan_invalidate_cycles_do_not_leak(self):
        database = skewed_database()
        catalog = catalog_for(database)
        query = skewed_query()
        for _ in range(5):
            query.plan(database)
            catalog.invalidate()
        for name in ("R", "S", "T"):
            assert len(database.relation(name)._watchers) == 0

    def test_watcher_fired_drop_keeps_single_watcher(self):
        database = skewed_database()
        catalog = catalog_for(database)
        query = skewed_query()
        query.plan(database)
        # A mutation fires the watcher (entry dropped) but the watcher stays
        # registered — replanning must not stack a second one.
        database.relation("R").insert((877, 877))
        query.plan(database)
        assert len(database.relation("R")._watchers) == 1


class TestObservedOverrideScope:
    def test_select_observation_feeds_estimate(self):
        database = skewed_database()
        catalog = catalog_for(database, sample_size=0)
        query = BaseRelation("R").select(AttrConst("A", "=", 0))
        query.run(database, "one", collect_metrics=True)
        query.run(database, "two", collect_metrics=True)
        observed = catalog.observed_view()
        key = cardinality_key(query)
        assert key in observed
        assert observed[key].actual_rows == 50.0
        statistics = catalog.statistics()
        assert statistics.observed_rows(key) == 50.0
