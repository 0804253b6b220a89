"""Sharded execution: partition invariant, boundary, crash fallback.

Sharded execution of random trees equals brute force in every world, with
exact confidences — planned and verbatim, 2 workers — under the
possible-worlds oracle (``tests/test_possible_worlds_oracle.py``).  Here:

1. **The certain engine** — sharded and row execution agree row for row.
2. **Partition invariant** — no world-set component's covered tuples are
   ever split across shards (property-tested over chased, correlated
   inputs), every template row lands on exactly one shard, and every
   shipped component on exactly one shard.
3. **Fallback** — when the worker pool dies mid-gather, the affected shards
   re-execute in-process, the fallback is counted, and the result is
   identical to the row backend's.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import UWSDT, WSD
from repro.core.algebra import BaseRelation
from repro.core.chase import FunctionalDependency, chase_uwsdt
from repro.core.exec import (
    SHARDABLE_OPS,
    Exchange,
    Gather,
    ShardedBackend,
    insert_shard_boundaries,
    partition_uwsdt_components,
)
from repro.core.exec import shard as shard_module
from repro.relational import (
    Database,
    InconsistentWorldSetError,
    QueryError,
    Relation,
    RelationSchema,
    eq,
    gt,
)
from repro.worlds import OrSet, OrSetRelation

from _fixtures import ORACLE_SCHEMAS, budgeted_orset_relations

SCANNED = tuple(name for name, _ in ORACLE_SCHEMAS)


# --------------------------------------------------------------------------- #
# 1. The certain engine (the possible-worlds oracle runs its sharded cells)
# --------------------------------------------------------------------------- #


class TestShardedDatabase:
    def test_sharded_matches_row_backend_on_database(self):
        """The certain engine: sharded and row execution agree row-for-row."""
        database = Database(
            [
                Relation(
                    RelationSchema("R", ("A0", "A1")),
                    [(i, i % 3) for i in range(20)],
                )
            ]
        )
        query = BaseRelation("R").select(gt("A0", 4)).project(["A1"])
        expected = query.run(database, "expected", backend="row")
        sharded = query.run(database, "result", backend="sharded", workers=2)
        assert sharded.row_set() == expected.row_set()


# --------------------------------------------------------------------------- #
# 2. The component-partition invariant
# --------------------------------------------------------------------------- #


class TestComponentPartitionInvariant:
    @given(
        budgeted_orset_relations(ORACLE_SCHEMAS, max_rows=3, uncertain_budget=5),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_component_split_across_shards(self, relations, shards):
        """Chased (correlated) inputs: each component group stays whole."""
        uwsdt = UWSDT.from_orset_relations(relations)
        try:
            uwsdt = chase_uwsdt(uwsdt, [FunctionalDependency("R", ["A0"], "A1")])
        except InconsistentWorldSetError:
            assume(False)
        uwsdt.validate()

        specs, shipped = partition_uwsdt_components(uwsdt, SCANNED, shards)

        # Every template row of every scanned relation lands on exactly one
        # shard, under its original tuple id.
        for relation in SCANNED:
            parent_rows = Counter(tid for tid, _ in uwsdt.template_rows(relation))
            shard_rows = Counter(
                tid for spec in specs for tid, _ in spec.rows.get(relation, [])
            )
            assert shard_rows == parent_rows

        # Every shipped component is assigned to exactly one shard, and that
        # shard holds *all* the scanned tuples the component covers.
        assert sorted(cid for spec in specs for cid in spec.cids) == sorted(shipped)
        for spec in specs:
            rows_here = {
                (relation, tid)
                for relation, rows in spec.rows.items()
                for tid, _ in rows
            }
            for cid in spec.cids:
                covered = {
                    (relation, tid)
                    for relation, tid in uwsdt.components[cid].tuples_covered()
                    if relation in SCANNED
                }
                assert covered <= rows_here, (
                    f"component {cid} split: covers {covered}, shard has {rows_here}"
                )

        # Components covering no scanned tuple are never shipped.
        for cid, component in uwsdt.components.items():
            if cid in set(shipped):
                continue
            assert not any(
                relation in SCANNED
                for relation, _ in component.tuples_covered()
            )


# --------------------------------------------------------------------------- #
# 3. Boundary insertion and backend guard rails
# --------------------------------------------------------------------------- #


class TestShardBoundaries:
    def _engine(self):
        relation = OrSetRelation.from_dicts(
            "R",
            ["A0", "A1"],
            [{"A0": i, "A1": OrSet([0, 1])} for i in range(8)],
        )
        return UWSDT.from_orset_relation(relation)

    def test_select_chain_wrapped_join_stays_above(self):
        engine = self._engine()
        left = BaseRelation("R").select(gt("A0", 1))
        right = BaseRelation("R").select(gt("A0", 3)).rename("A0", "B0").rename("A1", "B1")
        query = left.join(right, "A1", "B1")
        physical = query.physical_plan(engine, backend="sharded", workers=2)
        ops = [node.op_name for node in physical.operators()]
        assert "Gather" in ops and "Exchange" in ops
        # The join executes above every Gather: no Gather has a join above
        # it inside an Exchange, and the root region contains the join.
        for node in physical.operators():
            if isinstance(node, Exchange):
                for inner in node.children[0].walk():
                    assert inner.op_name in SHARDABLE_OPS

    def test_bare_scan_not_wrapped(self):
        engine = self._engine()
        physical = BaseRelation("R").physical_plan(
            engine, backend="sharded", workers=2
        )
        assert not any(isinstance(node, Gather) for node in physical.operators())

    def test_non_sharded_backend_untouched(self):
        engine = self._engine()
        physical = BaseRelation("R").select(gt("A0", 1)).physical_plan(engine)
        root = physical.root
        from repro.core.exec.backends import backend_for

        assert insert_shard_boundaries(root, backend_for(engine)) is root

    def test_wsd_engine_rejected(self):
        relation = OrSetRelation.from_dicts("R", ["A0"], [{"A0": OrSet([0, 1])}])
        with pytest.raises(QueryError):
            ShardedBackend(WSD.from_orset_relation(relation), workers=2)

    def test_zero_workers_rejected(self):
        with pytest.raises(QueryError):
            ShardedBackend(self._engine(), workers=0)


# --------------------------------------------------------------------------- #
# 4. Worker-crash fallback
# --------------------------------------------------------------------------- #


class _DoomedFuture:
    def result(self):
        raise BrokenProcessPool("worker died")


class _DoomedPool:
    def submit(self, fn, payload):
        return _DoomedFuture()


class TestWorkerCrashFallback:
    def _engine(self):
        relation = OrSetRelation.from_dicts(
            "R",
            ["A0", "A1"],
            [{"A0": i, "A1": OrSet([0, 1]) if i % 3 == 0 else i} for i in range(12)],
        )
        return UWSDT.from_orset_relation(relation)

    def test_broken_pool_falls_back_in_process(self, monkeypatch):
        query = BaseRelation("R").select(gt("A0", 2)).project(["A1"])
        engine = self._engine()
        expected = engine.copy()
        query.run(expected, "P", backend="row")
        expected_rows = sorted(
            (values for _, values in expected.template_rows("P")), key=repr
        )

        monkeypatch.setattr(shard_module, "_shard_pool", lambda workers: _DoomedPool())
        sharded = engine.copy()
        backend = ShardedBackend(sharded, workers=2)
        query.run(sharded, "P", backend=backend)
        sharded.validate()

        assert backend.fallbacks >= 1
        assert (
            sorted((values for _, values in sharded.template_rows("P")), key=repr)
            == expected_rows
        )

    def test_healthy_pool_has_no_fallbacks(self):
        query = BaseRelation("R").select(gt("A0", 2)).project(["A1"])
        engine = self._engine()
        backend = ShardedBackend(engine, workers=2)
        query.run(engine, "P", backend=backend)
        engine.validate()
        assert backend.fallbacks == 0


# --------------------------------------------------------------------------- #
# 5. Metrics attribution and EXPLAIN ANALYZE annotations
# --------------------------------------------------------------------------- #


class TestShardMetrics:
    def test_worker_metrics_attributed_and_skew_rendered(self):
        relation = OrSetRelation.from_dicts(
            "R",
            ["A0", "A1"],
            [{"A0": i, "A1": OrSet([0, 1]) if i % 4 == 0 else 1} for i in range(16)],
        )
        engine = UWSDT.from_orset_relation(relation)
        query = BaseRelation("R").select(eq("A1", 1)).project(["A0"])
        report = query.explain_analyze(engine, backend="sharded", workers=2)
        assert "Exchange" in report and "Gather" in report
        assert "shard rows" in report
        assert "max" in report and "min" in report

    def test_subtree_metrics_not_dropped(self):
        relation = OrSetRelation.from_dicts(
            "R",
            ["A0", "A1"],
            [{"A0": i, "A1": OrSet([0, 1]) if i % 4 == 0 else 1} for i in range(16)],
        )
        engine = UWSDT.from_orset_relation(relation)
        query = BaseRelation("R").select(eq("A1", 1)).project(["A0"])
        result = query.run(
            engine, "P", optimize=False, backend="sharded", workers=2,
            collect_metrics=True,
        )
        by_op = {record.operator for record in result.metrics.records}
        # The sharded subtree's own operators report merged worker metrics
        # alongside the boundary pair — nothing is dropped.
        assert {"Project", "Exchange", "Gather"} <= by_op
        leaf = next(
            r for r in result.metrics.records if r.operator in ("Scan", "IndexScan")
        )
        assert leaf.rows_out == 16  # summed across shards
