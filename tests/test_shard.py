"""Sharded execution on the Database: boundary, crash fallback, metrics.

Sharded execution of random trees on one world of the input equals brute
force — planned and verbatim, 2 workers — under the possible-worlds oracle
(``tests/test_possible_worlds_oracle.py``).  Here:

1. **Agreement** — sharded and row execution agree row for row.
2. **Boundaries** — per-row subtrees get a ``Gather(Exchange(...))`` pair,
   joins stay above it, bare scans and row plans are left alone, and the
   backend guard rails hold (a Database only, at least one worker).
3. **Fallback** — when the worker pool dies mid-gather, the affected shards
   re-execute in-process, the fallback is counted, and the result is
   identical to the row backend's.
4. **Metrics** — the workers' per-operator metrics are attributed to the
   subtree's nodes, summed over shards, and the skew is rendered.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import WSD
from repro.core.algebra import BaseRelation
from repro.core.exec import (
    SHARDABLE_OPS,
    Exchange,
    Gather,
    ShardedBackend,
    backend_for,
    insert_shard_boundaries,
)
from repro.core.exec import shard as shard_module
from repro.relational import Database, QueryError, Relation, RelationSchema, gt
from repro.worlds import OrSet, OrSetRelation


def database(rows):
    return Database([Relation(RelationSchema("R", ("A0", "A1")), rows)])


# --------------------------------------------------------------------------- #
# 1. Agreement with the row backend
# --------------------------------------------------------------------------- #


class TestShardedDatabase:
    def test_sharded_matches_row_backend_on_database(self):
        """Sharded and row execution agree row-for-row."""
        engine = database([(i, i % 3) for i in range(20)])
        query = BaseRelation("R").select(gt("A0", 4)).project(["A1"])
        expected = query.run(engine, "expected", backend="row")
        sharded = query.run(engine, "result", backend="sharded", workers=2)
        assert sharded.row_set() == expected.row_set()


# --------------------------------------------------------------------------- #
# 2. Boundary insertion and backend guard rails
# --------------------------------------------------------------------------- #


class TestShardBoundaries:
    def _engine(self):
        return database([(i, i % 2) for i in range(8)])

    def test_select_chain_wrapped_join_stays_above(self):
        engine = self._engine()
        left = BaseRelation("R").select(gt("A0", 1))
        right = BaseRelation("R").select(gt("A0", 3)).rename("A0", "B0").rename("A1", "B1")
        query = left.join(right, "A1", "B1")
        physical = query.physical_plan(engine, backend="sharded", workers=2)
        ops = [node.op_name for node in physical.operators()]
        assert "Gather" in ops and "Exchange" in ops
        # The join executes above every Gather: every Exchange subtree holds
        # per-row operators only.
        for node in physical.operators():
            if isinstance(node, Exchange):
                for inner in node.children[0].walk():
                    assert inner.op_name in SHARDABLE_OPS

    def test_bare_scan_not_wrapped(self):
        physical = BaseRelation("R").physical_plan(self._engine(), backend="sharded", workers=2)
        assert not any(isinstance(node, Gather) for node in physical.operators())

    def test_non_sharded_backend_untouched(self):
        engine = self._engine()
        root = BaseRelation("R").select(gt("A0", 1)).physical_plan(engine).root
        assert insert_shard_boundaries(root, backend_for(engine)) is root

    def test_wsd_engine_rejected(self):
        relation = OrSetRelation.from_dicts("R", ["A0"], [{"A0": OrSet([0, 1])}])
        with pytest.raises(QueryError):
            ShardedBackend(WSD.from_orset_relation(relation), workers=2)

    def test_zero_workers_rejected(self):
        with pytest.raises(QueryError):
            ShardedBackend(self._engine(), workers=0)


# --------------------------------------------------------------------------- #
# 3. Worker-crash fallback
# --------------------------------------------------------------------------- #


class _DoomedFuture:
    def result(self):
        raise BrokenProcessPool("worker died")


class _DoomedPool:
    def submit(self, fn, payload):
        return _DoomedFuture()


class TestWorkerCrashFallback:
    QUERY = BaseRelation("R").select(gt("A0", 2)).project(["A1"])

    def _engine(self):
        return database([(i, i % 5) for i in range(12)])

    def test_broken_pool_falls_back_in_process(self, monkeypatch):
        engine = self._engine()
        expected = self.QUERY.run(engine, "P", backend="row")

        monkeypatch.setattr(shard_module, "_shard_pool", lambda workers: _DoomedPool())
        backend = ShardedBackend(engine, workers=2)
        result = self.QUERY.run(engine, "P", backend=backend)

        assert backend.fallbacks >= 1
        assert sorted(result) == sorted(expected)

    def test_healthy_pool_has_no_fallbacks(self):
        engine = self._engine()
        backend = ShardedBackend(engine, workers=2)
        result = self.QUERY.run(engine, "P", backend=backend)
        assert backend.fallbacks == 0
        assert sorted(result) == sorted(self.QUERY.run(engine, "P", backend="row"))


# --------------------------------------------------------------------------- #
# 4. Metrics attribution and EXPLAIN ANALYZE annotations
# --------------------------------------------------------------------------- #


class TestShardMetrics:
    #: A range filter, not an index scan: the leaf Scan reads every row.
    QUERY = BaseRelation("R").select(gt("A0", 3)).project(["A1"])

    def _engine(self):
        return database([(i, i % 4) for i in range(16)])

    def test_worker_metrics_attributed_and_skew_rendered(self):
        report = self.QUERY.explain_analyze(self._engine(), backend="sharded", workers=2)
        assert "Exchange" in report and "Gather" in report
        assert "shard rows" in report
        assert "max" in report and "min" in report

    def test_subtree_metrics_not_dropped(self):
        result = self.QUERY.run(
            self._engine(), "P", optimize=False, backend="sharded", workers=2,
            collect_metrics=True,
        )
        by_op = {record.operator for record in result.metrics.records}
        # The sharded subtree's own operators report merged worker metrics
        # alongside the boundary pair — nothing is dropped.
        assert {"Project", "Exchange", "Gather"} <= by_op
        leaf = next(r for r in result.metrics.records if r.operator == "Scan")
        assert leaf.rows_out == 16  # summed across shards: each row on one shard
