"""The plan-invariant verifier: schema-preserving rewrites, well-formed plans.

* A Hypothesis property drives the full rewrite pipeline over oracle-shaped
  random trees (the same three-relation shapes the possible-worlds oracle
  uses) with verification forced on: every rule firing is checked
  schema-preserving, and the chosen tree's inferred schema must equal the
  original's.
* A deliberately broken rewrite rule (drops a column) must be caught and
  named by :class:`~repro.analysis.invariants.PlanInvariantError`.
* Hand-built malformed physical plans exercise each structural check:
  unpaired boundaries, boundaries in row plans, bad join keys, IndexScan
  without an indexable predicate, batch handles at the root.
* Operator outputs are sets: an operator that wrongly claims ``distinct``
  (Database rows, UWSDT tuple ids, the columnar boundary) is caught as it
  produces its output and named; switched off, execution reads the flag once.
* The plan cache's backend-kind consistency check.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import invariants
from repro.analysis.invariants import PlanInvariantError
from repro.analysis.schema import SchemaContext
from repro.core import verify
from repro.core.algebra import BaseRelation
from repro.core.exec import backend_for, lower
from repro.core.exec.physical import (
    Dematerialize,
    HashJoin,
    IndexScan,
    Materialize,
    PhysicalPlan,
    Scan,
)
from repro.core.planner import Statistics, plan
from repro.core.planner.planner import rewrite
from repro.core.planner.rules import RewriteContext, RewriteRule
from repro.relational import Database, Relation, RelationSchema
from repro.relational.predicates import And, AttrAttr, AttrConst

from _fixtures import ORACLE_ATTRS, query_trees


@pytest.fixture(autouse=True)
def _verification_on():
    previous = invariants.set_verification(True)
    yield
    invariants.set_verification(previous)


def oracle_statistics() -> Statistics:
    return Statistics(
        row_counts={name: 10 for name in ORACLE_ATTRS},
        attributes={name: attrs for name, attrs in ORACLE_ATTRS.items()},
    )


# --------------------------------------------------------------------------- #
# Property: every rewrite rule is schema-preserving on oracle-shaped trees
# --------------------------------------------------------------------------- #


class TestRewritePreservation:
    @given(query_trees())
    @settings(max_examples=120, deadline=None)
    def test_pipeline_preserves_schema_on_random_trees(self, query):
        statistics = oracle_statistics()
        checked_before = invariants.rewrites_verified()
        result = plan(query, statistics)
        # Each rule application was individually verified (no exception),
        # and the end-to-end schema is unchanged.
        assert invariants.rewrites_verified() - checked_before >= len(result.applications)
        context = RewriteContext(statistics)
        assert context.attributes_of(result.optimized) == context.attributes_of(query)

    def test_broken_rule_is_caught_and_named(self):
        class DropColumn(RewriteRule):
            """Deliberately unsound: rewrites R to π[A0](R)."""

            name = "drop-column"

            def apply(self, query, context):
                if isinstance(query, BaseRelation) and query.name == "R":
                    return BaseRelation("R").project(("A0",))
                return None

        context = RewriteContext(oracle_statistics())
        with pytest.raises(PlanInvariantError) as excinfo:
            rewrite(BaseRelation("R"), context, [("broken", [DropColumn()])])
        message = str(excinfo.value)
        assert "drop-column" in message
        assert "not\nschema-preserving" in message or "schema-preserving" in message
        assert "('A0', 'A1', 'A2')" in message and "('A0',)" in message

    def test_unknown_schemas_skip_the_check(self):
        # No statistics: both sides derive to None — a rule
        # firing over opaque relations must not be reported as a violation.
        class Identityish(RewriteRule):
            name = "rename-roundtrip"

            def apply(self, query, context):
                if isinstance(query, BaseRelation) and query.name == "X":
                    return BaseRelation("Y")
                return None

        rewrite(BaseRelation("X"), RewriteContext(), [("opaque", [Identityish()])])


# --------------------------------------------------------------------------- #
# Physical plan verification
# --------------------------------------------------------------------------- #


def small_database() -> Database:
    r = Relation(RelationSchema("R", ("A", "B")), [(1, 2), (3, 4)])
    s = Relation(RelationSchema("S", ("C", "D")), [(1, 5)])
    return Database([r, s])


class TestPhysicalVerification:
    def test_lowered_plans_verify_clean(self):
        database = small_database()
        backend = backend_for(database)
        statistics = Statistics.from_engine(database)
        query = (
            BaseRelation("R")
            .join(BaseRelation("S"), "A", "C")
            .select(AttrConst("B", "=", 2))
        )
        checked_before = invariants.plans_verified()
        lower(query, backend, statistics)  # raises on violation
        assert invariants.plans_verified() > checked_before

    def test_boundary_in_row_plan_rejected(self):
        root = Materialize(Scan("R"))
        plan_ = PhysicalPlan(root, "database")
        with pytest.raises(PlanInvariantError, match="boundaries belong"):
            invariants.verify_physical(plan_)

    def test_unpaired_dematerialize_rejected(self):
        root = Dematerialize(Scan("R"))
        plan_ = PhysicalPlan(root, "columnar")
        with pytest.raises(PlanInvariantError, match="unpaired boundary"):
            invariants.verify_physical(plan_)

    def test_batch_root_rejected(self):
        root = Materialize(Scan("R"))
        plan_ = PhysicalPlan(root, "columnar")
        with pytest.raises(PlanInvariantError, match="Dematerialize boundary is missing"):
            invariants.verify_physical(plan_)

    def test_hash_join_bad_key_rejected(self):
        context = SchemaContext(attributes={"R": ("A", "B"), "S": ("C", "D")})
        root = HashJoin(Scan("R"), Scan("S"), "A", "NOPE")
        plan_ = PhysicalPlan(root, "database")
        with pytest.raises(PlanInvariantError, match="'NOPE'"):
            invariants.verify_physical(plan_, schema_context=context)

    def test_index_scan_requires_equality_predicate(self):
        root = IndexScan("R", AttrConst("A", "<", 3))
        plan_ = PhysicalPlan(root, "database")
        with pytest.raises(PlanInvariantError, match="hashable"):
            invariants.verify_physical(plan_)

    @pytest.mark.parametrize(
        "key",
        [AttrConst("B", ">", 2), AttrConst("A", "=", 2), AttrConst("A", "=", float("nan"))],
        ids=["a non-equality conjunct", "an equality not in the predicate", "a nan equality"],
    )
    def test_index_scan_key_must_be_an_equality_conjunct(self, key):
        predicate = And(
            AttrConst("A", "=", 1), AttrConst("B", ">", 2), AttrConst("A", "=", float("nan"))
        )
        context = SchemaContext(attributes={"R": ("A", "B")})
        invariants.verify_physical(
            PhysicalPlan(IndexScan("R", predicate, key=AttrConst("A", "=", 1)), "database"),
            schema_context=context,
        )
        plan_ = PhysicalPlan(IndexScan("R", predicate, key=key), "database")
        with pytest.raises(PlanInvariantError, match="not a hashable equality conjunct"):
            invariants.verify_physical(plan_, schema_context=context)

    def test_index_scan_residual_attribute_checked(self):
        context = SchemaContext(attributes={"R": ("A", "B")})
        key = AttrConst("A", "=", 1)
        root = IndexScan("R", And(key, AttrConst("Z", ">", 3)), key=key)
        with pytest.raises(PlanInvariantError, match="'Z'"):
            invariants.verify_physical(PhysicalPlan(root, "database"), schema_context=context)

    def test_index_scan_predicate_attribute_checked(self):
        context = SchemaContext(attributes={"R": ("A", "B")})
        root = IndexScan("R", AttrConst("Z", "=", 3))
        plan_ = PhysicalPlan(root, "database")
        with pytest.raises(PlanInvariantError, match="'Z'"):
            invariants.verify_physical(plan_, schema_context=context)

    def test_backend_kind_mismatch_rejected(self):
        database = small_database()
        backend = backend_for(database)
        plan_ = PhysicalPlan(Scan("R"), "uwsdt")
        with pytest.raises(PlanInvariantError, match="paired with"):
            invariants.verify_physical(plan_, backend=backend)

    def test_attr_attr_filter_over_join_verifies(self):
        # AttrAttr predicates resolve through concatenated join schemas.
        database = small_database()
        backend = backend_for(database)
        statistics = Statistics.from_engine(database)
        query = (
            BaseRelation("R")
            .join(BaseRelation("S"), "A", "C")
            .select(AttrAttr("B", "<", "D"))
            .project(("A", "D"))
        )
        lower(query, backend, statistics)


# --------------------------------------------------------------------------- #
# Operator outputs are sets
# --------------------------------------------------------------------------- #


def claims_distinct(schema, rows):
    """What a buggy operator does: hand over a bag with the set claim."""
    return Relation.from_tuples(schema, list(rows), distinct=True)


class TestOperatorOutputsAreSets:
    def database(self) -> Database:
        return Database([Relation(RelationSchema("R", ("K", "V")), [(1, "a"), (2, "a"), (3, "b")])])

    def test_database_operator_producing_a_bag_is_caught_and_named(self, monkeypatch):
        from repro.relational import algebra

        def bag_project(relation, attributes, name=None):
            schema = relation.schema.project(attributes, name or relation.schema.name)
            positions = relation.schema.positions(attributes)
            return claims_distinct(schema, (tuple(row[p] for p in positions) for row in relation))

        monkeypatch.setattr(algebra, "project", bag_project)
        query = BaseRelation("R").project(["V"])
        with pytest.raises(PlanInvariantError, match=r"Project\(V\) produced a bag.*1 duplicate rows"):
            query.run(self.database(), "out")
        invariants.set_verification(False)
        assert query.run(self.database(), "out").rows == (("a",), ("a",), ("b",))  # unchecked

    @pytest.mark.parametrize("part", ["rows", "tuple ids"])
    def test_uwsdt_operator_repeating_a_row_or_tuple_id_is_caught(self, monkeypatch, part):
        """A bag of certain rows, or two open rows under one tuple id."""
        from repro.core.algebra import uwsdt_ops
        from repro.core.uwsdt import UWSDT
        from repro.relational.values import PLACEHOLDER

        rename = uwsdt_ops.rename

        def repeating_rename(uwsdt, source, target, old, new):
            rename(uwsdt, source, target, old, new)
            certain = uwsdt.templates[target].certain
            if part == "rows":
                rows = list(certain) + [next(iter(certain))]
                bag = Relation.from_tuples(certain.schema, rows, distinct=True)
                uwsdt.set_template(target, bag, [])
            else:
                rows = [("t", PLACEHOLDER, "values"), ("t", PLACEHOLDER, "other")]
                uwsdt.set_template(target, certain, rows, distinct=True)

        monkeypatch.setattr(uwsdt_ops, "rename", repeating_rename)
        uwsdt = UWSDT.from_relation(self.database().relation("R"))
        with pytest.raises(PlanInvariantError, match=rf"Rename\(K→Z\).*1 duplicate {part}"):
            BaseRelation("R").rename("K", "Z").run(uwsdt, "out", optimize=False)

    def test_batch_leaving_dematerialize_must_have_become_a_set(self, monkeypatch):
        from repro.core.exec import ColumnarBackend, columnar

        # A Project kernel that forgets to collapse, then a boundary that
        # trusts it: the bag is caught as it leaves the kernel, before the
        # boundary could hide it or pass it on.
        monkeypatch.setattr(columnar, "_distinct", lambda batch: batch)
        monkeypatch.setattr(
            ColumnarBackend,
            "dematerialize",
            lambda self, batch, name: claims_distinct(
                RelationSchema(name or "__columnar", batch.attributes), batch.to_rows()
            ),
        )
        with pytest.raises(PlanInvariantError, match=r"Project\(V\) produced a bag"):
            BaseRelation("R").project(["V"]).run(self.database(), "out", backend="columnar")

    def test_every_clean_operator_output_passes(self):
        database = self.database()
        query = BaseRelation("R").project(["V"]).union(BaseRelation("R").project(["V"]))
        for backend in ("row", "columnar"):
            assert len(query.run(database, "out", backend=backend)) == 2

    def test_switched_off_the_flag_is_read_once_per_execution(self, monkeypatch):
        database = self.database()
        backend = backend_for(database)
        query = BaseRelation("R").select(AttrConst("K", ">", 0)).project(["V"]).rename("V", "W")
        physical = query.physical_plan(database, optimize=False)
        assert len(physical.operators()) == 4
        invariants.set_verification(False)
        reads = []
        enabled = verify.verification_enabled
        monkeypatch.setattr(verify, "verification_enabled", lambda: reads.append(1) or enabled())
        physical.execute(backend, "out")
        assert len(reads) == 1


# --------------------------------------------------------------------------- #
# Enablement plumbing and the plan-cache consistency check
# --------------------------------------------------------------------------- #


class TestEnablement:
    def test_env_variable_controls_default(self, monkeypatch):
        invariants.set_verification(None)
        monkeypatch.delenv(invariants.VERIFY_ENV, raising=False)
        assert not invariants.verification_enabled()
        monkeypatch.setenv(invariants.VERIFY_ENV, "1")
        assert invariants.verification_enabled()
        monkeypatch.setenv(invariants.VERIFY_ENV, "0")
        assert not invariants.verification_enabled()

    def test_override_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(invariants.VERIFY_ENV, "0")
        invariants.set_verification(True)
        assert invariants.verification_enabled()

    def test_the_hook_hands_out_the_verifier_only_when_on(self):
        invariants.set_verification(False)
        assert verify.verifier() is None
        invariants.set_verification(True)
        assert verify.verifier() is invariants

    def test_cached_backend_mismatch(self):
        with pytest.raises(PlanInvariantError, match="lowered for"):
            invariants.verify_cached_backend("database", "columnar", ("database", "columnar"))

    def test_cached_backend_invalid_kind(self):
        with pytest.raises(PlanInvariantError, match="not executable"):
            invariants.verify_cached_backend("wsd", "wsd", ("database", "columnar"))

    def test_cached_backend_consistent(self):
        invariants.verify_cached_backend("columnar", "columnar", ("database", "columnar"))

    def test_a_uwsdt_plan_cache_refuses_a_columnar_entry(self):
        """Columnar and sharded entries are executable on a Database only: a
        UWSDT's cache rejects a plan lowered by a columnar backend and keeps
        nothing, while the Database's own cache stores it."""
        from repro.core import UWSDT
        from repro.core.exec import ColumnarBackend
        from repro.core.exec.plan_cache import plan_cache_for

        database = Database([Relation(RelationSchema("R", ("A0", "A1")), [(1, 2), (2, 3)])])
        uwsdt = UWSDT.from_relation(database.relation("R"))
        query = BaseRelation("R").select(AttrAttr("A0", "<", "A1"))
        cache = plan_cache_for(uwsdt)
        with pytest.raises(PlanInvariantError, match="not executable"):
            cache.lowered(query, ColumnarBackend(database))
        assert len(cache) == 0
        entry, hit = plan_cache_for(database).lowered(query, ColumnarBackend(database))
        assert (entry.backend, hit) == ("columnar", False)
