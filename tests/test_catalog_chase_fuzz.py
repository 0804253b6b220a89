"""Catalog invalidation interleaved with chases and mutations (fuzz).

The ROADMAP's oracle follow-up: a warm statistics catalog must never change
query *results*.  The fuzz drives one long-lived UWSDT through a random
interleaving of

* ``chase`` steps (random FDs/EGDs — component merges and template drops),
* template ``insert``/``remove`` mutations (certain tuples, so the
  representation stays valid without component surgery),
* planned ``run`` steps.

After every mutation prefix, planning against the *warm* engine (whose
catalog has survived every previous step, relying on version keys and
mutation hooks for invalidation) must produce the same possible-worlds
result distribution as planning against a *cold* copy of the same engine
(``UWSDT.copy()`` deliberately carries no catalog) — and an immediate
replan against the unchanged warm engine must be served entirely from the
cache.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import UWSDT
from repro.core.algebra import BaseRelation
from repro.core.chase import chase_uwsdt
from repro.core.component import Component
from repro.core.fields import FieldRef
from repro.core.planner import sampling_call_count
from repro.core.planner.catalog import catalog_for
from repro.core.exec import backend_for
from repro.core.uwsdt import TID
from repro.relational import InconsistentWorldSetError
from repro.relational.predicates import AttrAttr, AttrConst
from repro.relational.values import PLACEHOLDER
from repro.core.exec.plan_cache import plan_cache_for

from _fixtures import assert_same_result_distribution, budgeted_orset_relations
from test_planner_oracle import ORACLE_SCHEMAS, chase_dependencies

#: Query shapes the runs draw from: selection, join, set algebra — enough to
#: touch every base relation's cached statistics.
def _query_pool():
    return (
        BaseRelation("R").select(AttrConst("A0", "=", 1)),
        BaseRelation("R").join(BaseRelation("S"), "A1", "B1"),
        BaseRelation("R")
        .select(AttrAttr("A0", "<", "A1"))
        .union(BaseRelation("R"))
        .difference(BaseRelation("R").select(AttrConst("A2", ">=", 2))),
        BaseRelation("R").intersection(BaseRelation("R").select(AttrConst("A1", "=", 2))),
        BaseRelation("S")
        .product(BaseRelation("T"))
        .select(AttrAttr("B0", "=", "C0")),
    )


operations = st.lists(
    st.sampled_from(
        ["chase", "insert", "remove", "insert?", "remove?", "run", "run"]
    ),
    min_size=1,
    max_size=5,
)


def remove_placeholder_row(uwsdt, relation_name):
    """Drop one placeholder-bearing template row (with its components).

    Only rows whose components are wholly confined to the row can go —
    removing a shared component would orphan another row's placeholder.
    Returns True if a row was removed.
    """
    template = uwsdt.templates[relation_name]
    attributes = uwsdt.schema.relation(relation_name).attributes
    tid_position = template.schema.position(TID)
    for row in template:
        tuple_id = row[tid_position]
        cids = {
            uwsdt.field_to_cid[field]
            for field in (FieldRef(relation_name, tuple_id, a) for a in attributes)
            if field in uwsdt.field_to_cid
        }
        if not cids:
            continue
        confined = all(
            all(
                f.relation == relation_name and f.tuple_id == tuple_id
                for f in uwsdt.components[cid].fields
            )
            for cid in cids
        )
        if not confined:
            continue
        for cid in cids:
            uwsdt.remove_component(cid)
        template.remove(row)
        return True
    return False


class TestCatalogChaseFuzz:
    @given(
        relations=budgeted_orset_relations(ORACLE_SCHEMAS, max_rows=2, uncertain_budget=3),
        ops=operations,
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_warm_catalog_plans_match_cold_catalog_results(self, relations, ops, data):
        warm = UWSDT.from_orset_relations(relations)
        counter = itertools.count()
        catalog_for(warm)  # attach the catalog up front; it must survive everything
        executed_any_run = False

        for op in list(ops) + ["run"]:
            if op == "chase":
                dependency = data.draw(chase_dependencies())
                try:
                    chase_uwsdt(warm, [dependency])
                except InconsistentWorldSetError:
                    assume(False)
                warm.validate()
            elif op == "insert":
                warm.add_template_tuple("R", f"fuzz{next(counter)}", (1, 2, 3))
            elif op == "insert?":
                # A placeholder-bearing insert: the relation's placeholder
                # count changes, so the catalog's composite version key
                # (template version, placeholder count) must move.
                tuple_id = f"fuzz?{next(counter)}"
                certain = data.draw(st.integers(min_value=0, max_value=2))
                warm.add_template_tuple("R", tuple_id, (certain, PLACEHOLDER, 3))
                warm.new_component(
                    Component.uniform(FieldRef("R", tuple_id, "A1"), (1, 2))
                )
                warm.validate()
            elif op == "remove?":
                if remove_placeholder_row(warm, "R"):
                    warm.validate()
            elif op == "remove":
                # Only rows with no placeholder fields can be dropped without
                # component surgery; skip the step if none exists.
                template = warm.templates["R"]
                row = next(
                    (
                        row
                        for row in template
                        if not any(
                            field.tuple_id == row[0]
                            for field in warm.field_to_cid
                            if field.relation == "R"
                        )
                    ),
                    None,
                )
                if row is not None:
                    template.remove(row)
            else:
                executed_any_run = True
                query = data.draw(st.sampled_from(_query_pool()))

                cold_engine = warm.copy()
                assert getattr(cold_engine, "_statistics_catalog", None) is None

                warm_plan = query.plan(warm)
                cold_plan = query.plan(cold_engine)

                warm_copy = warm.copy()
                query.run(warm_copy, "P", plan=warm_plan)
                warm_copy.validate()
                cold_copy = warm.copy()
                query.run(cold_copy, "P", plan=cold_plan)

                assert_same_result_distribution(warm_copy.rep(), cold_copy.rep(), "P")

                # An immediate replan of the unchanged warm engine must be
                # served entirely from the catalog (and pick the same tree).
                calls_before = sampling_call_count()
                replanned = query.plan(warm)
                assert sampling_call_count() == calls_before
                assert replanned.chosen == warm_plan.chosen

        assert executed_any_run


class TestPlaceholderCountInvalidation:
    """Deterministic regressions for the composite version key.

    Component surgery (``new_component`` / ``remove_component``) changes a
    relation's placeholder count without writing the template relation —
    ``template.version`` alone would validate stale entries.  The catalog's
    key pairs the template version with the placeholder count, so pure
    component surgery must still move the key and invalidate both cached
    statistics and cached plans.
    """

    @staticmethod
    def _uncertain_uwsdt():
        uwsdt = UWSDT.from_orset_relations(
            [
                _orset("R", ("A0", "A1", "A2"), [(1, (1, 2), 3), (2, 0, 1)]),
                _orset("S", ("B0", "B1", "B2"), [(1, 2, 3)]),
                _orset("T", ("C0", "C1", "C2"), [(1, 2, 3)]),
            ]
        )
        uwsdt.validate()
        return uwsdt

    def test_component_surgery_moves_the_version_key(self):
        uwsdt = self._uncertain_uwsdt()
        catalog = catalog_for(uwsdt)
        before = catalog.version_key("R")

        (cid,) = {
            cid for field, cid in uwsdt.field_to_cid.items() if field.relation == "R"
        }
        uwsdt.remove_component(cid)  # template untouched, count drops
        after_removal = catalog.version_key("R")
        assert after_removal != before

        # Re-registering the component changes the count back, but the key
        # must not revert silently to a value equal to a *template* write —
        # it does revert to `before`, which is correct: the relation is in
        # the same statistical state again.
        field = FieldRef("R", 1, "A1")
        uwsdt.new_component(Component.uniform(field, (1, 2)))
        uwsdt.validate()
        assert catalog.version_key("R") == before

    def test_component_surgery_invalidates_catalog_entries_and_plans(self):
        uwsdt = self._uncertain_uwsdt()
        catalog = catalog_for(uwsdt)
        cache = plan_cache_for(uwsdt)
        query = BaseRelation("R").join(BaseRelation("S"), "A1", "B1")

        cache.lowered(query, backend_for(uwsdt))
        assert cache.lookup(query.fingerprint()) is not None
        _, provenance = catalog.entry("R")
        assert provenance == "cached-sample"

        (cid,) = {
            cid for field, cid in uwsdt.field_to_cid.items() if field.relation == "R"
        }
        uwsdt.remove_component(cid)

        # Stale on both layers, despite zero template writes.
        assert cache.lookup(query.fingerprint()) is None
        _, provenance = catalog.entry("R")
        assert provenance == "fresh-sample"


def _orset(name, attributes, rows):
    from repro.relational import RelationSchema
    from repro.worlds import OrSet, OrSetRelation

    relation = OrSetRelation(RelationSchema(name, attributes))
    for row in rows:
        relation.insert(
            tuple(OrSet(list(v)) if isinstance(v, tuple) else v for v in row)
        )
    return relation
