"""The statistics catalog's version key under component surgery.

That a warm catalog and a warm plan cache never change query *results* —
after inserts and chases, on a copy sharing the statistics, and when a
replan must be served from the cache — is the possible-worlds oracle's
(its cached, copy and after-insert cells, on chased inputs too).  Pinned
here: component surgery that adds or drops placeholders without writing
the template still moves the key and invalidates statistics and plans.
"""

from repro.core import UWSDT
from repro.core.algebra import BaseRelation
from repro.core.component import Component
from repro.core.exec import backend_for
from repro.core.exec.plan_cache import plan_cache_for
from repro.core.fields import FieldRef
from repro.core.planner.catalog import catalog_for


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
