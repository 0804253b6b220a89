"""The statistics catalog's version key: template writes move it, the chase does not.

That a warm catalog and a warm plan cache never change query *results* —
after inserts and chases, on a copy sharing the statistics, and when a
replan must be served from the cache — is the possible-worlds oracle's
(its cached, copy and after-insert cells, on chased inputs too).  Pinned
here: the open rows are the one record of which fields are placeholders, so
a UWSDT relation's key is its template's two relations, identity and
version; a write adding or dropping a ``?`` moves it and invalidates
statistics and plans, and the chase, which only rewrites components,
leaves both valid.
"""

from repro.core import UWSDT
from repro.core.algebra import BaseRelation
from repro.core.chase import FunctionalDependency, chase_uwsdt
from repro.core.component import Component
from repro.core.exec import backend_for
from repro.core.exec.plan_cache import plan_cache_for
from repro.core.fields import FieldRef
from repro.core.planner.catalog import Same, catalog_for
from repro.relational import Relation
from repro.relational.values import PLACEHOLDER


class TestVersionKey:
    @staticmethod
    def _uncertain_uwsdt():
        uwsdt = UWSDT.from_orset_relations(
            [
                _orset("R", ("A0", "A1", "A2"), [(1, (1, 2), 3), (1, 1, 1), (2, 0, 1)]),
                _orset("S", ("B0", "B1", "B2"), [(1, 2, 3)]),
            ]
        )
        uwsdt.validate()
        return uwsdt

    @staticmethod
    def _warm(uwsdt):
        """A cached plan of a query over ``R`` and a cached statistics entry."""
        query = BaseRelation("R").join(BaseRelation("S"), "A1", "B1")
        cache = plan_cache_for(uwsdt)
        cache.lowered(query, backend_for(uwsdt))
        assert cache.lookup(query.fingerprint()) is not None
        assert catalog_for(uwsdt).entry("R")[1] == "cached-sample"
        return cache, query

    def test_the_key_is_the_templates_two_relations(self):
        uwsdt = self._uncertain_uwsdt()
        template = uwsdt.templates["R"]
        assert catalog_for(uwsdt).version_key("R") == (
            Same(template.certain),
            template.certain.version,
            Same(template.open),
            template.open.version,
        )

    def test_a_template_write_adding_or_dropping_a_placeholder_moves_the_key(self):
        uwsdt = self._uncertain_uwsdt()
        catalog = catalog_for(uwsdt)
        cache, query = self._warm(uwsdt)
        before = catalog.version_key("R")

        # Adding: a row with a ``?`` and the component defining it.
        uwsdt.add_template_tuple("R", "new", (3, PLACEHOLDER, 4))
        uwsdt.new_component(Component.uniform(FieldRef("R", "new", "A1"), (5, 6)))
        uwsdt.validate()
        added = catalog.version_key("R")
        assert added != before
        assert uwsdt.relation_placeholder_count("R") == 2
        assert cache.lookup(query.fingerprint()) is None
        assert catalog.entry("R")[1] == "fresh-sample"

        # Dropping: the open row is fixed to one value and joins the certain rows.
        cache, query = self._warm(uwsdt)
        template = uwsdt.templates["R"]
        row = next(row for row in template.open if row[0] == "new")
        uwsdt.remove_component(uwsdt.component_of(FieldRef("R", "new", "A1")))
        certain = Relation.from_tuples(template.certain.schema, [*template.certain, (3, 5, 4)])
        uwsdt.set_template("R", certain, [r for r in template.open if r is not row])
        uwsdt.validate()
        assert catalog.version_key("R") not in (before, added)
        assert uwsdt.relation_placeholder_count("R") == 1
        assert cache.lookup(query.fingerprint()) is None
        assert catalog.entry("R")[1] == "fresh-sample"

    def test_the_chase_leaves_the_key_and_what_it_guards(self):
        uwsdt = self._uncertain_uwsdt()
        catalog = catalog_for(uwsdt)
        cache, query = self._warm(uwsdt)
        before = catalog.version_key("R")
        field = FieldRef("R", 1, "A1")
        component = uwsdt.components[uwsdt.component_of(field)]

        # A0 = 1 on a certain row with A1 = 1: the local world A1 = 2 goes.
        chase_uwsdt(uwsdt, [FunctionalDependency("R", ["A0"], "A1")])
        uwsdt.validate()
        assert uwsdt.components[uwsdt.component_of(field)] is not component
        assert catalog.version_key("R") == before
        assert cache.lookup(query.fingerprint()) is not None
        assert catalog.entry("R")[1] == "cached-sample"


def _orset(name, attributes, rows):
    from repro.relational import RelationSchema
    from repro.worlds import OrSet, OrSetRelation

    relation = OrSetRelation(RelationSchema(name, attributes))
    for row in rows:
        relation.insert(
            tuple(OrSet(list(v)) if isinstance(v, tuple) else v for v in row)
        )
    return relation
