"""A relation is a set by construction: oracle-free metamorphic laws.

No reference implementation here — each property relates two evaluations of
the engine under test (SNIPPETS §1, "Sets, Not Bags"): closure (every result
is duplicate-free), ``R ∪ R = R``, ``π`` collapses the duplicates it creates,
``A ∩ B = A − (A − B)``, ``σ_p σ_q = σ_q σ_p = σ_{p∧q}``, the rename round
trip and ``|R ⋈ S| ≤ |R|·|S|``.  They hold on a Database under the row and
the columnar backend, planned and verbatim, and on a UWSDT in every world of
``rep()``.  A bag sneaking through a kernel, a boundary or an operator that
wrongly claims ``distinct`` breaks the first law it meets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra import BaseRelation
from repro.core.uwsdt import UWSDT
from repro.relational import And, Database, Relation, RelationSchema, eq, ne

from _fixtures import budgeted_orset_relations, orset_relations, plain_relations, values_strategy

BACKENDS = ("row", "columnar")
MODES = [(backend, optimize) for backend in BACKENDS for optimize in (True, False)]

R, S = BaseRelation("R"), BaseRelation("S")


def atoms(attributes):
    return st.one_of(
        st.builds(eq, st.sampled_from(attributes), values_strategy),
        st.builds(ne, st.sampled_from(attributes), values_strategy),
    )


@st.composite
def compatible_relations(draw):
    """Two plain relations over one attribute list, sharing some rows."""
    left = draw(plain_relations(name="R"))
    arity = left.schema.arity
    rows = draw(st.lists(st.tuples(*[values_strategy] * arity), max_size=5))
    if len(left):
        rows += draw(st.lists(st.sampled_from(left.rows), max_size=3))
    return left, Relation(left.schema.renamed("S"), rows)


def is_set(relation: Relation) -> bool:
    return len(set(relation.rows)) == len(relation.rows) == len(relation.row_set())


# --------------------------------------------------------------------------- #
# Database, row and columnar backends
# --------------------------------------------------------------------------- #


class TestDatabaseSetLaws:
    def evaluate(self, query, relations, mode):
        backend, optimize = mode
        database = Database([relation.copy() for relation in relations])
        result = query.run(database, "out", backend=backend, optimize=optimize)
        assert is_set(result), f"{query.to_text()} produced a bag"  # closure
        return result

    @pytest.mark.parametrize("mode", MODES)
    @given(relation=plain_relations())
    @settings(max_examples=40, deadline=None)
    def test_union_is_idempotent(self, mode, relation):
        assert self.evaluate(R.union(R), [relation], mode).same_rows(relation)

    @pytest.mark.parametrize("mode", MODES)
    @given(relation=plain_relations(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_projection_collapses_duplicates(self, mode, relation, data):
        attributes = relation.schema.attributes
        kept = list(data.draw(st.permutations(attributes))[: max(1, len(attributes) - 1)])
        once = self.evaluate(R.project(kept), [relation], mode)
        positions = relation.schema.positions(kept)
        assert len(once) == len({tuple(row[p] for p in positions) for row in relation})
        twice = self.evaluate(R.project(kept).project(kept), [relation], mode)
        assert twice.same_rows(once)

    @pytest.mark.parametrize("mode", MODES)
    @given(pair=compatible_relations())
    @settings(max_examples=40, deadline=None)
    def test_intersection_is_double_difference(self, mode, pair):
        direct = self.evaluate(R.intersection(S), pair, mode)
        derived = self.evaluate(R.difference(R.difference(S)), pair, mode)
        assert direct.same_rows(derived)
        assert direct.row_set() == pair[0].row_set() & pair[1].row_set()

    @pytest.mark.parametrize("mode", MODES)
    @given(relation=plain_relations(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_selections_commute_and_fuse(self, mode, relation, data):
        p = data.draw(atoms(relation.schema.attributes))
        q = data.draw(atoms(relation.schema.attributes))
        pq = self.evaluate(R.select(q).select(p), [relation], mode)
        qp = self.evaluate(R.select(p).select(q), [relation], mode)
        fused = self.evaluate(R.select(And(p, q)), [relation], mode)
        assert pq.same_rows(qp) and pq.same_rows(fused)

    @pytest.mark.parametrize("mode", MODES)
    @given(relation=plain_relations())
    @settings(max_examples=40, deadline=None)
    def test_rename_round_trip(self, mode, relation):
        attribute = relation.schema.attributes[0]
        there_and_back = R.rename(attribute, "Z").rename("Z", attribute)
        assert self.evaluate(there_and_back, [relation], mode).same_rows(relation)

    @pytest.mark.parametrize("mode", MODES)
    @given(left=plain_relations(name="R"), right=plain_relations(name="S"), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_join_is_bounded_by_the_product(self, mode, left, right, data):
        right = Relation(
            RelationSchema("S", tuple(f"B{i}" for i in range(right.schema.arity))), right.rows
        )
        left_attr = data.draw(st.sampled_from(left.schema.attributes))
        right_attr = data.draw(st.sampled_from(right.schema.attributes))
        joined = self.evaluate(R.join(S, left_attr, right_attr), [left, right], mode)
        assert len(joined) <= len(left) * len(right)
        product = self.evaluate(R.product(S), [left, right], mode)
        assert len(product) == len(left) * len(right)
        assert joined.row_set() <= product.row_set()


# --------------------------------------------------------------------------- #
# UWSDT, in every world
# --------------------------------------------------------------------------- #


def small_orsets():
    return orset_relations(max_rows=3, max_attrs=2, max_alternatives=2)  # ≤ 64 worlds


class TestUwsdtSetLawsPerWorld:
    def worlds(self, orsets, queries, backend):
        """Evaluate every named query on one UWSDT; yield each world's results."""
        uwsdt = UWSDT.from_orset_relations(orsets)
        for name, query in queries.items():
            query.run(uwsdt, name, backend=backend)
        uwsdt.validate()
        for world in uwsdt.rep():
            results = {name: world.database.relation(name) for name in queries}
            for name, relation in results.items():
                assert is_set(relation), f"{name} is a bag in some world"  # closure
            yield world.database, results

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(orset=small_orsets())
    @settings(max_examples=25, deadline=None)
    def test_union_is_idempotent(self, backend, orset):
        for database, results in self.worlds([orset], {"u": R.union(R)}, backend):
            assert results["u"].same_rows(database.relation("R"))

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(orset=small_orsets(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_projection_collapses_duplicates(self, backend, orset, data):
        attributes = orset.schema.attributes
        kept = list(data.draw(st.permutations(attributes))[: max(1, len(attributes) - 1)])
        positions = orset.schema.positions(kept)
        queries = {"once": R.project(kept), "twice": R.project(kept).project(kept)}
        for database, results in self.worlds([orset], queries, backend):
            base = database.relation("R")
            assert len(results["once"]) == len({tuple(row[p] for p in positions) for row in base})
            assert results["twice"].same_rows(results["once"])

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(orset=small_orsets(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_selections_commute_and_fuse(self, backend, orset, data):
        p = data.draw(atoms(orset.schema.attributes))
        q = data.draw(atoms(orset.schema.attributes))
        queries = {
            "pq": R.select(q).select(p),
            "qp": R.select(p).select(q),
            "fused": R.select(And(p, q)),
        }
        for _, results in self.worlds([orset], queries, backend):
            assert results["pq"].same_rows(results["qp"])
            assert results["pq"].same_rows(results["fused"])

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(orset=small_orsets())
    @settings(max_examples=25, deadline=None)
    def test_rename_round_trip(self, backend, orset):
        attribute = orset.schema.attributes[0]
        queries = {"back": R.rename(attribute, "Z").rename("Z", attribute)}
        for database, results in self.worlds([orset], queries, backend):
            assert results["back"].same_rows(database.relation("R"))

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        orsets=budgeted_orset_relations([("R", ("A0", "A1")), ("S", ("A0", "A1"))]),
    )
    @settings(max_examples=25, deadline=None)
    def test_intersection_is_double_difference(self, backend, orsets):
        queries = {"direct": R.intersection(S), "derived": R.difference(R.difference(S))}
        for database, results in self.worlds(orsets, queries, backend):
            assert results["direct"].same_rows(results["derived"])
            expected = database.relation("R").row_set() & database.relation("S").row_set()
            assert results["direct"].row_set() == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        orsets=budgeted_orset_relations([("R", ("A0", "A1")), ("S", ("B0", "B1"))]),
        left_attr=st.sampled_from(["A0", "A1"]),
        right_attr=st.sampled_from(["B0", "B1"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_join_is_bounded_by_the_product(self, backend, orsets, left_attr, right_attr):
        queries = {"joined": R.join(S, left_attr, right_attr), "product": R.product(S)}
        for database, results in self.worlds(orsets, queries, backend):
            bound = len(database.relation("R")) * len(database.relation("S"))
            assert len(results["joined"]) <= bound == len(results["product"])
            assert results["joined"].row_set() <= results["product"].row_set()
