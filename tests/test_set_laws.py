"""A relation is a set by construction: oracle-free metamorphic laws.

No reference implementation here — each property relates two evaluations of
the engine under test (SNIPPETS §1, "Sets, Not Bags"): closure (every result
is duplicate-free), ``R ∪ R = R``, ``π`` collapses the duplicates it creates,
``A ∩ B = A − (A − B)``, ``σ_p σ_q = σ_q σ_p = σ_{p∧q}``, the rename round
trip and ``|R ⋈ S| ≤ |R|·|S|``.  They hold on a Database under the row and
the columnar backend, planned and verbatim.  A bag sneaking through a
kernel, a boundary or an operator that wrongly claims ``distinct`` breaks
the first law it meets.  On a UWSDT every world of a result equals the
Database answer in that world — the possible-worlds oracle's statement,
whose shapes include these laws' trees.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra import BaseRelation
from repro.relational import And, Database, Relation, RelationSchema, eq, ne

from _fixtures import plain_relations, values_strategy

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
