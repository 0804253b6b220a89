"""The columnar vectorized backend: batches, kernels, boundaries, selection.

Layers of coverage:

* :class:`~repro.core.exec.columnar.ColumnBatch` round-trips exactly —
  rows → columns → rows preserves order, bag duplicates and value
  *identity* (the ``?`` sentinel object itself), across the oracle schemas
  and the 50-attribute census schema (property test),
* the backend produces the same results as the row backend on a Database,
  with the expected Materialize/Dematerialize boundaries,
* backend selection: None is the row backend, unknown specs (``"auto"``
  included) rejected, a WSD rejected (it has no backend), and the
  Database-only backends rejected on a UWSDT before anything is planned
  or cached,
* the cached column store (the engine's index pool) is never stale — after
  any interleaving of inserts/removes on a Database relation it equals a
  fresh ``from_rows`` — is evicted when the Database drops the relation,
  and is not pickled,
* the filter kernel agrees with row-at-a-time ``Predicate.evaluate`` on
  columns holding ``⊥``, ``?`` and mixed ``str``/``int`` values, with and
  without a selection vector (the pin for any later typed fast path),
* set semantics inside the region: every operator reports the same
  ``actual rows`` as under the row backend on the census joins.
"""

import asyncio
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import census_instance
from repro.census.queries import q6_self_join_product_form, q_four_way_join
from repro.census.schema import census_schema
from repro.core import UWSDT, WSD
from repro.core.algebra import BaseRelation
from repro.core.exec import (
    ColumnarBackend,
    ColumnBatch,
    Dematerialize,
    Materialize,
    ShardedBackend,
    resolve_backend,
)
from repro.core.exec.backends import DatabaseBackend
from repro.core.exec.columnar import filter_batch
from repro.core.planner import plan_call_count
from repro.relational import Database, Relation, RelationSchema
from repro.relational.errors import QueryError
from repro.relational.predicates import And, AttrAttr, AttrConst, Not, Or
from repro.relational.values import BOTTOM, PLACEHOLDER
from repro.service import QueryService
from repro.worlds import OrSet, OrSetRelation

from _fixtures import ORACLE_SCHEMAS


# --------------------------------------------------------------------------- #
# ColumnBatch round-trip (property)
# --------------------------------------------------------------------------- #

#: Schemas the round-trip draws from: every oracle schema plus the paper's
#: 50-attribute census relation.
ROUND_TRIP_SCHEMAS = tuple(attrs for _, attrs in ORACLE_SCHEMAS) + (
    tuple(census_schema().attributes),
)

_value = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.text(alphabet="abc", max_size=2),
    st.just(None),
    st.just(PLACEHOLDER),
)


@st.composite
def _schema_and_rows(draw):
    attributes = draw(st.sampled_from(ROUND_TRIP_SCHEMAS))
    max_rows = 4 if len(attributes) > 10 else 8
    row = st.tuples(*[_value for _ in attributes])
    # Bag semantics: duplicates are deliberately allowed (unique=False).
    rows = draw(st.lists(row, min_size=0, max_size=max_rows))
    return attributes, rows


class TestColumnBatchRoundTrip:
    @given(_schema_and_rows())
    @settings(max_examples=80, deadline=None)
    def test_rows_to_columns_to_rows_is_exact(self, schema_and_rows):
        attributes, rows = schema_and_rows
        batch = ColumnBatch.from_rows(attributes, rows)

        assert batch.attributes == tuple(attributes)
        assert len(batch) == len(rows)
        restored = batch.to_rows()
        # Order and duplicates (bag semantics) are preserved exactly.
        assert restored == [tuple(row) for row in rows]
        # Value *identity*: the ``?`` sentinel object itself survives.
        for row, original in zip(restored, rows):
            for value, original_value in zip(row, original):
                if original_value is PLACEHOLDER:
                    assert value is PLACEHOLDER

    @given(_schema_and_rows())
    @settings(max_examples=40, deadline=None)
    def test_gather_preserves_values(self, schema_and_rows):
        attributes, rows = schema_and_rows
        batch = ColumnBatch.from_rows(attributes, rows)
        indices = list(range(len(rows) - 1, -1, -1))  # reversed, keeps dups
        gathered = batch.gather(indices)
        assert gathered.to_rows() == [tuple(rows[i]) for i in indices]


# --------------------------------------------------------------------------- #
# Backend equivalence and boundary placement
# --------------------------------------------------------------------------- #


def small_database() -> Database:
    r = Relation(RelationSchema("R", ("A", "RV")), [(i % 5, i) for i in range(40)])
    s = Relation(RelationSchema("S", ("B", "C")), [(i % 5, i % 7) for i in range(40)])
    t = Relation(RelationSchema("T", ("D", "TV")), [(i % 7, i) for i in range(40)])
    return Database([r, s, t])


def _operator_names(root):
    names = []
    stack = [root]
    while stack:
        node = stack.pop()
        names.append(node.op_name)
        stack.extend(node.children)
    return names


QUERIES = (
    BaseRelation("R").select(AttrConst("A", "=", 1)),
    BaseRelation("R").join(BaseRelation("S"), "A", "B"),
    BaseRelation("R").join(BaseRelation("S"), "A", "B").project(("A", "C")),
    BaseRelation("R").rename("A", "A9").select(AttrAttr("A9", "<", "RV")),
    BaseRelation("R").union(BaseRelation("R")),
    BaseRelation("R")
    .difference(BaseRelation("R").select(AttrConst("RV", ">=", 20)))
    .intersection(BaseRelation("R")),
    BaseRelation("S").product(BaseRelation("T")).select(AttrAttr("B", "=", "D")),
)


class TestColumnarEquivalence:
    @pytest.mark.parametrize("query", QUERIES, ids=range(len(QUERIES)))
    def test_database_results_match_row_backend(self, query):
        database = small_database()
        row_result = sorted(query.run(database))
        columnar_result = sorted(query.run(database, backend="columnar"))
        assert columnar_result == row_result

    def test_plan_contains_materialize_boundaries(self):
        database = small_database()
        # An attribute-attribute filter cannot become an IndexScan and a
        # self-union has no index join — both lower to columnar kernels.
        query = (
            BaseRelation("R").select(AttrAttr("A", "<", "RV")).union(BaseRelation("R"))
        )
        physical = query.physical_plan(database, backend="columnar")
        names = _operator_names(physical.root)
        assert physical.engine == "columnar"
        assert "Materialize" in names and "Dematerialize" in names
        # The root is always handed back as rows.
        assert physical.root.op_name == "Dematerialize"


# --------------------------------------------------------------------------- #
# The cached column store: never stale, evicted with its relation, not pickled
# --------------------------------------------------------------------------- #


def _vectorized_scan(backend, name):
    """``Materialize(Scan(name))`` as the executor drives it."""
    return backend.materialize(backend.scan(name, None), None)


def _assert_scan_is_fresh(backend, name, attributes, rows):
    """The cached vectorized scan equals a batch built from the rows now."""
    cached = _vectorized_scan(backend, name)
    assert cached.to_rows() == ColumnBatch.from_rows(attributes, rows).to_rows()


_small_row = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)


class TestCachedColumnStore:
    @given(st.lists(st.tuples(st.booleans(), _small_row), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_database_scan_tracks_inserts_and_removes(self, steps):
        relation = Relation(RelationSchema("R", ("A", "B", "C")), [(0, 0, 0)])
        backend = ColumnarBackend(Database([relation]))
        attributes = relation.schema.attributes
        # Read before every mutation, so a stale column would be served after.
        _assert_scan_is_fresh(backend, "R", attributes, relation.rows)
        for insert, row in steps:
            relation.insert(row) if insert else relation.remove(row)
            _assert_scan_is_fresh(backend, "R", attributes, relation.rows)
        assert list(relation._derived) == ["column-store"]  # one, however many versions

    @pytest.mark.parametrize("evict", ["drop", "replace"])
    def test_dropped_relation_is_released_by_the_pool(self, evict):
        """The column store and the hash index live on the relation and hold
        no strong reference back to it: a relation the database no longer
        stores dies by reference count, its derived state with it."""
        big = Relation(
            RelationSchema("R", ("A", "B")), [(i % 7, i) for i in range(10_000)]
        )
        database = Database([big, Relation(RelationSchema("S", ("C",)), [(1,)])])
        assert _vectorized_scan(ColumnarBackend(database), "R").columns[0][:2] == [0, 1]
        equality = AttrConst("A", "=", 1)
        DatabaseBackend(database).index_scan("R", equality, equality, None)
        assert sorted(map(str, big._derived)) == ["('hash-index', ('A',))", "column-store"]
        reference = weakref.ref(big)
        if evict == "drop":
            database.drop("R")
        else:
            database.replace(Relation(RelationSchema("R", ("A", "B"))))
        del big
        gc.disable()
        try:
            assert reference() is None
        finally:
            gc.enable()

    def test_pickled_engines_start_with_an_empty_pool(self):
        """A shard payload ships its engine; the column store kept on each
        relation stays behind."""
        database = Database([Relation(RelationSchema("R", ("A", "B")), [(1, 2)])])
        before = _vectorized_scan(ColumnarBackend(database), "R").to_rows()
        assert list(database.relation("R")._derived) == ["column-store"]
        shipped = pickle.loads(pickle.dumps(database))
        assert shipped.relation("R")._derived is None
        after = _vectorized_scan(ColumnarBackend(shipped), "R").to_rows()
        assert after == before == [(1, 2)]

    def test_finish_does_not_copy_what_the_boundary_built(self):
        database = small_database()
        backend = ColumnarBackend(database)
        built = backend.dematerialize(ColumnBatch.from_rows(("A",), [(1,), (1,), (2,)]), "out")
        assert backend.finish(built, "out") is built
        assert sorted(built) == [(1,), (2,)]
        # A stored relation still gets the protective, renaming copy.
        stored = database.relation("R")
        copied = backend.finish(stored, "R")
        assert copied is not stored and copied.same_rows(stored)


# --------------------------------------------------------------------------- #
# The filter kernel over selection vectors (and the pin for a typed fast path)
# --------------------------------------------------------------------------- #

_plain_int = st.integers(min_value=-2, max_value=2)
_plain_text = st.text(alphabet="ab", max_size=1)
_mixed = st.one_of(_plain_int, _plain_text, st.none(), st.just(BOTTOM), st.just(PLACEHOLDER))
_constant = st.one_of(_plain_int, _plain_text, st.none(), st.floats(-1, 1), st.booleans())
_theta = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def _typed_rows_and_predicate(draw):
    # Per column: all ints, all text, or anything (``⊥``, ``?``, mixed types).
    kinds = [draw(st.sampled_from([_plain_int, _plain_text, _mixed])) for _ in "XYZ"]
    rows = draw(st.lists(st.tuples(*kinds), max_size=8))
    leaf = st.one_of(
        st.builds(AttrConst, st.sampled_from("XYZ"), _theta, _constant),
        st.builds(AttrAttr, st.sampled_from("XYZ"), _theta, st.sampled_from("XYZ")),
    )
    predicate = draw(
        st.one_of(
            leaf,
            st.builds(And, leaf, leaf, leaf),
            st.builds(And, leaf, st.builds(Or, leaf, leaf)),
            st.builds(And, st.builds(Not, leaf), leaf),
        )
    )
    return rows, predicate


class TestFilterKernel:
    @given(_typed_rows_and_predicate())
    @settings(max_examples=300, deadline=None)
    def test_filter_kernel_equals_row_at_a_time_compare(self, rows_and_predicate):
        rows, predicate = rows_and_predicate
        schema = RelationSchema("T", ("X", "Y", "Z"))
        expected = [row for row in rows if predicate.evaluate(schema, row)]
        batch = ColumnBatch.from_rows(schema.attributes, rows)
        assert filter_batch(batch, predicate).to_rows() == expected
        # The same over an already-selected batch (positions ≠ identities).
        reversed_batch = batch.gather(list(range(len(rows) - 1, -1, -1)))
        assert filter_batch(reversed_batch, predicate).to_rows() == expected[::-1]


# --------------------------------------------------------------------------- #
# Set semantics inside the region: the feedback catalog sees true cardinalities
# --------------------------------------------------------------------------- #


class TestActualRowsMatchRowBackend:
    @pytest.mark.parametrize("factory", [q_four_way_join, q6_self_join_product_form])
    def test_per_operator_actual_rows_equal_row_backend(self, factory):
        database = census_instance(2000, 0.0).one_world_database()

        def actual_rows(backend):
            # A copy per run: no observed cardinality leaks between backends.
            result = factory().run(database.copy(), "out", collect_metrics=True, backend=backend)
            return len(result.value), sorted(
                (node.label(), node.metrics.rows_out)
                for node in result.physical.operators()
                if node.metrics is not None and not isinstance(node, (Materialize, Dematerialize))
            )

        assert actual_rows("columnar") == actual_rows("row")


# --------------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------------- #


class TestBackendSelection:
    def test_default_is_the_row_backend(self):
        backend = resolve_backend(small_database(), None)
        assert backend.kind == "database"

    def test_unknown_spec_rejected(self):
        with pytest.raises(QueryError):
            resolve_backend(small_database(), "simd")

    def test_auto_is_not_a_backend_spec(self):
        """The error names the three specs there are — from the resolver
        and from ``Query.run``."""
        database = small_database()
        with pytest.raises(QueryError, match=r"'row', 'columnar', 'sharded'"):
            resolve_backend(database, "auto")
        with pytest.raises(QueryError, match=r"'row', 'columnar', 'sharded'"):
            BaseRelation("R").run(database, "out", backend="auto")

    def test_a_wsd_has_no_backend(self):
        relation = OrSetRelation(RelationSchema("R", ("A0", "A1", "A2")))
        relation.insert((1, OrSet([1, 2]), 3))
        wsd = WSD.from_orset_relation(relation)
        for spec in ("row", "columnar"):
            with pytest.raises(QueryError, match=r"UWSDT\.from_wsd"):
                resolve_backend(wsd, spec)
        with pytest.raises(QueryError):
            ColumnarBackend(wsd)
        with pytest.raises(QueryError):
            resolve_backend(UWSDT.from_wsd(wsd), "columnar")

    @pytest.mark.parametrize("spec", ["columnar", "sharded"])
    def test_a_uwsdt_runs_on_the_row_backend_only(self, spec):
        """The resolver, ``Query.run`` and a service session all refuse a
        Database-only backend on a UWSDT, naming those backends, and the
        service caches no plan for the request."""
        relation = OrSetRelation(RelationSchema("R", ("A0", "A1")))
        relation.insert((1, OrSet([1, 2])))
        uwsdt = UWSDT.from_orset_relation(relation)
        query = BaseRelation("R").select(AttrConst("A0", "=", 1))
        refused = r"runs on a Database only .*columnar, sharded"
        plans = plan_call_count()
        with pytest.raises(QueryError, match=refused):
            {"columnar": ColumnarBackend, "sharded": ShardedBackend}[spec](uwsdt)
        with pytest.raises(QueryError, match=refused):
            resolve_backend(uwsdt, spec)
        with pytest.raises(QueryError, match=refused):
            query.run(uwsdt, "P", backend=spec, workers=2)
        assert uwsdt.schema.relation_names == ("R",)  # nothing ran

        service = QueryService()
        service.register_engine("uwsdt", uwsdt)
        session = service.session("uwsdt")
        with pytest.raises(QueryError, match=refused):
            asyncio.run(session.execute(query, backend=spec, workers=2))
        cache = service.plan_cache("uwsdt")
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
        assert (service.stats.requests, session.requests) == (0, 0)
        assert uwsdt.schema.relation_names == ("R",)
        assert plan_call_count() == plans  # nothing was planned

    @pytest.mark.parametrize("spec", ["columnar", "sharded"])
    @pytest.mark.parametrize("entry", ["physical_plan", "explain_analyze", "service"])
    def test_every_planning_entry_point_refuses_a_uwsdt(self, entry, spec):
        """``physical_plan``, ``explain_analyze`` and ``QueryService.execute``
        reach the same error as ``Query.run`` before planning, caching or
        running anything."""
        relation = OrSetRelation(RelationSchema("R", ("A0", "A1")))
        relation.insert((1, OrSet([1, 2])))
        uwsdt = UWSDT.from_orset_relation(relation)
        query = BaseRelation("R").select(AttrConst("A0", "=", 1))
        service = QueryService()
        service.register_engine("uwsdt", uwsdt)
        ask = {
            "physical_plan": lambda: query.physical_plan(uwsdt, backend=spec, workers=2),
            "explain_analyze": lambda: query.explain_analyze(uwsdt, backend=spec, workers=2),
            "service": lambda: asyncio.run(
                service.execute("uwsdt", query, backend=spec, workers=2)
            ),
        }[entry]
        plans = plan_call_count()
        with pytest.raises(QueryError, match=r"runs on a Database only .*columnar, sharded"):
            ask()
        assert plan_call_count() == plans
        cache = service.plan_cache("uwsdt")
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
        assert service.stats.requests == 0
        assert uwsdt.schema.relation_names == ("R",)
