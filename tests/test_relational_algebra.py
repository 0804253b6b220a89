"""Unit and property tests for predicates, classical algebra, indexes and CSV I/O."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import (
    BOTTOM,
    PLACEHOLDER,
    And,
    AttrAttr,
    AttrConst,
    HashIndex,
    Not,
    Or,
    Predicate,
    PredicateError,
    Relation,
    RelationSchema,
    SchemaError,
    SortedIndex,
    TruePredicate,
    attr_eq,
    compare,
    difference,
    eq,
    equi_join,
    ge,
    group_count,
    gt,
    intersection,
    le,
    lt,
    natural_join,
    ne,
    product,
    project,
    rename,
    select,
    union,
)

from repro.relational.predicates import COMPARATORS

from conftest import plain_relations


class TestPredicates:
    schema = RelationSchema("R", ("A", "B"))

    def test_attr_const_all_operators(self):
        row = (5, 10)
        assert eq("A", 5).evaluate(self.schema, row)
        assert ne("A", 6).evaluate(self.schema, row)
        assert lt("A", 6).evaluate(self.schema, row)
        assert le("A", 5).evaluate(self.schema, row)
        assert gt("B", 9).evaluate(self.schema, row)
        assert ge("B", 10).evaluate(self.schema, row)
        assert not eq("A", 6).evaluate(self.schema, row)

    def test_attr_attr(self):
        assert attr_eq("A", "B").evaluate(self.schema, (3, 3))
        assert not attr_eq("A", "B").evaluate(self.schema, (3, 4))
        assert AttrAttr("A", "<", "B").evaluate(self.schema, (3, 4))

    def test_boolean_combinators(self):
        predicate = And(eq("A", 1), Or(eq("B", 2), eq("B", 3)))
        assert predicate.evaluate(self.schema, (1, 3))
        assert not predicate.evaluate(self.schema, (1, 4))
        assert (~eq("A", 1)).evaluate(self.schema, (2, 2))
        assert (eq("A", 1) & eq("B", 2)).evaluate(self.schema, (1, 2))
        assert (eq("A", 9) | eq("B", 2)).evaluate(self.schema, (1, 2))

    def test_not_excludes_bottom_rows(self):
        predicate = Not(eq("A", 1))
        assert not predicate.evaluate(self.schema, (BOTTOM, 2))

    def test_bottom_never_matches(self):
        assert not eq("A", 1).evaluate(self.schema, (BOTTOM, 2))
        assert not compare(BOTTOM, "=", BOTTOM)
        assert not compare(1, "<", BOTTOM)

    def test_mixed_type_comparisons_do_not_raise(self):
        assert not compare("abc", "<", 5)
        assert compare("abc", "!=", 5)
        assert not compare("abc", "=", 5)

    def test_unknown_operator_rejected(self):
        with pytest.raises(PredicateError):
            AttrConst("A", "~~", 1)

    def test_attributes_deduplicated(self):
        predicate = And(eq("A", 1), eq("A", 2), eq("B", 3))
        assert predicate.attributes() == ("A", "B")

    def test_true_predicate(self):
        assert TruePredicate().evaluate(self.schema, (1, 2))
        assert TruePredicate().attributes() == ()

    def test_empty_combinators_rejected(self):
        with pytest.raises(PredicateError):
            And()
        with pytest.raises(PredicateError):
            Or()


# --------------------------------------------------------------------------- #
# Predicate.compile: the generated function is evaluate(), on every input
# --------------------------------------------------------------------------- #

_ATTRIBUTES = ("A", "B", "C")
_SCHEMA = RelationSchema("R", _ATTRIBUTES + ("UNREFERENCED",))


class _EqualsEverything:
    """A constant whose reflected comparisons accept anything, ``⊥`` included."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return True

    __lt__ = __le__ = __gt__ = __ge__ = __eq__
    __hash__ = None


# Mixed within a column on purpose: orderings between them raise TypeError.
_cells = st.one_of(
    st.sampled_from([BOTTOM, PLACEHOLDER]),
    st.sampled_from([None, math.nan, math.inf, True, False]),
    st.integers(-2, 2),
    st.sampled_from([0.5, -0.0, 2.0]),
    st.sampled_from(["", "a", "b", "1"]),
)
_constants = st.one_of(
    _cells,
    st.sampled_from([[1, 2], [], "it's", 'say "x"', "two\nlines", "\\", "{0}", "row[0]"]),
    st.builds(_EqualsEverything),
)
_operators = st.sampled_from(sorted(COMPARATORS))
_attributes = st.sampled_from(_ATTRIBUTES)
_leaves = st.one_of(
    st.builds(AttrConst, _attributes, _operators, _constants),
    st.builds(AttrAttr, _attributes, _operators, _attributes),
    st.builds(TruePredicate),
)
_predicates = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda parts: And(*parts)),
        st.lists(children, min_size=1, max_size=3).map(lambda parts: Or(*parts)),
        st.builds(Not, children),
    ),
    max_leaves=8,
)
_rows = st.lists(st.tuples(_cells, _cells, _cells, _cells), min_size=1, max_size=6)


class _SecondIsOdd(Predicate):
    """A user-defined predicate: ``evaluate`` and the attribute list, no more."""

    def evaluate(self, schema, row):
        value = row[schema.position("B")]
        return isinstance(value, int) and value % 2 == 1

    def _referenced(self):
        return ("B",)


class TestCompiledPredicate:
    @given(_predicates, _rows)
    @settings(max_examples=500, deadline=None)
    def test_compiled_is_evaluate_on_every_row(self, predicate, rows):
        compiled = predicate.compile(_SCHEMA)
        for row in rows:
            expected = predicate.evaluate(_SCHEMA, row)
            assert compiled(row) is expected, (predicate, row)
            assert compiled(list(row)) is expected, (predicate, row)
        # The scan keeps the same rows, the same objects, in the same order.
        kept = predicate.compile_scan(_SCHEMA)(rows)
        expected_rows = [row for row in rows if predicate.evaluate(_SCHEMA, row)]
        assert list(map(id, kept)) == list(map(id, expected_rows)), (predicate, rows)

    def test_bottom_and_type_error_contract(self):
        schema = RelationSchema("R", ("A", "B"))
        cases = [
            (ne("A", 1), (BOTTOM, 0), False),
            (eq("A", BOTTOM), (BOTTOM, 0), False),
            (ne("A", BOTTOM), (1, 0), False),
            (attr_eq("A", "B"), (BOTTOM, BOTTOM), False),
            (attr_eq("A", "B"), (PLACEHOLDER, PLACEHOLDER), True),
            (eq("A", PLACEHOLDER), (PLACEHOLDER, 0), True),
            (eq("A", _EqualsEverything()), (BOTTOM, 0), False),
            (lt("A", _EqualsEverything()), (BOTTOM, 0), False),
            (lt("A", 5), ("abc", 0), False),
            (lt("A", 5), (BOTTOM, 0), False),
            (lt("A", 5), (PLACEHOLDER, 0), False),
            (Not(lt("A", 5)), ("abc", 0), True),
            (Not(lt("A", 5)), (PLACEHOLDER, 0), False),
            (Or(lt("A", 5), eq("B", 0)), ("abc", 0), True),
            (And(ne("A", 5), gt("B", 0)), ("abc", "x"), False),
            (Not(TruePredicate()), (1, 2), False),
        ]
        for predicate, row, expected in cases:
            assert predicate.evaluate(schema, row) is expected, (predicate, row)
            assert predicate.compile(schema)(row) is expected, (predicate, row)

    def test_unknown_attribute_is_rejected_when_compiling(self):
        with pytest.raises(SchemaError):
            Not(eq("MISSING", 1)).compile(_SCHEMA)

    def test_predicate_still_pickles_after_compiling(self):
        predicate = And(gt("A", 1), Or(eq("B", "it's"), Not(attr_eq("A", "C"))))
        compiled = predicate.compile(_SCHEMA)
        assert compiled((2, "it's", 2, 0)) is True
        shipped = pickle.loads(pickle.dumps(predicate))
        assert repr(shipped) == repr(predicate)
        assert shipped.compile(_SCHEMA)((2, "x", 2, 0)) is False

    def test_physical_plan_still_pickles_after_executing(self):
        from repro.core.algebra import BaseRelation
        from repro.relational import Database

        relation = Relation(RelationSchema("R", ("A", "B")), [(i % 3, i) for i in range(12)])
        query = BaseRelation("R").select(And(ne("A", 0), gt("B", 4))).project(["B"])
        result = query.run(Database([relation]), "out", collect_metrics=True)
        assert any(node.label().startswith("Filter") for node in result.physical.operators())
        shipped = pickle.loads(pickle.dumps(result.physical))
        assert shipped.explain() == result.physical.explain()

    def test_compiled_function_is_freed_without_the_cycle_collector(self):
        # A σ compiles per call; a function kept alive by its own namespace
        # would leave one reference cycle per call for the collector.
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            predicate = And(gt("A", 1), Not(eq("B", "x")))
            compiled, scan = predicate.compile(_SCHEMA), predicate.compile_scan(_SCHEMA)
            assert compiled((2, "y", 0, 0)) is True and scan([(2, "y", 0, 0)])
            alive = weakref.ref(compiled), weakref.ref(scan)
            del compiled, scan
            assert alive[0]() is None and alive[1]() is None
        finally:
            gc.enable()

    def test_subclass_without_a_fragment_runs_through_evaluate(self):
        alone = _SecondIsOdd().compile(_SCHEMA)
        assert alone((0, 3, 0, 0)) is True and alone((0, "3", 0, 0)) is False
        inside = And(eq("A", 1), Or(_SecondIsOdd(), Not(_SecondIsOdd()))).compile(_SCHEMA)
        assert inside((1, 3, 0, 0)) is True
        assert inside((1, 2, 0, 0)) is True
        assert inside((1, BOTTOM, 0, 0)) is False
        assert inside((2, 3, 0, 0)) is False

    def test_tree_deeper_than_the_parser_accepts(self):
        # The two shapes overflow the parser differently: nested parentheses
        # are a SyntaxError, a chain of ``not`` a MemoryError (CPython 3.11).
        alternating = negated = eq("A", 1)
        for _ in range(150):
            alternating = Or(And(alternating, TruePredicate()), eq("B", 2))
        for _ in range(250):
            negated = Not(negated)
        rows = [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 0), (BOTTOM, 2, 0, 0)]
        for predicate in (alternating, negated):
            compiled = predicate.compile(_SCHEMA)
            for row in rows:
                assert compiled(row) is predicate.evaluate(_SCHEMA, row)
            assert predicate.compile_scan(_SCHEMA)(rows) == list(filter(compiled, rows))


class TestClassicalAlgebra:
    def test_select(self, small_relation):
        result = select(small_relation, eq("DEPT", "eng"))
        assert result.row_set() == {("ann", "eng", 100), ("bob", "eng", 90)}

    def test_project_removes_duplicates(self, small_relation):
        result = project(small_relation, ["DEPT"])
        assert result.row_set() == {("eng",), ("hr",), ("ops",)}
        assert result.schema.attributes == ("DEPT",)

    def test_product(self, small_relation, departments):
        result = product(small_relation, departments)
        assert len(result) == len(small_relation) * len(departments)
        assert result.schema.attributes == ("NAME", "DEPT", "SALARY", "DNAME", "FLOOR")

    def test_product_requires_disjoint_attributes(self, small_relation):
        with pytest.raises(SchemaError):
            product(small_relation, small_relation)

    def test_union_difference_intersection(self):
        schema = RelationSchema("R", ("A",))
        left = Relation(schema, [(1,), (2,), (3,)])
        right = Relation(schema, [(3,), (4,)])
        assert union(left, right).row_set() == {(1,), (2,), (3,), (4,)}
        assert difference(left, right).row_set() == {(1,), (2,)}
        assert intersection(left, right).row_set() == {(3,)}

    def test_union_requires_compatibility(self, small_relation, departments):
        with pytest.raises(SchemaError):
            union(small_relation, departments)

    def test_rename(self, small_relation):
        result = rename(small_relation, "DEPT", "DEPARTMENT")
        assert "DEPARTMENT" in result.schema.attributes
        assert result.row_set() == small_relation.row_set()

    def test_equi_join_matches_product_select(self, small_relation, departments):
        joined = equi_join(small_relation, departments, "DEPT", "DNAME")
        manual = select(product(small_relation, departments), attr_eq("DEPT", "DNAME"))
        assert joined.row_set() == manual.row_set()

    def test_natural_join(self, small_relation):
        other = Relation(RelationSchema("Bonus", ("DEPT", "BONUS")), [("eng", 10), ("hr", 5)])
        joined = natural_join(small_relation, other)
        assert ("ann", "eng", 100, 10) in joined
        assert all(row[1] != "ops" for row in joined)

    def test_natural_join_without_shared_attributes_is_product(self, departments):
        other = Relation(RelationSchema("X", ("V",)), [(1,), (2,)])
        assert len(natural_join(departments, other)) == len(departments) * 2

    def test_group_count(self, small_relation):
        counts = dict((row[0], row[1]) for row in group_count(small_relation, ["DEPT"]))
        assert counts == {"eng": 2, "hr": 2, "ops": 1}
        with pytest.raises(SchemaError):
            group_count(small_relation, ["DEPT"], count_as="DEPT")

    @given(plain_relations(max_rows=8), st.integers(min_value=0, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_union_commutes_and_difference_disjoint(self, relation, split):
        rows = list(relation.rows)
        split = min(split, len(rows))
        left = Relation(relation.schema, rows[:split])
        right = Relation(relation.schema, rows[split:])
        assert union(left, right).row_set() == relation.row_set()
        assert union(left, right).row_set() == union(right, left).row_set()
        assert difference(left, right).row_set() & right.row_set() == set()
        assert intersection(left, right).row_set() == (left.row_set() & right.row_set())

    @given(plain_relations())
    @settings(max_examples=30, deadline=None)
    def test_select_then_project_subset_of_project(self, relation):
        attribute = relation.schema.attributes[0]
        selected = project(select(relation, ge(attribute, 2)), [attribute])
        everything = project(relation, [attribute])
        assert selected.row_set() <= everything.row_set()


class TestIndexes:
    def test_hash_index_lookup(self, small_relation):
        index = HashIndex(small_relation, ["DEPT"])
        assert len(index.lookup("eng")) == 2
        assert index.lookup("none") == []
        assert index.contains("hr")
        assert set(index.group_sizes().values()) == {2, 2, 1}

    def test_hash_index_composite_key(self, small_relation):
        index = HashIndex(small_relation, ["DEPT", "SALARY"])
        assert len(index.lookup("eng", 100)) == 1

    def test_hash_index_add(self, small_relation):
        index = HashIndex(small_relation, ["DEPT"])
        small_relation.insert(("fred", "eng", 50))
        index.add(("fred", "eng", 50))
        assert len(index.lookup("eng")) == 3

    def test_sorted_index_ranges(self, small_relation):
        index = SortedIndex(small_relation, "SALARY")
        assert [row[0] for row in index.range(90, 100)] == ["bob", "dan", "ann"]
        assert [row[0] for row in index.range(None, 79)] == ["eve"]
        assert index.min_key() == 70 and index.max_key() == 100
        assert index.equal(95)[0][0] == "dan"
        assert index.range(90, 100, include_low=False, include_high=False) == index.equal(95)

    def test_sorted_index_empty(self):
        relation = Relation(RelationSchema("R", ("A",)))
        index = SortedIndex(relation, "A")
        assert index.min_key() is None and index.max_key() is None and len(index) == 0

