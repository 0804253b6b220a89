"""A selection is one generated loop, and each distinct source is compiled once.

``Predicate.compile_scan`` returns the whole scan as generated code, guarded
per row; the code object behind it and behind ``Predicate.compile`` is
memoised by its source text, which holds positions and ``c<i>`` names only.
Pinned here, as exact counts: only a row that raises ``TypeError`` is
re-judged by ``evaluate``; two predicates of one shape share one code object
and keep their own constants, read as closure cells of the generated factory
and never as globals; and the registry counter
``repro.predicates.code_generated`` moves on cache misses only — a warm query
pass generates nothing, and a WSD selection generates one code object per
distinct layout however many tuples it compiles for; and ``A = c`` with a
builtin constant is emitted without its ``⊥`` test, every other atom with it.
The differential over the predicate strategies and the deep-tree fallback
are in ``tests/test_relational_algebra.py::TestCompiledPredicate``.
"""

import gc
import re
import types

import pytest

from repro.census import census_dependencies, census_query, census_schema, query_names
from repro.core import WSD
from repro.core.algebra import wsd_ops
from repro.core.chase import _Violation
from repro.core.fields import FieldRef
from repro.obs.metrics import get_registry
from repro.relational import (
    BOTTOM,
    PLACEHOLDER,
    And,
    AttrConst,
    Not,
    RelationSchema,
    attr_eq,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
)
from repro.relational.predicates import _code, _Source
from repro.worlds import OrSet, OrSetRelation

from _fixtures import census_engines
from test_relational_algebra import _EqualsEverything, _SecondIsOdd


def code_generated() -> int:
    return get_registry().counter("repro.predicates.code_generated").value


SCHEMA = RelationSchema("R", ("A", "B"))


class TestPerRowGuard:
    def test_only_the_rows_that_raise_are_rejudged(self, monkeypatch):
        rows = [(4, 0), ("x", 0), (1, 0), (PLACEHOLDER, 0), (BOTTOM, 0), (5, 0), ("y", 0)]
        raising = [row for row in rows if isinstance(row[0], str) or row[0] is PLACEHOLDER]
        calls = []
        evaluate = AttrConst.evaluate

        def counted(self, schema, row):
            calls.append(row)
            return evaluate(self, schema, row)

        monkeypatch.setattr(AttrConst, "evaluate", counted)
        scan = gt("A", 3).compile_scan(SCHEMA)
        assert scan(rows) == [(4, 0), (5, 0)]
        # A restart of the whole scan through ``evaluate`` would judge all 7.
        assert calls == raising


def generated_source(predicate, schema=SCHEMA) -> str:
    """The source ``Predicate.compile_both`` compiles for ``predicate``."""
    source = _Source(schema)
    return source.render(predicate._fragment(source))


class TestBottomGuard:
    """``⊥ == c`` is already False for a builtin ``c`` (``⊥`` defines no
    ``__eq__`` and the builtin returns ``NotImplemented``), so that atom
    carries no ``is not BOTTOM`` test; any other atom or constant keeps it."""

    @pytest.mark.parametrize("constant", [1, 2.5, "x", True, None])
    def test_equality_with_a_builtin_constant_is_unguarded(self, constant):
        assert "is not BOTTOM" not in generated_source(eq("A", constant))
        assert "is not BOTTOM" not in generated_source(AttrConst("A", "==", constant))
        assert eq("A", constant).compile_scan(SCHEMA)([(BOTTOM, 0), (constant, 0)]) == [
            (constant, 0)
        ]

    def test_census_egd_premises_are_unguarded(self):
        schema = census_schema()
        premises = [premise for egd in census_dependencies() for premise in egd.premises]
        for premise in premises:
            assert "is not BOTTOM" not in generated_source(premise, schema), premise
        # The first EGD's conclusion ``IMMIGR = 0`` is an equality too.
        assert "is not BOTTOM" not in generated_source(_Violation(census_dependencies()[0]), schema)

    @pytest.mark.parametrize(
        "predicate",
        [ne("A", 1), gt("A", 1), ge("A", 1), lt("A", 1), le("A", 1), attr_eq("A", "B")],
        ids=repr,
    )
    def test_other_operators_keep_the_guard(self, predicate):
        assert "is not BOTTOM" in generated_source(predicate)

    @pytest.mark.parametrize(
        "constant",
        [_EqualsEverything(), (1,), frozenset({1}), 1 + 0j, type("Int", (int,), {})(1)],
        ids=repr,
    )
    def test_other_constant_types_keep_the_guard(self, constant):
        assert "is not BOTTOM" in generated_source(eq("A", constant))
        assert eq("A", constant).compile(SCHEMA)((BOTTOM, 0)) is False


class TestBoundNames:
    """The generated functions are closures of a factory called with the
    markers, ``schema``, ``evaluate`` and the constants: each is a cell read,
    never a global lookup, and the factory is not kept."""

    BOUND = re.compile(r"c\d+|BOTTOM|PLACEHOLDER|schema|evaluate")

    @pytest.mark.parametrize(
        "predicate",
        [
            And(eq("A", 1), ne("B", "x")),
            And(gt("A", 1), Not(eq("B", "x"))),
            _Violation(*census_dependencies()[9:]),
            And(eq("A", 1), _SecondIsOdd()),
        ],
        ids=repr,
    )
    def test_no_bound_name_is_a_global(self, predicate):
        schema = census_schema() if isinstance(predicate, _Violation) else SCHEMA
        check, scan = predicate.compile_both(schema)
        for function in (check, scan):
            code = function.__code__
            assert not [name for name in code.co_names if self.BOUND.fullmatch(name)]
            assert code.co_freevars and all(map(self.BOUND.fullmatch, code.co_freevars))
        assert {"c0", "schema", "evaluate"} <= set(scan.__code__.co_freevars)

    def test_one_code_object_serves_each_predicate_with_its_own_constants(self):
        # Closures bound late would all read the constants of the last call.
        _code.cache_clear()
        constants = [(1, "x"), (2, "y"), (3, "z")]
        compiled = [And(eq("A", a), ne("B", b)).compile_both(SCHEMA) for a, b in constants]
        assert _code.cache_info().misses == 1
        assert len({check.__code__ for check, _ in compiled}) == 1
        rows = [(1, "y"), (2, "x"), (2, "y"), (3, "y"), (3, "z")]
        kept = [[(1, "y")], [(2, "x")], [(3, "y")]]
        assert [list(filter(check, rows)) for check, _ in compiled] == kept
        assert [scan(rows) for _, scan in compiled] == kept

    def test_no_function_keeps_the_factory_reachable(self):
        check, scan = And(gt("A", 1), Not(eq("B", "x"))).compile_both(SCHEMA)
        # The namespace the factory ran in holds nothing but the builtins.
        assert check.__globals__ is scan.__globals__
        assert set(check.__globals__) == {"__builtins__"}
        # Nor does anything the closures hold: a function's cells and
        # defaults are followed, its (module) globals are not.
        seen, stack = set(), [check, scan]
        while stack:
            node = stack.pop()
            if id(node) in seen or isinstance(node, (type, types.ModuleType)):
                continue
            seen.add(id(node))
            if isinstance(node, types.FunctionType):
                assert node.__name__ != "bind"
                stack.extend([*(node.__closure__ or ()), *(node.__defaults__ or ())])
            else:
                stack.extend(gc.get_referents(node))


class TestCodeObjectMemo:
    def test_one_shape_shares_one_code_object_and_keeps_its_constants(self):
        _code.cache_clear()
        before = code_generated()
        first, second = And(eq("A", 1), ne("B", "x")), And(eq("A", 2), ne("B", "y"))
        check_first = first.compile(SCHEMA)
        assert _code.cache_info().misses == 1
        check_second, scan_second = second.compile_both(SCHEMA)
        assert _code.cache_info().misses == 1 and _code.cache_info().hits == 1
        assert code_generated() - before == 1
        assert check_first.__code__ is check_second.__code__

        rows = [(1, "y"), (2, "x"), (2, "z"), (1, "x")]
        assert list(filter(check_first, rows)) == [(1, "y")]
        assert scan_second(rows) == [(2, "x"), (2, "z")]
        assert first.compile_scan(SCHEMA)(rows) == [(1, "y")]

    def test_another_layout_is_another_source(self):
        _code.cache_clear()
        eq("A", 1).compile(SCHEMA)
        eq("A", 1).compile(RelationSchema("S", ("B", "A")))
        assert _code.cache_info().misses == 2


@pytest.mark.parametrize("kind", ["database", "uwsdt"])
def test_a_warm_query_pass_generates_no_code(kind):
    database, uwsdt = census_engines()
    engine = database if kind == "database" else uwsdt
    queries = [(name, census_query(name)) for name in query_names()]
    for name, query in queries:  # warm-up: every source of the pass is compiled
        query.run(engine.copy(), name)
    before = code_generated()
    fresh = engine.copy()
    for name, query in queries:
        query.run(fresh, name)
    assert code_generated() == before


def test_a_wsd_selection_generates_one_code_object_per_layout():
    rows = [{"A": OrSet([i % 3, 3]), "B": OrSet([0, 1]), "C": i} for i in range(12)]
    wsd = WSD.from_orset_relation(OrSetRelation.from_dicts("R", ["A", "B", "C"], rows))
    _code.cache_clear()
    before = code_generated()
    # Compiles once per tuple, against the layout of the tuple's merged component.
    wsd_ops.select(wsd, "R", "P", And(gt("A", 1), eq("B", 1)))
    layouts = set()
    for tuple_id in wsd.tuple_ids["P"]:
        component = wsd.component_for(FieldRef("P", tuple_id, "A"))
        layouts.add(
            tuple(
                field.attribute
                for field in component.fields
                if (field.relation, field.tuple_id) == ("P", tuple_id)
            )
        )
    assert code_generated() - before == len(layouts) < len(rows)
