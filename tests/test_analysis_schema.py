"""Static schema/type inference: golden error trees and eager set-op checks.

Covers the tentpole's analyzer contract:

* each :data:`~repro.core.algebra.schema.ERROR_CODES` class raises an
  :class:`~repro.core.algebra.schema.AnalysisError` (a ``SchemaError``) whose
  message embeds the rendered query tree with the offending node marked —
  the golden tests below pin the exact rendering for four error classes;
* incompatible ∪ / − / ∩ are rejected *at builder time* when both operand
  schemas are structurally resolvable, with both schemas in the message;
* valid queries infer the expected attribute lists and sampled types;
* unknown base relations disable checks instead of failing them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.schema import (
    ANY_TYPE,
    NUMBER,
    STRING,
    AnalysisError,
    InferredSchema,
    SchemaContext,
    analyze,
    column_types,
    join_types,
    type_name,
)
from repro.core import UWSDT
from repro.core.algebra import BaseRelation
from repro.core.algebra.schema import output_schema
from repro.core.planner import RelationSample, Statistics, plan
from repro.obs.metrics import get_registry
from repro.relational import Database, Relation, RelationSchema, eq
from repro.relational.errors import SchemaError
from repro.relational.predicates import AttrAttr, AttrConst
from repro.relational.values import BOTTOM, PLACEHOLDER, is_domain_value
from repro.worlds import OrSet, OrSetRelation


class Code(int):
    """A domain value whose class only inherits a builtin's type."""


#: Every kind of cell a column can hold: both markers, None, each builtin
#: scalar (nan included), a subclass of one, and a value of no known domain.
CELLS = [BOTTOM, PLACEHOLDER, None, True, 3, 2.5, float("nan"), "s", b"b", Code(4), object()]


def reference_column_types(attributes, rows):
    """``column_types`` as it stood when it visited every cell — the
    specification of the version that folds over each column's classes."""
    types = {a: None for a in attributes}
    for row in rows:
        for attribute, value in zip(attributes, row):
            if not is_domain_value(value):
                continue
            observed = type_name(value)
            current = types[attribute]
            types[attribute] = observed if current is None else join_types(current, observed)
    return {a: (t if t is not None else ANY_TYPE) for a, t in types.items()}


def typed_database() -> Database:
    emp = Relation(
        RelationSchema("EMP", ("EID", "NAME", "DEPT")),
        [(1, "ada", "eng"), (2, "bob", "ops")],
    )
    dept = Relation(RelationSchema("DEPT", ("DID", "HEAD")), [(10, "ada")])
    return Database([emp, dept])


@pytest.fixture
def context() -> SchemaContext:
    return SchemaContext.from_engine(typed_database())


# --------------------------------------------------------------------------- #
# Golden rendered-tree tests: one per error class
# --------------------------------------------------------------------------- #


class TestGoldenErrorTrees:
    def test_unknown_attribute_marks_the_projection(self, context):
        query = BaseRelation("EMP").select(AttrConst("EID", "=", 1)).project(("SALARY",))
        with pytest.raises(AnalysisError) as excinfo:
            analyze(query, context)
        error = excinfo.value
        assert error.code == "unknown-attribute"
        assert str(error) == (
            "plan analysis failed [unknown-attribute]: projection references "
            "unknown attribute 'SALARY'; input schema is "
            "(EID: number, NAME: str, DEPT: str)\n"
            "  π[SALARY]   <-- here\n"
            "    σ[(EID = 1)]\n"
            "      EMP"
        )

    def test_duplicate_attribute_marks_the_product(self, context):
        query = BaseRelation("EMP").product(BaseRelation("EMP"))
        with pytest.raises(AnalysisError) as excinfo:
            analyze(query, context)
        error = excinfo.value
        assert error.code == "duplicate-attribute"
        assert str(error) == (
            "plan analysis failed [duplicate-attribute]: both sides of the "
            "product define ['DEPT', 'EID', 'NAME']; left is "
            "(EID: number, NAME: str, DEPT: str), right is "
            "(EID: number, NAME: str, DEPT: str) — rename one side first\n"
            "  ×   <-- here\n"
            "    EMP\n"
            "    EMP"
        )

    def test_arity_mismatch_marks_the_union(self, context):
        # Bare BaseRelations resolve only through the context, so the
        # builder-time structural check passes and strict analysis fails.
        query = BaseRelation("EMP").union(BaseRelation("DEPT"))
        with pytest.raises(AnalysisError) as excinfo:
            analyze(query, context)
        error = excinfo.value
        assert error.code == "arity-mismatch"
        assert str(error) == (
            "plan analysis failed [arity-mismatch]: ∪ requires union-compatible "
            "inputs; left has arity 3 (EID: number, NAME: str, DEPT: str) but "
            "right has arity 2 (DID: number, HEAD: str)\n"
            "  ∪   <-- here\n"
            "    EMP\n"
            "    DEPT"
        )

    def test_predicate_type_mismatch_marks_the_select(self, context):
        query = BaseRelation("EMP").select(AttrConst("NAME", "=", 7))
        with pytest.raises(AnalysisError) as excinfo:
            analyze(query, context)
        error = excinfo.value
        assert error.code == "type-mismatch"
        assert str(error) == (
            "plan analysis failed [type-mismatch]: predicate (NAME = 7) compares "
            "'NAME' (str) with a number constant — the comparison can never hold\n"
            "  σ[(NAME = 7)]   <-- here\n"
            "    EMP"
        )

    def test_errors_are_schema_errors(self, context):
        with pytest.raises(SchemaError):
            analyze(BaseRelation("EMP").project(("NOPE",)), context)


class TestMoreErrorClasses:
    def test_rename_of_unknown_attribute(self, context):
        with pytest.raises(AnalysisError) as excinfo:
            analyze(BaseRelation("EMP").rename("SALARY", "S"), context)
        assert excinfo.value.code == "unknown-attribute"

    def test_rename_collision(self, context):
        with pytest.raises(AnalysisError) as excinfo:
            analyze(BaseRelation("EMP").rename("EID", "NAME"), context)
        assert excinfo.value.code == "duplicate-attribute"

    def test_duplicate_projection_list(self, context):
        with pytest.raises(AnalysisError) as excinfo:
            analyze(BaseRelation("EMP").project(("EID", "EID")), context)
        assert excinfo.value.code == "duplicate-attribute"

    def test_join_type_mismatch(self, context):
        query = BaseRelation("EMP").join(
            BaseRelation("DEPT").rename("HEAD", "H"), "EID", "H"
        )
        with pytest.raises(AnalysisError) as excinfo:
            analyze(query, context)
        assert excinfo.value.code == "type-mismatch"

    def test_join_key_missing(self, context):
        query = BaseRelation("EMP").join(BaseRelation("DEPT"), "EID", "XID")
        with pytest.raises(AnalysisError) as excinfo:
            analyze(query, context)
        assert excinfo.value.code == "unknown-attribute"

    def test_attr_attr_type_mismatch(self, context):
        with pytest.raises(AnalysisError) as excinfo:
            analyze(BaseRelation("EMP").select(AttrAttr("EID", "=", "NAME")), context)
        assert excinfo.value.code == "type-mismatch"


# --------------------------------------------------------------------------- #
# Builder-time set-operation checks (Query.union / difference / intersection)
# --------------------------------------------------------------------------- #


class TestBuilderTimeSetOperations:
    def test_union_of_mismatched_projections_raises_at_build(self):
        left = BaseRelation("R").project(("A", "B"))
        right = BaseRelation("S").project(("A",))
        with pytest.raises(SchemaError) as excinfo:
            left.union(right)
        message = str(excinfo.value)
        assert "arity-mismatch" in message
        # Both operand schemas are spelled out in the message.
        assert "arity 2 (A, B) but right has arity 1 (A)" in message

    def test_difference_attribute_mismatch_at_build(self):
        left = BaseRelation("R").project(("A", "B"))
        right = BaseRelation("S").project(("A", "C"))
        with pytest.raises(SchemaError) as excinfo:
            left.difference(right)
        assert "attribute-mismatch" in str(excinfo.value)

    def test_intersection_mismatch_at_build(self):
        with pytest.raises(SchemaError):
            BaseRelation("R").project(("A",)).intersection(
                BaseRelation("S").project(("A", "B"))
            )

    def test_bare_base_relations_pass_at_build(self):
        # No structural schema on either side: nothing definite to reject.
        BaseRelation("R").union(BaseRelation("S"))

    def test_rename_chains_resolve_structurally(self):
        left = BaseRelation("R").project(("A", "B")).rename("A", "X")
        right = BaseRelation("S").project(("X", "B"))
        left.union(right)  # identical lists after the rename: compatible


# --------------------------------------------------------------------------- #
# Inference results, type lattice, contexts
# --------------------------------------------------------------------------- #


class TestInference:
    def test_inferred_types_from_rows(self, context):
        schema = analyze(BaseRelation("EMP"), context)
        assert schema == InferredSchema(
            ("EID", "NAME", "DEPT"), (NUMBER, STRING, STRING)
        )

    def test_join_concatenates_schemas(self, context):
        query = BaseRelation("EMP").join(BaseRelation("DEPT"), "EID", "DID")
        schema = analyze(query, context)
        assert schema.attributes == ("EID", "NAME", "DEPT", "DID", "HEAD")

    def test_unknown_relation_disables_checks(self, context):
        # MYSTERY is unknown: projection over it cannot be validated.
        query = BaseRelation("MYSTERY").project(("WHATEVER",))
        schema = analyze(query, context)
        assert schema.attributes == ("WHATEVER",)
        assert schema.types == (ANY_TYPE,)

    def test_column_types_skips_placeholders(self):
        types = column_types(
            ("A", "B"), [(1, "x"), (PLACEHOLDER, "y"), (2, PLACEHOLDER)]
        )
        assert types == {"A": NUMBER, "B": STRING}

    def test_column_types_mixed_becomes_any(self):
        assert column_types(("A",), [(1,), ("x",)]) == {"A": ANY_TYPE}

    def test_column_types_without_rows(self):
        assert column_types(("A", "B"), []) == {"A": ANY_TYPE, "B": ANY_TYPE}
        assert column_types((), [(1,)]) == {}

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(min_value=0, max_value=3).flatmap(
            lambda width: st.lists(
                st.tuples(*[st.sampled_from(CELLS)] * width), max_size=6
            )
        ),
        lazily=st.booleans(),
    )
    def test_column_types_equals_the_cell_by_cell_loop(self, rows, lazily):
        attributes = ("A", "B", "C")[: len(rows[0]) if rows else 2]
        argument = (row for row in rows) if lazily else rows
        assert column_types(attributes, argument) == reference_column_types(attributes, rows)

    def test_attributes_through_a_rename(self, context):
        query = BaseRelation("EMP").select(AttrConst("EID", "=", 1)).rename("EID", "X")
        assert analyze(query, context).attributes == ("X", "NAME", "DEPT")
        # Without context the base relation is opaque.
        assert analyze(query) is None

    def test_the_derivation_is_memoised_by_node_value(self, context):
        query = BaseRelation("EMP").rename("EID", "X").project(("X", "DEPT"))
        schema = output_schema(query, context)
        assert schema == InferredSchema(("X", "DEPT"), (NUMBER, STRING))
        # An equal query built afresh is served from the memo, sub-nodes too.
        again = BaseRelation("EMP").rename("EID", "X").project(("X", "DEPT"))
        assert again is not query and output_schema(again, context) is schema
        assert context.derived[BaseRelation("EMP").rename("EID", "X")].attributes == (
            "X",
            "NAME",
            "DEPT",
        )

    def test_a_failed_derivation_is_not_memoised(self, context):
        query = BaseRelation("EMP").project(("SALARY",))
        messages = []
        for _ in range(2):
            with pytest.raises(AnalysisError) as excinfo:
                output_schema(query, context)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1] and query not in context.derived
        # The input below the failing node was resolved and kept.
        assert context.derived[BaseRelation("EMP")] is context.relation_schema("EMP")


class TestPlanTimeRejection:
    def test_plan_rejects_bad_query_with_statistics(self):
        statistics = Statistics(attributes={"EMP": ("EID", "NAME", "DEPT")})
        query = BaseRelation("EMP").project(("SALARY",))
        with pytest.raises(AnalysisError) as excinfo:
            plan(query, statistics)
        assert excinfo.value.code == "unknown-attribute"

    def test_query_plan_on_engine_rejects_bad_query(self):
        database = typed_database()
        with pytest.raises(AnalysisError):
            BaseRelation("EMP").project(("SALARY",)).plan(database)

    def test_run_rejects_bad_query_before_execution(self):
        database = typed_database()
        with pytest.raises(SchemaError):
            BaseRelation("EMP").select(AttrConst("NAME", "=", 7)).run(database)

    def test_valid_queries_still_plan_and_run(self):
        database = typed_database()
        query = BaseRelation("EMP").select(AttrConst("DEPT", "=", "eng")).project(("NAME",))
        result = query.run(database)
        assert sorted(result) == [("ada",)]


# --------------------------------------------------------------------------- #
# A type read off a partial sample is likely, not definite
# --------------------------------------------------------------------------- #


def rare_strings() -> Relation:
    """5 000 numbers and three strings in ``A``: the 256-row sample holds
    numbers only."""
    rows = [(i, i % 7) for i in range(5000)] + [(5000 + i, "x") for i in range(3)]
    return Relation(RelationSchema("R", ("K", "A")), rows)


def as_orset(relation: Relation) -> OrSetRelation:
    orset = OrSetRelation(relation.schema)
    for row in relation:
        orset.insert(row)
    return orset


def whole_column_scans() -> int:
    return get_registry().counter("repro.analysis.type_scans", source="engine").value


class TestSampledTypesAreConfirmed:
    QUERY = BaseRelation("R").select(eq("A", "x"))

    def test_the_sample_really_misses_the_strings(self):
        database = Database([rare_strings()])
        statistics = Statistics.from_engine(database)
        assert column_types(("K", "A"), statistics.sample("R").rows)["A"] == NUMBER
        assert SchemaContext.from_statistics(statistics).sampled == {"R"}
        assert SchemaContext.from_engine(database).relation_schema("R").type_of("A") == ANY_TYPE

    def test_database_planned_equals_verbatim(self):
        database = Database([rare_strings()])
        before = whole_column_scans()
        planned = self.QUERY.run(database)
        assert whole_column_scans() == before + 1
        assert sorted(planned) == sorted(self.QUERY.run(database, optimize=False))
        assert sorted(planned) == [(5000, "x"), (5001, "x"), (5002, "x")]

    def test_uwsdt_planned_equals_verbatim(self):
        relation = rare_strings()
        orset = OrSetRelation(relation.schema)
        for key, value in relation:
            orset.insert((OrSet([key, -key]) if key == 5001 else key, value))
        results = []
        for optimize in (True, False):
            uwsdt = UWSDT.from_orset_relation(orset)
            self.QUERY.run(uwsdt, "out", optimize=optimize)
            template = uwsdt.templates["out"]
            results.append(sorted(map(repr, [*template.certain, *template.open])))
        assert results[0] == results[1] and len(results[0]) == 3

    def test_a_selection_moved_by_pushdown_stays_confirmed(self):
        # Over a join the selection is pushed onto R, where its constant
        # meets the sampled (number) type of A again: the rewriter must not
        # re-raise the mismatch the whole column already refuted.
        other = Relation(RelationSchema("S", ("J", "B")), [(5001, "b"), (7, "c")])
        query = BaseRelation("R").join(BaseRelation("S"), "K", "J").select(eq("A", "x"))
        database = Database([rare_strings(), other])
        planned = query.plan(database)
        assert "push-select-down" in [application.rule for application in planned.applications]
        rows = query.run(database)
        assert sorted(rows) == sorted(query.run(database, optimize=False)) == [(5001, "x", 5001, "b")]
        results = []
        for optimize in (True, False):
            uwsdt = UWSDT.from_orset_relations([as_orset(rare_strings()), as_orset(other)])
            query.run(uwsdt, "out", optimize=optimize)
            template = uwsdt.templates["out"]
            results.append(sorted(map(repr, [*template.certain, *template.open])))
        assert results[0] == results[1] and len(results[0]) == 1

    def test_a_selection_pushed_into_a_narrower_set_operand_plans(self):
        # E is empty, so the union's A is ``any``; pushed into R, the
        # selection compares a number column with a string constant.
        empty = Relation(RelationSchema("E", ("K", "A")))
        numbers = Relation(RelationSchema("R", ("K", "A")), [(i, i % 7) for i in range(100)])
        query = BaseRelation("E").union(BaseRelation("R")).select(eq("A", "x"))
        database = Database([empty, numbers])
        assert len(query.run(database)) == 0
        assert query.plan(database).chosen != query

    def test_a_template_column_holding_a_placeholder_is_any(self):
        orset = OrSetRelation.from_dicts(
            "R", ["K", "A"], [{"K": 1, "A": OrSet([1, "x"])}, {"K": 2, "A": 2}]
        )
        context = SchemaContext.from_engine(UWSDT.from_orset_relation(orset))
        assert context.relation_schema("R") == InferredSchema(("K", "A"), (NUMBER, ANY_TYPE))

    def test_a_confirmed_mismatch_still_raises_with_the_same_tree(self):
        names = Relation(
            RelationSchema("EMP", ("EID", "NAME")), [(i, f"n{i}") for i in range(5000)]
        )
        query = BaseRelation("EMP").select(AttrConst("NAME", "=", 7))
        for engine in (Database([names]), UWSDT.from_relation(names)):
            with pytest.raises(AnalysisError) as excinfo:
                query.run(engine)
            assert str(excinfo.value) == (
                "plan analysis failed [type-mismatch]: predicate (NAME = 7) compares "
                "'NAME' (str) with a number constant — the comparison can never hold\n"
                "  σ[(NAME = 7)]   <-- here\n"
                "    EMP"
            )

    def test_statistics_that_cannot_confirm_do_not_raise(self):
        partial = RelationSample("R", ("K", "A"), [(1, 1), (2, 2)], 5000)
        statistics = Statistics(
            {"R": 5000}, attributes={"R": ("K", "A")}, samples={"R": partial}
        )
        assert plan(self.QUERY, statistics).chosen is self.QUERY
        # ... but every error that does not rest on a sampled type still does.
        with pytest.raises(AnalysisError) as excinfo:
            plan(self.QUERY.project(("NOPE",)), statistics)
        assert excinfo.value.code == "unknown-attribute"

    def test_a_whole_sample_is_definite_without_an_engine(self):
        whole = RelationSample("R", ("K", "A"), [(1, 1), (2, 2)], 2)
        statistics = Statistics({"R": 2}, attributes={"R": ("K", "A")}, samples={"R": whole})
        before = whole_column_scans()
        with pytest.raises(AnalysisError) as excinfo:
            plan(self.QUERY, statistics)
        assert excinfo.value.code == "type-mismatch"
        assert whole_column_scans() == before
