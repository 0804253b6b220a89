"""Operators build their results in one step — and nothing else changed.

* **Differential.**  Every function of ``relational/algebra.py`` against the
  per-row reference it replaced — the insert loops, kept below — on relations
  whose values include ``⊥``, ``?``, ``None``, ``nan`` and hash-equal numbers:
  same rows, same row order, same ``version``, same schema.
  ``uwsdt_ops.select`` / ``project`` / ``rename`` / ``equi_join`` build a
  duplicate-free template in source order; a conjunctive ``select`` equals
  the same conjuncts as a chain of ``select``s in every confidence.  (What
  they compute in each world is the possible-worlds oracle's.)
* **Relation semantics after bulk construction.**  A relation built by
  ``Relation.from_tuples`` mutates, compares, hashes, copies and notifies
  exactly like one built row by row; malformed rows are rejected.
* **Work counts.**  Executing the benchmark's queries calls
  ``Relation.insert`` zero times and derives at most one row set per
  relation; a σ → π → ρ chain derives none.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import invariants
from repro.core.algebra import uwsdt_ops
from repro.core.confidence import uwsdt_possible_with_confidence
from repro.core.exec import ColumnBatch, ColumnarBackend
from repro.core.fields import FieldRef
from repro.core.uwsdt import UWSDT
from repro.relational import (
    BOTTOM,
    PLACEHOLDER,
    And,
    ArityError,
    Database,
    DatabaseSchema,
    HashIndex,
    Not,
    Or,
    Relation,
    RelationSchema,
    attr_eq,
    eq,
    ne,
)
from repro.relational import algebra
from repro.relational.errors import RepresentationError
from repro.relational.relation import require_same_attributes
from repro.worlds import OrSet, OrSetRelation

from _fixtures import (
    benchmark_queries,
    budgeted_orset_relations,
    census_engines,
    orset_relations,
)

NAN = float("nan")

#: Values that stress set semantics: the sentinels, ``None``, one shared
#: ``nan`` (equal to itself only by identity) and hash-equal numbers of three
#: types (``1 == 1.0 == True``: the first one inserted names the row).
SPECIAL_VALUES = st.sampled_from([0, 1, 2, 1.0, True, None, BOTTOM, PLACEHOLDER, NAN, "a"])


@st.composite
def special_relations(draw, name="R", prefix="A", max_rows=6, max_attrs=3):
    arity = draw(st.integers(min_value=1, max_value=max_attrs))
    schema = RelationSchema(name, tuple(f"{prefix}{i}" for i in range(arity)))
    rows = draw(
        st.lists(st.tuples(*[SPECIAL_VALUES] * arity), min_size=0, max_size=max_rows)
    )
    return Relation(schema, rows)


@st.composite
def compatible_pairs(draw):
    left = draw(special_relations(name="L"))
    rows = draw(
        st.lists(st.tuples(*[SPECIAL_VALUES] * left.schema.arity), min_size=0, max_size=6)
    )
    # Share some rows so ∩ and − have something to do.
    rows += draw(st.lists(st.sampled_from(left.rows), max_size=3)) if len(left) else []
    return left, Relation(left.schema.renamed("S"), rows)


@st.composite
def equality_predicates(draw, attributes):
    """Predicates over ``attributes`` that never raise (equalities only)."""
    atom = st.one_of(
        st.builds(eq, st.sampled_from(attributes), SPECIAL_VALUES),
        st.builds(ne, st.sampled_from(attributes), SPECIAL_VALUES),
        st.builds(attr_eq, st.sampled_from(attributes), st.sampled_from(attributes)),
    )
    return draw(
        st.recursive(
            atom,
            lambda inner: st.one_of(
                st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Not, inner)
            ),
            max_leaves=4,
        )
    )


# --------------------------------------------------------------------------- #
# The reference: the per-row insert loops the bulk operators replaced
# --------------------------------------------------------------------------- #


def ref_select(relation, predicate, name=None):
    result = Relation(relation.schema.renamed(name or relation.schema.name))
    check = predicate.compile(relation.schema)
    for row in relation:
        if check(row):
            result.insert(row)
    return result


def ref_project(relation, attributes, name=None):
    schema = relation.schema.project(attributes, name or relation.schema.name)
    positions = relation.schema.positions(attributes)
    result = Relation(schema)
    for row in relation:
        result.insert(tuple(row[p] for p in positions))
    return result


def ref_product(left, right, name=None):
    result = Relation(left.schema.concat(right.schema, name))
    for lrow in left:
        for rrow in right:
            result.insert(lrow + rrow)
    return result


def ref_union(left, right, name=None):
    require_same_attributes(left, right, "union")
    result = Relation(left.schema.renamed(name or left.schema.name))
    for row in left:
        result.insert(row)
    for row in right:
        result.insert(row)
    return result


def ref_difference(left, right, name=None):
    require_same_attributes(left, right, "difference")
    result = Relation(left.schema.renamed(name or left.schema.name))
    right_rows = right.row_set()
    for row in left:
        if row not in right_rows:
            result.insert(row)
    return result


def ref_intersection(left, right, name=None):
    require_same_attributes(left, right, "intersection")
    result = Relation(left.schema.renamed(name or left.schema.name))
    right_rows = right.row_set()
    for row in left:
        if row in right_rows:
            result.insert(row)
    return result


def ref_rename(relation, old, new, name=None):
    result = Relation(relation.schema.rename_attribute(old, new, name or relation.schema.name))
    for row in relation:
        result.insert(row)
    return result


def ref_natural_join(left, right, name=None):
    shared = [a for a in left.schema.attributes if right.schema.has_attribute(a)]
    right_only = [a for a in right.schema.attributes if a not in shared]
    schema = RelationSchema(
        name or f"{left.schema.name}_join_{right.schema.name}",
        tuple(left.schema.attributes) + tuple(right_only),
    )
    result = Relation(schema)
    left_positions = left.schema.positions(shared)
    right_positions = right.schema.positions(shared)
    right_only_positions = right.schema.positions(right_only)
    index = {}
    for rrow in right:
        index.setdefault(tuple(rrow[p] for p in right_positions), []).append(rrow)
    for lrow in left:
        for rrow in index.get(tuple(lrow[p] for p in left_positions), ()):
            result.insert(lrow + tuple(rrow[p] for p in right_only_positions))
    return result


def ref_equi_join(left, right, left_attr, right_attr, name=None):
    result = Relation(left.schema.concat(right.schema, name))
    left_pos = left.schema.position(left_attr)
    right_pos = right.schema.position(right_attr)
    index = {}
    for rrow in right:
        index.setdefault(rrow[right_pos], []).append(rrow)
    for lrow in left:
        for rrow in index.get(lrow[left_pos], ()):
            result.insert(lrow + rrow)
    return result


def ref_group_count(relation, attributes, count_as="count"):
    positions = relation.schema.positions(attributes)
    counts = {}
    for row in relation:
        key = tuple(row[p] for p in positions)
        counts[key] = counts.get(key, 0) + 1
    result = Relation(RelationSchema(relation.schema.name, tuple(attributes) + (count_as,)))
    for key, count in counts.items():
        result.insert(key + (count,))
    return result


def assert_identical(bulk: Relation, reference: Relation) -> None:
    """Rows, row order, version and schema — everything a caller can see."""
    assert bulk.schema == reference.schema
    assert bulk.rows == reference.rows  # tuple ==: the shared nan is equal by identity
    assert [tuple(map(type, row)) for row in bulk] == [
        tuple(map(type, row)) for row in reference
    ]  # 1 / 1.0 / True: the same representative survived
    assert bulk.version == reference.version
    assert len(bulk) == len(bulk.row_set())


# --------------------------------------------------------------------------- #
# relational/algebra.py ≡ the reference
# --------------------------------------------------------------------------- #


class TestAlgebraEqualsPerRowReference:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_select_scan_and_index(self, data):
        relation = data.draw(special_relations())
        attributes = relation.schema.attributes
        predicate = data.draw(equality_predicates(attributes))
        assert_identical(
            algebra.select(relation, predicate, "P"), ref_select(relation, predicate, "P")
        )
        probe = eq(data.draw(st.sampled_from(attributes)), data.draw(SPECIAL_VALUES))
        index = HashIndex(relation, (probe.attribute,))
        # The probe answers exactly what the scan does: ``nan`` and ``⊥`` are
        # not probed (a dict matches a key by identity, ``==`` does not).
        assert_identical(algebra.select(relation, probe, index=index), ref_select(relation, probe))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_project_rename_group_count(self, data):
        relation = data.draw(special_relations())
        attributes = relation.schema.attributes
        kept = data.draw(st.permutations(attributes).map(lambda p: list(p[: max(1, len(p) - 1)])))
        assert_identical(algebra.project(relation, kept, "P"), ref_project(relation, kept, "P"))
        assert_identical(algebra.group_count(relation, kept), ref_group_count(relation, kept))
        old = data.draw(st.sampled_from(attributes))
        assert_identical(
            algebra.rename(relation, old, "Z", "P"), ref_rename(relation, old, "Z", "P")
        )

    @given(compatible_pairs())
    @settings(max_examples=150, deadline=None)
    def test_union_difference_intersection(self, pair):
        left, right = pair
        assert_identical(algebra.union(left, right, "P"), ref_union(left, right, "P"))
        assert_identical(algebra.difference(left, right), ref_difference(left, right))
        assert_identical(algebra.intersection(left, right), ref_intersection(left, right))
        # R ∪ R: every row of the second operand is a duplicate.
        assert_identical(algebra.union(left, left), ref_union(left, left))

    @given(special_relations(name="L", prefix="A"), special_relations(name="S", prefix="B"), st.data())
    @settings(max_examples=150, deadline=None)
    def test_product_and_equi_join(self, left, right, data):
        assert_identical(algebra.product(left, right, "P"), ref_product(left, right, "P"))
        left_attr = data.draw(st.sampled_from(left.schema.attributes))
        right_attr = data.draw(st.sampled_from(right.schema.attributes))
        assert_identical(
            algebra.equi_join(left, right, left_attr, right_attr, "P"),
            ref_equi_join(left, right, left_attr, right_attr, "P"),
        )

    @given(special_relations(name="L", prefix="A"), st.data())
    @settings(max_examples=150, deadline=None)
    def test_natural_join(self, left, data):
        # The right side shares a prefix of the left attributes (possibly none, possibly all).
        shared = data.draw(st.integers(min_value=0, max_value=left.schema.arity))
        extra = data.draw(st.integers(min_value=0 if shared else 1, max_value=2))
        attributes = left.schema.attributes[:shared] + tuple(f"B{i}" for i in range(extra))
        rows = data.draw(
            st.lists(st.tuples(*[SPECIAL_VALUES] * len(attributes)), min_size=0, max_size=6)
        )
        right = Relation(RelationSchema("S", attributes), rows)
        assert_identical(algebra.natural_join(left, right), ref_natural_join(left, right))

    def test_rename_relation_and_aggregate_read_through_the_public_surface(self):
        relation = Relation.from_tuples(RelationSchema("R", ("A",)), [(3,), (1,), (2,)], distinct=True)
        copied = algebra.rename_relation(relation, "S")
        assert copied.schema.name == "S" and copied.rows == relation.rows
        assert algebra.aggregate(relation, "A", max) == 3

    def test_projection_onto_a_non_key_collapses_in_first_occurrence_order(self):
        relation = Relation(RelationSchema("R", ("K", "V")), [(1, "b"), (2, "a"), (3, "b"), (4, "a")])
        projected = algebra.project(relation, ["V"])
        assert projected.rows == (("b",), ("a",))
        assert projected.version == 2


# --------------------------------------------------------------------------- #
# Backend boundaries that dedup instead of claiming ``distinct``
# --------------------------------------------------------------------------- #


class TestBoundariesRestoreSetSemantics:
    ROWS = [(1, "x"), (2, "y"), (1, "x"), (3, "x"), (2, "y")]

    def test_database_dematerialize_of_a_caller_built_bag(self):
        backend = ColumnarBackend(Database())
        relation = backend.dematerialize(ColumnBatch.from_rows(("A", "B"), self.ROWS), "out")
        reference = Relation(RelationSchema("out", ("A", "B")), self.ROWS)
        assert_identical(relation, reference)


# --------------------------------------------------------------------------- #
# uwsdt_ops build each result template in one step
# --------------------------------------------------------------------------- #
# What the results mean, world by world, is the possible-worlds oracle's
# (tests/test_possible_worlds_oracle.py); here only how they are built.


def result_components(uwsdt):
    """The components holding a placeholder field of the result relation."""
    return {
        uwsdt.component_of(FieldRef("P", tuple_id, attribute))
        for tuple_id, attributes in uwsdt.uncertain_tuples("P").items()
        for attribute in attributes
    }


def assert_bulk_template(uwsdt):
    """The result template is a set of certain rows plus open rows of
    distinct tuple ids, each relation built in one step."""
    template = uwsdt.templates["P"]
    tuple_ids = [row[0] for row in template.open]
    assert len(set(tuple_ids)) == len(tuple_ids)
    assert len(template.certain.row_set()) == len(template.certain)
    for relation in (template.certain, template.open):
        assert relation.version == len(relation)
    uwsdt.validate()


def uwsdt_atoms(attributes):
    return st.one_of(
        st.builds(eq, st.sampled_from(attributes), st.integers(0, 4)),
        st.builds(ne, st.sampled_from(attributes), st.integers(0, 4)),
        st.builds(attr_eq, st.sampled_from(attributes), st.sampled_from(attributes)),
    )


class TestUwsdtOpsBuildBulkTemplates:
    @given(orset_relations(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_select(self, orset, data):
        predicate = data.draw(uwsdt_atoms(orset.schema.attributes))
        uwsdt = UWSDT.from_orset_relation(orset)
        uwsdt_ops.select(uwsdt, "R", "P", predicate)
        assert_bulk_template(uwsdt)
        # The certain rows are selected exactly as a Database selects them.
        selected = algebra.select(uwsdt.templates["R"].certain, predicate)
        assert uwsdt.templates["P"].certain.rows == selected.rows

    @given(orset_relations(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_select_of_a_conjunction_equals_the_chain_of_selects(self, orset, data):
        """σ[p1 ∧ … ∧ pk] ≡ σ[pk] ∘ … ∘ σ[p1] in every tuple's confidence, and
        merging the conjuncts never leaves the result in more components."""
        parts = data.draw(st.lists(uwsdt_atoms(orset.schema.attributes), min_size=2, max_size=4))
        merged = UWSDT.from_orset_relation(orset)
        uwsdt_ops.select(merged, "R", "P", And(*parts))
        assert_bulk_template(merged)

        chain = UWSDT.from_orset_relation(orset)
        names = ["R"] + [f"T{i}" for i in range(1, len(parts))] + ["P"]
        for part, source, target in zip(parts, names, names[1:]):
            uwsdt_ops.select(chain, source, target, part)
        assert dict(uwsdt_possible_with_confidence(merged, "P")) == pytest.approx(
            dict(uwsdt_possible_with_confidence(chain, "P"))
        )
        assert len(result_components(merged)) <= len(result_components(chain))

    def test_a_failing_certain_conjunct_copies_and_merges_nothing(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a component was touched for a tuple no world keeps")

        orset = OrSetRelation.from_dicts(
            "R", ["A", "B", "C"], [{"A": OrSet([1, 2]), "B": OrSet([1, 3]), "C": 0}]
        )
        uwsdt = UWSDT.from_orset_relation(orset)
        monkeypatch.setattr(uwsdt_ops._FieldCopies, "add", forbidden)
        monkeypatch.setattr(uwsdt_ops, "_merge", forbidden)
        uwsdt_ops.select(uwsdt, "R", "P", And(attr_eq("A", "B"), eq("C", 1)))
        assert len(uwsdt.templates["P"]) == 0
        uwsdt.validate()

    @given(orset_relations(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_project_and_rename(self, orset, data):
        attributes = orset.schema.attributes
        kept = data.draw(st.permutations(attributes).map(lambda p: list(p[: max(1, len(p) - 1)])))
        uwsdt = UWSDT.from_orset_relation(orset)
        uwsdt_ops.project(uwsdt, "R", "P", kept)
        assert_bulk_template(uwsdt)
        # The certain rows' projection leads; open rows left certain follow.
        projected = algebra.project(uwsdt.templates["R"].certain, kept)
        assert uwsdt.templates["P"].certain.rows[: len(projected)] == projected.rows

        renamed = UWSDT.from_orset_relation(orset)
        uwsdt_ops.rename(renamed, "R", "P", attributes[0], "Z")
        assert_bulk_template(renamed)
        for part in ("certain", "open"):
            source, result = (getattr(renamed.templates[n], part) for n in "RP")
            assert result.rows == source.rows

    @given(
        budgeted_orset_relations([("R", ("A0", "A1")), ("S", ("B0", "B1"))]),
        st.sampled_from(["A0", "A1"]),
        st.sampled_from(["B0", "B1"]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_equi_join(self, relations, left_attr, right_attr, use_template_index):
        uwsdt = UWSDT.from_orset_relations(relations)
        uwsdt_ops.equi_join(
            uwsdt, "R", "S", left_attr, right_attr, "P", use_template_index=use_template_index
        )
        assert_bulk_template(uwsdt)

    def test_a_tuple_no_world_keeps_is_left_out_not_removed(self, monkeypatch, census_forms):
        def forbidden(self, row):
            raise AssertionError("an operator removed a row from a result template")

        monkeypatch.setattr(Relation, "remove", forbidden)
        uwsdt = UWSDT.from_orset_relation(census_forms)
        uwsdt_ops.select(uwsdt, "R", "P", eq("S", 999))  # no candidate value satisfies it
        assert len(uwsdt.templates["P"]) == 0
        assert uwsdt.uncertain_tuples("P") == {}
        uwsdt.validate()


# --------------------------------------------------------------------------- #
# Relation semantics after bulk construction
# --------------------------------------------------------------------------- #

SCHEMA = RelationSchema("R", ("A", "B"))


def bulk(rows, distinct=False) -> Relation:
    return Relation.from_tuples(SCHEMA, list(rows), distinct=distinct)


class TestRelationAfterBulkConstruction:
    def test_duplicates_dropped_first_occurrence_wins(self):
        relation = bulk([(1, "a"), (2, "b"), (1, "a"), (1.0, "a"), (3, "c"), (2, "b")])
        assert relation.rows == ((1, "a"), (2, "b"), (3, "c"))
        assert type(relation.rows[0][0]) is int
        assert relation.version == 3  # what three effective inserts would have left

    def test_distinct_is_the_callers_claim(self):
        rows = [(1, "a"), (2, "b")]
        relation = bulk(rows, distinct=True)
        assert relation.rows == ((1, "a"), (2, "b")) and relation.version == 2

    def test_the_list_is_adopted_other_iterables_are_copied(self):
        relation = Relation.from_tuples(SCHEMA, ((i, "x") for i in range(3)))
        assert len(relation) == 3
        relation = Relation.from_tuples(SCHEMA, ((1, "a"), (2, "b")))
        assert relation.rows == ((1, "a"), (2, "b"))

    def test_insert_of_a_present_row_is_a_noop(self):
        relation = bulk([(1, "a"), (2, "b")], distinct=True)
        assert relation.insert((1, "a")) is False
        assert relation.insert([2, "b"]) is False  # coerced, as ever
        assert relation.version == 2 and len(relation) == 2
        assert relation.insert((3, "c")) is True
        assert relation.rows == ((1, "a"), (2, "b"), (3, "c")) and relation.version == 3

    def test_remove_contains_and_row_set(self):
        relation = bulk([(1, "a"), (2, "b"), (3, "c")], distinct=True)
        assert (2, "b") in relation and {"A": 2, "B": "b"} in relation
        assert (9, "z") not in relation and (1,) not in relation
        assert relation.remove((2, "b")) is True and relation.remove((2, "b")) is False
        assert relation.rows == ((1, "a"), (3, "c")) and relation.version == 4
        assert relation.row_set() == frozenset({(1, "a"), (3, "c")})
        assert (2, "b") not in relation

    def test_equality_and_hash_agree_with_per_row_construction(self):
        rows = [(1, "a"), (2, "b"), (3, "c")]
        built, inserted = bulk(rows, distinct=True), Relation(SCHEMA, reversed(rows))
        assert built == inserted and inserted == built
        assert hash(built) == hash(inserted)
        assert built.same_rows(inserted) and inserted.same_rows(bulk(rows))
        assert built != bulk(rows[:2]) and not built.same_rows(bulk(rows[:2]))

    def test_copy_then_mutate_either_side(self):
        original = bulk([(1, "a"), (2, "b")], distinct=True)
        untouched_copy = original.copy()  # taken before any row set exists
        original.insert((3, "c"))
        assert untouched_copy.rows == ((1, "a"), (2, "b"))
        assert (3, "c") not in untouched_copy
        later_copy = original.copy("S")  # taken after the row set exists
        later_copy.remove((1, "a"))
        later_copy.insert((4, "d"))
        assert original.rows == ((1, "a"), (2, "b"), (3, "c"))
        assert (1, "a") in original and (4, "d") not in original
        assert later_copy.rows == ((2, "b"), (3, "c"), (4, "d"))
        assert later_copy.schema.name == "S" and later_copy.version == original.version + 2

    @pytest.mark.parametrize(
        "bad, complaint",
        [
            ([1, "a"], "not a tuple"),
            ({"A": 1, "B": "a"}, "not a tuple"),
            ((1,), "arity 1"),
            ((1, "a", "extra"), "arity 3"),
        ],
    )
    def test_malformed_rows_rejected(self, bad, complaint):
        for distinct in (False, True):
            with pytest.raises(ArityError, match=complaint):
                Relation.from_tuples(SCHEMA, [(0, "ok"), bad], distinct=distinct)

    def test_loader_arity_errors_stay_representation_errors(self, census_forms):
        census_forms.rows.append((1, 2))  # past OrSetRelation.insert's own check
        with pytest.raises(RepresentationError):
            UWSDT.from_orset_relation(census_forms)
        with pytest.raises(RepresentationError):
            engine = UWSDT(DatabaseSchema([census_forms.schema]))
            engine.set_template("R", engine.templates["R"].certain, [(1, "x")])

    @given(st.lists(st.tuples(SPECIAL_VALUES, SPECIAL_VALUES), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_bulk_equals_per_row_construction(self, rows):
        assert_identical(bulk(rows), Relation(SCHEMA, rows))


# --------------------------------------------------------------------------- #
# Work counts
# --------------------------------------------------------------------------- #


@pytest.fixture
def storage_work(monkeypatch):
    """Counts ``Relation.insert`` calls and row sets derived, verifier off
    (its set check asks every operator output for its row set)."""
    work = {"inserts": 0, "derived": []}
    insert, member_set = Relation.insert, Relation._member_set

    def counting_insert(self, row):
        work["inserts"] += 1
        return insert(self, row)

    def counting_member_set(self):
        if self._members is None:
            work["derived"].append(self)  # holds the relation: ids stay unique
        return member_set(self)

    monkeypatch.setattr(Relation, "insert", counting_insert)
    monkeypatch.setattr(Relation, "_member_set", counting_member_set)
    previous = invariants.set_verification(False)
    yield work
    invariants.set_verification(previous)


class TestWorkCounts:
    def test_benchmark_queries_insert_nothing_and_derive_each_set_once(self, storage_work):
        database, uwsdt = census_engines()
        storage_work["inserts"] = 0  # generating the census inserts, row by row
        for engine in (database, uwsdt):
            for label, query in benchmark_queries():
                query.run(engine, label)
        assert storage_work["inserts"] == 0
        derived = storage_work["derived"]
        assert len({id(relation) for relation in derived}) == len(derived)

    def test_select_project_rename_chain_derives_no_row_set(self, storage_work):
        database, _ = census_engines()
        relation = database.relation("R")
        selected = algebra.select(relation, eq("ENGLISH", 3))
        projected = algebra.project(selected, ["POWSTATE", "POB"])
        renamed = algebra.rename(projected, "POB", "B1")
        assert len(renamed) == len(projected) > 0
        assert storage_work["inserts"] == 0 and storage_work["derived"] == []
        assert (renamed.rows[0] in renamed) and len(storage_work["derived"]) == 1

    def test_finish_copies_one_list(self, storage_work):
        database, _ = census_engines()
        result = benchmark_queries()[0][1].run(database, "out")
        assert storage_work["derived"] == []
        assert result.insert(result.rows[0]) is False  # still a set when asked
