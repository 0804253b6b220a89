"""Unit tests for schemas, relations, databases and values (the substrate)."""

import pytest

from repro.relational import (
    BOTTOM,
    PLACEHOLDER,
    ArityError,
    Database,
    DatabaseSchema,
    Relation,
    RelationSchema,
    SchemaError,
    UnknownAttributeError,
    UnknownRelationError,
    is_bottom,
    is_domain_value,
    is_placeholder,
)
from repro.relational.values import contains_bottom, format_value


class TestRelationSchema:
    def test_basic_properties(self):
        schema = RelationSchema("R", ("A", "B", "C"))
        assert schema.arity == 3
        assert schema.position("B") == 1
        assert schema.has_attribute("C")
        assert not schema.has_attribute("D")
        assert list(schema) == ["A", "B", "C"]
        assert len(schema) == 3

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ("A", "A"))

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ())
        with pytest.raises(SchemaError):
            RelationSchema("", ("A",))

    def test_unknown_attribute(self):
        schema = RelationSchema("R", ("A",))
        with pytest.raises(UnknownAttributeError):
            schema.position("Z")

    def test_project(self):
        schema = RelationSchema("R", ("A", "B", "C"))
        projected = schema.project(["C", "A"])
        assert projected.attributes == ("C", "A")
        with pytest.raises(UnknownAttributeError):
            schema.project(["Z"])

    def test_rename_attribute(self):
        schema = RelationSchema("R", ("A", "B"))
        renamed = schema.rename_attribute("A", "X")
        assert renamed.attributes == ("X", "B")
        with pytest.raises(SchemaError):
            schema.rename_attribute("A", "B")

    def test_concat_requires_disjoint(self):
        left = RelationSchema("R", ("A", "B"))
        right = RelationSchema("S", ("C",))
        assert left.concat(right).attributes == ("A", "B", "C")
        with pytest.raises(SchemaError):
            left.concat(RelationSchema("S", ("B",)))

    def test_equality_and_hash(self):
        a = RelationSchema("R", ("A", "B"))
        b = RelationSchema("R", ("A", "B"))
        c = RelationSchema("R", ("B", "A"))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_renamed_shares_the_layout_and_equals_a_fresh_schema(self):
        parent = RelationSchema("R", ("A", "B", "C"))
        renamed = parent.renamed("S")
        fresh = RelationSchema("S", ("A", "B", "C"))
        assert renamed == fresh and hash(renamed) == hash(fresh)
        assert renamed != parent and renamed.renamed("R") == parent
        assert [renamed.position(a) for a in "ABC"] == [fresh.position(a) for a in "ABC"]
        assert renamed.has_attribute("B") and not renamed.has_attribute("S")
        assert renamed.attributes is parent.attributes
        assert renamed._positions is parent._positions
        with pytest.raises(UnknownAttributeError):
            renamed.position("Z")
        with pytest.raises(SchemaError, match="non-empty"):
            parent.renamed("")


class TestDatabaseSchema:
    def test_add_and_lookup(self):
        schema = DatabaseSchema([RelationSchema("R", ("A",))])
        schema.add(RelationSchema("S", ("B",)))
        assert schema.relation_names == ("R", "S")
        assert schema.relation("S").attributes == ("B",)
        with pytest.raises(SchemaError):
            schema.add(RelationSchema("R", ("X",)))
        with pytest.raises(UnknownRelationError):
            schema.relation("T")


class TestRelation:
    def test_insert_and_set_semantics(self):
        relation = Relation(RelationSchema("R", ("A", "B")))
        assert relation.insert((1, 2))
        assert not relation.insert((1, 2))
        assert relation.insert({"A": 3, "B": 4})
        assert len(relation) == 2
        assert (1, 2) in relation
        assert (9, 9) not in relation

    def test_arity_checked(self):
        relation = Relation(RelationSchema("R", ("A", "B")))
        with pytest.raises(ArityError):
            relation.insert((1,))
        with pytest.raises(ArityError):
            relation.insert({"A": 1})
        with pytest.raises(ArityError):
            relation.insert({"A": 1, "B": 2, "C": 3})

    def test_remove(self):
        relation = Relation(RelationSchema("R", ("A",)), [(1,), (2,)])
        assert relation.remove((1,))
        assert not relation.remove((1,))
        assert len(relation) == 1

    def test_named_access_and_columns(self, small_relation):
        row = small_relation.rows[0]
        assert small_relation.value(row, "NAME") == "ann"
        assert small_relation.column("DEPT").count("eng") == 2
        assert small_relation.distinct_values("DEPT") == {"eng", "hr", "ops"}

    def test_as_dicts_roundtrip(self, small_relation):
        dicts = small_relation.as_dicts()
        rebuilt = Relation.from_dicts("Emp", small_relation.schema.attributes, dicts)
        assert rebuilt.same_rows(small_relation)

    def test_copy_is_independent(self, small_relation):
        copy = small_relation.copy()
        copy.insert(("zed", "eng", 1))
        assert len(copy) == len(small_relation) + 1

    def test_to_text_contains_header_and_rows(self, small_relation):
        text = small_relation.to_text(max_rows=2)
        assert "NAME" in text and "ann" in text and "more rows" in text

    def test_equality(self):
        a = Relation(RelationSchema("R", ("A",)), [(1,), (2,)])
        b = Relation(RelationSchema("R", ("A",)), [(2,), (1,)])
        assert a == b
        assert a.row_set() == b.row_set()


class TestDatabase:
    def test_add_replace_drop(self, small_relation, departments):
        database = Database([small_relation])
        database.add(departments)
        assert database.relation_names == ("Emp", "Dept")
        with pytest.raises(SchemaError):
            database.add(small_relation)
        database.replace(small_relation.copy())
        database.drop("Dept")
        assert not database.has_relation("Dept")
        with pytest.raises(UnknownRelationError):
            database.relation("Dept")

    def test_canonical_form_order_insensitive(self, small_relation, departments):
        first = Database([small_relation, departments])
        second = Database([departments.copy(), small_relation.copy()])
        assert first == second
        assert hash(first) == hash(second)

    def test_from_mapping_validates_names(self, small_relation):
        with pytest.raises(SchemaError):
            Database.from_mapping({"Wrong": small_relation})
        database = Database.from_mapping({"Emp": small_relation})
        assert database.has_relation("Emp")


class TestSpecialValues:
    def test_sentinels_are_distinct_and_detected(self):
        assert is_bottom(BOTTOM) and not is_bottom(PLACEHOLDER)
        assert is_placeholder(PLACEHOLDER) and not is_placeholder(BOTTOM)
        assert not is_domain_value(BOTTOM) and not is_domain_value(PLACEHOLDER)
        assert is_domain_value(0) and is_domain_value("x") and is_domain_value(None)

    def test_contains_bottom(self):
        assert contains_bottom((1, BOTTOM, 3))
        assert not contains_bottom((1, 2, 3))

    def test_format_value(self):
        assert format_value(BOTTOM) == "⊥"
        assert format_value(PLACEHOLDER) == "?"
        assert format_value(17) == "17"

    def test_sentinels_survive_copy(self):
        import copy as copy_module

        assert copy_module.copy(BOTTOM) is BOTTOM
        assert copy_module.deepcopy(PLACEHOLDER) is PLACEHOLDER

    def test_sentinels_survive_pickle(self):
        import pickle

        assert pickle.loads(pickle.dumps(BOTTOM)) is BOTTOM
        assert pickle.loads(pickle.dumps(PLACEHOLDER)) is PLACEHOLDER
