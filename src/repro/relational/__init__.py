"""In-memory relational engine: the substrate beneath the WSD layers.

The paper's prototype (MayBMS) runs on top of PostgreSQL.  This subpackage
is the pure-Python substitute: named-perspective schemas, relations with set
semantics, relational algebra, selection predicates, secondary indexes, and
CSV I/O.  See DESIGN.md for the substitution rationale.
"""

from .algebra import (
    aggregate,
    difference,
    equi_join,
    group_count,
    intersection,
    natural_join,
    product,
    project,
    rename,
    rename_relation,
    select,
    union,
)
from .database import Database, empty_database, single_relation_database
from .errors import (
    ArityError,
    ConversionError,
    InconsistentWorldSetError,
    PredicateError,
    QueryError,
    RepresentationError,
    ReproError,
    SchemaError,
    UnknownAttributeError,
    UnknownRelationError,
)
from .indexes import HashIndex, IndexPool, SortedIndex
from .predicates import (
    And,
    AttrAttr,
    AttrConst,
    Not,
    Or,
    Predicate,
    TruePredicate,
    attr_eq,
    compare,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
)
from .relation import Relation
from .schema import DatabaseSchema, RelationSchema
from .values import BOTTOM, PLACEHOLDER, is_bottom, is_domain_value, is_placeholder

__all__ = [
    "aggregate",
    "difference",
    "equi_join",
    "group_count",
    "intersection",
    "natural_join",
    "product",
    "project",
    "rename",
    "rename_relation",
    "select",
    "union",
    "Database",
    "empty_database",
    "single_relation_database",
    "ArityError",
    "ConversionError",
    "InconsistentWorldSetError",
    "PredicateError",
    "QueryError",
    "RepresentationError",
    "ReproError",
    "SchemaError",
    "UnknownAttributeError",
    "UnknownRelationError",
    "HashIndex",
    "IndexPool",
    "SortedIndex",
    "And",
    "AttrAttr",
    "AttrConst",
    "Not",
    "Or",
    "Predicate",
    "TruePredicate",
    "attr_eq",
    "compare",
    "eq",
    "ge",
    "gt",
    "le",
    "lt",
    "ne",
    "Relation",
    "DatabaseSchema",
    "RelationSchema",
    "BOTTOM",
    "PLACEHOLDER",
    "is_bottom",
    "is_domain_value",
    "is_placeholder",
]
