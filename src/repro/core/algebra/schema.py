"""The output schema of a query: one typed derivation over the nine node classes.

Every operator of the algebra maps inputs of fixed schemas to an output of a
fixed schema.  :func:`output_schema` computes it bottom-up — ordered
attribute names with an abstract type per attribute — from the base
relations' schemas in a :class:`SchemaContext`, and raises
:class:`AnalysisError` where the query is definitely ill-formed:

* an attribute referenced where its input does not produce it;
* a product / join / rename / projection that would repeat an attribute;
* ∪ / − / ∩ over inputs of different arity, attribute lists or column types;
* a comparison between domains that can never compare equal.

Types form a tiny lattice — ``number`` / ``str`` / ``bytes`` / ``any`` —
read off the set of Python classes of each column's values.  ``any`` is
compatible with everything, so only *definite* errors are raised; a base
relation the context does not know derives to None and disables every check
that would need its schema.  The context memoises the derivation of every
node it has seen, keyed by node (queries are values), so a planning run
derives each subtree once.

Callers: the combinators ``Query.union`` / ``difference`` / ``intersection``
(over the empty context, at build time), ``plan()``'s up-front check
(:func:`analyze_for_statistics`), the rewriter's
``RewriteContext.attributes_of`` and the plan verifier.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

from ...obs.metrics import get_registry
from ...relational.errors import SchemaError
from ...relational.predicates import And, AttrAttr, AttrConst, Not, Or, Predicate, TruePredicate
from ...relational.values import PLACEHOLDER, is_domain_value
from .query import (
    BaseRelation,
    Difference,
    Intersection,
    Join,
    Product,
    Project,
    Query,
    Rename,
    Select,
    Union,
)

# --------------------------------------------------------------------------- #
# The type lattice
# --------------------------------------------------------------------------- #

#: Top of the type lattice: compatible with every type.
ANY_TYPE = "any"
#: int / float / bool collapse into one numeric domain (Python compares them).
NUMBER = "number"
STRING = "str"
BYTES = "bytes"

#: The class of the ``⊥`` / ``?`` markers: a column without it holds domain
#: values only.
SENTINEL_CLASS = type(PLACEHOLDER)


def type_name(value: Any) -> str:
    """Abstract domain of a constant (placeholders/⊥ abstract to ``any``)."""
    if not is_domain_value(value):
        return ANY_TYPE
    if isinstance(value, (bool, int, float)):
        return NUMBER
    if isinstance(value, str):
        return STRING
    if isinstance(value, bytes):
        return BYTES
    return ANY_TYPE


def types_compatible(left: str, right: str) -> bool:
    """Whether two abstract types can ever compare equal."""
    return left == ANY_TYPE or right == ANY_TYPE or left == right


def join_types(left: str, right: str) -> str:
    """Least upper bound of two abstract types."""
    return left if left == right else ANY_TYPE


def _class_type(value_class: type) -> str:
    """:func:`type_name` of the domain values of one class (subclasses included)."""
    if issubclass(value_class, (bool, int, float)):
        return NUMBER
    if issubclass(value_class, str):
        return STRING
    if issubclass(value_class, bytes):
        return BYTES
    return ANY_TYPE


def classes_type(classes: Iterable[type]) -> str:
    """Abstract type of a column from the set of classes of its values.

    The join of :func:`type_name` over the column's domain values (the
    markers' class is skipped; a column without domain values is ``any``),
    computed from its handful of classes instead of its cells.
    """
    domain = [c for c in classes if c is not SENTINEL_CLASS]
    return functools.reduce(join_types, map(_class_type, domain)) if domain else ANY_TYPE


def column_classes(rows: Iterable[Tuple[Any, ...]]) -> Tuple[FrozenSet[type], ...]:
    """The set of Python classes of each column's values, one pass per column.

    This is all the type lattice needs from the rows (a type is a property
    of a column's whole domain), and a column has a handful of classes
    however many rows it has.
    """
    return tuple(frozenset(map(type, column)) for column in zip(*rows))


# --------------------------------------------------------------------------- #
# Derived schemas and errors
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class InferredSchema:
    """Resolved output schema of a query subtree: ordered names + types."""

    attributes: Tuple[str, ...]
    types: Tuple[str, ...]

    def type_of(self, attribute: str) -> str:
        try:
            return self.types[self.attributes.index(attribute)]
        except ValueError:
            return ANY_TYPE

    def describe(self) -> str:
        return "(" + ", ".join(
            a if t == ANY_TYPE else f"{a}: {t}"
            for a, t in zip(self.attributes, self.types)
        ) + ")"


#: Marker appended to the offending node's line in rendered error trees.
OFFENDING_MARKER = "   <-- here"


def render_offending(root: Query, offending: Query, indent: str = "  ") -> str:
    """Render ``root`` like ``Query.to_text`` with ``offending`` marked.

    The marker matches by object identity, so structurally equal siblings
    stay unmarked.
    """

    def walk(node: Query, prefix: str) -> List[str]:
        line = prefix + node.node_label()
        if node is offending:
            line += OFFENDING_MARKER
        lines = [line]
        for child in node.children():
            lines.extend(walk(child, prefix + "  "))
        return lines

    return "\n".join(walk(root, indent))


class AnalysisError(SchemaError):
    """A definite schema/type error found by static analysis.

    ``code`` discriminates the error class (one of :data:`ERROR_CODES`); the
    message embeds the rendered query tree with the offending node marked.
    """

    def __init__(self, code: str, reason: str, root: Query, node: Query) -> None:
        message = f"plan analysis failed [{code}]: {reason}"
        if root is not None:
            message += "\n" + render_offending(root, node)
        super().__init__(message)
        self.code = code
        self.reason = reason
        self.root = root
        self.node = node


#: The error classes :func:`output_schema` can report.
ERROR_CODES = (
    "unknown-attribute",
    "duplicate-attribute",
    "arity-mismatch",
    "attribute-mismatch",
    "type-mismatch",
)


# --------------------------------------------------------------------------- #
# Schema context: what the derivation knows about stored relations
# --------------------------------------------------------------------------- #


class SchemaContext:
    """Base-relation attribute lists, their (lazily derived) column types, and
    the memo of every node derived over them.

    ``attributes`` maps relation name → ordered attribute tuple; a relation
    absent from it is *unknown*.  ``schema_loader`` resolves a known
    relation's typed schema on first use (type work is only paid for
    relations a query mentions); without one every type is ``any``.
    """

    def __init__(
        self,
        attributes: Optional[Mapping[str, Sequence[str]]] = None,
        schema_loader: Optional[Callable[[str], Optional[InferredSchema]]] = None,
        sampled: Collection[str] = (),
    ) -> None:
        self._attributes: Dict[str, Tuple[str, ...]] = {
            name: tuple(attrs) for name, attrs in (attributes or {}).items()
        }
        self._schema_loader = schema_loader
        #: Relations whose types were read off a sample that is not the whole
        #: relation: likely, not definite (a rare value may have been missed).
        self.sampled = frozenset(sampled)
        self._schemas: Dict[str, Optional[InferredSchema]] = {}
        #: :func:`output_schema` of every node derived over this context.
        self.derived: Dict[Query, Optional[InferredSchema]] = {}

    @classmethod
    def from_statistics(cls, statistics: Any) -> "SchemaContext":
        """Schema context over planner statistics (names + sampled types).

        A relation's typed schema is memoised on its sample, next to the
        value classes it is read from: one type scan per relation version,
        and a warm catalog serves a plan its base relations' types without
        looking at a row or a column.
        """

        def load_schema(name: str) -> Optional[InferredSchema]:
            sample = statistics.samples.get(name)
            if sample is None or not sample.rows:
                return None
            return sample.derive("schema", _sample_schema, sample)

        return cls(
            attributes=statistics.attributes,
            schema_loader=load_schema,
            sampled=[
                name
                for name, sample in statistics.samples.items()
                if len(sample.rows) < sample.population
            ],
        )

    @classmethod
    def from_engine(cls, engine: Any) -> "SchemaContext":
        """Schema context for a live engine: names from its schema, exact
        types from whole columns — stored rows on a Database, template rows
        on a UWSDT, where a column holding a ``?`` is ``any`` (its values
        live in components)."""
        schema = getattr(engine, "schema", None)
        if callable(schema):  # Database.schema() is a method; UWSDT attribute
            schema = schema()
        if schema is None:
            return cls()
        attributes = {rs.name: rs.attributes for rs in schema}

        def load_schema(name: str) -> Optional[InferredSchema]:
            attrs = attributes.get(name)
            if attrs is None:
                return None
            if hasattr(engine, "relation"):  # Database
                rows: Iterable[Tuple[Any, ...]] = engine.relation(name)
            else:  # UWSDT
                rows = (values for _, values in engine.template_rows(name))
            get_registry().counter("repro.analysis.type_scans", source="engine").inc()
            types = [
                ANY_TYPE if SENTINEL_CLASS in classes else classes_type(classes)
                for classes in column_classes(rows)
            ]
            return InferredSchema(attrs, tuple(types) or (ANY_TYPE,) * len(attrs))

        return cls(attributes=attributes, schema_loader=load_schema)

    def confirmed_by(self, engine: Any) -> "SchemaContext":
        """This context with the types of its :attr:`sampled` relations read
        from ``engine``'s whole columns instead — dropped (``any``) when there
        is no engine to ask, or it cannot say."""
        exact = SchemaContext.from_engine(engine)

        def load_schema(name: str) -> Optional[InferredSchema]:
            source = exact if name in self.sampled else self
            return source.relation_schema(name)

        return SchemaContext(attributes=self._attributes, schema_loader=load_schema)

    def relation_schema(self, name: str) -> Optional[InferredSchema]:
        """A base relation's attributes with their types (``any`` where
        nothing says otherwise), or None when the relation is unknown."""
        try:
            return self._schemas[name]
        except KeyError:
            pass
        attributes = self._attributes.get(name)
        schema: Optional[InferredSchema] = None
        if attributes is not None:
            schema = self._schema_loader(name) if self._schema_loader is not None else None
            if schema is None:
                schema = InferredSchema(attributes, (ANY_TYPE,) * len(attributes))
            elif schema.attributes != attributes:
                schema = InferredSchema(attributes, tuple(map(schema.type_of, attributes)))
        self._schemas[name] = schema
        return schema

    def __repr__(self) -> str:
        return f"SchemaContext({sorted(self._attributes)})"


def _sample_schema(sample: Any) -> InferredSchema:
    """A sample's attributes with their types, from the value classes
    memoised on it."""
    return InferredSchema(sample.attributes, tuple(map(classes_type, sample.column_classes())))


# --------------------------------------------------------------------------- #
# The derivation
# --------------------------------------------------------------------------- #

_MISSING = object()


def output_schema(query: Query, context: SchemaContext) -> Optional[InferredSchema]:
    """The typed output schema of ``query`` over ``context``'s base relations.

    Returns None when it cannot be resolved (some base relation is unknown
    to the context) — every check that needed the missing schema is then
    skipped, not failed.  Raises :class:`AnalysisError` on any *definite*
    schema or type error, with ``query`` rendered and the offending node
    marked.  Memoised in ``context``, keyed by node.
    """
    derived = context.derived
    known = derived.get(query, _MISSING)
    if known is not _MISSING:
        return known  # type: ignore[return-value]

    def fail(code: str, node: Query, reason: str) -> NoReturn:
        raise AnalysisError(code, reason, query, node)

    def walk(node: Query) -> Optional[InferredSchema]:
        schema = derived.get(node, _MISSING)
        if schema is _MISSING:
            schema = derive(node)
            derived[node] = schema
        return schema  # type: ignore[return-value]

    def derive(node: Query) -> Optional[InferredSchema]:
        if isinstance(node, BaseRelation):
            return context.relation_schema(node.name)
        if isinstance(node, Select):
            child = walk(node.child)
            if child is not None:
                _check_predicate(fail, node, node.predicate, child)
            return child
        if isinstance(node, Project):
            child = walk(node.child)
            duplicate = _first_duplicate(node.attributes)
            if duplicate is not None:
                fail(
                    "duplicate-attribute",
                    node,
                    f"projection lists attribute {duplicate!r} more than once",
                )
            if child is None:
                return InferredSchema(node.attributes, (ANY_TYPE,) * len(node.attributes))
            for attribute in node.attributes:
                if attribute not in child.attributes:
                    fail(
                        "unknown-attribute",
                        node,
                        f"projection references unknown attribute {attribute!r}; "
                        f"input schema is {child.describe()}",
                    )
            return InferredSchema(node.attributes, tuple(map(child.type_of, node.attributes)))
        if isinstance(node, Rename):
            child = walk(node.child)
            if child is None:
                return None
            if node.old not in child.attributes:
                fail(
                    "unknown-attribute",
                    node,
                    f"rename references unknown attribute {node.old!r}; "
                    f"input schema is {child.describe()}",
                )
            if node.new != node.old and node.new in child.attributes:
                fail(
                    "duplicate-attribute",
                    node,
                    f"renaming {node.old!r} to {node.new!r} collides with an "
                    f"existing attribute; input schema is {child.describe()}",
                )
            return InferredSchema(
                tuple(node.new if a == node.old else a for a in child.attributes),
                child.types,
            )
        if isinstance(node, (Product, Join)):
            left = walk(node.left)
            right = walk(node.right)
            if isinstance(node, Join):
                _check_join_keys(fail, node, left, right)
            if left is None or right is None:
                return None
            overlap = set(left.attributes) & set(right.attributes)
            if overlap:
                fail(
                    "duplicate-attribute",
                    node,
                    f"both sides of the {'join' if isinstance(node, Join) else 'product'} "
                    f"define {sorted(overlap)!r}; left is {left.describe()}, "
                    f"right is {right.describe()} — rename one side first",
                )
            return InferredSchema(left.attributes + right.attributes, left.types + right.types)
        if isinstance(node, (Union, Difference, Intersection)):
            left = walk(node.left)
            right = walk(node.right)
            if left is None or right is None:
                return left if left is not None else right
            _check_set_compatible(fail, node, left, right)
            return InferredSchema(
                left.attributes, tuple(map(join_types, left.types, right.types))
            )
        raise TypeError(f"cannot analyze query node {node!r}")

    try:
        return walk(query)
    finally:
        # ``walk`` and ``derive`` reach each other through their closures: a
        # reference cycle holding the context (and the statistics behind it)
        # until the collector's next full pass, unless broken here.
        del walk, derive


Fail = Callable[[str, Query, str], NoReturn]


def _check_predicate(fail: Fail, node: Query, predicate: Predicate, schema: InferredSchema) -> None:
    if isinstance(predicate, (And, Or)):
        for part in predicate.parts:
            _check_predicate(fail, node, part, schema)
        return
    if isinstance(predicate, Not):
        _check_predicate(fail, node, predicate.inner, schema)
        return
    if isinstance(predicate, TruePredicate):
        return
    for attribute in predicate.attributes():
        if attribute not in schema.attributes:
            fail(
                "unknown-attribute",
                node,
                f"predicate {predicate!r} references unknown attribute "
                f"{attribute!r}; input schema is {schema.describe()}",
            )
    if isinstance(predicate, AttrConst):
        attribute_type = schema.type_of(predicate.attribute)
        constant_type = type_name(predicate.constant)
        if not types_compatible(attribute_type, constant_type):
            fail(
                "type-mismatch",
                node,
                f"predicate {predicate!r} compares {predicate.attribute!r} "
                f"({attribute_type}) with a {constant_type} constant — "
                "the comparison can never hold",
            )
    elif isinstance(predicate, AttrAttr):
        left_type = schema.type_of(predicate.left)
        right_type = schema.type_of(predicate.right)
        if not types_compatible(left_type, right_type):
            fail(
                "type-mismatch",
                node,
                f"predicate {predicate!r} compares {predicate.left!r} "
                f"({left_type}) with {predicate.right!r} ({right_type}) — "
                "the comparison can never hold",
            )


def _check_join_keys(
    fail: Fail, node: Join, left: Optional[InferredSchema], right: Optional[InferredSchema]
) -> None:
    if left is not None and node.left_attr not in left.attributes:
        fail(
            "unknown-attribute",
            node,
            f"join key {node.left_attr!r} is not produced by the left "
            f"input {left.describe()}",
        )
    if right is not None and node.right_attr not in right.attributes:
        fail(
            "unknown-attribute",
            node,
            f"join key {node.right_attr!r} is not produced by the right "
            f"input {right.describe()}",
        )
    if left is not None and right is not None:
        left_type = left.type_of(node.left_attr)
        right_type = right.type_of(node.right_attr)
        if not types_compatible(left_type, right_type):
            fail(
                "type-mismatch",
                node,
                f"join compares {node.left_attr!r} ({left_type}) with "
                f"{node.right_attr!r} ({right_type}) — the keys can never match",
            )


def _check_set_compatible(
    fail: Fail, node: Query, left: InferredSchema, right: InferredSchema
) -> None:
    operator = node.node_label()
    if len(left.attributes) != len(right.attributes):
        fail(
            "arity-mismatch",
            node,
            f"{operator} requires union-compatible inputs; left has arity "
            f"{len(left.attributes)} {left.describe()} but right has arity "
            f"{len(right.attributes)} {right.describe()}",
        )
    if left.attributes != right.attributes:
        fail(
            "attribute-mismatch",
            node,
            f"{operator} requires identical attribute lists; left is "
            f"{left.describe()} but right is {right.describe()}",
        )
    for attribute, left_type, right_type in zip(left.attributes, left.types, right.types):
        if not types_compatible(left_type, right_type):
            fail(
                "type-mismatch",
                node,
                f"{operator} column {attribute!r} has type {left_type} on "
                f"the left but {right_type} on the right",
            )


def _first_duplicate(values: Sequence[str]) -> Optional[str]:
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


def analyze_for_statistics(query: Query, statistics: Any) -> Optional[InferredSchema]:
    """:func:`output_schema` over planner statistics — ``plan()``'s check.

    A sampled type is definite only when the sample is the whole relation;
    otherwise a would-be ``type-mismatch`` is confirmed first: the query is
    derived once more with the sampled relations' types read from the whole
    columns of the engine behind the statistics' catalog.  Statistics
    without an engine to ask (hand-built ones, a collected engine) cannot
    confirm, so the mismatch is not reported.
    """
    context = SchemaContext.from_statistics(statistics)
    try:
        return output_schema(query, context)
    except AnalysisError as error:
        if error.code != "type-mismatch" or not context.sampled:
            raise
    catalog = statistics.catalog
    return output_schema(query, context.confirmed_by(catalog.engine if catalog is not None else None))
