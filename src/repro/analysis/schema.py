"""Bottom-up schema and type inference over logical :class:`Query` trees.

The analyses here answer, *before execution*, the questions the engines
otherwise answer with a ``KeyError`` (or a silently-false comparison) deep
inside an operator:

* does every referenced attribute exist at the point of reference?
* does a product/join introduce a duplicate attribute, or a rename collide
  with an existing one?
* are the two sides of a ∪ / − / ∩ union-compatible (same arity, same
  attribute names, compatible column types)?
* does a predicate compare compatible domains (a string column against an
  int constant can never match — the permissive ``compare()`` would just
  return False row by row)?

Attribute *names* come from the planner statistics (or any
:class:`SchemaContext`); attribute *types* are abstracted into a tiny
lattice — ``number`` / ``str`` / ``bytes`` / ``any`` — and inferred from
the set of Python classes of each column's values, which the catalog's
row samples memoise.  ``any`` is compatible with everything, so
the analysis only rejects *definite* errors: a relation the context has
never seen simply propagates "unknown" and disables the checks that would
need it, and a type read off a sample that is not the whole relation is
confirmed against the whole columns before a mismatch is reported
(:func:`analyze_for_statistics`).

Strict checking (:func:`analyze`) raises :class:`AnalysisError` — a
:class:`~repro.relational.errors.SchemaError` — whose message embeds the
rendered query tree with a marker on the offending node.  The non-raising
:func:`inferred_attributes` is the planner's own attribute propagation over
a :class:`SchemaContext`, and is what the plan-invariant verifier uses to
prove rewrites schema-preserving.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.algebra.query import (
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
from ..core.planner.cost import output_attributes
from ..core.planner.sampling import SENTINEL_CLASS, column_classes
from ..relational.errors import SchemaError
from ..relational.predicates import (
    And,
    AttrAttr,
    AttrConst,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from ..relational.values import is_domain_value

# --------------------------------------------------------------------------- #
# The type lattice
# --------------------------------------------------------------------------- #

#: Top of the type lattice: compatible with every type.
ANY_TYPE = "any"
#: int / float / bool collapse into one numeric domain (Python compares them).
NUMBER = "number"
STRING = "str"
BYTES = "bytes"


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


# --------------------------------------------------------------------------- #
# Schema context: what the analysis knows about stored relations
# --------------------------------------------------------------------------- #


class SchemaContext:
    """Base-relation attribute lists and (lazily derived) column types.

    ``attributes`` maps relation name → ordered attribute tuple; ``types``
    (optional) maps relation name → per-attribute abstract type.  Relations
    absent from the context are *unknown*: inference propagates None for
    them and every check that would need their schema is skipped.
    """

    def __init__(
        self,
        attributes: Optional[Mapping[str, Sequence[str]]] = None,
        types: Optional[Mapping[str, Mapping[str, str]]] = None,
        schema_loader: Optional[Callable[[str], Optional[InferredSchema]]] = None,
        sampled: Collection[str] = (),
    ) -> None:
        self._attributes: Dict[str, Tuple[str, ...]] = {
            name: tuple(attrs) for name, attrs in (attributes or {}).items()
        }
        self._types: Dict[str, Dict[str, str]] = {
            name: dict(mapping) for name, mapping in (types or {}).items()
        }
        #: Lazily resolves a relation's typed schema on first use (type work
        #: is only paid for relations a query actually mentions).
        self._schema_loader = schema_loader
        #: Relations whose types were read off a sample that is not the whole
        #: relation: likely, not definite (a rare value may have been missed).
        self.sampled = frozenset(sampled)
        self._schemas: Dict[str, Optional[InferredSchema]] = {}

    @classmethod
    def empty(cls) -> "SchemaContext":
        return cls()

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
            from ..obs.metrics import get_registry

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

    def relation_attributes(self, name: str) -> Optional[Tuple[str, ...]]:
        return self._attributes.get(name)

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
                types = self._types.get(name, {})
                schema = InferredSchema(
                    attributes, tuple(types.get(a, ANY_TYPE) for a in attributes)
                )
            elif schema.attributes != attributes:
                schema = InferredSchema(attributes, tuple(map(schema.type_of, attributes)))
        self._schemas[name] = schema
        return schema

    def relation_types(self, name: str) -> Mapping[str, str]:
        schema = self.relation_schema(name)
        return {} if schema is None else dict(zip(schema.attributes, schema.types))

    def attribute_type(self, relation: str, attribute: str) -> str:
        schema = self.relation_schema(relation)
        return ANY_TYPE if schema is None else schema.type_of(attribute)

    def __repr__(self) -> str:
        return f"SchemaContext({sorted(self._attributes)})"


def column_types(
    attributes: Sequence[str], rows: Iterable[Tuple[Any, ...]]
) -> Dict[str, str]:
    """Per-attribute abstract type over sampled rows (placeholders skipped)."""
    types = dict.fromkeys(attributes, ANY_TYPE)
    types.update(zip(attributes, map(classes_type, column_classes(rows))))
    return types


# --------------------------------------------------------------------------- #
# Inference results and errors
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


def _sample_schema(sample: Any) -> InferredSchema:
    """A sample's attributes with their types, from the value classes
    memoised on it."""
    return InferredSchema(sample.attributes, tuple(map(classes_type, sample.column_classes())))


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

    ``code`` discriminates the error class (``unknown-attribute``,
    ``duplicate-attribute``, ``arity-mismatch``, ``attribute-mismatch``,
    ``type-mismatch``); the message embeds the rendered query tree with the
    offending node marked.
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


#: The error classes :func:`analyze` can report.
ERROR_CODES = (
    "unknown-attribute",
    "duplicate-attribute",
    "arity-mismatch",
    "attribute-mismatch",
    "type-mismatch",
)


# --------------------------------------------------------------------------- #
# Strict analysis
# --------------------------------------------------------------------------- #


class _Analyzer:
    def __init__(self, root: Query, context: SchemaContext) -> None:
        self.root = root
        self.context = context

    def fail(self, code: str, node: Query, reason: str) -> None:
        raise AnalysisError(code, reason, self.root, node)

    def infer(self, node: Query) -> Optional[InferredSchema]:
        if isinstance(node, BaseRelation):
            return self.context.relation_schema(node.name)
        if isinstance(node, Select):
            child = self.infer(node.child)
            if child is not None:
                self.check_predicate(node, node.predicate, child)
            return child
        if isinstance(node, Project):
            child = self.infer(node.child)
            duplicate = _first_duplicate(node.attributes)
            if duplicate is not None:
                self.fail(
                    "duplicate-attribute",
                    node,
                    f"projection lists attribute {duplicate!r} more than once",
                )
            if child is None:
                return InferredSchema(
                    tuple(node.attributes), (ANY_TYPE,) * len(node.attributes)
                )
            for attribute in node.attributes:
                if attribute not in child.attributes:
                    self.fail(
                        "unknown-attribute",
                        node,
                        f"projection references unknown attribute {attribute!r}; "
                        f"input schema is {child.describe()}",
                    )
            return InferredSchema(
                tuple(node.attributes),
                tuple(child.type_of(a) for a in node.attributes),
            )
        if isinstance(node, Rename):
            child = self.infer(node.child)
            if child is None:
                return None
            if node.old not in child.attributes:
                self.fail(
                    "unknown-attribute",
                    node,
                    f"rename references unknown attribute {node.old!r}; "
                    f"input schema is {child.describe()}",
                )
            if node.new != node.old and node.new in child.attributes:
                self.fail(
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
            left = self.infer(node.left)
            right = self.infer(node.right)
            if isinstance(node, Join):
                self.check_join_keys(node, left, right)
            if left is None or right is None:
                return None
            overlap = set(left.attributes) & set(right.attributes)
            if overlap:
                self.fail(
                    "duplicate-attribute",
                    node,
                    f"both sides of the {'join' if isinstance(node, Join) else 'product'} "
                    f"define {sorted(overlap)!r}; left is {left.describe()}, "
                    f"right is {right.describe()} — rename one side first",
                )
            return InferredSchema(
                left.attributes + right.attributes, left.types + right.types
            )
        if isinstance(node, (Union, Difference, Intersection)):
            left = self.infer(node.left)
            right = self.infer(node.right)
            if left is not None and right is not None:
                self.check_set_compatible(node, left, right)
                return InferredSchema(
                    left.attributes,
                    tuple(join_types(lt, rt) for lt, rt in zip(left.types, right.types)),
                )
            return left if left is not None else right
        raise TypeError(f"cannot analyze query node {node!r}")

    # -- per-construct checks ---------------------------------------------- #

    def check_predicate(
        self, node: Query, predicate: Predicate, schema: InferredSchema
    ) -> None:
        if isinstance(predicate, (And, Or)):
            for part in predicate.parts:
                self.check_predicate(node, part, schema)
            return
        if isinstance(predicate, Not):
            self.check_predicate(node, predicate.inner, schema)
            return
        if isinstance(predicate, TruePredicate):
            return
        for attribute in predicate.attributes():
            if attribute not in schema.attributes:
                self.fail(
                    "unknown-attribute",
                    node,
                    f"predicate {predicate!r} references unknown attribute "
                    f"{attribute!r}; input schema is {schema.describe()}",
                )
        if isinstance(predicate, AttrConst):
            attribute_type = schema.type_of(predicate.attribute)
            constant_type = type_name(predicate.constant)
            if not types_compatible(attribute_type, constant_type):
                self.fail(
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
                self.fail(
                    "type-mismatch",
                    node,
                    f"predicate {predicate!r} compares {predicate.left!r} "
                    f"({left_type}) with {predicate.right!r} ({right_type}) — "
                    "the comparison can never hold",
                )

    def check_join_keys(
        self,
        node: Join,
        left: Optional[InferredSchema],
        right: Optional[InferredSchema],
    ) -> None:
        if left is not None and node.left_attr not in left.attributes:
            self.fail(
                "unknown-attribute",
                node,
                f"join key {node.left_attr!r} is not produced by the left "
                f"input {left.describe()}",
            )
        if right is not None and node.right_attr not in right.attributes:
            self.fail(
                "unknown-attribute",
                node,
                f"join key {node.right_attr!r} is not produced by the right "
                f"input {right.describe()}",
            )
        if left is not None and right is not None:
            left_type = left.type_of(node.left_attr)
            right_type = right.type_of(node.right_attr)
            if not types_compatible(left_type, right_type):
                self.fail(
                    "type-mismatch",
                    node,
                    f"join compares {node.left_attr!r} ({left_type}) with "
                    f"{node.right_attr!r} ({right_type}) — the keys can never match",
                )

    def check_set_compatible(
        self, node: Query, left: InferredSchema, right: InferredSchema
    ) -> None:
        operator = node.node_label()
        if len(left.attributes) != len(right.attributes):
            self.fail(
                "arity-mismatch",
                node,
                f"{operator} requires union-compatible inputs; left has arity "
                f"{len(left.attributes)} {left.describe()} but right has arity "
                f"{len(right.attributes)} {right.describe()}",
            )
        if left.attributes != right.attributes:
            self.fail(
                "attribute-mismatch",
                node,
                f"{operator} requires identical attribute lists; left is "
                f"{left.describe()} but right is {right.describe()}",
            )
        for attribute, left_type, right_type in zip(
            left.attributes, left.types, right.types
        ):
            if not types_compatible(left_type, right_type):
                self.fail(
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


def analyze(query: Query, context: Optional[SchemaContext] = None) -> Optional[InferredSchema]:
    """Strictly analyze ``query``; return its inferred output schema.

    Raises :class:`AnalysisError` on any *definite* schema or type error.
    Returns None when the output schema cannot be resolved (some base
    relation is unknown to the context) — in that case every check that
    needed the missing schema was skipped, not failed.
    """
    context = context or SchemaContext.empty()
    return _Analyzer(query, context).infer(query)


def analyze_for_statistics(
    query: Query, statistics: Any, context: Optional[SchemaContext] = None
) -> Optional[InferredSchema]:
    """:func:`analyze` against planner statistics (the ``plan()`` hook).

    ``context`` is ``SchemaContext.from_statistics(statistics)`` when the
    caller already has one.  A sampled type is definite only when the sample
    is the whole relation; otherwise a would-be ``type-mismatch`` is
    confirmed first: the analysis runs once more with the sampled relations'
    types read from the whole columns of the engine behind the statistics'
    catalog.  Statistics without an engine to ask (hand-built ones, a
    collected engine) cannot confirm, so the mismatch is not reported.
    """
    if context is None:
        context = SchemaContext.from_statistics(statistics)
    try:
        return analyze(query, context)
    except AnalysisError as error:
        if error.code != "type-mismatch" or not context.sampled:
            raise
    catalog = statistics.catalog
    return analyze(query, context.confirmed_by(catalog.engine if catalog is not None else None))


# --------------------------------------------------------------------------- #
# Non-raising attribute propagation (the verifier's workhorse)
# --------------------------------------------------------------------------- #


def inferred_attributes(
    query: Query, context: Optional[SchemaContext] = None
) -> Optional[Tuple[str, ...]]:
    """Output attribute list of ``query``, or None where unresolvable.

    The planner's :func:`~repro.core.planner.cost.output_attributes` over a
    :class:`SchemaContext` (by default the empty one, which still resolves
    what projections pin): the verifier judges a rewrite by the propagation
    the rewrite itself consulted.
    """
    return output_attributes(query, context or SchemaContext.empty())


# --------------------------------------------------------------------------- #
# Builder-time set-operation compatibility (Query.union / difference / ∩)
# --------------------------------------------------------------------------- #


def check_set_operation(operator: str, left: Query, right: Query, node: Query) -> None:
    """Eagerly reject a definitely-incompatible ∪ / − / ∩ at build time.

    Called from the ``Query`` combinators with no statistics in scope, so
    only *structurally* resolvable schemas participate (projections pin
    their attribute lists; bare base relations are unknown and pass).  Both
    schemas are spelled out in the raised message.
    """
    left_attrs = inferred_attributes(left)
    right_attrs = inferred_attributes(right)
    if left_attrs is None or right_attrs is None:
        return
    if len(left_attrs) != len(right_attrs):
        raise AnalysisError(
            "arity-mismatch",
            f"{operator} requires union-compatible inputs; left has arity "
            f"{len(left_attrs)} {tuple(left_attrs)!r} but right has arity "
            f"{len(right_attrs)} {tuple(right_attrs)!r}",
            node,
            node,
        )
    if tuple(left_attrs) != tuple(right_attrs):
        raise AnalysisError(
            "attribute-mismatch",
            f"{operator} requires identical attribute lists; left is "
            f"{tuple(left_attrs)!r} but right is {tuple(right_attrs)!r}",
            node,
            node,
        )
