"""Selection predicates for the relational algebra.

The paper's selection operator supports conditions of the forms ``A θ c``
(attribute compared to a constant) and ``A θ B`` (attribute compared to an
attribute), where ``θ`` is one of ``=, ≠, <, ≤, >, ≥``.  We additionally
provide boolean combinators so that the census queries (Figure 29), which
use conjunctions and disjunctions, can be expressed as single selections.

Predicates are evaluated against a (schema, row) pair; ``evaluate`` and
:func:`compare` are the specification.  For repeated evaluation over the
rows of one layout, one generated source holds a single expression over
integer row positions (``row[17] is not BOTTOM and row[17] > c0``) twice:
as the row check :meth:`Predicate.compile` returns, and inside the loop
:meth:`Predicate.compile_scan` returns, which keeps the rows of a whole
iterable in one call.  Both agree with ``evaluate`` on every row.  The
source is a factory ``bind(BOTTOM, PLACEHOLDER, schema, evaluate, c0, …)``
returning the two as closures, so every constant is a cell read, not a
global lookup.  CPython compiles each distinct source once (:func:`_code`);
the constants are bound per call, as the factory's arguments.
"""

from __future__ import annotations

import functools
import operator
from types import CodeType
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..obs.metrics import get_registry
from .errors import PredicateError
from .schema import RelationSchema
from .values import BOTTOM, PLACEHOLDER, is_domain_value

#: Comparison operators supported by ``θ`` in the paper.
COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def comparator(symbol: str) -> Callable[[Any, Any], bool]:
    """Return the comparison function for a ``θ`` symbol."""
    try:
        return COMPARATORS[symbol]
    except KeyError:
        raise PredicateError(
            f"unknown comparison operator {symbol!r}; expected one of {sorted(COMPARATORS)}"
        ) from None


def compare(left: Any, symbol: str, right: Any) -> bool:
    """Evaluate ``left θ right``.

    Comparisons involving the ``⊥`` marker are always false: a deleted tuple
    never satisfies a selection condition.  Comparisons between incompatible
    types (e.g. a string column compared to an int constant) are false for
    ordering operators rather than raising, mirroring SQL's permissive
    casting in the paper's PostgreSQL prototype.
    """
    if left is BOTTOM or right is BOTTOM:
        return False
    op = comparator(symbol)
    try:
        return bool(op(left, right))
    except TypeError:
        if symbol in ("=", "=="):
            return False
        if symbol in ("!=", "<>"):
            return True
        return False


#: Python spelling of each comparison function in :data:`COMPARATORS`.
_TOKENS: Dict[Callable[[Any, Any], bool], str] = {
    operator.eq: "==",
    operator.ne: "!=",
    operator.lt: "<",
    operator.le: "<=",
    operator.gt: ">",
    operator.ge: ">=",
}

#: The constant types whose ``==`` answers a ``⊥`` cell False by itself:
#: ``⊥`` defines no ``__eq__`` and these return ``NotImplemented`` for it, so
#: ``A = c`` needs no ``is not BOTTOM`` test.  Exact types: a subclass (or any
#: other class) may define an ``__eq__`` that a ``⊥`` would reach.
_SELF_EQUAL_TYPES = frozenset({int, float, str, bool, type(None)})

#: The generated factory: its closures ``check`` and ``scan`` read the
#: markers, ``schema``, ``evaluate`` and the constants ``c<i>`` from cells.
#: ``compare`` answers a ``TypeError`` of the comparison operator itself; here
#: the row that raised is re-judged by ``evaluate``.  The guard is per row in
#: ``scan``: restarting the whole scan through ``evaluate`` would send every
#: row there for one unorderable cell.
_BIND_SOURCE = """\
def bind(BOTTOM, PLACEHOLDER, schema, evaluate{names}):
    def check(row):
        try:
            return {fragment}
        except TypeError:
            return evaluate(schema, row)

    def scan(rows):
        kept = []
        keep = kept.append
        for row in rows:
            try:
                if {fragment}:
                    keep(row)
            except TypeError:
                if evaluate(schema, row):
                    keep(row)
        return kept

    return check, scan
"""

#: A row check and the scan over an iterable of rows.
_Generated = Tuple[
    Callable[[Tuple[Any, ...]], bool],
    Callable[[Iterable[Tuple[Any, ...]]], List[Tuple[Any, ...]]],
]


@functools.lru_cache(maxsize=512)
def _code(source: str) -> CodeType:
    """CPython's compiler, once per distinct source.

    A source holds ``schema.position()`` integers and ``c<i>`` names only,
    never a constant or an attribute name, so one code object serves every
    predicate of the same shape over the same layout and the key space is
    bounded by shapes, not values.  Raises what ``compile`` raises; nothing
    is cached then.
    """
    get_registry().counter("repro.predicates.code_generated").inc()
    return compile(source, "<predicate>", "exec")


class _Source:
    """What the fragments of one generated function share: the row layout
    they index into and the constants passed to the factory."""

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self.constants: List[Any] = []

    def cell(self, attribute: str) -> str:
        """The expression reading ``attribute`` from the row: attribute names
        never reach the source, only their integer position does."""
        return f"row[{self.schema.position(attribute):d}]"

    def bind(self, value: Any) -> str:
        """The factory parameter ``value`` is passed as: constants are never
        rendered into the source."""
        self.constants.append(value)
        return f"c{len(self.constants) - 1}"

    def render(self, fragment: str) -> str:
        """The factory's source for ``fragment``: a parameter per constant bound."""
        names = "".join(f", c{i}" for i in range(len(self.constants)))
        return _BIND_SOURCE.format(names=names, fragment=fragment)


class Predicate:
    """Base class of selection predicates."""

    def evaluate(self, schema: RelationSchema, row: Tuple[Any, ...]) -> bool:
        """Return True iff the row satisfies the predicate."""
        raise NotImplementedError

    def compile(self, schema: RelationSchema) -> Callable[[Tuple[Any, ...]], bool]:
        """Return a fast row-level evaluator bound to ``schema``.

        The evaluator is one generated function over the whole predicate
        tree; it agrees with :meth:`evaluate` on every row (tuple or list).
        Nothing is cached on the predicate: predicates travel pickled inside
        physical plans.
        """
        return self.compile_both(schema)[0]

    def compile_scan(
        self, schema: RelationSchema
    ) -> Callable[[Iterable[Tuple[Any, ...]]], List[Tuple[Any, ...]]]:
        """Return the selection loop bound to ``schema``: ``scan(rows)`` is the
        list of the rows satisfying the predicate, in the order given.

        The loop is generated code too, so a row costs no Python call; it
        keeps exactly the rows :meth:`compile`'s evaluator accepts.
        """
        return self.compile_both(schema)[1]

    def compile_both(self, schema: RelationSchema) -> _Generated:
        """``(check, scan)``: :meth:`compile`'s row check and :meth:`compile_scan`'s
        loop, from one source and one code object — for a caller that needs
        both over one layout."""
        source = _Source(schema)
        text = source.render(self._fragment(source))
        namespace: Dict[str, Any] = {}
        try:
            exec(_code(text), namespace)
        except (SyntaxError, RecursionError, MemoryError):
            # A tree nested deeper than the parser accepts; which of the three
            # it raises depends on the shape (And/Or, Not) and the version.
            evaluate = self.evaluate
            return (
                lambda row: evaluate(schema, row),
                lambda rows: [row for row in rows if evaluate(schema, row)],
            )
        # Popped, not read: a namespace that kept the factory would be a
        # reference cycle per call, freed only by the cycle collector.
        bind = namespace.pop("bind")
        return bind(BOTTOM, PLACEHOLDER, schema, self.evaluate, *source.constants)

    def _fragment(self, source: _Source) -> str:
        """This node's expression over ``row`` for the generated function.

        A subclass that defines only :meth:`evaluate` is called through it.
        """
        return f"{source.bind(self.evaluate)}(schema, row)"

    def value_key(self) -> Optional[Tuple[Any, ...]]:
        """The predicate's value, which ``==`` and ``hash`` compare: class,
        attributes, operator and each constant with its class (``A = 1``,
        ``1.0``, ``True`` and ``'1'`` are four values).  None, and equal only
        to itself, for a subclass defining only :meth:`evaluate`, a constant
        that does not hash, or a combinator over such a part."""
        return None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Predicate) or type(other) is not type(self):
            return NotImplemented
        key = self.value_key()
        return key is not None and key == other.value_key()

    def __hash__(self) -> int:
        key = self.value_key()
        return object.__hash__(self) if key is None else hash(key)

    def attributes(self) -> Tuple[str, ...]:
        """Return the attributes referenced by the predicate (with duplicates removed)."""
        seen = []
        for attr in self._referenced():
            if attr not in seen:
                seen.append(attr)
        return tuple(seen)

    def _referenced(self) -> Iterable[str]:
        raise NotImplementedError

    # Combinators ------------------------------------------------------- #

    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


class AttrConst(Predicate):
    """Condition ``A θ c``: attribute compared with a constant."""

    __slots__ = ("attribute", "op", "constant")

    def __init__(self, attribute: str, op: str, constant: Any) -> None:
        comparator(op)  # validate eagerly
        self.attribute = attribute
        self.op = op
        self.constant = constant

    def evaluate(self, schema: RelationSchema, row: Tuple[Any, ...]) -> bool:
        return compare(row[schema.position(self.attribute)], self.op, self.constant)

    def _fragment(self, source: _Source) -> str:
        cell, token = source.cell(self.attribute), _TOKENS[comparator(self.op)]
        if self.constant is BOTTOM:
            return "False"
        if token == "==" and type(self.constant) in _SELF_EQUAL_TYPES:
            return f"({cell} == {source.bind(self.constant)})"
        return f"({cell} is not BOTTOM and {cell} {token} {source.bind(self.constant)})"

    def value_key(self) -> Optional[Tuple[Any, ...]]:
        try:
            hash(self.constant)
        except TypeError:
            return None
        return (type(self), self.attribute, self.op, type(self.constant), self.constant)

    def _referenced(self) -> Iterable[str]:
        return (self.attribute,)

    def __repr__(self) -> str:
        return f"({self.attribute} {self.op} {self.constant!r})"


class AttrAttr(Predicate):
    """Condition ``A θ B``: attribute compared with another attribute."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left: str, op: str, right: str) -> None:
        comparator(op)
        self.left = left
        self.op = op
        self.right = right

    def evaluate(self, schema: RelationSchema, row: Tuple[Any, ...]) -> bool:
        return compare(
            row[schema.position(self.left)], self.op, row[schema.position(self.right)]
        )

    def _fragment(self, source: _Source) -> str:
        left, right = source.cell(self.left), source.cell(self.right)
        token = _TOKENS[comparator(self.op)]
        return f"({left} is not BOTTOM and {right} is not BOTTOM and {left} {token} {right})"

    def value_key(self) -> Optional[Tuple[Any, ...]]:
        return (type(self), self.left, self.op, self.right)

    def _referenced(self) -> Iterable[str]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class _Connective(Predicate):
    """``And`` / ``Or`` over the parts in order; a nested part of the same
    class is flattened into them."""

    __slots__ = ("parts",)
    #: Upper case in ``repr``, lower case in the generated code.
    word = ""

    def __init__(self, *parts: Predicate) -> None:
        if not parts:
            raise PredicateError(f"{type(self).__name__} requires at least one operand")
        flattened: List[Predicate] = []
        for part in parts:
            if isinstance(part, _Connective) and type(part) is type(self):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        self.parts = tuple(flattened)

    def _fragment(self, source: _Source) -> str:
        joined = f" {self.word.lower()} ".join(part._fragment(source) for part in self.parts)
        return f"({joined})"

    def value_key(self) -> Optional[Tuple[Any, ...]]:
        keys = tuple(part.value_key() for part in self.parts)
        return None if None in keys else (type(self), *keys)

    def _referenced(self) -> Iterable[str]:
        for part in self.parts:
            yield from part._referenced()

    def __repr__(self) -> str:
        return "(" + f" {self.word} ".join(repr(p) for p in self.parts) + ")"


class And(_Connective):
    """Conjunction of predicates."""

    __slots__ = ()
    word = "AND"

    def evaluate(self, schema: RelationSchema, row: Tuple[Any, ...]) -> bool:
        return all(part.evaluate(schema, row) for part in self.parts)


class Or(_Connective):
    """Disjunction of predicates."""

    __slots__ = ()
    word = "OR"

    def evaluate(self, schema: RelationSchema, row: Tuple[Any, ...]) -> bool:
        return any(part.evaluate(schema, row) for part in self.parts)


class Not(Predicate):
    """Negation of a predicate.

    Note that negation over the ``⊥`` marker keeps "deleted tuples never
    match": a row containing ``⊥`` in a referenced attribute fails the inner
    comparison and would therefore *pass* a plain negation.  We explicitly
    exclude such rows so that ``Not`` is still a world-wise sound filter.
    """

    __slots__ = ("inner",)

    def __init__(self, inner: Predicate) -> None:
        self.inner = inner

    def evaluate(self, schema: RelationSchema, row: Tuple[Any, ...]) -> bool:
        for attr in self.inner.attributes():
            if not is_domain_value(row[schema.position(attr)]):
                return False
        return not self.inner.evaluate(schema, row)

    def _fragment(self, source: _Source) -> str:
        checks = [
            f"{cell} is not BOTTOM and {cell} is not PLACEHOLDER"
            for cell in map(source.cell, self.inner.attributes())
        ]
        checks.append(f"not {self.inner._fragment(source)}")
        return "(" + " and ".join(checks) + ")"

    def value_key(self) -> Optional[Tuple[Any, ...]]:
        inner = self.inner.value_key()
        return None if inner is None else (type(self), inner)

    def _referenced(self) -> Iterable[str]:
        return self.inner._referenced()

    def __repr__(self) -> str:
        return f"(NOT {self.inner!r})"


class TruePredicate(Predicate):
    """A predicate satisfied by every row (useful as a neutral element)."""

    def evaluate(self, schema: RelationSchema, row: Tuple[Any, ...]) -> bool:
        return True

    def _fragment(self, source: _Source) -> str:
        return "True"

    def value_key(self) -> Optional[Tuple[Any, ...]]:
        return (type(self),)

    def _referenced(self) -> Iterable[str]:
        return ()

    def __repr__(self) -> str:
        return "TRUE"


def is_index_equality(predicate: Predicate) -> bool:
    """``A = c`` with a hashable domain value ``c`` equal to itself: the
    condition a hash index answers exactly as :meth:`Predicate.evaluate` does.

    A dict probe matches a key by identity before ``==``, so a constant not
    equal to itself (``nan``) would find the rows holding that very object,
    which ``evaluate`` rejects; ``⊥`` and ``?`` are markers, not values.
    """
    if not isinstance(predicate, AttrConst):
        return False
    constant = predicate.constant
    return (
        predicate.op in ("=", "==")
        and predicate.value_key() is not None
        and is_domain_value(constant)
        and constant == constant
    )


def index_equalities(predicate: Predicate) -> Tuple[AttrConst, ...]:
    """The parts of ``predicate`` a hash-index probe can answer, in order:
    the predicate itself when it is an index equality, the index-equality
    conjuncts of an :class:`And` (flattened already), else none.  Every row
    the predicate accepts lies in the bucket of each of them."""
    parts = predicate.parts if isinstance(predicate, And) else (predicate,)
    return tuple(
        part for part in parts if isinstance(part, AttrConst) and is_index_equality(part)
    )


def eq(attribute: str, constant: Any) -> AttrConst:
    """Shorthand for ``A = c``."""
    return AttrConst(attribute, "=", constant)


def ne(attribute: str, constant: Any) -> AttrConst:
    """Shorthand for ``A ≠ c``."""
    return AttrConst(attribute, "!=", constant)


def lt(attribute: str, constant: Any) -> AttrConst:
    """Shorthand for ``A < c``."""
    return AttrConst(attribute, "<", constant)


def le(attribute: str, constant: Any) -> AttrConst:
    """Shorthand for ``A ≤ c``."""
    return AttrConst(attribute, "<=", constant)


def gt(attribute: str, constant: Any) -> AttrConst:
    """Shorthand for ``A > c``."""
    return AttrConst(attribute, ">", constant)


def ge(attribute: str, constant: Any) -> AttrConst:
    """Shorthand for ``A ≥ c``."""
    return AttrConst(attribute, ">=", constant)


def attr_eq(left: str, right: str) -> AttrAttr:
    """Shorthand for ``A = B``."""
    return AttrAttr(left, "=", right)
