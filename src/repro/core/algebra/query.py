"""Relational algebra query ASTs and their evaluation.

A :class:`Query` is a small algebra expression tree (the operators of
Section 2: σ, π, ×, ∪, −, δ, plus an equi-join convenience node).
:meth:`Query.run` plans and executes it on the two query engines:

* an ordinary :class:`~repro.relational.database.Database` (classical,
  one-world semantics) — the 0 %-density runs of Figure 30,
* a :class:`~repro.core.uwsdt.UWSDT` via the native operators of Section 5.

On a UWSDT the query processor ``Q̂`` extends the input representation with
one intermediate relation per operator (so correlations with the input are
preserved) and returns the name of the result relation.

Two reference evaluators stand beside the engine, each a direct recursion
that shares nothing with it: :func:`evaluate_on_database` (one world, the
brute-force oracle's per-world step) and :func:`evaluate_on_wsd` (the
operators of Figure 9 on a :class:`~repro.core.wsd.WSD`, the paper's
specification).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ...relational import algebra as relational_algebra
from ...relational.database import Database
from ...relational.errors import QueryError
from ...relational.predicates import Predicate, attr_eq
from ...relational.relation import Relation
from . import wsd_ops

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..exec.backends import EngineBackend
    from ..exec.physical import PhysicalPlan
    from ..planner.planner import Plan


@dataclass(frozen=True, eq=False, repr=False)
class Query:
    """Base class of relational algebra query expressions.

    A query is a value: a frozen dataclass, equal to a node of its class
    with equal fields and hashed to match; its hash and :meth:`fingerprint`
    are computed once.
    """

    def _fields(self) -> Tuple[Any, ...]:
        # ``__dataclass_fields__`` names the fields in order, as ``fields()``
        # does, without building a Field tuple per call.
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Query) or type(other) is not type(self):
            return NotImplemented
        return hash(self) == hash(other) and self._fields() == other._fields()

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((type(self), self._fields()))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, Any]:
        # ``hash()`` of a string differs between processes: recompute it there.
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}

    # -- convenient combinators -------------------------------------------- #

    def select(self, predicate: Predicate) -> "Select":
        return Select(self, predicate)

    def project(self, attributes: Sequence[str]) -> "Project":
        return Project(self, tuple(attributes))

    def product(self, other: "Query") -> "Product":
        return Product(self, other)

    def union(self, other: "Query") -> "Union":
        return _checked(Union(self, other))

    def difference(self, other: "Query") -> "Difference":
        return _checked(Difference(self, other))

    def intersection(self, other: "Query") -> "Intersection":
        return _checked(Intersection(self, other))

    def rename(self, old: str, new: str) -> "Rename":
        return Rename(self, old, new)

    def join(self, other: "Query", left_attr: str, right_attr: str) -> "Join":
        return Join(self, other, left_attr, right_attr)

    def children(self) -> Tuple["Query", ...]:
        return ()

    def with_children(self, children: Tuple["Query", ...]) -> "Query":
        """This node over new children, every other field kept (the
        planner's rewrites rebuild through it)."""
        return self

    def base_relations(self) -> List[str]:
        """Names of base relations referenced by the query."""
        names: List[str] = []
        for child in self.children():
            for name in child.base_relations():
                if name not in names:
                    names.append(name)
        return names

    # -- rendering --------------------------------------------------------- #

    def node_label(self) -> str:
        """This operator alone, in σ/π/⋈ notation (no children)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        """The compact one-line algebra expression."""
        return self.node_label()

    def to_text(self, indent: str = "") -> str:
        """Multi-line indented rendering of the query tree.

        ``__repr__`` is the compact one-line algebra expression; this is the
        two-dimensional form used by ``Plan.explain()`` and error messages,
        where deep trees are unreadable on a single line.
        """
        lines = [indent + self.node_label()]
        for child in self.children():
            lines.append(child.to_text(indent + "  "))
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """A 16-hex digest of this query's value, the plan-cache key of
        :mod:`repro.core.exec.plan_cache`: equal trees share it, whatever
        objects built them.  It digests each node's class and fields, not the
        display text, which is ambiguous (``π[A, B]`` also projects on
        ``"A, B"``).  SHA-1 rather than ``hash()``, so the value is the same
        in every process and usable in logs.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            text = "|".join(map(_stable_text, (type(self), *self._fields())))
            cached = hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # -- planned evaluation ------------------------------------------------ #

    def plan(self, engine: Optional[Any] = None, statistics: Optional[Any] = None) -> "Plan":
        """Build a :class:`~repro.core.planner.Plan` for this query.

        ``engine`` may be a Database or a UWSDT: statistics are served
        from the engine's attached
        :class:`~repro.core.planner.catalog.StatisticsCatalog`, so planning
        a repeated (or similar) query against an unchanged engine performs
        zero sampling work.  Alternatively pass prebuilt ``statistics``.
        With neither, planning runs with default statistics (schema-blind
        rewrites only).  Every call plans: the cached plan of a query is
        what :meth:`run` and :meth:`physical_plan` use by default.
        """
        from ..planner import Statistics, plan as build_plan

        if statistics is None and engine is not None:
            statistics = Statistics.from_engine(
                engine, sample_relations=tuple(self.base_relations())
            )
        return build_plan(self, statistics)

    def _lowered(
        self,
        engine: Any,
        optimize: bool,
        plan: Optional["Plan"],
        force_join: Optional[str] = None,
        backend: Any = None,
        workers: Optional[int] = None,
    ) -> "Tuple[EngineBackend, PhysicalPlan, Optional[Plan]]":
        """The backend, the physical plan and the logical plan it came from.

        By default the physical plan is the engine's plan-cache entry for
        this query and backend (:mod:`repro.core.exec.plan_cache`), planned
        and lowered on a miss.  An explicit ``plan``, ``force_join`` or
        ``optimize=False`` lowers fresh and leaves the cache alone.
        ``backend`` is ``"row"`` (None) / ``"columnar"`` / ``"sharded"`` or
        an :class:`~repro.core.exec.EngineBackend`; ``workers`` sizes the
        sharded worker pool.  The backend is resolved first, so a
        Database-only backend asked for on a UWSDT raises before anything
        is planned or cached.
        """
        from ..exec import lower, resolve_backend

        resolved = resolve_backend(engine, backend, workers=workers)
        if plan is None and optimize:
            if force_join is None:
                from ..exec.plan_cache import plan_cache_for

                entry, _hit = plan_cache_for(engine).lowered(self, resolved)
                return resolved, entry.physical, entry.plan
            plan = self.plan(engine)
        if plan is not None:
            executable, statistics, estimates = plan.chosen, plan.statistics, plan.estimates
        else:
            # Verbatim execution: no sampling; lowering prices its physical
            # choices with the engine's cost model over default statistics.
            executable, statistics, estimates = self, None, None
        physical = lower(
            executable, resolved, statistics, force_join=force_join, estimates=estimates
        )
        return resolved, physical, plan

    def physical_plan(
        self,
        engine: Any,
        optimize: bool = True,
        plan: Optional["Plan"] = None,
        force_join: Optional[str] = None,
        backend: Any = None,
        workers: Optional[int] = None,
    ) -> "PhysicalPlan":
        """The :class:`~repro.core.exec.PhysicalPlan` this query would run.

        ``physical_plan(engine).explain()`` shows the chosen physical
        operators (index scans, hash vs index-nested-loop joins) without
        executing anything.  By default it is the engine's plan-cache entry,
        the very plan a default :meth:`run` executes; an explicit ``plan``,
        ``force_join`` or ``optimize=False`` lowers a fresh one.
        ``backend`` and ``workers`` are those of :meth:`run`: a UWSDT has
        the row backend only, and asking for another raises
        :class:`~repro.relational.errors.QueryError`.
        """
        return self._lowered(engine, optimize, plan, force_join, backend, workers)[1]

    def run(
        self,
        engine: Any,
        result_name: str = "result",
        optimize: bool = True,
        plan: Optional["Plan"] = None,
        collect_metrics: bool = False,
        force_join: Optional[str] = None,
        physical: Optional["PhysicalPlan"] = None,
        backend: Any = None,
        workers: Optional[int] = None,
    ) -> Any:
        """Evaluate this query on a query engine.

        * on a :class:`~repro.relational.database.Database` — returns the
          result :class:`~repro.relational.relation.Relation`;
        * on a :class:`~repro.core.uwsdt.UWSDT` — extends the representation
          in place and returns the name of the result relation (the paper's
          ``Q̂`` convention).

        A :class:`~repro.core.wsd.WSD` is not an engine and raises
        :class:`~repro.relational.errors.QueryError`: run the query on
        ``UWSDT.from_wsd(wsd)``, or use :func:`evaluate_on_wsd`.

        By default the query is planned (selection pushdown, join fusion,
        join-order search, projection pushdown, rename elimination, with
        statistics from the engine's catalog) and lowered once per engine
        and backend: the engine's plan cache
        (:mod:`repro.core.exec.plan_cache`) serves the same physical plan to
        every later call for as long as the query's base relations are the
        same, unmutated objects.  Each of these bypasses the cache: a
        prebuilt ``plan``, a previously lowered ``physical`` plan (for the
        same engine kind; the caller answers for its freshness),
        ``force_join`` (``"hash"`` / ``"index-nested-loop"``, for
        benchmarking the join algorithms) and ``optimize=False`` (this AST,
        verbatim).

        The physical plan executes through the engine's
        :class:`~repro.core.exec.EngineBackend` — engine-specific dispatch
        lives entirely in :mod:`repro.core.exec`.  With
        ``collect_metrics=True`` the return value is an
        :class:`~repro.core.exec.ExecutionResult` bundling the result with
        per-operator runtime metrics.

        ``backend`` selects the executing backend: ``"row"`` or None (the
        engine's row-at-a-time backend — on a UWSDT the Section 5
        operators, its only executor).  A Database also runs
        ``"columnar"`` (vectorized kernels, see
        :mod:`repro.core.exec.columnar`) and ``"sharded"`` (row-partitioned
        parallel execution across a worker pool sized by ``workers``,
        default ``DEFAULT_WORKERS``, see :mod:`repro.core.exec.shard`); on
        a UWSDT either raises :class:`~repro.relational.errors.QueryError`
        before anything is planned or cached.
        """
        if physical is not None:
            from ..exec import resolve_backend

            backend = resolve_backend(engine, backend, workers=workers)
        else:
            backend, physical, _plan = self._lowered(
                engine, optimize, plan, force_join, backend, workers
            )
        value = physical.execute(backend, result_name)
        if collect_metrics:
            from ..exec import ExecutionResult

            return ExecutionResult(value, physical.metrics(), physical)
        return value

    def explain_analyze(
        self,
        engine: Any,
        result_name: str = "__explain",
        optimize: bool = True,
        backend: Any = None,
        workers: Optional[int] = None,
    ) -> str:
        """Run this query with metrics and render its EXPLAIN ANALYZE report.

        Executes the plan a default :meth:`run` would (the plan-cache entry,
        or the verbatim tree with ``optimize=False``) and returns the
        physical tree annotated per operator with estimated vs actual rows,
        q-error, per-child input rows and self vs cumulative time.  Note the
        representation-engine convention still applies: on a UWSDT the run
        *extends* the representation with ``result_name``.  For cache
        provenance, use :meth:`repro.service.Session.explain_analyze`.
        """
        resolved, physical, plan = self._lowered(engine, optimize, None, None, backend, workers)
        physical.execute(resolved, result_name)
        if plan is None:
            return physical.explain_analyze()
        header = [f"cost model: {plan.statistics.cost_model().name}"]
        if plan.join_order is not None:
            header.append(f"join order: {plan.join_order}")
        return physical.explain_analyze(header, plan.statistics.certainty)


@dataclass(frozen=True, eq=False, repr=False)
class _Unary(Query):
    """An operator over one child query."""

    child: Query

    def children(self) -> Tuple[Query, ...]:
        return (self.child,)

    def with_children(self, children: Tuple[Query, ...]) -> Query:
        return replace(self, child=children[0])

    def __repr__(self) -> str:
        return f"{self.node_label()}({self.child!r})"


@dataclass(frozen=True, eq=False, repr=False)
class _Binary(Query):
    """An operator over two child queries."""

    left: Query
    right: Query

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)

    def with_children(self, children: Tuple[Query, ...]) -> Query:
        return replace(self, left=children[0], right=children[1])

    def __repr__(self) -> str:
        return f"({self.left!r} {self.node_label()} {self.right!r})"


@dataclass(frozen=True, eq=False, repr=False)
class BaseRelation(Query):
    """A reference to a stored relation."""

    name: str

    def base_relations(self) -> List[str]:
        return [self.name]

    def node_label(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False, repr=False)
class Select(_Unary):
    """Selection σ_pred."""

    predicate: Predicate

    def node_label(self) -> str:
        return f"σ[{self.predicate!r}]"


@dataclass(frozen=True, eq=False, repr=False)
class Project(_Unary):
    """Projection π_U."""

    attributes: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))

    def node_label(self) -> str:
        return f"π[{', '.join(self.attributes)}]"


@dataclass(frozen=True, eq=False, repr=False)
class Product(_Binary):
    """Cartesian product ×."""

    def node_label(self) -> str:
        return "×"


@dataclass(frozen=True, eq=False, repr=False)
class Union(_Binary):
    """Union ∪."""

    def node_label(self) -> str:
        return "∪"


@dataclass(frozen=True, eq=False, repr=False)
class Difference(_Binary):
    """Difference −."""

    def node_label(self) -> str:
        return "−"


@dataclass(frozen=True, eq=False, repr=False)
class Intersection(_Binary):
    """Intersection ∩ (derived: ``A ∩ B = A − (A − B)``).

    The Database engine evaluates it natively; a UWSDT and the Figure 9
    specification evaluate the difference expansion, which is world-by-world
    equivalent and therefore correct on representations by Theorem 1.
    """

    def expanded(self) -> Difference:
        """The ``A − (A − B)`` form a UWSDT and a WSD evaluate."""
        return Difference(self.left, Difference(self.left, self.right))

    def node_label(self) -> str:
        return "∩"


@dataclass(frozen=True, eq=False, repr=False)
class Rename(_Unary):
    """Attribute renaming δ_{A→A'}."""

    old: str
    new: str

    def node_label(self) -> str:
        return f"δ[{self.old}→{self.new}]"


@dataclass(frozen=True, eq=False, repr=False)
class Join(_Binary):
    """Equi-join ⋈_{A=B} (a derived operator: product followed by selection)."""

    left_attr: str
    right_attr: str

    def node_label(self) -> str:
        return f"⋈[{self.left_attr}={self.right_attr}]"


def _stable_text(value: Any) -> str:
    """``value`` as text that is the same in every process: strings quoted,
    constants with their class, a predicate by its value key (or, without
    one, its class and ``repr``; the plan cache's equality check then tells
    two such predicates apart)."""
    if isinstance(value, Query):
        return value.fingerprint()
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, type):
        return f"{value.__module__}.{value.__qualname__}"
    if isinstance(value, tuple):
        return "(" + ",".join(map(_stable_text, value)) + ")"
    if isinstance(value, Predicate):
        key = value.value_key()
        return _stable_text(key if key is not None else (type(value), repr(value)))
    if type(value) is float and value == 0:
        value = 0.0  # -0.0 == 0.0: equal constants render alike
    return f"{_stable_text(type(value))}:{value!r}"


def _checked(node: "_Binary") -> Any:
    """``node`` — a ∪ / − / ∩ — once its schema derives over the empty context.

    Called from the ``union`` / ``difference`` / ``intersection`` combinators
    — deliberately *not* from the constructors, so the planner's
    ``with_children`` rebuilds never re-validate mid-rewrite.  With no base
    relation known, only what projections pin takes part; a definitely
    incompatible pair raises :class:`~repro.core.algebra.schema.AnalysisError`
    (a ``SchemaError``) with both operand schemas.
    """
    output_schema(node, SchemaContext())
    return node


# --------------------------------------------------------------------------- #
# Evaluation on an ordinary database (one world)
# --------------------------------------------------------------------------- #

# ``evaluate_on_database`` is the possible-worlds oracle's reference:
# ``baselines/naive.py`` evaluates every world through it, and every other
# path (planned or verbatim, any backend) is compared against the result.  It
# therefore stays a direct recursion over ``relational.algebra`` and shares
# neither ``lower()`` nor a backend with the code under test.


def evaluate_on_database(query: Query, database: Database, result_name: str = "result") -> Relation:
    """Classical evaluation: returns the result relation."""
    return _evaluate_db(query, database).copy(result_name)


def _evaluate_db(query: Query, database: Database) -> Relation:
    if isinstance(query, BaseRelation):
        return database.relation(query.name)
    if isinstance(query, Select):
        return relational_algebra.select(_evaluate_db(query.child, database), query.predicate)
    if isinstance(query, Project):
        return relational_algebra.project(_evaluate_db(query.child, database), query.attributes)
    if isinstance(query, Product):
        return relational_algebra.product(
            _evaluate_db(query.left, database), _evaluate_db(query.right, database)
        )
    if isinstance(query, Union):
        return relational_algebra.union(
            _evaluate_db(query.left, database), _evaluate_db(query.right, database)
        )
    if isinstance(query, Difference):
        return relational_algebra.difference(
            _evaluate_db(query.left, database), _evaluate_db(query.right, database)
        )
    if isinstance(query, Intersection):
        return relational_algebra.intersection(
            _evaluate_db(query.left, database), _evaluate_db(query.right, database)
        )
    if isinstance(query, Rename):
        return relational_algebra.rename(
            _evaluate_db(query.child, database), query.old, query.new
        )
    if isinstance(query, Join):
        return relational_algebra.equi_join(
            _evaluate_db(query.left, database),
            _evaluate_db(query.right, database),
            query.left_attr,
            query.right_attr,
        )
    raise QueryError(f"unknown query node {query!r}")


# --------------------------------------------------------------------------- #
# Evaluation on WSDs (Figure 9): the specification the UWSDT engine meets
# --------------------------------------------------------------------------- #

# A WSD is the paper's *definition* of query semantics on decompositions
# (Sections 3–4), not a query engine: the planner, the executor, the
# statistics catalog and the service serve Database and UWSDT only.
# ``evaluate_on_wsd`` is therefore, like ``evaluate_on_database``, a direct
# recursion over its operator module that shares nothing with the code the
# oracle checks.  To run a query on a WSD through the engine, convert it:
# ``UWSDT.from_wsd(wsd)``, ``query.run(...)``, ``.to_wsd()``.


def evaluate_on_wsd(query: Query, wsd: Any, result_name: str = "result") -> str:
    """Evaluate ``query`` on a WSD in place with the operators of Figure 9.

    The WSD is extended with one relation per operator (the paper's ``Q̂``)
    and the last one is named ``result_name``, which is returned.  A join is
    the derived ``σ_{A=B}(R × S)`` of Section 2, an intersection
    ``A − (A − B)``.
    """
    names = (
        name
        for name in (f"__q{index}" for index in itertools.count(1))
        if not wsd.schema.has_relation(name)
    )
    return _evaluate_wsd(query, wsd, result_name, names)


def _evaluate_wsd(query: Query, wsd: Any, target: Optional[str], names: Iterator[str]) -> str:
    """Write ``query``'s answer into ``target`` (a fresh name when None)."""
    if isinstance(query, BaseRelation):
        if target is None or target == query.name:
            return query.name
        wsd_ops.copy_relation(wsd, query.name, target)
        return target
    if isinstance(query, Join):
        product = Product(query.left, query.right)
        return _evaluate_wsd(
            Select(product, attr_eq(query.left_attr, query.right_attr)), wsd, target, names
        )
    if isinstance(query, Intersection):
        return _evaluate_wsd(query.expanded(), wsd, target, names)
    if isinstance(query, (Select, Project, Rename)):
        child = _evaluate_wsd(query.child, wsd, None, names)
        result = target if target is not None else next(names)
        if isinstance(query, Select):
            wsd_ops.select(wsd, child, result, query.predicate)
        elif isinstance(query, Project):
            wsd_ops.project(wsd, child, result, query.attributes)
        else:
            wsd_ops.rename(wsd, child, result, query.old, query.new)
        return result
    if isinstance(query, (Product, Union, Difference)):
        left = _evaluate_wsd(query.left, wsd, None, names)
        right = _evaluate_wsd(query.right, wsd, None, names)
        if isinstance(query, Union) and right == left:
            # Union tuple ids derive from the operand names: alias one side.
            alias = next(names)
            wsd_ops.copy_relation(wsd, right, alias)
            right = alias
        result = target if target is not None else next(names)
        if isinstance(query, Product):
            wsd_ops.product(wsd, left, right, result)
        elif isinstance(query, Union):
            wsd_ops.union(wsd, left, right, result)
        else:
            wsd_ops.difference(wsd, left, right, result)
        return result
    raise QueryError(f"unknown query node {query!r}")


def evaluate_on_uwsdt(query: Query, engine: Any, result_name: str = "result") -> str:
    """Evaluate ``query`` on a UWSDT in place; return the result relation's name.

    The representation is extended with one relation per operator of the
    query; the final operator's output is named ``result_name``.  A spelling
    of ``query.run(engine, result_name, optimize=False)`` on the row backend.
    """
    return query.run(engine, result_name, optimize=False, backend="row")


# The schema derivation reads the node classes above; the set-operation
# combinators read it.
from .schema import SchemaContext, output_schema  # noqa: E402
