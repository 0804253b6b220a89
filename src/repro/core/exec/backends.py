"""Engine backends: one executor per query engine.

The physical layer talks to engines exclusively through the
:class:`EngineBackend` interface, and this module is the executor's only
caller of the operator modules (lint rule ``operator-dispatch``).  Each
backend wraps one (:mod:`~repro.relational.algebra` for classical
relations, :mod:`~repro.core.algebra.uwsdt_ops` for UWSDTs) behind a
uniform handle-passing protocol:

* on a :class:`~repro.relational.database.Database` a handle is a
  :class:`~repro.relational.relation.Relation` (operators are pure
  functions);
* on a :class:`~repro.core.uwsdt.UWSDT` a handle is a relation *name* —
  the operators extend the representation in place, one intermediate
  relation per operator, preserving correlations with the input (the
  paper's ``Q̂`` convention).

A :class:`~repro.core.wsd.WSD` has no backend: it is the specification the
UWSDT operators are checked against (:func:`unsupported_engine`).

Capability flags (``supports_index_scan``, ``supports_index_join``,
``native_intersection``) tell the lowering pass which physical operators
this backend can execute.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ...relational import algebra as relational_algebra
from ...relational.database import Database
from ...relational.errors import QueryError
from ...relational.indexes import hash_index
from ...relational.predicates import Predicate
from ...relational.relation import Relation
from ..algebra import uwsdt_ops
from ..uwsdt import UWSDT


class EngineBackend:
    """The operator interface the physical executor drives.

    Handles are opaque to the executor; only the backend interprets them.
    ``result_name`` is non-None exactly for the plan's root operator.
    """

    kind = "abstract"
    supports_index_scan = False
    supports_index_join = False
    native_intersection = False

    def __init__(self, engine: Any) -> None:
        self.engine = engine

    # -- lifecycle --------------------------------------------------------- #

    def begin(self, result_name: str) -> None:
        """Reset per-execution state (intermediate-name generators etc.)."""

    def finish(self, handle, result_name: str):
        """Turn the root handle into the value ``Query.run`` returns."""
        return handle

    # -- introspection ----------------------------------------------------- #

    def row_count(self, handle) -> int:
        raise NotImplementedError

    def arity(self, handle) -> int:
        raise NotImplementedError

    def base_rows(self, relation_name: str) -> int:
        """Cardinality of a stored relation (for scan/index-join metrics)."""
        raise NotImplementedError

    def base_arity(self, relation_name: str) -> int:
        raise NotImplementedError


class DatabaseBackend(EngineBackend):
    """Classical one-world evaluation over pure relational operators."""

    kind = "database"
    supports_index_scan = True
    supports_index_join = True
    native_intersection = True

    def finish(self, handle: Relation, result_name: str) -> Relation:
        return handle.copy(result_name)

    # -- operators --------------------------------------------------------- #

    def scan(self, name: str, result_name: Optional[str]) -> Relation:
        return self.engine.relation(name)

    def index_scan(
        self, name: str, predicate: Predicate, key: Predicate, result_name: Optional[str]
    ) -> Relation:
        """σ_predicate over the bucket of ``key``, an index-equality conjunct
        of ``predicate`` (a bare equality is its own key)."""
        relation = self.engine.relation(name)
        index = hash_index(relation, key.attributes())
        return relational_algebra.select(relation, predicate, index=index)

    def filter(self, child: Relation, predicate: Predicate, result_name: Optional[str]) -> Relation:
        return relational_algebra.select(child, predicate)

    def project(self, child: Relation, attributes: Sequence[str], result_name) -> Relation:
        return relational_algebra.project(child, attributes)

    def rename(self, child: Relation, old: str, new: str, result_name) -> Relation:
        return relational_algebra.rename(child, old, new)

    def product(self, left: Relation, right: Relation, result_name) -> Relation:
        return relational_algebra.product(left, right)

    def union(self, left: Relation, right: Relation, result_name) -> Relation:
        return relational_algebra.union(left, right)

    def difference(self, left: Relation, right: Relation, result_name) -> Relation:
        return relational_algebra.difference(left, right)

    def intersection(self, left: Relation, right: Relation, result_name) -> Relation:
        return relational_algebra.intersection(left, right)

    def hash_join(
        self, left: Relation, right: Relation, left_attr: str, right_attr: str, result_name
    ) -> Relation:
        return relational_algebra.equi_join(left, right, left_attr, right_attr)

    def index_join(
        self, outer: Relation, inner_name: str, outer_attr: str, inner_attr: str, result_name
    ) -> Relation:
        """Probe the index kept on the stored inner relation."""
        inner = self.engine.relation(inner_name)
        index = hash_index(inner, (inner_attr,))
        return relational_algebra.equi_join(outer, inner, outer_attr, inner_attr, index=index)

    # -- introspection ----------------------------------------------------- #

    def row_count(self, handle: Relation) -> int:
        return len(handle)

    def arity(self, handle: Relation) -> int:
        return handle.schema.arity

    def base_rows(self, relation_name: str) -> int:
        return len(self.engine.relation(relation_name))

    def base_arity(self, relation_name: str) -> int:
        return self.engine.relation(relation_name).schema.arity


class UWSDTBackend(EngineBackend):
    """The native Section 5 operators over template relations.

    The operators extend the UWSDT in place: a handle is a relation name,
    and each operator writes one new relation (the paper's ``Q̂``).
    """

    kind = "uwsdt"
    supports_index_scan = True
    supports_index_join = True

    def target(self, result_name: Optional[str]) -> str:
        return result_name if result_name is not None else self.engine.intermediate_name()

    def copy(self, name: str, target: str) -> None:
        # uwsdt_ops has no copy operator: an identity rename is one.
        attribute = self.engine.schema.relation(name).attributes[0]
        uwsdt_ops.rename(self.engine, name, target, attribute, attribute)

    def scan(self, name: str, result_name: Optional[str]) -> str:
        if result_name is not None and result_name != name:
            self.copy(name, result_name)
            return result_name
        return name

    def index_scan(self, name: str, predicate: Predicate, key: Predicate, result_name) -> str:
        target = self.target(result_name)
        uwsdt_ops.select(self.engine, name, target, predicate, key=key)
        return target

    def filter(self, child: str, predicate: Predicate, result_name) -> str:
        target = self.target(result_name)
        uwsdt_ops.select(self.engine, child, target, predicate)
        return target

    def project(self, child: str, attributes: Sequence[str], result_name) -> str:
        target = self.target(result_name)
        uwsdt_ops.project(self.engine, child, target, attributes)
        return target

    def rename(self, child: str, old: str, new: str, result_name) -> str:
        target = self.target(result_name)
        uwsdt_ops.rename(self.engine, child, target, old, new)
        return target

    def product(self, left: str, right: str, result_name) -> str:
        target = self.target(result_name)
        uwsdt_ops.product(self.engine, left, right, target)
        return target

    def union(self, left: str, right: str, result_name) -> str:
        if right == left:
            # Union of a relation with itself: tuple ids are derived from
            # the operand names, so alias one side to keep them distinct.
            alias = self.engine.intermediate_name()
            self.copy(right, alias)
            right = alias
        target = self.target(result_name)
        uwsdt_ops.union(self.engine, left, right, target)
        return target

    def difference(self, left: str, right: str, result_name) -> str:
        target = self.target(result_name)
        uwsdt_ops.difference(self.engine, left, right, target)
        return target

    def hash_join(self, left: str, right: str, left_attr: str, right_attr: str, result_name) -> str:
        target = self.target(result_name)
        uwsdt_ops.equi_join(self.engine, left, right, left_attr, right_attr, target)
        return target

    def index_join(self, outer: str, inner_name: str, outer_attr: str, inner_attr: str, result_name) -> str:
        target = self.target(result_name)
        uwsdt_ops.equi_join(
            self.engine,
            outer,
            inner_name,
            outer_attr,
            inner_attr,
            target,
            use_template_index=True,
        )
        return target

    def row_count(self, handle: str) -> int:
        return self.engine.template_size(handle)

    def arity(self, handle: str) -> int:
        return self.engine.schema.relation(handle).arity

    def base_rows(self, relation_name: str) -> int:
        return self.row_count(relation_name)

    def base_arity(self, relation_name: str) -> int:
        return self.engine.schema.relation(relation_name).arity


def unsupported_engine(engine: Any) -> QueryError:
    """The error for planning or running a query on anything but the two
    engines.  A :class:`~repro.core.wsd.WSD` is the paper's specification
    of query semantics (Sections 3–4), not an engine: it runs a query as a
    UWSDT, or through the Figure 9 operators of ``evaluate_on_wsd``."""
    return QueryError(
        f"cannot plan or run a query on {type(engine).__name__}; expected Database or "
        "UWSDT (a WSD runs one as UWSDT.from_wsd(wsd), or through evaluate_on_wsd)"
    )


def backend_for(engine: Any) -> EngineBackend:
    """The backend matching an engine object.

    This is the single place that maps engine types to executors —
    ``Query.run`` and the planner are engine-type agnostic.
    """
    if isinstance(engine, Database):
        return DatabaseBackend(engine)
    if isinstance(engine, UWSDT):
        return UWSDTBackend(engine)
    raise unsupported_engine(engine)


#: The execution backends that run on a Database only.  A UWSDT query runs
#: on its row backend, the Section 5 operators.
DATABASE_ONLY_BACKENDS = ("columnar", "sharded")


def database_only(engine: Any, kind: str) -> DatabaseBackend:
    """The row backend a Database-only backend of ``kind`` wraps.

    A WSD (or any other non-engine) raises :func:`unsupported_engine`'s
    error; a UWSDT raises that ``kind`` runs on a Database only.
    """
    inner = backend_for(engine)
    if not isinstance(inner, DatabaseBackend):
        raise QueryError(
            f"backend {kind!r} runs on a Database only (the Database-only backends are "
            f"{', '.join(DATABASE_ONLY_BACKENDS)}); run a {type(engine).__name__} "
            "on the row backend"
        )
    return inner
