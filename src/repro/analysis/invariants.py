"""The plan-invariant verifier: rewrites, lowered plans and operator outputs, checked.

Three families of invariants, all enabled by ``REPRO_VERIFY_PLANS=1`` (the
tier-1 suite and the possible-worlds oracle turn the flag on globally, so
every rewrite-rule application, every lowering and every executed operator
in every test is checked):

* **Rewrites are schema-preserving.**  After every successful rule firing
  the planner compares the output attribute list of the tree before and
  after the rewrite (via :func:`~repro.core.algebra.schema.output_schema`,
  over the rewriter's own context).  A rule that changes the output schema
  — or builds a tree that does not derive — is a planner bug, reported
  with the rule name, both trees and both schemas.

* **Physical plans are well-formed.**  After lowering, the physical tree
  is checked for: attribute resolution through every operator (the same
  checks as the logical analyzer), hash-join/INLJ key compatibility,
  ``IndexScan`` only where the backend can probe an index (hashable
  equality predicate over a stored relation), ``Materialize`` /
  ``Dematerialize`` properly paired (batch regions open with Materialize,
  close with Dematerialize, contain only vectorized-kernel operators, and
  sit over provably-certain subtrees), and the plan's engine kind matching
  the backend that will execute it.  The plan cache re-checks kind
  consistency when serving entries.

* **Operator outputs are sets.**  The row operators build their results
  with ``Relation.from_tuples(..., distinct=True)`` — a proof by the
  operator that its output has no duplicates, which nothing re-checks at
  run time.  With verification on, ``PhysicalPlan.execute`` checks every
  operator's output as it is produced: a Database handle has as many
  distinct rows as rows, a UWSDT handle's template has distinct tuple ids
  (which is also how a batch leaving ``Dematerialize`` is checked to have
  become a set).  A violation names the operator.

Violations raise :class:`PlanInvariantError`.  Verification is off by
default in library use: the runtime reaches this module only through
:func:`repro.core.verify.verifier`, which does not import it while the flag
is off.  Tests and the CI suite run with it on.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Tuple

from ..relational.errors import QueryError
from ..relational.predicates import is_index_equality
from ..relational.relation import Relation
from ..core.algebra.query import BaseRelation
from ..core.algebra.schema import AnalysisError, SchemaContext, output_schema
from ..core.uwsdt import UWSDT
# The switch lives beside the runtime's one hook into this module; re-exported.
from ..core.verify import VERIFY_ENV, set_verification, verification_enabled  # noqa: F401
from ..core.exec.physical import (
    Dematerialize,
    Difference,
    Exchange,
    Filter,
    Gather,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    Intersection,
    Materialize,
    PhysicalOperator,
    PhysicalPlan,
    Product,
    Project,
    Rename,
    Scan,
    Union,
)

#: Operators allowed inside a columnar batch region (must mirror
#: ``repro.core.exec.columnar.COLUMNAR_KERNEL_OPS``).
KERNEL_OPS = frozenset(
    {"Filter", "Project", "Rename", "HashJoin", "Union", "Difference", "Intersection"}
)

#: Operators allowed inside an ``Exchange`` shard subtree (must mirror
#: ``repro.core.exec.shard.SHARDABLE_OPS``): per-tuple operators only —
#: anything that merges components across distinct base tuples must run
#: above the Gather, on the merged engine.
SHARDABLE_OPS = frozenset({"Scan", "IndexScan", "Filter", "Project", "Rename"})

_REWRITES_VERIFIED = 0
_PLANS_VERIFIED = 0


class PlanInvariantError(QueryError):
    """A rewrite or a lowered plan violated a planner invariant."""


def rewrites_verified() -> int:
    """Rewrite applications checked so far in this process (test probe)."""
    return _REWRITES_VERIFIED


def plans_verified() -> int:
    """Physical plans checked so far in this process (test probe)."""
    return _PLANS_VERIFIED


# --------------------------------------------------------------------------- #
# Rewrite verification
# --------------------------------------------------------------------------- #


def verify_rewrite(
    rule_name: str,
    phase: str,
    before: Any,
    after: Any,
    schema_context: Optional[SchemaContext] = None,
) -> None:
    """Assert one rule firing preserved the subtree's output schema.

    Comparison is on the *ordered* attribute list — a rule that permutes
    columns changes query results and is just as wrong as one that drops
    them.  Either side inferring to None (unknown base schema) skips the
    check: absence of information is not a violation.
    """
    global _REWRITES_VERIFIED
    _REWRITES_VERIFIED += 1
    context = schema_context or SchemaContext()
    before_schema = output_schema(before, context)
    try:
        after_schema = output_schema(after, context)
    except AnalysisError as error:
        raise PlanInvariantError(
            f"rewrite rule {rule_name!r} (phase {phase!r}) produced an ill-formed tree:\n{error}"
        ) from error
    if before_schema is None or after_schema is None:
        return
    if before_schema.attributes != after_schema.attributes:
        raise PlanInvariantError(
            f"rewrite rule {rule_name!r} (phase {phase!r}) is not "
            f"schema-preserving:\n"
            f"  before {before_schema.attributes!r}:\n{before.to_text('    ')}\n"
            f"  after  {after_schema.attributes!r}:\n{after.to_text('    ')}"
        )


# --------------------------------------------------------------------------- #
# Physical plan verification
# --------------------------------------------------------------------------- #


def _fail(plan: PhysicalPlan, node: PhysicalOperator, reason: str) -> None:
    raise PlanInvariantError(
        f"malformed physical plan: {reason}\n"
        f"  at operator: {node.label()}\n{plan.explain()}"
    )


def verify_physical(
    plan: PhysicalPlan,
    backend: Any = None,
    schema_context: Optional[SchemaContext] = None,
    certain_base: Optional[Callable[[str], bool]] = None,
) -> None:
    """Check a lowered plan's structural well-formedness.

    ``backend`` (optional) contributes capability checks — engine-kind
    match, index support; ``schema_context`` contributes attribute
    resolution; ``certain_base`` (optional, the columnar backend's probe)
    lets the verifier confirm Materialize only sits over certain subtrees.
    Any information not supplied simply disables the checks that need it.
    """
    global _PLANS_VERIFIED
    _PLANS_VERIFIED += 1
    context = schema_context or SchemaContext()

    def base_attributes(name: str) -> Optional[Tuple[str, ...]]:
        schema = output_schema(BaseRelation(name), context)
        return None if schema is None else schema.attributes

    if backend is not None and backend.kind != plan.engine:
        raise PlanInvariantError(
            f"plan lowered for engine kind {plan.engine!r} paired with a "
            f"{backend.kind!r} backend"
        )
    columnar_plan = plan.engine == "columnar"
    sharded_plan = plan.engine == "sharded"

    def visit(node: PhysicalOperator) -> Tuple[Optional[Tuple[str, ...]], str]:
        """Returns ``(attributes or None, handle kind)`` for the subtree;
        ``kind`` is ``"row"`` or ``"batch"``."""
        if isinstance(node, (Materialize, Dematerialize)) and not columnar_plan:
            _fail(
                plan,
                node,
                f"{node.op_name} in a {plan.engine!r} plan — boundaries belong "
                "to columnar plans only",
            )
        if isinstance(node, (Exchange, Gather)) and not sharded_plan:
            _fail(
                plan,
                node,
                f"{node.op_name} in a {plan.engine!r} plan — shard boundaries "
                "belong to sharded plans only",
            )
        if isinstance(node, Gather):
            exchange = node.children[0]
            if not isinstance(exchange, Exchange):
                _fail(plan, node, "Gather must sit directly over an Exchange")
            for inner in exchange.children[0].walk():
                if inner.op_name not in SHARDABLE_OPS:
                    _fail(
                        plan,
                        node,
                        f"{inner.op_name} inside an Exchange subtree — only "
                        "per-tuple (component-confined) operators may shard",
                    )
            attrs, kind = visit(exchange.children[0])
            if kind != "row":
                _fail(plan, node, "Exchange subtree must produce a row handle")
            return attrs, "row"
        if isinstance(node, Exchange):
            _fail(plan, node, "Exchange without an enclosing Gather")
        if isinstance(node, Scan):
            return base_attributes(node.relation), "row"
        if isinstance(node, IndexScan):
            if backend is not None and not backend.supports_index_scan:
                _fail(plan, node, "IndexScan on a backend without index support")
            if not is_index_equality(node.predicate):
                _fail(
                    plan,
                    node,
                    f"IndexScan predicate {node.predicate!r} is not a hashable "
                    "equality — no index can serve it",
                )
            attrs = base_attributes(node.relation)
            if attrs is not None:
                for attribute in node.predicate.attributes():
                    if attribute not in attrs:
                        _fail(
                            plan,
                            node,
                            f"IndexScan predicate references {attribute!r}, not an "
                            f"attribute of {node.relation!r} {tuple(attrs)!r}",
                        )
            return attrs, "row"
        if isinstance(node, IndexNestedLoopJoin):
            if not isinstance(node.inner, Scan):
                _fail(
                    plan,
                    node,
                    "IndexNestedLoopJoin inner input must be a base-relation Scan",
                )
            if backend is not None and not backend.supports_index_join:
                _fail(
                    plan, node, "IndexNestedLoopJoin on a backend without index joins"
                )
            outer_attrs, outer_kind = visit(node.outer)
            if outer_kind != "row":
                _fail(plan, node, "IndexNestedLoopJoin outer input must be a row handle")
            inner_attrs = base_attributes(node.inner.relation)
            if outer_attrs is not None and node.left_attr not in outer_attrs:
                _fail(
                    plan,
                    node,
                    f"join key {node.left_attr!r} not produced by the outer input "
                    f"{tuple(outer_attrs)!r}",
                )
            if inner_attrs is not None and node.right_attr not in inner_attrs:
                _fail(
                    plan,
                    node,
                    f"join key {node.right_attr!r} not an attribute of "
                    f"{node.inner.relation!r} {tuple(inner_attrs)!r}",
                )
            if outer_attrs is None or inner_attrs is None:
                return None, "row"
            return outer_attrs + inner_attrs, "row"
        if isinstance(node, Materialize):
            child_attrs, child_kind = visit(node.children[0])
            if child_kind != "row":
                _fail(plan, node, "Materialize over a batch handle (double boundary)")
            if certain_base is not None and node.base_relation_names:
                for name in node.base_relation_names:
                    if not certain_base(name):
                        _fail(
                            plan,
                            node,
                            f"Materialize over subtree reading uncertain relation "
                            f"{name!r} — kernels only run over certain subtrees",
                        )
            return child_attrs, "batch"
        if isinstance(node, Dematerialize):
            child_attrs, child_kind = visit(node.children[0])
            if child_kind != "batch":
                _fail(plan, node, "Dematerialize over a row handle (unpaired boundary)")
            return child_attrs, "row"

        results = [visit(child) for child in node.children]
        kinds = {kind for _, kind in results}
        if len(kinds) > 1:
            _fail(plan, node, f"{node.op_name} mixes batch and row inputs")
        kind = kinds.pop() if kinds else "row"
        if kind == "batch" and node.op_name not in KERNEL_OPS:
            _fail(
                plan,
                node,
                f"{node.op_name} consumes a batch but has no vectorized kernel",
            )

        if isinstance(node, Filter):
            attrs = results[0][0]
            if attrs is not None:
                for attribute in node.predicate.attributes():
                    if attribute not in attrs:
                        _fail(
                            plan,
                            node,
                            f"filter predicate references {attribute!r}, not in the "
                            f"input schema {tuple(attrs)!r}",
                        )
            return attrs, kind
        if isinstance(node, Project):
            attrs = results[0][0]
            if attrs is not None:
                for attribute in node.attributes:
                    if attribute not in attrs:
                        _fail(
                            plan,
                            node,
                            f"projection references {attribute!r}, not in the input "
                            f"schema {tuple(attrs)!r}",
                        )
            return tuple(node.attributes), kind
        if isinstance(node, Rename):
            attrs = results[0][0]
            if attrs is None:
                return None, kind
            if node.old not in attrs:
                _fail(
                    plan,
                    node,
                    f"rename of {node.old!r}, not in the input schema {tuple(attrs)!r}",
                )
            if node.new != node.old and node.new in attrs:
                _fail(
                    plan,
                    node,
                    f"rename {node.old!r}→{node.new!r} collides with an existing "
                    f"attribute in {tuple(attrs)!r}",
                )
            return tuple(node.new if a == node.old else a for a in attrs), kind
        if isinstance(node, HashJoin):
            left_attrs, right_attrs = results[0][0], results[1][0]
            if left_attrs is not None and node.left_attr not in left_attrs:
                _fail(
                    plan,
                    node,
                    f"join key {node.left_attr!r} not produced by the left input "
                    f"{tuple(left_attrs)!r}",
                )
            if right_attrs is not None and node.right_attr not in right_attrs:
                _fail(
                    plan,
                    node,
                    f"join key {node.right_attr!r} not produced by the right input "
                    f"{tuple(right_attrs)!r}",
                )
            if left_attrs is None or right_attrs is None:
                return None, kind
            return left_attrs + right_attrs, kind
        if isinstance(node, Product):
            left_attrs, right_attrs = results[0][0], results[1][0]
            if left_attrs is not None and right_attrs is not None:
                overlap = set(left_attrs) & set(right_attrs)
                if overlap:
                    _fail(
                        plan,
                        node,
                        f"product sides share attributes {sorted(overlap)!r}",
                    )
                return left_attrs + right_attrs, kind
            return None, kind
        if isinstance(node, (Union, Difference, Intersection)):
            left_attrs, right_attrs = results[0][0], results[1][0]
            if left_attrs is not None and right_attrs is not None:
                if tuple(left_attrs) != tuple(right_attrs):
                    _fail(
                        plan,
                        node,
                        f"{node.op_name} inputs are not union-compatible: "
                        f"{tuple(left_attrs)!r} vs {tuple(right_attrs)!r}",
                    )
            return (
                left_attrs if left_attrs is not None else right_attrs,
                kind,
            )
        # Unknown / future operator kinds: nothing to check structurally.
        return None, kind

    try:
        _, root_kind = visit(plan.root)
    finally:
        # A recursive closure is a reference cycle, and this one holds the
        # backend and its engine: break it so the engine dies by reference
        # count, not at the collector's next pass.
        del visit
    if root_kind != "row":
        raise PlanInvariantError(
            "physical plan root produces a batch handle — the final "
            f"Dematerialize boundary is missing\n{plan.explain()}"
        )


# --------------------------------------------------------------------------- #
# Operator outputs are sets
# --------------------------------------------------------------------------- #


def verify_set_output(label: str, backend: Any, handle: Any) -> None:
    """Assert the handle an operator just produced denotes a set.

    ``handle`` is a :class:`Relation` on a Database backend, a relation name
    on a UWSDT backend (checked on its template's tuple ids).  Batches inside
    a columnar region pass: they are checked when ``Dematerialize`` turns
    them into one of the above.
    """
    if isinstance(handle, Relation):
        total, distinct, what = len(handle), len(handle.row_set()), "rows"
    elif isinstance(handle, str) and isinstance(backend.engine, UWSDT):
        template = backend.engine.templates[handle]
        total, distinct, what = len(template), len({row[0] for row in template}), "tuple ids"
    else:
        return
    if distinct != total:
        raise PlanInvariantError(
            f"operator {label} produced a bag, not a set: {total - distinct} "
            f"duplicate {what} among its {total} output rows"
        )


# --------------------------------------------------------------------------- #
# Plan-cache backend-kind consistency
# --------------------------------------------------------------------------- #


def verify_cached_backend(
    entry_backend: str, physical_engine: str, valid_kinds: Sequence[str]
) -> None:
    """Assert a plan-cache entry's recorded backend kind is coherent.

    The entry's ``backend`` must equal the engine kind its physical plan was
    lowered for, and that kind must be one the owning engine can execute
    (its row backend kind, or ``columnar``).
    """
    if entry_backend != physical_engine:
        raise PlanInvariantError(
            f"plan-cache entry records backend {entry_backend!r} but its "
            f"physical plan was lowered for {physical_engine!r}"
        )
    if entry_backend not in valid_kinds:
        raise PlanInvariantError(
            f"plan-cache entry backend {entry_backend!r} is not executable "
            f"by this engine (valid kinds: {tuple(valid_kinds)!r})"
        )
