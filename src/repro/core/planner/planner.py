"""The logical planner: drives the rewrite rules and wraps the result in a Plan.

``plan(query, statistics)`` runs the phased rule pipeline of
:mod:`~repro.core.planner.rules` to a fixpoint and costs the rewritten tree
with the model of :mod:`~repro.core.planner.cost`; the rewritten tree is the
plan.  The returned :class:`Plan` records every rule application so
``plan.explain()`` can show *why* the chosen tree looks the way it does —
including the join order picked by the enumerator and how the
sampled-selectivity estimates compare with the fixed-constant ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..algebra.query import (
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
from ..algebra.schema import analyze_for_statistics
from ..verify import verifier
from .cost import CostEstimate, NodeEstimate, Statistics, estimate, estimate_forest
from .rules import DEFAULT_PHASES, RewriteContext, RewriteRule

#: Safety bound on fixpoint iterations per phase (a phase that needs more is
#: almost certainly oscillating; the bound turns that into a stable result).
MAX_PASSES_PER_PHASE = 25

#: Monotonic count of :func:`plan` invocations — the companion probe to
#: :func:`~repro.core.planner.sampling.sampling_call_count`, letting tests
#: assert that a plan-cache hit skipped the rewrite/DP pipeline entirely.
_PLAN_CALLS = 0


def plan_call_count() -> int:
    """Number of full planning passes performed so far in this process."""
    return _PLAN_CALLS


@dataclass(frozen=True)
class RuleApplication:
    """One successful rule firing, recorded for ``plan.explain()``."""

    phase: str
    rule: str
    before: str
    after: str


def describe_join_order(query: Query) -> Optional[str]:
    """The join/product skeleton of a tree, e.g. ``((R ⋈ S) ⋈ T)``.

    Unary operators are skipped (a filtered, renamed copy of ``R`` still
    reads ``R``); returns None when the tree contains no join or product.
    """
    has_binary = [False]

    def label(node: Query) -> str:
        if isinstance(node, BaseRelation):
            return node.name
        if isinstance(node, (Select, Project)):
            return label(node.child)
        if isinstance(node, Rename):
            inner = label(node.child)
            if "(" in inner:
                # Renaming above a composite subtree does not change its
                # join skeleton; appending here would mangle the rendering.
                return inner
            # Distinguish renamed copies of the same base: ``R→C1``.
            return f"{inner.split('→')[0]}→{node.new}"
        if isinstance(node, Join):
            has_binary[0] = True
            return f"({label(node.left)} ⋈ {label(node.right)})"
        if isinstance(node, Product):
            has_binary[0] = True
            return f"({label(node.left)} × {label(node.right)})"
        if isinstance(node, Union):
            return f"({label(node.left)} ∪ {label(node.right)})"
        if isinstance(node, Difference):
            return f"({label(node.left)} − {label(node.right)})"
        if isinstance(node, Intersection):
            return f"({label(node.left)} ∩ {label(node.right)})"
        raise TypeError(f"cannot describe {node!r}")

    rendered = label(query)
    return rendered if has_binary[0] else None


@dataclass
class Plan:
    """A query plan: the written tree, the rewritten one, and why they differ.

    ``chosen`` is the tree :meth:`~repro.core.algebra.query.Query.run`
    evaluates — the rewritten tree, which is the original object when no
    rule applied.  ``cost_before``/``cost_after`` use sampled selectivities
    when the statistics carry samples; ``explain()`` re-estimates both trees
    with the fixed constants for comparison.
    """

    original: Query
    optimized: Query
    applications: List[RuleApplication]
    statistics: Statistics
    cost_after: CostEstimate
    #: The estimate of every node of ``optimized``, keyed by node.  Lowering
    #: reads its cardinalities and join inputs from here instead of
    #: estimating ``chosen`` a second time.
    estimates: Dict[Query, NodeEstimate] = field(default_factory=dict, repr=False, compare=False)

    @property
    def chosen(self) -> Query:
        return self.optimized

    @property
    def cost_before(self) -> CostEstimate:
        """Estimate of the tree as written — computed when asked, nothing in
        planning reads it."""
        return estimate(self.original, self.statistics)

    @property
    def join_order(self) -> Optional[str]:
        """The join/product skeleton of the chosen tree (None if join-free)."""
        return describe_join_order(self.chosen)

    #: Human-readable provenance labels for ``explain()``.
    _PROVENANCE_LABELS = {
        "cached-sample": "cached sample",
        "fresh-sample": "fresh sample",
        "fixed-constants": "fixed-constant fallback (no sample)",
    }

    def statistics_report(self) -> List[str]:
        """One line per base relation: where its cost inputs came from.

        Each estimate is derived either from a *cached* catalog sample, a
        sample drawn *fresh* for this plan, or — when no sample exists —
        the fixed selectivity constants.  ``explain()`` includes the report
        so mixed provenances are visible instead of silent.
        """
        lines: List[str] = []
        for name in self.original.base_relations():
            provenance = self.statistics.provenance(name)
            label = self._PROVENANCE_LABELS.get(provenance, provenance)
            sample = self.statistics.sample(name)
            if sample is not None:
                label += f" ({len(sample)} of {self.statistics.row_count(name):,} rows)"
            lines.append(f"  {name}: {label}")
        return lines

    def explain(self) -> str:
        """Human-readable account of the planning decision."""
        before = self.cost_before
        lines = [
            "query plan",
            "==========",
            f"original : {self.original!r}",
            f"rewritten: {self.optimized!r}",
            f"cost     : {before.cost:,.0f} -> {self.cost_after.cost:,.0f}"
            f" (estimated rows {before.rows:,.0f} -> {self.cost_after.rows:,.0f})",
        ]
        if self.statistics.samples:
            fixed = self.statistics.without_samples()
            lines.append(
                f"           fixed-constant estimate "
                f"{estimate(self.original, fixed).cost:,.0f} -> "
                f"{estimate(self.optimized, fixed).cost:,.0f}"
            )
        lines.append(f"cost model: {self.statistics.cost_model().name}")
        statistics_lines = self.statistics_report()
        if statistics_lines:
            lines.append("statistics:")
            lines.extend(statistics_lines)
        order = self.join_order
        if order is not None:
            lines.append(f"join order: {order}")
        lines.append("chosen tree:")
        lines.append(self._render_chosen_tree())
        if self.applications:
            lines.append("rewrites :")
            for application in self.applications:
                lines.append(f"  [{application.phase}] {application.rule}")
                lines.append(f"      {application.before}")
                lines.append(f"    → {application.after}")
        else:
            lines.append("rewrites : (none applied)")
        return "\n".join(lines)

    def _render_chosen_tree(self) -> str:
        """The chosen tree, each node suffixed with its placeholder verdict
        (:meth:`Statistics.certainty`) where the statistics give one."""

        def walk(node: Query, prefix: str) -> List[str]:
            verdict = self.statistics.certainty(node.base_relations())
            lines = [prefix + node.node_label() + (f"  [{verdict}]" if verdict else "")]
            for child in node.children():
                lines.extend(walk(child, prefix + "  "))
            return lines

        return "\n".join(walk(self.chosen, "  "))

    def __repr__(self) -> str:
        return f"Plan({len(self.applications)} rewrites, cost {self.cost_after.cost:,.0f})"


# --------------------------------------------------------------------------- #
# The rewrite engine
# --------------------------------------------------------------------------- #


def _apply_once(
    query: Query,
    rules: Sequence[RewriteRule],
    context: RewriteContext,
    phase: str,
    trace: List[RuleApplication],
) -> Tuple[Query, bool]:
    """One bottom-up pass: rewrite children first, then try each rule here."""
    children = query.children()
    changed = False
    if children:
        new_children = []
        for child in children:
            new_child, child_changed = _apply_once(child, rules, context, phase, trace)
            changed = changed or child_changed
            new_children.append(new_child)
        if changed:
            query = query.with_children(tuple(new_children))
    for rule in rules:
        rewritten = rule.apply(query, context)
        if rewritten is not None:
            _verify_rule_output(rule.name, phase, query, rewritten, context)
            trace.append(RuleApplication(phase, rule.name, repr(query), repr(rewritten)))
            return rewritten, True
    return query, changed


def _verify_rule_output(
    rule_name: str, phase: str, before: Query, after: Query, context: RewriteContext
) -> None:
    """Check a rewrite-rule output is schema-preserving (REPRO_VERIFY_PLANS).

    A no-op unless plan verification is enabled; a rule that changes the
    output schema raises
    :class:`~repro.analysis.invariants.PlanInvariantError` naming the rule
    and showing both trees.
    """
    checker = verifier()
    if checker is not None:
        checker.verify_rewrite(rule_name, phase, before, after, context.schema)


def rewrite(
    query: Query,
    context: RewriteContext,
    phases: Sequence[Tuple[str, Sequence[RewriteRule]]] = DEFAULT_PHASES,
    trace: Optional[List[RuleApplication]] = None,
) -> Query:
    """Run the phased rule pipeline to a fixpoint; return the rewritten tree.

    Node-level rules run bottom-up to a fixpoint per phase; whole-tree rules
    (``rule.whole_tree``) are applied once per phase to the entire tree —
    join-order search must see a maximal cluster at once and picks its
    result deterministically, so a fixpoint would be wasted work.
    """
    recorded: List[RuleApplication] = trace if trace is not None else []
    current = query
    for phase_name, rules in phases:
        tree_rules = [rule for rule in rules if rule.whole_tree]
        node_rules = [rule for rule in rules if not rule.whole_tree]
        for rule in tree_rules:
            rewritten = rule.apply(current, context)
            if rewritten is not None:
                _verify_rule_output(rule.name, phase_name, current, rewritten, context)
                recorded.append(
                    RuleApplication(phase_name, rule.name, repr(current), repr(rewritten))
                )
                current = rewritten
        if not node_rules:
            continue
        for _ in range(MAX_PASSES_PER_PHASE):
            current, changed = _apply_once(current, node_rules, context, phase_name, recorded)
            if not changed:
                break
    return current


def plan(query: Query, statistics: Optional[Statistics] = None) -> Plan:
    """Plan ``query``: rewrite the tree, estimate it once, return it."""
    from ...obs.metrics import get_registry
    from ...obs.trace import get_tracer

    global _PLAN_CALLS
    _PLAN_CALLS += 1
    get_registry().counter("repro.planner.plan_calls").inc()
    statistics = statistics or Statistics()
    with get_tracer().span("plan", engine=statistics.engine):
        # Strict static analysis before any rewriting: unknown attributes,
        # duplicate attributes, set-operation mismatches and predicate type
        # errors are rejected here with a rendered tree pointing at the
        # offending node, instead of surfacing mid-execution.
        analyze_for_statistics(query, statistics)
        context = RewriteContext(statistics)
        trace: List[RuleApplication] = []
        with get_tracer().span("rewrite"):
            optimized = rewrite(query, context, trace=trace)
        estimates = estimate_forest(optimized, statistics)
        return Plan(
            original=query,
            optimized=optimized,
            applications=trace,
            statistics=statistics,
            cost_after=estimates[optimized].as_cost_estimate(),
            estimates=estimates,
        )
