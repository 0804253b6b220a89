"""Cost model for the logical planner.

The planner compares rewritten plans through a simple cost model: estimated
operator work as a function of input cardinalities.  The cardinalities come
from :class:`Statistics`, which both query engines produce cheaply —

* a :class:`~repro.relational.database.Database` reports relation sizes,
* a :class:`~repro.core.uwsdt.UWSDT` reports template-row counts plus the
  placeholder density per template (the quantity the paper's Figure 27
  tracks as ``|R|`` and ``#comp``).

The statistics also carry a bounded uniform *sample* of each relation's
template rows, drawn by position (:mod:`~repro.core.planner.sampling`):
predicate and join selectivities are estimated from the sample whenever one
is available, and fall back to the fixed constants (``EQUALITY_SELECTIVITY``
etc.) otherwise — so schema-only planning keeps working unchanged.

There is one estimator.  The node-level steps (``select_estimate``,
``join_estimate``, …) turn the estimates of a node's inputs into the node's;
``estimate()`` applies them along a tree, the join-order enumerator prices
its candidates with them, and lowering reads the join algorithm they chose —
so the number that picks a plan is the number every report shows for it.

Per-operator constants are engine-specific (:class:`CostModel`): a UWSDT
product pays component ``ext`` copies for its placeholder fields while a
classical product just concatenates rows, and the UWSDT difference composes
components pairwise.  The planner only ever
compares plans for the *same* engine, so only the constants' ratios matter.

Uncertainty matters to cost: a selection over a template keeps every tuple
whose referenced field is a placeholder (lines 2–6 of Figure 16), so its
effective selectivity is ``s + d·(1 − s)`` for placeholder density ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ...relational.predicates import And, AttrAttr, AttrConst, Not, Or, Predicate, TruePredicate
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
from .sampling import DEFAULT_SAMPLE_SIZE, RelationSample, equi_join_selectivity

#: Cardinality assumed for relations the statistics do not know about.
DEFAULT_ROW_COUNT = 1_000

#: Assumed selectivity of an equality atom ``A = c`` / ``A = B`` when no
#: sample is available.
EQUALITY_SELECTIVITY = 0.1

#: Assumed selectivity of a range atom (``<``, ``<=``, ``>``, ``>=``).
RANGE_SELECTIVITY = 1.0 / 3.0

#: Floor applied to fixed-constant selectivity estimates before they feed a
#: cost formula — mirrors :func:`~repro.core.planner.sampling.floor_selectivity`
#: for sampled estimates.  A predicate the constants deem impossible (e.g.
#: ``¬TRUE``, or a deep conjunction of equalities) must not zero out every
#: cost downstream of it and make an arbitrarily bad plan look free.
FIXED_SELECTIVITY_FLOOR = 0.5 / DEFAULT_SAMPLE_SIZE


@dataclass(frozen=True)
class CostModel:
    """Per-engine cost constants, in units of "one tuple through one operator".

    The constants were set once, by hand, from timings of each operator on
    the census workload at bench sizes, normalized to the classical select
    (docs/planner.md records what measuring them again gives):

    * ``Database`` operators move plain tuples; the hash join's build and
      probe are as cheap as a scan.
    * ``UWSDT`` operators are template-relation work plus component ``ext``
      only for placeholder fields — dearer than classical; ``difference``
      composes components pairwise.
    """

    name: str = "generic"
    select_tuple: float = 1.0
    project_tuple: float = 1.0
    rename_tuple: float = 1.0
    union_tuple: float = 1.0
    emit_tuple: float = 1.0
    join_build: float = 1.0
    join_probe: float = 1.0
    #: Per-outer-tuple cost of probing a prebuilt (cached) hash index in an
    #: index nested-loop join.  Dearer than ``join_probe`` — each probe is an
    #: individual index lookup rather than a bulk build-then-stream pass —
    #: but the inner side pays nothing, so small-outer/large-inner joins win.
    index_probe: float = 3.0
    difference_pair: float = 1.0

    @classmethod
    def for_engine(cls, engine_name: str) -> "CostModel":
        """The checked-in model of a representation engine (a ``COST_MODELS`` key)."""
        return COST_MODELS[engine_name]


#: Back-compatible defaults: with every constant at 1.0 the formulas reduce
#: to the PR 1 cost model exactly.
GENERIC_COST = CostModel()

DATABASE_COST = CostModel(
    name="database",
    select_tuple=0.5,
    project_tuple=0.6,
    rename_tuple=0.4,
    union_tuple=0.8,
    emit_tuple=1.0,
    join_build=1.0,
    join_probe=1.0,
    index_probe=2.5,
    difference_pair=0.8,
)

UWSDT_COST = CostModel(
    name="uwsdt",
    select_tuple=1.0,
    project_tuple=1.5,
    rename_tuple=1.8,
    union_tuple=1.2,
    emit_tuple=2.5,
    join_build=1.0,
    join_probe=1.0,
    index_probe=2.5,
    difference_pair=15.0,
)

#: The one source of cost constants: a model per query engine, keyed by
#: ``Statistics.engine``.  Execution backends (row / columnar / sharded)
#: price with the model of the engine they wrap.
COST_MODELS: Dict[str, CostModel] = {
    "generic": GENERIC_COST,
    "database": DATABASE_COST,
    "uwsdt": UWSDT_COST,
}


def uwsdt_relation_statistics(uwsdt: Any, relation_name: str) -> Tuple[int, float]:
    """``(row count, placeholder density)`` of one UWSDT relation.

    Both are read off the template (the ``?`` of its open rows), so they
    move only with a template write — what the catalog's version key polls.
    """
    rows = uwsdt.template_size(relation_name)
    arity = uwsdt.schema.relation(relation_name).arity
    placeholders = uwsdt.relation_placeholder_count(relation_name)
    return rows, min(1.0, placeholders / max(1, rows * arity))


class Statistics:
    """Per-relation cardinality/uncertainty statistics feeding the cost model."""

    def __init__(
        self,
        row_counts: Optional[Mapping[str, int]] = None,
        placeholder_densities: Optional[Mapping[str, float]] = None,
        attributes: Optional[Mapping[str, Tuple[str, ...]]] = None,
        samples: Optional[Mapping[str, RelationSample]] = None,
        engine: str = "generic",
        sample_provenance: Optional[Mapping[str, str]] = None,
        source: str = "adhoc",
        catalog: Any = None,
    ) -> None:
        self.row_counts: Dict[str, int] = dict(row_counts or {})
        self.placeholder_densities: Dict[str, float] = dict(placeholder_densities or {})
        #: Base-relation attribute lists (the planner's catalog for rewrites).
        self.attributes: Dict[str, Tuple[str, ...]] = {
            name: tuple(attrs) for name, attrs in (attributes or {}).items()
        }
        #: Bounded row samples keyed by relation name (may be empty).
        self.samples: Dict[str, RelationSample] = dict(samples or {})
        #: Which engine these statistics describe (selects the CostModel).
        self.engine = engine
        #: Where these statistics came from: ``"catalog"`` for catalog views,
        #: ``"fresh"`` for direct engine sampling, ``"adhoc"`` for hand-built.
        self.source = source
        #: Per-relation estimate provenance for ``Plan.explain()``:
        #: ``"cached-sample"`` / ``"fresh-sample"`` / ``"fixed-constants"``.
        if sample_provenance is None:
            sample_provenance = {name: "fresh-sample" for name in self.samples}
        self.sample_provenance: Dict[str, str] = dict(sample_provenance)
        #: The :class:`~repro.core.planner.catalog.StatisticsCatalog` this view
        #: was served from (None for fresh and hand-built statistics).  It
        #: holds its engine weakly; the type analysis goes through it to
        #: confirm a type inferred from a partial sample against whole columns.
        self.catalog = catalog
        #: The version key of every relation a catalog view covers, as the
        #: catalog read it (empty for hand-built statistics): what a plan made
        #: from this view stays valid for.
        self.version_keys: Dict[str, Tuple[Any, ...]] = {}

    def provenance(self, relation_name: str) -> str:
        """How this relation's estimates are derived (for ``explain()``)."""
        return self.sample_provenance.get(relation_name, "fixed-constants")

    # -- constructors ------------------------------------------------------ #

    @classmethod
    def from_database(
        cls,
        engine: Any,
        sample_relations: Optional[Tuple[str, ...]] = None,
    ) -> "Statistics":
        """Fresh, uncached statistics: every relation sampled anew, nothing kept."""
        from .catalog import FreshStatistics

        statistics = FreshStatistics(engine).statistics(sample_relations)
        statistics.source = "fresh"
        statistics.catalog = None
        return statistics

    #: One body under two names: the catalog tells the engines apart.
    from_uwsdt = from_database

    @classmethod
    def from_engine(
        cls,
        engine: Any,
        sample_relations: Optional[Tuple[str, ...]] = None,
    ) -> "Statistics":
        """Statistics for a live engine, served from its statistics catalog.

        This is a thin view over the engine's attached
        :class:`~repro.core.planner.catalog.StatisticsCatalog`: samples, row
        counts and densities are cached per relation and invalidated by
        version counters, so planning a repeated (or similar) query
        against an unchanged engine performs **zero** sampling work.
        ``sample_relations`` restricts row sampling to the named relations —
        planning passes the query's base relations, so relations a query
        never touches are not scanned (their row counts, densities and
        attributes are still reported).  Use ``from_database`` /
        ``from_uwsdt`` to force fresh, uncached sampling.
        """
        from .catalog import catalog_for

        return catalog_for(engine).statistics(sample_relations)

    # -- lookups ----------------------------------------------------------- #

    def row_count(self, relation_name: str) -> int:
        return self.row_counts.get(relation_name, DEFAULT_ROW_COUNT)

    def placeholder_density(self, relation_name: str) -> float:
        return self.placeholder_densities.get(relation_name, 0.0)

    def certainty(self, relation_names: Iterable[str]) -> Optional[str]:
        """The ``explain`` verdict of a node reading ``relation_names``:
        ``"maybe"`` when any has a placeholder density above 0, else
        ``"certain"`` when every one has density 0, else None (no relations,
        or one without a density)."""
        densities = [self.placeholder_densities.get(name) for name in relation_names]
        if any(density for density in densities):
            return "maybe"
        if densities and None not in densities:
            return "certain"
        return None

    def relation_attributes(self, relation_name: str) -> Optional[Tuple[str, ...]]:
        return self.attributes.get(relation_name)

    def sample(self, relation_name: str) -> Optional[RelationSample]:
        return self.samples.get(relation_name)

    def cost_model(self) -> CostModel:
        """The cost model of the engine these statistics describe."""
        return CostModel.for_engine(self.engine)

    def without_samples(self) -> "Statistics":
        """A copy that estimates with the fixed constants only (for explain)."""
        return Statistics(
            self.row_counts, self.placeholder_densities, self.attributes, None, self.engine
        )

    def __repr__(self) -> str:
        return f"Statistics({self.row_counts!r}, engine={self.engine!r})"


@dataclass(frozen=True)
class CostEstimate:
    """Estimated output cardinality and cumulative operator work of a plan."""

    rows: float
    cost: float

    def __repr__(self) -> str:
        return f"CostEstimate(rows≈{self.rows:.0f}, cost≈{self.cost:.0f})"


def predicate_selectivity(predicate: Predicate) -> float:
    """Fixed-constant selectivity of a selection predicate (no sample)."""
    if isinstance(predicate, TruePredicate):
        return 1.0
    if isinstance(predicate, (AttrConst, AttrAttr)):
        op = predicate.op
        if op in ("=", "=="):
            return EQUALITY_SELECTIVITY
        if op in ("!=", "<>"):
            return 1.0 - EQUALITY_SELECTIVITY
        return RANGE_SELECTIVITY
    if isinstance(predicate, And):
        selectivity = 1.0
        for part in predicate.parts:
            selectivity *= predicate_selectivity(part)
        return selectivity
    if isinstance(predicate, Or):
        miss = 1.0
        for part in predicate.parts:
            miss *= 1.0 - predicate_selectivity(part)
        return 1.0 - miss
    if isinstance(predicate, Not):
        return 1.0 - predicate_selectivity(predicate.inner)
    return 0.5


def floored_predicate_selectivity(predicate: Predicate) -> float:
    """Fixed-constant selectivity clamped into ``(0, 1]``.

    :func:`predicate_selectivity` itself is kept pure (so ``¬p`` composes as
    ``1 − p``); the floor is applied here, at the boundary where the value
    feeds a cost formula.
    """
    return max(min(predicate_selectivity(predicate), 1.0), FIXED_SELECTIVITY_FLOOR)


#: Arity assumed when schema inference cannot resolve a subquery's width.
DEFAULT_ARITY = 4


def arity_width(arity: int) -> float:
    """Per-tuple cost factor growing with the tuple width.

    Census templates are ~50 attributes wide; materializing a product of two
    of them moves twice as many values per tuple as scanning one.
    """
    return 1.0 + 0.1 * arity


# --------------------------------------------------------------------------- #
# Per-operator formulas — called by the node-level steps below and by nothing
# else, so a plan assembled by the enumerator costs exactly what estimate()
# reports.
# --------------------------------------------------------------------------- #


def select_step(
    rows: float, selectivity: float, density: float, model: CostModel
) -> Tuple[float, float]:
    """``(output rows, added cost)`` of a selection over ``rows`` input tuples.

    Placeholder rows survive every selection on the representation (they are
    filtered world-by-world inside their components), hence the density bump.
    """
    effective = selectivity + density * (1.0 - selectivity)
    return rows * effective, rows * model.select_tuple


def join_step(
    left_rows: float,
    right_rows: float,
    selectivity: float,
    out_arity: int,
    model: CostModel,
) -> Tuple[float, float]:
    """``(output rows, added cost)`` of a hash equi-join: build + probe + emit."""
    out = left_rows * right_rows * selectivity
    cost = (
        left_rows * model.join_build
        + right_rows * model.join_probe
        + out * arity_width(out_arity) * model.emit_tuple
    )
    return out, cost


def index_join_step(
    outer_rows: float,
    inner_rows: float,
    selectivity: float,
    out_arity: int,
    model: CostModel,
) -> Tuple[float, float]:
    """``(output rows, added cost)`` of an index nested-loop equi-join.

    The outer side probes a prebuilt hash index over the inner *base*
    relation (:func:`~repro.relational.indexes.hash_index`, kept on the
    relation — on a UWSDT, the template's certain relation — so the inner
    side contributes no per-query build cost).
    """
    out = outer_rows * inner_rows * selectivity
    cost = outer_rows * model.index_probe + out * arity_width(out_arity) * model.emit_tuple
    return out, cost


#: Engines whose backends can execute an index nested-loop join (every
#: engine; the schema-blind ``generic`` statistics know of none).
INDEX_JOIN_ENGINES = ("database", "uwsdt")


def product_step(
    left_rows: float, right_rows: float, out_arity: int, model: CostModel
) -> Tuple[float, float]:
    """``(output rows, added cost)`` of a cartesian product."""
    out = left_rows * right_rows
    return out, out * arity_width(out_arity) * model.emit_tuple


def project_step(rows: float, in_arity: int, model: CostModel) -> float:
    """Added cost of a projection over ``rows`` tuples of ``in_arity`` width."""
    return rows * arity_width(in_arity) * model.project_tuple


# --------------------------------------------------------------------------- #
# Node-level steps: NodeEstimate(, NodeEstimate) → NodeEstimate
# --------------------------------------------------------------------------- #


@dataclass
class NodeEstimate:
    """Per-node estimate: cardinality, cumulative cost, and what is below.

    ``samples`` holds the (filtered / projected / renamed) sample of every
    leaf below the node that has one, never a sample derived from two leaves.
    Leaves have disjoint attribute sets, so an attribute names its leaf, and
    a predicate across leaves is priced from the two owning leaf samples
    whichever node spells it: a result's size is the product of its filtered
    leaves' sizes and its predicates' selectivities, whatever order joined
    it.  ``algorithm`` (joins only) is the cheaper of ``lower.JOIN_ALGORITHMS``
    here — what ``cost`` includes and what lowering builds.
    """

    rows: float
    cost: float
    samples: Tuple[RelationSample, ...]
    density: float
    #: Output width (a base relation of unknown schema counts ``DEFAULT_ARITY``).
    arity: int
    algorithm: Optional[str] = None

    def as_cost_estimate(self) -> CostEstimate:
        return CostEstimate(rows=self.rows, cost=self.cost)


def _owner(samples: Tuple[RelationSample, ...], attribute: str) -> Optional[RelationSample]:
    for sample in samples:
        if attribute in sample.attributes:
            return sample
    return None


def join_condition_selectivity(
    left: NodeEstimate, left_attr: str, right: NodeEstimate, right_attr: str
) -> float:
    """Selectivity of ``left_attr = right_attr`` from the two owning leaf
    samples — one histogram overlap per pair of samples, memoised on them;
    the fixed constant where a leaf has no sample or the samples cannot say."""
    left_sample = _owner(left.samples, left_attr)
    right_sample = _owner(right.samples, right_attr)
    if left_sample is None or right_sample is None:
        return EQUALITY_SELECTIVITY
    sampled = equi_join_selectivity(left_sample, left_attr, right_sample, right_attr)
    return EQUALITY_SELECTIVITY if sampled is None else sampled


def select_estimate(child: NodeEstimate, predicate: Predicate, model: CostModel) -> NodeEstimate:
    """σ over one leaf: the whole predicate against its sample, placeholder
    rows surviving (the density bump).  σ over several leaves: conjunct by
    conjunct — one owned by a single leaf narrows that leaf's sample, with the
    bump; every other multiplies in without it (an equality across two leaves
    at its join selectivity, anything else at the fixed constants), because
    the bump is not multiplicative and which predicate is "the join" and which
    a residual σ must not change a result's size."""
    samples = child.samples
    if len(samples) <= 1:
        selectivity = None
        if samples:
            selectivity, narrowed = samples[0].selection(predicate)
            samples = (narrowed,)
        if selectivity is None:
            selectivity = floored_predicate_selectivity(predicate)
        rows, added = select_step(child.rows, selectivity, child.density, model)
        return NodeEstimate(rows, child.cost + added, samples, child.density, child.arity)
    passing = 1.0
    for part in predicate.parts if isinstance(predicate, And) else (predicate,):
        owners = {_owner(samples, attribute) for attribute in part.attributes()}
        selectivity, density = None, 0.0
        if len(owners) == 1 and None not in owners:
            (owner,) = owners
            selectivity, narrowed = owner.selection(part)
            samples = tuple(narrowed if sample is owner else sample for sample in samples)
            density = child.density
        elif (
            len(owners) == 2
            and None not in owners
            and isinstance(part, AttrAttr)
            and part.op in ("=", "==")
        ):
            selectivity = join_condition_selectivity(child, part.left, child, part.right)
        if selectivity is None:
            selectivity = floored_predicate_selectivity(part)
        passing, _ = select_step(passing, selectivity, density, model)
    rows, added = select_step(child.rows, passing, 0.0, model)
    return NodeEstimate(rows, child.cost + added, samples, child.density, child.arity)


def product_estimate(left: NodeEstimate, right: NodeEstimate, model: CostModel) -> NodeEstimate:
    arity = left.arity + right.arity
    rows, added = product_step(left.rows, right.rows, arity, model)
    return NodeEstimate(
        rows,
        left.cost + right.cost + added,
        left.samples + right.samples,
        max(left.density, right.density),
        arity,
    )


def join_estimate(
    left: NodeEstimate,
    right: NodeEstimate,
    left_attr: str,
    right_attr: str,
    inner_is_base: bool,
    statistics: Statistics,
    model: CostModel,
) -> NodeEstimate:
    """``left ⋈ right``: a hash join, or — when the inner (right) input is a
    bare base relation on an index-capable engine — the cheaper of that and an
    index nested-loop join; ``algorithm`` records which."""
    arity = left.arity + right.arity
    selectivity = join_condition_selectivity(left, left_attr, right, right_attr)
    rows, added = join_step(left.rows, right.rows, selectivity, arity, model)
    algorithm = "hash"
    if inner_is_base and statistics.engine in INDEX_JOIN_ENGINES:
        _, probing = index_join_step(left.rows, right.rows, selectivity, arity, model)
        if probing < added:
            added, algorithm = probing, "index-nested-loop"
    return NodeEstimate(
        rows,
        left.cost + right.cost + added,
        left.samples + right.samples,
        max(left.density, right.density),
        arity,
        algorithm,
    )


# --------------------------------------------------------------------------- #
# The recursive estimator
# --------------------------------------------------------------------------- #


def estimate(query: Query, statistics: Statistics) -> CostEstimate:
    """Estimate output cardinality and total work of evaluating ``query``.

    The unit of cost is "one tuple touched by one operator", scaled by the
    constants of the model matching ``statistics.engine``.  Selectivities
    come from the statistics' row samples when available and from the fixed
    constants otherwise.
    """
    return estimate_forest(query, statistics)[query].as_cost_estimate()


def _estimate(
    query: Query,
    statistics: Statistics,
    model: CostModel,
    memo: Dict[Query, NodeEstimate],
) -> NodeEstimate:
    """Per-node estimate, memoised by node (a node is a value, and equal
    subtrees have equal estimates).

    The memo makes one top-level call record an estimate for *every* node of
    the tree — the executor's lowering pass reads per-node cardinalities
    from it in a single bottom-up traversal instead of re-estimating each
    subtree (which would be quadratic in the sample work).
    """
    cached = memo.get(query)
    if cached is None:
        cached = memo[query] = _estimate_uncached(query, statistics, model, memo)
    return cached


def _estimate_uncached(
    query: Query,
    statistics: Statistics,
    model: CostModel,
    memo: Dict[Query, NodeEstimate],
) -> NodeEstimate:
    if isinstance(query, BaseRelation):
        sample = statistics.sample(query.name)
        attributes = statistics.relation_attributes(query.name)
        return NodeEstimate(
            rows=float(statistics.row_count(query.name)),
            cost=0.0,
            samples=(sample,) if sample is not None else (),
            density=statistics.placeholder_density(query.name),
            arity=len(attributes) if attributes is not None else DEFAULT_ARITY,
        )
    if isinstance(query, Select):
        child = _estimate(query.child, statistics, model, memo)
        return select_estimate(child, query.predicate, model)
    if isinstance(query, Project):
        child = _estimate(query.child, statistics, model, memo)
        samples = []
        for sample in child.samples:
            owned = tuple(a for a in query.attributes if a in sample.attributes)
            if owned != sample.attributes:  # else a permutation across leaves
                sample = sample.project(owned)
            samples.append(sample)
        return NodeEstimate(
            child.rows,
            child.cost + project_step(child.rows, child.arity, model),
            tuple(samples),
            child.density,
            len(query.attributes),
        )
    if isinstance(query, Rename):
        child = _estimate(query.child, statistics, model, memo)
        samples = tuple(
            sample.rename(query.old, query.new) if query.old in sample.attributes else sample
            for sample in child.samples
        )
        return NodeEstimate(
            child.rows,
            child.cost + child.rows * model.rename_tuple,
            samples,
            child.density,
            child.arity,
        )
    if isinstance(query, Product):
        left = _estimate(query.left, statistics, model, memo)
        right = _estimate(query.right, statistics, model, memo)
        return product_estimate(left, right, model)
    if isinstance(query, Join):
        left = _estimate(query.left, statistics, model, memo)
        right = _estimate(query.right, statistics, model, memo)
        return join_estimate(
            left,
            right,
            query.left_attr,
            query.right_attr,
            isinstance(query.right, BaseRelation),
            statistics,
            model,
        )
    if isinstance(query, Union):
        left = _estimate(query.left, statistics, model, memo)
        right = _estimate(query.right, statistics, model, memo)
        out = left.rows + right.rows
        samples = ()
        if (
            len(left.samples) == 1
            and len(right.samples) == 1
            and left.samples[0].attributes == right.samples[0].attributes
        ):
            (left_sample,), (right_sample,) = left.samples, right.samples
            samples = (
                RelationSample(
                    "",
                    left_sample.attributes,
                    left_sample.rows + right_sample.rows,
                    max(1, left_sample.population + right_sample.population),
                ),
            )
        return NodeEstimate(
            out,
            left.cost + right.cost + out * model.union_tuple,
            samples,
            max(left.density, right.density),
            left.arity,
        )
    if isinstance(query, Difference):
        left = _estimate(query.left, statistics, model, memo)
        right = _estimate(query.right, statistics, model, memo)
        # On a UWSDT difference composes components pairwise — by far the
        # paper's most expensive operator — so it is costed quadratically.
        return NodeEstimate(
            left.rows,
            left.cost + right.cost + left.rows * max(1.0, right.rows) * model.difference_pair,
            left.samples,
            max(left.density, right.density),
            left.arity,
        )
    if isinstance(query, Intersection):
        left = _estimate(query.left, statistics, model, memo)
        right = _estimate(query.right, statistics, model, memo)
        # Evaluated natively on a Database, as A − (A − B) on a UWSDT;
        # either way the work is difference-like (pairwise on a UWSDT),
        # and the output is bounded by the
        # smaller side.
        return NodeEstimate(
            min(left.rows, right.rows),
            left.cost + right.cost + left.rows * max(1.0, right.rows) * model.difference_pair,
            (),
            max(left.density, right.density),
            left.arity,
        )
    raise TypeError(f"cannot estimate cost of {query!r}")


def estimate_forest(
    query: Query,
    statistics: Statistics,
    model: Optional[CostModel] = None,
    memo: Optional[Dict[Query, NodeEstimate]] = None,
) -> Dict[Query, NodeEstimate]:
    """Estimates for *every* node of ``query``, keyed by node.

    One bottom-up pass fills the memo — the executor's lowering reads
    per-node cardinalities from it instead of re-estimating each subtree.
    Pass an existing ``memo`` to extend it with nodes of a further tree.
    """
    if model is None:
        model = statistics.cost_model()
    if memo is None:
        memo = {}
    _estimate(query, statistics, model, memo)
    return memo
