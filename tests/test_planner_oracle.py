"""The possible-worlds oracle: five evaluation strategies must agree.

For random small or-set inputs and random query trees, the following must
produce the same distribution over result relations:

1. **planned UWSDT** evaluation (``Query.run(..., optimize=True)`` — rewrite
   rules, join-order search, index fast paths),
2. **unplanned UWSDT** evaluation (the AST executed verbatim),
3. **the WSD as a UWSDT**: ``UWSDT.from_wsd``, planned, then ``to_wsd()`` —
   a WSD is not an engine, so this conversion round trip is how it runs a
   query,
4. **the Figure 9 specification** (``evaluate_on_wsd``: the WSD operators,
   interpreted directly, sharing nothing with the planner or the executor),
5. **brute force**: enumerate ``rep(W)`` world by world, evaluate the query
   classically in every world (Theorem 1's right-hand side).

Three oracle depths are exercised:

* *deep trees* — depth-3/4 query trees over three 3-attribute relations,
  covering multi-way joins (and therefore the join-order enumerator);
* *correlated components* — the inputs are first chased with a random
  functional or equality-generating dependency, so the representation
  contains multi-template components, not just tuple-independent or-sets;
* *confidence* — per-tuple confidences computed natively on the result
  representation must equal the exact tuple frequency over the enumerated
  worlds;
* *union/difference-heavy shapes* — set-algebra trees (∪/− over selection
  chains, optionally joined across relations), planned twice against the
  same engine so the second plan runs entirely on the statistics catalog's
  cached samples — proving cached statistics never change results;
* *greedy fallback fuzz* — >8-relation product chains, where the enumerator
  abandons the subset DP for the greedy cheapest-pair heuristic, checked
  end to end against brute force (again with a warm catalog).

This is the strongest correctness statement the planner can make: every
rewrite rule, every cost-model decision, every join order and every index
fast path is squeezed through the paper's semantics on thousands of random
plans.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines import naive
from repro.core import UWSDT, WSD
from repro.core.algebra import BaseRelation, evaluate_on_wsd
from repro.core.chase import (
    Comparison,
    EqualityGeneratingDependency,
    FunctionalDependency,
    chase_uwsdt,
    chase_wsd,
)
from repro.core.confidence import confidence, uwsdt_possible_with_confidence
from repro.core.planner import GREEDY_THRESHOLD, sampling_call_count
from repro.relational import And, AttrAttr, AttrConst, InconsistentWorldSetError, Or
from repro.worlds import OrSet, OrSetRelation

from _fixtures import (
    assert_same_result_distribution,
    budgeted_orset_relations,
    orset_relations,
    result_distribution,
)

#: The fixed schema of the single-relation (depth-2) oracle.
BASE_ATTRS = ("A0", "A1")

#: The three disjoint-attribute relations of the deep oracle.
ORACLE_SCHEMAS = (
    ("R", ("A0", "A1", "A2")),
    ("S", ("B0", "B1", "B2")),
    ("T", ("C0", "C1", "C2")),
)
ORACLE_ATTRS = {name: attrs for name, attrs in ORACLE_SCHEMAS}

#: Domain of constants in generated predicates (matches the row strategies).
constants = st.integers(min_value=0, max_value=4)


@st.composite
def predicates(draw, attrs):
    """Random predicates over the given attributes."""
    kind = draw(st.sampled_from(["const", "const", "attr", "and", "or"]))
    attr = draw(st.sampled_from(sorted(attrs)))
    op = draw(st.sampled_from(["=", "!=", "<", ">="]))
    if kind == "attr" and len(attrs) >= 2:
        other = draw(st.sampled_from(sorted(set(attrs) - {attr})))
        return AttrAttr(attr, draw(st.sampled_from(["=", "<"])), other)
    if kind in ("and", "or"):
        left = AttrConst(attr, op, draw(constants))
        other_attr = draw(st.sampled_from(sorted(attrs)))
        right = AttrConst(other_attr, draw(st.sampled_from(["=", ">"])), draw(constants))
        return And(left, right) if kind == "and" else Or(left, right)
    return AttrConst(attr, op, draw(constants))


def _schema_preserving(draw, name, attrs):
    """A selection chain over one base relation (keeps the base schema)."""
    query = BaseRelation(name)
    for _ in range(draw(st.integers(min_value=0, max_value=1))):
        query = query.select(draw(predicates(attrs)))
    return query


@st.composite
def query_trees(draw, depth=2):
    """Random depth-2 query trees over the single relation ``R`` (PR 1 oracle)."""
    query, _ = _tree(draw, depth, counter=[0], single_relation=True)
    return query


@st.composite
def deep_query_trees(draw, min_depth=3, max_depth=4):
    """Random depth-3/4 query trees over the three deep-oracle relations."""
    depth = draw(st.integers(min_value=min_depth, max_value=max_depth))
    query, _ = _tree(draw, depth, counter=[0], single_relation=False)
    return query


def _base(draw, single_relation):
    if single_relation:
        return BaseRelation("R"), BASE_ATTRS
    name = draw(st.sampled_from(sorted(ORACLE_ATTRS)))
    return BaseRelation(name), ORACLE_ATTRS[name]


def _tree(draw, depth, counter, single_relation):
    if depth == 0:
        return _base(draw, single_relation)
    op = draw(
        st.sampled_from(
            [
                "base",
                "select",
                "select",
                "project",
                "rename",
                "union",
                "difference",
                "intersection",
                "product",
                "join",
            ]
        )
    )
    if op == "base":
        return _base(draw, single_relation)
    if op == "select":
        child, attrs = _tree(draw, depth - 1, counter, single_relation)
        return child.select(draw(predicates(attrs))), attrs
    if op == "project":
        child, attrs = _tree(draw, depth - 1, counter, single_relation)
        keep = tuple(a for a in attrs if draw(st.booleans()))
        if not keep:
            keep = (attrs[0],)
        return child.project(keep), keep
    if op == "rename":
        child, attrs = _tree(draw, depth - 1, counter, single_relation)
        old = draw(st.sampled_from(sorted(attrs)))
        new = f"Z{draw(st.integers(min_value=0, max_value=2))}"
        if new in attrs:
            return child, attrs
        return child.rename(old, new), tuple(new if a == old else a for a in attrs)
    if op in ("union", "difference", "intersection"):
        if single_relation:
            name, attrs = "R", BASE_ATTRS
        else:
            name = draw(st.sampled_from(sorted(ORACLE_ATTRS)))
            attrs = ORACLE_ATTRS[name]
        left = _schema_preserving(draw, name, attrs)
        right = _schema_preserving(draw, name, attrs)
        if op == "union":
            return left.union(right), attrs
        if op == "intersection":
            return left.intersection(right), attrs
        return left.difference(right), attrs
    # product / join: the right side is a fully renamed copy of a base
    # relation so the attribute sets are disjoint (the counter keeps nested
    # products apart).
    left, left_attrs = _tree(draw, depth - 1, counter, single_relation)
    right, base_attrs = _base(draw, single_relation)
    right_attrs = []
    for attribute in base_attrs:
        fresh = f"W{counter[0]}"
        counter[0] += 1
        right = right.rename(attribute, fresh)
        right_attrs.append(fresh)
    if op == "product":
        return left.product(right), tuple(left_attrs) + tuple(right_attrs)
    left_attr = draw(st.sampled_from(sorted(left_attrs)))
    right_attr = draw(st.sampled_from(sorted(right_attrs)))
    return left.join(right, left_attr, right_attr), tuple(left_attrs) + tuple(right_attrs)


@st.composite
def chase_dependencies(draw):
    """A random FD or single-tuple EGD (1-2 premises) over the deep-oracle relation ``R``."""
    attrs = ORACLE_ATTRS["R"]
    if draw(st.booleans()):
        determinants = draw(
            st.lists(st.sampled_from(attrs), min_size=1, max_size=2, unique=True)
        )
        remaining = [a for a in attrs if a not in determinants]
        dependent = draw(st.sampled_from(remaining or list(attrs)))
        return FunctionalDependency("R", determinants, dependent)
    premise_attrs = draw(
        st.lists(st.sampled_from(attrs), min_size=1, max_size=2, unique=True)
    )
    premises = [
        Comparison(attribute, draw(st.sampled_from(["=", "<", ">="])), draw(constants))
        for attribute in premise_attrs
    ]
    conclusion_attr = draw(st.sampled_from(attrs))
    conclusion = Comparison(
        conclusion_attr, draw(st.sampled_from(["=", "!=", ">="])), draw(constants)
    )
    return EqualityGeneratingDependency("R", premises, conclusion)


@st.composite
def chase_dependency_lists(draw, max_size=3):
    """1-3 dependencies chased in sequence, so they can interact on shared components."""
    return draw(st.lists(chase_dependencies(), min_size=1, max_size=max_size))


# --------------------------------------------------------------------------- #
# Oracle drivers
# --------------------------------------------------------------------------- #


#: The columnar leg runs each query three times on one engine: cold, again
#: (stored relations now scan their cached column store), and after an
#: insert that must invalidate that store.
COLUMNAR_CACHE_STATES = ("cold", "cached", "after-insert")


def run_planned(query, engine, name):
    """``query.run(engine, name)`` planned — on the tree the rewriter returned,
    so that planned ≡ unplanned never compares the written tree with itself."""
    plan = query.plan(engine)
    assert plan.chosen is plan.optimized
    return query.run(engine, name, plan=plan)


def assert_wsd_matches_reference(reference, wsd, query):
    """The WSD's two cells: planned as the UWSDT it converts to (and read
    back as a WSD), and evaluated by the Figure 9 specification."""
    converted = UWSDT.from_wsd(wsd)
    run_planned(query, converted, "P")
    converted.validate()
    assert_same_result_distribution(converted.to_wsd().rep(), reference, "P")

    specified = wsd.copy()
    evaluate_on_wsd(query, specified, "P")
    assert_same_result_distribution(specified.rep(), reference, "P")


def assert_engines_match_reference(reference, uwsdt, wsd, query):
    """Planned UWSDT, unplanned UWSDT and both WSD cells must match
    ``reference`` — and both UWSDT paths again under the columnar vectorized
    backend, in every state of its column cache."""
    planned = uwsdt.copy()
    run_planned(query, planned, "P")
    planned.validate()
    assert_same_result_distribution(planned.rep(), reference, "P")

    unplanned = uwsdt.copy()
    query.run(unplanned, "P", optimize=False)
    unplanned.validate()
    assert_same_result_distribution(unplanned.rep(), reference, "P")

    assert_wsd_matches_reference(reference, wsd, query)

    for optimize in (True, False):
        engine = uwsdt.copy()
        for state in COLUMNAR_CACHE_STATES:
            expected = reference
            if state == "after-insert":
                # A new certain tuple in a base template: the cached columns
                # are stale now, and brute force decides what is right.
                name = sorted(query.base_relations())[0]
                row = (1,) * uwsdt.schema.relation(name).arity
                mutated = uwsdt.copy()
                for target in (engine, mutated):
                    target.add_template_tuple(name, "inserted", row)
                expected = naive.evaluate_query(mutated.rep(), query, "P")
            query.run(engine, f"P-{state}", optimize=optimize, backend="columnar")
            engine.validate()
            observed = result_distribution(engine.rep(), f"P-{state}")
            assert observed == pytest.approx(result_distribution(expected, "P"), abs=1e-9)


def check_against_oracle(orset_relation, query):
    """All five strategies must yield the same result-world distribution."""
    base_wsd = WSD.from_orset_relation(orset_relation)
    reference = naive.evaluate_query(base_wsd.rep(), query, "P")
    assert_engines_match_reference(
        reference,
        UWSDT.from_orset_relation(orset_relation),
        WSD.from_orset_relation(orset_relation),
        query,
    )


class TestPossibleWorldsOracle:
    @given(
        orset_relations(max_rows=2, max_attrs=2, max_alternatives=2),
        query_trees(depth=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_plans_match_brute_force(self, relation, query):
        if relation.schema.attributes != BASE_ATTRS:
            relation = _pad_to_base_schema(relation)
        check_against_oracle(relation, query)

    @given(orset_relations(max_rows=2, max_attrs=2, max_alternatives=2))
    @settings(max_examples=20, deadline=None)
    def test_fused_join_query_matches_brute_force(self, relation):
        """The σ(A=B)∘× → join fusion path, exercised explicitly."""
        if relation.schema.attributes != BASE_ATTRS:
            relation = _pad_to_base_schema(relation)
        right = BaseRelation("R").rename("A0", "W0").rename("A1", "W1")
        query = (
            BaseRelation("R")
            .product(right)
            .select(AttrAttr("A1", "=", "W0"))
            .project(["A0", "W1"])
        )
        check_against_oracle(relation, query)


class TestDeepPossibleWorldsOracle:
    """Depth-3/4 trees over three 3-attribute relations (≥3-way joins)."""

    @given(
        budgeted_orset_relations(ORACLE_SCHEMAS, max_rows=2, uncertain_budget=4),
        deep_query_trees(min_depth=3, max_depth=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_deep_random_plans_match_brute_force(self, relations, query):
        base_wsd = WSD.from_orset_relations(relations)
        reference = naive.evaluate_query(base_wsd.rep(), query, "P")
        assert_engines_match_reference(
            reference,
            UWSDT.from_orset_relations(relations),
            WSD.from_orset_relations(relations),
            query,
        )

    @given(budgeted_orset_relations(ORACLE_SCHEMAS, max_rows=2, uncertain_budget=3))
    @settings(max_examples=25, deadline=None)
    def test_three_way_product_chain_matches_brute_force(self, relations):
        """The join-order enumerator's home turf: σ over a ×-chain of R, S, T."""
        query = (
            BaseRelation("R")
            .product(BaseRelation("S"))
            .product(BaseRelation("T"))
            .select(AttrAttr("A0", "=", "B0"))
            .select(AttrAttr("B1", "=", "C1"))
        )
        base_wsd = WSD.from_orset_relations(relations)
        reference = naive.evaluate_query(base_wsd.rep(), query, "P")
        assert_engines_match_reference(
            reference,
            UWSDT.from_orset_relations(relations),
            WSD.from_orset_relations(relations),
            query,
        )


class TestCorrelatedComponentOracle:
    """Chased (correlated, multi-template-component) inputs through the oracle."""

    @given(
        budgeted_orset_relations(ORACLE_SCHEMAS, max_rows=2, uncertain_budget=4),
        chase_dependency_lists(),
        deep_query_trees(min_depth=2, max_depth=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_chased_instances_match_brute_force(self, relations, dependencies, query):
        base_wsd = WSD.from_orset_relations(relations)
        try:
            cleaned = naive.clean(base_wsd.rep(), dependencies)
        except InconsistentWorldSetError:
            assume(False)
        reference = naive.evaluate_query(cleaned, query, "P")
        chased_uwsdt = chase_uwsdt(UWSDT.from_orset_relations(relations), dependencies)
        chased_uwsdt.validate()
        chased_wsd = chase_wsd(WSD.from_orset_relations(relations), dependencies)
        assert_engines_match_reference(reference, chased_uwsdt, chased_wsd, query)

    def test_interacting_egds_keep_independent_component_unmerged(self):
        """Regression: two interacting EGDs used to produce a wrong merged component.

        The first two EGDs force ``A0 != A1``, leaving their merged component
        with the local worlds ``{(0, 1), (1, 0)}``.  The third EGD's premises
        ``A0 = 0 ∧ A1 = 0`` are then *jointly* unsatisfiable, but the old
        per-attribute refinement judged each premise in isolation, saw both as
        still possible, and composed ``A2``'s component in as well — a
        spuriously correlated three-field component.  ``A2`` must stay in its
        own singleton component and the distribution must match brute force.
        """
        relation = OrSetRelation.from_dicts(
            "R",
            ["A0", "A1", "A2"],
            [{"A0": OrSet([0, 1]), "A1": OrSet([0, 1]), "A2": OrSet([0, 1])}],
        )
        dependencies = [
            EqualityGeneratingDependency(
                "R", [Comparison("A0", "=", 0)], Comparison("A1", "!=", 0)
            ),
            EqualityGeneratingDependency(
                "R", [Comparison("A0", "=", 1)], Comparison("A1", "!=", 1)
            ),
            EqualityGeneratingDependency(
                "R",
                [Comparison("A0", "=", 0), Comparison("A1", "=", 0)],
                Comparison("A2", "=", 1),
            ),
        ]

        def attribute_sets(components):
            return sorted(
                tuple(sorted(field.attribute for field in component.fields))
                for component in components
            )

        chased = chase_uwsdt(UWSDT.from_orset_relation(relation), dependencies)
        chased.validate()
        assert attribute_sets(chased.components.values()) == [("A0", "A1"), ("A2",)]
        pair = next(
            component
            for component in chased.components.values()
            if len(component.fields) == 2
        )
        assert sorted(
            tuple(row[pair.position(field)] for field in sorted(pair.fields, key=lambda f: f.attribute))
            for row in pair.rows
        ) == [(0, 1), (1, 0)]

        chased_wsd = chase_wsd(WSD.from_orset_relation(relation), dependencies)
        assert ("A2",) in attribute_sets(chased_wsd.components)

        cleaned = naive.clean(WSD.from_orset_relation(relation).rep(), dependencies)
        assert_same_result_distribution(chased.rep(), cleaned, "R")
        assert_same_result_distribution(chased_wsd.rep(), cleaned, "R")

    def test_multi_template_component_join_matches_brute_force(self):
        """Deterministic: the chase *must* produce a cross-tuple component here,
        and a join over the chased relation must still match brute force."""
        relation = OrSetRelation.from_dicts(
            "R",
            ["A0", "A1", "A2"],
            [
                {"A0": 1, "A1": OrSet([2, 3]), "A2": 0},
                {"A0": 1, "A1": OrSet([2, 4]), "A2": 1},
            ],
        )
        others = [
            OrSetRelation.from_dicts("S", ["B0", "B1", "B2"], [{"B0": 1, "B1": 2, "B2": 3}]),
            OrSetRelation.from_dicts("T", ["C0", "C1", "C2"], [{"C0": 0, "C1": 2, "C2": 4}]),
        ]
        dependency = FunctionalDependency("R", ["A0"], "A1")
        chased_uwsdt = chase_uwsdt(
            UWSDT.from_orset_relations([relation] + others), [dependency]
        )
        chased_uwsdt.validate()
        assert any(
            len({f.tuple_id for f in component.fields}) > 1
            for component in chased_uwsdt.components.values()
        ), "expected the chase to correlate the two R tuples"
        chased_wsd = chase_wsd(WSD.from_orset_relations([relation] + others), [dependency])

        query = (
            BaseRelation("R")
            .join(BaseRelation("S"), "A1", "B1")
            .join(BaseRelation("T"), "B1", "C1")
        )
        base_wsd = WSD.from_orset_relations([relation] + others)
        cleaned = naive.clean(base_wsd.rep(), [dependency])
        reference = naive.evaluate_query(cleaned, query, "P")
        assert_engines_match_reference(reference, chased_uwsdt, chased_wsd, query)


@st.composite
def set_heavy_trees(draw, max_set_depth=2):
    """Union/difference-heavy query shapes.

    A set-algebra tree (∪/− over selection chains, all over one relation so
    the operands stay union-compatible), optionally topped by a selection
    and optionally combined with a second relation's set tree through a
    join or product — the ROADMAP's "difference/union-heavy shapes".
    """

    def set_tree(name, attrs, depth):
        if depth == 0:
            return _schema_preserving(draw, name, attrs)
        left = set_tree(name, attrs, depth - 1)
        right = set_tree(name, attrs, depth - 1)
        op = draw(st.sampled_from(["union", "difference", "intersection", "union"]))
        if op == "union":
            return left.union(right)
        if op == "intersection":
            return left.intersection(right)
        return left.difference(right)

    name = draw(st.sampled_from(sorted(ORACLE_ATTRS)))
    attrs = ORACLE_ATTRS[name]
    depth = draw(st.integers(min_value=1, max_value=max_set_depth))
    query = set_tree(name, attrs, depth)
    if draw(st.booleans()):
        query = query.select(draw(predicates(attrs)))
    if draw(st.booleans()):
        other_name = draw(st.sampled_from(sorted(set(ORACLE_ATTRS) - {name})))
        other_attrs = ORACLE_ATTRS[other_name]
        other = set_tree(other_name, other_attrs, draw(st.integers(min_value=0, max_value=1)))
        if draw(st.booleans()):
            query = query.join(
                other,
                draw(st.sampled_from(sorted(attrs))),
                draw(st.sampled_from(sorted(other_attrs))),
            )
        else:
            query = query.product(other)
    return query


def assert_warm_catalog_plans_match_reference(reference, uwsdt, wsd, query):
    """Plan twice against the same engine — the second plan must be served
    entirely by the statistics catalog (zero sampling) and choose the same
    tree — then execute it and compare against brute force."""
    planned = uwsdt.copy()
    first = query.plan(planned)
    calls_before = sampling_call_count()
    second = query.plan(planned)
    assert sampling_call_count() == calls_before, "warm replanning re-sampled"
    assert second.chosen == first.chosen
    query.run(planned, "P", plan=second)
    planned.validate()
    assert_same_result_distribution(planned.rep(), reference, "P")

    assert_wsd_matches_reference(reference, wsd, query)


class TestUnionDifferenceOracle:
    """ROADMAP's difference/union-heavy shapes, with the catalog enabled."""

    @given(
        budgeted_orset_relations(ORACLE_SCHEMAS, max_rows=2, uncertain_budget=4),
        set_heavy_trees(),
    )
    @settings(max_examples=50, deadline=None)
    def test_set_heavy_shapes_match_brute_force(self, relations, query):
        base_wsd = WSD.from_orset_relations(relations)
        reference = naive.evaluate_query(base_wsd.rep(), query, "P")
        assert_warm_catalog_plans_match_reference(
            reference,
            UWSDT.from_orset_relations(relations),
            WSD.from_orset_relations(relations),
            query,
        )

    def test_difference_of_unions_deterministic(self):
        """(σR ∪ R) − σR over an uncertain relation, every cell."""
        relation = OrSetRelation.from_dicts(
            "R",
            ["A0", "A1", "A2"],
            [
                {"A0": 1, "A1": OrSet([2, 3]), "A2": 0},
                {"A0": 0, "A1": 4, "A2": OrSet([0, 1])},
            ],
        )
        others = [
            OrSetRelation.from_dicts("S", ["B0", "B1", "B2"], [{"B0": 1, "B1": 2, "B2": 3}]),
            OrSetRelation.from_dicts("T", ["C0", "C1", "C2"], [{"C0": 0, "C1": 2, "C2": 4}]),
        ]
        query = (
            BaseRelation("R")
            .select(AttrConst("A0", "=", 1))
            .union(BaseRelation("R"))
            .difference(BaseRelation("R").select(AttrConst("A1", ">=", 3)))
        )
        check = [relation] + others
        base_wsd = WSD.from_orset_relations(check)
        reference = naive.evaluate_query(base_wsd.rep(), query, "P")
        assert_warm_catalog_plans_match_reference(
            reference,
            UWSDT.from_orset_relations(check),
            WSD.from_orset_relations(check),
            query,
        )


#: Schemas for the greedy-fallback fuzz: one more relation than the DP limit.
GREEDY_SCHEMAS = tuple(
    (f"G{i}", (f"G{i}a", f"G{i}b")) for i in range(GREEDY_THRESHOLD + 1)
)


@st.composite
def greedy_chain_cases(draw):
    """A (GREEDY_THRESHOLD+1)-way product chain with consecutive equality
    predicates — the join-order enumerator must take the greedy fallback."""
    relations = draw(
        budgeted_orset_relations(GREEDY_SCHEMAS, max_rows=2, uncertain_budget=2)
    )
    query = BaseRelation(GREEDY_SCHEMAS[0][0])
    for name, _ in GREEDY_SCHEMAS[1:]:
        query = query.product(BaseRelation(name))
    predicates_ = [
        AttrAttr(
            f"G{i - 1}{draw(st.sampled_from('ab'))}",
            "=",
            f"G{i}{draw(st.sampled_from('ab'))}",
        )
        for i in range(1, len(GREEDY_SCHEMAS))
    ]
    return relations, query.select(And(*predicates_))


class TestGreedyFallbackFuzz:
    """End-to-end fuzz of the >8-relation greedy join fallback (catalog on)."""

    @given(greedy_chain_cases())
    @settings(max_examples=10, deadline=None)
    def test_greedy_planned_matches_brute_force(self, case):
        relations, query = case
        assert len(query.base_relations()) > GREEDY_THRESHOLD
        base_wsd = WSD.from_orset_relations(relations)
        reference = naive.evaluate_query(base_wsd.rep(), query, "P")

        uwsdt = UWSDT.from_orset_relations(relations)
        first = query.plan(uwsdt)
        calls_before = sampling_call_count()
        second = query.plan(uwsdt)
        assert sampling_call_count() == calls_before
        assert second.chosen == first.chosen
        query.run(uwsdt, "P", plan=second)
        uwsdt.validate()
        assert_same_result_distribution(uwsdt.rep(), reference, "P")

    @given(greedy_chain_cases())
    @settings(max_examples=10, deadline=None)
    def test_greedy_planned_matches_unplanned_on_database(self, case):
        """The certain worlds of the same inputs through the classical engine."""
        from repro.relational import Database, Relation
        from repro.worlds.orset import is_or_set

        relations, query = case
        certain = Database(
            Relation(
                orset.schema,
                [row for row in orset.rows if not any(is_or_set(v) for v in row)],
            )
            for orset in relations
        )
        planned = run_planned(query, certain, "planned")
        written = query.run(certain, "written", optimize=False)
        assert planned.schema.attributes == written.schema.attributes
        assert planned.row_set() == written.row_set()


class TestConfidenceOracle:
    """Per-tuple confidences must equal exact frequencies over the worlds."""

    @given(
        budgeted_orset_relations(ORACLE_SCHEMAS, max_rows=2, uncertain_budget=3),
        deep_query_trees(min_depth=2, max_depth=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_confidence_matches_world_frequency(self, relations, query):
        base_wsd = WSD.from_orset_relations(relations)
        reference = naive.evaluate_query(base_wsd.rep(), query, "P")
        expected_possible = naive.possible_tuples(reference, "P")

        uwsdt = UWSDT.from_orset_relations(relations)
        query.run(uwsdt, "P", optimize=True)
        ranked = uwsdt_possible_with_confidence(uwsdt, "P")
        assert {row for row, _ in ranked} == expected_possible
        for row, conf in ranked:
            assert conf == pytest.approx(
                reference.tuple_confidence("P", row), abs=1e-6
            )

        wsd = WSD.from_orset_relations(relations)
        evaluate_on_wsd(query, wsd, "P")
        for row in expected_possible:
            assert confidence(wsd, "P", row) == pytest.approx(
                reference.tuple_confidence("P", row), abs=1e-6
            )


def _pad_to_base_schema(relation):
    """Extend a 1-attribute generated relation to the fixed two-attribute schema."""
    padded = OrSetRelation.from_dicts("R", list(BASE_ATTRS), [])
    for row in relation.rows:
        values = list(row) + [0] * (len(BASE_ATTRS) - len(row))
        padded.insert(tuple(values))
    return padded
