"""The possible-worlds oracle: every execution path equals brute force.

Each test below is a *shape* — a family of cases drawn by
:func:`_fixtures.cases` or written out by hand — fed to
:func:`_fixtures.check_oracle`, which computes ``Q`` in every world of the
(cleaned) input once and holds each cell of :data:`_fixtures.CELLS` to it:
the UWSDT planned cold, from the plan cache, verbatim, on a copy planning
from shared statistics and after an insert; the two join algorithms forced;
the WSD as a UWSDT and by Figure 9; on the input's first world, the
classical engine and its Database-only columnar and 2-worker sharded
backends.  Every UWSDT cell is validated and every result tuple's
confidence compared with its exact frequency.

The last test is the scale cell: at 2 000 census rows enumeration is out of
reach, so worlds are *sampled* — every component takes one random local
world — and each is checked against the unchased input, the dependencies
and ``Q`` evaluated on that world alone.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import _database_satisfies
from repro.bench import census_instance
from repro.census import (
    CENSUS_RELATION,
    census_dependencies,
    census_query,
    q6_self_join_product_form,
    q_four_way_join,
    query_names,
)
from repro.core import FieldRef
from repro.core.algebra import BaseRelation, evaluate_on_database
from repro.core.chase import EqualityGeneratingDependency, FunctionalDependency
from repro.core.confidence import uwsdt_possible_with_confidence
from repro.relational import And, AttrAttr, AttrConst, Or, attr_eq, eq, gt
from repro.relational.values import is_placeholder
from repro.worlds import OrSet

from _fixtures import (
    CELLS,
    GREEDY_SCHEMAS,
    Case,
    cases,
    cells,
    check_oracle,
    greedy_chain_queries,
    local_worlds,
    orsets,
    query_trees,
    set_heavy_trees,
    single_relation_cases,
    tuple_in_world,
    world_database,
    world_tuples,
    world_values,
)


# --------------------------------------------------------------------------- #
# Drawn shapes
# --------------------------------------------------------------------------- #


@given(single_relation_cases())
@settings(max_examples=100, deadline=None)
def test_trees_over_one_relation(case):
    check_oracle(case, cells("row", "wsd", "columnar"))


@given(cases())
@settings(max_examples=100, deadline=None)
def test_deep_trees_over_three_relations(case):
    check_oracle(case, cells("row", "wsd", "columnar", "sharded"))


@given(
    cases(
        queries=st.one_of(query_trees(min_depth=2, max_depth=3), set_heavy_trees()),
        dependencies=True,
        max_rows=3,
        uncertain_budget=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_chased_inputs(case):
    """Random FDs/EGDs chased first: multi-template components, and inputs
    no world of which survives (both chases must raise)."""
    check_oracle(case, cells("row", "wsd", "columnar", "sharded"))


@given(cases(queries=st.just(BaseRelation("R")), dependencies=True, max_rows=3, uncertain_budget=5))
@settings(max_examples=150, deadline=None)
def test_chase_equals_per_world_filtering(case):
    check_oracle(case, cells())


@given(cases(queries=set_heavy_trees()))
@settings(max_examples=50, deadline=None)
def test_set_heavy_trees(case):
    check_oracle(case, cells("row", "wsd"))


#: Two union-compatible relations: set operators across relations.
COMPATIBLE_SCHEMAS = (("R", ("A0", "A1")), ("S", ("A0", "A1")))


@given(cases(COMPATIBLE_SCHEMAS, set_heavy_trees(COMPATIBLE_SCHEMAS), max_rows=3))
@settings(max_examples=40, deadline=None)
def test_set_operators_across_relations(case):
    check_oracle(case, cells("row", "columnar"))


JOIN_SCHEMAS = (("R", ("A0", "A1")), ("S", ("B0", "B1")))


@st.composite
def equi_joins(draw):
    query = BaseRelation("R").join(
        BaseRelation("S"), draw(st.sampled_from(["A0", "A1"])), draw(st.sampled_from(["B0", "B1"]))
    )
    if draw(st.booleans()):
        query = query.select(AttrConst("A0", draw(st.sampled_from(["=", "!="])), 1))
    return query


@given(cases(JOIN_SCHEMAS, equi_joins()))
@settings(max_examples=60, deadline=None)
def test_equi_joins_under_both_join_algorithms(case):
    check_oracle(case, cells("row", "join"))


@given(cases(GREEDY_SCHEMAS, greedy_chain_queries(), uncertain_budget=2))
@settings(max_examples=10, deadline=None)
def test_greedy_join_order_chains(case):
    """More relations than the join-order DP takes: the greedy fallback."""
    check_oracle(case, cells("row", "database"))


THREE_WAY_CHAIN = (
    BaseRelation("R")
    .product(BaseRelation("S"))
    .product(BaseRelation("T"))
    .select(AttrAttr("A0", "=", "B0"))
    .select(AttrAttr("B1", "=", "C1"))
)


@given(cases(queries=st.just(THREE_WAY_CHAIN), uncertain_budget=3))
@settings(max_examples=25, deadline=None)
def test_three_way_product_chain(case):
    """The join-order enumerator's home turf: σ over a ×-chain of R, S, T."""
    check_oracle(case, cells("row", "wsd", "columnar"))


FUSED_JOIN = (
    BaseRelation("R")
    .product(BaseRelation("R").rename("A0", "W0").rename("A1", "W1"))
    .select(AttrAttr("A1", "=", "W0"))
    .project(["A0", "W1"])
)


@given(cases((("R", ("A0", "A1")),), st.just(FUSED_JOIN), max_rows=2))
@settings(max_examples=20, deadline=None)
def test_select_over_product_fused_into_a_join(case):
    check_oracle(case, cells("row", "wsd", "columnar"))


# --------------------------------------------------------------------------- #
# Cases written out
# --------------------------------------------------------------------------- #


ABC = orsets(
    "R", "ABC", (1, OrSet([1, 2]), 7), (OrSet([4, 5]), 3, 0), (6, 6, OrSet([7, 0]))
)
TWO_UNCERTAIN = orsets("R", "AB", (OrSet([1, 2]), OrSet([1, 2])), (3, 3))
R = BaseRelation("R")

#: R with two uncertain rows, and certain S and T.
RST = (
    orsets("R", ("A0", "A1", "A2"), (1, OrSet([2, 3]), 0), (0, 4, OrSet([0, 1]))),
    orsets("S", ("B0", "B1", "B2"), (1, 2, 3)),
    orsets("T", ("C0", "C1", "C2"), (0, 2, 4)),
)

#: An equality conjunct's bucket and the rows it skips: A = 1 with a ``?`` on
#: B; a ``?`` on A; a ``?`` on both; a certain A ≠ 1 with a ``?`` on B (the
#: row an IndexScan keyed on A = 1 never visits); certain rows either way.
KEYED = orsets(
    "R",
    "ABC",
    (1, OrSet([2, 5]), 0),
    (OrSet([1, 3]), 4, 1),
    (OrSet([1, 2]), OrSet([3, 6]), 2),
    (2, OrSet([4, 5]), 3),
    (1, 6, 4),
    (1, 1, 5),
)
#: Selections over KEYED that lower to an IndexScan with a residual.
KEYED_SELECTIONS = {
    "A = c and B > d": And(eq("A", 1), gt("B", 3)),
    "B > d and A = c": And(gt("B", 3), eq("A", 1)),
    "two equalities, the key chosen": And(eq("A", 1), eq("B", 6)),
    "two equalities on one attribute": And(eq("A", 1), eq("A", 2)),
    "an equality and a disjunction": And(eq("A", 1), Or(eq("B", 5), gt("C", 3))),
}

#: R with a row two worlds repeat, S union-compatible with it, and U with
#: attributes disjoint from R's.
LAW_R = orsets("R", "AB", (1, OrSet([1, 2])), (OrSet([1, 3]), 2), (1, 2))
LAW_S = orsets("S", "AB", (OrSet([1, 3]), 2), (1, OrSet([2, 4])))
LAW_U = orsets("U", "CD", (OrSet([1, 3]), 0), (2, OrSet([5, 6])))
P_AND_Q = (eq("A", 1), gt("B", 1))

#: Algebraic laws, each with its input and its sides: every side is a
#: written case (that the sides agree in every world is the Database's
#: law, ``test_set_laws.py``).
LAWS = {
    "union is idempotent": ((LAW_R,), (R.union(R), R)),
    "projection collapses duplicates": ((LAW_R,), (R.project(["A"]), R.project(["A"]).project(["A"]))),
    "selections commute and fuse": (
        (LAW_R,),
        (
            R.select(P_AND_Q[0]).select(P_AND_Q[1]),
            R.select(P_AND_Q[1]).select(P_AND_Q[0]),
            R.select(And(*P_AND_Q)),
        ),
    ),
    "rename round trip": ((LAW_R,), (R.rename("A", "Z").rename("Z", "A"), R)),
    "intersection is double difference": (
        (LAW_R, LAW_S),
        (R.intersection(BaseRelation("S")), R.difference(R.difference(BaseRelation("S")))),
    ),
    "join is a selection over the product": (
        (LAW_R, LAW_U),
        (
            R.join(BaseRelation("U"), "A", "C"),
            R.product(BaseRelation("U")).select(AttrAttr("A", "=", "C")),
        ),
    ),
}

#: Regression: two interacting EGDs used to produce a wrong merged component.
INTERACTING_EGDS = Case(
    (orsets("R", ("A0", "A1", "A2"), (OrSet([0, 1]), OrSet([0, 1]), OrSet([0, 1]))),),
    R.select(AttrAttr("A0", "<", "A1")).project(["A2"]),
    (
        EqualityGeneratingDependency("R", [AttrConst("A0", "=", 0)], AttrConst("A1", "!=", 0)),
        EqualityGeneratingDependency("R", [AttrConst("A0", "=", 1)], AttrConst("A1", "!=", 1)),
        EqualityGeneratingDependency(
            "R",
            [AttrConst("A0", "=", 0), AttrConst("A1", "=", 0)],
            AttrConst("A2", "=", 1),
        ),
    ),
)

#: A join over a relation whose chase correlates two of its tuples.
MULTI_TEMPLATE_JOIN = Case(
    (orsets("R", ("A0", "A1", "A2"), (1, OrSet([2, 3]), 0), (1, OrSet([2, 4]), 1)), *RST[1:]),
    R.join(BaseRelation("S"), "A1", "B1").join(BaseRelation("T"), "B1", "C1"),
    (FunctionalDependency("R", ["A0"], "A1"),),
)

#: Set semantics of the certain rows against the open ones: R's certain row
#: (1, 2) is also one alternative of its open row, and of S's and T's.
OVERLAP_R = orsets("R", "AB", (1, 2), (1, 3), (OrSet([1, 4]), 2))
OVERLAP_S = orsets("S", "AB", (OrSet([1, 3]), 2), (5, 6))
OVERLAP_T = orsets("T", "CD", (1, 9), (OrSet([1, 7]), 8))
#: Certain rows equal across int, float and bool: one row, as on a Database.
EQUAL_ACROSS_TYPES = orsets("R", "A", (1,), (1.0,), (True,), (OrSet([0, 1.0]),), ("1",))
#: ∪ tags R's open row 1 as ``("R", 1)``; S's certain row holds those very
#: values, and the join with T's open row turns both open.
TID_COLLISION = (
    orsets("R", "AB", ("R", OrSet([1, 2]))),
    orsets("S", "AB", ("R", 1)),
    orsets("T", "CD", (OrSet(["R", "y"]), 0)),
)

#: R − S turns R's certain row (1, 2) open under S's (?, 2); a reordering π
#: keeps that open row's tuple id and makes (2, 1) the certain row (1, 2).
#: U and V hold open rows, so × and ⋈ with U and − of V pair that certain
#: row, or turn it open, beside the open row it once was.
REORDERED = (
    orsets("R", "AB", (1, 2), (2, 1)),
    orsets("S", "AB", (OrSet([1, 3]), 2)),
    orsets("U", "CD", (OrSet([1, 2]), 0)),
    orsets("V", "BA", (OrSet([1, 2]), 2)),
)
REORDERED_DIFFERENCE = R.difference(BaseRelation("S")).project(["B", "A"])

SET_SEMANTICS_CASES = {
    "two certain rows equal under π": Case((OVERLAP_R,), R.project(["A"])),
    "a certain row equals an open row's alternative, under π": Case(
        (OVERLAP_R,), R.project(["A", "B"]).project(["B"])
    ),
    "a certain row equals an open row's alternative, under ∪": Case(
        (OVERLAP_R, OVERLAP_S), R.union(BaseRelation("S"))
    ),
    "a certain row equals an open row's alternative, under −": Case(
        (OVERLAP_R, OVERLAP_S), R.difference(BaseRelation("S"))
    ),
    "an open row may equal a certain row, under −": Case(
        (OVERLAP_R, OVERLAP_S), BaseRelation("S").difference(R)
    ),
    "a certain row equals an open row's alternative, under ⋈": Case(
        (OVERLAP_R, OVERLAP_T), R.join(BaseRelation("T"), "A", "C")
    ),
    "certain rows 1, 1.0 and True collapse": Case((EQUAL_ACROSS_TYPES,), R),
    "certain rows 1, 1.0 and True collapse, under π and σ": Case(
        (EQUAL_ACROSS_TYPES,), R.select(eq("A", 1)).project(["A"])
    ),
    "a union tid equal to a certain row's values, joined": Case(
        TID_COLLISION, R.union(BaseRelation("S")).join(BaseRelation("T"), "A", "C")
    ),
    "a certain row turned open, reordered by π, then ×": Case(
        REORDERED, REORDERED_DIFFERENCE.product(BaseRelation("U"))
    ),
    "a certain row turned open, reordered by π, then ⋈": Case(
        REORDERED, REORDERED_DIFFERENCE.join(BaseRelation("U"), "B", "C")
    ),
    "a certain row turned open, reordered by π, then −": Case(
        REORDERED, REORDERED_DIFFERENCE.difference(BaseRelation("V"))
    ),
}

EXPLICIT_CASES = {
    **SET_SEMANTICS_CASES,
    "select a constant": Case((ABC,), R.select(eq("C", 7))),
    "select a constant no value has": Case((ABC,), R.select(eq("A", 99))),
    "select a conjunction and a disjunction": Case(
        (ABC,), R.select(And(gt("A", 1), Or(eq("C", 7), eq("B", 3))))
    ),
    "select A = B": Case((ABC,), R.select(attr_eq("A", "B"))),
    "select A = B, both uncertain in one tuple": Case((TWO_UNCERTAIN,), R.select(attr_eq("A", "B"))),
    "project": Case((ABC,), R.project(["A", "B"])),
    "project after select keeps presence": Case((ABC,), R.select(eq("C", 7)).project(["A"])),
    "project away the uncertain attribute": Case((ABC,), R.select(eq("B", 1)).project(["C"])),
    "rename": Case((ABC,), R.rename("A", "X")),
    "union": Case((ABC,), R.select(eq("C", 7)).union(R.select(eq("B", 3)))),
    "difference": Case(
        (orsets("R", "AB", (1, OrSet([1, 2])), (OrSet([1, 3]), 2)),),
        R.difference(R.select(eq("B", 2))),
    ),
    "difference, certain left and uncertain right": Case(
        (orsets("R", "AB", (1, 2), (OrSet([1, 9]), 2)),),
        R.select(eq("A", 1)).difference(R.select(gt("A", 5))),
    ),
    "difference of two relations, certain left and uncertain right": Case(
        (orsets("R", "AB", (1, 2), (3, 4)), orsets("S", "AB", (OrSet([1, 3]), 2))),
        R.difference(BaseRelation("S")),
    ),
    "intersection of two relations": Case(
        (orsets("R", "AB", (1, 2), (OrSet([3, 5]), 4)), orsets("S", "AB", (OrSet([1, 3]), OrSet([2, 4])))),
        R.intersection(BaseRelation("S")),
    ),
    "product of two relations": Case(
        (orsets("R", "A", (OrSet([1, 2]),), (3,)), orsets("S", "B", (OrSet([7, 8]),))),
        R.product(BaseRelation("S")),
    ),
    "self-join": Case(
        (orsets("R", "AB", (1, OrSet([1, 2])), (2, 1)),),
        R.rename("A", "A1")
        .rename("B", "B1")
        .join(R.rename("A", "A2").rename("B", "B2"), "B1", "A2"),
    ),
    "select, select, project": Case(
        (ABC,), R.select(Or(eq("C", 7), eq("C", 0))).select(gt("A", 0)).project(["A", "C"])
    ),
    "difference of unions": Case(
        RST,
        R.select(AttrConst("A0", "=", 1))
        .union(R)
        .difference(R.select(AttrConst("A1", ">=", 3))),
    ),
    "an FD correlates two tuples": Case(
        (orsets("R", "AB", (1, OrSet([2, 3])), (1, OrSet([3, 4]))),),
        R.project(["B"]),
        (FunctionalDependency("R", ["A"], "B"),),
    ),
    "an EGD with a certain premise fixes a ?": Case(
        (orsets("R", "AB", (1, OrSet([2, 3])), (OrSet([1, 2]), 5)),),
        R.select(gt("B", 1)),
        (EqualityGeneratingDependency("R", [AttrConst("A", "=", 1)], AttrConst("B", "!=", 3)),),
    ),
    "dependencies no world satisfies": Case(
        (orsets("R", "AB", (1, OrSet([2, 3]))),),
        R,
        (EqualityGeneratingDependency("R", [AttrConst("A", "=", 1)], AttrConst("B", "=", 9)),),
    ),
    **{
        f"keyed selection: {label}": Case((KEYED,), R.select(predicate))
        for label, predicate in KEYED_SELECTIONS.items()
    },
    "keyed selection, projected": Case(
        (KEYED,), R.select(And(eq("A", 1), gt("B", 3))).project(["C"])
    ),
    "interacting EGDs": INTERACTING_EGDS,
    "a join over a multi-template component": MULTI_TEMPLATE_JOIN,
    **{
        f"{law}, side {number}": Case(relations, side)
        for law, (relations, sides) in LAWS.items()
        for number, side in enumerate(sides, 1)
    },
}


@pytest.mark.parametrize("case", EXPLICIT_CASES.values(), ids=EXPLICIT_CASES.keys())
def test_written_cases(case):
    check_oracle(case, CELLS)


@pytest.mark.parametrize("predicate", KEYED_SELECTIONS.values(), ids=KEYED_SELECTIONS.keys())
def test_keyed_selections_lower_to_an_index_scan(predicate):
    """The written keyed cases run the IndexScan with a residual, on a
    UWSDT and on a world of it."""
    case = Case((KEYED,), R.select(predicate))
    for engine in (case.uwsdt(), next(iter(case.wsd().rep())).database):
        (scan,) = R.select(predicate).physical_plan(engine).root.walk()
        assert scan.op_name == "IndexScan" and scan.predicate == predicate
        assert scan.key in predicate.parts and scan.key.op == "="


def attribute_sets(components):
    return sorted(tuple(sorted(f.attribute for f in component.fields)) for component in components)


def test_interacting_egds_keep_independent_component_unmerged():
    """The first two EGDs of ``INTERACTING_EGDS`` force ``A0 != A1``,
    leaving their merged component with the local worlds ``{(0, 1), (1, 0)}``.
    The third EGD's premises ``A0 = 0 ∧ A1 = 0`` are then *jointly*
    unsatisfiable, but the old per-attribute refinement judged each premise
    in isolation, saw both as still possible, and composed ``A2``'s
    component in as well — a spuriously correlated three-field component.
    ``A2`` must stay in its own singleton component (the cells are held to
    brute force as a written case)."""
    chased = INTERACTING_EGDS.uwsdt()
    assert attribute_sets(chased.components.values()) == [("A0", "A1"), ("A2",)]
    pair = next(c for c in chased.components.values() if len(c.fields) == 2)
    order = sorted(pair.fields, key=lambda f: f.attribute)
    assert sorted(tuple(row[pair.position(f)] for f in order) for row in pair.rows) == [
        (0, 1),
        (1, 0),
    ]
    assert ("A2",) in attribute_sets(INTERACTING_EGDS.wsd().components)


def test_multi_template_component_join():
    """The chase *must* correlate the two R tuples of ``MULTI_TEMPLATE_JOIN``
    (the cells are held to brute force as a written case)."""
    assert any(
        len({f.tuple_id for f in component.fields}) > 1
        for component in MULTI_TEMPLATE_JOIN.uwsdt().components.values()
    )


# --------------------------------------------------------------------------- #
# The scale cell: sampled worlds of the chased census
# --------------------------------------------------------------------------- #

WORLDS_PER_SEED = 5
SCALE_QUERIES = [(name, census_query(name)) for name in query_names()] + [
    ("four_way", q_four_way_join()),
    ("Q6_self_join", q6_self_join_product_form()),
]
#: A relation's confidences are recomputed exactly when every group of
#: components its tuples connect has fewer local worlds than this.
EXACT_CONFIDENCE_WORLDS = 4096


def assert_a_world_of_the_input(loaded, census):
    """Every open tuple of the unchased input is in the world: certain fields
    unchanged, each ``?`` one of its or-set's alternatives."""
    open_rows = {row[0]: row[1:] for row in loaded.templates[CENSUS_RELATION].open}
    assert set(census) == set(open_rows)
    attributes = loaded.schema.relation(CENSUS_RELATION).attributes
    for tid, template in open_rows.items():
        for attribute, given, value in zip(attributes, template, census[tid]):
            if is_placeholder(given):
                field = FieldRef(CENSUS_RELATION, tid, attribute)
                assert value in loaded.components[loaded.component_of(field)].column(field)
            else:
                assert value == given


def tuple_groups(uwsdt, name):
    """The uncertain tuples of a relation, grouped into the connected parts
    of the graph in which a component links the tuples it has a ``?`` of:
    ``[(component ids, tuple ids)]``."""
    owner = {}  # component id -> the group it was merged into
    groups = {}
    for tid, attributes in uwsdt.uncertain_tuples(name).items():
        cids = {uwsdt.component_of(FieldRef(name, tid, a)) for a in attributes}
        merged = ({*cids}, [tid])
        for key in {owner[cid] for cid in cids if cid in owner}:
            other = groups.pop(key)
            merged[0].update(other[0])
            merged[1].extend(other[1])
        groups[tid] = merged
        for cid in merged[0]:
            owner[cid] = tid
    return [(sorted(cids), tids) for cids, tids in groups.values()]


def assert_exact_confidences(uwsdt, name):
    """Every result tuple's confidence, recomputed from the local worlds of
    each tuple group: ``1 − Π (1 − mass in group)``, and 1 for a certain
    row.  Returns False, checking nothing, when a group is too large."""
    groups = tuple_groups(uwsdt, name)
    sizes = [math.prod(len(uwsdt.components[c].rows) for c in cids) for cids, _ in groups]
    if any(size >= EXACT_CONFIDENCE_WORLDS for size in sizes):
        return False
    template = uwsdt.templates[name]
    open_rows = {row[0]: row for row in template.open}
    expected = dict.fromkeys(template.certain, 0.0)  # the probability that no tuple is the row
    for cids, tids in groups:
        mass = {}
        for values, probability in local_worlds(uwsdt, cids):
            produced = {tuple_in_world(uwsdt, name, open_rows[tid], values) for tid in tids}
            for row in produced - {None}:
                mass[row] = mass.get(row, 0.0) + probability
        for row, row_mass in mass.items():
            expected[row] = expected.get(row, 1.0) * (1.0 - row_mass)
    ranked = dict(uwsdt_possible_with_confidence(uwsdt, name))
    assert ranked == pytest.approx({row: 1.0 - p for row, p in expected.items()}, abs=1e-9), name
    return True


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_census_worlds(seed):
    """Every sampled world is a world of the unchased input that satisfies
    the dependencies, and each planned result holds in it what
    ``evaluate_on_database`` computes from that world's ``R``; confidences
    are exact."""
    instance = census_instance(2000, 0.01, seed)
    uwsdt, loaded = instance.chased(), instance.uwsdt
    assert uwsdt.component_count() > 0
    for name, query in SCALE_QUERIES:
        query.run(uwsdt, name)
    rng = random.Random(seed)
    for _ in range(WORLDS_PER_SEED):
        choices = {cid: rng.randrange(len(c.rows)) for cid, c in uwsdt.components.items()}
        values = world_values(uwsdt, choices)
        tuples = world_tuples(uwsdt, values, CENSUS_RELATION)
        assert_a_world_of_the_input(loaded, tuples)
        census = world_database(uwsdt, values, {CENSUS_RELATION})
        for dependency in census_dependencies():
            assert _database_satisfies(census, dependency), dependency
        world = world_database(uwsdt, values, {name for name, _ in SCALE_QUERIES})
        for name, query in SCALE_QUERIES:
            expected = evaluate_on_database(query, census).row_set()
            assert world.relation(name).row_set() == expected, name
    assert sum(assert_exact_confidences(uwsdt, name) for name, _ in SCALE_QUERIES) >= 6
