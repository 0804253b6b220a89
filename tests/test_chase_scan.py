"""The UWSDT chase as one selection per relation plus an index walk.

An EGD's violation condition is a ``Predicate``; a relation's template rows
are read once by the generated scan (``Predicate.compile_scan``) of the
disjunction of its EGDs' violations (EGDs with equal premises one disjunct,
so a shared premise is tested once), each EGD then judges those candidates
with its own scan, and only placeholder rows reach their components.
Pinned here: the per-row work is gone (exact counts, not timings), the
shared scan raises what one full scan per EGD raised, ``?`` cells never
turn into certain violations, a bad operator cannot be constructed, and a
certain violation leaves the UWSDT untouched.  That the chase equals
per-world filtering of ``rep()`` is the possible-worlds oracle's.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import census_instance
from repro.census import CensusGenerator, census_dependencies, census_schema
from repro.core import UWSDT, chase
from repro.core.chase import (
    EqualityGeneratingDependency,
    FunctionalDependency,
    chase_uwsdt,
)
from repro.obs.metrics import get_registry
from repro.relational import (
    BOTTOM,
    PLACEHOLDER,
    And,
    AttrAttr,
    AttrConst,
    InconsistentWorldSetError,
    Predicate,
    PredicateError,
    RepresentationError,
    eq,
)
from repro.relational.predicates import _code
from repro.worlds import OrSet, OrSetRelation

from test_placeholder_index import chase_digest

COUNTERS = ("rows_scanned", "rows_through_components", "local_worlds_removed")


def chase_counters():
    registry = get_registry()
    return [registry.counter(f"repro.chase.{name}").value for name in COUNTERS]


# --------------------------------------------------------------------------- #
# (a) The per-row work is gone
# --------------------------------------------------------------------------- #


class TestWorkCounts:
    def test_census_chase_calls_no_holds_for_and_few_compares(self, monkeypatch):
        # Built before wrapping: the generator itself reads the dependencies.
        instance = census_instance(2000, 0.001, seed=42)
        reference, uwsdt = instance.chased(), instance.uwsdt.copy()
        dependencies = census_dependencies()
        # The template rows violating some EGD by its specification, ``?`` read
        # as a value: the candidates each EGD's own scans read after the one
        # shared scan.  No certain row violates; these are open rows.
        template = uwsdt.templates["R"]
        candidates = sum(
            any(not egd.holds_for(dict(zip(side.schema.attributes, row))) for egd in dependencies)
            for side in (template.certain, template.open)
            for row in side
        )

        calls = {"holds_for": 0, "compare": 0}
        holds_for, compare = EqualityGeneratingDependency.holds_for, chase.compare

        def counted_holds_for(self, values):
            calls["holds_for"] += 1
            return holds_for(self, values)

        def counted_compare(left, symbol, right):
            calls["compare"] += 1
            return compare(left, symbol, right)

        monkeypatch.setattr(EqualityGeneratingDependency, "holds_for", counted_holds_for)
        monkeypatch.setattr(chase, "compare", counted_compare)

        rows, size = uwsdt.template_size("R"), uwsdt.component_relation_size()
        open_fields = len(uwsdt.field_to_cid)
        before = chase_counters()
        chase_uwsdt(uwsdt, census_dependencies())
        scanned, through_components, removed = (
            after - start for after, start in zip(chase_counters(), before)
        )

        # The parent made ≈ 24 000 holds_for and ≈ 33 000 compare calls here.
        assert calls["holds_for"] == 0
        assert 0 < calls["compare"] <= size
        # The template once for all 12 EGDs, then each EGD the candidates only
        # (a scan per EGD read 12 × 2 000).
        assert scanned == rows + len(census_dependencies()) * candidates == 2036
        # A row reaches components once per dependency naming one of its ?s.
        assert 0 < through_components <= len(census_dependencies()) * open_fields
        # Single-placeholder components: a removed local world is a removed value.
        assert removed == size - uwsdt.component_relation_size() > 0
        assert chase_digest(uwsdt) == chase_digest(reference)

    def test_benchmark_input_counts_are_pinned(self, monkeypatch):
        # perfbench's ``chase_uncertain`` input: 10 000 rows at 0.1 %, seed 42.
        generator = CensusGenerator(seed=42)
        noisy = generator.add_noise(generator.clean_relation(10000), 0.001)
        sources = []
        compile_both = Predicate.compile_both

        def counted(predicate, schema):
            sources.append(predicate)
            return compile_both(predicate, schema)

        monkeypatch.setattr(Predicate, "compile_both", counted)
        registry = get_registry()
        names = ("repro.chase.rows_scanned", "repro.predicates.code_generated")
        _code.cache_clear()
        # Per relation the shared certain and open scans, per EGD its own
        # open rows' source (two EGDs of one shape share a code object);
        # the template once plus 12 candidates per EGD.  A second chase
        # compiles nothing.
        for generated in (13, 0):
            del sources[:]
            before = [registry.counter(name).value for name in names]
            chase_uwsdt(UWSDT.from_orset_relation(noisy), census_dependencies())
            moved = [registry.counter(name).value - start for name, start in zip(names, before)]
            assert moved == [10144, generated]
            assert len(sources) == 14

    def test_fd_chase_counts_its_rows_too(self):
        uwsdt = UWSDT.from_orset_relation(
            OrSetRelation.from_dicts(
                "R", ["A", "B"], [{"A": 1, "B": 1}, {"A": OrSet([1, 2]), "B": 2}, {"A": 3, "B": 7}]
            )
        )
        before = chase_counters()
        chase_uwsdt(uwsdt, [FunctionalDependency("R", ["A"], "B")])
        assert [after - start for after, start in zip(chase_counters(), before)] == [3, 1, 1]


# --------------------------------------------------------------------------- #
# (c) A ? cell is reported by the scan at most, never raised
# --------------------------------------------------------------------------- #


class TestPlaceholderRowsAreNotCertainViolations:
    def _uwsdt(self):
        return UWSDT.from_orset_relation(
            OrSetRelation.from_dicts(
                "R", ["A", "B"], [{"A": 1, "B": OrSet([1, 2, 9])}, {"A": 2, "B": 0}]
            )
        )

    @pytest.mark.parametrize(
        "op, constant, reported, survivors",
        [
            ("=", 2, True, {2}),
            ("!=", 2, False, {1, 9}),  # ``? != 2`` is true: the scan passes the row
            ("<", 5, True, {1, 2}),  # ``? < 5`` raises TypeError: re-judged by holds_for
        ],
    )
    def test_placeholder_conclusion(self, op, constant, reported, survivors):
        uwsdt = self._uwsdt()
        dependency = EqualityGeneratingDependency(
            "R", [AttrConst("A", "=", 1)], AttrConst("B", op, constant)
        )
        opened = uwsdt.templates["R"].open
        scan = chase._Violation(dependency).compile_scan(opened.schema)
        assert [row[0] for row in scan(opened)] == ([1] if reported else [])

        chase_uwsdt(uwsdt, [dependency])
        uwsdt.validate()
        assert {frozenset(world.database.relation("R").rows) for world in uwsdt.rep()} == {
            frozenset({(1, b), (2, 0)}) for b in survivors
        }

    def test_placeholder_premise_with_a_false_certain_conclusion(self):
        uwsdt = UWSDT.from_orset_relation(
            OrSetRelation.from_dicts("R", ["A", "B"], [{"A": OrSet([3, 4]), "B": 7}])
        )
        dependency = EqualityGeneratingDependency(
            "R", [AttrConst("A", "!=", 3)], AttrConst("B", "<", 5)
        )
        opened = uwsdt.templates["R"].open
        assert chase._Violation(dependency).compile_scan(opened.schema)(opened)
        chase_uwsdt(uwsdt, [dependency])
        assert [set(world.database.relation("R").rows) for world in uwsdt.rep()] == [{(3, 7)}]

    def test_every_local_world_violating_still_raises(self):
        dependency = EqualityGeneratingDependency(
            "R", [AttrConst("A", "=", 1)], AttrConst("B", "=", 5)
        )
        with pytest.raises(InconsistentWorldSetError, match="inconsistent"):
            chase_uwsdt(self._uwsdt(), [dependency])


# --------------------------------------------------------------------------- #
# Fail before the first component is touched
# --------------------------------------------------------------------------- #


class TestNothingIsHalfApplied:
    def test_unknown_operator_cannot_be_constructed(self):
        with pytest.raises(PredicateError, match="unknown comparison operator '~'"):
            AttrConst("A", "~", 1)
        with pytest.raises(PredicateError):
            # The second dependency of a list can no longer be built, let alone half-applied.
            [
                EqualityGeneratingDependency("R", [AttrConst("A", "=", 1)], AttrConst("B", "=", 1)),
                EqualityGeneratingDependency("R", [AttrConst("A", "~", 1)], AttrConst("B", "=", 1)),
            ]

    @pytest.mark.parametrize(
        "atom",
        [AttrAttr("A", "=", "B"), And(eq("A", 1), eq("B", 1)), ("A", "=", 1)],
        ids=["AttrAttr", "And", "tuple"],
    )
    def test_an_atom_that_is_no_attr_const_cannot_be_constructed(self, atom):
        for premises, conclusion in (([atom], eq("B", 1)), ([eq("A", 1)], atom)):
            with pytest.raises(RepresentationError, match=re.escape(repr(atom))):
                EqualityGeneratingDependency("R", premises, conclusion)

    def _uwsdt(self):
        return UWSDT.from_orset_relation(
            OrSetRelation.from_dicts(
                "R", ["A", "B"], [{"A": 1, "B": OrSet([1, 2])}, {"A": 3, "B": 7}]
            )
        )

    def test_certain_violation_of_a_later_egd_leaves_the_uwsdt_untouched(self):
        removes_worlds = EqualityGeneratingDependency(
            "R", [AttrConst("A", "=", 1)], AttrConst("B", "=", 2)
        )
        certainly_violated = EqualityGeneratingDependency(
            "R", [AttrConst("A", "=", 3)], AttrConst("B", "<", 5)
        )
        uwsdt = self._uwsdt()
        before = chase_digest(uwsdt)
        with pytest.raises(InconsistentWorldSetError, match=r"certain tuple \(3, 7\)"):
            chase_uwsdt(uwsdt, [removes_worlds, certainly_violated])
        assert chase_digest(uwsdt) == before
        # The first dependency alone does remove a local world.
        assert chase_digest(chase_uwsdt(uwsdt, [removes_worlds])) != before

    def test_unsupported_dependency_leaves_the_uwsdt_untouched(self):
        uwsdt = self._uwsdt()
        before = chase_digest(uwsdt)
        removes_worlds = EqualityGeneratingDependency(
            "R", [AttrConst("A", "=", 1)], AttrConst("B", "=", 2)
        )
        with pytest.raises(RepresentationError, match="unsupported dependency"):
            chase_uwsdt(uwsdt, [removes_worlds, "not a dependency"])
        assert chase_digest(uwsdt) == before


# --------------------------------------------------------------------------- #
# The shared scan raises what a full scan per EGD raised
# --------------------------------------------------------------------------- #


def reference_chase(uwsdt, dependencies):
    """The chase with one full scan of the template per EGD, as it was before
    a relation's EGDs shared one scan; the uncertain side is the chase's own."""
    steps = []
    for dependency in dependencies:
        if isinstance(dependency, EqualityGeneratingDependency):
            steps.append((dependency, reference_check(uwsdt, dependency)))
        elif isinstance(dependency, FunctionalDependency):
            steps.append((dependency, None))
        else:
            raise RepresentationError(f"unsupported dependency {dependency!r}")
    for dependency, violated in steps:
        if violated is None:
            chase._chase_fd_uwsdt(uwsdt, dependency)
        else:
            scanned = len(uwsdt.templates[dependency.relation])
            chase._chase_egd_uwsdt(uwsdt, dependency, violated, scanned)
    return uwsdt


def reference_check(uwsdt, dependency):
    relation = dependency.relation
    template = uwsdt.templates[relation]
    violation = chase._Violation(dependency)
    violating = violation.compile_scan(template.certain.schema)(template.certain)
    violated, scan = violation.compile_both(template.open.schema)
    positions = [template.open.schema.position(a) for a in dependency.attributes()]
    violating += [
        row[1:] for row in scan(template.open) if all(row[p] is not PLACEHOLDER for p in positions)
    ]
    if violating:
        raise InconsistentWorldSetError(
            f"certain tuple {violating[0]!r} of {relation!r} violates {dependency!r} "
            "in every world"
        )
    return violated


SCHEMAS = {"R": ("A", "B", "C"), "S": ("A", "B")}
# Mixed types: an ordering atom over them raises TypeError and is re-judged.
_values = st.sampled_from([0, 1, 2, 1.5, "x", "y", None])
_cells = st.one_of(  # two certain cells to one or-set, whose ⊥ may drop the row
    _values,
    _values,
    st.lists(st.one_of(_values, st.just(BOTTOM)), min_size=1, max_size=3).map(
        lambda values: OrSet(list(dict.fromkeys(values)))  # distinct under ==
    ),
)


def _orset_relation(name):
    width = len(SCHEMAS[name])
    rows = st.lists(st.lists(_cells, min_size=width, max_size=width), max_size=5)
    return rows.map(
        lambda rows: OrSetRelation.from_dicts(
            name, SCHEMAS[name], [dict(zip(SCHEMAS[name], row)) for row in rows]
        )
    )


_ops = st.sampled_from(["=", "!=", "<", ">="])


@st.composite
def _dependency(draw, shared_premises):
    relation = draw(st.sampled_from(sorted(SCHEMAS)))
    attributes = st.sampled_from(SCHEMAS[relation])
    if draw(st.integers(0, 3)) == 0:
        determinant, dependent = draw(st.permutations(SCHEMAS[relation]))[:2]
        return FunctionalDependency(relation, [determinant], dependent)
    atoms = st.builds(AttrConst, attributes, _ops, _values)
    if draw(st.booleans()):  # equal premises, not the same objects
        premises = [AttrConst(p.attribute, p.op, p.constant) for p in draw(shared_premises)]
    else:
        premises = draw(st.lists(atoms, min_size=1, max_size=2))
    return EqualityGeneratingDependency(relation, premises, draw(atoms))


@st.composite
def _dependencies(draw):
    # A pool of premise lists over the attributes both relations have, so
    # that EGDs of one relation often share their premises (one disjunct).
    common = st.builds(AttrConst, st.sampled_from(("A", "B")), _ops, _values)
    pool = draw(st.lists(st.lists(common, max_size=2), min_size=1, max_size=2))
    dependencies = draw(st.lists(_dependency(st.sampled_from(pool)), min_size=1, max_size=6))
    if draw(st.booleans()):
        dependencies.insert(draw(st.integers(0, len(dependencies))), "not a dependency")
    return dependencies


def _outcome(chase_function, uwsdt, dependencies):
    try:
        chase_function(uwsdt, dependencies)
    except (InconsistentWorldSetError, RepresentationError) as error:
        return type(error), str(error), chase_digest(uwsdt)
    return None, None, chase_digest(uwsdt)


class TestSharedScanMatchesOneScanPerEgd:
    @settings(max_examples=300, deadline=None)
    @given(_orset_relation("R"), _orset_relation("S"), _dependencies())
    def test_same_error_same_row_same_result(self, r, s, dependencies):
        uwsdt = UWSDT.from_orset_relations([r, s])
        before = chase_digest(uwsdt)
        expected = _outcome(reference_chase, uwsdt.copy(), dependencies)
        assert _outcome(chase_uwsdt, uwsdt.copy(), dependencies) == expected
        error, message, after = expected
        if error is RepresentationError or (message or "").startswith("certain tuple "):
            # Raised by a template scan: before the first component is touched.
            assert after == before
        assert chase_digest(uwsdt) == before

    def test_the_first_violated_egd_in_list_order_raises(self):
        uwsdt = UWSDT.from_orset_relations(
            [
                OrSetRelation.from_dicts(
                    "R",
                    ["A", "B"],
                    [{"A": 1, "B": 5}, {"A": 2, "B": 6}, {"A": OrSet([1, 2]), "B": 0}],
                ),
                OrSetRelation.from_dicts("S", ["A"], [{"A": 3}]),
            ]
        )
        second_row = EqualityGeneratingDependency(
            "R", [AttrConst("A", "=", 2)], AttrConst("B", "=", 0)
        )
        first_row = EqualityGeneratingDependency(
            "R", [AttrConst("A", "=", 1)], AttrConst("B", "=", 0)
        )
        other_relation = EqualityGeneratingDependency("S", [], AttrConst("A", "=", 0))
        for dependencies, named in [
            ([second_row, first_row], r"\(2, 6\) of 'R' violates EGD\(R: A = 2"),
            ([first_row, second_row], r"\(1, 5\) of 'R' violates EGD\(R: A = 1"),
            ([other_relation, first_row], r"\(3,\) of 'S'"),
        ]:
            with pytest.raises(InconsistentWorldSetError, match=named):
                chase_uwsdt(uwsdt.copy(), dependencies)
        with pytest.raises(RepresentationError, match="unsupported"):
            chase_uwsdt(uwsdt.copy(), [FunctionalDependency("R", ["A"], "B"), "x", second_row])

    def test_the_second_of_three_census_school_egds_raises(self):
        schema = census_schema()
        consistent = dict.fromkeys(schema.attributes, 0)  # meets all 12 EGDs
        violating = {**consistent, "FEB55": 1}  # SCHOOL = 0 ⇒ FEB55 ≠ 1 only
        rows = [consistent, violating, {**consistent, "Q01": OrSet([0, 1])}]
        uwsdt = UWSDT.from_orset_relation(OrSetRelation.from_dicts("R", schema.attributes, rows))
        dependencies = census_dependencies("R")
        school = [egd for egd in dependencies if egd.premises[0].attribute == "SCHOOL"]
        assert len(school) == 3 and school[1].conclusion.attribute == "FEB55"
        assert len({chase._premise_key(egd) for egd in school}) == 1

        row = tuple(violating.values())
        named = re.escape(f"certain tuple {row!r} of 'R' violates {school[1]!r}")
        with pytest.raises(InconsistentWorldSetError, match=named):
            chase_uwsdt(uwsdt.copy(), dependencies)
        assert _outcome(chase_uwsdt, uwsdt.copy(), dependencies) == _outcome(
            reference_chase, uwsdt.copy(), dependencies
        )

    def test_a_row_violating_two_egds_of_one_group_names_the_first_in_list_order(self):
        uwsdt = UWSDT.from_orset_relation(
            OrSetRelation.from_dicts(
                "R",
                ["A", "B", "C"],
                [
                    {"A": 1, "B": 0, "C": 5},  # violates only the C conclusion
                    {"A": 1, "B": 5, "C": 5},  # violates both
                    {"A": OrSet([1, 2]), "B": 0, "C": 0},
                ],
            )
        )
        on_b = EqualityGeneratingDependency("R", [AttrConst("A", "=", 1)], AttrConst("B", "=", 0))
        on_c = EqualityGeneratingDependency("R", [AttrConst("A", "=", 1)], AttrConst("C", "=", 0))
        assert chase._premise_key(on_b) == chase._premise_key(on_c)
        for dependencies, named in [
            ([on_b, on_c], r"\(1, 5, 5\) of 'R' violates EGD\(R: A = 1 => B = 0\)"),
            ([on_c, on_b], r"\(1, 0, 5\) of 'R' violates EGD\(R: A = 1 => C = 0\)"),
        ]:
            with pytest.raises(InconsistentWorldSetError, match=named):
                chase_uwsdt(uwsdt.copy(), dependencies)

    @pytest.mark.parametrize("op", ["=", "!="])
    def test_a_list_valued_premise_constant_is_left_ungrouped(self, op):
        uwsdt = UWSDT.from_orset_relation(
            OrSetRelation.from_dicts(
                "R", ["A", "B"], [{"A": 3, "B": 7}, {"A": OrSet([1, 2]), "B": OrSet([5, 7])}]
            )
        )
        dependencies = [
            EqualityGeneratingDependency("R", [AttrConst("A", op, [1])], AttrConst("B", "!=", 5)),
            EqualityGeneratingDependency("R", [AttrConst("A", op, [1])], AttrConst("B", "!=", 7)),
        ]
        keys = [chase._premise_key(dependency) for dependency in dependencies]
        assert keys == dependencies  # each its own disjunct
        outcome = _outcome(chase_uwsdt, uwsdt.copy(), dependencies)
        assert outcome == _outcome(reference_chase, uwsdt.copy(), dependencies)
        # ``A != [1]`` holds on every row, so (3, 7) violates the second EGD.
        assert (outcome[1] or "").startswith("certain tuple (3, 7)") is (op == "!=")
