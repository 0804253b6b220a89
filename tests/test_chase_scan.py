"""The UWSDT chase as one selection per dependency plus an index walk.

An EGD's violation condition is a ``Predicate``; certain rows are judged by
its generated scan (``Predicate.compile_scan``) over the template, only
placeholder rows reach their components.  Pinned here: the
per-row work is gone (exact counts, not timings), ``?`` cells never turn
into certain violations, a bad operator cannot be constructed, and a
certain violation leaves the UWSDT untouched.  That the chase equals
per-world filtering of ``rep()`` is the possible-worlds oracle's.
"""

import pytest

from repro.bench import census_instance
from repro.census import census_dependencies
from repro.core import UWSDT, chase
from repro.core.chase import (
    Comparison,
    EqualityGeneratingDependency,
    FunctionalDependency,
    chase_uwsdt,
)
from repro.obs.metrics import get_registry
from repro.relational import InconsistentWorldSetError, PredicateError, RepresentationError
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
        assert scanned == len(census_dependencies()) * rows
        # A row reaches components once per dependency naming one of its ?s.
        assert 0 < through_components <= len(census_dependencies()) * open_fields
        # Single-placeholder components: a removed local world is a removed value.
        assert removed == size - uwsdt.component_relation_size() > 0
        assert chase_digest(uwsdt) == chase_digest(reference)

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
            "R", [Comparison("A", "=", 1)], Comparison("B", op, constant)
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
            "R", [Comparison("A", "!=", 3)], Comparison("B", "<", 5)
        )
        opened = uwsdt.templates["R"].open
        assert chase._Violation(dependency).compile_scan(opened.schema)(opened)
        chase_uwsdt(uwsdt, [dependency])
        assert [set(world.database.relation("R").rows) for world in uwsdt.rep()] == [{(3, 7)}]

    def test_every_local_world_violating_still_raises(self):
        dependency = EqualityGeneratingDependency(
            "R", [Comparison("A", "=", 1)], Comparison("B", "=", 5)
        )
        with pytest.raises(InconsistentWorldSetError, match="inconsistent"):
            chase_uwsdt(self._uwsdt(), [dependency])


# --------------------------------------------------------------------------- #
# Fail before the first component is touched
# --------------------------------------------------------------------------- #


class TestNothingIsHalfApplied:
    def test_unknown_operator_cannot_be_constructed(self):
        with pytest.raises(PredicateError, match="unknown comparison operator '~'"):
            Comparison("A", "~", 1)
        with pytest.raises(PredicateError):
            # The second dependency of a list can no longer be built, let alone half-applied.
            [
                EqualityGeneratingDependency("R", [Comparison("A", "=", 1)], Comparison("B", "=", 1)),
                EqualityGeneratingDependency("R", [Comparison("A", "~", 1)], Comparison("B", "=", 1)),
            ]

    def _uwsdt(self):
        return UWSDT.from_orset_relation(
            OrSetRelation.from_dicts(
                "R", ["A", "B"], [{"A": 1, "B": OrSet([1, 2])}, {"A": 3, "B": 7}]
            )
        )

    def test_certain_violation_of_a_later_egd_leaves_the_uwsdt_untouched(self):
        removes_worlds = EqualityGeneratingDependency(
            "R", [Comparison("A", "=", 1)], Comparison("B", "=", 2)
        )
        certainly_violated = EqualityGeneratingDependency(
            "R", [Comparison("A", "=", 3)], Comparison("B", "<", 5)
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
            "R", [Comparison("A", "=", 1)], Comparison("B", "=", 2)
        )
        with pytest.raises(RepresentationError, match="unsupported dependency"):
            chase_uwsdt(uwsdt, [removes_worlds, "not a dependency"])
        assert chase_digest(uwsdt) == before
