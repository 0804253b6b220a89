"""The possible-worlds oracle rejects what it should.

An oracle that compares nothing passes every engine: each test below feeds
:func:`_fixtures.check_oracle` (or one of its cells) a fault — a reference
computed for another query, a wrong confidence, a corrupt field map, a plan
cache that never hits or never invalidates, a chase that does not raise —
and expects the harness to fail, so a cell that stops checking shows up
here rather than as a silently green suite.
"""

import dataclasses
import re

import pytest
from hypothesis import find, settings

from repro.core import FieldRef
from repro.core.algebra import BaseRelation
from repro.core.chase import EqualityGeneratingDependency, FunctionalDependency
from repro.core.exec.plan_cache import PlanCache
from repro.core.uwsdt import certain_tid
from repro.relational import AttrConst, Relation, RepresentationError, eq
from repro.worlds import OrSet

import _fixtures
from _fixtures import (
    CELLS,
    Case,
    Oracle,
    cases,
    cells,
    check_oracle,
    check_representation,
    orsets,
)


#: A join over a chased R whose FD correlates its first two tuples and
#: leaves the third uncertain on its own: every cell runs on it, the
#: chased-after-caching one included.
CASE = Case(
    (
        orsets(
            "R",
            ("A0", "A1", "A2"),
            (1, OrSet([2, 3]), 0),
            (1, OrSet([2, 3]), 1),
            (0, OrSet([3, 4]), 1),
        ),
        orsets("S", ("B0", "B1", "B2"), (1, 2, 3), (5, 3, 6)),
    ),
    BaseRelation("R").join(BaseRelation("S"), "A1", "B1"),
    (FunctionalDependency("R", ["A0"], "A1"),),
)


def wrong_reference(case):
    """The brute-force reference of another query over the case's input,
    held out as the reference of ``case``."""
    other = Oracle.of(dataclasses.replace(case, query=case.query.select(eq("A2", 1))))
    assert other.distribution != Oracle.of(case).distribution
    other.case = case
    return other


@pytest.mark.parametrize("cell", CELLS, ids=[cell.name for cell in CELLS])
def test_every_cell_rejects_a_wrong_reference(cell, monkeypatch):
    oracle = wrong_reference(CASE)
    monkeypatch.setattr(Oracle, "of", classmethod(lambda cls, case: oracle))
    with pytest.raises(AssertionError, match=re.escape(cell.name)):
        check_oracle(CASE, (cell,))


def test_the_right_reference_passes_every_cell():
    check_oracle(CASE, CELLS)


def test_a_wrong_uwsdt_confidence_is_rejected(monkeypatch):
    exact = _fixtures.uwsdt_possible_with_confidence

    def halved(engine, name):
        return [(row, p if p == 1.0 else p / 2) for row, p in exact(engine, name)]

    monkeypatch.setattr(_fixtures, "uwsdt_possible_with_confidence", halved)
    with pytest.raises(AssertionError, match="UWSDT planned"):
        check_oracle(CASE, cells("row"))


#: A self-product with 30 possible tuples.
PRODUCT = Case(
    (orsets("R", "AB", (OrSet([1, 2]), 0), (OrSet([3, 4]), 1), (OrSet([0, 4]), 2)),),
    BaseRelation("R").product(BaseRelation("R").rename("A", "C").rename("B", "D")),
)


def test_a_wrong_figure_17_confidence_is_rejected(monkeypatch):
    """Wrong for the possible tuple sorted last only: every tuple's
    confidence is checked."""
    last = max(Oracle.of(PRODUCT).confidences, key=repr)
    exact = _fixtures.possible_with_confidence

    def halved(wsd, name):
        return [(row, p / (2 if row == last else 1)) for row, p in exact(wsd, name)]

    monkeypatch.setattr(_fixtures, "possible_with_confidence", halved)
    with pytest.raises(AssertionError, match="WSD by Figure 9"):
        check_oracle(PRODUCT, [cell for cell in cells("wsd") if "Figure 9" in cell.name])


def test_a_field_map_entry_for_a_certain_field_is_rejected():
    engine = CASE.uwsdt()
    check_representation(engine)
    stray = FieldRef("S", certain_tid("S", next(iter(engine.templates["S"].certain))), "B0")
    engine.field_to_cid[stray] = next(iter(engine.components))
    with pytest.raises(RepresentationError, match="does not hold it"):
        engine.validate()


def test_a_plan_cache_that_never_hits_is_rejected(monkeypatch):
    monkeypatch.setattr(PlanCache, "_get", lambda self, key, query: None)
    with pytest.raises(AssertionError, match="not a hit"):
        check_oracle(CASE, cells("row"))


def test_a_plan_cache_that_ignores_version_keys_is_rejected(monkeypatch):
    read = PlanCache._current_keys
    first = {}

    def frozen(self, relations):
        """Each relation's version key as first read, whatever it is now."""
        return first.setdefault((id(self), relations), read(self, relations))

    monkeypatch.setattr(PlanCache, "_current_keys", frozen)
    with pytest.raises(AssertionError, match="did not invalidate"):
        check_oracle(CASE, cells("row"))


def test_a_chase_that_does_not_raise_on_an_inconsistent_input_is_rejected(monkeypatch):
    case = Case(
        (orsets("R", "AB", (1, OrSet([2, 3]))),),
        BaseRelation("R"),
        (EqualityGeneratingDependency("R", [AttrConst("A", "=", 1)], AttrConst("B", "=", 9)),),
    )
    check_oracle(case, CELLS)  # both chases raise, as brute force finds no world
    chase = _fixtures.chase_uwsdt

    def lenient(engine, dependencies):
        try:
            return chase(engine, dependencies)
        except _fixtures.InconsistentWorldSetError:
            return engine

    monkeypatch.setattr(_fixtures, "chase_uwsdt", lenient)
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        check_oracle(case, CELLS)


def test_the_case_strategy_draws_values_equal_across_types():
    """``cases()`` mixes ints, floats, bools and strings in a column, so a
    drawn case can hold ``1``, ``1.0`` and ``True`` side by side."""
    case = find(
        cases(),
        lambda case: _fixtures.equal_across_types(case.relations),
        settings=settings(max_examples=500, database=None),
    )
    assert _fixtures.equal_across_types(case.relations)


def test_a_bag_of_certain_rows_is_rejected():
    engine = CASE.uwsdt()
    template = engine.templates["S"]
    rows = list(template.certain) + [next(iter(template.certain))]
    bag = Relation.from_tuples(template.certain.schema, rows, distinct=True)
    engine.set_template("S", bag, list(template.open))
    with pytest.raises(AssertionError, match="the certain rows of S are a bag"):
        check_representation(engine)
