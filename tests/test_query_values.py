"""Query trees and predicates are values.

Equality, ``hash`` and :meth:`~repro.core.algebra.query.Query.fingerprint`
agree: equal trees hash and fingerprint alike, trees built separately from
the same parts are equal, and changing one field — or only the class of one
constant — makes two trees unequal.  Attribute and relation names include
the characters the display text uses as separators (``", "``, ``"→"``,
``"["``, quotes), so no two distinct trees can hide behind one rendering.
The fingerprint does not depend on ``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra import (
    BaseRelation,
    Difference,
    Intersection,
    Join,
    Product,
    Project,
    Rename,
    Select,
    Union,
)
from repro.relational.predicates import And, AttrAttr, AttrConst, Not, Or, TruePredicate

NAMES = ["A", "B", "A, B", "B→C", "C→D", "[A]", "'A'", '"B"', "σ[A]"]
OPERATORS = ["=", "!=", "<"]
BINARY = {
    "product": Product,
    "union": Union,
    "difference": Difference,
    "intersection": Intersection,
}

names = st.sampled_from(NAMES)
#: Four classes; ``1``, ``1.0``, ``True`` and ``'1'`` are all drawn.
constants = st.one_of(
    st.integers(-2, 2),
    st.floats(-2, 2, allow_nan=False),
    st.booleans(),
    st.sampled_from(["1", "1.0", "True", "A, B", ""]),
)

# A recipe is a nested tuple of plain parts; ``build`` turns it into a tree,
# so one recipe builds as many separate (equal) trees as asked.
predicate_recipes = st.recursive(
    st.one_of(
        st.tuples(st.just("const"), names, st.sampled_from(OPERATORS), constants),
        st.tuples(st.just("attr"), names, st.sampled_from(OPERATORS), names),
        st.just(("true",)),
    ),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["and", "or"]), inner, inner),
        st.tuples(st.just("not"), inner),
    ),
    max_leaves=4,
)

query_recipes = st.recursive(
    st.tuples(st.just("base"), names),
    lambda inner: st.one_of(
        st.tuples(st.just("select"), inner, predicate_recipes),
        st.tuples(st.just("project"), inner, st.lists(names, min_size=1, max_size=3)),
        st.tuples(st.just("rename"), inner, names, names),
        st.tuples(st.sampled_from(sorted(BINARY)), inner, inner),
        st.tuples(st.just("join"), inner, inner, names, names),
    ),
    max_leaves=5,
)


def build_predicate(recipe):
    kind, *parts = recipe
    if kind == "const":
        return AttrConst(*parts)
    if kind == "attr":
        return AttrAttr(*parts)
    if kind == "true":
        return TruePredicate()
    if kind == "not":
        return Not(build_predicate(parts[0]))
    return (And if kind == "and" else Or)(*map(build_predicate, parts))


def build(recipe):
    kind, *parts = recipe
    if kind == "base":
        return BaseRelation(parts[0])
    child = build(parts[0])
    if kind == "select":
        return Select(child, build_predicate(parts[1]))
    if kind == "project":
        return Project(child, list(parts[1]))
    if kind == "rename":
        return Rename(child, parts[1], parts[2])
    if kind == "join":
        return Join(child, build(parts[1]), parts[2], parts[3])
    return BINARY[kind](child, build(parts[1]))


def other_class(constant):
    """A value of another class that Python may still call equal."""
    if isinstance(constant, bool):
        return int(constant)
    if isinstance(constant, int):
        return float(constant)
    if isinstance(constant, float):
        return str(constant)
    return bool(constant)


def sites(recipe, path=()):
    """Paths of every changeable part: names, operators and constants."""
    for index, part in enumerate(recipe[1:], start=1):
        here = path + (index,)
        if isinstance(part, tuple):
            yield from sites(part, here)
        elif isinstance(part, list):
            yield from (here + (position,) for position in range(len(part)))
        else:
            yield here


def changed(recipe, path):
    """``recipe`` with the part at ``path`` changed, and nothing else."""
    head, *rest = path
    parts = list(recipe)
    if rest:
        inner = parts[head]
        if isinstance(inner, list):
            inner = list(inner)
            inner[rest[0]] += "'"
            parts[head] = inner
        else:
            parts[head] = changed(inner, rest)
        return tuple(parts)
    part = parts[head]
    if recipe[0] in ("const", "attr") and head == 2:
        parts[head] = OPERATORS[(OPERATORS.index(part) + 1) % len(OPERATORS)]
    elif recipe[0] == "const" and head == 3:
        parts[head] = other_class(part)
    else:
        parts[head] = part + "'"
    return tuple(parts)


@settings(max_examples=200, deadline=None)
@given(query_recipes)
def test_trees_built_separately_from_the_same_parts_are_equal(recipe):
    first, second = build(recipe), build(recipe)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first.fingerprint() == second.fingerprint()
    assert len(first.fingerprint()) == 16 and int(first.fingerprint(), 16) >= 0


@settings(max_examples=300, deadline=None)
@given(query_recipes, query_recipes)
def test_equal_trees_hash_and_fingerprint_alike(left, right):
    first, second = build(left), build(right)
    if first == second:
        assert hash(first) == hash(second)
        assert first.fingerprint() == second.fingerprint()
    else:
        assert first.fingerprint() != second.fingerprint()


@settings(max_examples=300, deadline=None)
@given(query_recipes, st.data())
def test_changing_one_field_or_one_constant_class_makes_trees_unequal(recipe, data):
    path = data.draw(st.sampled_from(list(sites(recipe))))
    original, variant = build(recipe), build(changed(recipe, path))
    assert original != variant and variant != original
    assert original.fingerprint() != variant.fingerprint()


@settings(max_examples=100, deadline=None)
@given(query_recipes, st.lists(names, min_size=3, max_size=3))
def test_trees_whose_display_texts_coincide_are_unequal(recipe, parts):
    child = build(recipe)
    first, second, third = parts
    pairs = [
        (Project(child, parts), Project(child, [", ".join(parts)])),
        (Rename(child, first, f"{second}→{third}"), Rename(child, f"{first}→{second}", third)),
    ]
    for left, right in pairs:
        assert left.to_text() == right.to_text()
        assert left != right
        assert left.fingerprint() != right.fingerprint()


def test_one_constant_four_classes_are_four_values():
    queries = [BaseRelation("R").select(AttrConst("A", "=", c)) for c in (1, 1.0, True, "1")]
    assert len(set(queries)) == 4
    assert len({query.fingerprint() for query in queries}) == 4
    assert AttrConst("A", "=", -0.0) == AttrConst("A", "=", 0.0)
    assert (
        BaseRelation("R").select(AttrConst("A", "=", -0.0)).fingerprint()
        == BaseRelation("R").select(AttrConst("A", "=", 0.0)).fingerprint()
    )


def test_a_predicate_without_value_identity_is_equal_only_to_itself():
    unhashable = AttrConst("A", "=", [1])
    assert unhashable.value_key() is None
    assert unhashable == unhashable and unhashable != AttrConst("A", "=", [1])
    assert And(unhashable, AttrConst("B", "=", 1)).value_key() is None
    query = BaseRelation("R").select(unhashable)
    assert query == BaseRelation("R").select(unhashable)
    assert query != BaseRelation("R").select(AttrConst("A", "=", [1]))


def test_fingerprints_do_not_depend_on_the_hash_seed():
    script = (
        "from repro.census import census_query, query_names\n"
        "print(' '.join(census_query(name).fingerprint() for name in query_names()))\n"
    )
    source = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in ("0", "4242"):
        environment = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=environment,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        outputs.add(completed.stdout)
    (printed,) = outputs
    assert len(set(printed.split())) == 6
