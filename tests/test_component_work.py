"""Component work of the uncertain operators: pinned results, counted derivations.

The component primitives derive their results without the checking
constructor, and each operator applies its field copies as one ``ext_many``
per touched component.  Neither may change a representation, so the digests
below were computed before either existed: every component (field order,
row order, probabilities) with the Figure 27 statistics, the result
template in order, and the confidence of every possible result tuple — for
Q1–Q6, the Q6 self-join and the 4-way join, each on a copy of the chased
2 000-row census at 0.1 % placeholders, seeds 1 and 6.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.census import (
    CensusGenerator,
    census_dependencies,
    census_query,
    q6_self_join_product_form,
    q_four_way_join,
    query_names,
)
from repro.core import UWSDT, chase_uwsdt
from repro.core.algebra import uwsdt_ops
from repro.core.component import Component
from repro.core.confidence import uwsdt_possible_with_confidence
from repro.core.fields import FieldRef
from repro.relational import BOTTOM, RepresentationError

QUERIES = {
    **{name: (lambda name=name: census_query(name)) for name in query_names()},
    "Q6_self_join": q6_self_join_product_form,
    "four_way": q_four_way_join,
}

#: ``(seed, query) -> (template digest, component digest, confidence digest)``.
#: The component and confidence digests are those the tuple-id template
#: left; the template digests, and the component digests of the seed-6 Q6
#: self-join and 4-way join (whose certain rows turn open under new tuple
#: ids), are the certain/open layout's.
PINNED = {
    (1, "Q1"): (
        "f20bcb18734f9ec29134209f4ae882ec10250493",
        "cb054b99eba5caf2b9c87e6874d7adbbde6a2083",
        "12d6cb21219e3468c48f960209828bb4e58d6809",
    ),
    (1, "Q2"): (
        "4733055001ef7a8ff952bfa3037bb9104140e385",
        "a5c7508b24c712fd31ac39619d3d755805c2f569",
        "9ddac7bb10c728530807c2c1a4cae7f3382acdb1",
    ),
    (1, "Q3"): (
        "a0887d48c531bf2eedddcdf887d435e820a10134",
        "a5c7508b24c712fd31ac39619d3d755805c2f569",
        "82b8d8538de3f40fa7fe39c0e8d3f75ee6a01004",
    ),
    (1, "Q4"): (
        "cec86cc2ff825406b81e26c146e9df96e2a12811",
        "f38246d3e4500cf2c3a5b8562c993e5c209a7f9a",
        "4549cc848ea4db5a1d831d325a0ade0ecefbbc98",
    ),
    (1, "Q5"): (
        "57284d24516fe4de3b83eace4a09fd4af032acc4",
        "a5c7508b24c712fd31ac39619d3d755805c2f569",
        "97d170e1550eee4afc0af065b78cda302a97674c",
    ),
    (1, "Q6"): (
        "e7885b9762db798bcef8d1b66da259014e3a0dfe",
        "a9a71e32f8485f3cbdfd63415a7874169b70d1d9",
        "6d23d5988df94880e97dad149ae1f6aee1ed48e2",
    ),
    (1, "Q6_self_join"): (
        "33cfe504a306f4cd69fbe5ef33d616367e5b677b",
        "7fa608273762dac7a370fffbe74af25a18eeb196",
        "0542fb8f8872c8bb26467aed44d327a22fa8d178",
    ),
    (1, "four_way"): (
        "78c7aaefa01527deedefcae5445d7437f6faa127",
        "85f9ab69bc756bbd5abe236b05c4d111826dd43a",
        "25954427daa7354542f81605c0bfb0c40def4bce",
    ),
    (6, "Q1"): (
        "2e84d25df54699bae67ded22c529d3fcf2308da7",
        "a3e9d96c980a04f4ba750d5f753b6f568f1c734f",
        "58b8993188eaef8552d9f3fbf7b260e339163a20",
    ),
    (6, "Q2"): (
        "b434625f736c85c558ce9e79cbeadc4902966763",
        "4c92eaa648b2f045c1ac399c15914fae9fe9772e",
        "d840154f1af5cf3261db1b0ce8b1ce01114eab3a",
    ),
    (6, "Q3"): (
        "dc5cbb0905c1bc8a36d56ee903bb91acc4dd3b1d",
        "4c92eaa648b2f045c1ac399c15914fae9fe9772e",
        "24ca2d31b64596641450d374a1a7b59fb7756953",
    ),
    (6, "Q4"): (
        "00466bb86032bbd971a9e0be9216eb1719b669bf",
        "7cdce561bd6adc70ec4c52752d205bcf6b7798c4",
        "76202793e0178e78373204a75bb12d7533dfa180",
    ),
    (6, "Q5"): (
        "57284d24516fe4de3b83eace4a09fd4af032acc4",
        "4c92eaa648b2f045c1ac399c15914fae9fe9772e",
        "97d170e1550eee4afc0af065b78cda302a97674c",
    ),
    (6, "Q6"): (
        "a698f1fb943635f591d1e6822141db4f8434b691",
        "68b59805d971ad33a9d6aa4592defd1a7bb0c7dc",
        "d601df6d732a779dd989e25d0a3d8bf647cabd00",
    ),
    (6, "Q6_self_join"): (
        "7dd545e4803ad748a6bf8c44aab4acb46dd2abdb",
        "17eda41924bfab40fd38ab900d1c118364cf1adf",
        "f6f5be2637a08de8812542edbdd36252247dea83",
    ),
    (6, "four_way"): (
        "ddeaa8e817775d4b5c2c613b08f81b6c9d68bfa1",
        "e7b65faca4d0329ce2e9b25164305ab613f60a90",
        "366095972351d34d2bde6cadcb1b08849edebdf4",
    ),
}

_CHASED = {}


def chased(seed):
    """The chased census of one seed, built once per session; callers copy it."""
    if seed not in _CHASED:
        generator = CensusGenerator(seed=seed)
        noisy = generator.add_noise(generator.clean_relation(2000), 0.001)
        uwsdt = UWSDT.from_orset_relation(noisy)
        _CHASED[seed] = chase_uwsdt(uwsdt, census_dependencies())
    return _CHASED[seed]


def template_digest(uwsdt, name):
    """The result template: its certain rows and its open rows, in order."""
    template = uwsdt.templates[name]
    return hashlib.sha1(repr((list(template.certain), list(template.open))).encode()).hexdigest()


def component_digest(uwsdt):
    """Every component (field order, row order, probabilities) and the
    Figure 27 statistics but the template size."""
    digest = hashlib.sha1()
    for cid in sorted(uwsdt.components):
        component = uwsdt.components[cid]
        probabilities = component.probabilities
        digest.update(
            repr(
                (
                    cid,
                    component.fields,
                    list(component.rows),
                    None if probabilities is None else list(probabilities),
                )
            ).encode()
        )
    statistics = uwsdt.statistics()
    del statistics["template_size"]
    digest.update(repr(sorted(statistics.items())).encode())
    return digest.hexdigest()


def confidence_digest(uwsdt, name):
    ranked = uwsdt_possible_with_confidence(uwsdt, name)
    return hashlib.sha1(repr(sorted(ranked)).encode()).hexdigest()


@pytest.mark.parametrize("seed, query", sorted(PINNED))
def test_representation_is_pinned(seed, query):
    uwsdt = chased(seed).copy()
    QUERIES[query]().run(uwsdt, "out")
    uwsdt.validate()
    digests = (
        template_digest(uwsdt, "out"),
        component_digest(uwsdt),
        confidence_digest(uwsdt, "out"),
    )
    assert digests == PINNED[seed, query]


def project_copy_work(monkeypatch, uwsdt, query):
    """Run ``query``; per projection, the ``ext_many`` calls and the components copied into."""
    work = []
    current = None
    project, copy_fields, ext_many = uwsdt_ops.project, UWSDT.copy_fields, Component.ext_many

    def counted_project(*args, **kwargs):
        nonlocal current
        current = [0, set()]
        try:
            project(*args, **kwargs)
        finally:
            work.append((current[0], len(current[1])))
            current = None

    def counted_copy_fields(self, pairs):
        pairs = list(pairs)
        if current is not None:
            current[1].update(self.component_of(source) for source, _ in pairs)
        copy_fields(self, pairs)

    def counted_ext_many(self, pairs):
        if current is not None:
            current[0] += 1
        return ext_many(self, pairs)

    monkeypatch.setattr(uwsdt_ops, "project", counted_project)
    monkeypatch.setattr(UWSDT, "copy_fields", counted_copy_fields)
    monkeypatch.setattr(Component, "ext_many", counted_ext_many)
    query.run(uwsdt, "out")
    return work


@pytest.mark.parametrize(
    "query, expected",
    [
        # Q6's one projection copies into one component.
        ("Q6", (1, 1)),
        # The 4-way join's final projection: 21 354 rows, 3 498 of them with
        # a placeholder, copy 3 530 fields into five components — one
        # derivation each, however many rows copy into a component.
        ("four_way", (5, 5)),
    ],
)
def test_a_projection_derives_each_component_once(monkeypatch, query, expected):
    work = project_copy_work(monkeypatch, chased(6).copy(), QUERIES[query]())
    derivations, components = work[-1]
    assert (derivations, components) == expected


# --------------------------------------------------------------------------- #
# Derived components equal the checked construction they replace
# --------------------------------------------------------------------------- #

#: Fields of two tuples, so ``propagate-⊥`` has groups to tell apart.
FIELDS = [FieldRef("R", tid, a) for tid in (1, 2) for a in ("A", "B")]


@st.composite
def components(draw):
    """Small components over a prefix of FIELDS, with ``⊥`` among the values."""
    fields = FIELDS[: draw(st.integers(1, len(FIELDS)))]
    values = st.sampled_from([0, 1, BOTTOM])
    rows = draw(st.lists(st.tuples(*[values] * len(fields)), min_size=1, max_size=4))
    probabilities = [1.0 / len(rows)] * len(rows) if draw(st.booleans()) else None
    return Component(fields, rows, probabilities)


def marked_then_propagated(component, relation, tuple_id, failing):
    """The mark-then-propagate steps ``delete_tuple`` fuses, through the checked constructor."""
    positions = [
        i
        for i, f in enumerate(component.fields)
        if f.relation == relation and f.tuple_id == tuple_id
    ]
    if failing:
        rows = [
            tuple(BOTTOM if i in failing and p in positions else v for p, v in enumerate(row))
            for i, row in enumerate(component.rows)
        ]
        component = Component(component.fields, rows, component.probabilities).propagate_bottom()
    deleted = bool(positions) and all(
        any(row[p] is BOTTOM for p in positions) for row in component.rows
    )
    return component, deleted


class TestDerivedComponents:
    @given(components(), st.sampled_from([1, 2, 3]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_delete_tuple_equals_mark_then_propagate(self, component, tuple_id, data):
        failing = set(
            data.draw(st.lists(st.integers(0, component.size - 1), max_size=component.size))
        )
        derived, deleted = component.delete_tuple("R", tuple_id, failing)
        expected, expected_deleted = marked_then_propagated(component, "R", tuple_id, failing)
        derived.validate()
        assert (derived, deleted) == (expected, expected_deleted)

    @given(components(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_ext_many_equals_ext_one_by_one(self, component, data):
        sources = data.draw(st.lists(st.sampled_from(component.fields), max_size=4))
        pairs = [(source, FieldRef("P", n, source.attribute)) for n, source in enumerate(sources)]
        expected = component
        for source, target in pairs:
            position = expected.position(source)
            expected = Component(
                expected.fields + (target,),
                [row + (row[position],) for row in expected.rows],
                expected.probabilities,
            )
        derived = component.ext_many(pairs)
        derived.validate()
        assert derived == expected
        assert all(derived.position(f) == i for i, f in enumerate(derived.fields))

    @given(components(), components())
    @settings(max_examples=100, deadline=None)
    def test_primitives_derive_valid_components(self, left, right):
        right = right.rename_fields(
            {f: FieldRef("S", f.tuple_id, f.attribute) for f in right.fields}
        )
        for derived in (
            left.compose(right),
            left.propagate_bottom(),
            left.compress(),
            left.project_away(left.fields[:1]),
            left.filter_rows(lambda row: row[0] is not BOTTOM),
            left.ext_presence(FieldRef("P", 1, "A"), 7, left.fields[:1]),
        ):
            if derived is not None:
                derived.validate()

    def test_validate_checks_what_the_constructor_checks(self):
        def broken(**attributes):
            component = Component(FIELDS[:2], [(0, 1), (1, 0)], [0.5, 0.5])
            for name, value in attributes.items():
                setattr(component, name, value)
            return component

        for attributes, message in [
            ({"fields": FIELDS[:1] * 2}, "distinct"),
            ({"rows": ()}, "at least one local world"),
            ({"rows": ((0, 1), (1,))}, "expected 2"),
            ({"rows": ((0, 1), [1, 0])}, "tuples"),
            ({"probabilities": [0.5, 0.5]}, "tuples"),
            ({"probabilities": (1.0,)}, "parallel"),
            ({"_positions": {FIELDS[0]: 1, FIELDS[1]: 0}}, "position map"),
        ]:
            with pytest.raises(RepresentationError, match=message):
                broken(**attributes).validate()


def test_placeholder_rows_on_is_a_filter_of_the_open_rows():
    uwsdt = chased(1).copy()
    uncertain = uwsdt.uncertain_tuples("R")
    attributes = uwsdt.schema.relation("R").attributes
    for chosen in ([attributes[0]], ["YEARSCH", "CITIZEN"], list(attributes), []):
        assert uwsdt.placeholder_rows_on("R", chosen) == [
            row for row in uwsdt.templates["R"].open if set(chosen) & set(uncertain[row[0]])
        ]
