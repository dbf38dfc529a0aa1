"""The three group backends: one-element, integer translations, staged."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcode import (
    CompletedStage,
    PartialInjection,
    PreconditionViolated,
    UnknownGroupElement,
    WindowTooSmall,
    Word,
    X,
    dagger_condition,
    group,
    open_orbits,
    oracle_from_descriptor,
    stage_from_data,
    stage_to_data,
    staged_oracle,
    translation_oracle,
    trivial_oracle,
    x_power,
    zigzag_decode,
    zigzag_encode,
)

import helpers


def test_one_element_group_basics(trivial):
    e = trivial.identity()
    assert trivial.is_identity(e)
    assert trivial.compose(e, e) == e
    assert trivial.invert(e) == e
    assert trivial.eval(e, 17) == 17


def test_one_element_group_rejects_foreign_elements(trivial):
    with pytest.raises(UnknownGroupElement):
        trivial.eval(1, 0)


def test_identity_fixed_points_are_everything(trivial, translation):
    """The identity fixes every natural, which no finite set reports: it is refused."""
    with pytest.raises(PreconditionViolated):
        trivial.fixed_points(trivial.identity())
    with pytest.raises(PreconditionViolated):
        translation.fixed_points(0)


def test_translations_are_fixed_point_free(translation):
    assert translation.fixed_points(3) == frozenset()


def test_translation_composition_cancels(translation):
    assert translation.is_identity(translation.compose(2, -2))


def test_translation_action_through_the_integer_pairing(translation):
    assert translation.eval(1, zigzag_encode(0)) == zigzag_encode(1)


def test_integer_pairing_is_the_documented_sequence():
    assert [zigzag_decode(n) for n in range(5)] == [0, -1, 1, -2, 2]
    for n in range(50):
        assert zigzag_encode(zigzag_decode(n)) == n
    for z, n in ((0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4)):
        assert zigzag_encode(z) == n
        assert helpers.zag(z) == n
        assert helpers.zig(n) == z


@given(st.integers(-40, 40), st.integers(0, 200))
def test_translation_eval_matches_integer_arithmetic(k, n):
    translation = translation_oracle()
    assert translation.eval(k, n) == helpers.zag(helpers.zig(n) + k)


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_translation_group_laws(a, b, c):
    translation = translation_oracle()
    lhs = translation.compose(translation.compose(a, b), c)
    rhs = translation.compose(a, translation.compose(b, c))
    assert lhs == rhs
    assert translation.is_identity(translation.compose(a, translation.invert(a)))


def sealed_stage():
    """A hand-built stage: two 2-cycles, window 4."""
    s = PartialInjection([(0, 1), (1, 0), (2, 3), (3, 2)])
    cond = dagger_condition((0,), s, [x_power(1)])
    return CompletedStage(condition=cond, oracle=staged_oracle([]))


def test_staged_lookup_inside_the_window():
    oracle = staged_oracle([sealed_stage()])
    g = oracle.generator(0)
    assert oracle.eval(g, 0) == 1
    assert oracle.eval(g, 3) == 2
    assert oracle.eval(oracle.invert(g), 1) == 0


def test_staged_free_reduction_gives_identity():
    oracle = staged_oracle([sealed_stage()])
    g = oracle.generator(0)
    assert oracle.is_identity(oracle.compose(g, oracle.invert(g)))


def test_staged_words_evaluate_right_to_left():
    oracle = staged_oracle([sealed_stage()])
    g = oracle.generator(0)
    gg = oracle.compose(g, g)
    assert oracle.eval(gg, 0) == 0
    assert oracle.eval(gg, 2) == 2


def test_staged_query_past_the_window_fails_loudly():
    oracle = staged_oracle([sealed_stage()])
    g = oracle.generator(0)
    with pytest.raises(WindowTooSmall) as info:
        oracle.eval(g, 4)
    assert info.value.required == 5


def test_growing_the_window_preserves_the_old_graph():
    stage = sealed_stage()
    oracle = staged_oracle([stage])
    g = oracle.generator(0)
    before = {n: oracle.eval(g, n) for n in range(4)}
    oracle.grow_window(9)
    assert oracle.window() >= 9
    for n, value in before.items():
        assert oracle.eval(g, n) == value
    assert not open_orbits(stage.injection)
    for n in range(9):
        assert oracle.eval(g, n) is not None


def test_grown_stage_respects_the_word_constraints():
    oracle = staged_oracle([sealed_stage()])
    oracle.grow_window(9)
    g = oracle.generator(0)
    for n in range(oracle.window()):
        assert oracle.eval(g, n) != n


def test_staged_fixed_points_are_certified_within_window():
    oracle = staged_oracle([sealed_stage()])
    g = oracle.generator(0)
    assert oracle.window() == 4
    assert oracle.fixed_points(g) == frozenset()
    assert oracle.fixed_points(oracle.compose(g, g)) == frozenset(range(4))
    with pytest.raises(PreconditionViolated):
        oracle.fixed_points(oracle.identity())


def test_staged_powers_stay_off_the_identity():
    oracle = staged_oracle([sealed_stage()])
    oracle.grow_window(12)
    g = oracle.generator(0)
    word = g
    for _ in range(4):
        assert not oracle.is_identity(word)
        word = oracle.compose(word, g)


def test_element_text_round_trip():
    oracle = staged_oracle([sealed_stage(), sealed_stage_one()])
    g0, g1 = oracle.generator(0), oracle.generator(1)
    elt = oracle.compose(oracle.compose(g0, g0), oracle.invert(g1))
    text = oracle.format_element(elt)
    assert text == "0^2*1^-1"
    assert oracle.parse_element(text) == elt
    assert oracle.format_element(oracle.identity()) == ""
    assert oracle.parse_element("") == oracle.identity()


def sealed_stage_one():
    s = PartialInjection([(0, 2), (2, 0), (1, 3), (3, 1)])
    cond = dagger_condition((0,), s, [x_power(1)])
    return CompletedStage(condition=cond, oracle=staged_oracle([sealed_stage()]))


def test_staged_rejects_malformed_elements():
    oracle = staged_oracle([sealed_stage()])
    with pytest.raises(UnknownGroupElement):
        oracle.eval(((5, 1),), 0)
    with pytest.raises(UnknownGroupElement):
        oracle.eval("g0", 0)


def test_staged_group_laws_on_random_elements():
    oracle = staged_oracle([sealed_stage(), sealed_stage_one()])
    pool = [
        oracle.generator(0),
        oracle.generator(1),
        oracle.invert(oracle.generator(0)),
        oracle.compose(oracle.generator(0), oracle.generator(1)),
        oracle.identity(),
    ]
    for a in pool:
        for b in pool:
            for c in pool:
                assert oracle.compose(oracle.compose(a, b), c) == oracle.compose(
                    a, oracle.compose(b, c)
                )
        assert oracle.is_identity(oracle.compose(a, oracle.invert(a)))


def test_stage_serialization_round_trip():
    stage = sealed_stage()
    data = stage_to_data(stage)
    assert set(data) == {"cycles", "words", "target_bits"}
    assert data["cycles"] == [[0, 1], [2, 3]]
    back = stage_from_data(data, staged_oracle([]))
    assert back.window == stage.window
    assert back.injection == stage.injection
    assert back.condition.words == stage.condition.words
    assert back.target_bits == stage.target_bits


def test_a_stage_window_is_the_least_natural_outside_its_support():
    # every injection on {0..5} with only closed orbits: each permutation of each subset
    for size in range(7):
        for support in itertools.combinations(range(6), size):
            for image in itertools.permutations(support):
                s = PartialInjection(zip(support, image))
                stage = CompletedStage(dagger_condition((), s), staged_oracle([]))
                assert stage.window == helpers.mex(support), s


def test_descriptor_round_trip_for_all_backends():
    stages = [sealed_stage()]
    for oracle in (trivial_oracle(), translation_oracle(), staged_oracle(stages)):
        back = oracle_from_descriptor(oracle.descriptor())
        assert back.descriptor() == oracle.descriptor()


def test_stage_words_live_in_the_stages_before_them():
    first = sealed_stage()
    gx = Word((group(((0, 1),)), X))
    second = CompletedStage(
        condition=dagger_condition((0,), first.injection, [x_power(1), gx]),
        oracle=staged_oracle([first]),
    )
    data = staged_oracle([first, second]).descriptor()
    assert "g0.x" in data["stages"][1]["words"]
    assert oracle_from_descriptor(data).descriptor() == data
    # a stage's words may name only the generators of the stages before it
    for index, name in ((0, "g0.x"), (0, "g1.x"), (1, "g1.x")):
        bad = json.loads(json.dumps(data))
        bad["stages"][index]["words"].append(name)
        with pytest.raises(UnknownGroupElement):
            oracle_from_descriptor(bad)


def test_empty_staged_oracle_is_the_one_element_group():
    oracle = staged_oracle([])
    assert oracle.is_identity(oracle.identity())
    assert oracle.eval(oracle.identity(), 40) == 40


def test_growth_from_a_minimal_stage():
    s = PartialInjection([(0, 1), (1, 0)])
    cond = dagger_condition((), s, [x_power(1)])
    stage = CompletedStage(condition=cond, oracle=staged_oracle([]))
    oracle = staged_oracle([stage])
    oracle.grow_window(6)
    assert oracle.window() >= 6
    assert oracle.eval(oracle.generator(0), 0) == 1
