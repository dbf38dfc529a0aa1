"""Word normal forms, admissibility, rotation classes, and evaluation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcode import (
    IDENTITY_WORD,
    PartialInjection,
    Word,
    X,
    X_INV,
    closure,
    evaluate,
    format_word,
    graph_restriction,
    group,
    indecomposable_root,
    inverse_word,
    is_nice,
    nice_blocks,
    parse_word,
    power,
    reduce,
    translation_oracle,
    trivial_oracle,
    x_power,
)

import helpers

TRIV = trivial_oracle()
TRANS = translation_oracle()

G1 = group(1)
G2 = group(2)


def w(*letters):
    return Word(tuple(letters))


def test_x_cubed_is_admissible_with_single_block():
    assert is_nice(x_power(3))
    assert nice_blocks(x_power(3)) == ((None, 3),)


def test_trailing_inverse_letter_is_rejected():
    assert not is_nice(w(G1, X_INV))


def test_alternating_two_block_word_is_admissible():
    # g x^2 h x, read right to left: x block, h, x^2 block, g
    word = w(G1, X, X, G2, X)
    assert is_nice(word)
    assert nice_blocks(word) == ((2, 1), (1, 2))


def test_identity_word_is_not_admissible():
    assert not is_nice(IDENTITY_WORD)


def test_word_starting_in_x_inverse_is_not_admissible():
    assert not is_nice(w(X_INV))
    assert not is_nice(w(G1, X, X_INV))  # reduces to g alone


def rotation_class(word, oracle):
    """The admissible rotations of word and their inverses: closure's members of its length."""
    v, k = indecomposable_root(word, oracle)
    return frozenset(u for u in closure(v, k, oracle) if len(u) == len(word))


def test_rotation_class_of_pure_power_is_singleton():
    assert rotation_class(x_power(2), TRIV) == frozenset({x_power(2)})


def test_rotation_class_contains_the_swapped_word():
    word = w(G1, X, G2, X)  # g x h x
    swapped = w(G2, X, G1, X)  # h x g x
    assert swapped in rotation_class(word, TRANS)


def test_rotation_class_members_are_all_admissible():
    for member in rotation_class(w(G1, X, X, G2, X), TRANS):
        assert is_nice(member)


LETTERS = (X, X_INV, G1, group(-1), G2)


def _reduced_sequences(prefix, depth):
    """prefix and every reduced extension of it by at most depth letters of LETTERS."""
    yield prefix
    if depth == 0:
        return
    for letter in LETTERS:
        if prefix and (
            {prefix[-1], letter} == {X, X_INV}
            or (prefix[-1].handle is not None and letter.handle is not None)
        ):
            continue
        yield from _reduced_sequences(prefix + (letter,), depth - 1)


def _tokens(word):
    return tuple((l.kind.value, l.handle) for l in word.letters)


def test_rotation_class_matches_the_reduce_every_rotation_reference():
    """Exhaustive over the admissible words of length at most 8 over x, x^-1, g1, g-1, g2."""
    admissible = [w(*seq) for seq in _reduced_sequences((), 8) if is_nice(w(*seq))]
    assert len(admissible) == 2027
    for word in admissible:
        got = rotation_class(word, TRANS)
        tokens = {_tokens(u) for u in got}
        assert tokens == helpers.rotation_class_by_every_cut(word, TRANS), word


def test_closure_matches_the_every_cut_reference_over_powers():
    """closure(v, k) is the union of v^p's classes, p <= k, for each root v of up to 8 letters."""
    roots = {
        indecomposable_root(w(*seq), TRANS)[0]
        for seq in _reduced_sequences((), 8)
        if is_nice(w(*seq))
    }
    assert len(roots) == 1990
    for v in roots:
        expected = set()
        for k in range(1, 5):
            expected |= helpers.rotation_class_by_every_cut(Word(v.letters * k), TRANS)
            got = [_tokens(u) for u in closure(v, k, TRANS)]
            assert set(got) == expected, (v, k)


def test_rotation_class_is_stable_under_recomputation():
    cls = rotation_class(w(G1, X, G2, X), TRANS)
    for member in cls:
        assert rotation_class(member, TRANS) == cls


def test_root_of_pure_power():
    assert indecomposable_root(x_power(6), TRIV) == (x_power(1), 6)


def test_root_of_repeated_block():
    word = w(G1, X, G1, X)
    assert indecomposable_root(word, TRANS) == (w(G1, X), 2)


def test_root_of_aperiodic_word_is_itself():
    word = w(G1, X, G2, X)
    assert indecomposable_root(word, TRANS) == (word, 1)


def test_evaluate_square_along_a_chain():
    s = PartialInjection([(0, 1), (1, 2)])
    assert evaluate(x_power(2), s, TRIV, 0) == 2
    assert evaluate(x_power(2), s, TRIV, 1) is None


def test_evaluate_applies_group_letters_through_the_oracle():
    s = PartialInjection([(0, 5)])
    # g1 x at 0: s then translate by one; 5 encodes 1, 3 encodes -2: check directly
    got = evaluate(w(G1, X), s, TRANS, 0)
    assert got == TRANS.eval(1, 5)


def test_restriction_of_pure_powers_is_identity_only():
    assert graph_restriction([x_power(2)], TRIV) == frozenset({TRIV.identity()})


def test_restriction_collects_letters_and_inverses():
    got = graph_restriction([w(G1, X)], TRANS)
    assert got == frozenset({0, 1, -1})


def test_reduce_cancels_adjacent_inverse_letters():
    assert reduce((X, X_INV), TRIV) == IDENTITY_WORD
    assert reduce((G1, X, X_INV), TRANS) == w(G1)


def test_reduce_merges_group_letters_through_the_oracle():
    assert reduce((G1, G2), TRANS) == w(group(3))
    assert reduce((G1, group(-1)), TRANS) == IDENTITY_WORD


def test_inverse_word_small_case():
    assert inverse_word(w(G1, X), TRANS) == w(X_INV, group(-1))


def test_power_zero_is_identity():
    assert power(w(G1, X), 0, TRANS) == IDENTITY_WORD


def test_format_and_parse_round_trip():
    word = w(G1, X, X, G2, X)
    text = format_word(word, TRANS)
    assert parse_word(text, TRANS) == word


def test_equal_words_from_parse_and_reduce_hash_and_compare_equal():
    raw = (group(3), group(-2), X, X_INV, X, X, group(-3), X_INV, X, X)
    reduced = reduce(raw, TRANS)
    parsed = parse_word("g1.x^2.g-3.x", TRANS)
    assert parsed == reduced and hash(parsed) == hash(reduced)
    assert {parsed: 1}[reduced] == 1 and len({parsed, reduced, w(*parsed.letters)}) == 1
    assert repr(parsed) == repr(reduced) == f"Word(letters={parsed.letters!r})"
    assert parsed != parse_word("g1.x^2.g-2.x", TRANS)


def test_format_of_pure_power():
    assert format_word(x_power(3), TRIV) == "x^3"
    assert format_word(x_power(1), TRIV) == "x"


letters = st.sampled_from([X, X_INV, G1, G2, group(-1), group(-2)])


@st.composite
def raw_words(draw):
    return tuple(draw(st.lists(letters, max_size=8)))


@given(raw_words())
@settings(max_examples=200)
def test_reduce_is_idempotent(raw):
    once = reduce(raw, TRANS)
    assert reduce(once.letters, TRANS) == once


@given(raw_words())
@settings(max_examples=200)
def test_reduced_words_have_no_adjacent_cancellation(raw):
    word = reduce(raw, TRANS)
    for a, b in zip(word.letters, word.letters[1:]):
        assert not (a == X and b == X_INV)
        assert not (a == X_INV and b == X)
        assert not (a.handle is not None and b.handle is not None)


@given(raw_words())
@settings(max_examples=100)
def test_inverse_is_involutive(raw):
    word = reduce(raw, TRANS)
    assert inverse_word(inverse_word(word, TRANS), TRANS) == word


@given(raw_words())
@settings(max_examples=100)
def test_word_times_inverse_reduces_to_identity(raw):
    word = reduce(raw, TRANS)
    assert reduce(word.letters + inverse_word(word, TRANS).letters, TRANS) == IDENTITY_WORD


@given(raw_words(), st.integers(min_value=0, max_value=4))
@settings(max_examples=100)
def test_power_balance_is_linear(raw, k):
    word = reduce(raw, TRANS)
    assert helpers.x_balance(power(word, k, TRANS)) == k * helpers.x_balance(word)


@given(raw_words(), raw_words(), st.integers(min_value=0, max_value=6))
@settings(max_examples=200)
def test_split_evaluation_extends_to_the_reduced_word(u_raw, v_raw, n):
    """Evaluating v then u agrees with reduce(u ++ v) wherever both settle.

    Cancellation can only make the concatenated word more defined, so this is
    an inclusion of graphs, not an equality.
    """
    s = PartialInjection([(0, 1), (1, 2), (2, 3), (3, 0), (5, 6)])
    u = reduce(u_raw, TRANS)
    v = reduce(v_raw, TRANS)
    both = reduce(u.letters + v.letters, TRANS)
    inner = evaluate(v, s, TRANS, n)
    if inner is None:
        return
    outer = evaluate(u, s, TRANS, inner)
    if outer is None:
        return
    assert evaluate(both, s, TRANS, n) == outer


@given(raw_words())
@settings(max_examples=150)
def test_admissible_words_round_trip_through_text(raw):
    word = reduce(raw, TRANS)
    if word.is_identity:
        return
    assert parse_word(format_word(word, TRANS), TRANS) == word
