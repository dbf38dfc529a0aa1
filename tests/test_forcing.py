"""Conditions, the extension order, and the dense-set constructions."""

import inspect
import itertools
import json
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcode import (
    CompletedStage,
    ExplicitTree,
    Flavor,
    FullInjectiveTree,
    InternalCheckFailed,
    KTooSmall,
    OrbitCodeError,
    PartialInjection,
    PreconditionViolated,
    Refused,
    SparseCongruenceTree,
    StagedOracle,
    TranslationOracle,
    WindowTooSmall,
    Word,
    X,
    X_INV,
    add_word,
    avoidance_bound,
    certificate_to_data,
    close_all_orbits,
    close_orbit,
    closed_orbits,
    closing_threshold,
    code_next_orbit,
    coding_condition,
    condition_from_data,
    condition_to_data,
    dagger_condition,
    extend_domain,
    extend_range,
    fixed_points,
    format_word,
    group,
    indecomposable_root,
    is_nice,
    leq,
    many_extensions,
    o_dagger,
    o_partial,
    open_orbits,
    orbit_decomposition,
    orbit_of,
    parse_word,
    plain_condition,
    reduce,
    staged_oracle,
    strong_close_orbit,
    translation_oracle,
    tree_extend,
    trivial_oracle,
    validate,
    verify_certificate_data,
    word_graph,
    x_power,
)

from orbitcode import engine as E
from orbitcode import forcing as F
from orbitcode import injections as I
from orbitcode import words as W
from orbitcode.injections import word_cycle_counts

import helpers

TRIV = trivial_oracle()
TRANS = translation_oracle()

GX = Word((group(1), X))


def inj(mapping):
    return PartialInjection(mapping.items())


def test_empty_condition_is_valid():
    validate(plain_condition(None, [x_power(1)]), TRIV)


def test_a_fixed_point_in_the_injection_is_allowed():
    # the order freezes fixed points, the condition itself does not forbid them
    validate(plain_condition(inj({3: 3}), [x_power(1)]), TRIV)


def test_unanchored_cycle_fails_coding_validation():
    c = coding_condition((0,), inj({1: 2, 2: 1}))
    helpers.refusal(validate, c, TRIV)


def test_coding_validation_checks_the_target_parity():
    validate(coding_condition((0,), inj({0: 1, 1: 0})), TRIV)
    helpers.refusal(validate, coding_condition((1,), inj({0: 1, 1: 0})), TRIV)


def test_order_is_reflexive_with_a_certificate():
    """c ≤ c holds, and its certificate on the wire adds nothing."""
    c = plain_condition(inj({0: 2}), [x_power(1)])
    leq(c, c, TRIV)
    assert certificate_to_data(c, c, TRIV) == {"pairs": [], "words": []}


def test_new_fixed_point_is_refused():
    lower = plain_condition(None, [x_power(1)])
    upper = plain_condition(inj({3: 3}), [x_power(1)])
    helpers.refusal(leq, upper, lower, TRIV)


def test_transposition_square_is_refused():
    lower = plain_condition(None, [x_power(2)])
    upper = plain_condition(inj({0: 1, 1: 0}), [x_power(2)])
    helpers.refusal(leq, upper, lower, TRIV)


def test_dropping_pairs_is_refused():
    lower = plain_condition(inj({0: 2}))
    upper = plain_condition(None)
    helpers.refusal(leq, upper, lower, TRIV)


def test_domain_extension_skips_the_fixed_point():
    c = plain_condition(None, [x_power(1)])
    t = extend_domain(c, 0, TRIV)
    assert t.s.apply(0) == 1
    leq(t, c, TRIV)


def test_domain_extension_takes_the_least_harmless_value():
    c = plain_condition(inj({0: 1}), [x_power(1)])
    t = extend_domain(c, 2, TRIV)
    assert t.s.apply(2) == 0


def test_domain_extension_without_words_is_greedy():
    c = plain_condition()
    assert extend_domain(c, 5, TRIV).s.apply(5) == 0


def test_range_extension_mirrors_the_domain_case():
    c = plain_condition(None, [x_power(1)])
    t = extend_range(c, 0, TRIV)
    assert t.s.apply_inverse(0) == 1


def test_range_extension_skips_taken_domain_points():
    c = plain_condition(inj({0: 1}))
    t = extend_range(c, 0, TRIV)
    assert t.s.apply_inverse(0) == 1


def test_range_extension_without_constraints_is_greedy():
    c = plain_condition()
    assert extend_range(c, 9, TRIV).s.apply_inverse(9) == 0


def test_extension_results_stay_below_the_input():
    c = coding_condition((1, 0), inj({0: 1, 1: 2, 2: 0}), [x_power(1)])
    t = extend_domain(c, 5, TRIV)
    leq(t, c, TRIV)
    validate(t, TRIV)
    u = extend_range(t, 7, TRIV)
    leq(u, c, TRIV)
    validate(u, TRIV)


def test_validate_names_the_least_inadmissible_word_in_text_order():
    words = [parse_word(text, TRANS) for text in ("x^-1", "x", "g1", "g2.x^-1")]
    check = helpers.refusal(validate, plain_condition(None, words), TRANS)
    assert check == "word 'g1' is not admissible"


def _verdict(*args):
    return helpers.refusal(validate, *args) if not helpers.holds(validate, *args) else None


def test_validate_over_a_valid_lower_condition_gives_the_full_prefix_verdict():
    """Every valid coding lower condition on the points 0..3, every map extending it, 16 targets.

    Given lower, validate compares only the code bits the upper map adds;
    its verdict, text included, must be the one a comparison of the whole
    prefix gives, nice or not, bits appended or not.
    """
    maps = [
        dict(zip(domain, image))
        for k in range(5)
        for domain in itertools.combinations(range(4), k)
        for image in itertools.permutations(range(4), k)
    ]
    kinds, verdicts = {None: "valid", "injection is not nice": "nice"}, Counter()
    for low, target in itertools.product(maps, itertools.product((0, 1), repeat=4)):
        lower = coding_condition(target, inj(low))
        if _verdict(lower, TRIV) is not None:
            continue
        for high in maps:
            if len(high) > len(low) and low.items() <= high.items():
                upper = coding_condition(target, lower.s.with_pairs(high.items() - low.items()))
                verdict = _verdict(upper, TRIV, lower)
                assert verdict == _verdict(upper, TRIV), (low, high, target)
                verdicts[kinds.get(verdict, "prefix")] += 1
    assert set(verdicts) == {"valid", "nice", "prefix"}, verdicts


def test_validate_formats_no_word_of_a_valid_condition(monkeypatch):
    calls = []
    real = W.format_word

    def counted(w, oracle):
        calls.append(w)
        return real(w, oracle)

    monkeypatch.setattr(W, "format_word", counted)
    words = [parse_word(text, TRANS) for text in ("x", "x^2", "g1.x", "g-3.x^2.g1.x")]
    validate(plain_condition(inj({0: 2, 2: 5}), words), TRANS)
    validate(coding_condition((0, 1), inj({0: 1, 1: 0}), words), TRANS)
    assert calls == []


def test_many_extensions_with_nothing_forbidden():
    c = plain_condition()
    node, options = many_extensions(c, FullInjectiveTree(), (), 2, TRIV)
    assert len(node) >= 3
    assert len(options) >= 3
    assert len({k for k, _ in options}) == len(options)


def test_many_extensions_avoids_the_group_translate():
    w = Word((group(-1), X))  # value at k must dodge k + 1
    c = plain_condition(None, [w])
    _, options = many_extensions(c, FullInjectiveTree(), (), 4, TRANS)
    for k, v in options:
        assert v != TRANS.eval(1, k)


def test_many_extensions_base_case():
    c = plain_condition(None, [x_power(1)])
    _, options = many_extensions(c, FullInjectiveTree(), (), 0, TRIV)
    assert len(options) >= 1


class _LeapingTree(ExplicitTree):
    """An explicit tree whose extension runs on to the end of the branch it picks.

    The tree contract lets an extension add several values at once; the walk
    bars group images at the first new index only, and checks the rest.
    """

    def extend_avoiding(self, node, barred):
        first = super().extend_avoiding(node, barred)
        return max((t for t in self.nodes if t[: len(first)] == first), key=len)


def test_many_extensions_checks_the_later_values_of_a_longer_extension():
    """One extension adds 5, 1, 2, 7, 8: 1 and 2 sit at their own index, fixed points of x.

    The walk stops inside the extension at the first value past the bound,
    and returns the whole extension as its node.
    """
    c = plain_condition(None, [x_power(1)])
    tree = _LeapingTree.from_branch((5, 1, 2, 7, 8))
    node, options = many_extensions(c, tree, (), 8, TRIV)
    assert node == (5, 1, 2, 7, 8)
    assert options == ((0, 5), (3, 7), (4, 8))
    assert many_extensions(c, tree, (), 7, TRIV) == (node, ((0, 5), (3, 7)))


def test_many_extensions_rejects_repeated_x_words():
    c = plain_condition(None, [x_power(2)])
    with pytest.raises(PreconditionViolated):
        many_extensions(c, FullInjectiveTree(), (), 1, TRIV)


def _random_walks():
    """(c, tree, start node, count, oracle): full and sparse trees (moduli 2, 5, 7)
    over random maps, nodes and single-x words."""
    rng = random.Random(12)
    trees = [FullInjectiveTree()]
    trees += [SparseCongruenceTree(seed, m) for m in (2, 5, 7) for seed in (1, 6)]
    word_sets = {
        TRIV: [[], [x_power(1)]],
        TRANS: [
            [x_power(1), GX],
            [Word((group(-2), X)), Word((group(3), X))],
            [Word((group(1), X)), Word((group(-1), X)), Word((group(5), X))],
        ],
    }
    for tree, (oracle, sets) in itertools.product(trees, word_sets.items()):
        for words in sets:
            for _ in range(4):
                s = inj(helpers.random_injection(rng, rng.randrange(12), 30))
                c = plain_condition(s, words)
                start, _ = helpers.per_call_walk(plain_condition(), tree, (), rng.randrange(4), TRIV)
                yield c, tree, start, rng.randrange(12), oracle


def _least_viable(c, tree, start, count, oracle):
    """The per-call walk's node and options, and the least of them with value ≥ `count`."""
    node, options = helpers.per_call_walk(c, tree, start, count, oracle)
    return node, options, min((k, v) for k, v in options if v >= count)


def test_the_walk_returns_what_the_per_call_walk_returns():
    """The per-call walk collects more than `count` options; this one stops at the first past it."""
    for c, tree, start, count, oracle in _random_walks():
        node, options, (k0, v0) = _least_viable(c, tree, start, count, oracle)
        expected = (node[: k0 + 1], options[: options.index((k0, v0)) + 1])
        assert many_extensions(c, tree, start, count, oracle) == expected


def test_a_tree_step_takes_the_least_viable_option_of_the_per_call_walk():
    """The pair and index the per-call walk past the bound N gives, and its node cut there."""
    for c, tree, start, _, oracle in _random_walks():
        node, _, (k0, v0) = _least_viable(c, tree, start, avoidance_bound(c, oracle), oracle)
        t, witness, k = tree_extend(c, tree, start, oracle)
        assert t.s.pairs() == c.s.with_pair(k0, v0).pairs()
        assert (k, witness) == (k0, node[: k0 + 1])


def test_tree_extension_adds_one_fresh_pair():
    c = plain_condition(None, [x_power(2)])
    t, node, k = tree_extend(c, FullInjectiveTree(), (), TRIV)
    assert len(t.s) == 1
    assert t.s.apply(k) == node[k]
    assert t.words == c.words
    leq(t, c, TRIV)
    assert fixed_points(x_power(2), t.s, TRIV) == frozenset()


def test_tree_extension_of_the_empty_condition():
    t, node, k = tree_extend(plain_condition(), FullInjectiveTree(), (), TRIV)
    assert t.s.apply(k) == node[k]


def test_tree_extension_keeps_dagger_validity():
    c = dagger_condition((0,), None, [x_power(1), x_power(2)])
    validate(c, TRIV)
    t = tree_extend(c, FullInjectiveTree(), (), TRIV)[0]
    validate(t, TRIV)
    assert not closed_orbits(t.s)


def test_closing_threshold_counts_orbit_and_word_length():
    assert closing_threshold(plain_condition(None, [x_power(1)]), 0) == 2
    assert closing_threshold(plain_condition(None, [x_power(3)]), 0) == 4


def test_close_orbit_produces_the_requested_cycle():
    c = plain_condition(None, [x_power(1)])
    t = close_orbit(c, 0, 3, TRIV)
    assert t.s.pairs() == ((0, 1), (1, 2), (2, 0))
    orbit = orbit_of(t.s, 0)
    assert orbit.closed and orbit.size == 3
    assert fixed_points(x_power(1), t.s, TRIV) == frozenset()


def test_close_orbit_refuses_at_the_threshold():
    c = plain_condition(None, [x_power(1)])
    with pytest.raises(KTooSmall):
        close_orbit(c, 0, 2, TRIV)
    with pytest.raises(KTooSmall):
        close_orbit(c, 0, 1, TRIV)


def test_close_orbit_against_a_longer_word():
    c = plain_condition(None, [x_power(3)])
    t = close_orbit(c, 0, 5, TRIV)
    assert orbit_of(t.s, 0).size == 5
    assert fixed_points(x_power(3), t.s, TRIV) == frozenset()


def test_close_orbit_grows_an_existing_chain():
    c = plain_condition(inj({0: 4, 4: 7}), [x_power(1)])
    k = closing_threshold(c, 0) + 1
    t = close_orbit(c, 0, k, TRIV)
    orbit = orbit_of(t.s, 0)
    assert orbit.closed and orbit.size == k
    assert t.s.extends(c.s)


def test_the_chain_scan_starts_at_the_gap(monkeypatch):
    """Points below the gap lie in cycles, so a coding run checks fewer points than it pairs."""
    checks = []
    fresh_point_ok = F._fresh_point_ok

    def counted(b, *args, **kwargs):
        checks.append(b)
        return fresh_point_ok(b, *args, **kwargs)

    monkeypatch.setattr(F, "_fresh_point_ok", counted)
    bits = tuple((7 * i + 3) % 5 % 2 for i in range(64))
    trace = E.run(Flavor.CODING, bits, E.auto_schedule(Flavor.CODING, 64), TRIV)
    assert 0 < len(checks) <= len(trace.final.s)


def test_coding_step_picks_the_parity_matched_length():
    c = coding_condition((1,), None, [x_power(1)])
    t = code_next_orbit(c, TRIV)
    assert t.s.pairs() == ((0, 1), (1, 2), (2, 0))
    assert o_partial(t.s) == (1,)


def test_coding_step_even_target():
    c = coding_condition((0,), None, [x_power(1)])
    t = code_next_orbit(c, TRIV)
    assert orbit_of(t.s, 0).size == 4
    assert o_partial(t.s) == (0,)


def test_two_coding_steps_commit_two_bits():
    c = coding_condition((1, 0), None, [x_power(1)])
    t = code_next_orbit(code_next_orbit(c, TRIV), TRIV)
    assert o_partial(t.s) == (1, 0)
    validate(t, TRIV)


def test_strong_closure_adds_one_small_cycle():
    c = dagger_condition((1,), None, [])
    t = strong_close_orbit(c, x_power(1), 2, TRIV)
    assert t.s.pairs() == ((1, 2), (2, 1))
    assert o_dagger(t.s, 0) == (1,)


def test_strong_closure_of_x_once_adds_one_fixed_point():
    """v^k = x: the walk's one point maps to itself, the least point past the bound."""
    c = dagger_condition((1,), inj({0: 1, 1: 0, 3: 5}), [])
    for oracle in (TRIV, TRANS):
        t = strong_close_orbit(c, x_power(1), 1, oracle)
        assert t.s.pairs() == ((0, 1), (1, 0), (3, 5), (7, 7))


def test_strong_closure_refuses_an_obligated_power():
    c = dagger_condition((1,), None, [x_power(1)])
    with pytest.raises(PreconditionViolated):
        strong_close_orbit(c, x_power(1), 1, TRIV)


def test_strong_closure_refuses_decomposable_words():
    c = dagger_condition((1,), None, [])
    with pytest.raises(PreconditionViolated):
        strong_close_orbit(c, x_power(4), 2, TRIV)


def test_strong_closure_through_a_group_letter():
    c = dagger_condition((), None, [])
    t = strong_close_orbit(c, GX, 3, TRANS)
    graph = word_graph(GX, t.s, TRANS)
    orbits = [o for o in orbit_decomposition(graph) if o.closed]
    assert [o.size for o in orbits] == [3]


def _lines_run(function, text, call):
    """call()'s result, and how many times a line of `function` reading `text` ran in it (sys.settrace)."""
    lines, first = inspect.getsourcelines(function)
    wanted = first + next(i for i, line in enumerate(lines) if text in line)
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == wanted:
            hits.append(wanted)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is function.__code__ else None)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, len(hits)


@pytest.mark.parametrize(
    "root, bits, inverse_pairs",
    [("g1.x^-1.g2.x", "111", 10), ("g2.x^-2.g1.x", "011", 16),
     ("g3.x^-1.g1.x.g-2.x", "101", 7), ("g1.x^-1.g-1.x", "000", 0)],
)
def test_strong_closures_walk_x_inverse_letters(root, bits, inverse_pairs):
    """Adjoining v^5 codes v's parities at 2, 3 and 5, through strong closures walking x^-1 letters.

    Each x^-1 letter of the walk commits its pair backwards, (next point,
    point); a target of zeros needs no closure.  The run verifies.
    """
    v = parse_word(root, TRANS)
    target = tuple(map(int, bits))
    trace, committed = _lines_run(
        strong_close_orbit, "pairs.append((points[target], points[i]))",
        lambda: E.run(Flavor.DAGGER, target, [E.WordAdded(W.power(v, 5, TRANS))], TRANS),
    )
    assert committed == inverse_pairs
    assert I.prime_parities(word_cycle_counts(v, trace.final.s, TRANS), 2) == target
    E.verify_trace_data(json.loads(json.dumps(E.trace_to_data(trace, TRANS))))


def test_strong_closure_preserves_scheduled_fixed_points():
    base = add_word(dagger_condition((1, 1), None, []), x_power(2), TRIV)
    before = {w: fixed_points(w, base.s, TRIV) for w in base.words}
    t = strong_close_orbit(base, x_power(1), 5, TRIV)
    for w, points in before.items():
        assert fixed_points(w, t.s, TRIV) == points


def test_word_addition_flips_the_first_parity():
    c = dagger_condition((1,), None, [])
    t = add_word(c, x_power(2), TRIV)
    assert x_power(1) in t.words and x_power(2) in t.words
    assert o_dagger(t.s, 0) == (1,)
    validate(t, TRIV)


def test_word_addition_is_idempotent():
    c = dagger_condition((1,), None, [])
    t = add_word(c, x_power(2), TRIV)
    assert add_word(t, x_power(2), TRIV) == t


def test_word_addition_skips_an_already_matched_parity():
    c = dagger_condition((1, 0), None, [])
    t = add_word(c, x_power(2), TRIV)
    u = add_word(t, x_power(3), TRIV)
    assert u.s == t.s  # zero 3-cycles already matches the target bit
    assert x_power(3) in u.words
    assert o_dagger(u.s, 1) == (1, 0)


def test_word_addition_closes_an_odd_count_when_needed():
    c = dagger_condition((1, 1), None, [])
    t = add_word(c, x_power(3), TRIV)
    assert o_dagger(t.s, 1) == (1, 1)
    validate(t, TRIV)


def test_close_all_orbits_leaves_nothing_open():
    c = plain_condition(inj({0: 3, 5: 6}), [x_power(1)])
    t = close_all_orbits(c, TRIV)
    assert not open_orbits(t.s)
    leq(t, c, TRIV)


def test_close_all_orbits_respects_dagger_obligations():
    c = dagger_condition((1,), None, [])
    c = add_word(c, x_power(2), TRIV)
    c = extend_domain(c, 20, TRIV)
    t = close_all_orbits(c, TRIV)
    assert not open_orbits(t.s)
    assert o_dagger(t.s, 0) == (1,)


def test_a_seal_keeps_every_obligated_prime_parity():
    """Dagger conditions whose E obligates p = 2, 3, 5 and 7, sealed with open paths of 1-3 pairs.

    A seal closes a path at its size plus L plus one, past L, the longest
    word of E, which is at least the exponent of every power in E and so
    every prime that power obligates: each obligated bit of o_dagger stays.
    """
    rng = random.Random(29)
    for bits in itertools.product((0, 1), repeat=4):
        c = add_word(dagger_condition(bits, None, []), x_power(7), TRIV)
        assert c.max_word_length == 7 and o_dagger(c.s, 3) == bits
        for sizes in ((1,), (2,), (3,), (1, 2, 3), (3, 1)):
            fresh = iter(rng.sample(range(max(c.s.support, default=0) + 1, 60), 16))
            pairs = []
            for size in sizes:
                path = [next(fresh) for _ in range(size + 1)]
                pairs += zip(path, path[1:])
            opened = F.Condition(c.s.with_pairs(pairs), c.words, c.flavor, c.target)
            validate(opened, TRIV)
            assert len(open_orbits(opened.s)) == len(sizes)
            t = close_all_orbits(opened, TRIV)
            assert not open_orbits(t.s)
            assert o_dagger(t.s, 3) == bits, (bits, sizes)
            validate(t, TRIV)


def test_chained_operations_certify_like_a_direct_order_check():
    """An operation made of several steps returns a condition that extends its input and validates."""
    c = dagger_condition((1, 1, 0), inj({0: 3, 5: 6, 8: 9}), [x_power(1)])
    for t in (add_word(c, x_power(5), TRIV), close_all_orbits(c, TRIV)):
        leq(t, c, TRIV)
        validate(t, TRIV)
    coding = extend_domain(coding_condition((1, 0, 1), None, [x_power(1), x_power(2)]), 7, TRIV)
    t = close_all_orbits(coding, TRIV)
    leq(t, coding, TRIV)
    validate(t, TRIV)


def test_a_word_added_through_strong_closures_extends_its_input(monkeypatch):
    """Dagger over translations: (g1.x)^3 flips bits 0 and 1 by two strong closures.

    The condition add_word returns, each of its steps checked once, passes
    leq over its input and validates.
    """
    closures = []
    strong = F.strong_close_orbit
    monkeypatch.setattr(F, "strong_close_orbit", lambda *a: closures.append(a[2:]) or strong(*a))
    c = dagger_condition((1, 1), inj({0: 4}), [])
    t = add_word(c, W.power(GX, 3, TRANS), TRANS)
    assert closures == [(2, TRANS), (3, TRANS)]
    leq(t, c, TRANS)
    validate(t, TRANS)
    assert o_dagger(word_graph(GX, t.s, TRANS), 1) == (1, 1)


def test_a_coding_seal_walks_no_open_path(monkeypatch):
    """Ten closures, three of them through a path: whether one is left is read off the index.

    A seal that listed the open paths to test for one walked them eleven times here.
    """
    walks = []
    paths = I._OrbitIndex.paths
    monkeypatch.setattr(I._OrbitIndex, "paths", lambda *args: walks.append(1) or paths(*args))
    bits = tuple((7 * i + 3) % 5 % 2 for i in range(64))
    c = coding_condition(bits, inj({10: 11, 20: 21, 30: 31}), [x_power(1)])
    t = close_all_orbits(c, TRIV)
    assert len(closed_orbits(t.s)) == 10 and not I.has_open_orbits(t.s)
    assert walks == []


def _seal_inputs():
    """(c, oracle): plain and dagger conditions with open paths over three oracles.

    The trivial and translation oracles, and one sealed stage of window 10
    to 39, with maps below a random span inside it, whose g·x words send a
    chain point or a word's evaluation past the window: such a seal misses
    there, at its first closure or a later one.
    Dagger conditions adjoin their words through add_word.
    """
    rng = random.Random(27)
    for i in range(150):
        if i % 3 == 0:
            oracle, span, pool = TRIV, 30, [x_power(1), x_power(2), x_power(3)]
        elif i % 3 == 1:
            oracle, span = TRANS, 30
            pool = [x_power(1), x_power(2), GX, Word((group(-2), X))]
        else:
            window = rng.randrange(10, 40)
            perm = list(range(window))
            rng.shuffle(perm)
            stage = CompletedStage(dagger_condition((), PartialInjection(enumerate(perm))),
                                   staged_oracle([]))
            oracle, span = staged_oracle([stage]), rng.randrange(6, window)
            g = oracle.generator(0)
            pool = [x_power(1)] + [Word((group(h), X))
                                   for h in (g, oracle.invert(g), oracle.compose(g, g))]
        s = inj(helpers.random_injection(rng, rng.randrange(2, 12), span))
        words = rng.sample(pool, rng.randrange(len(pool) + 1))
        if rng.random() < 0.5:
            c = plain_condition(s, words)
        else:
            c = dagger_condition(tuple(rng.randrange(2) for _ in range(4)), s)
            try:
                for w in words:
                    c = add_word(c, w, oracle)
            except OrbitCodeError:
                continue
        if open_orbits(c.s) and helpers.holds(validate, c, oracle):
            yield c, oracle


def test_the_one_pass_seal_agrees_with_the_per_closure_seal(monkeypatch):
    """The same upper condition, or the same failure with the same `required`.

    Some seals return after several closures, and some miss the window at
    their first closure or after the per-closure seal has made others.
    """
    closures = []
    close = F.close_orbit

    def counted(*args):
        closures.append(args)
        return close(*args)

    monkeypatch.setattr(F, "close_orbit", counted)
    outcomes = Counter()
    for c, oracle in _seal_inputs():
        before = len(closures)
        try:
            expected = helpers.per_closure_seal(c, oracle)
        except OrbitCodeError as exc:
            made = len(closures) - before - 1
            with pytest.raises(OrbitCodeError) as raised:
                close_all_orbits(c, oracle)
            assert type(raised.value) is type(exc), (raised.value, exc)
            assert str(raised.value) == str(exc)
            assert getattr(raised.value, "required", None) == getattr(exc, "required", None)
            outcomes[type(exc), min(made, 1)] += 1
            continue
        made = len(closures) - before
        sealed = close_all_orbits(c, oracle)
        assert len(closures) - before == made  # the one-pass seal calls no close_orbit
        assert sealed == expected
        assert sealed.s.pairs() == expected.s.pairs()
        outcomes[c.flavor, min(made, 2)] += 1
    assert set(outcomes) == {(Flavor.PLAIN, 1), (Flavor.PLAIN, 2), (Flavor.DAGGER, 1),
                             (Flavor.DAGGER, 2), (WindowTooSmall, 0),
                             (WindowTooSmall, 1)}, outcomes


def test_avoidance_bound_clears_supports_and_images():
    c = plain_condition(inj({0: 6}), [GX])
    bound = avoidance_bound(c, TRANS)
    assert bound > 6
    assert bound > TRANS.eval(1, 6)


def test_condition_serialization_round_trip():
    c = dagger_condition((1, 0), inj({0: 1, 1: 0}), [x_power(1), x_power(2)])
    data = condition_to_data(c, TRIV)
    assert set(data) == {"injection", "words"}
    back = condition_from_data(data, Flavor.DAGGER, (1, 0), TRIV)
    assert back == c


def test_certificate_serialization_and_replay():
    lower = plain_condition(None, [x_power(1)])
    upper = extend_domain(lower, 0, TRIV)
    leq(upper, lower, TRIV)
    data = certificate_to_data(upper, lower, TRIV)
    assert data == {"pairs": [[0, 1]], "words": []}
    assert verify_certificate_data(data, lower, TRIV)
    data["pairs"] = [[0, 0]]
    helpers.refusal(verify_certificate_data, data, lower, TRIV)


words_pool = [x_power(1), x_power(2), x_power(3), GX, Word((group(-1), X))]


@st.composite
def small_conditions(draw):
    pair_count = draw(st.integers(0, 4))
    used_n: set[int] = set()
    used_m: set[int] = set()
    pairs = []
    for _ in range(pair_count):
        n = draw(st.integers(0, 9))
        m = draw(st.integers(0, 9))
        if n in used_n or m in used_m:
            continue
        used_n.add(n)
        used_m.add(m)
        pairs.append((n, m))
    subset = draw(st.sets(st.sampled_from(words_pool), max_size=2))
    return plain_condition(PartialInjection(pairs), subset)


@given(small_conditions())
@settings(max_examples=100, deadline=None)
def test_order_is_transitive_along_extensions(c):
    if not helpers.holds(validate, c, TRANS):
        return
    n = max(c.s.domain, default=-1) + 1
    mid = extend_domain(c, n, TRANS)
    top = extend_range(mid, max(mid.s.range, default=-1) + 1, TRANS)
    leq(mid, c, TRANS)
    leq(top, mid, TRANS)
    leq(top, c, TRANS)


@given(small_conditions(), st.integers(0, 9))
@settings(max_examples=100, deadline=None)
def test_extension_certificates_replay_from_their_wire_form(c, n):
    if not helpers.holds(validate, c, TRANS) or n in c.s.domain:
        return
    t = extend_domain(c, n, TRANS)
    leq(t, c, TRANS)
    assert verify_certificate_data(certificate_to_data(t, c, TRANS), c, TRANS) == t


@given(small_conditions(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_orbit_closings_hit_their_size(c, bump):
    if not helpers.holds(validate, c, TRANS):
        return
    closed_cover = set()
    for o in closed_orbits(c.s):
        closed_cover |= set(o.ordered)
    n = max(c.s.support | {9}, default=9) + 1  # always a fresh point
    k = closing_threshold(c, n) + bump
    t = close_orbit(c, n, k, TRANS)
    orbit = orbit_of(t.s, n)
    assert orbit.closed and orbit.size == k
    leq(t, c, TRANS)


def _small_words():
    """Every reduced word of at most four letters from x, x^-1, g1 and g1^-1."""
    alphabet = (X, X_INV, group(1), group(-1))
    return {
        reduce(letters, TRANS)
        for length in range(5)
        for letters in itertools.product(alphabet, repeat=length)
    }


def _ends_in_x(w):
    """The shape the fixed-point layer accepts: reduced (as every word here is) and ending in x."""
    return bool(w.letters) and w.letters[-1] == X


def _injections_on(points):
    """Every partial injection with its domain and range inside `points`."""
    for k in range(len(points) + 1):
        for domain in itertools.combinations(points, k):
            for values in itertools.permutations(points, k):
                yield PartialInjection(zip(domain, values))


def test_the_narrowed_scan_equals_the_full_range_scan():
    words = [w for w in _small_words() if _ends_in_x(w)]
    for s in _injections_on(range(4)):
        for w in words:
            for bound in (max(s.support, default=-1) + 1, 6):
                expected = helpers.full_range_fixed_points(w, s, TRANS, bound)
                assert fixed_points(w, s, TRANS) == expected, (w, s, bound)
            graph = {}
            for n in s.support:
                value = helpers.evaluate_letters(w.letters, s, TRANS, n)
                if value is not None:
                    graph[n] = value
            assert word_graph(w, s, TRANS).as_dict() == graph, (w, s)


def test_the_one_sided_order_check_agrees_with_the_two_sided_reference():
    words = [w for w in _small_words() if _ends_in_x(w)]
    for t in _injections_on(range(4)):
        for pair in t.pairs():
            s = PartialInjection(p for p in t.pairs() if p != pair)
            for w in words:
                lower, upper = plain_condition(s, [w]), plain_condition(t, [w])
                [(fix_lower, fix_upper)] = helpers.two_sided_leq(upper, lower, TRANS).values()
                assert fix_lower <= fix_upper, (w, t, pair)
                if fix_lower == fix_upper:
                    leq(upper, lower, TRANS)
                    assert fixed_points(w, t, TRANS) == fix_upper, (w, t, pair)
                else:
                    got = helpers.refusal(leq, upper, lower, TRANS)
                    assert got.endswith(f"(gained {sorted(fix_upper - fix_lower)})")


def _full_scan_leq(upper, lower, oracle):
    """The word clause by full scans: the fixed sets, or the refusal reason for the first word.

    Each word's fixed points under upper come from the package's full scan,
    and both sides from the two-sided reference, which must agree with it.
    """
    sides = helpers.two_sided_leq(upper, lower, oracle)
    fixed_sets = []
    for w in sorted(sides, key=lambda w: format_word(w, oracle)):
        fix_lower, fix_upper = sides[w]
        assert fixed_points(w, upper.s, oracle) == fix_upper, w
        assert fix_lower <= fix_upper, w
        if fix_upper != fix_lower:
            gained = sorted(fix_upper - fix_lower)
            return f"word {format_word(w, oracle)!r} changed fixed points (gained {gained})"
        fixed_sets.append((w, fix_upper))
    return tuple(fixed_sets)


def _fresh(c):
    """c over a new injection with the same pairs: nothing remembered, nothing carried."""
    return plain_condition(PartialInjection(c.s.pairs()), c.words)


def _fixed_sets(words, s, oracle):
    """(w, fixed points of w under s) per word in text order; after leq, s's memos are carried."""
    ordered = sorted(words, key=lambda w: format_word(w, oracle))
    return tuple((w, fixed_points(w, s, oracle)) for w in ordered)


def _leq_outcome(upper, lower, oracle):
    """The fixed sets of lower's words under upper once leq certifies it, or leq's refusal."""
    try:
        leq(upper, lower, oracle)
    except Refused as exc:
        return str(exc)
    return _fixed_sets(lower.words, upper.s, oracle)


def _assert_leq_matches_the_full_scan(upper, lower, oracle) -> bool:
    """True if leq certifies upper over lower, once it agrees with the full scans."""
    got = _leq_outcome(upper, lower, oracle)
    expected = _full_scan_leq(upper, lower, oracle)
    assert got == expected, (got, expected)
    assert _leq_outcome(_fresh(upper), _fresh(lower), oracle) == got
    return not isinstance(got, str)


def _random_word(rng, alphabet, oracle):
    letters = [rng.choice(alphabet) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.6:
        letters.append(X)  # most draws end in x, the only shape tracked
    return reduce(letters, oracle)


def _random_extension(rng, s, span):
    """s plus one to three pairs: fresh points, or a chain closing one of s's open orbits."""
    orbits = open_orbits(s)
    if orbits and rng.random() < 0.4:
        orbit = rng.choice(orbits)
        fresh = [p for p in range(span) if p not in s.support]
        chain = rng.sample(fresh, min(len(fresh), rng.randint(0, 2)))
        route = [orbit.exit, *chain, orbit.entry]
        return s.with_pairs(zip(route, route[1:]))
    pairs = []
    dom, ran = set(s.domain), set(s.range)
    for _ in range(rng.randint(1, 3)):
        free_dom = [p for p in range(span) if p not in dom]
        free_ran = [p for p in range(span) if p not in ran]
        if not free_dom:
            break
        n, m = rng.choice(free_dom), rng.choice(free_ran)
        pairs.append((n, m))
        dom.add(n)
        ran.add(m)
    return s.with_pairs(pairs)


@pytest.mark.parametrize("oracle", [TRIV, TRANS], ids=["trivial", "translation"])
def test_the_incremental_order_check_agrees_with_the_full_scans(oracle):
    """Chains of three random extensions, each checked on the carried memo and on fresh copies.

    Words mix x^-1 and group letters, and those that end in x are tracked;
    a step may add one pair, several, or close an orbit through a chain, and
    a refused step starts the next one from scratch.  Reflexive checks read
    the memo a step leaves behind.
    """
    rng = random.Random(11 if oracle is TRIV else 12)
    alphabet = (X, X_INV) if oracle is TRIV else (X, X_INV, group(1), group(-1), group(2))
    span = 9
    verdicts = []
    for _ in range(250):
        words = {_random_word(rng, alphabet, oracle) for _ in range(rng.randint(1, 3))}
        words = {w for w in words if _ends_in_x(w)}
        s = PartialInjection(helpers.random_injection(rng, rng.randint(0, 4), 6).items())
        c = plain_condition(s, words)
        for _ in range(3):
            if len(c.s) >= span - 1:
                break
            upper = plain_condition(_random_extension(rng, c.s, span), c.words)
            verdicts.append(_assert_leq_matches_the_full_scan(upper, c, oracle))
            assert _leq_outcome(upper, upper, oracle) == _full_scan_leq(upper, upper, oracle)
            c = upper
    assert sum(verdicts) > 300 and len(verdicts) - sum(verdicts) > 100


def test_a_chain_of_certified_steps_reads_the_carried_memo(monkeypatch):
    """Close an orbit in three certified steps; the last check evaluates only where its pair reaches."""
    oracle = TRANS
    words = {x_power(2), reduce((X_INV, group(2), X, X), oracle), reduce((group(2), X), oracle)}
    c0 = plain_condition(PartialInjection([(0, 1), (1, 2), (5, 6)]), words)
    c1 = plain_condition(c0.s.with_pair(2, 3), words)
    c2 = plain_condition(c1.s.with_pair(6, 4), words)
    c3 = plain_condition(c2.s.with_pair(3, 0), words)
    calls = []
    evaluate = W.evaluate

    def counted(w, s, oracle, n, stuck=None):
        calls.append((w, n))
        return evaluate(w, s, oracle, n, stuck)

    monkeypatch.setattr(W, "evaluate", counted)
    for upper, lower in ((c1, c0), (c2, c1), (c3, c2)):
        assert _assert_leq_matches_the_full_scan(upper, lower, oracle)
    # a copy of c2 certified over it takes c2's memo, so the last step alone
    # evaluates only where its pair reaches
    lower = plain_condition(c2.s.with_pairs(()), words)
    leq(lower, c2, oracle)
    upper = plain_condition(lower.s.with_pair(3, 0), words)
    expected = _full_scan_leq(c3, c2, oracle)
    calls.clear()
    leq(upper, lower, oracle)
    # (3, 0) reaches 3 itself and the points stopped before an x at 3 or an x^-1 at 0
    assert 0 < len(calls) <= 3 * len(words) < len(upper.s) * len(words)
    calls.clear()
    assert _fixed_sets(words, upper.s, oracle) == expected
    assert not calls  # the fixed sets are read off the carried memos


class _WindowedTranslation(TranslationOracle):
    """Translations that refuse to evaluate at or past a window, as a staged oracle does.

    Given a handle, only the translation by that handle refuses.
    """

    def __init__(self, window, handle=None):
        self.limit, self.handle = window, handle

    def eval(self, a, n):
        if n >= self.limit and self.handle in (None, a):
            raise WindowTooSmall(n + 1)
        return super().eval(a, n)


@pytest.mark.parametrize(
    "letters",
    [(X_INV,), (group(1),), (), (group(1), X_INV), (group(0), X)],
    ids=["x^-1", "g1", "identity", "g1.x^-1", "unreduced-g0.x"],
)
def test_the_fixed_point_layer_refuses_a_word_not_reduced_or_not_ending_in_x(letters):
    w = Word(letters)
    s = PartialInjection([(0, 1), (1, 0), (2, 5)])
    c = plain_condition(s, [w])
    for check in (
        lambda: leq(c, c, TRANS),
        lambda: leq(plain_condition(s.with_pair(5, 2), [w]), c, TRANS),
        lambda: fixed_points(w, s, TRANS),
        lambda: word_graph(w, s, TRANS),
    ):
        with pytest.raises(PreconditionViolated, match="is not reduced or does not end in x"):
            check()


@pytest.mark.parametrize("oracle", [TRIV, TRANS], ids=["trivial", "translation"])
def test_a_word_with_an_identity_group_letter_is_not_admissible(oracle):
    """g0.x reduces to x, so it is not admissible: validate refuses it and add_word will not adjoin it."""
    w = Word((group(oracle.identity()), X))
    for c in (plain_condition(), coding_condition((1,)), dagger_condition((1,))):
        assert helpers.refusal(validate, replace(c, words=frozenset({w})), oracle) == (
            f"word {format_word(w, oracle)!r} is not admissible"
        )
        with pytest.raises(PreconditionViolated, match="not an admissible word"):
            add_word(c, w, oracle)


def test_the_order_check_raises_the_miss_its_first_evaluation_meets():
    """leq builds lower's memo over lower's own points, in the map's order, before upper's new ones.

    Lower's point 40 misses first (g1 at its value 60, past window 50),
    though a scan of dom(upper) in set order meets another miss first and
    upper's new points miss too.  Once the window covers them all, leq
    gives the full scans' verdict.
    """
    oracle = _WindowedTranslation(50)
    w = Word((group(1), X))
    lower = plain_condition(PartialInjection([(1, 2), (40, 60), (9, 10)]), [w])
    upper = plain_condition(lower.s.with_pairs([(70, 80), (3, 90), (33, 55)]), [w])
    misses = {n: upper.s.apply(n) + 1 for n in upper.s.domain if upper.s.apply(n) >= 50}
    with pytest.raises(WindowTooSmall) as scan:
        helpers.domain_scan_fixed_points(w, upper.s, oracle)
    with pytest.raises(WindowTooSmall) as check:
        leq(upper, lower, oracle)
    assert len(set(misses.values())) == 4 and scan.value.required in misses.values()
    assert check.value.required == misses[40] == 61 != scan.value.required
    oracle.limit = 100
    assert _leq_outcome(upper, lower, oracle) == _full_scan_leq(upper, lower, oracle)


def test_a_later_roots_miss_propagates_and_a_grown_window_names_the_earlier_gain():
    """g1.x gains 0 at the new pair (0, 1) while g2.x misses at 60: leq raises the miss.

    The roots are checked in text order, g1.x's gain is found first, and
    g2.x's memo over lower misses: no scan of the whole domain runs in its
    place.  Once the window covers 60, leq names 'g1.x' and its gain.
    """
    oracle = _WindowedTranslation(50, handle=2)
    words = [Word((group(1), X)), Word((group(2), X))]
    lower = plain_condition(PartialInjection([(5, 60), (7, 8)]), words)
    upper = plain_condition(lower.s.with_pair(0, 1), words)
    with pytest.raises(WindowTooSmall) as miss:
        leq(upper, lower, oracle)
    assert miss.value.required == 61
    oracle.limit = 61
    assert helpers.refusal(leq, upper, lower, oracle) == "word 'g1.x' changed fixed points (gained [0])"


def _missing_map():
    """Points 30, 10 and 20, in that order, whose values 90, 85 and 70 lie past window 50."""
    return PartialInjection([(30, 90), (10, 85), (20, 70), (1, 2)])


def test_a_map_with_no_memo_raises_the_miss_of_its_first_point():
    """validate's dagger clause evaluates g1.x at each point in the map's order, and raises 30's miss."""
    oracle = _WindowedTranslation(50)
    v = Word((group(1), X))
    c = dagger_condition((0,), _missing_map(), [v, Word(v.letters * 2)])
    assert list(c.s._live())[0] == 30 and c.s._fixes is None
    with pytest.raises(WindowTooSmall) as miss:
        validate(c, oracle)
    assert miss.value.required == 91  # not the least point's, 86, nor the least required, 71
    assert (v, oracle) not in c.s._fixes
    with pytest.raises(WindowTooSmall) as again:
        word_cycle_counts(v, _missing_map(), oracle)
    assert again.value.required == 91


def test_fixed_points_past_the_window_raises_what_the_domain_scan_raises():
    """fixed_points scans dom(s) once, in the order of the map's pairs, and raises the first miss.

    That is 2's miss, though word_graph's scan in set order meets 9's first.
    """
    oracle = _WindowedTranslation(50)
    v = Word((group(1), X))
    s = PartialInjection([(2, 60), (9, 70), (4, 3)])
    assert list(s.domain)[0] == 9  # set order puts 9 before the first pair's point 2
    with pytest.raises(WindowTooSmall) as scan:
        for n, _ in s.pairs():
            helpers.evaluate_letters(v.letters, s, oracle, n)
    with pytest.raises(WindowTooSmall) as fixed:
        fixed_points(v, s, oracle)
    with pytest.raises(WindowTooSmall) as graph:
        word_graph(v, s, oracle)
    assert fixed.value.required == scan.value.required == 61 != graph.value.required


class _ShortGrowth(_WindowedTranslation):
    """A windowed oracle whose growth covers only the last miss, short of the window asked for."""

    stages = ()

    def __init__(self, window):
        super().__init__(window)
        self.misses, self.goals = [], []

    def window(self):
        return self.limit

    def eval(self, a, n):
        try:
            return super().eval(a, n)
        except WindowTooSmall as miss:
            self.misses.append(miss)
            raise

    def grow_window(self, goal):
        self.goals.append(goal)
        self.limit = self.misses[-1].required


def test_a_step_that_misses_again_after_its_growth_names_the_second_miss():
    """The engine grows once per step: a retry that misses again aborts the run with that miss.

    Pairs (0, 40) and (1, 42), then g1.x^-1.g1.x, then a domain hit at 2:
    its check evaluates the word at 0, where g1 meets 40 past window 30;
    the window grows to 41 alone, and the retry meets 42 at point 1.
    """
    oracle = _ShortGrowth(30)
    schedule = [E.RangeHits(40), E.RangeHits(42),
                E.WordAdded(parse_word("g1.x^-1.g1.x", oracle)), E.DomainHits(2)]
    with pytest.raises(E.EngineError) as failed:
        E.run(Flavor.PLAIN, None, schedule, oracle)
    first, second = oracle.misses
    assert (first.required, second.required, oracle.goals) == (41, 43, [76])
    assert failed.value.step == 3 and failed.value.__cause__ is second
    assert str(failed.value) == "step 3: window still too small after growth, need 43"


_MISS_ROOTS = ("x", "g1.x", "g-1.x", "g-2.x.g1.x", "g1.x^-1.g2.x")


def _pairs_on(points):
    """Partial injections inside `points`, as pair lists."""
    pair = st.tuples(st.sampled_from(points), st.sampled_from(points))
    return st.lists(pair, max_size=len(points), unique_by=(lambda p: p[0], lambda p: p[1]))


def _checked_step(lower, upper, oracle):
    """validate lower, leq upper over it, validate upper over lower: then each root's
    cycle counts under upper and each word's fixed points, or the refusal's text."""
    try:
        validate(lower, oracle)
        leq(upper, lower, oracle)
        validate(upper, oracle, lower)
    except Refused as exc:
        return str(exc)
    roots = {W.period(w)[0] for w in upper.words if _ends_in_x(w)}
    counts = {v: word_cycle_counts(v, upper.s, oracle) for v in roots}
    return counts, _fixed_sets([w for w in upper.words if _ends_in_x(w)], upper.s, oracle)


def _assert_memos_whole(s):
    """Every memo s keeps is the graph, and the stuck points, a fresh scan of s finds."""
    for (w, _), memo in (s._fixes or {}).items():
        assert memo.graph.as_dict() == word_graph(w, s, TRANS).as_dict(), w
        stuck: dict = {}
        for n in s.domain:
            W.evaluate(w, s, TRANS, n, stuck)
        kept = {where: sorted(points) for where, points in memo.stuck.items() if points}
        assert kept == {where: sorted(points) for where, points in stuck.items()}, w


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_window_miss_leaves_no_partial_memo(data):
    """A miss in validate or leq keeps no memo it did not finish, and growth past it changes no verdict.

    A dagger condition whose words are one root's closure, an extension by
    fresh pairs, and a window below most values: each miss grows the window
    just past it, as far as the miss asks, and the step is checked again on
    the memos kept; every memo either map keeps equals a fresh scan, and
    the verdict once no miss is left equals the one fresh copies give.
    """
    oracle = _WindowedTranslation(data.draw(st.integers(0, 12)))
    v = parse_word(data.draw(st.sampled_from(_MISS_ROOTS)), oracle)
    words = W.closure(v, data.draw(st.integers(1, 3)), oracle)
    target = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    s = PartialInjection(data.draw(_pairs_on(range(8))))
    new = [(n, m) for n, m in data.draw(_pairs_on(range(12)))
           if s.apply(n) is None and s.apply_inverse(m) is None]
    lower = dagger_condition(target, s, words)
    upper = dagger_condition(target, s.with_pairs(new), words)
    while True:
        try:
            verdict = _checked_step(lower, upper, oracle)
            break
        except WindowTooSmall as miss:
            _assert_memos_whole(lower.s)
            _assert_memos_whole(upper.s)
            oracle.limit = miss.required
    fresh = [replace(c, s=PartialInjection(c.s.pairs())) for c in (lower, upper)]
    assert verdict == _checked_step(*fresh, oracle)


def test_many_extensions_still_checks_each_option(monkeypatch):
    """Without the group clause, (0, 1) makes 0 a fixed point of g1·x, and the check says so.

    Under g-5·x the options (0, 1) .. (4, 5) are clean and (5, 4) is the
    first to gain: the walk checks its options together, and names the
    first that gains in walk order, as checking each as it came would.
    """
    c = plain_condition(None, [Word((group(1), X))])
    monkeypatch.setattr(W, "graph_restriction", lambda words, oracle: frozenset({0}))
    with pytest.raises(InternalCheckFailed, match=r"missed a fixed point at \(0, 1\)"):
        many_extensions(c, FullInjectiveTree(), (), 3, TRANS)
    c = plain_condition(None, [Word((group(-5), X))])
    clean = [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5)]
    for k, v in clean:
        leq(plain_condition(c.s.with_pair(k, v), c.words), c, TRANS)
    with pytest.raises(InternalCheckFailed, match=r"missed a fixed point at \(5, 4\)$"):
        many_extensions(c, FullInjectiveTree(), (), 12, TRANS)


def _staged_walks():
    """(c, tree, start node, count, oracle) over one sealed stage of window 6 to 19.

    Full and sparse trees, maps with values up to a few past the window, and
    g·x words for g = g0, its inverse and its square: a walk that runs past
    the window misses there, in its own evaluation or in an option's check.
    """
    rng = random.Random(25)
    trees = [FullInjectiveTree(), SparseCongruenceTree(1, 2), SparseCongruenceTree(6, 5)]
    for _ in range(40):
        window = rng.randrange(6, 20)
        perm = list(range(window))
        rng.shuffle(perm)
        stage = CompletedStage(dagger_condition((), PartialInjection(enumerate(perm))),
                               staged_oracle([]))
        oracle = staged_oracle([stage])
        g = oracle.generator(0)
        handles = rng.choice([[g], [g, oracle.invert(g)], [oracle.compose(g, g)]])
        words = [Word((group(h), X)) for h in handles] + [x_power(1)] * rng.randrange(2)
        s = inj(helpers.random_injection(rng, rng.randrange(window // 2), window + 3))
        tree = rng.choice(trees)
        start, _ = helpers.per_call_walk(plain_condition(), tree, (), rng.randrange(3), TRIV)
        yield plain_condition(s, words), tree, start, rng.randrange(2 * window), oracle


def _same_outcome_as_the_per_option_walk(walk, checks):
    """None when both walks return the same, else the type both raise;
    and the checks of the per-option walk that passed, one per entry `checks` gains.

    A window miss may differ in which evaluation meets it, and so in its
    text and `required`: the joint check evaluates other points than the
    per-option checks do.
    """
    before = len(checks)
    try:
        expected = helpers.per_option_walk(*walk)
    except OrbitCodeError as exc:
        checked = len(checks) - before
        with pytest.raises(OrbitCodeError) as raised:
            many_extensions(*walk)
        assert type(raised.value) is type(exc), (raised.value, exc)
        return type(exc), checked
    checked = len(checks) - before
    assert many_extensions(*walk) == expected
    return None, checked


def test_the_walk_agrees_with_the_per_option_walk(monkeypatch):
    """Same node and options, or a failure of the same type.

    Among the staged walks, some return, some miss before any check of the
    per-option walk passes, and some miss after one or several have.
    """
    checks = []

    def counted(*args):
        leq(*args)
        checks.append(args)

    monkeypatch.setattr(F, "leq", counted)
    assert {_same_outcome_as_the_per_option_walk(walk, checks)[0]
            for walk in _random_walks()} == {None}
    outcomes = Counter()
    for walk in _staged_walks():
        outcome, checked = _same_outcome_as_the_per_option_walk(walk, checks)
        outcomes[outcome, min(checked, 2)] += 1
    assert set(outcomes) == {(None, 1), (None, 2), (WindowTooSmall, 0),
                             (WindowTooSmall, 1), (WindowTooSmall, 2)}, outcomes


def test_a_tree_step_walks_the_group_blocks_of_a_word_with_several_x(monkeypatch):
    """E holds g1.x.g1.x, with two x: the walk's scratch words take its block g1.x beside x.

    The option the step takes is the last the per-option walk finds over
    the same scratch words, and the run's trace verifies.
    """
    walks = []
    walk = F.many_extensions
    monkeypatch.setattr(F, "many_extensions", lambda *args: walks.append(args) or walk(*args))
    schedule = [E.WordAdded(parse_word("g1.x.g1.x", TRANS)), E.DomainHits(0)]
    trees = (FullInjectiveTree(), SparseCongruenceTree(3))
    schedule += [E.TreeDiagonalized(tree) for tree in trees]
    trace = E.run(Flavor.PLAIN, None, schedule, TRANS)
    assert trace.final.words == {schedule[0].word} and len(walks) == 2
    for (scratch, *rest), step in zip(walks, trace.steps[2:]):
        assert scratch.words == {x_power(1), GX}
        _, options = helpers.per_option_walk(scratch, *rest)
        lower = trace.steps[step.index - 1].condition
        assert tuple(step.condition.s.pairs_beyond(lower.s)) == (options[-1],)
        assert step.extra["witness_index"] == options[-1][0]
    E.verify_trace_data(json.loads(json.dumps(E.trace_to_data(trace, TRANS))))


def test_a_leaping_walk_on_a_sealed_stage_agrees_with_the_per_option_walk():
    """Extensions that add several values, some at their own index, past a stage's window.

    The walk answers the identity handle itself, so a value past the first
    new index that equals its index asks the oracle nothing.
    """
    rng = random.Random(41)
    outcomes = Counter()
    for _ in range(80):
        window = rng.randrange(4, 10)
        perm = list(range(window))
        rng.shuffle(perm)
        stage = CompletedStage(dagger_condition((), PartialInjection(enumerate(perm))),
                               staged_oracle([]))
        oracle = staged_oracle([stage])
        g = oracle.generator(0)
        words = [Word((group(h), X)) for h in rng.choice(
            [[g], [g, oracle.invert(g)], [oracle.compose(g, g)]])]
        branches = []
        for _ in range(3):
            # values inside the window, then at the first index past it its
            # own index half the time, then values past it
            tail = rng.sample(range(window + 1, 2 * window + 6), 3)
            head = [window] if rng.random() < 0.5 else tail[:1]
            branches.append(rng.sample(range(window), window) + head + tail[1:])
        tree = _LeapingTree(b[:i] for b in branches for i in range(len(b) + 1))
        # with a count past every value the walk runs on past the window
        count = rng.choice([rng.randrange(2 * window), 2 * window + 6])
        walk = (plain_condition(inj({}), words), tree, (), count, oracle)
        outcomes[_same_outcome_as_the_per_option_walk(walk, [])[0]] += 1
    assert outcomes[None] and outcomes[WindowTooSmall], outcomes


def _word_of_tokens(tokens):
    kinds = {"x": X, "x^-1": X_INV}
    return Word(tuple(kinds[kind] if kind in kinds else group(h) for kind, h in tokens))


def test_the_per_root_dagger_check_agrees_with_the_word_by_word_reference():
    """Random word sets, closed or with a member dropped or a stray word added."""
    rng = random.Random(9)
    roots = sorted(
        {
            w
            for w in _small_words()
            if is_nice(w) and indecomposable_root(w, TRANS) == (w, 1)
        },
        key=lambda w: format_word(w, TRANS),
    )
    verdicts = []
    for _ in range(400):
        tokens = set()
        for v in rng.sample(roots, rng.randint(1, 3)):
            for p in range(1, rng.randint(1, 4) + 1):
                tokens |= helpers.rotation_class_by_every_cut(Word(v.letters * p), TRANS)
        words = {_word_of_tokens(t) for t in tokens}
        if rng.random() < 0.4:
            words.discard(rng.choice(sorted(words, key=lambda w: format_word(w, TRANS))))
        if rng.random() < 0.2:
            words.add(rng.choice(roots))
        s = PartialInjection(helpers.random_injection(rng, rng.randint(0, 5), 7).items())
        ones = rng.random() < 0.3
        target = tuple(rng.randrange(2) if ones else 0 for _ in range(rng.randint(0, 3)))
        c = dagger_condition(target, s, words)
        expected = helpers.word_by_word_dagger_clauses(c, TRANS)
        assert helpers.holds(validate, c, TRANS) == expected, (sorted(map(repr, words)), s, target)
        verdicts.append(expected)
    assert 50 < sum(verdicts) < 350


def _scanned_root_counts(c, oracle):
    """v[s]'s closed cycles by size, per root v of E whose full scan stays in the window."""
    out = {}
    for v in {indecomposable_root(w, oracle)[0] for w in c.words}:
        try:
            graph = word_graph(v, c.s, oracle)
        except WindowTooSmall:
            continue
        orbits = helpers.orbits_by_minimum(graph.as_dict())
        out[v] = dict(Counter(len(walk) for walk, closed in orbits if closed))
    return out


def _check_every_dagger_validate(monkeypatch) -> tuple[list, list]:
    """Wrap validate: each dagger condition that passes must read its roots' counts as a scan does.

    Returns the roots checked and the conditions validated, in call order.
    """
    checked, calls = [], []
    real = F.validate

    def checking(c, oracle, lower=None):
        calls.append(c)
        real(c, oracle, lower)
        if c.flavor is Flavor.DAGGER:
            for v, expected in _scanned_root_counts(c, oracle).items():
                assert word_cycle_counts(v, c.s, oracle) == expected, (v, c.s)
                checked.append(v)

    monkeypatch.setattr(F, "validate", checking)
    return checked, calls


def test_the_memo_agrees_with_a_fresh_scan_along_a_certified_translation_chain(monkeypatch):
    """Candidates are certified, then validated on the memo they carry; verify carries it again.

    verify validates once per step with a non-empty delta, and never a step
    that adds nothing: its upper condition is the one validated before it.
    """
    checked, calls = _check_every_dagger_validate(monkeypatch)
    gx = parse_word("g1.x", TRANS)
    schedule = [E.WordAdded(gx), E.WordAdded(W.power(gx, 3, TRANS))]
    schedule += E.auto_schedule(Flavor.DAGGER, 4)
    trace = E.run(Flavor.DAGGER, (1, 0, 1, 1), schedule, TRANS)
    data = json.loads(json.dumps(E.trace_to_data(trace, TRANS)))
    during_run = len(checked)
    calls.clear()
    E.verify_trace_data(data)
    adding = [step for step in data["steps"] if step["pairs"] or step["words"]]
    assert during_run >= 25 and len(checked) > during_run
    assert 0 < len(adding) < len(data["steps"]) and len(calls) == len(adding)


def test_the_memo_agrees_with_a_fresh_scan_along_a_staged_run(monkeypatch):
    """Stage 1 and 2 words name earlier generators, and window growth re-extends stages in place.

    The build validates only the candidates the order check certifies, and
    verify replays each stage trace under the same wrapper.
    """
    checked, _ = _check_every_dagger_validate(monkeypatch)
    stages = E.staged_run([(0, 1, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)])  # triple 052
    later = [w for stage in stages[1:] for w in stage.condition.words]
    staged_words = {w for w in later if w.x_count() < len(w)}
    during_run = len(checked)
    for i, stage in enumerate(stages):
        data = E.trace_to_data(stage.trace, StagedOracle(stages[:i]))
        E.verify_trace_data(json.loads(json.dumps(data)))
    assert staged_words and during_run >= 100 and len(checked) >= 150


def _validated_translation_condition():
    """A dagger condition over the translations with roots x and g1.x, each with an obligation."""
    gx = parse_word("g1.x", TRANS)
    schedule = [E.WordAdded(W.power(gx, 2, TRANS)), E.WordAdded(x_power(3))]
    schedule += [E.DomainHits(i) for i in range(10)] + [E.RangeHits(i) for i in range(8)]
    c = E.run(Flavor.DAGGER, (1, 0), schedule, TRANS).final
    validate(c, TRANS)
    return c


def _root_memos(c, oracle):
    """What each root's graph on c.s reads: its memo, or for x, which keeps none, c.s and its cycles."""
    roots = {indecomposable_root(w, oracle)[0] for w in c.words}
    out = {}
    for v in roots:
        if v == x_power(1):
            assert (v, oracle) not in (c.s._fixes or {})
            out[v] = (c.s.pairs(), [o.ordered for o in closed_orbits(c.s)])
            continue
        memo = c.s._fixes[(v, oracle)]
        out[v] = (memo.graph.pairs(), {k: list(p) for k, p in memo.stuck.items()})
    return out


def test_a_refused_candidate_leaves_the_next_one_the_verdict_a_fresh_validate_gives():
    """Every one-pair candidate in a range, refused or not, against a fresh copy of its map."""
    c = _validated_translation_condition()
    memos = _root_memos(c, TRANS)
    verdicts = []
    for n in sorted(set(range(16)) - c.s.domain):
        for m in sorted(set(range(16)) - c.s.range):
            candidate = replace(c, s=c.s.with_pair(n, m))
            fresh = replace(c, s=PartialInjection(candidate.s.pairs()))
            verdict = helpers.refusal(validate, candidate, TRANS) if not helpers.holds(
                validate, candidate, TRANS
            ) else None
            expected = helpers.refusal(validate, fresh, TRANS) if not helpers.holds(
                validate, fresh, TRANS
            ) else None
            assert verdict == expected, (n, m)
            assert _root_memos(c, TRANS) == memos
            verdicts.append(verdict)
    refused = [v for v in verdicts if v is not None]
    assert any("miscodes" in v for v in refused) and len(refused) < len(verdicts)


def _counted_evaluations(monkeypatch) -> list:
    calls = []
    evaluate = W.evaluate

    def counted(w, s, oracle, n, stuck=None):
        calls.append((w, n))
        return evaluate(w, s, oracle, n, stuck)

    monkeypatch.setattr(W, "evaluate", counted)
    return calls


def test_certifying_a_one_pair_child_evaluates_each_root_but_x_once_at_its_new_point(monkeypatch):
    """E unchanged and the parent validated: leq then validate, one evaluation per root but x.

    The order check evaluates g1.x where the pair reaches and carries the
    parent's memo to the child, so validate evaluates nothing more; x[s] is
    s, so x is read off the map and never evaluated.
    """
    c = _validated_translation_condition()
    calls = _counted_evaluations(monkeypatch)
    far = 10 * (max(c.s.support) + 10)
    child = replace(c, s=c.s.with_pair(far, far + 2))
    assert F._admissible(c, child, TRANS) is child
    roots = {indecomposable_root(w, TRANS)[0] for w in c.words}
    assert len(c.s) >= 10 and roots == {x_power(1), parse_word("g1.x", TRANS)}
    assert calls == [(parse_word("g1.x", TRANS), far)]


def test_certifying_an_extension_of_powers_of_x_evaluates_nothing(monkeypatch):
    """A dagger condition whose words are all powers of x: leq, validate and the scans read the map.

    Its closures and a one-pair child, certified and refused, call
    words.evaluate zero times, and each verdict is the one a fresh copy of
    the map gets.
    """
    schedule = [E.WordAdded(x_power(3))] + [E.DomainHits(i) for i in range(10)]
    c = E.run(Flavor.DAGGER, (1, 0), schedule, TRIV).final
    assert c.words == {x_power(j) for j in (1, 2, 3)} and len(c.s) >= 10
    calls = _counted_evaluations(monkeypatch)
    validate(c, TRIV)
    verdicts = []
    for n in sorted(set(range(len(c.s) + 3)) - c.s.domain):
        for m in sorted(set(range(len(c.s) + 3)) - c.s.range):
            candidate = replace(c, s=c.s.with_pair(n, m))
            fresh = replace(c, s=PartialInjection(candidate.s.pairs()))
            verdict = helpers.holds(F._admissible, c, candidate, TRIV)
            assert verdict == helpers.holds(F._admissible, c, fresh, TRIV), (n, m)
            verdicts.append(verdict)
    sealed = F.close_all_orbits(c, TRIV)
    assert not I.has_open_orbits(sealed.s)
    assert calls == [] and any(verdicts) and not all(verdicts)


def test_a_refused_candidate_formats_no_word_until_its_message_is_read(monkeypatch):
    """leq's gain clause, and a scan past refused candidates, never call format_word.

    format_word raises while it is barred, so a refusal formats its words
    only once str() is read, and the text is then the one the clause pins.
    """
    c = plain_condition(inj({1: 0}), [x_power(1), x_power(2)])
    validate(c, TRIV)
    leq(c, c, TRIV)  # E's facts and the roots' memos, derived before the bar
    barred = True
    format_word = W.format_word

    def guarded(w, oracle):
        if barred:
            raise AssertionError(f"format_word({w!r}) called before a message was read")
        return format_word(w, oracle)

    monkeypatch.setattr(W, "format_word", guarded)
    candidate = F.Condition(c.s.with_pair(2, 2), c.words, c.flavor, c.target)
    with pytest.raises(Refused) as refused:
        leq(candidate, c, TRIV)
    assert refused.value.clause == "leq-fixed-points"
    # the scan's first candidate, (0, 1), closes a 2-cycle that x^2 fixes
    assert extend_domain(c, 0, TRIV).s.apply(0) == 2
    barred = False
    assert str(refused.value) == "word 'x' changed fixed points (gained [2])"


def test_a_refused_candidate_copies_no_dict():
    """1,000 one-pair candidates of a 20,000-pair map, kept alive, allocate O(1) each.

    Copying both dicts of the map would take about 1.2 MB per candidate.
    """
    import tracemalloc

    c = plain_condition(PartialInjection((2 * n, 2 * n + 1) for n in range(20_000)), [x_power(1)])
    leq(c, c, TRIV)  # x's memo on the map, built before counting
    kept = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1_000):
            far = 40_001 + i
            candidate = F.Condition(c.s.with_pair(far, far), c.words, c.flavor, c.target)
            with pytest.raises(Refused):
                leq(candidate, c, TRIV)
            kept.append(candidate)
        per_candidate = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert per_candidate < 2_000, per_candidate
    assert kept[0].s.apply(40_001) == 40_001 and kept[-1].s.apply(40_001) is None
    assert len(kept[0].s) == len(c.s) + 1 == 20_001


def test_a_tree_walk_on_the_trivial_oracle_asks_it_nothing():
    """The identity is the only handle: its images are read off, not evaluated."""

    class Counting(type(TRIV)):
        calls = 0

        def eval(self, a, n):
            Counting.calls += 1
            return super().eval(a, n)

    oracle = Counting()
    schedule = [E.WordAdded(x_power(1)), E.DomainHits(0)]
    trees = (FullInjectiveTree(), SparseCongruenceTree(3))
    schedule += [E.TreeDiagonalized(tree) for tree in trees]
    trace = E.run(Flavor.PLAIN, None, schedule, oracle)
    assert Counting.calls == 0
    assert E.run(Flavor.PLAIN, None, schedule, TRIV).steps == trace.steps


def test_domain_and_range_hits_read_the_map_not_its_domain_or_range(monkeypatch):
    """A hit's scan asks the map about each value, so it never builds dom(s) or ran(s).

    On a path of 5,000 pairs, a domain hit at the exit and a range hit at
    the entry each scan past 5,000 taken values; a coding run's trace is
    the same bytes with the two sets out of reach.
    """
    bits = tuple((7 * i + 3) % 5 % 2 for i in range(64))

    def coding_text():
        trace = E.run(Flavor.CODING, bits, E.auto_schedule(Flavor.CODING, 64), TRIV)
        return json.dumps(E.trace_to_data(trace, TRIV))

    expected = coding_text()

    def unreachable(self):
        raise AssertionError("a hit built a domain or range set")

    monkeypatch.setattr(PartialInjection, "domain", property(unreachable))
    monkeypatch.setattr(PartialInjection, "range", property(unreachable))
    c = plain_condition(PartialInjection((i + 1, i) for i in range(5000)))
    assert extend_domain(c, 0, TRIV).s.pairs_beyond(c.s) == ((0, 5000),)
    assert extend_range(c, 5000, TRIV).s.pairs_beyond(c.s) == ((0, 5000),)
    assert coding_text() == expected
