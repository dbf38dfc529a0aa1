"""Conditions, the extension order, and the dense-set constructions."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcode import (
    CheckResult,
    ExtensionCertificate,
    Flavor,
    FullInjectiveTree,
    KTooSmall,
    PartialInjection,
    PreconditionViolated,
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
    group,
    leq,
    many_extensions,
    o_dagger,
    o_partial,
    open_orbits,
    orbit_decomposition,
    orbit_of,
    plain_condition,
    reduce,
    strong_close_orbit,
    support_bound,
    translation_oracle,
    tree_extend,
    trivial_oracle,
    validate,
    verify_certificate_data,
    word_graph,
    x_power,
)

import helpers

TRIV = trivial_oracle()
TRANS = translation_oracle()

GX = Word((group(1), X))


def inj(mapping):
    return PartialInjection(mapping.items())


def test_empty_condition_is_valid():
    assert validate(plain_condition(None, [x_power(1)]), TRIV)


def test_a_fixed_point_in_the_injection_is_allowed():
    # the order freezes fixed points, the condition itself does not forbid them
    assert validate(plain_condition(inj({3: 3}), [x_power(1)]), TRIV)


def test_unanchored_cycle_fails_coding_validation():
    c = coding_condition((0,), inj({1: 2, 2: 1}))
    assert not validate(c, TRIV)


def test_coding_validation_checks_the_target_parity():
    assert validate(coding_condition((0,), inj({0: 1, 1: 0})), TRIV)
    assert not validate(coding_condition((1,), inj({0: 1, 1: 0})), TRIV)


def test_order_is_reflexive_with_a_certificate():
    c = plain_condition(inj({0: 2}), [x_power(1)])
    cert = leq(c, c, TRIV)
    assert isinstance(cert, ExtensionCertificate)
    assert cert.lower == c and cert.upper == c


def test_new_fixed_point_is_refused():
    lower = plain_condition(None, [x_power(1)])
    upper = plain_condition(inj({3: 3}), [x_power(1)])
    got = leq(upper, lower, TRIV)
    assert isinstance(got, CheckResult) and not got


def test_transposition_square_is_refused():
    lower = plain_condition(None, [x_power(2)])
    upper = plain_condition(inj({0: 1, 1: 0}), [x_power(2)])
    got = leq(upper, lower, TRIV)
    assert isinstance(got, CheckResult) and not got


def test_dropping_pairs_is_refused():
    lower = plain_condition(inj({0: 2}))
    upper = plain_condition(None)
    got = leq(upper, lower, TRIV)
    assert isinstance(got, CheckResult) and not got


def test_domain_extension_skips_the_fixed_point():
    c = plain_condition(None, [x_power(1)])
    t = extend_domain(c, 0, TRIV).upper
    assert t.s.apply(0) == 1
    assert leq(t, c, TRIV)


def test_domain_extension_takes_the_least_harmless_value():
    c = plain_condition(inj({0: 1}), [x_power(1)])
    t = extend_domain(c, 2, TRIV).upper
    assert t.s.apply(2) == 0


def test_domain_extension_without_words_is_greedy():
    c = plain_condition()
    assert extend_domain(c, 5, TRIV).upper.s.apply(5) == 0


def test_range_extension_mirrors_the_domain_case():
    c = plain_condition(None, [x_power(1)])
    t = extend_range(c, 0, TRIV).upper
    assert t.s.apply_inverse(0) == 1


def test_range_extension_skips_taken_domain_points():
    c = plain_condition(inj({0: 1}))
    t = extend_range(c, 0, TRIV).upper
    assert t.s.apply_inverse(0) == 1


def test_range_extension_without_constraints_is_greedy():
    c = plain_condition()
    assert extend_range(c, 9, TRIV).upper.s.apply_inverse(9) == 0


def test_extension_results_stay_below_the_input():
    c = coding_condition((1, 0), inj({0: 1, 1: 2, 2: 0}), [x_power(1)])
    t = extend_domain(c, 5, TRIV).upper
    assert leq(t, c, TRIV)
    assert validate(t, TRIV)
    u = extend_range(t, 7, TRIV).upper
    assert leq(u, c, TRIV)
    assert validate(u, TRIV)


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


def test_many_extensions_rejects_repeated_x_words():
    c = plain_condition(None, [x_power(2)])
    with pytest.raises(PreconditionViolated):
        many_extensions(c, FullInjectiveTree(), (), 1, TRIV)


def test_tree_extension_adds_one_fresh_pair():
    c = plain_condition(None, [x_power(2)])
    cert, node, k = tree_extend(c, FullInjectiveTree(), (), TRIV)
    t = cert.upper
    assert len(t.s) == 1
    assert t.s.apply(k) == node[k]
    assert t.words == c.words
    assert leq(t, c, TRIV)
    assert fixed_points(x_power(2), t.s, TRIV, 20) == frozenset()


def test_tree_extension_of_the_empty_condition():
    cert, node, k = tree_extend(plain_condition(), FullInjectiveTree(), (), TRIV)
    t = cert.upper
    assert t.s.apply(k) == node[k]


def test_tree_extension_keeps_dagger_validity():
    c = dagger_condition((0,), None, [x_power(1), x_power(2)])
    assert validate(c, TRIV)
    t = tree_extend(c, FullInjectiveTree(), (), TRIV)[0].upper
    assert validate(t, TRIV)
    assert not closed_orbits(t.s)


def test_closing_threshold_counts_orbit_and_word_length():
    assert closing_threshold(plain_condition(None, [x_power(1)]), 0) == 2
    assert closing_threshold(plain_condition(None, [x_power(3)]), 0) == 4


def test_close_orbit_produces_the_requested_cycle():
    c = plain_condition(None, [x_power(1)])
    t = close_orbit(c, 0, 3, TRIV).upper
    assert t.s.pairs() == ((0, 1), (1, 2), (2, 0))
    orbit = orbit_of(t.s, 0)
    assert orbit.closed and orbit.size == 3
    assert fixed_points(x_power(1), t.s, TRIV, 20) == frozenset()


def test_close_orbit_refuses_at_the_threshold():
    c = plain_condition(None, [x_power(1)])
    with pytest.raises(KTooSmall):
        close_orbit(c, 0, 2, TRIV)
    with pytest.raises(KTooSmall):
        close_orbit(c, 0, 1, TRIV)


def test_close_orbit_against_a_longer_word():
    c = plain_condition(None, [x_power(3)])
    t = close_orbit(c, 0, 5, TRIV).upper
    assert orbit_of(t.s, 0).size == 5
    assert fixed_points(x_power(3), t.s, TRIV, 40) == frozenset()


def test_close_orbit_grows_an_existing_chain():
    c = plain_condition(inj({0: 4, 4: 7}), [x_power(1)])
    k = closing_threshold(c, 0) + 1
    t = close_orbit(c, 0, k, TRIV).upper
    orbit = orbit_of(t.s, 0)
    assert orbit.closed and orbit.size == k
    assert t.s.extends(c.s)


def test_coding_step_picks_the_parity_matched_length():
    c = coding_condition((1,), None, [x_power(1)])
    t = code_next_orbit(c, TRIV).upper
    assert t.s.pairs() == ((0, 1), (1, 2), (2, 0))
    assert o_partial(t.s) == (1,)


def test_coding_step_even_target():
    c = coding_condition((0,), None, [x_power(1)])
    t = code_next_orbit(c, TRIV).upper
    assert orbit_of(t.s, 0).size == 4
    assert o_partial(t.s) == (0,)


def test_two_coding_steps_commit_two_bits():
    c = coding_condition((1, 0), None, [x_power(1)])
    t = code_next_orbit(code_next_orbit(c, TRIV).upper, TRIV).upper
    assert o_partial(t.s) == (1, 0)
    assert validate(t, TRIV)


def test_strong_closure_adds_one_small_cycle():
    c = dagger_condition((1,), None, [])
    t = strong_close_orbit(c, x_power(1), 2, TRIV).upper
    assert t.s.pairs() == ((1, 2), (2, 1))
    assert o_dagger(t.s, 0) == (1,)


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
    t = strong_close_orbit(c, GX, 3, TRANS).upper
    graph = word_graph(GX, t.s, TRANS)
    orbits = [o for o in orbit_decomposition(graph) if o.closed]
    assert [o.size for o in orbits] == [3]


def test_strong_closure_preserves_scheduled_fixed_points():
    base = add_word(dagger_condition((1, 1), None, []), x_power(2), TRIV).upper
    before = {
        w: fixed_points(w, base.s, TRIV, 60) for w in base.words
    }
    t = strong_close_orbit(base, x_power(1), 5, TRIV).upper
    for w, points in before.items():
        assert fixed_points(w, t.s, TRIV, 60) == points


def test_word_addition_flips_the_first_parity():
    c = dagger_condition((1,), None, [])
    t = add_word(c, x_power(2), TRIV).upper
    assert x_power(1) in t.words and x_power(2) in t.words
    assert o_dagger(t.s, 0) == (1,)
    assert validate(t, TRIV)


def test_word_addition_is_idempotent():
    c = dagger_condition((1,), None, [])
    t = add_word(c, x_power(2), TRIV).upper
    assert add_word(t, x_power(2), TRIV).upper == t


def test_word_addition_skips_an_already_matched_parity():
    c = dagger_condition((1, 0), None, [])
    t = add_word(c, x_power(2), TRIV).upper
    u = add_word(t, x_power(3), TRIV).upper
    assert u.s == t.s  # zero 3-cycles already matches the target bit
    assert x_power(3) in u.words
    assert o_dagger(u.s, 1) == (1, 0)


def test_word_addition_closes_an_odd_count_when_needed():
    c = dagger_condition((1, 1), None, [])
    t = add_word(c, x_power(3), TRIV).upper
    assert o_dagger(t.s, 1) == (1, 1)
    assert validate(t, TRIV)


def test_close_all_orbits_leaves_nothing_open():
    c = plain_condition(inj({0: 3, 5: 6}), [x_power(1)])
    t = close_all_orbits(c, TRIV).upper
    assert not open_orbits(t.s)
    assert leq(t, c, TRIV)


def test_close_all_orbits_respects_dagger_obligations():
    c = dagger_condition((1,), None, [])
    c = add_word(c, x_power(2), TRIV).upper
    c = extend_domain(c, 20, TRIV).upper
    t = close_all_orbits(c, TRIV).upper
    assert not open_orbits(t.s)
    assert o_dagger(t.s, 0) == (1,)


def test_chained_operations_certify_like_a_direct_order_check():
    c = dagger_condition((1, 1, 0), inj({0: 3, 5: 6, 8: 9}), [x_power(1)])
    for cert in (add_word(c, x_power(5), TRIV), close_all_orbits(c, TRIV)):
        assert cert.lower == c
        assert cert == leq(cert.upper, c, TRIV)
    coding = coding_condition((1, 0, 1), None, [x_power(1), x_power(2)])
    cert = close_all_orbits(extend_domain(coding, 7, TRIV).upper, TRIV)
    assert cert == leq(cert.upper, cert.lower, TRIV)


def test_avoidance_bound_clears_supports_and_images():
    c = plain_condition(inj({0: 6}), [GX])
    bound = avoidance_bound(c, TRANS)
    assert bound > 6
    assert bound > TRANS.eval(1, 6)


def test_condition_serialization_round_trip():
    c = dagger_condition((1, 0), inj({0: 1, 1: 0}), [x_power(1), x_power(2)])
    data = condition_to_data(c, TRIV)
    assert set(data) == {"flavor", "injection", "words", "r_prefix"}
    back = condition_from_data(data, TRIV)
    assert back == c


def test_certificate_serialization_and_replay():
    lower = plain_condition(None, [x_power(1)])
    upper = extend_domain(lower, 0, TRIV).upper
    cert = leq(upper, lower, TRIV)
    data = certificate_to_data(cert, TRIV)
    assert verify_certificate_data(data, lower, TRIV)
    data["upper"]["injection"] = [[0, 0]]
    assert not verify_certificate_data(data, lower, TRIV)


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
    if not validate(c, TRANS):
        return
    n = max(c.s.domain, default=-1) + 1
    mid = extend_domain(c, n, TRANS).upper
    top = extend_range(mid, max(mid.s.range, default=-1) + 1, TRANS).upper
    assert leq(mid, c, TRANS)
    assert leq(top, mid, TRANS)
    assert leq(top, c, TRANS)


@given(small_conditions(), st.integers(0, 9))
@settings(max_examples=100, deadline=None)
def test_extension_certificates_replay_from_their_wire_form(c, n):
    if not validate(c, TRANS) or n in c.s.domain:
        return
    t = extend_domain(c, n, TRANS).upper
    cert = leq(t, c, TRANS)
    assert verify_certificate_data(certificate_to_data(cert, TRANS), c, TRANS)


@given(small_conditions(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_orbit_closings_hit_their_size(c, bump):
    if not validate(c, TRANS):
        return
    closed_cover = set()
    for o in closed_orbits(c.s):
        closed_cover |= set(o.elements)
    n = max(c.s.support | {9}, default=9) + 1  # always a fresh point
    k = closing_threshold(c, n) + bump
    t = close_orbit(c, n, k, TRANS).upper
    orbit = orbit_of(t.s, n)
    assert orbit.closed and orbit.size == k
    assert leq(t, c, TRANS)


def _small_words():
    """Every reduced word of at most four letters from x, x^-1, g1 and g1^-1."""
    alphabet = (X, X_INV, group(1), group(-1))
    return {
        reduce(letters, TRANS)
        for length in range(5)
        for letters in itertools.product(alphabet, repeat=length)
    }


def _injections_on(points):
    """Every partial injection with its domain and range inside `points`."""
    for k in range(len(points) + 1):
        for domain in itertools.combinations(points, k):
            for values in itertools.permutations(points, k):
                yield PartialInjection(zip(domain, values))


def test_the_narrowed_scan_equals_the_full_range_scan():
    words = _small_words()
    for s in _injections_on(range(4)):
        for w in words:
            for bound in (support_bound(s), 6):
                expected = helpers.full_range_fixed_points(w, s, TRANS, bound)
                assert fixed_points(w, s, TRANS, bound) == expected, (w, s, bound)
            graph = {}
            for n in s.support:
                value = helpers.evaluate_letters(w.letters, s, TRANS, n)
                if value is not None:
                    graph[n] = value
            assert word_graph(w, s, TRANS).as_dict() == graph, (w, s)


def test_the_one_sided_order_check_agrees_with_the_two_sided_reference():
    words = _small_words()
    for t in _injections_on(range(4)):
        for pair in t.pairs():
            s = PartialInjection(p for p in t.pairs() if p != pair)
            for w in words:
                lower, upper = plain_condition(s, [w]), plain_condition(t, [w])
                [(fix_lower, fix_upper)] = helpers.two_sided_leq(upper, lower, TRANS).values()
                got = leq(upper, lower, TRANS)
                assert fix_lower <= fix_upper, (w, t, pair)
                if fix_lower == fix_upper:
                    assert got.snapshots == ((w, fix_upper),), (w, t, pair)
                else:
                    assert not got, (w, t, pair)
                    assert got.reason.endswith(f"(gained {sorted(fix_upper - fix_lower)})")
