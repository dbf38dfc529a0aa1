"""Conditions, the extension order, and the dense-set constructions."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcode import (
    CheckResult,
    ExtensionCertificate,
    Flavor,
    FullInjectiveTree,
    InternalCheckFailed,
    KTooSmall,
    PartialInjection,
    PreconditionViolated,
    SparseCongruenceTree,
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
    strong_close_orbit,
    translation_oracle,
    tree_extend,
    trivial_oracle,
    validate,
    verify_certificate_data,
    word_graph,
    x_power,
)

from orbitcode import words as W

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


def test_validate_names_the_least_inadmissible_word_in_text_order():
    words = [parse_word(text, TRANS) for text in ("x^-1", "x", "g1", "g2.x^-1")]
    check = validate(plain_condition(None, words), TRANS)
    assert not check
    assert check.reason == "word 'g1' is not admissible"


def test_validate_formats_no_word_of_a_valid_condition(monkeypatch):
    calls = []
    real = W.format_word

    def counted(w, oracle):
        calls.append(w)
        return real(w, oracle)

    monkeypatch.setattr(W, "format_word", counted)
    words = [parse_word(text, TRANS) for text in ("x", "x^2", "g1.x", "g-3.x^2.g1.x")]
    assert validate(plain_condition(inj({0: 2, 2: 5}), words), TRANS)
    assert validate(coding_condition((0, 1), inj({0: 1, 1: 0}), words), TRANS)
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


def test_many_extensions_rejects_repeated_x_words():
    c = plain_condition(None, [x_power(2)])
    with pytest.raises(PreconditionViolated):
        many_extensions(c, FullInjectiveTree(), (), 1, TRIV)


def test_the_walk_returns_what_the_per_call_walk_returns():
    """Full and sparse trees (moduli 2, 5, 7) over random maps, nodes and single-x words."""
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
                count = rng.randrange(12)
                expected = helpers.per_call_walk(c, tree, start, count, oracle)
                assert many_extensions(c, tree, start, count, oracle) == expected


def test_tree_extension_adds_one_fresh_pair():
    c = plain_condition(None, [x_power(2)])
    cert, node, k = tree_extend(c, FullInjectiveTree(), (), TRIV)
    t = cert.upper
    assert len(t.s) == 1
    assert t.s.apply(k) == node[k]
    assert t.words == c.words
    assert leq(t, c, TRIV)
    assert fixed_points(x_power(2), t.s, TRIV) == frozenset()


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
    assert fixed_points(x_power(1), t.s, TRIV) == frozenset()


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
    assert fixed_points(x_power(3), t.s, TRIV) == frozenset()


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
    before = {w: fixed_points(w, base.s, TRIV) for w in base.words}
    t = strong_close_orbit(base, x_power(1), 5, TRIV).upper
    for w, points in before.items():
        assert fixed_points(w, t.s, TRIV) == points


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
                got = leq(upper, lower, TRANS)
                assert fix_lower <= fix_upper, (w, t, pair)
                if fix_lower == fix_upper:
                    assert got.snapshots == ((w, fix_upper),), (w, t, pair)
                else:
                    assert not got, (w, t, pair)
                    assert got.reason.endswith(f"(gained {sorted(fix_upper - fix_lower)})")


def _full_scan_leq(upper, lower, oracle):
    """The word clause by full scans: snapshots, or the refusal reason for the first word.

    Each word's fixed points under upper come from the package's full scan,
    and both sides from the two-sided reference, which must agree with it.
    """
    sides = helpers.two_sided_leq(upper, lower, oracle)
    snapshots = []
    for w in sorted(sides, key=lambda w: format_word(w, oracle)):
        fix_lower, fix_upper = sides[w]
        assert fixed_points(w, upper.s, oracle) == fix_upper, w
        assert fix_lower <= fix_upper, w
        if fix_upper != fix_lower:
            gained = sorted(fix_upper - fix_lower)
            return f"word {format_word(w, oracle)!r} changed fixed points (gained {gained})"
        snapshots.append((w, fix_upper))
    return tuple(snapshots)


def _fresh(c):
    """c over a new injection with the same pairs: nothing remembered, nothing carried."""
    return plain_condition(PartialInjection(c.s.pairs()), c.words)


def _assert_leq_matches_the_full_scan(upper, lower, oracle):
    got = leq(upper, lower, oracle)
    expected = _full_scan_leq(upper, lower, oracle)
    if isinstance(expected, str):
        assert not got and got.reason == expected, (got, expected)
    else:
        assert got and got.snapshots == expected, (got, expected)
    again = leq(_fresh(upper), _fresh(lower), oracle)
    assert bool(again) == bool(got)
    assert (again.snapshots if again else again.reason) == (got.snapshots if got else got.reason)
    return got


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
            got = _assert_leq_matches_the_full_scan(upper, c, oracle)
            verdicts.append(bool(got))
            reflexive = leq(upper, upper, oracle)
            assert reflexive.snapshots == _full_scan_leq(upper, upper, oracle)
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
    assert leq(lower, c2, oracle)
    upper = plain_condition(lower.s.with_pair(3, 0), words)
    expected = _full_scan_leq(c3, c2, oracle)
    calls.clear()
    assert leq(upper, lower, oracle).snapshots == expected
    # (3, 0) reaches 3 itself and the points stopped before an x at 3 or an x^-1 at 0
    assert 0 < len(calls) <= 3 * len(words) < len(upper.s) * len(words)


class _WindowedTranslation(TranslationOracle):
    """Translations that refuse to evaluate at or past a window, as a staged oracle does."""

    def __init__(self, window):
        self.limit = window

    def eval(self, a, n):
        if n >= self.limit:
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
        assert validate(replace(c, words=frozenset({w})), oracle).reason == (
            f"word {format_word(w, oracle)!r} is not admissible"
        )
        with pytest.raises(PreconditionViolated, match="not an admissible word"):
            add_word(c, w, oracle)


def test_the_order_check_misses_the_window_where_a_full_scan_would_first():
    """Misses in lower's own points and at upper's new ones: the first in dom(upper)'s order wins."""
    oracle = _WindowedTranslation(50)
    w = Word((group(1), X))
    lower = plain_condition(PartialInjection([(1, 2), (40, 60), (9, 10)]), [w])
    upper = plain_condition(lower.s.with_pairs([(70, 80), (3, 90), (33, 55)]), [w])
    with pytest.raises(WindowTooSmall) as scan:
        helpers.domain_scan_fixed_points(w, upper.s, oracle)
    with pytest.raises(WindowTooSmall) as check:
        leq(upper, lower, oracle)
    assert check.value.required == scan.value.required
    misses = {n: upper.s.apply(n) + 1 for n in upper.s.domain if upper.s.apply(n) >= 50}
    assert len(set(misses.values())) == 4 and scan.value.required in misses.values()


def test_many_extensions_still_checks_each_option(monkeypatch):
    """Without the group clause, (0, 1) makes 0 a fixed point of g1·x, and the check says so."""
    c = plain_condition(None, [Word((group(1), X))])
    monkeypatch.setattr(W, "graph_restriction", lambda words, oracle: frozenset({0}))
    with pytest.raises(InternalCheckFailed, match=r"missed a fixed point at \(0, 1\)"):
        many_extensions(c, FullInjectiveTree(), (), 3, TRANS)


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
        assert bool(validate(c, TRANS)) == expected, (sorted(map(repr, words)), s, target)
        verdicts.append(expected)
    assert 50 < sum(verdicts) < 350
