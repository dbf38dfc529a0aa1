"""Partial injections, orbit decomposition, and the two bit encodings."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcode import (
    NotNiceInjection,
    PartialInjection,
    closed_orbits,
    closure,
    fixed_points,
    format_word,
    indecomposable_root,
    injection_from_pairs,
    leq,
    nth_prime,
    o_dagger,
    o_partial,
    open_orbits,
    orbit_decomposition,
    orbit_of,
    parse_word,
    plain_condition,
    prime_index,
    translation_oracle,
    trivial_oracle,
    word_graph,
    x_power,
)
from orbitcode.injections import (
    closed_and_gap,
    gained_fixed_points,
    has_open_orbits,
    indexed_gap,
    prime_parities,
    primes_up_to,
    word_cycle_counts,
)

from orbitcode.forcing import _WordFacts

import helpers

TRIV = trivial_oracle()
TRANS = translation_oracle()


def inj(mapping):
    return PartialInjection(mapping.items())


def test_apply_and_inverse_lookup():
    s = inj({0: 3, 3: 7})
    assert s.apply(0) == 3
    assert s.apply(1) is None
    assert s.apply_inverse(7) == 3
    assert s.apply_inverse(0) is None


def test_with_pair_rejects_collisions():
    s = inj({0: 3})
    with pytest.raises(Exception):
        s.with_pair(0, 5)
    with pytest.raises(Exception):
        s.with_pair(4, 3)


def test_closed_orbit_walk():
    s = inj({2: 0, 0: 10, 10: 3, 3: 2})
    orbit = orbit_of(s, 0)
    assert orbit.closed
    assert frozenset(orbit.ordered) == frozenset({0, 2, 3, 10})
    assert orbit.entry is None and orbit.exit is None


def test_open_orbit_reports_its_endpoints():
    s = inj({4: 6, 6: 42, 42: 1})
    orbit = orbit_of(s, 6)
    assert not orbit.closed
    assert frozenset(orbit.ordered) == frozenset({1, 4, 6, 42})
    assert orbit.entry == 4  # not in the range
    assert orbit.exit == 1  # not in the domain


def test_fresh_point_is_an_open_singleton():
    orbit = orbit_of(inj({0: 1}), 9)
    assert not orbit.closed
    assert frozenset(orbit.ordered) == frozenset({9})


def test_mex_examples():
    assert helpers.mex(()) == 0
    assert helpers.mex((0, 1, 2)) == 3
    assert helpers.mex((1, 2)) == 0
    assert helpers.mex((0, 2, 3)) == 1


def test_min_order_niceness_holds_for_anchored_orbits():
    s = inj({2: 0, 0: 10, 10: 3, 3: 2})  # closed orbit with minimum 0
    o_partial(s)  # defined: raises NotNiceInjection otherwise


def test_min_order_niceness_fails_without_zero():
    with pytest.raises(NotNiceInjection):
        o_partial(inj({1: 2, 2: 1}))


def test_orbit_parity_bits_of_single_even_orbit():
    s = inj({2: 0, 0: 10, 10: 3, 3: 2})
    assert o_partial(s) == (0,)


def test_orbit_parity_bits_reject_gapped_minima():
    with pytest.raises(NotNiceInjection):
        o_partial(inj({0: 1, 1: 2, 2: 0, 5: 5}))


def test_orbit_parity_bits_in_min_order():
    # sizes 3, 2 at minima 0, 3
    s = inj({0: 1, 1: 2, 2: 0, 3: 4, 4: 3})
    assert o_partial(s) == (1, 0)


def test_orbit_parity_bits_need_contiguous_minima():
    # same sizes but the second orbit starts past the least uncovered point
    with pytest.raises(NotNiceInjection):
        o_partial(inj({0: 1, 1: 2, 2: 0, 5: 6, 6: 5}))


def test_prime_table_starts_at_two():
    assert [nth_prime(n) for n in range(5)] == [2, 3, 5, 7, 11]
    assert prime_index(2) == 0
    assert prime_index(7) == 3
    assert prime_index(6) is None


def test_primes_up_to_lists_every_prime_at_most_k():
    for k in range(-1, 40):
        expect = [p for p in range(2, k + 1) if all(p % d for d in range(2, p))]
        assert primes_up_to(k) == expect, k


def test_nth_prime_agrees_with_a_sieve_for_the_first_5000_primes():
    bound = 48612  # p_4999 = 48611
    composite = bytearray(bound)
    for p in range(2, int(bound**0.5) + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\x01" * len(range(p * p, bound, p))
    sieve = [p for p in range(2, bound) if not composite[p]]
    assert len(sieve) == 5000
    assert [nth_prime(n) for n in range(5000)] == sieve


def test_closed_and_gap_reads_closed_orbits_and_their_first_gap():
    s = inj({5: 6, 3: 3, 0: 1, 1: 0})
    assert [o.ordered for o in closed_orbits(s)] == [(0, 1), (3,)]
    assert closed_and_gap(s) == (2, 2)
    assert closed_and_gap(inj({0: 1})) == (0, 0)


def test_prime_parity_bits_of_mixed_cycle_type():
    # two 2-cycles and one 3-cycle: counts 2, 1, 0
    s = inj({0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 6, 6: 4})
    assert o_dagger(s, 2) == (0, 1, 0)


def test_prime_parity_ignores_composite_orbits():
    s = inj({0: 1, 1: 2, 2: 3, 3: 0})
    assert o_dagger(s, 2) == (0, 0, 0)


def test_prime_parity_counts_only_closed_orbits():
    s = inj({0: 1, 1: 2})  # open chain of three points
    assert o_dagger(s, 1) == (0, 0)


def test_fixed_points_of_x_are_the_diagonal_pairs():
    assert fixed_points(x_power(1), inj({3: 3}), TRIV) == frozenset({3})


def test_fixed_points_of_square_on_a_transposition():
    assert fixed_points(x_power(2), inj({0: 1, 1: 0}), TRIV) == frozenset({0, 1})


def test_fixed_points_of_cube_on_a_four_cycle():
    s = inj({0: 1, 1: 2, 2: 3, 3: 0})
    assert fixed_points(x_power(3), s, TRIV) == frozenset()


def test_word_graph_of_x_is_the_injection_itself():
    s = inj({0: 4, 4: 2})
    assert word_graph(x_power(1), s, TRIV) == s


def test_injection_from_pairs_validates():
    assert injection_from_pairs([(0, 1), (1, 2)]).pairs() == ((0, 1), (1, 2))
    with pytest.raises(Exception):
        injection_from_pairs([(0, 1), (0, 2)])


small_injections = st.builds(
    lambda pairs: PartialInjection(
        (n, m)
        for n, m in pairs.items()
        if list(pairs.values()).count(m) == 1
    ),
    st.dictionaries(st.integers(0, 12), st.integers(0, 12), max_size=8),
)


@given(small_injections)
@settings(max_examples=200)
def test_orbits_partition_the_support(s):
    orbits = orbit_decomposition(s)
    union = set()
    total = 0
    for orbit in orbits:
        assert union.isdisjoint(orbit.ordered)
        union.update(orbit.ordered)
        total += orbit.size
    assert union == set(s.support)
    assert total == len(union)


@given(small_injections)
@settings(max_examples=200)
def test_closed_and_open_orbits_split_the_decomposition(s):
    both = sorted(o.minimum for o in closed_orbits(s) + open_orbits(s))
    assert both == sorted(o.minimum for o in orbit_decomposition(s))


@given(small_injections)
@settings(max_examples=200)
def test_prime_parity_is_inverse_invariant(s):
    inverse = PartialInjection((m, n) for n, m in s.pairs())
    assert o_dagger(s, 3) == o_dagger(inverse, 3)


@given(st.permutations(list(range(7))))
@settings(max_examples=150)
def test_prime_parity_matches_the_reference_count(perm):
    s = PartialInjection(enumerate(perm))
    assert o_dagger(s, 3) == helpers.parity_bits(tuple(perm), 3)


@given(
    small_injections,
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=6),
    st.randoms(),
)
@settings(max_examples=100)
def test_a_child_reads_its_extension_and_new_pairs_off_its_parent(s, extra, rng):
    """with_pairs children, repeats of the parent's pairs and of their own included."""
    fresh, dom, ran = [], set(s.domain), set(s.range)
    for n, m in extra:
        if n not in dom and m not in ran:
            fresh.append((n, m))
            dom.add(n)
            ran.add(m)
    pairs = fresh + rng.sample(s.pairs(), k=min(len(s), 3)) + fresh[:2]
    rng.shuffle(pairs)
    child = s.with_pairs(pairs)
    grandchild = child.with_pairs(s.pairs()[:1])
    for upper, lower in ((child, s), (grandchild, child), (grandchild, s), (s, child)):
        by_sets = set(upper.pairs()) - set(lower.pairs())
        assert upper.extends(lower) == (set(upper.pairs()) >= set(lower.pairs()))
        if upper.extends(lower):
            new = upper.pairs_beyond(lower)
            assert len(new) == len(by_sets) and set(new) == by_sets
    assert child.pairs_beyond(s) == tuple(dict.fromkeys(p for p in pairs if p in fresh))


def test_extends_is_a_partial_order_on_samples():
    rng = random.Random(7)
    for _ in range(50):
        base = helpers.random_injection(rng, 4, 15)
        s = inj(base)
        taken = set(base.values())
        extra = {
            n: m
            for n, m in helpers.random_injection(rng, 3, 30).items()
            if n >= 15 and m not in taken and m >= 15
        }
        t = inj({**base, **extra})
        assert t.extends(s)
        assert s.extends(s)
        if extra:
            assert not s.extends(t)


def test_orbit_decomposition_matches_the_sorted_reference():
    rng = random.Random(11)
    for _ in range(300):
        graph = helpers.random_injection(rng, rng.randrange(16), 12)
        got = [(o.ordered, o.closed) for o in orbit_decomposition(inj(graph))]
        assert got == helpers.orbits_by_minimum(graph), graph


def _all_partial_injections(points):
    for k in range(len(points) + 1):
        for dom in itertools.combinations(points, k):
            for image in itertools.permutations(points, k):
                yield dict(zip(dom, image))


def _assert_orbits_match_the_reference(s, graph):
    expect = helpers.orbits_by_minimum(graph)
    closed = [walk for walk, is_closed in expect if is_closed]
    opened = [walk for walk, is_closed in expect if not is_closed]
    assert [(o.ordered, o.closed) for o in orbit_decomposition(s)] == expect, graph
    assert [o.ordered for o in closed_orbits(s)] == closed, graph
    assert [o.ordered for o in open_orbits(s)] == opened, graph
    covered = {n for walk in closed for n in walk}
    gap = next(n for n in itertools.count() if n not in covered)
    assert closed_and_gap(s) == (len(closed), gap), graph


def _grown_one_pair_at_a_time(pairs):
    """The injection of `pairs`, added by with_pair, querying the orbits after each."""
    s = PartialInjection()
    closed_orbits(s)
    for n, m in pairs:
        s = s.with_pair(n, m)
        closed_orbits(s)
    return s


def test_every_injection_on_five_points_matches_the_reference_three_ways():
    graphs = list(_all_partial_injections(range(5)))
    assert len(graphs) == 1546
    for graph in graphs:
        pairs = sorted(graph.items())
        for s in (
            inj(graph),
            _grown_one_pair_at_a_time(pairs),
            _grown_one_pair_at_a_time(pairs[::-1]),
        ):
            assert s == inj(graph)
            _assert_orbits_match_the_reference(s, graph)


def test_an_indexed_injection_grown_by_with_pair_and_with_pairs_matches_the_reference():
    rng = random.Random(23)
    for _ in range(300):
        graph = helpers.random_injection(rng, rng.randrange(1, 16), 14)
        pairs = list(graph.items())
        rng.shuffle(pairs)
        cut = rng.randrange(len(pairs) + 1)
        s = PartialInjection(pairs[:cut])
        _assert_orbits_match_the_reference(s, dict(pairs[:cut]))
        while cut < len(pairs):
            step = rng.randrange(1, 4)
            new = pairs[cut : cut + step]
            s = s.with_pair(*new[0]) if len(new) == 1 else s.with_pairs(new)
            cut += len(new)
            if rng.random() < 0.5:
                _assert_orbits_match_the_reference(s, dict(pairs[:cut]))
        _assert_orbits_match_the_reference(s, graph)


def _reference_codes(graph):
    """(orbit-order code, None if not nice; gap; closed cycles by size), read off the reference."""
    closed = [walk for walk, is_closed in helpers.orbits_by_minimum(graph) if is_closed]
    covered = {n for walk in closed for n in walk}
    gap = next(n for n in itertools.count() if n not in covered)
    nice = all(min(walk) < gap for walk in closed)
    code = tuple(len(walk) % 2 for walk in closed) if nice else None
    return code, gap, Counter(len(walk) for walk in closed)


def _assert_codes_match_the_reference(s, graph):
    code, gap, counts = _reference_codes(graph)
    if code is None:
        with pytest.raises(NotNiceInjection):
            o_partial(s)
    else:
        assert o_partial(s) == code, graph
    assert closed_and_gap(s)[1] == gap, graph
    assert s._orbits().counts == dict(counts), graph
    assert o_dagger(s, 4) == tuple(counts[nth_prime(n)] % 2 for n in range(5)), graph


def test_the_index_keeps_the_code_the_gap_and_niceness_as_the_reference_reads_them():
    """Every injection on five points, three ways, then random ones grown a few pairs at a time."""
    nice = 0
    for graph in _all_partial_injections(range(5)):
        pairs = sorted(graph.items())
        for s in (
            inj(graph),
            _grown_one_pair_at_a_time(pairs),
            _grown_one_pair_at_a_time(pairs[::-1]),
        ):
            _assert_codes_match_the_reference(s, graph)
        nice += _reference_codes(graph)[0] is not None
    assert 0 < nice < 1546
    rng = random.Random(31)
    for _ in range(200):
        graph = helpers.random_injection(rng, rng.randrange(1, 16), 14)
        pairs = list(graph.items())
        rng.shuffle(pairs)
        s = PartialInjection()
        closed_orbits(s)
        for cut in range(0, len(pairs), 3):
            s = s.with_pairs(pairs[cut : cut + 3])
            _assert_codes_match_the_reference(s, dict(pairs[: cut + 3]))


MEMO_WORDS = ("x", "x^2", "g1.x", "g-1.x^2", "g2.x^-1.g-1.x")


def _scanned_counts(w, s, oracle):
    """The closed cycles of w[s] by size, from a fresh scan and the reference walk."""
    orbits = helpers.orbits_by_minimum(word_graph(w, s, oracle).as_dict())
    return dict(Counter(len(walk) for walk, closed in orbits if closed))


def _powers(words):
    """E by root, as the order check reads it."""
    return _WordFacts(frozenset(words), TRANS).powers(TRANS)


def _memo_state(s, w, oracle):
    """w's memo on s; for the root x, which keeps none, s itself and its cycles."""
    if w == x_power(1):
        assert (w, oracle) not in (s._fixes or {})
        return s.pairs(), [o.ordered for o in closed_orbits(s)]
    memo = s._fixes[(w, oracle)]
    stuck = {where: sorted(points) for where, points in memo.stuck.items()}
    return memo.graph.pairs(), stuck


def test_the_word_graph_memo_agrees_with_a_fresh_scan_on_every_injection_on_five_points():
    """Built on s, built again by a one-pair child read before it is certified, carried once it is.

    Reading an uncertified child leaves s's memo as it was.  The carry
    check takes a fresh child, one nothing read before the order check
    certified it.  The root x keeps no memo: its graph is the map itself.
    """
    words = [parse_word(text, TRANS) for text in MEMO_WORDS]
    children = carried = 0
    for graph in _all_partial_injections(range(5)):
        s = inj(graph)
        for w in words:
            counts = word_cycle_counts(w, s, TRANS)
            assert counts == _scanned_counts(w, s, TRANS), (w, graph)
            scan = word_graph(w, s, TRANS)
            assert prime_parities(counts, 2) == o_dagger(scan, 2)
            assert (s if w == x_power(1) else s._fixes[(w, TRANS)].graph) == scan
            assert fixed_points(w, s, TRANS) == frozenset(n for n, m in scan.pairs() if n == m)
        assert (x_power(1), TRANS) not in s._fixes
        n = min(set(range(6)) - set(graph))
        for m in sorted(set(range(6)) - set(graph.values())):
            child = s.with_pair(n, m)
            for w in words:
                before = _memo_state(s, w, TRANS)
                assert word_cycle_counts(w, child, TRANS) == _scanned_counts(w, child, TRANS)
                assert _memo_state(s, w, TRANS) == before
            children += 1
        # certified (no word gains a fixed point), the child takes s's memos on
        # first use: the order check keeps memos of roots other than x only,
        # and x^2 is read off the child itself
        child = s.with_pair(n, m)
        if not gained_fixed_points(_powers(words), child, s, TRANS):
            for w in (w for w in words if w not in (x_power(1), x_power(2))):
                assert word_cycle_counts(w, child, TRANS) == _scanned_counts(w, child, TRANS)
                assert child._fixes[(w, TRANS)].graph == word_graph(w, child, TRANS)
                assert (w, TRANS) not in s._fixes
            x = x_power(1)
            assert word_cycle_counts(x, child, TRANS) == _scanned_counts(x, child, TRANS)
            assert (x, TRANS) not in child._fixes
            carried += 1
    assert (children, carried) == (4051, 1121)


def _scanned_fixed_points(w, s, oracle):
    return frozenset(n for n, m in word_graph(w, s, oracle).pairs() if n == m)


def test_the_root_x_reads_the_map_on_every_injection_on_five_points_and_every_one_pair_extension():
    """x^j's gains, cycle counts and fixed points, j ≤ 3, against word_graph full scans.

    Every partial injection on 0..4 and every one-pair extension of it on
    0..5, made from the map itself, whose orbit index the reads of x build,
    or from a fresh copy nothing has read.  The gains are the fixed points
    x^j has on the child and not on the parent, and no map keeps a memo.
    """
    x, cubes = x_power(1), [x_power(j) for j in (1, 2, 3)]
    children = gaining = 0
    for graph in _all_partial_injections(range(5)):
        s = inj(graph)
        before = [_scanned_fixed_points(w, s, TRIV) for w in cubes]
        assert [fixed_points(w, s, TRIV) for w in cubes] == before, graph
        assert word_cycle_counts(x, s, TRIV) == _scanned_counts(x, s, TRIV), graph
        for n in sorted(set(range(6)) - set(graph)):
            for m in sorted(set(range(6)) - set(graph.values())):
                parent = s if (n + m) % 2 else inj(graph)
                child = parent.with_pair(n, m)
                gains = gained_fixed_points({x: (1, 2, 3)}, child, parent, TRIV)
                after = [_scanned_fixed_points(w, child, TRIV) for w in cubes]
                expected = {(x, j): sorted(a - b) for j, a, b in zip((1, 2, 3), after, before) if a - b}
                assert {key: sorted(p) for key, p in gains.items()} == expected, (graph, n, m)
                assert [fixed_points(w, child, TRIV) for w in cubes] == after, (graph, n, m)
                assert word_cycle_counts(x, child, TRIV) == _scanned_counts(x, child, TRIV)
                assert child._fixes is None and parent._fixes is None
                children += 1
                gaining += bool(gains)
        assert [fixed_points(w, s, TRIV) for w in cubes] == before, graph
    assert (children, gaining) == (11781, 3691)


ROOT_TEXTS = ("x", "g1.x", "g1.x^2", "g2.x^-1.g1.x")
# a plain word set holding powers without their roots: one or two powers of each
POWERS = (
    "x^3",
    "g1.x.g1.x",
    "g1.x.g1.x.g1.x",
    "g1.x^2.g1.x^2.g1.x^2",
    "g-2.x^-1.g-1.x.g-2.x^-1.g-1.x",
    "g2.x^-1.g1.x.g2.x^-1.g1.x.g2.x^-1.g1.x",
)


def _one_or_two_new_pairs(graph, points):
    free_domain = [n for n in points if n not in graph]
    free_range = [m for m in points if m not in graph.values()]
    for count in (1, 2):
        for domain in itertools.combinations(free_domain, count):
            for image in itertools.permutations(free_range, count):
                yield tuple(zip(domain, image))


def test_the_root_rule_agrees_with_the_per_word_scan_on_every_small_extension():
    """Every s ⊆ t on {0..4} with one or two new pairs: each root's closure(v, 3), and power sets.

    E is first every word of the four closures, then POWERS.  The
    reference scans each word's graph in full (word_graph) under s and
    under t.  gained_fixed_points, which evaluates roots alone, must name
    exactly the words whose fixed points grow, each with the points it
    gains, and leq must refuse naming the least of them in text order.
    fixed_points must read each word's set off its root's memo.
    """
    closures = [closure(parse_word(text, TRANS), 3, TRANS) for text in ROOT_TEXTS]
    sets = [frozenset(w for words in closures for w in words)]
    sets.append(frozenset(parse_word(text, TRANS) for text in POWERS))
    words = sorted(sets[0] | sets[1], key=lambda w: format_word(w, TRANS))
    assert len(words) == len(sets[0]) == 15
    power_of = [indecomposable_root(w, TRANS) for w in words]
    maps = [(graph, inj(graph)) for graph in _all_partial_injections(range(5))]
    fixed = {}  # per map's pairs, each word's fixed points, the words in text order
    for _, s in maps:
        fixed[s.pairs()] = [
            frozenset(n for n, m in word_graph(w, s, TRANS).pairs() if n == m) for w in words
        ]
        assert [fixed_points(w, s, TRANS) for w in words] == fixed[s.pairs()]
    members = [[i for i, w in enumerate(words) if w in E] for E in sets]
    powers = [_powers(E) for E in sets]
    checks = refusals = 0
    for graph, s in maps:
        before = fixed[s.pairs()]
        for new in _one_or_two_new_pairs(graph, range(5)):
            t = s.with_pairs(new)
            gains = [sorted(a - b) for a, b in zip(fixed[t.pairs()], before)]
            for indices, roots in zip(members, powers):
                expected = {power_of[i]: gains[i] for i in indices if gains[i]}
                got = gained_fixed_points(roots, t, s, TRANS)
                assert {power: sorted(points) for power, points in got.items()} == expected
                checks += 1
            least = min((i for i in members[0] if gains[i]), default=None)
            if least is not None:
                E = sets[0]
                refusal = helpers.refusal(leq, plain_condition(t, E), plain_condition(s, E), TRANS)
                text = format_word(words[least], TRANS)
                assert refusal == f"word {text!r} changed fixed points (gained {gains[least]})"
                refusals += 1
    assert (checks, refusals) == (24050, 10119)


def _together_and_merged(powers, graph, s):
    """Per set of one or two fresh pairs with k, v ≤ 5: the gains over s = graph plus
    all of them, and the merge of the gains over s plus each alone."""
    alone = {}
    for new in _one_or_two_new_pairs(graph, range(6)):  # every single pair first
        got = gained_fixed_points(powers, s.with_pairs(new), s, TRANS)
        together = {power: set(points) for power, points in got.items()}
        if len(new) == 1:
            alone[new[0]] = together
        merged = {}
        for pair in new:
            for power, points in alone[pair].items():
                merged[power] = merged.get(power, set()) | points
        yield together, merged


def test_single_x_words_gain_under_fresh_pairs_what_each_pair_gains_alone():
    """Every s on {0..3}; one or two of x, g1.x, g-1.x, g2.x; one or two fresh pairs, k, v ≤ 5.

    A single-x word is g·x, so under s plus fresh pairs it gains a fixed
    point only at a new k, and only when g(v) = k for k's pair: the gains
    over all the pairs are the merge of each pair's gains alone, which is
    why forcing.many_extensions checks its options with one leq.  x^2 has
    two x's, and for it the two differ.
    """
    singles = [parse_word(text, TRANS) for text in ("x", "g1.x", "g-1.x", "g2.x")]
    sets = [words for count in (1, 2) for words in itertools.combinations(singles, count)]
    maps = [(graph, inj(graph)) for graph in _all_partial_injections(range(4))]
    cases = 0
    for graph, s in maps:
        for words in sets:
            for together, merged in _together_and_merged(_powers(words), graph, s):
                assert together == merged, (graph, words)
                cases += 1
    assert cases == 10 * 13158
    square = _powers([x_power(2)])
    assert any(together != merged for graph, s in maps
               for together, merged in _together_and_merged(square, graph, s))


def _check_version(version, model):
    """Every read of a persistent map version agrees with the plain dict it should be."""
    assert len(version) == len(model) and bool(version) == bool(model)
    for p in range(-1, 18):
        assert version.apply(p) == model.get(p)
    inverse = {m: n for n, m in model.items()}
    for p in range(-1, 18):
        assert version.apply_inverse(p) == inverse.get(p)
    assert version.pairs() == tuple(sorted(model.items()))
    assert version.as_dict() == model
    assert version.domain == frozenset(model) and version.range == frozenset(inverse)
    assert hash(version) == hash(frozenset(model.items()))


def _check_x_reads(version, model):
    """x's cycle counts and x^j's fixed points, j ≤ 3, of a version against its dict model's cycles."""
    cycles = [walk for walk, closed in helpers.orbits_by_minimum(model) if closed]
    assert word_cycle_counts(x_power(1), version, TRIV) == dict(Counter(map(len, cycles)))
    for j in (1, 2, 3):
        expected = frozenset(p for walk in cycles if j % len(walk) == 0 for p in walk)
        assert fixed_points(x_power(j), version, TRIV) == expected
    assert version._fixes is None


def _check_x_gains(exponents, upper, model_upper, lower, model_lower):
    """gained_fixed_points of x between a version and one it extends, against their models' cycles."""
    old = {walk for walk, closed in helpers.orbits_by_minimum(model_lower) if closed}
    new = [walk for walk, closed in helpers.orbits_by_minimum(model_upper)
           if closed and walk not in old]
    expected = {}
    for j in exponents:
        points = sorted(p for walk in new if j % len(walk) == 0 for p in walk)
        if points:
            expected[(x_power(1), j)] = points
    gains = gained_fixed_points({x_power(1): exponents}, upper, lower, TRIV)
    assert {key: sorted(p) for key, p in gains.items()} == expected


def _check_orbits(version, model, indexed):
    """Every orbit query of a version agrees with its dict model; `indexed`: some version was read.

    indexed_gap reads 0 until an orbit query has built the index its versions share.
    """
    orbits = helpers.orbits_by_minimum(model)
    assert indexed_gap(version) == (_reference_codes(model)[1] if indexed else 0)
    assert has_open_orbits(version) == any(not is_closed for _, is_closed in orbits)
    _assert_orbits_match_the_reference(version, model)
    _assert_codes_match_the_reference(version, model)


@given(
    st.dictionaries(st.integers(0, 15), st.integers(0, 15), max_size=6).filter(
        lambda d: len(set(d.values())) == len(d)
    ),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_persistent_versions_read_as_their_dict_models(base, data):
    """with_pair / with_pairs chains from random older versions, then every version read back.

    Clashing pairs must raise and leave the version they were offered to as
    it was, and reads in between re-root the versions in random orders, some
    reading the dicts alone, some the orbits, and some what the root x reads:
    its cycle counts, x^j's fixed points and its gains over an older version.
    So the orbit index the versions share is built at one of them, and
    children of versions never queried link their pairs only when read.
    """
    versions = [(inj(base), dict(base))]
    indexed = False
    exponents = data.draw(st.sampled_from([(1,), (2,), (1, 2, 3)]), label="x's exponents")
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        version, model = versions[data.draw(st.integers(0, len(versions) - 1), label="from")]
        count = data.draw(st.integers(0, 3), label="count")
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, 17), st.integers(0, 17)), min_size=count,
                     max_size=count),
            label="pairs",
        )
        grown, clash = dict(model), False
        for n, m in pairs:
            if grown.get(n) == m:
                continue
            if n in grown or m in grown.values():
                clash = True
            grown[n] = m
        single = len(pairs) == 1 and data.draw(st.booleans(), label="with_pair")
        if clash or (single and pairs[0] in model.items()):
            with pytest.raises(ValueError):
                version.with_pair(*pairs[0]) if single else version.with_pairs(pairs)
        else:
            child = version.with_pair(*pairs[0]) if single else version.with_pairs(pairs)
            versions.append((child, grown))
            assert child.pairs_beyond(version) == tuple(
                dict.fromkeys(p for p in pairs if p not in model.items())
            )
        read = data.draw(st.sampled_from(["none", "dicts", "orbits", "x"]), label="read one now")
        if read != "none":
            at = data.draw(st.integers(0, len(versions) - 1), label="read")
            version, model = versions[at]
            _check_version(version, model)
            if read == "orbits":
                _check_orbits(version, model, indexed)
                indexed = True
            elif read == "x":
                # every version extends the first, so an older one it extends exists
                older = [k for k in range(at + 1) if model.items() >= versions[k][1].items()]
                k = data.draw(st.sampled_from(older), label="older")
                _check_x_gains(exponents, version, model, *versions[k])
                _check_x_reads(version, model)
                indexed = True
    order = data.draw(st.permutations(range(len(versions))), label="order")
    for i in order:
        _check_version(*versions[i])
        _check_orbits(*versions[i], indexed)
        indexed = True
    for i, j in zip(order, order[1:] + order[:1]):
        (a, model_a), (b, model_b) = versions[i], versions[j]
        assert (a == b) == (model_a == model_b)
        assert a.extends(b) == (model_a.items() >= model_b.items())
        if a.extends(b):
            assert sorted(a.pairs_beyond(b)) == sorted(model_a.items() - model_b.items())
            _check_x_gains(exponents, a, model_a, b, model_b)
    for i in order:
        _check_version(*versions[i])
        _check_orbits(*versions[i], indexed)
        _check_x_reads(*versions[i])


def test_orbit_queries_read_children_of_unqueried_versions_and_survive_clashes():
    """Versions read in random orders after a with_pairs that clashes past its first pairs.

    s is queried; a, made from it, never is before its child b and its
    grandchild c are made; a with_pairs of b clashes after inserting two
    pairs, once with b's pairs still pending and once with them linked.
    """
    rng = random.Random(5)
    models = [{0: 1, 1: 2, 5: 5}]
    models.append({**models[0], 2: 0, 3: 4})
    models.append({**models[1], 4: 3, 6: 7})
    models.append({**models[2], 7: 6})
    for trial in range(60):
        s = inj(models[0])
        closed_orbits(s)
        a = s.with_pairs([(2, 0), (3, 4)])
        b = a.with_pairs([(4, 3), (6, 7)])
        for query in (False, True):
            if query:
                closed_orbits(b)
            with pytest.raises(ValueError):
                b.with_pairs([(8, 9), (9, 8), (7, 0)])
        c = b.with_pair(7, 6)
        versions = list(zip([s, a, b, c], models))
        for version, model in rng.sample(versions, len(versions)):
            _check_orbits(version, model, True)
            if rng.random() < 0.5:
                _check_version(*rng.choice(versions))


def test_a_map_grown_in_place_reads_its_new_count_and_gap():
    """A word graph grows in place (_add), after its counts were read, as its memo moves on."""
    s = inj({0: 0, 2: 3})
    assert closed_and_gap(s) == (1, 1)
    s._add([(1, 1), (3, 2)])
    assert closed_and_gap(s) == (3, 4) and indexed_gap(s) == 4


def test_pairs_beyond_a_version_two_links_away_is_the_dict_difference():
    """s, a = s + (p1, p2) and b = a + p3: b beyond s is {p1, p2, p3}, whoever owns the dicts.

    Only neighbours read the pairs on their link, in insertion order; two
    links apart, extends and pairs_beyond compare the two maps' dicts.
    """
    s = inj({0: 1})
    a = s.with_pairs([(5, 6), (2, 3)])
    b = a.with_pair(7, 8)
    owners = [lambda: None, lambda: s.apply(0), lambda: a.with_pair(9, 9).apply(9),
              lambda: a.apply(0), lambda: b.apply(0)]
    for own in owners:
        own()
        beyond = b.pairs_beyond(s)
        assert b.extends(s) and len(beyond) == 3
        assert set(beyond) == {(5, 6), (2, 3), (7, 8)}
        assert not s.extends(b)
