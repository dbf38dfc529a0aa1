"""Partial injections, orbit decomposition, and the two bit encodings."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcode import (
    NotNiceInjection,
    PartialInjection,
    closed_orbits,
    fixed_points,
    injection_from_pairs,
    mex,
    nth_prime,
    o_dagger,
    o_partial,
    open_orbits,
    orbit_decomposition,
    orbit_of,
    prime_index,
    translation_oracle,
    trivial_oracle,
    word_graph,
    x_power,
)
from orbitcode.injections import closed_and_gap, primes_up_to

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
    assert orbit.elements == frozenset({0, 2, 3, 10})
    assert orbit.entry is None and orbit.exit is None


def test_open_orbit_reports_its_endpoints():
    s = inj({4: 6, 6: 42, 42: 1})
    orbit = orbit_of(s, 6)
    assert not orbit.closed
    assert orbit.elements == frozenset({1, 4, 6, 42})
    assert orbit.entry == 4  # not in the range
    assert orbit.exit == 1  # not in the domain


def test_fresh_point_is_an_open_singleton():
    orbit = orbit_of(inj({0: 1}), 9)
    assert not orbit.closed
    assert orbit.elements == frozenset({9})


def test_mex_examples():
    assert mex(()) == 0
    assert mex((0, 1, 2)) == 3
    assert mex((1, 2)) == 0
    assert mex((0, 2, 3)) == 1


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


def test_closed_and_gap_reads_closed_orbits_and_their_first_gap():
    closed, gap = closed_and_gap(inj({5: 6, 3: 3, 0: 1, 1: 0}))
    assert [o.ordered for o in closed] == [(0, 1), (3,)]
    assert gap == 2
    assert closed_and_gap(inj({0: 1})) == ((), 0)


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
        assert not (orbit.elements & union)
        union |= orbit.elements
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
    got_closed, got_gap = closed_and_gap(s)
    assert ([o.ordered for o in got_closed], got_gap) == (closed, gap), graph


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


def test_an_inherited_index_equals_one_built_from_scratch():
    rng = random.Random(29)
    for _ in range(200):
        graph = helpers.random_injection(rng, rng.randrange(16), 14)
        pairs = list(graph.items())
        rng.shuffle(pairs)
        lower = PartialInjection(pairs[: rng.randrange(len(pairs) + 1)])
        closed_orbits(lower)
        upper = inj(graph)
        upper.inherit_orbits(lower)
        assert upper._index is not None  # taken over, not left to a lazy rebuild
        _assert_orbits_match_the_reference(upper, graph)
