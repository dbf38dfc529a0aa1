"""Injective trees: extension oracles, explicit truncations, diagonalization."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcode import (
    ExplicitTree,
    FullInjectiveTree,
    SparseCongruenceTree,
    TreeRefusedExtension,
    diagonalization_witness,
    tree_from_descriptor,
)
from orbitcode.trees import undiagonalized_node

import helpers


def _nothing(value: int) -> bool:
    return False


def test_full_tree_extends_by_the_least_free_value():
    tree = FullInjectiveTree()
    assert tree.extend_avoiding((), 0, 0, {0}.__contains__) == 1
    assert tree.extend_avoiding((5,), 1, 0, _nothing) == 0
    assert tree.extend_avoiding((0, 1), 2, 0, {2, 3}.__contains__) == 4
    assert tree.extend_avoiding((0, 1), 6, 1, {2}.__contains__) == 3


def test_a_value_barred_once_is_free_at_the_next_index():
    """A value barred at one index is the answer at the next, where nothing bars it."""
    trees = (SparseCongruenceTree(seed, 2) for seed in itertools.count())
    sparse = next(tree for tree in trees if tree.residue_at(0) == tree.residue_at(1))
    for tree, want, step in ((FullInjectiveTree(), 0, 1), (sparse, sparse.residue_at(0), 2)):
        v = tree.extend_avoiding((), 0, 0, {want}.__contains__)
        assert v == want + step
        assert tree.extend_avoiding((v,), 1, 0, _nothing) == want


def test_explicit_tree_takes_the_least_extension_unbarred_at_the_next_index():
    """At the next index and past it: the values there of the nodes that reach it, from the
    floor up; None when every such value is barred, a refusal when no node reaches it."""
    tree = ExplicitTree([(), (1,), (1, 2), (2,), (3,), (3, 1), (3, 1, 0)])
    assert tree.extend_avoiding((), 0, 0, {1}.__contains__) == 2
    assert tree.extend_avoiding((), 0, 0, {1, 2}.__contains__) == 3
    assert tree.extend_avoiding((3,), 1, 0, _nothing) == 1
    assert tree.extend_avoiding((), 0, 0, {1, 2, 3}.__contains__) is None
    assert tree.extend_avoiding((), 1, 0, _nothing) == 1
    assert tree.extend_avoiding((), 1, 2, _nothing) == 2
    assert tree.extend_avoiding((), 2, 1, _nothing) is None
    assert tree.branch((), 2, 0) == (3, 1, 0)
    for node, k in (((), 3), ((1,), 2), ((2,), 1)):
        with pytest.raises(TreeRefusedExtension):
            tree.extend_avoiding(node, k, 0, _nothing)


def test_explicit_tree_extends_by_the_least_unbarred_child_value():
    """2,000 trees of up to three branches of up to three values below 5, every node,
    every barred subset of {0..4}, asked at the node's next index from 0.

    The value is the least unbarred child value read off `nodes`, and the
    value at len(node) of the least strict extension, by length then values,
    unbarred there; None when every child is barred, and a refusal when the
    node has no child.
    """
    rng = random.Random(36)
    for _ in range(2000):
        branches = [rng.sample(range(5), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        tree = ExplicitTree(b[:i] for b in branches for i in range(len(b) + 1))
        for node in tree.nodes:
            k = len(node)
            children = [t[k] for t in tree.nodes if len(t) == k + 1 and t[:k] == node]
            longer = sorted(tree.strict_extensions(node), key=lambda t: (len(t), t))
            for subset in range(32):
                values = {v for v in range(5) if subset >> v & 1}
                if not children:
                    with pytest.raises(TreeRefusedExtension):
                        tree.extend_avoiding(node, k, 0, values.__contains__)
                    continue
                got = tree.extend_avoiding(node, k, 0, values.__contains__)
                free = [v for v in children if v not in values]
                if not free:
                    assert got is None
                    continue
                old = next(t for t in longer if t[k] not in values)
                assert got == min(free) == old[k]


def _answers_as_admits_does(tree, node, k, floors, barred_sets, cap):
    """Check the query and branch at (node, k) against a search of admits over values < cap.

    The query must give the least value from the floor up, not barred, that
    admits allows, or None when the search finds none; it refuses exactly
    when admits allows no value at all there.  branch must give a node the
    tree contains that extends node and has that value at k.
    """
    admitted = [v for v in range(cap) if tree.admits(node, k, v)]
    if not admitted:
        with pytest.raises(TreeRefusedExtension):
            tree.extend_avoiding(node, k, 0, _nothing)
        return
    for v in admitted:
        t = tree.branch(node, k, v)
        assert tree.contains(t) and len(t) == k + 1, (tree, node, k, v, t)
        assert t[: len(node)] == node and t[k] == v, (tree, node, k, v, t)
    for floor in floors:
        for barred in barred_sets:
            want = next((v for v in admitted if v >= floor and v not in barred), None)
            got = tree.extend_avoiding(node, k, floor, barred.__contains__)
            assert got == want, (tree, node, k, floor, barred)


_BARRED_SETS = [frozenset(v for v in range(8) if subset >> v & 1) for subset in range(256)]


@pytest.mark.parametrize(
    "tree", [FullInjectiveTree(), SparseCongruenceTree(3, 7), SparseCongruenceTree(2, 5)],
    ids=["full", "sparse-3-7", "sparse-2-5"],
)
def test_a_generated_tree_answers_its_query_as_a_search_over_admits_does(tree):
    """Every node of the tree of length <= 3 over the six least values of each depth's class
    (values < 6 on the full tree), every k < 5 from its length, every floor < 8 and every
    barred subset of {0..7}.

    The answer is at most floor + modulus · (|node| + |barred| + 1) < 100,
    so the search below 100 sees it; the tree never refuses.
    """
    least = [[tree.residue_at(d) + j * tree.modulus for j in range(6)] for d in range(3)]
    nodes = [node for length in range(4) for node in itertools.product(*least[:length])
             if tree.contains(node)]
    assert len(nodes) >= 1 + 6 + 6 * 5 + 6 * 5 * 4  # as many as when every class is the same
    for node in nodes:
        for k in range(len(node), 5):
            _answers_as_admits_does(tree, node, k, range(8), _BARRED_SETS, 100)


def test_an_explicit_tree_answers_its_query_as_a_search_over_admits_does():
    """300 seeded trees of up to three branches of up to four values below 6, every node,
    every k < 5 from its length, every floor < 7 and 16 seeded barred subsets of {0..7}."""
    rng = random.Random(39)
    refused = 0
    for _ in range(300):
        branches = [rng.sample(range(6), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        tree = ExplicitTree(b[:i] for b in branches for i in range(len(b) + 1))
        for node in tree.nodes:
            for k in range(len(node), 5):
                barred_sets = rng.sample(_BARRED_SETS, 16)
                _answers_as_admits_does(tree, node, k, range(7), barred_sets, 6)
                refused += not any(tree.admits(node, k, v) for v in range(6))
    assert refused > 0


def _truncation_witnesses(tree, modulus: int) -> set:
    """(node, k, v), node of length <= 3, for each node of the tree's truncation to 5 values
    below 9 · modulus that extends node and has v < 8 at index k.

    A breadth-first search of the truncation, by `contains` alone: each
    level's nodes are grown by every value below the cap, and each is asked
    for the values v < 8 at its next index.  Each residue class has 9
    members below the cap, more than the at most 8 values a query's node,
    its v and the indices between take, so the truncation agrees with the
    tree on every query.
    """
    cap, level, found = 9 * modulus, [()], set()
    for k in range(5):
        if k:
            level = [t + (u,) for t in level for u in range(cap) if tree.contains(t + (u,))]
        for t in level:
            for v in range(8):
                if tree.contains(t + (v,)):
                    found.update((t[:d], k, v) for d in range(min(k, 3) + 1))
    return found


@pytest.mark.parametrize(
    "tree, modulus",
    [(FullInjectiveTree(), 1), (SparseCongruenceTree(3, 7), 7), (SparseCongruenceTree(2, 5), 5)],
    ids=["full", "sparse-3-7", "sparse-2-5"],
)
def test_a_generated_tree_admits_exactly_what_a_search_of_its_truncation_finds(tree, modulus):
    """Every node of length <= 3 over values < 6, every k < 5 and every v < 8.

    admits decides from the tree's class what the search finds among the
    nodes of its explicit truncation: some node extends the node and has v
    at index k, k at least the node's length.
    """
    witnesses = _truncation_witnesses(tree, modulus)
    admitted = 0
    for length in range(4):
        for node in itertools.product(range(6), repeat=length):
            for k, v in itertools.product(range(5), range(8)):
                assert tree.admits(node, k, v) == ((node, k, v) in witnesses), (node, k, v)
                admitted += tree.admits(node, k, v)
    assert 0 < admitted < len(witnesses)


def test_an_explicit_tree_admits_what_a_search_of_its_extensions_finds():
    """500 trees of up to three branches of up to four values below 5, every node of length
    <= 2 over values < 5, every k < 5 and every v < 6: admitted exactly when a strict extension
    of the node has v at k, and never at an index inside the node."""
    rng = random.Random(37)
    for _ in range(500):
        branches = [rng.sample(range(5), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        tree = ExplicitTree(b[:i] for b in branches for i in range(len(b) + 1))
        for length in range(3):
            for node in itertools.product(range(5), repeat=length):
                longer = tree.strict_extensions(node) if tree.contains(node) else []
                for k, v in itertools.product(range(5), range(6)):
                    want = k >= length and any(len(t) > k and t[k] == v for t in longer)
                    assert tree.admits(node, k, v) == want, (tree, node, k, v)


@pytest.mark.parametrize(
    "tree", [FullInjectiveTree(), SparseCongruenceTree(5, 2), SparseCongruenceTree(5, 7)]
)
def test_a_query_tests_each_member_of_its_class_once(tree):
    """Over 2,000 barred values, a query asks about each member of k's class from the floor
    to its answer once, in order, and about no other value."""
    asked = []
    barred = set(range(2000))
    v = tree.extend_avoiding((), 3, 100, lambda u: asked.append(u) or u in barred)
    assert v >= 2000 and tree.admits((), 3, v)
    assert asked == list(range(asked[0], v + 1, tree.modulus)) and asked[0] < 100 + tree.modulus


def test_full_tree_contains_exactly_the_injective_nodes():
    tree = FullInjectiveTree()
    assert tree.contains(())
    assert tree.contains((4, 0, 9))
    assert not tree.contains((1, 1))


def test_sparse_tree_respects_its_residues():
    tree = SparseCongruenceTree(seed=3)
    node = ()
    for depth in range(5):
        node += (tree.extend_avoiding(node, depth, 0, _nothing),)
        assert tree.contains(node)
        assert node[depth] % 7 == tree.residue_at(depth)


def test_sparse_tree_extension_avoids_the_forbidden_pairs():
    tree = SparseCongruenceTree(seed=11)
    want = tree.residue_at(0)
    assert tree.extend_avoiding((), 0, 0, {want, want + 7}.__contains__) == want + 14


def test_explicit_tree_is_prefix_closed():
    tree = ExplicitTree.from_branch((4, 2, 7))
    assert tree.nodes == frozenset({(), (4,), (4, 2), (4, 2, 7)})
    assert tree.contains((4, 2))
    assert not tree.contains((4, 7))


def test_explicit_tree_rejects_non_injective_nodes():
    with pytest.raises(Exception):
        ExplicitTree([(), (3,), (3, 3)])


@pytest.mark.parametrize(
    "nodes, message",
    [
        ([(), (1.9,)], "1.9 is not an integer"),
        ([(), (True,)], "True is not an integer"),
        ([(), ("2",)], "'2' is not an integer"),
        ([(), (-1,)], r"negative value in node \[-1\]"),
        ([(), (0,), (0, -3)], r"negative value in node \[0, -3\]"),
    ],
    ids=["float", "bool", "text", "negative", "negative-deeper"],
)
def test_explicit_tree_nodes_hold_naturals_only(nodes, message):
    with pytest.raises(ValueError, match=message):
        ExplicitTree(nodes)


def test_a_branch_of_a_float_and_a_bool_is_refused_by_type_not_as_a_repeat():
    """int() made [1.9, True] the repeated node (1, 1); each value must be an int itself."""
    with pytest.raises(ValueError, match="1.9 is not an integer"):
        ExplicitTree.from_branch([1.9, True])


def test_strict_extensions_and_maximality():
    tree = ExplicitTree([(), (1,), (1, 0), (2,)])
    assert set(tree.strict_extensions((1,))) == {(1, 0)}
    assert tree.is_maximal((1, 0))
    assert tree.is_maximal((2,))
    assert not tree.is_maximal(())


def test_descriptor_round_trip():
    for tree in (
        FullInjectiveTree(),
        SparseCongruenceTree(seed=9),
        ExplicitTree.from_branch((0, 2)),
    ):
        back = tree_from_descriptor(tree.descriptor())
        assert back.descriptor() == tree.descriptor()


def test_branch_equal_to_g_diagonalizes():
    g = {0: 3, 1: 5, 2: 0}
    tree = ExplicitTree.from_branch((3, 5, 0))
    assert undiagonalized_node(g, tree) is None


def test_branch_disjoint_from_g_does_not_diagonalize():
    g = {0: 3, 1: 5, 2: 0}
    tree = ExplicitTree.from_branch((1, 2, 4))
    assert undiagonalized_node(g, tree) is not None
    assert diagonalization_witness(g, tree, ()) is None


def test_the_least_node_without_a_witness_is_the_counterexample():
    g = {0: 3, 1: 5, 2: 0}
    tree = ExplicitTree([(3, 5, 0), (1, 2, 4), (3, 5), (1, 2), (3,), (1,), ()])
    assert undiagonalized_node(g, tree) == (1,)
    assert undiagonalized_node(g, ExplicitTree.from_branch((3, 5, 0))) is None


def test_witness_points_at_the_agreeing_index():
    g = {0: 9, 1: 5}
    tree = ExplicitTree.from_branch((2, 5, 7))
    got = diagonalization_witness(g, tree, ())
    assert got is not None
    node, k = got
    assert k == 1 and node[1] == 5
    assert tree.contains(node)


def test_depth_saturated_truncations_hit_an_injectivity_wall():
    """A full truncation contains nodes that reuse g's next value early.

    A node starting with g(2) can never be extended to agree with g at index
    2 inside an injective tree, so the dense form of the predicate fails on
    saturated truncations even though every run-scheduled witness passes.
    """
    g = {0: 0, 1: 1, 2: 2}
    tree = ExplicitTree(helpers.truncated_nodes(FullInjectiveTree(), 3, 10))
    assert undiagonalized_node(g, tree) is not None
    # the blocked node: starts with g(2), one step below the depth cutoff
    assert diagonalization_witness(g, tree, (2, 0)) is None
    # away from the wall the same tree witnesses g just fine
    assert diagonalization_witness(g, tree, ()) is not None
    assert diagonalization_witness(g, tree, (1,)) is not None


branches = st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True)
graphs = st.dictionaries(st.integers(0, 4), st.integers(0, 9), max_size=5)


@given(st.lists(branches, min_size=1, max_size=4), graphs)
@settings(max_examples=150)
def test_witnesses_are_sound(branch_list, g):
    nodes = set()
    for branch in branch_list:
        for i in range(len(branch) + 1):
            nodes.add(tuple(branch[:i]))
    tree = ExplicitTree(nodes)
    for node in tree.nodes:
        got = diagonalization_witness(g, tree, node)
        if got is None:
            continue
        t, k = got
        assert tree.contains(t)
        assert t[: len(node)] == node and len(t) > len(node)
        assert len(node) <= k < len(t)
        assert g[k] == t[k]


@given(st.integers(0, 2**32), st.integers(0, 6))
def test_sparse_residues_are_deterministic(seed, depth):
    a = SparseCongruenceTree(seed=seed)
    b = SparseCongruenceTree(seed=seed)
    assert a.residue_at(depth) == b.residue_at(depth)
