"""Injective trees: extension oracles, explicit truncations, diagonalization."""

import itertools

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
from orbitcode.trees import Barred, undiagonalized_node

import helpers


def _barred(values=(), once=()):
    barred = Barred(values)
    barred.once = frozenset(once)
    return barred


def test_full_tree_extends_by_the_least_free_value():
    tree = FullInjectiveTree()
    assert tree.extend_avoiding((), _barred({0})) == (1,)
    assert tree.extend_avoiding((5,), _barred({5})) == (5, 0)
    assert tree.extend_avoiding((0, 1), _barred({0, 1}, once={2, 3})) == (0, 1, 4)


def test_a_value_barred_once_is_free_at_the_next_index():
    """The cursor stops at a value barred for one index only, so the next extension takes it."""
    trees = (SparseCongruenceTree(seed, 2) for seed in itertools.count())
    sparse = next(tree for tree in trees if tree.residue_at(0) == tree.residue_at(1))
    for tree, want, step in ((FullInjectiveTree(), 0, 1), (sparse, sparse.residue_at(0), 2)):
        barred = _barred(once={want})
        node = tree.extend_avoiding((), barred)
        assert node == (want + step,)
        barred.add(node[-1])
        barred.once = frozenset()
        assert tree.extend_avoiding(node, barred) == node + (want,)


def test_explicit_tree_takes_the_least_extension_unbarred_at_the_next_index():
    tree = ExplicitTree([(), (1,), (1, 2), (2,), (3,), (3, 1), (3, 1, 0)])
    assert tree.extend_avoiding((), _barred({1})) == (2,)
    assert tree.extend_avoiding((), _barred({1}, once={2})) == (3,)
    assert tree.extend_avoiding((3,), _barred({3})) == (3, 1)
    with pytest.raises(TreeRefusedExtension):
        tree.extend_avoiding((), _barred({1, 2}, once={3}))


def _probes_of_a_walk(tree, resume: bool) -> int:
    """Probes of a 300-step walk over 2,000 barred values, each step barring two more once.

    Without `resume`, every step gets a fresh copy of the set, so it scans
    its class from the least value again, as a walk without cursors does.
    """
    probes = [0]

    class Counting(Barred):
        __slots__ = ()

        def __contains__(self, value):
            probes[0] += 1
            return super().__contains__(value)

    barred = Counting(range(2000))
    node = ()
    for depth in range(300):
        if not resume:
            barred = Counting(barred)
        barred.once = frozenset({2000 + depth, 2001 + 3 * depth})
        node = tree.extend_avoiding(node, barred)
        barred.add(node[-1])
    assert tree.contains(node)
    return probes[0]


@pytest.mark.parametrize(
    "tree", [FullInjectiveTree(), SparseCongruenceTree(5, 2), SparseCongruenceTree(5, 7)]
)
def test_a_walk_probes_its_barred_set_linearly(tree):
    """Probes grow with the walk plus the barred set, not with their product."""
    bound = 2 * (2000 + 300) + 6 * 300
    assert _probes_of_a_walk(tree, resume=True) <= bound
    assert _probes_of_a_walk(tree, resume=False) > 10 * bound


def test_full_tree_contains_exactly_the_injective_nodes():
    tree = FullInjectiveTree()
    assert tree.contains(())
    assert tree.contains((4, 0, 9))
    assert not tree.contains((1, 1))


def test_sparse_tree_respects_its_residues():
    tree = SparseCongruenceTree(seed=3)
    node = ()
    barred = _barred()
    for _ in range(5):
        node = tree.extend_avoiding(node, barred)
        barred.add(node[-1])
        assert tree.contains(node)
        depth = len(node) - 1
        assert node[depth] % 7 == tree.residue_at(depth)


def test_sparse_tree_extension_avoids_the_forbidden_pairs():
    tree = SparseCongruenceTree(seed=11)
    want = tree.residue_at(0)
    barred = _barred(once={want, want + 7})
    node = tree.extend_avoiding((), barred)
    assert node[0] not in barred.once
    assert node[0] == want + 14


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
