"""Injective trees: prefix-closed sets of injective finite sequences.

Explicit trees are finite node sets used for exact predicate checks.
Every tree answers one query, `extend_avoiding`: at a given index k at
or past a node's length, the least value from a floor up, not barred,
that some node of the tree extending the node has at k.  `branch` gives
that node, and `admits` decides, without one, whether some node extending
a given one has a given value at a given new index: the check a trace's
reader makes of a tree step's pair.  A generated tree answers from its
class at k (every natural, or one residue class), which is infinite, so it
always has such a value and fills the indices between arithmetically; an
explicit tree answers from its own nodes, and refuses past its depth.
Positivity (no finite family of function graphs covers the tree) is
undecidable from finite data in general, so generated trees promise it
through their classes: they never refuse a finite barred set.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .errors import TreeRefusedExtension
from .injections import wire_int

Node = tuple[int, ...]


def _is_injective(node: Node) -> bool:
    return len(set(node)) == len(node)


def _natural_node(values: Iterable[int]) -> Node:
    """values as a node: each an int, not a bool, and not negative; ValueError otherwise."""
    node = tuple(map(wire_int, values))
    if any(v < 0 for v in node):
        raise ValueError(f"negative value in node {list(node)}")
    return node


class InjectiveTree:
    def contains(self, node: Node) -> bool:
        raise NotImplementedError

    def admits(self, node: Node, k: int, v: int) -> bool:
        """Whether some node of the tree extends node and has value v at index k >= len(node)."""
        raise NotImplementedError

    def extend_avoiding(
        self, node: Sequence[int], k: int, floor: int, barred: Callable[[int], bool]
    ) -> int | None:
        """The least v >= floor, not barred, that the tree admits at index k above node.

        node must be in the tree and k at least its length.  None when the
        tree admits no such value at k; TreeRefusedExtension when no node of
        the tree that extends node reaches index k, so no later index serves
        either.
        """
        raise NotImplementedError

    def branch(self, node: Sequence[int], k: int, v: int) -> Node:
        """A node of the tree that extends node and ends with v at index k.

        admits(node, k, v) must hold: this is the node it says exists.
        """
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


class _ClassTree(InjectiveTree):
    """A generated tree: its values at depth d are the naturals ≡ residue_at(d) mod `modulus`.

    Each class is infinite, so the tree is positive, and every query is
    answered from the class alone: admits(node, k, v) holds when node is in
    the tree and v is a value of k's class outside it, since the indices
    between can always be filled with values of their own classes.
    """

    modulus = 1

    def residue_at(self, depth: int) -> int:
        return 0

    def contains(self, node: Node) -> bool:
        return _is_injective(node) and all(
            v >= 0 and v % self.modulus == self.residue_at(i) for i, v in enumerate(node)
        )

    def admits(self, node: Node, k: int, v: int) -> bool:
        return (len(node) <= k and 0 <= v and v not in node
                and v % self.modulus == self.residue_at(k) and self.contains(node))

    def extend_avoiding(
        self, node: Sequence[int], k: int, floor: int, barred: Callable[[int], bool]
    ) -> int:
        """The first member of k's class at or past floor, outside node and not barred."""
        step, values = self.modulus, set(node)
        v = floor + (self.residue_at(k) - floor) % step
        while v in values or barred(v):
            v += step
        return v

    def branch(self, node: Sequence[int], k: int, v: int) -> Node:
        """Index i between fills with the member of its class in its own run of `modulus`
        naturals past max(node, v), so the values are distinct and clear both."""
        node, step = tuple(node), self.modulus
        base = max((*node, v)) + 1
        fill = []
        for i in range(len(node), k):
            low = base + (i - len(node)) * step
            fill.append(low + (self.residue_at(i) - low) % step)
        return (*node, *fill, v)


class FullInjectiveTree(_ClassTree):
    """All injective finite sequences: every depth's class is every natural."""

    # the bench traces each tree class's own query
    extend_avoiding = _ClassTree.extend_avoiding

    def descriptor(self) -> dict:
        return {"kind": "full"}

    def __repr__(self) -> str:
        return "FullInjectiveTree()"


def _mix(seed: int, depth: int) -> int:
    # small deterministic integer hash; Python's hash() is salted per process
    h = (seed + 1) * 2654435761 + depth * 97531
    h ^= h >> 13
    return h & 0x7FFFFFFF


class SparseCongruenceTree(_ClassTree):
    """Depth d admits only values in one residue class mod `modulus`, drawn from the seed."""

    # as for the full tree
    extend_avoiding = _ClassTree.extend_avoiding

    def __init__(self, seed: int, modulus: int = 7):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.seed = seed
        self.modulus = modulus

    def residue_at(self, depth: int) -> int:
        return _mix(self.seed, depth) % self.modulus

    def descriptor(self) -> dict:
        return {"kind": "sparse", "seed": self.seed, "modulus": self.modulus}

    def __repr__(self) -> str:
        return f"SparseCongruenceTree(seed={self.seed}, modulus={self.modulus})"


class ExplicitTree(InjectiveTree):
    """A finite, prefix-closed set of injective nodes of naturals, kept sorted for output."""

    def __init__(self, nodes: Iterable[Iterable[int]]):
        node_set = {_natural_node(node) for node in nodes}
        for node in node_set:
            if not _is_injective(node):
                raise ValueError(f"non-injective node {node}")
            if node and node[:-1] not in node_set:
                raise ValueError(f"missing prefix of {node}")
        if not node_set:
            node_set = {()}
        self._nodes = frozenset(node_set)

    @classmethod
    def from_branch(cls, branch: Iterable[int]) -> "ExplicitTree":
        branch = tuple(branch)
        return cls(branch[:i] for i in range(len(branch) + 1))

    @property
    def nodes(self) -> frozenset[Node]:
        return self._nodes

    def contains(self, node: Node) -> bool:
        return tuple(node) in self._nodes

    def strict_extensions(self, node: Node) -> list[Node]:
        return sorted(self._above(node, len(node)))

    def admits(self, node: Node, k: int, v: int) -> bool:
        """A search of the tree's own nodes, bounded by its descriptor."""
        return len(node) <= k and any(t[k] == v for t in self._above(node, k))

    def is_maximal(self, node: Node) -> bool:
        return not self.strict_extensions(node)

    def _above(self, node: Sequence[int], k: int) -> list[Node]:
        """The tree's nodes that extend node and reach index k."""
        node = tuple(node)
        return [t for t in self._nodes if len(t) > k and t[: len(node)] == node]

    def extend_avoiding(
        self, node: Sequence[int], k: int, floor: int, barred: Callable[[int], bool]
    ) -> int | None:
        """Read off the tree's own nodes above node."""
        above = self._above(node, k)
        if not above:
            raise TreeRefusedExtension(f"no node of the tree extends {list(node)} to index {k}")
        return min((t[k] for t in above if t[k] >= floor and not barred(t[k])), default=None)

    def branch(self, node: Sequence[int], k: int, v: int) -> Node:
        """The least such node of the tree's own."""
        return min(t[: k + 1] for t in self._above(node, k) if t[k] == v)

    def descriptor(self) -> dict:
        return {"kind": "explicit", "nodes": [list(n) for n in sorted(self._nodes)]}

    def __repr__(self) -> str:
        return f"ExplicitTree({len(self._nodes)} nodes)"


def tree_from_descriptor(data: Mapping) -> InjectiveTree:
    kind = data["kind"]
    if kind == "full":
        return FullInjectiveTree()
    if kind == "sparse":
        return SparseCongruenceTree(wire_int(data["seed"]), wire_int(data["modulus"]))
    if kind == "explicit":
        return ExplicitTree(data["nodes"])
    raise ValueError(f"unknown tree kind {kind!r}")


def diagonalization_witness(
    g: Mapping[int, int], tree: ExplicitTree, node: Node
) -> tuple[Node, int] | None:
    """Some strict extension t of node and new index k with t(k) = g(k)."""
    for t in sorted(tree.strict_extensions(node), key=lambda t: (len(t), t)):
        for k in range(len(node), len(t)):
            if k in g and t[k] == g[k]:
                return t, k
    return None


def undiagonalized_node(g: Mapping[int, int], tree: ExplicitTree) -> Node | None:
    """The least non-maximal node, by length then value, with no witness for g.

    None exactly when g densely diagonalizes the tree: above every
    extendable node some extension agrees with g at a new index.  Maximal
    nodes are exempt: they admit no strict extension inside a finite
    truncation, so the quantifier runs over non-maximal nodes only.
    """
    for node in sorted(tree.nodes, key=lambda t: (len(t), t)):
        if not tree.is_maximal(node) and diagonalization_witness(g, tree, node) is None:
            return node
    return None
