"""Injective trees: prefix-closed sets of injective finite sequences.

Explicit trees are finite node sets used for exact predicate checks.
Generated trees expose an extension oracle instead: given a node and the
values barred at its next index, produce a strictly longer node whose value
there is not barred.  A walk keeps one Barred set from node to node: the
set holds the node's values and whatever the walk keeps out all along, and
only grows, while `once` holds the values barred at the next index alone.
A generated tree takes the least unbarred value of one class (every
natural, or one residue class) and resumes from the set's cursor for that
class, so a walk of length L over a set of R values makes O(L + R) probes.
Positivity (no finite family of function graphs covers the tree) is
undecidable from finite data in general, so generated trees promise it
through the oracle contract: they never refuse a finite barred set.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import TreeRefusedExtension
from .injections import wire_int

Node = tuple[int, ...]


def _is_injective(node: Node) -> bool:
    return len(set(node)) == len(node)


class Barred(set):
    """The values a walk may not place at a tree node's next index.

    The set holds those barred for the whole walk, every value of the
    current node among them, and may only grow while the walk lasts; `once`
    holds those barred at the next index alone.  Per value class, the
    naturals start + i·step, a cursor marks a point below which every value
    of the class is in the set, so a scan of the class resumes there.
    """

    __slots__ = ("once", "_cursors")

    def __init__(self, values: Iterable[int] = ()):
        super().__init__(values)
        self.once: frozenset[int] = frozenset()
        self._cursors: dict[tuple[int, int], int] = {}

    def bars(self, value: int) -> bool:
        return value in self or value in self.once

    def least(self, start: int, step: int) -> int:
        """The least start + i·step, i >= 0, that is not barred."""
        value = self._cursors.get((start, step), start)
        while value in self:
            value += step
        self._cursors[(start, step)] = value
        while self.bars(value):
            value += step
        return value


class InjectiveTree:
    def contains(self, node: Node) -> bool:
        raise NotImplementedError

    def extend_avoiding(self, node: Node, barred: Barred) -> Node:
        """A strictly longer node whose value at index len(node) is not barred.

        `barred` holds every value of node, so a tree that adds one value
        stays injective by avoiding it; the caller adds the new values to it
        before it asks for the next extension.
        """
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


class FullInjectiveTree(InjectiveTree):
    """All injective finite sequences; extension picks the least fresh value."""

    def contains(self, node: Node) -> bool:
        return all(v >= 0 for v in node) and _is_injective(node)

    def extend_avoiding(self, node: Node, barred: Barred) -> Node:
        return node + (barred.least(0, 1),)

    def descriptor(self) -> dict:
        return {"kind": "full"}

    def __repr__(self) -> str:
        return "FullInjectiveTree()"


def _mix(seed: int, depth: int) -> int:
    # small deterministic integer hash; Python's hash() is salted per process
    h = (seed + 1) * 2654435761 + depth * 97531
    h ^= h >> 13
    return h & 0x7FFFFFFF


class SparseCongruenceTree(InjectiveTree):
    """Depth d admits only values in one residue class mod `modulus`.

    Each class is infinite, so every finite barred set can be avoided and
    the tree is positive; membership stays decidable from the node alone.
    """

    def __init__(self, seed: int, modulus: int = 7):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.seed = seed
        self.modulus = modulus

    def residue_at(self, depth: int) -> int:
        return _mix(self.seed, depth) % self.modulus

    def contains(self, node: Node) -> bool:
        if not _is_injective(node) or any(v < 0 for v in node):
            return False
        return all(v % self.modulus == self.residue_at(i) for i, v in enumerate(node))

    def extend_avoiding(self, node: Node, barred: Barred) -> Node:
        return node + (barred.least(self.residue_at(len(node)), self.modulus),)

    def descriptor(self) -> dict:
        return {"kind": "sparse", "seed": self.seed, "modulus": self.modulus}

    def __repr__(self) -> str:
        return f"SparseCongruenceTree(seed={self.seed}, modulus={self.modulus})"


class ExplicitTree(InjectiveTree):
    """A finite, prefix-closed set of injective nodes, kept sorted for output."""

    def __init__(self, nodes: Iterable[Iterable[int]]):
        node_set = {tuple(int(v) for v in node) for node in nodes}
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
        node = tuple(node)
        k = len(node)
        return sorted(
            t for t in self._nodes if len(t) > k and t[:k] == node
        )

    def is_maximal(self, node: Node) -> bool:
        return not self.strict_extensions(node)

    def extend_avoiding(self, node: Node, barred: Barred) -> Node:
        """The least strict extension, by length then values, not barred at index len(node)."""
        node = tuple(node)
        candidates = sorted(self.strict_extensions(node), key=lambda t: (len(t), t))
        for t in candidates:
            if not barred.bars(t[len(node)]):
                return t
        raise TreeRefusedExtension(
            f"no extension of {node} avoids {sorted(barred | barred.once)}"
        )

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
        return ExplicitTree(map(wire_int, node) for node in data["nodes"])
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
