"""Independent brute-force reference implementations for the tests.

Everything here is deliberately written from scratch against the documented
behavior, without importing the package, so expected values come from a
second code path.  The scan references read package objects only through
their attributes: a word's `.letters` with `.kind.value` and `.handle`, an
injection's `.apply`, `.apply_inverse`, `.domain`, `.range` and `.support`, a
condition's `.s` and `.words`, an oracle's `.eval`, `.fixed_points`,
`.compose`, `.invert`, `.identity` and `.is_identity`, and a tree's
`.contains` and `.admits`.  Only `refusal` and `holds` import from the
package: its one refusal type, to read a check's text or verdict.
`eager_gain_text` is the exception: a copy of the text leq wrote for its gain clause when it
formatted it as it raised, to compare the text it now formats when read
against.  And so is `per_closure_seal`, the seal that listed the open paths
and scanned for chain points from the gap again for every closure, through
the package's own close_orbit, to compare the seal that walks them once
against.  `one_link` reads the persistent map's private links, `_toward`
and `_adds`, to tell whether one map was made from another in one step.
The trace helpers read a serialized trace, plain JSON data, as the format
describes it.
"""

from __future__ import annotations

import random

import pytest

from orbitcode import Refused

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def cycle_sizes(perm: tuple[int, ...]) -> list[int]:
    """Cycle type of a total permutation given as a value tuple."""
    seen = [False] * len(perm)
    sizes = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        size = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            size += 1
        sizes.append(size)
    return sizes


def parity_bits(perm: tuple[int, ...], upto: int) -> tuple[int, ...]:
    """Bit n is the count of cycles of size PRIMES[n], mod 2."""
    sizes = cycle_sizes(perm)
    return tuple(sum(1 for z in sizes if z == PRIMES[n]) % 2 for n in range(upto + 1))


def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """f after g, both total on the same range."""
    return tuple(f[g[i]] for i in range(len(g)))


def perm_power(f: tuple[int, ...], k: int) -> tuple[int, ...]:
    out = tuple(range(len(f)))
    for _ in range(k):
        out = compose(f, out)
    return out


def closed_cycle_sizes_of_mapping(graph: dict[int, int]) -> list[int]:
    """Sizes of the cycles of a partial injection given as a dict.

    A cycle is a maximal forward walk that returns to its start without
    leaving the mapping.
    """
    seen: set[int] = set()
    sizes = []
    for start in graph:
        if start in seen:
            continue
        cur = start
        trail = []
        while cur in graph and cur not in seen and cur not in trail:
            trail.append(cur)
            cur = graph[cur]
        if trail and cur == trail[0]:
            seen.update(trail)
            sizes.append(len(trail))
        else:
            seen.update(trail)
    return sizes


def mex(values) -> int:
    """The least natural number not in `values`, found by counting up from 0."""
    taken = set(values)
    n = 0
    while n in taken:
        n += 1
    return n


def zig(n: int) -> int:
    """The n-th integer in the order 0, -1, 1, -2, 2, ..."""
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def zag(z: int) -> int:
    return 2 * z if z >= 0 else -2 * z - 1


def random_injection(rng: random.Random, size: int, span: int) -> dict[int, int]:
    """A random partial injection with at most `size` pairs below `span`."""
    points = list(range(span))
    rng.shuffle(points)
    dom = sorted(rng.sample(range(span), k=min(size, span)))
    out = {}
    for n in dom:
        if points:
            out[n] = points.pop()
    return out


def orbits_by_minimum(graph: dict[int, int]) -> list[tuple[tuple[int, ...], bool]]:
    """Every orbit of a partial injection as (walk, closed), sorted by minimum.

    A closed orbit's walk starts at its minimum and an open one's at its
    entry, the point without a preimage; either walk follows the map.
    """
    inverse = {m: n for n, m in graph.items()}
    remaining = set(graph) | set(inverse)
    out = []
    while remaining:
        entry = start = remaining.pop()
        while entry in inverse and inverse[entry] != start:
            entry = inverse[entry]
        closed = entry in inverse
        if closed:
            entry = min(_walk(graph, start, stop=start))
        walk = _walk(graph, entry, stop=entry if closed else None)
        remaining -= set(walk)
        out.append((walk, closed))
    return sorted(out, key=lambda orbit: min(orbit[0]))


def _walk(graph: dict[int, int], start: int, stop: int | None) -> tuple[int, ...]:
    """start, graph[start], ... until the map is undefined or returns to `stop`."""
    walk = [start]
    while walk[-1] in graph and graph[walk[-1]] != stop:
        walk.append(graph[walk[-1]])
    return tuple(walk)


def evaluate_letters(letters, s, oracle, n: int) -> int | None:
    """w[s](n), rightmost letter first; None once a step is undefined."""
    for letter in reversed(letters):
        kind = letter.kind.value
        if kind == "x":
            n = s.apply(n)
        elif kind == "x^-1":
            n = s.apply_inverse(n)
        else:
            n = oracle.eval(letter.handle, n)
        if n is None:
            return None
    return n


def full_range_fixed_points(w, s, oracle, bound: int) -> frozenset[int]:
    """Fixed points of a reduced word scanned over all of dom(s) ∪ ran(s) ∪ [0, bound).

    The identity word fixes the whole scan; a lone group letter, never the
    identity in a reduced word, defers to the oracle.
    """
    scan = set(s.support) | set(range(bound))
    if not w.letters:
        return frozenset(scan)
    if all(letter.kind.value == "g" for letter in w.letters):
        return frozenset(oracle.fixed_points(w.letters[0].handle))
    return frozenset(n for n in scan if evaluate_letters(w.letters, s, oracle, n) == n)


def domain_scan_fixed_points(w, s, oracle) -> frozenset[int]:
    """Fixed points of w over dom(s), scanned in the order s.domain iterates.

    An error the oracle raises, such as a window miss, propagates from the
    first point of that order that meets it.
    """
    return frozenset(n for n in s.domain if evaluate_letters(w.letters, s, oracle, n) == n)


def two_sided_leq(upper, lower, oracle) -> dict:
    """The word clause of the order check with both sides scanned in full.

    Maps each word of lower to (its fixed points under lower.s, under
    upper.s), both scanned up to upper's support bound; upper extends lower
    on the words exactly when every pair agrees.  Words must be reduced.
    """
    bound = max(upper.s.support, default=-1) + 1
    return {
        w: (
            full_range_fixed_points(w, lower.s, oracle, bound),
            full_range_fixed_points(w, upper.s, oracle, bound),
        )
        for w in lower.words
    }


# past the largest value a reference pick reads, so a search below it is exhaustive
PICK_CAP = 400


def least_admitted_pair(c, tree, node, count: int, oracle):
    """The pair (k, v) a tree step from node takes below c, by a search over `tree.admits`.

    The group restriction is the identity, every group letter of c's words
    and their inverses.  k runs up from len(node) over the points outside
    c's domain; at each, v runs from `count` up to PICK_CAP over values
    outside c's range with v ≠ g(k) for each g, and the first v the tree
    admits is taken.  None when the tree admits no value below PICK_CAP at
    some k reached first, as an explicit tree past its depth does.
    """
    handles = {oracle.identity()}
    for w in c.words:
        for letter in w.letters:
            if letter.kind.value == "g":
                handles.add(letter.handle)
                handles.add(oracle.invert(letter.handle))
    dom, ran = set(c.s.domain), set(c.s.range)
    k = len(node)
    while True:
        if k not in dom:
            if not any(tree.admits(node, k, u) for u in range(PICK_CAP)):
                return None
            images = {oracle.eval(h, k) for h in handles}
            for v in range(count, PICK_CAP):
                if v not in ran and v not in images and tree.admits(node, k, v):
                    return k, v
        k += 1


def x_balance(word) -> int:
    """Number of x letters minus number of x^-1 letters."""
    kinds = [letter.kind.value for letter in word.letters]
    return kinds.count("x") - kinds.count("x^-1")


def truncated_nodes(tree, depth: int, value_bound: int) -> list[tuple[int, ...]]:
    """Every node of the tree of length ≤ depth with values < value_bound.

    Reads only `tree.contains`; exponential in depth for dense trees.
    """
    nodes = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [
            node + (v,)
            for node in frontier
            for v in range(value_bound)
            if tree.contains(node + (v,))
        ]
        nodes.extend(frontier)
    return nodes


def reduce_tokens(tokens, oracle) -> list[tuple[str, object]]:
    """Free reduction of (kind, handle) tokens: x/x^-1 cancel, group letters compose."""
    stack: list[tuple[str, object]] = []
    for kind, handle in tokens:
        if kind == "g":
            if stack and stack[-1][0] == "g":
                handle = oracle.compose(stack.pop()[1], handle)
            if not oracle.is_identity(handle):
                stack.append(("g", handle))
        elif stack and {stack[-1][0], kind} == {"x", "x^-1"}:
            stack.pop()
        else:
            stack.append((kind, None))
    return stack


def admissible_tokens(tokens) -> bool:
    """Reduced tokens of x^k, k > 0, or g_l x^{k_l} ... g_0 x^{k_0}, each k_i ≠ 0 and k_0 > 0."""
    if not tokens:
        return False
    if tokens[0][0] != "g":
        return all(kind == "x" for kind, _ in tokens)
    runs: list[list[str]] = []
    for kind, _ in tokens:
        if kind == "g":
            runs.append([])
        else:
            runs[-1].append(kind)
    return all(len(set(run)) == 1 for run in runs) and runs[-1][0] == "x"


def rotation_class_by_every_cut(word, oracle) -> frozenset[tuple[tuple[str, object], ...]]:
    """Admissible words among all letter rotations of a word and their inverses, as tokens.

    Every rotation is reduced before it and its inverse are tested, as the
    definition reads; quadratic in the word's length.  A rotation that
    repeats, as those of a power do, is reduced once.
    """
    tokens = tuple((letter.kind.value, letter.handle) for letter in word.letters)
    swap = {"x": "x^-1", "x^-1": "x"}
    out = set()
    for rotation in {tokens[i:] + tokens[:i] for i in range(len(tokens))}:
        rotated = reduce_tokens(rotation, oracle)
        inverse = [
            ("g", oracle.invert(handle)) if kind == "g" else (swap[kind], None)
            for kind, handle in reversed(rotated)
        ]
        for candidate in (rotated, reduce_tokens(inverse, oracle)):
            if admissible_tokens(candidate):
                out.add(tuple(candidate))
    return frozenset(out)


def word_by_word_dagger_clauses(c, oracle) -> bool:
    """The dagger clauses checked one word at a time, as the definition reads.

    Every word of E is admissible; E holds its rotation class, taken at
    every cut, and each lower power of its indecomposable root v; and for
    w = v^k, v[s] has an odd count of closed orbits of size PRIMES[n]
    exactly when target bit n is 1, for every PRIMES[n] ≤ k.
    """
    words = {tuple((l.kind.value, l.handle) for l in w.letters) for w in c.words}
    for w in c.words:
        tokens = tuple((l.kind.value, l.handle) for l in w.letters)
        if not admissible_tokens(tokens):
            return False
        if not rotation_class_by_every_cut(w, oracle) <= words:
            return False
        period = next(
            d for d in range(1, len(tokens) + 1)
            if len(tokens) % d == 0 and tokens == tokens[:d] * (len(tokens) // d)
        )
        k = len(tokens) // period
        if any(tokens[:period] * p not in words for p in range(1, k)):
            return False
        root = w.letters[:period]
        graph = {}
        for n in c.s.support:
            image = evaluate_letters(root, c.s, oracle, n)
            if image is not None:
                graph[n] = image
        sizes = closed_cycle_sizes_of_mapping(graph)
        for n, prime in enumerate(p for p in PRIMES if p <= k):
            if n >= len(c.target) or sizes.count(prime) % 2 != c.target[n]:
                return False
    return True


def delta_unions(data) -> list[tuple[list[list[int]], list[str]]]:
    """Per step, the union of the deltas up to it, its upper condition: sorted pairs and texts."""
    pairs: dict[int, int] = {}
    texts: set[str] = set()
    out = []
    for step in data["steps"]:
        for n, m in step["pairs"]:
            pairs[n] = m
        texts.update(step["words"])
        out.append(([[n, pairs[n]] for n in sorted(pairs)], sorted(texts)))
    return out


def reseal(data) -> None:
    """Rewrite `final` as the union of the deltas, after a forger edits a delta."""
    pairs, texts = delta_unions(data)[-1]
    data["final"] = {"injection": pairs, "words": texts}


def refusal(call, *args) -> str:
    """The text of the Refused that call(*args) raises; fails the test if it returns."""
    with pytest.raises(Refused) as refused:
        call(*args)
    return str(refused.value)


def eager_gain_text(gains, oracle) -> str:
    """leq's gain clause as leq wrote it when it raised: the least gaining word and its points."""
    from orbitcode import words as W

    text, gained = min((W.format_word(W.Word(v.letters * j), oracle), sorted(p))
                       for (v, j), p in gains.items())
    return f"word {text!r} changed fixed points (gained {gained})"


def holds(call, *args) -> bool:
    """True if call(*args) returns, False if it raises Refused."""
    try:
        call(*args)
    except Refused:
        return False
    return True


def per_closure_seal(c, oracle):
    """close_all_orbits as it was when it listed the open paths again for every closure.

    Each closure takes the least open path of the condition so far, reads
    its threshold by walking its orbit, and calls the package's close_orbit,
    whose chain scan starts at the gap.  Reads the package through its
    modules, so a test can count the closures.
    """
    from orbitcode import forcing as F
    from orbitcode import injections as I
    from orbitcode import words as W

    if c.flavor is F.Flavor.CODING:
        while I.open_orbits(c.s):
            c = F.code_next_orbit(c, oracle)
        return c
    avoid: set[int] = set()
    if c.flavor is F.Flavor.DAGGER:
        for w in c.words:
            avoid.update(I.primes_up_to(W.indecomposable_root(w, oracle)[1]))
    while True:
        open_now = I.open_orbits(c.s)
        if not open_now:
            return c
        n = open_now[0].minimum
        k = F.closing_threshold(c, open_now[0]) + 1
        while k in avoid:
            k += 1
        c = F.close_orbit(c, n, k, oracle)


def one_link(upper, lower) -> bool:
    """Whether the map upper is lower itself, or was made from lower by one with_pairs.

    Made so, the two are neighbours whichever owns the dicts: upper links to
    lower adding the pairs, or lower to upper lacking them.
    """
    return upper is lower or (upper._toward is lower and upper._adds) or (
        lower._toward is upper and not lower._adds
    )
