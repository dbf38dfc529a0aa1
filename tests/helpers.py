"""Independent brute-force reference implementations for the tests.

Everything here is deliberately written from scratch against the documented
behavior, without importing the package, so expected values come from a
second code path.  The scan references read package objects only through
their attributes: a word's `.letters` with `.kind.value` and `.handle`, an
injection's `.apply`, `.apply_inverse`, `.domain`, `.range` and `.support`, a
condition's `.s` and `.words`, an oracle's `.eval`, `.fixed_points`,
`.compose`, `.invert`, `.identity` and `.is_identity`, and a tree's
`.contains`.
"""

from __future__ import annotations

import random

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


def per_call_walk(c, tree, node, count: int, oracle):
    """(node, options) of a tree walk that rebuilds its blocked values at every step.

    The group restriction is the identity, every group letter of c's words
    and their inverses.  At depth j the walk takes the least v with
    tree.contains(node + (v,)) outside c's range and the images g(j), and
    (j, v) is an option when j is outside c's domain and v ≠ g(j) for each g;
    it stops once it holds more than `count` options.  For trees that add
    one value per step; reads the tree only through `contains`.
    """
    handles = {oracle.identity()}
    for w in c.words:
        for letter in w.letters:
            if letter.kind.value == "g":
                handles.add(letter.handle)
                handles.add(oracle.invert(letter.handle))
    dom, ran = set(c.s.domain), set(c.s.range)
    node = tuple(node)
    options = []
    while len(options) <= count:
        j = len(node)
        blocked = ran | {oracle.eval(h, j) for h in handles}
        v = 0
        while v in blocked or not tree.contains(node + (v,)):
            v += 1
        node += (v,)
        if j not in dom and all(oracle.eval(h, j) != v for h in handles):
            options.append((j, v))
    return node, tuple(options)


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
