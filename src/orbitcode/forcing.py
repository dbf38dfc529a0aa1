"""Conditions (s, E) and the constructive extension operations between them.

A condition pairs a finite partial injection s with a finite set E of
admissible words.  Extension (t, F) ≤ (s, E) means t ⊇ s, F ⊇ E, and no word
of E changes its fixed-point set when evaluated at t instead of s.  Three
flavors refine the base poset:

  Plain   — just the pair.
  Coding  — s is nice and the orbit-order code of s is a prefix of a target
            bit string r.
  Dagger  — E is closed under cyclic rotations, inverses and downward powers,
            and for every w = v^k in E the evaluation v[s] codes r in
            prime-parity up to every n with p_n ≤ k.

Every operation here certifies its own step, once: it returns the
ExtensionCertificate from its input to its result, and `.upper` is the new
condition.  A single step's certificate comes from one validate + leq check
of the result against the input; an operation made of several steps chains
their certificates by transitivity instead of checking again.  Callers store
the certificate as it is.  Serialized, it keeps only its upper condition and
snapshots, and re-verifies against a lower condition the reader already
holds.  A refusal is a falsy CheckResult with a reason.  All tie-breaking
picks the least value, so runs are reproducible bit for bit.

The orbit-order rule lives in injections.closed_and_gap, and the dagger
closure rule in words.closure, which add_word builds E from and validate
checks once per root.  The fresh-point clause is _fresh_point_ok, searched
by _least_fresh for both close_orbit's chain and strong_close_orbit's cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from . import injections as I
from . import trees as T
from . import words as W
from .errors import (
    InternalCheckFailed,
    KTooSmall,
    NotNiceInjection,
    PreconditionViolated,
    PrefixTooShort,
)

_SCAN_CAP = 1_000_000


class Flavor(Enum):
    PLAIN = "plain"
    CODING = "coding"
    DAGGER = "dagger"


@dataclass(frozen=True)
class Condition:
    s: I.PartialInjection
    words: frozenset[W.Word]
    flavor: Flavor = Flavor.PLAIN
    target: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.flavor is Flavor.PLAIN:
            if self.target is not None:
                raise ValueError("plain conditions carry no target bits")
        elif self.target is None:
            raise ValueError(f"{self.flavor.value} conditions need target bits")

    @property
    def max_word_length(self) -> int:
        """L: the longest expanded word in E, 0 when E is empty."""
        return max((len(w) for w in self.words), default=0)

    def sorted_words(self, oracle) -> list[W.Word]:
        return sorted(self.words, key=lambda w: W.format_word(w, oracle))


def plain_condition(s=None, words: Iterable[W.Word] = ()) -> Condition:
    return Condition(s or I.PartialInjection(), frozenset(words), Flavor.PLAIN)


def coding_condition(r: Sequence[int], s=None, words: Iterable[W.Word] = ()) -> Condition:
    return Condition(s or I.PartialInjection(), frozenset(words), Flavor.CODING, tuple(r))


def dagger_condition(r: Sequence[int], s=None, words: Iterable[W.Word] = ()) -> Condition:
    return Condition(s or I.PartialInjection(), frozenset(words), Flavor.DAGGER, tuple(r))


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ExtensionCertificate:
    """A verified instance of upper ≤ lower with fixed-point snapshots."""

    lower: Condition
    upper: Condition
    snapshots: tuple[tuple[W.Word, frozenset[int]], ...]


def chain(
    first: ExtensionCertificate | None, then: ExtensionCertificate
) -> ExtensionCertificate:
    """first (c → m) followed by then (m → u): the certificate c → u, by transitivity.

    Fixed points of the words of c agree at c, m and u, so the snapshots of
    `then` restricted to c's words are exactly the ones leq(u, c) records.
    No first certificate means `then` starts the chain.
    """
    if first is None:
        return then
    kept = tuple(item for item in then.snapshots if item[0] in first.lower.words)
    return ExtensionCertificate(first.lower, then.upper, kept)


def validate(c: Condition, oracle) -> CheckResult:
    """Check every flavor invariant; the reason names the first violated clause.

    Words are checked for admissibility unsorted, and a refusal names the
    least inadmissible word in text order, so only a refusal formats them.
    """
    inadmissible = [w for w in c.words if not W.is_admissible(w, oracle)]
    if inadmissible:
        text = min(W.format_word(w, oracle) for w in inadmissible)
        return CheckResult(False, f"word {text!r} is not admissible")
    if c.flavor is Flavor.PLAIN:
        return CheckResult(True)
    if c.flavor is Flavor.CODING:
        try:
            bits = I.o_partial(c.s)
        except NotNiceInjection:
            return CheckResult(False, "injection is not nice")
        if len(bits) > len(c.target) or tuple(c.target[: len(bits)]) != bits:
            return CheckResult(
                False, f"orbit code {list(bits)} is not a prefix of target {list(c.target)}"
            )
        return CheckResult(True)
    # dagger: per indecomposable root v, the closure of its top power and v[s]'s code
    tops: dict[W.Word, W.Word] = {}
    for w in c.words:
        v = W.indecomposable_root(w, oracle)[0]
        if len(w) > len(tops.get(v, ())):
            tops[v] = w
    covered: dict[W.Word, int] = {}  # rotation class members, by the top power checked
    for v in sorted(tops, key=lambda v: W.format_word(v, oracle)):
        top, k = tops[v], len(tops[v]) // len(v)
        for u in W.closure(v, k, oracle) if covered.get(v, 0) < k else ():
            if u not in c.words:
                if u.letters[: len(v)] != v.letters:
                    text = W.format_word(u, oracle)
                    return CheckResult(False, f"rotation class not closed: missing {text!r}")
                text, power = W.format_word(top, oracle), len(u) // len(v)
                return CheckResult(False, f"missing power {power} of root of {text!r}")
            if len(u) == len(v):
                covered[u] = k
        last = len(I.primes_up_to(k)) - 1
        if last < 0:
            continue
        for n, bit in enumerate(I.o_dagger(I.word_graph(v, c.s, oracle), last)):
            if len(c.target) <= n:
                reason = f"target too short for power-{k} obligation at bit {n}"
                return CheckResult(False, reason)
            if bit != c.target[n]:
                text = W.format_word(v, oracle)
                return CheckResult(False, f"evaluation of {text!r} miscodes bit {n}")
    return CheckResult(True)


def leq(upper: Condition, lower: Condition, oracle) -> ExtensionCertificate | CheckResult:
    """Certificate that upper extends lower: graphs and words grow, fixed points don't.

    Once upper.s extends lower.s, a point a word fixes under lower.s it
    fixes under upper.s too, so fixed points can be gained but never lost,
    and only where an evaluation under lower.s stopped, or at a new domain
    point, can one be gained.  injections.gained_fixed_points evaluates
    there alone; an empty E needs no look at the pairs at all.  lower must
    be valid, so that its words are reduced and end in x; a word of any
    other shape raises PreconditionViolated.
    """
    if upper.flavor is not lower.flavor or upper.target != lower.target:
        return CheckResult(False, "flavor or target mismatch")
    if not upper.s.extends(lower.s):
        return CheckResult(False, "injection does not extend")
    if not lower.words <= upper.words:
        return CheckResult(False, "word set does not extend")
    if not lower.words:
        return ExtensionCertificate(lower, upper, ())
    snapshots = []
    for text, w, fixed, gained in I.gained_fixed_points(lower.words, upper.s, lower.s, oracle):
        if gained:
            return CheckResult(False, f"word {text!r} changed fixed points (gained {gained})")
        snapshots.append((w, fixed))
    return ExtensionCertificate(lower, upper, tuple(snapshots))


def _admissible(c: Condition, candidate: Condition, oracle):
    """validate + leq in one step: the certificate candidate ≤ c, or a falsy refusal."""
    check = validate(candidate, oracle)
    if not check:
        return check
    return leq(candidate, c, oracle)


def _least_admissible(
    c: Condition, pair_at, taken: frozenset[int], oracle, what: str
) -> ExtensionCertificate:
    """Certificate of the least v outside `taken` whose pair pair_at(v) extends c."""
    for v in range(_SCAN_CAP + 1):
        if v in taken:
            continue
        cert = _admissible(c, replace(c, s=c.s.with_pair(*pair_at(v))), oracle)
        if cert:
            return cert
    raise InternalCheckFailed(f"no admissible {what} up to {_SCAN_CAP}")


def extend_domain(c: Condition, n: int, oracle) -> ExtensionCertificate:
    """Add n to the domain with the least value keeping the condition's order."""
    if c.s.apply(n) is not None:
        raise PreconditionViolated(f"{n} already in domain")
    return _least_admissible(c, lambda m: (n, m), c.s.range, oracle, f"image for {n}")


def extend_range(c: Condition, m: int, oracle) -> ExtensionCertificate:
    """Add m to the range with the least preimage keeping the condition's order."""
    if c.s.apply_inverse(m) is not None:
        raise PreconditionViolated(f"{m} already in range")
    return _least_admissible(c, lambda n: (n, m), c.s.domain, oracle, f"preimage for {m}")


def _nonidentity_handles(words: Iterable[W.Word], oracle) -> list:
    return [h for h in W.graph_restriction(words, oracle) if not oracle.is_identity(h)]


def avoidance_bound(
    c: Condition, oracle, extra_words: Iterable[W.Word] = (), pairwise: bool = False
) -> int:
    """N with supports, their group images, and group fixed points all below it.

    With pairwise=True the bound also clears every point where two distinct
    group elements of the restriction agree, which the chain constructions
    need; a windowed oracle reports the fixed points within its window,
    which bound what it has seen, and any later evaluation beyond the window
    fails loudly rather than guessing.
    """
    bound = max(c.s.support, default=-1) + 1
    handles = _nonidentity_handles(list(c.words) + list(extra_words), oracle)
    for h in handles:
        for p in c.s.support:
            bound = max(bound, oracle.eval(h, p) + 1)
        bound = max(bound, max(oracle.fixed_points(h), default=-1) + 1)
    if pairwise:
        for g0, g1 in itertools.combinations(handles, 2):
            diff = oracle.compose(oracle.invert(g0), g1)
            if oracle.is_identity(diff):
                continue
            bound = max(bound, max(oracle.fixed_points(diff), default=-1) + 1)
    return bound


def many_extensions(
    c: Condition, tree: T.InjectiveTree, node: T.Node, count: int, oracle
) -> tuple[T.Node, tuple[tuple[int, int], ...]]:
    """Walk the tree collecting more than `count` one-point extensions of c.

    Every option (k, v) has k fresh for the node and the domain, v outside
    the range, and v ≠ g(k) for each g in the word set's group restriction;
    each such pair extends c on its own.  Words must all have a single x
    occurrence: those are the only shapes whose fixed points a single fresh
    pair provably cannot touch.  One barred set serves the whole walk: the
    node's values and the range, each grown value added once, and at depth
    j the images g(j) for that depth only.
    """
    for w in c.words:
        if w.x_count() != 1:
            raise PreconditionViolated(
                f"word {W.format_word(w, oracle)!r} has more than one x"
            )
    handles = W.graph_restriction(c.words, oracle)
    dom, ran = c.s.domain, c.s.range
    current = tuple(node)
    barred = T.Barred(itertools.chain(current, ran))
    options: list[tuple[int, int]] = []
    stall_budget = count + len(dom) + 64
    while len(options) <= count:
        j = len(current)
        barred.once = frozenset([oracle.eval(h, j) for h in handles])
        grown = tree.extend_avoiding(current, barred)
        barred.update(grown[j:])
        for k in range(j, len(grown)):
            v = grown[k]
            if k in dom or v in ran:
                continue
            if any(oracle.eval(h, k) == v for h in handles):
                continue
            candidate = Condition(c.s.with_pair(k, v), c.words, c.flavor, c.target)
            if not leq(candidate, c, oracle):
                raise InternalCheckFailed(
                    f"avoidance clauses missed a fixed point at ({k}, {v})"
                )
            options.append((k, v))
        current = grown
        stall_budget -= 1
        if stall_budget < 0 and len(options) <= count:
            raise InternalCheckFailed("tree extensions stopped yielding fresh indices")
    return current, tuple(options)


def _single_occurrence_subwords(w: W.Word) -> set[W.Word]:
    """Contiguous admissible subwords with one x: {x} plus g·x per positive block."""
    out = {W.Word((W.X,))}
    for handle, exp in W.nice_blocks(w) or ():
        if handle is not None and exp > 0:
            out.add(W.Word((W.group(handle), W.X)))
    return out


def tree_extend(
    c: Condition, tree: T.InjectiveTree, node: T.Node, oracle
) -> tuple[ExtensionCertificate, T.Node, int]:
    """One new pair (k, t'(k)) read off a positive tree, below c.

    Splits E into single-x words (plus the single-x subwords of the rest) for
    the option search, then takes any option whose value clears the avoidance
    bound N; more than N options with pairwise distinct values guarantee one.
    """
    if not tree.contains(node):
        raise PreconditionViolated(f"node {list(node)} is not in the tree")
    single = set()
    for w in c.words:
        if w.x_count() == 1:
            single.add(w)
        else:
            single |= _single_occurrence_subwords(w)
    scratch = plain_condition(c.s, single)
    bound = avoidance_bound(c, oracle)
    grown, options = many_extensions(scratch, tree, node, bound, oracle)
    viable = [(k, v) for k, v in options if v >= bound]
    if not viable:
        raise InternalCheckFailed(
            f"{len(options)} options but none reaches bound {bound}"
        )
    k0, v0 = min(viable)
    cert = _admissible(c, replace(c, s=c.s.with_pair(k0, v0)), oracle)
    if not cert:
        raise InternalCheckFailed(f"fresh pair ({k0}, {v0}) refused: {cert.reason}")
    return cert, grown, k0


def closing_threshold(c: Condition, n: int) -> int:
    """K: any orbit size above it is reachable when closing through n."""
    return I.orbit_of(c.s, n).size + c.max_word_length


def _fresh_point_ok(
    b: int,
    bound: int,
    chosen: set[int],
    support: frozenset[int],
    handles,
    oracle,
    back: frozenset[int] = frozenset(),
) -> bool:
    """The fresh-point clause: above the bound (-1 for chain points), no collisions.

    `back` exempts the intended group edge: a point forced as g(a) is mapped
    back onto a by g^-1, and above the pairwise bound no other handle can
    reach a, so allowing exactly that image loses nothing.
    """
    if b <= bound or b in support or b in chosen:
        return False
    for h in handles:
        image = oracle.eval(h, b)
        if image == b:
            return False
        if (image in chosen or image in support) and image not in back:
            return False
    return True


def _least_fresh(start: int, ok) -> int:
    """The least b >= start with ok(b): the one fresh-point scan."""
    for b in range(start, _SCAN_CAP + 1):
        if ok(b):
            return b
    raise InternalCheckFailed("fresh-point scan exhausted")


def close_orbit(c: Condition, n: int, k: int, oracle) -> ExtensionCertificate:
    """Close the orbit through n into a cycle of size exactly k.

    Works for any k above the threshold K = |orbit(n)| + L: the orbit is
    first anchored in the domain if n is isolated, then a fresh chain of
    k − |orbit| points is routed from the orbit's exit back to its entry.
    Chain points and their group images avoid everything already present, so
    no word of E gains a fixed point.
    """
    orbit = I.orbit_of(c.s, n)
    if orbit.closed:
        raise PreconditionViolated(f"{n} lies in a closed orbit")
    threshold = closing_threshold(c, n)
    if k <= threshold:
        raise KTooSmall(f"need k > {threshold}, got {k}")

    base = c
    if n not in c.s.support:
        # anchor the isolated point with a fresh image so the size arithmetic
        # stays exact: the orbit becomes {n, m} and only then grows a chain
        base = _least_admissible(
            c, lambda m: (n, m), c.s.support | {n}, oracle, f"anchor image for {n}"
        ).upper

    orbit = I.orbit_of(base.s, n)
    chain_length = k - orbit.size
    if chain_length < 0:
        raise InternalCheckFailed("orbit outgrew the requested size")
    handles = _nonidentity_handles(base.words, oracle)
    support = base.s.support
    chain: list[int] = []
    while len(chain) < chain_length:
        chosen = set(chain)
        chain.append(
            _least_fresh(
                chain[-1] + 1 if chain else 0,
                lambda a: _fresh_point_ok(a, -1, chosen, support, handles, oracle),
            )
        )
    route = [orbit.exit, *chain, orbit.entry]
    closed = replace(
        base, s=base.s.with_pairs((route[i], route[i + 1]) for i in range(len(route) - 1))
    )

    final_orbit = I.orbit_of(closed.s, n)
    if not final_orbit.closed or final_orbit.size != k:
        raise InternalCheckFailed(
            f"closed orbit came out {final_orbit.size}, wanted {k}"
        )
    cert = _admissible(c, closed, oracle)
    if not cert:
        raise PreconditionViolated(
            f"closing through {n} at size {k} breaks the flavor: {cert.reason}"
        )
    return cert


def code_next_orbit(c: Condition, oracle) -> ExtensionCertificate:
    """Close the orbit at the least uncovered natural, parity-matched to the target."""
    if c.flavor is not Flavor.CODING:
        raise PreconditionViolated("coding flavor required")
    closed, n = I.closed_and_gap(c.s)
    index = len(closed)
    if index >= len(c.target):
        raise PrefixTooShort(f"target has only {len(c.target)} bits")
    k = closing_threshold(c, n) + 1
    if k % 2 != c.target[index] % 2:
        k += 1
    return close_orbit(c, n, k, oracle)


def strong_close_orbit(c: Condition, v: W.Word, k: int, oracle) -> ExtensionCertificate:
    """Give the evaluation v[s] exactly one new closed orbit, of size k.

    Walks the letters of v^k around a cycle of fresh points: group letters
    force the next point through the oracle, x letters commit new injection
    pairs on points chosen above the avoidance bound.  Admissible words
    alternate group and x letters, so one step of lookahead through a forced
    group image keeps the greedy least-point choice safe.
    """
    if c.flavor is not Flavor.DAGGER:
        raise PreconditionViolated("dagger flavor required")
    root, multiplicity = W.indecomposable_root(v, oracle)
    if (root, multiplicity) != (v, 1):
        raise PreconditionViolated(f"{W.format_word(v, oracle)!r} is a proper power")
    if k < 1:
        raise PreconditionViolated("need k >= 1")
    if W.power(v, k, oracle) in c.words:
        raise PreconditionViolated("that power is already tracked in E")

    before = I.closed_orbits(I.word_graph(v, c.s, oracle))
    handles = _nonidentity_handles(list(c.words) + [v], oracle)
    bound = avoidance_bound(c, oracle, extra_words=[v], pairwise=True)
    support = c.s.support
    letters = v.letters * k
    m = len(letters)

    def letter_at(i: int) -> W.Letter:
        # the walk applies the word's letters rightmost-first around the cycle
        return letters[m - 1 - i]

    def pick_fresh(chosen: set[int], next_letter: W.Letter | None) -> int:
        def ok(b: int) -> bool:
            if not _fresh_point_ok(b, bound, chosen, support, handles, oracle):
                return False
            if next_letter is None or next_letter.kind is not W.LetterKind.GROUP:
                return True
            forced = oracle.eval(next_letter.handle, b)
            return _fresh_point_ok(
                forced, bound, chosen | {b}, support, handles, oracle,
                back=frozenset((b,)),
            )

        return _least_fresh(bound + 1, ok)

    if m == 1:
        a = pick_fresh(set(), None)
        closed = replace(c, s=c.s.with_pair(a, a))
    else:
        points: list[int | None] = [None] * m
        chosen: set[int] = set()
        pairs: list[tuple[int, int]] = []

        def assign(i: int, value: int):
            points[i] = value
            chosen.add(value)

        assign(1, pick_fresh(chosen, letter_at(1)))
        for i in range(1, m):
            target = (i + 1) % m
            letter = letter_at(i)
            if letter.kind is W.LetterKind.GROUP:
                forced = oracle.eval(letter.handle, points[i])
                if not _fresh_point_ok(
                    forced, bound, chosen, support, handles, oracle,
                    back=frozenset((points[i],)),
                ):
                    raise InternalCheckFailed(f"forced point {forced} violates clauses")
                assign(target, forced)
                continue
            if points[target] is None:
                assign(target, pick_fresh(chosen, letter_at(target) if target else None))
            if letter.kind is W.LetterKind.X:
                pairs.append((points[i], points[target]))
            else:
                pairs.append((points[target], points[i]))
        # the rightmost letter of an admissible word is always x
        pairs.append((points[0], points[1]))
        closed = replace(c, s=c.s.with_pairs(pairs))

    after = I.closed_orbits(I.word_graph(v, closed.s, oracle))
    old_sets = {o.elements for o in before}
    new_orbits = [o for o in after if o.elements not in old_sets]
    if len(after) != len(before) + 1 or len(new_orbits) != 1 or new_orbits[0].size != k:
        raise InternalCheckFailed(
            f"expected one new size-{k} orbit of the evaluation,"
            f" got {sorted(o.size for o in after)} from {sorted(o.size for o in before)}"
        )
    cert = _admissible(c, closed, oracle)
    if not cert:
        raise InternalCheckFailed(f"strong closure refused: {cert.reason}")
    return cert


def add_word(c: Condition, w: W.Word, oracle) -> ExtensionCertificate:
    """Extend c so that w lies in E; a word already there leaves c unchanged.

    Plain and coding conditions adjoin the word alone.  Dagger conditions
    follow the density proof: powers of the indecomposable root are added
    in increasing order, and whenever the next exponent is a prime p_n whose
    orbit-count parity disagrees with the target bit, one strong closure
    flips it before the word and its closure enter E.
    """
    if w in c.words:
        return leq(c, c, oracle)
    if not W.is_admissible(w, oracle):
        raise PreconditionViolated(f"not an admissible word: {W.format_word(w, oracle)!r}")
    if c.flavor is not Flavor.DAGGER:
        cert = _admissible(c, replace(c, words=c.words | {w}), oracle)
        if not cert:
            raise PreconditionViolated(f"cannot adjoin the word: {cert.reason}")
        return cert
    v, k = W.indecomposable_root(w, oracle)
    cert = None
    if k > 1 and W.power(v, k - 1, oracle) not in c.words:
        cert = add_word(c, W.power(v, k - 1, oracle), oracle)
    current = c if cert is None else cert.upper
    n = I.prime_index(k)
    if n is not None:
        if len(current.target) <= n:
            raise PrefixTooShort(
                f"target has {len(current.target)} bits, power {k} obligates bit {n}"
            )
        graph = I.word_graph(v, current.s, oracle)
        if I.o_dagger(graph, n)[n] != current.target[n]:
            cert = chain(cert, strong_close_orbit(current, v, k, oracle))
            current = cert.upper
            graph = I.word_graph(v, current.s, oracle)
            if I.o_dagger(graph, n)[n] != current.target[n]:
                raise InternalCheckFailed(f"strong closure failed to flip bit {n}")
    closed = current.words.union(W.closure(v, k, oracle))
    step = _admissible(current, replace(current, words=closed), oracle)
    if not step:
        raise InternalCheckFailed(f"word addition refused: {step.reason}")
    return chain(cert, step)


def close_all_orbits(c: Condition, oracle) -> ExtensionCertificate:
    """Close every open orbit, respecting the flavor's coding discipline.

    Coding conditions consume target bits through code_next_orbit until no
    open orbit is left (fresh filler orbits keep minima initial); the other
    flavors close open orbits in min-order at the least admissible size,
    skipping sizes that would flip an obligated prime parity.
    """
    cert = None
    if c.flavor is Flavor.CODING:
        while I.open_orbits(c.s):
            cert = chain(cert, code_next_orbit(c, oracle))
            c = cert.upper
        return cert or leq(c, c, oracle)
    avoid: set[int] = set()
    if c.flavor is Flavor.DAGGER:
        for w in c.words:
            avoid.update(I.primes_up_to(W.indecomposable_root(w, oracle)[1]))
    while True:
        open_now = I.open_orbits(c.s)
        if not open_now:
            return cert or leq(c, c, oracle)
        n = open_now[0].minimum
        k = closing_threshold(c, n) + 1
        while k in avoid:
            k += 1
        cert = chain(cert, close_orbit(c, n, k, oracle))
        c = cert.upper


def condition_to_data(c: Condition, oracle) -> dict:
    data: dict = {
        "flavor": c.flavor.value,
        "injection": [list(p) for p in c.s.pairs()],
        "words": [W.format_word(w, oracle) for w in c.sorted_words(oracle)],
    }
    if c.target is not None:
        data["r_prefix"] = list(c.target)
    return data


def map_and_words_from_data(
    pairs, texts, oracle, parsed: dict | None = None
) -> tuple[I.PartialInjection, frozenset[W.Word]]:
    """The injection and words as the writer lists them; ValueError for data not in its form.

    Pairs strictly increase by domain point, word texts strictly increase
    and are each their parse's text, parsed once per `parsed` cache.
    """
    parsed = {} if parsed is None else parsed
    s = I.injection_from_pairs(pairs)
    if len(s) != len(pairs) or sorted(pairs) != pairs:
        raise ValueError("injection pairs do not strictly increase by domain point")
    for text in texts:
        if text not in parsed:
            word = W.parse_word(text, oracle)
            if W.format_word(word, oracle) != text:
                raise ValueError(f"word {text!r} is not written as its parse")
            parsed[text] = word
    if sorted(set(texts)) != texts:
        raise ValueError("word texts do not strictly increase")
    return s, frozenset(map(parsed.__getitem__, texts))


def condition_from_data(data: dict, oracle, parsed: dict | None = None) -> Condition:
    """The condition condition_to_data wrote; ValueError for data not in its form."""
    s, words = map_and_words_from_data(data["injection"], data["words"], oracle, parsed)
    target = data.get("r_prefix")
    return Condition(
        s,
        words,
        Flavor(data["flavor"]),
        None if target is None else tuple(I.wire_int(b, bit=True) for b in target),
    )


def _snapshots_to_data(snapshots, oracle) -> list[dict]:
    return [
        {"word": W.format_word(w, oracle), "fixed_points": sorted(points)}
        for w, points in sorted(snapshots, key=lambda item: W.format_word(item[0], oracle))
    ]


def certificate_to_data(cert: ExtensionCertificate, oracle) -> dict:
    """The certificate on the wire, without its lower condition (the reader's)."""
    return {
        "upper": condition_to_data(cert.upper, oracle),
        "fixpoint_snapshots": _snapshots_to_data(cert.snapshots, oracle),
    }


def verify_certificate_data(
    data: dict, lower: Condition, oracle, parsed: dict | None = None
) -> ExtensionCertificate | CheckResult:
    """Parse the upper condition once and recheck it against lower: order and snapshots.

    The stored snapshots must be exactly those certificate_to_data writes for
    the recomputed certificate.  Once upper is proven to extend lower, its
    injection takes over lower's orbit index, if lower has one.  Returns that
    certificate, or a falsy CheckResult naming the failed clause.
    """
    upper = condition_from_data(data["upper"], oracle, parsed)
    result = leq(upper, lower, oracle)
    if not result:
        return CheckResult(False, f"order recheck failed: {result.reason}")
    upper.s.inherit_orbits(lower.s)
    if _snapshots_to_data(result.snapshots, oracle) != data["fixpoint_snapshots"]:
        return CheckResult(False, "fixed-point snapshots do not match")
    return result
