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

Every operation here returns the condition it reaches, and checks each
step of it once: one leq + validate of the step's result against its input,
in the order verify checks a step.  An operation made of several steps
checks each step alone, and one that changes nothing returns its input.
leq and validate return None or raise Refused naming the clause, and an
operation lets a refusal propagate.  A step's certificate is its delta on
the wire, what its upper condition adds to its lower one
(certificate_to_data), which re-verifies against a lower condition the
reader already holds: no fixed-point set is written, since the recheck
recomputes each one it needs.  All tie-breaking picks the least value, so
runs are reproducible bit for bit.

A least-value scan (_least_admissible) tries candidates until one passes,
so a refused candidate costs only its check: its map is a new version of
the condition's (injections.PartialInjection), made in O(its new pairs) and
undone as cheaply when the scan moves on; its Condition is built directly;
and leq's refusal formats the words that gain only if its message is read.

The orbit-order rule lives in injections.closed_and_gap, and the dagger
closure rule in words.closure, which add_word builds E from and validate
checks once per root and word set (_word_facts).  The dagger code of a root
v is read off v[s]'s cycle counts, injections.word_cycle_counts, which
validate, add_word and strong_close_orbit share: a memo that leq carries
to each certified candidate, so a step costs O(its new pairs).  The
fresh-point clause is _fresh_point_ok, checked against one _Used view of
the used points per closure and searched by _least_fresh for both
strong_close_orbit's cycle and the chains of _close_path, which
close_orbit and close_all_orbits share; an isolated point is the one-point
path.  Each closure's map is one with_pairs of its input's, so
leq, verify and the trace writer read its delta off one link; only a step
that chains several closures compares dicts.  A chain scan starts at the gap
and a seal's next one resumes past the last point picked, so a seal
tests each point once: a point refused stays refused, since the used
points only grow and the handles' images stay put.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from . import injections as I
from . import trees as T
from . import words as W
from .errors import (
    InternalCheckFailed,
    KTooSmall,
    NotNiceInjection,
    PreconditionViolated,
    PrefixTooShort,
    Refused,
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


def plain_condition(s=None, words: Iterable[W.Word] = ()) -> Condition:
    return Condition(s or I.PartialInjection(), frozenset(words), Flavor.PLAIN)


def coding_condition(r: Sequence[int], s=None, words: Iterable[W.Word] = ()) -> Condition:
    return Condition(s or I.PartialInjection(), frozenset(words), Flavor.CODING, tuple(r))


def dagger_condition(r: Sequence[int], s=None, words: Iterable[W.Word] = ()) -> Condition:
    return Condition(s or I.PartialInjection(), frozenset(words), Flavor.DAGGER, tuple(r))


class _WordFacts:
    """What validate and leq read of E alone: admissibility, and per root its powers and closure.

    Derived from the facts of a subset of E, `base`, when one is kept: only
    the words E adds are examined, and roots() walks the closure only of
    roots that are new or whose top power grew.  _word_facts holds the last
    two per oracle, under a weak key: a reference to the oracle would keep it alive.
    """

    __slots__ = ("words", "inadmissible", "_exponents", "_texts", "_powers", "_covered", "_roots")

    def __init__(self, words: frozenset[W.Word], oracle, base: "_WordFacts | None" = None):
        self.words = words
        added = words - base.words if base else words
        # the least inadmissible word in text order, formatted only on a refusal
        texts = [W.format_word(w, oracle) for w in added if not W.is_admissible(w, oracle)]
        texts += [base.inadmissible] if base and base.inadmissible is not None else []
        self.inadmissible = min(texts, default=None)
        self._exponents = dict(base._exponents) if base else {}  # E by root v: the j with v^j in E
        for v, j in map(W.period, added):
            self._exponents[v] = tuple(sorted(self._exponents.get(v, ()) + (j,)))
        self._texts = dict(base._texts) if base else {}  # per root, formatted by powers()
        # rotation class members of the roots whose closure passed, by the top
        # power checked: they hold in every superset of E
        self._covered = dict(base._covered) if base else {}
        self._powers = self._roots = None  # derived on first use

    def powers(self, oracle) -> dict[W.Word, tuple[int, ...]]:
        """E by root v, in the roots' text order: the j with v^j in E, ascending."""
        if self._powers is None:
            for v in self._exponents.keys() - self._texts.keys():
                self._texts[v] = W.format_word(v, oracle)
            self._powers = dict(sorted(self._exponents.items(), key=lambda vj: self._texts[vj[0]]))
        return self._powers

    def roots(self, oracle) -> tuple[tuple[W.Word, str, int, int, str | None], ...]:
        """(v, text, k, last, refusal) per indecomposable root v of E in text order.

        v^k is v's top power in E, `last` the highest bit it obligates (-1
        for none), and `refusal` the clause its closure fails, if any; the
        roots stop at the first that fails, whose `last` is not computed.
        """
        if self._roots is not None:
            return self._roots
        roots = []
        for v, js in self.powers(oracle).items():
            k, refusal, members = js[-1], None, []
            for u in W.closure(v, k, oracle) if self._covered.get(v, 0) < k else ():
                if u not in self.words:
                    if u.letters[: len(v)] != v.letters:
                        refusal = f"rotation class not closed: missing {W.format_word(u, oracle)!r}"
                    else:
                        top = W.format_word(W.Word(v.letters * k), oracle)
                        refusal = f"missing power {len(u) // len(v)} of root of {top!r}"
                    break
                if len(u) == len(v):
                    members.append(u)
            last = -1 if refusal else len(I.primes_up_to(k)) - 1
            roots.append((v, self._texts[v], k, last, refusal))
            if refusal is not None:
                break
            self._covered.update(dict.fromkeys(members, k))
        self._roots = tuple(roots)
        return self._roots


_FACTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _word_facts(words: frozenset[W.Word], oracle) -> _WordFacts:
    """E's facts, derived once per word set: every candidate of a scan shares its E.

    Two per oracle, the old and new sets a step adjoining words checks by turns, held weakly;
    a new set's are derived from a kept subset's, normally the step's lower set.
    """
    kept = _FACTS.get(oracle, ())
    for facts in kept:
        if facts.words is words or facts.words == words:
            return facts
    base = next((facts for facts in kept if facts.words <= words), None)
    _FACTS[oracle] = (_WordFacts(words, oracle, base),) + kept[:1]
    return _FACTS[oracle][0]


def validate(c: Condition, oracle, lower: Condition | None = None) -> None:
    """Check every flavor invariant; Refused names the first violated clause.

    The clauses on E alone come from _word_facts, once per word set.  The
    dagger clause reads each root's closed cycles off the memo of
    injections.word_cycle_counts.  A candidate leq has certified over a
    validated condition holds its memos, carried, so its check costs
    O(new pairs), not O(|s|); a map nothing certified builds them in a pass.
    Given `lower`, a validated condition leq has shown c to extend, the
    coding clause compares only the code bits c adds: every point below
    lower's gap lies in one of lower's cycles, so a new cycle's minimum lies
    past every old one and c's code is lower's with the new bits appended.
    """
    facts = _word_facts(c.words, oracle)
    if facts.inadmissible is not None:
        raise Refused(f"word {facts.inadmissible!r} is not admissible")
    if c.flavor is Flavor.PLAIN:
        return
    if c.flavor is Flavor.CODING:
        # lower first: if its count is not kept, reading it finds c's new
        # pairs only pending in the index, where after c it would unlink them
        known = 0 if lower is None else I.closed_and_gap(lower.s)[0]
        try:
            bits = I.o_partial(c.s, known)
        except NotNiceInjection:
            raise Refused("injection is not nice") from None
        if known + len(bits) > len(c.target) or tuple(c.target[known:known + len(bits)]) != bits:
            code = list(I.o_partial(c.s))
            raise Refused(f"orbit code {code} is not a prefix of target {list(c.target)}")
        return
    # dagger: per indecomposable root v, the closure of its top power and v[s]'s code
    for v, text, k, last, refusal in facts.roots(oracle):
        if refusal is not None:
            raise Refused(refusal)
        if last < 0:
            continue
        bits = I.prime_parities(I.word_cycle_counts(v, c.s, oracle), last)
        for n, bit in enumerate(bits):
            if len(c.target) <= n:
                raise Refused(f"target too short for power-{k} obligation at bit {n}")
            if bit != c.target[n]:
                raise Refused(f"evaluation of {text!r} miscodes bit {n}")


def leq(upper: Condition, lower: Condition, oracle) -> None:
    """Check that upper extends lower: graphs and words grow, fixed points don't.

    Once upper.s extends lower.s, a point a word fixes under lower.s it
    fixes under upper.s too, so fixed points can be gained but never lost,
    and only where an evaluation under lower.s stopped, or at a new domain
    point, can one be gained.  injections.gained_fixed_points evaluates E's
    roots there alone; an empty E needs no look at the pairs at all.  lower
    must be valid, so that its words are reduced and end in x; a word of
    any other shape raises PreconditionViolated.  A refusal raises Refused;
    a gain raises the clause "leq-fixed-points" with the gains by (root,
    exponent) and the oracle as its fields, and its message, the least
    gaining word in text order with the points it gains, is formatted only
    when read (_gain_text).
    """
    target = upper.target
    if upper.flavor is not lower.flavor or (target is not lower.target and target != lower.target):
        raise Refused("flavor or target mismatch")
    if not upper.s.extends(lower.s):
        raise Refused("injection does not extend")
    if not lower.words <= upper.words:
        raise Refused("word set does not extend")
    if lower.words:
        facts = _word_facts(lower.words, oracle)
        for w in lower.words if facts.inadmissible is not None else ():
            I.require_shape(w, oracle)
        gains = I.gained_fixed_points(facts.powers(oracle), upper.s, lower.s, oracle)
        if gains:
            raise Refused("leq-fixed-points", _gain_text, gains=gains, oracle=oracle)


def _gain_text(gains: dict, oracle) -> str:
    """leq's gain clause: the least gaining word in text order, and the points it gains."""
    text, gained = min((W.format_word(W.Word(v.letters * j), oracle), sorted(p))
                       for (v, j), p in gains.items())
    return f"word {text!r} changed fixed points (gained {gained})"


def _admissible(c: Condition, candidate: Condition, oracle) -> Condition:
    """leq, then validate on the memos leq carried, as verify checks: candidate ≤ c, or Refused.

    c must be valid: validate compares only the code bits candidate adds to c's.
    """
    leq(candidate, c, oracle)
    validate(candidate, oracle, c)
    return candidate


def _least_admissible(
    c: Condition, pair_at, taken: Callable[[int], bool], oracle, what: str
) -> Condition:
    """c plus the pair pair_at(v) for the least v not `taken` whose pair extends c.

    Every cycle point of c.s is taken, so the scan starts at its index's gap.
    """
    for v in range(I.indexed_gap(c.s), _SCAN_CAP + 1):
        if taken(v):
            continue
        try:
            candidate = Condition(c.s.with_pair(*pair_at(v)), c.words, c.flavor, c.target)
            return _admissible(c, candidate, oracle)
        except Refused:
            pass
    raise InternalCheckFailed(f"no admissible {what} up to {_SCAN_CAP}")


def extend_domain(c: Condition, n: int, oracle) -> Condition:
    """Add n to the domain with the least value keeping the condition's order."""
    if c.s.apply(n) is not None:
        raise PreconditionViolated(f"{n} already in domain")
    return _least_admissible(
        c, lambda m: (n, m), lambda m: c.s.apply_inverse(m) is not None, oracle, f"image for {n}"
    )


def extend_range(c: Condition, m: int, oracle) -> Condition:
    """Add m to the range with the least preimage keeping the condition's order."""
    if c.s.apply_inverse(m) is not None:
        raise PreconditionViolated(f"{m} already in range")
    return _least_admissible(
        c, lambda n: (n, m), lambda n: c.s.apply(n) is not None, oracle, f"preimage for {m}"
    )


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
    support = c.s.support
    bound = max(support, default=-1) + 1
    handles = _nonidentity_handles(list(c.words) + list(extra_words), oracle)
    for h in handles:
        for p in support:
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
    """The pair (k, v) a tree step adds to c from node, and the tree's node ending with v at k.

    k is the least index at or past node's length outside the domain at
    which the tree has a value v ≥ `count` that is outside the range and is
    neither k nor g(k) for a group element g of the word set's restriction,
    and v is the least such value: tree.extend_avoiding answers at each k,
    and a generated tree answers at the first.  Words must all have a
    single x occurrence, so each is g·x, which under s plus the fresh pair
    gains a fixed point only at k, and only when g(v) = k: barring g(k)
    keeps that out, and barring k keeps out x's.  A window miss propagates
    from the evaluation that meets it.
    """
    for w in c.words:
        if w.x_count() != 1:
            raise PreconditionViolated(
                f"word {W.format_word(w, oracle)!r} has more than one x"
            )
    # the identity maps p to p, so barring k answers it without the oracle
    others = _nonidentity_handles(c.words, oracle)
    k = len(node)
    while True:
        while c.s.apply(k) is not None:
            k += 1
        images = {k, *(oracle.eval(h, k) for h in others)}
        v = tree.extend_avoiding(
            node, k, count, lambda u: u in images or c.s.apply_inverse(u) is not None
        )
        if v is not None:
            return tree.branch(node, k, v), ((k, v),)
        k += 1


def _single_occurrence_subwords(w: W.Word) -> set[W.Word]:
    """Contiguous admissible subwords with one x: {x} plus g·x per positive block."""
    out = {W.Word((W.X,))}
    for handle, exp in W.nice_blocks(w) or ():
        if handle is not None and exp > 0:
            out.add(W.Word((W.group(handle), W.X)))
    return out


def tree_extend(
    c: Condition, tree: T.InjectiveTree, node: T.Node, oracle
) -> tuple[Condition, T.Node]:
    """One new pair (k, v) read off a positive tree, below c, and the witness t.

    The witness t is a node of the tree that extends node and ends with v
    at its index k.  Splits E into single-x words (plus the single-x
    subwords of the rest) for the pick, many_extensions, whose value
    clears the avoidance bound N, and certifies the pair with one check;
    a refusal there means the avoidance clauses missed a fixed point.
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
    witness, ((k, v),) = many_extensions(scratch, tree, node, avoidance_bound(c, oracle), oracle)
    upper = Condition(c.s.with_pair(k, v), c.words, c.flavor, c.target)
    try:
        return _admissible(c, upper, oracle), witness
    except Refused as exc:
        raise InternalCheckFailed(
            f"avoidance clauses missed a fixed point at {(k, v)}"
        ) from exc


def closing_threshold(c: Condition, orbit: I.Orbit) -> int:
    """K = |orbit| + L: any size above it is reachable when closing the orbit of c.s."""
    return orbit.size + c.max_word_length


class _Used:
    """A closure's used points: its condition's support, read off the map, and the points it picked.

    The support is not copied, so a closure costs O(the points it picks).
    """

    __slots__ = ("_s", "_picked")

    def __init__(self, s: I.PartialInjection):
        self._s = s
        self._picked: set[int] = set()

    def __contains__(self, p: int) -> bool:
        s = self._s
        return p in self._picked or s.apply(p) is not None or s.apply_inverse(p) is not None

    def add(self, p: int) -> None:
        self._picked.add(p)


def _fresh_point_ok(
    b: int, bound: int, used: _Used, handles, oracle, back: tuple[int, ...] = ()
) -> bool:
    """The fresh-point clause: above the bound (-1 for chain points), no collisions.

    `used` is one per closure: the condition's support, grown by every
    point the closure picks.  `back` exempts the intended group
    edge: a point forced as g(a) is mapped back onto a by g^-1, and above
    the pairwise bound no other handle can reach a, so allowing exactly
    that image loses nothing.
    """
    if b <= bound or b in used:
        return False
    for h in handles:
        image = oracle.eval(h, b)
        if image == b or (image in used and image not in back):
            return False
    return True


def _least_fresh(start: int, ok) -> int:
    """The least b >= start with ok(b): the one fresh-point scan."""
    for b in range(start, _SCAN_CAP + 1):
        if ok(b):
            return b
    raise InternalCheckFailed("fresh-point scan exhausted")


def close_orbit(c: Condition, n: int, k: int, oracle) -> Condition:
    """Close the orbit through n into a cycle of size exactly k.

    Works for any k above the threshold K = |orbit(n)| + L: a fresh chain of
    k − |orbit| points is routed from the orbit's exit back to its entry
    (_close_path), an isolated n being the path (n,) that both enters and
    leaves at n, and the closed map is c.s with the chain, made in one
    with_pairs.  Chain points and their group images avoid everything
    already present, so no word of E gains a fixed point.  The orbit is
    walked once, and the chain scan starts at c.s's gap: every point below
    it lies in a cycle.
    """
    orbit = I.orbit_of(c.s, n)
    if orbit.closed:
        raise PreconditionViolated(f"{n} lies in a closed orbit")
    if k <= (threshold := closing_threshold(c, orbit)):
        raise KTooSmall(f"need k > {threshold}, got {k}")
    handles = _nonidentity_handles(c.words, oracle)
    return _close_path(c, orbit, k, I.closed_and_gap(c.s)[1], handles, oracle)[0]


def _close_path(
    c: Condition, orbit: I.Orbit, k: int, start: int, handles, oracle
) -> tuple[Condition, int]:
    """Close the open path `orbit` of c.s into a k-cycle.

    Routes k − |orbit| chain points from the path's exit back to its entry:
    the least points from `start` on that _fresh_point_ok takes against
    c.s's support, the exit (an isolated point lies outside the support)
    and the points picked, tested in increasing order.  The closed map is
    one with_pairs of c.s, so its check and its delta read off that one
    link.  Returns the closed condition and the point past the last one
    picked, where a next chain scan over it may resume.
    """
    chain_length = k - orbit.size
    if chain_length < 0:
        raise InternalCheckFailed("orbit outgrew the requested size")
    used = _Used(c.s)
    used.add(orbit.exit)
    route = [orbit.exit]
    for _ in range(chain_length):
        start = _least_fresh(start, lambda a: _fresh_point_ok(a, -1, used, handles, oracle))
        route.append(start)
        used.add(start)
        start += 1
    route.append(orbit.entry)
    closed = Condition(c.s.with_pairs(zip(route, route[1:])), c.words, c.flavor, c.target)

    final_orbit = I.orbit_of(closed.s, orbit.entry)
    if not final_orbit.closed or final_orbit.size != k:
        raise InternalCheckFailed(
            f"closed orbit came out {final_orbit.size}, wanted {k}"
        )
    return _admissible(c, closed, oracle), start


def code_next_orbit(c: Condition, oracle) -> Condition:
    """Close the orbit at the least uncovered natural, parity-matched to the target.

    That natural n is c.s's gap, so its orbit is an open path, walked once,
    and the chain scan starts at n; the size is the least past the
    threshold with the target bit's parity.
    """
    if c.flavor is not Flavor.CODING:
        raise PreconditionViolated("coding flavor required")
    index, n = I.closed_and_gap(c.s)
    if index >= len(c.target):
        raise PrefixTooShort(f"target has only {len(c.target)} bits")
    orbit = I.orbit_of(c.s, n)
    k = closing_threshold(c, orbit) + 1
    if k % 2 != c.target[index] % 2:
        k += 1
    return _close_path(c, orbit, k, n, _nonidentity_handles(c.words, oracle), oracle)[0]


def strong_close_orbit(c: Condition, v: W.Word, k: int, oracle) -> Condition:
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

    before = I.word_cycle_counts(v, c.s, oracle)
    handles = _nonidentity_handles(list(c.words) + [v], oracle)
    bound = avoidance_bound(c, oracle, extra_words=[v], pairwise=True)
    used = _Used(c.s)
    letters = v.letters * k
    m = len(letters)

    def letter_at(i: int) -> W.Letter:
        # the walk applies the word's letters rightmost-first around the cycle;
        # letter 0, the rightmost, is x, as word_cycle_counts above required
        return letters[m - 1 - i]

    def pick_fresh(next_letter: W.Letter) -> int:
        def ok(b: int) -> bool:
            if not _fresh_point_ok(b, bound, used, handles, oracle):
                return False
            if next_letter.kind is not W.LetterKind.GROUP:
                return True
            forced = oracle.eval(next_letter.handle, b)
            return _fresh_point_ok(forced, bound, used, handles, oracle, back=(b,))

        return _least_fresh(bound + 1, ok)

    points: list[int | None] = [None] * m
    pairs: list[tuple[int, int]] = []

    def assign(i: int, value: int):
        points[i] = value
        used.add(value)

    first = 1 % m  # the point letter 0 maps to: point 0 itself when v^k is x
    assign(first, pick_fresh(letter_at(first)))
    for i in range(1, m):
        target = (i + 1) % m
        letter = letter_at(i)
        if letter.kind is W.LetterKind.GROUP:
            forced = oracle.eval(letter.handle, points[i])
            if not _fresh_point_ok(forced, bound, used, handles, oracle, back=(points[i],)):
                raise InternalCheckFailed(f"forced point {forced} violates clauses")
            assign(target, forced)
            continue
        if points[target] is None:
            assign(target, pick_fresh(letter_at(target)))
        if letter.kind is W.LetterKind.X:
            pairs.append((points[i], points[target]))
        else:
            pairs.append((points[target], points[i]))
    pairs.append((points[0], points[first]))
    # checked first, the closure carries v's memo when v^(k-1) is in E
    closed = _admissible(c, Condition(c.s.with_pairs(pairs), c.words, c.flavor, c.target), oracle)

    # v[s] only grows, so its cycles before are cycles after: compare the counts
    after = I.word_cycle_counts(v, closed.s, oracle)
    grown = {size: n - before.get(size, 0) for size, n in after.items()}
    if {size: n for size, n in grown.items() if n} != {k: 1}:
        raise InternalCheckFailed(
            f"expected one new size-{k} orbit of the evaluation,"
            f" got {_sizes(after)} from {_sizes(before)}"
        )
    return closed


def _sizes(counts: dict[int, int]) -> list[int]:
    return sorted(size for size, n in counts.items() for _ in range(n))


def add_word(c: Condition, w: W.Word, oracle) -> Condition:
    """Extend c so that w lies in E; a word already there returns c itself.

    Plain and coding conditions adjoin the word alone.  Dagger conditions
    follow the density proof: powers of the indecomposable root are added
    in increasing order, and whenever the next exponent is a prime p_n whose
    orbit-count parity disagrees with the target bit, one strong closure
    flips it before the word and its closure enter E.
    """
    if w in c.words:
        return c
    if not W.is_admissible(w, oracle):
        raise PreconditionViolated(f"not an admissible word: {W.format_word(w, oracle)!r}")
    if c.flavor is not Flavor.DAGGER:
        return _admissible(c, Condition(c.s, c.words | {w}, c.flavor, c.target), oracle)
    v, k = W.indecomposable_root(w, oracle)
    current = c
    if k > 1 and W.power(v, k - 1, oracle) not in c.words:
        current = add_word(c, W.power(v, k - 1, oracle), oracle)
    n = I.prime_index(k)
    if n is not None:
        if len(current.target) <= n:
            raise PrefixTooShort(
                f"target has {len(current.target)} bits, power {k} obligates bit {n}"
            )
        # p_n = k: bit n counts v[s]'s k-cycles
        if I.word_cycle_counts(v, current.s, oracle).get(k, 0) % 2 != current.target[n]:
            current = strong_close_orbit(current, v, k, oracle)
            if I.word_cycle_counts(v, current.s, oracle).get(k, 0) % 2 != current.target[n]:
                raise InternalCheckFailed(f"strong closure failed to flip bit {n}")
    closed = current.words.union(W.closure(v, k, oracle))
    upper = Condition(current.s, closed, current.flavor, current.target)
    return _admissible(current, upper, oracle)


def close_all_orbits(c: Condition, oracle) -> Condition:
    """Close every open orbit, respecting the flavor's coding discipline.

    Coding conditions consume target bits through code_next_orbit until the
    orbit index holds no open path (fresh filler orbits keep minima
    initial); the other flavors close each open orbit, in min-order, at the
    least size close_orbit allows, its walked size plus L plus one.  That
    size exceeds L, which is at least the exponent k of every word v^k of E
    and so every prime p <= k it obligates: no seal flips an obligated
    prime parity.  They walk the open paths once: a closure's chain points
    are fresh, so it leaves the paths after it as they were.  One chain
    scan runs through the whole seal (_close_path), and each closure is
    checked on its own.  With no open orbit, c itself is returned.
    """
    if c.flavor is Flavor.CODING:
        while I.has_open_orbits(c.s):
            c = code_next_orbit(c, oracle)
        return c
    handles = _nonidentity_handles(c.words, oracle)
    start = I.closed_and_gap(c.s)[1]
    for orbit in I.open_orbits(c.s):
        c, start = _close_path(c, orbit, closing_threshold(c, orbit) + 1, start, handles, oracle)
    return c


def condition_to_data(c: Condition, oracle) -> dict:
    """The map and words of c; its flavor and target are the reader's to supply."""
    return {
        "injection": [list(p) for p in c.s.pairs()],
        "words": sorted(W.format_word(w, oracle) for w in c.words),
    }


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


def condition_from_data(
    data: dict, flavor: Flavor, target: tuple[int, ...] | None, oracle, parsed: dict | None = None
) -> Condition:
    """The condition of this flavor and target that condition_to_data wrote, else ValueError."""
    s, words = map_and_words_from_data(data["injection"], data["words"], oracle, parsed)
    return Condition(s, words, flavor, target)


def certificate_to_data(upper: Condition, lower: Condition, oracle) -> dict:
    """upper ≤ lower's certificate on the wire: what upper adds to lower, which the reader holds."""
    return {
        "pairs": [list(p) for p in sorted(upper.s.pairs_beyond(lower.s))],
        "words": sorted(W.format_word(w, oracle) for w in upper.words - lower.words),
    }


def verify_certificate_data(
    data: dict, lower: Condition, oracle, parsed: dict | None = None
) -> Condition:
    """Build upper from lower and the delta, then recheck that it extends lower.

    The delta is in the writer's form or raises ValueError (TypeError for
    pairs or words that are not a list): its pairs strictly increase by
    domain point, each with a domain point and an image lower lacks, and
    its word texts strictly increase, are each their parse's text and name
    no word of lower.  upper's injection is lower's
    with_pairs the delta, or lower's own for no pairs, so it keeps lower's
    orbit index and leq reads only the new pairs.  Returns the upper
    condition it rechecked; Refused names the failed clause.
    """
    pairs = [(I.wire_int(n), I.wire_int(m)) for n, m in I.wire_list(data["pairs"], "pairs")]
    if any(a[0] >= b[0] for a, b in zip(pairs, pairs[1:])):
        raise ValueError("delta pairs do not strictly increase by domain point")
    for n, m in pairs:
        if lower.s.apply(n) is not None or lower.s.apply_inverse(m) is not None:
            raise ValueError(f"delta pair {[n, m]} meets the lower condition's domain or range")
    _, words = map_and_words_from_data([], I.wire_list(data["words"], "words"), oracle, parsed)
    if not words.isdisjoint(lower.words):
        text = min(W.format_word(w, oracle) for w in words & lower.words)
        raise ValueError(f"delta word {text!r} is already in the lower condition")
    s = lower.s.with_pairs(pairs) if pairs else lower.s
    upper = Condition(s, lower.words | words, lower.flavor, lower.target)
    try:
        leq(upper, lower, oracle)
    except Refused as exc:
        raise Refused(f"order recheck failed: {exc}") from None
    return upper
