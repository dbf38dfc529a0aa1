"""Finite partial injections on the naturals and their orbit combinatorics.

An orbit is the smallest set containing a point and closed under the map and
its inverse.  Orbits contained in dom ∩ ran are cycles ("closed"); the rest
are paths with a unique entry point (not in the range) and exit point (not in
the domain).  Two bit-coding maps live here: one reads parities of closed
orbit sizes in min-order, the other counts closed orbits of prime sizes.
The orbit-order rule lives in closed_and_gap, read by o_partial and
forcing.code_next_orbit.  It reads the closed cycles
from the injection's orbit index instead of decomposing the map: adding a
pair (n, m), with n outside the domain and m outside the range, either joins
the path ending at n to the path starting at m, or closes one path into a
cycle.  So the index keeps each open path's entry ↔ exit and each cycle,
walked from its minimum, in min-order, and one link routine updates it per
added pair; orbit_decomposition merges the cycles with the walked paths.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from . import words as W
from .errors import NotNiceInjection, WindowTooSmall


class PartialInjection:
    """Immutable finite injective partial map ω → ω with inverse lookup.

    Orbit queries read a private index, built on the first one by linking
    the pairs one at a time and then kept as pairs are added: with_pair and
    with_pairs copy a built index and link only the new pairs, and leave the
    child unindexed otherwise, so a map nobody asks about orbits never
    builds one.  The index holds every orbit either as an open path, by its
    entry ↔ exit, or as a closed cycle, whole and in min-order; a new pair
    (n, m) runs from an exit (or fresh point) n to an entry (or fresh point)
    m, so it joins two paths or closes one.

    Order checks read a second private memo, `_fixes`: per word and
    oracle, the word's fixed points and where its other evaluations stopped
    (see _Fixes).  Once this map is certified to extend another, `_source`
    holds that map, the new pairs, and where the points they reach stopped
    under this map, so each memo is carried forward on first use.
    """

    __slots__ = ("_fwd", "_bwd", "_index", "_fixes", "_source")

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        self._fwd: dict[int, int] = {}
        self._bwd: dict[int, int] = {}
        self._index: _OrbitIndex | None = None
        self._fixes: dict | None = None
        self._source: tuple | None = None
        self._add(pairs)

    def _add(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Insert pairs into a map still being built; an identical repeat is skipped."""
        fwd, bwd, index = self._fwd, self._bwd, self._index
        for n, m in pairs:
            if n < 0 or m < 0:
                raise ValueError(f"negative point in pair ({n}, {m})")
            if n in fwd:
                if fwd[n] == m:
                    continue
                raise ValueError(f"{n} mapped twice: {fwd[n]} and {m}")
            if m in bwd:
                raise ValueError(f"{m} hit twice: by {bwd[m]} and {n}")
            fwd[n] = m
            bwd[m] = n
            if index is not None:
                index.link(fwd, n, m)

    def _orbits(self) -> "_OrbitIndex":
        if self._index is None:
            # linking against the whole map is exact: a pair that closes a
            # cycle walks only pairs of the path it closes, all linked before
            index = _OrbitIndex()
            for n, m in self._fwd.items():
                index.link(self._fwd, n, m)
            self._index = index
        return self._index

    def apply(self, n: int) -> int | None:
        return self._fwd.get(n)

    def apply_inverse(self, m: int) -> int | None:
        return self._bwd.get(m)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self._fwd)

    @property
    def range(self) -> frozenset[int]:
        return frozenset(self._bwd)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._fwd) | frozenset(self._bwd)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._fwd.items()))

    def as_dict(self) -> dict[int, int]:
        return dict(self._fwd)

    def with_pair(self, n: int, m: int) -> "PartialInjection":
        if n in self._fwd:
            raise ValueError(f"{n} already in domain")
        if m in self._bwd:
            raise ValueError(f"{m} already in range")
        return self.with_pairs(((n, m),))

    def with_pairs(self, new: Iterable[tuple[int, int]]) -> "PartialInjection":
        child = PartialInjection.__new__(PartialInjection)
        child._fwd = dict(self._fwd)
        child._bwd = dict(self._bwd)
        child._index = None if self._index is None else self._index.copy()
        child._fixes = child._source = None
        child._add(new)
        return child

    def inherit_orbits(self, other: "PartialInjection") -> None:
        """Take over the index of other, which self extends, linking only self's new pairs.

        Does nothing when other has no index or self already has one.
        """
        if other._index is None or self._index is not None:
            return
        index = other._index.copy()
        for n, m in self._fwd.items():
            if n not in other._fwd:
                index.link(self._fwd, n, m)
        self._index = index

    def extends(self, other: "PartialInjection") -> bool:
        return self._fwd.items() >= other._fwd.items()

    def __len__(self) -> int:
        return len(self._fwd)

    def __bool__(self) -> bool:
        return bool(self._fwd)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialInjection):
            return NotImplemented
        return self._fwd == other._fwd

    def __hash__(self) -> int:
        return hash(frozenset(self._fwd.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}->{m}" for n, m in self.pairs())
        return f"PartialInjection({{{inner}}})"


@dataclass(frozen=True)
class Orbit:
    """One orbit: `ordered` walks entry → exit (open) or starts at min (closed)."""

    ordered: tuple[int, ...]
    closed: bool

    @property
    def elements(self) -> frozenset[int]:
        return frozenset(self.ordered)

    @property
    def size(self) -> int:
        return len(self.ordered)

    @property
    def minimum(self) -> int:
        return min(self.ordered)

    @property
    def entry(self) -> int | None:
        """n₋, the unique point outside the range; None when closed."""
        return None if self.closed else self.ordered[0]

    @property
    def exit(self) -> int | None:
        """n₊, the unique point outside the domain; None when closed."""
        return None if self.closed else self.ordered[-1]


def orbit_of(s: PartialInjection, n: int) -> Orbit:
    """The orbit through n. Points outside dom ∪ ran give open singletons."""
    back = n
    seen = {n}
    while True:
        prev = s.apply_inverse(back)
        if prev is None:
            # path: walk forward from the entry point
            chain = [back]
            cur = back
            while (nxt := s.apply(cur)) is not None:
                chain.append(nxt)
                cur = nxt
            return Orbit(tuple(chain), closed=False)
        if prev in seen:
            break
        seen.add(prev)
        back = prev
    # cycle: start the walk at the minimum for a canonical order
    start = min(seen)
    chain = [start]
    cur = s.apply(start)
    while cur != start:
        chain.append(cur)
        cur = s.apply(cur)
    return Orbit(tuple(chain), closed=True)


class _OrbitIndex:
    """The orbits of a partial injection: open paths by their ends, cycles in min-order.

    `exit_of` maps each path's entry to its exit and `entry_of` the exit back
    to the entry; `cycles` holds the closed orbits as Orbits sorted by
    minimum, each walked from its minimum.  A point outside every path end
    and cycle is interior to a path or outside the support.
    """

    __slots__ = ("exit_of", "entry_of", "cycles")

    def __init__(self):
        self.exit_of: dict[int, int] = {}
        self.entry_of: dict[int, int] = {}
        self.cycles: tuple[Orbit, ...] = ()

    def copy(self) -> "_OrbitIndex":
        twin = _OrbitIndex()
        twin.exit_of = dict(self.exit_of)
        twin.entry_of = dict(self.entry_of)
        twin.cycles = self.cycles
        return twin

    def link(self, fwd: Mapping[int, int], n: int, m: int) -> None:
        """Record the pair (n, m), just added to fwd, where n had no image and m no preimage.

        The pair runs from the path ending at n (or the fresh point n) to
        the path starting at m (or the fresh point m): it joins them, or, when
        they are one path, closes it into a cycle, walked once in fwd.
        """
        entry = self.entry_of.pop(n, n)
        exit_ = self.exit_of.pop(m, m)
        if entry != m:
            self.exit_of[entry] = exit_
            self.entry_of[exit_] = entry
            return
        walk = [m]
        cur = fwd[m]
        while cur != m:
            walk.append(cur)
            cur = fwd[cur]
        low = walk.index(min(walk))
        cycle = Orbit(tuple(walk[low:] + walk[:low]), closed=True)
        at = bisect.bisect(self.cycles, cycle.ordered[0], key=lambda o: o.ordered[0])
        self.cycles = self.cycles[:at] + (cycle,) + self.cycles[at:]

    def paths(self, fwd: Mapping[int, int]) -> tuple[Orbit, ...]:
        """The open orbits in min-order, each walked in fwd from its entry."""
        out = []
        for entry in self.exit_of:
            walk = [entry]
            while (nxt := fwd.get(walk[-1])) is not None:
                walk.append(nxt)
            out.append(Orbit(tuple(walk), closed=False))
        return tuple(sorted(out, key=lambda o: o.minimum))


def orbit_decomposition(s: PartialInjection) -> tuple[Orbit, ...]:
    """All orbits meeting dom ∪ ran, sorted by minimum element: cycles and paths merged."""
    return tuple(sorted(closed_orbits(s) + open_orbits(s), key=lambda o: o.minimum))


def closed_orbits(s: PartialInjection) -> tuple[Orbit, ...]:
    return s._orbits().cycles


def open_orbits(s: PartialInjection) -> tuple[Orbit, ...]:
    return s._orbits().paths(s._fwd)


def mex(values: Iterable[int]) -> int:
    """Least natural number not in `values`."""
    taken = set(values)
    n = 0
    while n in taken:
        n += 1
    return n


def closed_and_gap(s: PartialInjection) -> tuple[tuple[Orbit, ...], int]:
    """The closed orbits in min-order, and the least natural none of them covers."""
    closed = closed_orbits(s)
    return closed, mex(itertools.chain.from_iterable(o.ordered for o in closed))


def o_partial(s: PartialInjection) -> tuple[int, ...]:
    """Size parities of closed orbits in min-order; the orbit-order code.

    Defined only for nice s, where every closed orbit's minimum lies below the
    first gap in their union, so new closed orbits keep covering an initial
    segment's worth of minima; raises NotNiceInjection otherwise.
    """
    closed, gap = closed_and_gap(s)
    if any(o.minimum >= gap for o in closed):
        raise NotNiceInjection(f"closed-orbit minima not initial in {s!r}")
    return tuple(o.size % 2 for o in closed)


_PRIMES: list[int] = [2, 3, 5, 7]


def nth_prime(n: int) -> int:
    """p_n with p_0 = 2."""
    while len(_PRIMES) <= n:
        candidate = _PRIMES[-1] + 2
        while any(candidate % p == 0 for p in _PRIMES if p * p <= candidate):
            candidate += 2
        _PRIMES.append(candidate)
    return _PRIMES[n]


def primes_up_to(k: int) -> list[int]:
    """p_0, p_1, ... up to k; a power v^k obligates bit n of v's code iff p_n <= k."""
    primes: list[int] = []
    while nth_prime(len(primes)) <= k:
        primes.append(nth_prime(len(primes)))
    return primes


def prime_index(k: int) -> int | None:
    """n with p_n = k, or None if k is not prime."""
    primes = primes_up_to(k)
    return len(primes) - 1 if primes and primes[-1] == k else None


def o_dagger(s: PartialInjection, upto: int) -> tuple[int, ...]:
    """Bit n is the parity of the count of closed orbits of size p_n, n ≤ upto."""
    counts: dict[int, int] = {}
    for o in closed_orbits(s):
        counts[o.size] = counts.get(o.size, 0) + 1
    return tuple(counts.get(nth_prime(n), 0) % 2 for n in range(upto + 1))


def _start_points(w: W.Word, s: PartialInjection):
    """Where w[s] can be defined: dom(s) or ran(s) by w's rightmost letter, else None.

    Evaluation applies the rightmost letter first, so when it is x (x^-1)
    every point w[s] maps, fixed points included, lies in dom(s) (ran(s)).
    None when the rightmost letter is a group letter or w is the identity.
    """
    if w.letters:
        kind = w.letters[-1].kind
        if kind is W.LetterKind.X:
            return s.domain
        if kind is W.LetterKind.X_INV:
            return s.range
    return None


def fixed_points(w: W.Word, s: PartialInjection, oracle, bound: int) -> frozenset[int]:
    """Points n with w[s](n) = n, for n in dom(s) ∪ ran(s) ∪ [0, bound).

    A reduced word whose rightmost letter is x (x^-1) is scanned over dom(s)
    (ran(s)) alone, where all its fixed points lie; every admissible word
    ends in x, so for those the cost follows |dom(s)| and not `bound`.  Any
    other word scans dom(s) ∪ ran(s) ∪ [0, bound), which is exact when its
    leftmost letter is x or x^-1.  A pure group word reduces to one
    non-identity letter and defers to the oracle; the identity word fixes
    everything, so the scanned set itself is returned.
    """
    reduced = W.reduce(w.letters, oracle)
    scan = _start_points(reduced, s)
    if scan is None:
        scan = set(s.support) | set(range(bound))
        if reduced.is_identity:
            return frozenset(scan)
        if reduced.x_count() == 0:
            return oracle.fixed_points(reduced.letters[0].handle)
    return frozenset(n for n in scan if W.evaluate(reduced, s, oracle, n) == n)


class _Fixes:
    """A reduced word ending in x, evaluated at every point of dom(s).

    `fixed` holds the points it fixes; `stuck` files each point where the
    evaluation stopped, as words.evaluate files it: under ("x", a) when it
    waits for a pair (a, ·), under ("x^-1", b) when it waits for (·, b).
    If t ⊇ s and w[s](p) is defined, w[t](p) = w[s](p), so only the points
    filed under t's new pairs, and t's new domain points, can become fixed.
    `text` is the word's sort key.
    """

    __slots__ = ("text", "fixed", "stuck")

    def __init__(self, text: str):
        self.text = text
        self.fixed: frozenset[int] = frozenset()
        self.stuck: dict[tuple[str, int], list[int]] = {}


def _fixed_among(w: W.Word, s: PartialInjection, oracle, points, stuck: dict, misses: dict):
    """The points w[s] fixes; the others that stop are filed in `stuck`, window misses in `misses`."""
    fixed = []
    for n in points:
        try:
            if W.evaluate(w, s, oracle, n, stuck) == n:
                fixed.append(n)
        except WindowTooSmall as miss:
            misses[n] = miss
    return fixed


def _carried(s: PartialInjection, key) -> _Fixes | None:
    """The memo at key, moved from s's source and refiled at the points its new pairs reach.

    A memo moves along a run instead of being copied, and s lets go of its
    source once every memo it can carry has moved.
    """
    if s._source is None:
        return None
    source, new, found = s._source
    fixes = None if source._fixes is None else source._fixes.get(key)
    if fixes not in found:
        return None
    del source._fixes[key]
    for n, m in new:
        fixes.stuck.pop(("x", n), None)
        fixes.stuck.pop(("x^-1", m), None)
    for where, points in found.pop(fixes).items():
        fixes.stuck.setdefault(where, []).extend(points)
    if not found:
        s._source = None
    return fixes


def _memo(w: W.Word, s: PartialInjection, oracle, misses: dict) -> _Fixes | None:
    """s's memo for w: kept, carried forward, or built in one pass over dom(s).

    None unless w is reduced and ends in x.  A pass that misses the oracle's
    window records the misses by point and keeps nothing.
    """
    key = (w, oracle)
    if s._fixes is None:
        s._fixes = {}
    fixes = s._fixes.get(key)
    if fixes is not None:
        return fixes
    fixes = _carried(s, key)
    if fixes is None:
        if not w.letters or w.letters[-1] != W.X or W.reduce(w.letters, oracle) != w:
            return None
        fixes = _Fixes(W.sort_key(w, oracle))
        fixes.fixed = frozenset(_fixed_among(w, s, oracle, s._fwd, fixes.stuck, misses))
        if misses:
            return fixes
    s._fixes[key] = fixes
    return fixes


def gained_fixed_points(words, upper: PartialInjection, lower: PartialInjection, oracle):
    """(text, word, fixed points under lower, sorted points gained under upper), per word.

    Words come in sort_key order, up to the first that gains a point.  A
    reduced word ending in x is evaluated under upper only at the points
    upper's new pairs can reach (see _Fixes); any other word is scanned by
    fixed_points.  A window miss is raised as a scan of dom(upper) would
    meet it first.  When no word gains, upper notes where those points
    stopped, so that lower's memos move to it on first use.
    """
    fwd = upper._fwd
    new = [(n, fwd[n]) for n in fwd.keys() - lower._fwd.keys()]
    checks = []
    for w in words:
        misses: dict = {}
        fixes = _memo(w, lower, oracle, misses)
        checks.append((W.sort_key(w, oracle) if fixes is None else fixes.text, w, fixes, misses))
    checks.sort(key=lambda check: check[0])
    out = []
    found: dict = {}
    for text, w, fixes, misses in checks:
        if fixes is None:
            fixed = fixed_points(w, upper, oracle, max(upper.support, default=-1) + 1)
            reduced = W.reduce(w.letters, oracle)
            gained = sorted(n for n in fixed if W.evaluate(reduced, lower, oracle, n) != n)
        else:
            reached = [n for n, _ in new]
            for n, m in new:
                reached += fixes.stuck.get(("x", n), ())
                reached += fixes.stuck.get(("x^-1", m), ())
            stuck = found[fixes] = {}
            gained = sorted(_fixed_among(w, upper, oracle, reached, stuck, misses))
            for n in upper.domain if misses else ():
                if n in misses:
                    raise misses[n]
            fixed = fixes.fixed
        out.append((text, w, fixed, gained))
        if gained:
            return out
    if upper is not lower and found:
        upper._source = (lower, new, found)
    return out


def word_graph(w: W.Word, s: PartialInjection, oracle) -> PartialInjection:
    """The graph of w[s] as a finite partial injection.

    Scans dom(s) or ran(s) by w's rightmost letter, as fixed_points does, and
    dom(s) ∪ ran(s) otherwise; complete whenever w's rightmost letter is x
    or x^-1, which holds for every admissible word and their inverses.
    """
    scan = _start_points(w, s)
    pairs = []
    for n in sorted(s.support if scan is None else scan):
        value = W.evaluate(w, s, oracle, n)
        if value is not None:
            pairs.append((n, value))
    return PartialInjection(pairs)


def injection_from_pairs(pairs: Iterable[Iterable[int]]) -> PartialInjection:
    """Build from serialized [[n, m], …] data."""
    return PartialInjection((int(n), int(m)) for n, m in pairs)
