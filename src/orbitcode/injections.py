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
added pair, along with the orbit-order code, the gap and the cycle count
per size that the two codes read; orbit_decomposition merges the cycles
with the walked paths.  The versions of one map share one index, which
follows the dicts from version to version and links a version's new pairs
only when an orbit query first reads it.

The word layer (fixed_points, word_graph, word_cycle_counts and the order
check's gained_fixed_points) takes only reduced words ending in x, as
admissible words are, and raises PreconditionViolated for any other; x
applies first, so a scan of dom(s) sees every point such a word maps.  The
root x is the map itself: x[s] is s, so the checks read x's new values off
the pairs a map adds and its cycles off the map's own orbit index, and
build, carry and evaluate nothing for it.  For every other root they read
one memo per root and map, v[s]'s graph with its own orbit index (see
_WordGraph).  A map reads only its own memo: kept, carried from the map
the order check certified it over, or built in one pass.  The
order check runs first and carries the memo, so along a run each step
evaluates v only where its new pairs reach, and no power v^j of it.  A
window miss propagates from the evaluation that meets it, and a memo is
kept only once it is whole.  word_graph is the full scan, kept as the
reference the memos are tested against.
"""

from __future__ import annotations

import bisect
from itertools import takewhile
from collections.abc import Container, Iterable, Mapping
from dataclasses import dataclass

from . import words as W
from .errors import NotNiceInjection, PreconditionViolated


class PartialInjection:
    """Immutable finite injective partial map ω → ω with inverse lookup.

    The maps that with_pair and with_pairs make from one another are
    versions of one persistent map, kept by shallow binding (Baker,
    "Shallow binding makes functional arrays fast", 1991).  One version
    owns the forward and backward dicts, `_fwd` and `_bwd`; every other
    holds a link, `_toward`, to a neighbouring version, and the pairs it has
    beyond that neighbour or lacks against it, `_diff` (`_adds` tells
    which).  Links run toward the owner, so the owner, normally the newest
    version, keeps no other version alive.  Reading a version that does not
    own the dicts re-roots it first: the diffs on the links between it and
    the owner are undone or redone in the dicts, in order, and each link is
    turned around.  So a new version costs O(its new pairs), not O(|s|), and
    a least-value scan moving to its next candidate undoes only the one
    before it.  A map made by with_pairs and the map it was made from are
    neighbours, so extends and pairs_beyond between the two read the pairs
    on their link (see _beyond), and between any other two maps compare
    their dicts.  Each version keeps its own size.  The dicts iterate in
    the order the owner's pairs were inserted, as a copy would.

    Orbit queries read an orbit index, `_index`, that the versions share as
    they share the dicts: the owner holds both, and re-rooting moves the
    index too, unlinking the pairs it undoes and keeping those it redoes,
    like those with_pairs inserts, pending until an orbit query reads the
    version.  So a candidate no query reads costs the index nothing.  Each
    version keeps the cycle count and gap a query of it read, `_closed`.  The
    first query builds the index, linking the pairs one at a time, so a map
    nobody asks about orbits never builds one.  The index holds every orbit
    either as an open path, by its entry ↔ exit, or as a closed cycle, whole
    and in min-order; a new pair (n, m) runs from an exit (or fresh point) n
    to an entry (or fresh point) m, so it joins two paths or closes one.

    Checks on words read a second private memo, `_fixes`: per root and
    oracle, the root's graph on this map and where its other evaluations
    stopped (see _WordGraph), for every root but x, whose graph is the map
    itself.  Once this map is certified to extend another,
    `_source` holds that map's memos, the new pairs, and what the points
    they reach evaluate to under this map, so each memo is carried forward
    on first use.  It holds the memos and not the map, since the map may
    link to this one: a cycle would outlive a dropped candidate until the
    garbage collector ran.
    """

    __slots__ = ("_fwd", "_bwd", "_size", "_toward", "_diff", "_adds", "_index", "_closed",
                 "_fixes", "_source")

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        self._fwd: dict[int, int] | None = {}
        self._bwd: dict[int, int] | None = {}
        self._size = 0
        self._toward: PartialInjection | None = None
        self._diff: tuple[tuple[int, int], ...] = ()
        self._adds = False
        self._index: _OrbitIndex | None = None
        self._closed: tuple[int, int] | None = None
        self._fixes: dict | None = None
        self._source: tuple | None = None
        self._add(pairs)

    def _add(self, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        """Insert pairs into a map still being built, no version made from it yet.

        An identical repeat is skipped.  Returns the pairs inserted, in order,
        which an orbit index of the map holds as pending.  A pair that clashes
        raises ValueError and takes the pairs before it out of the dicts
        again, so the map is as it was.
        """
        fwd, bwd = self._live(), self._bwd
        inserted = []
        try:
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
                inserted.append((n, m))
        except BaseException:
            for n, m in inserted:
                del fwd[n]
                del bwd[m]
            raise
        if self._index is not None:
            self._index.pending += inserted
        self._size += len(inserted)
        self._closed = None
        return inserted

    def _live(self) -> dict[int, int]:
        """The forward dict, this version re-rooted to own it first if it does not."""
        fwd = self._fwd
        return self._reroot() if fwd is None else fwd

    def _reroot(self) -> dict[int, int]:
        """Move the dicts and the orbit index to this version along its links, turning each around.

        Pairs redone join the index's pending ones.  Pairs undone are the
        newest pending ones, if any pairs are pending, and otherwise linked,
        so they are unlinked while the dicts hold exactly the index's pairs.
        """
        path = []
        owner = self
        while owner._fwd is None:
            path.append(owner)
            owner = owner._toward
        fwd, bwd, index = owner._fwd, owner._bwd, owner._index
        for version in reversed(path):
            # version is owner plus its diff, or owner less it
            diff = version._diff
            if version._adds:
                for n, m in diff:
                    fwd[n] = m
                    bwd[m] = n
                if index is not None:
                    index.pending += diff
            else:
                linked = index is not None and not index.pending
                if index is not None and index.pending:
                    del index.pending[len(index.pending) - len(diff):]
                for n, m in diff:
                    if linked:
                        index.unlink(fwd, bwd, n, m)
                    del fwd[n]
                    del bwd[m]
            owner._fwd = owner._bwd = owner._index = None
            owner._toward, owner._diff, owner._adds = version, diff, not version._adds
            version._fwd, version._bwd, version._index = fwd, bwd, index
            version._toward, version._diff, version._adds = None, (), False
            owner = version
        return fwd

    def _both(self, other: "PartialInjection") -> tuple[dict[int, int], dict[int, int]]:
        """The forward dicts of self and other at once: other's a copy if they share one."""
        theirs = other._live()
        mine = self._live()
        if mine is theirs:
            theirs = dict(other._live())
            mine = self._live()
        return mine, theirs

    def _orbits(self) -> "_OrbitIndex":
        index = self._index  # only the version that owns the dicts holds it
        if index is None or index.pending:
            fwd = self._live()
            if self._index is None:
                self._index = _OrbitIndex(list(fwd.items()))
            index = self._index
            # linking against the whole map is exact: a pair that closes a
            # cycle walks only pairs of the path it closes, all linked before
            for n, m in index.pending:
                index.link(fwd, n, m)
            index.pending.clear()
            self._closed = (len(index.cycles), index.gap)
        return index

    def apply(self, n: int) -> int | None:
        try:
            return self._fwd.get(n)
        except AttributeError:  # another version owns the dicts
            return self._reroot().get(n)

    def apply_inverse(self, m: int) -> int | None:
        try:
            return self._bwd.get(m)
        except AttributeError:  # another version owns the dicts
            self._reroot()
            return self._bwd.get(m)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self._live())

    @property
    def range(self) -> frozenset[int]:
        self._live()
        return frozenset(self._bwd)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._live()) | frozenset(self._bwd)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._live().items()))

    def as_dict(self) -> dict[int, int]:
        return dict(self._live())

    def with_pair(self, n: int, m: int) -> "PartialInjection":
        if n in self._live():
            raise ValueError(f"{n} already in domain")
        if m in self._bwd:
            raise ValueError(f"{m} already in range")
        return self.with_pairs(((n, m),))

    def with_pairs(self, new: Iterable[tuple[int, int]]) -> "PartialInjection":
        """This map plus the pairs `new`, as the version that now owns the dicts.

        A clash raises ValueError and leaves this map as it was.
        """
        child = PartialInjection.__new__(PartialInjection)
        child._fwd, child._bwd, child._size = self._live(), self._bwd, self._size
        child._toward, child._diff, child._adds = None, (), False
        child._index, child._closed, child._fixes, child._source = self._index, None, None, None
        inserted = tuple(child._add(new))  # a clash leaves the dicts as they were, and self's
        self._fwd = self._bwd = self._index = None
        self._toward, self._diff, self._adds = child, inserted, False
        return child

    def _beyond(self, other: "PartialInjection") -> tuple[tuple[int, int], ...] | None:
        """The pairs self adds to other, in insertion order, if the two are neighbours.

        Made from other by with_pairs, self is other's neighbour: other's
        link holds them as the pairs it lacks, or, once other is re-rooted,
        self's as the pairs it adds.  None for any other two maps.
        """
        if self._toward is other and self._adds:
            return self._diff
        if other._toward is self and not other._adds:
            return other._diff
        return None

    def extends(self, other: "PartialInjection") -> bool:
        """Whether self holds every pair of other: read off their link if they are neighbours."""
        if self is other or self._beyond(other) is not None:
            return True
        mine, theirs = self._both(other)
        return mine.items() >= theirs.items()

    def pairs_beyond(self, other: "PartialInjection") -> tuple[tuple[int, int], ...]:
        """The pairs of self outside other, for self extending other.

        For a neighbour self was made from, the pairs with_pairs inserted, in
        order (none for other itself); otherwise a set difference over the
        domain, in set order.
        """
        if self is other:
            return ()
        new = self._beyond(other)
        if new is not None:
            return new
        mine, theirs = self._both(other)
        return tuple((n, mine[n]) for n in mine.keys() - theirs.keys())

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialInjection):
            return NotImplemented
        if self is other:
            return True
        if self._size != other._size:
            return False
        mine, theirs = self._both(other)
        return mine == theirs

    def __hash__(self) -> int:
        return hash(frozenset(self._live().items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}->{m}" for n, m in self.pairs())
        return f"PartialInjection({{{inner}}})"



@dataclass(frozen=True)
class Orbit:
    """One orbit: `ordered` walks entry → exit (open) or starts at min (closed)."""

    ordered: tuple[int, ...]
    closed: bool

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


def _cycle_from(fwd: Mapping[int, int], m: int) -> tuple[int, ...]:
    """The cycle of fwd through m, walked from its minimum."""
    walk = [m]
    cur = fwd[m]
    while cur != m:
        walk.append(cur)
        cur = fwd[cur]
    low = walk.index(min(walk))
    return tuple(walk[low:] + walk[:low])


class _OrbitIndex:
    """The orbits of a partial injection: open paths by their ends, cycles in min-order.

    `exit_of` maps each path's entry to its exit and `entry_of` the exit back
    to the entry; `cycles` lists the closed orbits sorted by minimum, each a
    tuple walked from its minimum.  A point outside every path end and cycle
    is interior to a path or outside the support.  Each cycle a pair closes
    also updates what the codes read: `code`, the cycles' size parities in
    min-order; `counts`, the cycles by size; `covered`, their points; and
    `gap`, the least natural not covered, so the minima are initial exactly
    when the last cycle's lies below it.  `pending` lists the map's newest
    pairs, not linked yet.  One version at a time owns the index, as it owns
    the dicts, and each pair links in O(1), or in O(points) of the cycle it
    closes and of the gap's advance; a pair unlinks in O(points) of its orbit.
    """

    __slots__ = ("exit_of", "entry_of", "cycles", "code", "counts", "covered", "gap", "pending")

    def __init__(self, pending: list[tuple[int, int]]):
        self.exit_of: dict[int, int] = {}
        self.entry_of: dict[int, int] = {}
        self.cycles: list[tuple[int, ...]] = []
        self.code: list[int] = []
        self.counts: dict[int, int] = {}
        self.covered: set[int] = set()
        self.gap = 0
        self.pending = pending

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
        cycle = _cycle_from(fwd, m)
        at = bisect.bisect(self.cycles, cycle)  # distinct minima decide the order
        self.cycles.insert(at, cycle)
        self.code.insert(at, len(cycle) % 2)
        self.counts[len(cycle)] = self.counts.get(len(cycle), 0) + 1
        self.covered.update(cycle)
        while self.gap in self.covered:
            self.gap += 1

    def unlink(self, fwd: Mapping[int, int], bwd: Mapping[int, int], n: int, m: int) -> None:
        """Take out the pair (n, m) of fwd, whose pairs the index all holds linked.

        A cycle through it opens into the path m … n; a path through it
        splits in two, its ends found by walking it.
        """
        if n in self.covered:
            cycle = _cycle_from(fwd, m)
            at = bisect.bisect_left(self.cycles, cycle)
            del self.cycles[at], self.code[at]
            self.counts[len(cycle)] -= 1
            if not self.counts[len(cycle)]:
                del self.counts[len(cycle)]
            self.covered.difference_update(cycle)
            self.gap = min(self.gap, cycle[0])
            ends = ((m, n),)
        else:
            entry, exit_ = n, m
            while (prev := bwd.get(entry)) is not None:
                entry = prev
            while (nxt := fwd.get(exit_)) is not None:
                exit_ = nxt
            del self.exit_of[entry], self.entry_of[exit_]
            ends = ((entry, n), (m, exit_))
        for first, last in ends:
            if first != last:
                self.exit_of[first] = last
                self.entry_of[last] = first

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
    return tuple(Orbit(cycle, closed=True) for cycle in s._orbits().cycles)


def open_orbits(s: PartialInjection) -> tuple[Orbit, ...]:
    index = s._orbits()
    return index.paths(s._live())


def has_open_orbits(s: PartialInjection) -> bool:
    """Whether open_orbits(s) is not empty, read off the orbit index without walking a path."""
    return bool(s._orbits().exit_of)


def closed_and_gap(s: PartialInjection) -> tuple[int, int]:
    """The number of closed orbits, and the least natural none of them covers.

    Each version keeps them once read, so a second read leaves the index where it is.
    """
    if s._closed is None:
        index = s._orbits()
        s._closed = (len(index.cycles), index.gap)
    return s._closed


def indexed_gap(s: PartialInjection) -> int:
    """The gap of s's orbit index, 0 if no version of s has one: points below it lie on cycles."""
    if s._closed is None:
        s._live()
        if s._index is None:
            return 0
    return closed_and_gap(s)[1]


def o_partial(s: PartialInjection, start: int = 0) -> tuple[int, ...]:
    """Size parities of closed orbits in min-order, from the start-th on; the orbit-order code.

    Defined only for nice s, where every closed orbit's minimum lies below the
    first gap in their union, so new closed orbits keep covering an initial
    segment's worth of minima; raises NotNiceInjection otherwise.  The orbit
    index keeps the code and the gap as pairs close cycles, and its last
    cycle has the largest minimum, so this reads them without a pass over
    the cycles.
    """
    index = s._orbits()
    if index.cycles and index.cycles[-1][0] >= index.gap:
        raise NotNiceInjection(f"closed-orbit minima not initial in {s!r}")
    return tuple(index.code[start:])


_PRIMES: list[int] = [2, 3, 5, 7]


def nth_prime(n: int) -> int:
    """p_n with p_0 = 2; trial division stops at the first prime past the candidate's root."""
    while len(_PRIMES) <= n:
        candidate = _PRIMES[-1] + 2
        while any(candidate % p == 0 for p in takewhile(lambda p: p * p <= candidate, _PRIMES)):
            candidate += 2
        _PRIMES.append(candidate)
    return _PRIMES[n]


def primes_up_to(k: int) -> list[int]:
    """p_0, p_1, ... up to k; a power v^k obligates bit n of v's code iff p_n <= k."""
    while _PRIMES[-1] <= k:
        nth_prime(len(_PRIMES))
    return _PRIMES[: bisect.bisect_right(_PRIMES, k)]


def prime_index(k: int) -> int | None:
    """n with p_n = k, or None if k is not prime."""
    primes = primes_up_to(k)
    return len(primes) - 1 if primes and primes[-1] == k else None


def prime_parities(counts: Mapping[int, int], upto: int) -> tuple[int, ...]:
    """Bit n is the parity of counts[p_n], n ≤ upto, for closed cycles counted by size.

    A prime past the largest size counts no cycle, so its bit is 0, and
    primes are computed only up to that size.
    """
    bits = [counts.get(p, 0) % 2 for p in primes_up_to(max(counts, default=0))[: upto + 1]]
    return tuple(bits + [0] * (upto + 1 - len(bits)))


def o_dagger(s: PartialInjection, upto: int) -> tuple[int, ...]:
    """Bit n is the parity of the count of closed orbits of size p_n, n ≤ upto."""
    return prime_parities(s._orbits().counts, upto)


def require_shape(w: W.Word, oracle) -> None:
    """PreconditionViolated unless w is reduced and ends in x; then w[s] maps only dom(s)."""
    if not w.letters or w.letters[-1] != W.X or W.reduce(w.letters, oracle) != w:
        text = W.format_word(w, oracle)
        raise PreconditionViolated(f"word {text!r} is not reduced or does not end in x")


def fixed_points(w: W.Word, s: PartialInjection, oracle) -> frozenset[int]:
    """Points n with w[s](n) = n, for a reduced word w ending in x: the reflexive check's.

    w = v^j fixes the points on the cycles of v[s] whose size divides j,
    read off s's own orbit index for v = x and off v's memo for any other
    root.  A window miss propagates from the point that meets it.
    """
    require_shape(w, oracle)
    v, j = W.period(w)
    cycles = _graph(v, s, oracle)._orbits().cycles
    return frozenset(p for c in cycles if j % len(c) == 0 for p in c)


@dataclass(slots=True, eq=False)
class _WordGraph:
    """A reduced word ending in x evaluated at every point of dom(s): its graph, and where it stopped.

    `graph` holds w[s], whose orbit index holds its cycles.  `stuck` files
    each point where the evaluation stopped, as words.evaluate files it:
    under ("x", a) when it waits for a pair (a, ·), under ("x^-1", b) when
    it waits for (·, b).  If t ⊇ s and w[s](p) is defined, w[t](p) = w[s](p):
    only t's new domain points and the points filed under t's new pairs can
    gain a value.  The checks keep one per root but x (see gained_fixed_points).
    """

    graph: PartialInjection
    stuck: dict

    def reached(self, new: Iterable[tuple[int, int]]) -> list[int]:
        """The points where w[t], for t = s plus the pairs `new`, can differ from w[s]."""
        reached = [n for n, _ in new]
        for n, m in new:
            reached += self.stuck.get(("x", n), ())
            reached += self.stuck.get(("x^-1", m), ())
        return reached


def _evaluate_at(w: W.Word, s: PartialInjection, oracle, points, stuck: dict):
    """w[s] at `points`, where defined; points that stop are filed in `stuck`.

    A window miss propagates from the first point that meets it, before
    any caller keeps what was evaluated.
    """
    values = {}
    for n in points:
        value = W.evaluate(w, s, oracle, n, stuck)
        if value is not None:
            values[n] = value
    return values


def _carried(s: PartialInjection, key) -> _WordGraph | None:
    """The memo at key, moved from s's source, grown and refiled at the points its new pairs reach.

    A memo moves along a run instead of being copied, and s lets go of its
    source once every memo it can carry has moved.
    """
    if s._source is None:
        return None
    fixes, new, found = s._source
    memo = fixes.get(key)
    if memo not in found:
        return None
    del fixes[key]
    values, stuck = found.pop(memo)
    for n, m in new:
        memo.stuck.pop(("x", n), None)
        memo.stuck.pop(("x^-1", m), None)
    for where, points in stuck.items():
        memo.stuck.setdefault(where, []).extend(points)
    memo.graph._add(values.items())
    if not found:
        s._source = None
    return memo


_X_LETTERS = (W.X,)  # the root x, whose graph on s is s


def _graph(v: W.Word, s: PartialInjection, oracle) -> PartialInjection:
    """v[s], for a reduced root v ending in x: s itself for x, and v's memo's graph otherwise."""
    return s if v.letters == _X_LETTERS else _memo(v, s, oracle).graph


def _memo(w: W.Word, s: PartialInjection, oracle) -> _WordGraph:
    """s's memo for w: kept, carried forward, or built in one pass over dom(s).

    PreconditionViolated unless w is reduced and ends in x.  A pass that
    misses the oracle's window raises the miss and keeps nothing.
    """
    key = (w, oracle)
    if s._fixes is None:
        s._fixes = {}
    memo = s._fixes.get(key) or _carried(s, key)
    if memo is None:
        require_shape(w, oracle)
        stuck: dict = {}
        values = _evaluate_at(w, s, oracle, tuple(s._live()), stuck)
        memo = _WordGraph(PartialInjection(values.items()), stuck)
    s._fixes[key] = memo
    return memo


def gained_fixed_points(powers, upper: PartialInjection, lower: PartialInjection, oracle) -> dict:
    """The words v^j that gain a fixed point, as (v, j): points, for `powers` mapping v to the j.

    v^j gains the points of the cycles v[upper] adds to v[lower] whose size
    divides j, so only roots are evaluated, where upper's new pairs reach.
    The root x is not evaluated at all: x[upper] is upper, so its new values
    are the new pairs, and its cycles close over lower's own orbit index.  A
    window miss propagates from the evaluation that meets it, and upper
    keeps nothing.  With no gain, lower's memos move to upper on first use.
    """
    new, found, gains = upper.pairs_beyond(lower), {}, {}
    for v, exponents in powers.items():
        if v.letters == _X_LETTERS:
            graph, values = lower, dict(new)
        else:
            stuck: dict = {}
            memo = _memo(v, lower, oracle)
            graph, values = memo.graph, _evaluate_at(v, upper, oracle, memo.reached(new), stuck)
            found[memo] = (values, stuck)
        loops = [[n] for n, m in values.items() if n == m]  # all that J = (1,) can gain
        for cycle in _closed_cycles(graph, values) if exponents[-1] > 1 and values else loops:
            for j in [j for j in exponents if j % len(cycle) == 0]:
                gains.setdefault((v, j), []).extend(cycle)
    if upper is not lower and found and not gains:
        upper._source = (lower._fixes, new, found)
    return gains


def _closed_cycles(graph: PartialInjection, values: Mapping[int, int]) -> list[list[int]]:
    """The cycles that adding the pairs `values` would close in graph, left as it is.

    Links each pair as _OrbitIndex.link does, with the path ends it changes
    kept aside: a key that link pops is never asked for again, since no two
    pairs share a point on the same side.
    """
    index, fwd = graph._orbits(), graph._live()
    entry_of: dict[int, int] = {}
    exit_of: dict[int, int] = {}
    cycles: list[list[int]] = []
    for n, m in values.items():
        entry = entry_of.pop(n) if n in entry_of else index.entry_of.get(n, n)
        exit_ = exit_of.pop(m) if m in exit_of else index.exit_of.get(m, m)
        if entry != m:
            exit_of[entry] = exit_
            entry_of[exit_] = entry
            continue
        cycle, cur = [n], values[n]
        while cur != n:
            cycle.append(cur)
            cur = values[cur] if cur in values else fwd[cur]
        cycles.append(cycle)
    return cycles


def word_cycle_counts(w: W.Word, s: PartialInjection, oracle) -> dict[int, int]:
    """The closed cycles of w[s] by size, for a reduced word w ending in x.

    Read off s's own orbit index for x, and for any other word off s's
    memo for it: kept, carried forward from the map s was certified over,
    or built in one pass over dom(s).  A candidate the order check has
    certified has its memo carried, so it evaluates only where its new
    pairs reach.  A window miss propagates from the point that meets it.
    """
    return dict(_graph(w, s, oracle)._orbits().counts)


def word_graph(w: W.Word, s: PartialInjection, oracle) -> PartialInjection:
    """The graph of w[s] as a finite partial injection, for a reduced word w ending in x.

    Scans dom(s), where alone w[s] is defined, evaluating the whole word
    at each point.  Nothing in the library calls it: the checks read the
    same graph incrementally, through the memos behind fixed_points and
    word_cycle_counts or, for x, the map itself, and it is kept as the
    reference scan they are compared against.
    """
    require_shape(w, oracle)
    pairs = []
    for n in s.domain:
        value = W.evaluate(w, s, oracle, n)
        if value is not None:
            pairs.append((n, value))
    return PartialInjection(pairs)


def wire_int(value, bit: bool = False) -> int:
    """value itself if it is an int, not a bool (which Python counts as one), and 0 or 1 for a bit."""
    if type(value) is not int or (bit and value not in (0, 1)):
        raise ValueError(f"{value!r} is not {'a bit' if bit else 'an integer'}")
    return value


def wire_object(data, keys: frozenset, what: str):
    """data itself, if it is an object with exactly `keys`; ValueError otherwise."""
    if not isinstance(data, Mapping):
        raise TypeError(f"{what} is not an object")
    if data.keys() != keys:
        raise ValueError(f"{what} has keys {sorted(data)}, format gives {sorted(keys)}")
    return data


def wire_list(data, what: str) -> list:
    """data itself, if it is a list; TypeError otherwise."""
    if not isinstance(data, list):
        raise TypeError(f"{what} is not a list")
    return data


def injection_from_pairs(pairs: Iterable[Iterable[int]]) -> PartialInjection:
    """Build from serialized [[n, m], …] data; every point a JSON integer."""
    return PartialInjection((wire_int(n), wire_int(m)) for n, m in pairs)


def cycles_to_data(s: PartialInjection, old: Container[int] = ()) -> list[list[int]]:
    """s's cycles on the wire, each walked from its minimum, in min-order.

    With old, the cycle minima of a map with only cycles that s extends,
    just the cycles not among them: what a growth of a sealed map added.
    """
    return [list(c) for c in s._orbits().cycles if c[0] not in old]


def pairs_from_cycles(cycles) -> list[tuple[int, int]]:
    """The pairs of cycles as cycles_to_data writes them; ValueError for any other form.

    Each cycle is a non-empty list of JSON integers that starts at its
    minimum, the minima strictly increase, and no point is written twice,
    within a cycle or across cycles.  The pairs map each point to the next,
    and the last to the first.
    """
    if not isinstance(cycles, list):
        raise ValueError(f"cycles must be a list, not {cycles!r}")
    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    last = None
    for cycle in cycles:
        if not (isinstance(cycle, list) and cycle):
            raise ValueError(f"a cycle is a non-empty list, not {cycle!r}")
        points = [wire_int(p) for p in cycle]
        low = points[0]
        if min(points) != low:
            raise ValueError(f"cycle {points} does not start at its minimum")
        if low < 0:
            raise ValueError(f"negative point {low}")
        if last is not None and low <= last:
            raise ValueError(f"cycle minima do not increase: {low} after {last}")
        for p in points:
            if p in seen:
                raise ValueError(f"point {p} is written twice")
            seen.add(p)
        last = low
        pairs += zip(points, points[1:] + points[:1])
    return pairs
