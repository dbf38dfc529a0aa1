"""Traces, and the work of verifying them, grow linearly in n: counted, never timed.

tools/growth_curve.py prints the coding columns, with verify's wall time,
for n = 32 to 512, and the letters a staged verify evaluates.  A dagger
step writes its delta alone, so its bytes do not grow with the word set E
a run has built up.  A tree step's walk stops at the first option past its
bound, so it yields no option it does not use, and checks those it yields
with one leq.  The order check evaluates E's roots alone, never their
powers nor the root x, which it reads off the map, and a build validates a
candidate only after the order check has carried its memos, so it
evaluates no root twice.
"""

import json
import random

from orbitcode import (
    DomainHits,
    Flavor,
    FullInjectiveTree,
    PartialInjection,
    RangeHits,
    SparseCongruenceTree,
    StagedOracle,
    TreeDiagonalized,
    WordAdded,
    auto_schedule,
    open_orbits,
    run,
    seal,
    staged_run,
    trace_to_data,
    translation_oracle,
    trivial_oracle,
    verify_trace_data,
    x_power,
)
from orbitcode import forcing as F
from orbitcode import injections as I
from orbitcode import words as W

# one triple from each stratum of the staged-3 workload (bench/workloads.py)
STRATA_TRIPLES = ("052", "cc4", "a14", "b56", "e02")
# the letters of the words handed to words.evaluate while verifying their
# stage traces, when the order check evaluated every word of E
PER_WORD_LETTERS = 23160
# the letters handed to words.evaluate while building them, when the build
# validated each candidate before the order check, on its parent's memo
VALIDATE_FIRST_LETTERS = 3168
# what the build hands it today, under every string hash seed: the order
# check walks E's roots in their text order, a window miss propagates from
# the evaluation that meets it, and the root x is read off the map, never
# evaluated (1708 letters while x kept a memo of its own)
STRATA_BUILD_LETTERS = 802
# the words whose facts verifying their stage traces examined when each
# word set's facts were derived from scratch
FRESH_FACTS_WORDS = 480
# the word texts verifying them parsed when a step's delta parsed again the
# word its word_added schedule entry had parsed
ENTRY_REPARSED_TEXTS = 320
# the values the least-value scans of a coding auto:256 build looked at, when
# each scan started at 0, and since it starts at the orbit index's gap
FROM_ZERO_SCANNED = 78340
FROM_GAP_SCANNED = 513
# the open-path walks and fresh-point checks of sealing _ten_tree_pairs_schedule's
# run, when the seal listed the open paths and scanned from the gap per closure
PER_CLOSURE_PATH_WALKS = 16
PER_CLOSURE_FRESH_CHECKS = 338


def _auto_trace(flavor, n):
    oracle = trivial_oracle()
    bits = tuple((7 * i + 3) % 5 % 2 for i in range(n))
    trace = run(flavor, bits, auto_schedule(flavor, n), oracle)
    return json.dumps(trace_to_data(trace, oracle), separators=(",", ":")), trace


def _coding_text(n):
    text, trace = _auto_trace(Flavor.CODING, n)
    return text, len(trace.final.s)


def test_coding_trace_bytes_and_verify_insertions_grow_linearly(monkeypatch):
    inserted = []
    add = PartialInjection._add

    def counting(self, pairs):
        new = add(self, pairs)
        inserted.append(len(new))
        return new

    sizes = []
    for n in (128, 256, 512):
        text, final = _coding_text(n)
        sizes.append(len(text))
        inserted.clear()
        with monkeypatch.context() as patch:
            patch.setattr(PartialInjection, "_add", counting)
            verify_trace_data(json.loads(text))
        # each delta once, and the final condition once more
        assert final <= sum(inserted) <= 3 * final, n
    for smaller, larger in zip(sizes, sizes[1:]):
        assert larger <= 2.3 * smaller, sizes


def test_dagger_trace_bytes_per_step_do_not_grow_with_the_word_set():
    per_step = {}
    for n in (4, 8):
        text, trace = _auto_trace(Flavor.DAGGER, n)
        per_step[n] = len(text) / len(trace.steps)
    # E holds x .. x^7 at n = 4 and x .. x^19 at n = 8
    assert per_step[8] <= 1.2 * per_step[4], per_step


def _ten_tree_pairs_schedule():
    """x, ten full trees each followed by a sparse tree of seed 0..9, then hits 0..7."""
    schedule = [WordAdded(x_power(1))]
    for seed in range(10):
        trees = (FullInjectiveTree(), SparseCongruenceTree(seed))
        schedule += [TreeDiagonalized(tree) for tree in trees]
    for i in range(8):
        schedule += [DomainHits(i), RangeHits(i)]
    return schedule


def test_tree_walks_check_at_most_half_the_options_of_a_walk_past_the_bound(monkeypatch):
    """The twenty walks of _ten_tree_pairs_schedule.

    A walk that collected more than the bound's worth of options, keeping
    the least one past it, yielded 728 options on this schedule.
    """
    yielded = []
    walk = F.many_extensions

    def counted(*args):
        node, options = walk(*args)
        yielded.append(len(options))
        return node, options

    monkeypatch.setattr(F, "many_extensions", counted)
    run(Flavor.PLAIN, None, _ten_tree_pairs_schedule(), trivial_oracle())
    assert len(yielded) == 20 and sum(yielded) <= 728 // 2, yielded


def test_each_tree_walk_runs_one_leq(monkeypatch):
    """The twenty walks of _ten_tree_pairs_schedule run leq twenty times: one per walk.

    A walk that checked each option as it came ran leq once per option.
    """
    inside = []
    checks = []
    leq, walk = F.leq, F.many_extensions

    def counted_leq(*args):
        checks.append(bool(inside))
        return leq(*args)

    def flagged(*args):
        inside.append(True)
        try:
            return walk(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(F, "leq", counted_leq)
    monkeypatch.setattr(F, "many_extensions", flagged)
    run(Flavor.PLAIN, None, _ten_tree_pairs_schedule(), trivial_oracle())
    assert checks.count(True) == 20


def test_a_seal_walks_its_open_paths_once_and_tests_each_point_once(monkeypatch):
    """Sealing _ten_tree_pairs_schedule's run closes its 15 open paths in one pass.

    Each chain scan resumes past the last point picked, so no point is
    tested twice, and every point tested lies in the sealed support.  A seal
    that listed the open paths again for every closure, and scanned from
    the gap again for every chain, made PER_CLOSURE_PATH_WALKS walks and
    PER_CLOSURE_FRESH_CHECKS fresh-point checks here.
    """
    trace = run(Flavor.PLAIN, None, _ten_tree_pairs_schedule(), trivial_oracle())
    tested = []
    walks = []
    fresh_point_ok, paths = F._fresh_point_ok, I._OrbitIndex.paths
    monkeypatch.setattr(F, "_fresh_point_ok", lambda b, *args: tested.append(b) or fresh_point_ok(b, *args))
    monkeypatch.setattr(I._OrbitIndex, "paths", lambda *args: walks.append(1) or paths(*args))
    sealed = seal(trace, trivial_oracle()).injection
    assert len(walks) == 1 < PER_CLOSURE_PATH_WALKS
    assert len(open_orbits(trace.final.s)) == 15
    assert len(set(tested)) == len(tested) <= len(sealed.support) < PER_CLOSURE_FRESH_CHECKS
    assert set(tested) <= sealed.support


def _targets(code):
    value = int(code, 16)
    return [[(value >> (4 * (2 - k) + 3 - j)) & 1 for j in range(4)] for k in range(3)]


def _stage_texts(code):
    stages = staged_run(_targets(code))
    return [
        json.dumps(trace_to_data(stage.trace, StagedOracle(stages[:i])))
        for i, stage in enumerate(stages)
    ]


def test_staged_verify_evaluates_a_fifth_of_the_letters_a_per_word_check_did(monkeypatch):
    """Each power v^j of E is read off its root v's cycles, so only roots are evaluated."""
    texts = [text for code in STRATA_TRIPLES for text in _stage_texts(code)]
    letters = []
    evaluate = W.evaluate

    def counted(w, s, oracle, n, stuck=None):
        letters.append(len(w))
        return evaluate(w, s, oracle, n, stuck)

    monkeypatch.setattr(W, "evaluate", counted)
    for text in texts:
        verify_trace_data(json.loads(text))
    assert 0 < sum(letters) <= PER_WORD_LETTERS // 5, sum(letters)


def test_staged_builds_evaluate_at_most_three_fifths_of_the_letters_of_a_validate_first_build(
    monkeypatch,
):
    """Each candidate is certified, then validated: validate reads the memo leq carried."""
    letters = []
    evaluate = W.evaluate

    def counted(w, s, oracle, n, stuck=None):
        letters.append(len(w))
        return evaluate(w, s, oracle, n, stuck)

    monkeypatch.setattr(W, "evaluate", counted)
    for code in STRATA_TRIPLES:
        staged_run(_targets(code))
    assert 0 < sum(letters) <= VALIDATE_FIRST_LETTERS * 6 // 10, sum(letters)
    assert sum(letters) == STRATA_BUILD_LETTERS


def test_staged_verify_examines_half_the_words_of_facts_derived_from_scratch(monkeypatch):
    """A word set's facts are derived from a kept subset's, examining only the words it adds."""
    texts = [text for code in STRATA_TRIPLES for text in _stage_texts(code)]
    examined = []
    derive = F._WordFacts.__init__

    def counted(self, words, oracle, base=None):
        examined.append(len(words) - (len(base.words) if base else 0))
        derive(self, words, oracle, base)

    monkeypatch.setattr(F._WordFacts, "__init__", counted)
    for text in texts:
        verify_trace_data(json.loads(text))
    assert 0 < sum(examined) <= FRESH_FACTS_WORDS // 2, sum(examined)


def test_staged_verify_parses_a_word_added_entry_once(monkeypatch):
    """The step's delta reads the word its schedule entry parsed."""
    texts = [text for code in STRATA_TRIPLES for text in _stage_texts(code)]
    entries = sum(entry["kind"] == "word_added"
                  for text in texts for entry in json.loads(text)["schedule"])
    parsed = []
    parse = W.parse_word
    monkeypatch.setattr(W, "parse_word", lambda text, oracle: parsed.append(text) or parse(text, oracle))
    for text in texts:
        verify_trace_data(json.loads(text))
    assert entries > 0 and len(parsed) == ENTRY_REPARSED_TEXTS - entries, (len(parsed), entries)


def test_incremental_word_facts_agree_with_facts_derived_from_scratch():
    """400 seeded chains of word sets, adjoining 1-3 words at a time, over the translation oracle.

    Each set mixes the closures of one or two roots, with members left out
    so that closures fail and later pass, and now and then an inadmissible
    word; the facts of a set are derived from the last set's, whose roots
    were read first or not.
    """
    oracle = translation_oracle()
    roots = [W.parse_word(text, oracle) for text in
             ("x", "g1.x", "g1.x^2", "g2.x^-1.g1.x", "g-1.x.g2.x", "g1.x.g-1.x^2")]
    strays = [W.parse_word(text, oracle) for text in ("x^-1", "g1", "x.g1", "")]
    compared = {"passed": 0, "refused": 0}
    for seed in range(400):
        rng = random.Random(seed)
        pool = set()
        for v in rng.sample(roots, rng.randint(1, 2)):
            pool.update(W.closure(v, rng.randint(1, 3), oracle))
        pool = sorted(pool, key=lambda w: W.format_word(w, oracle))
        rng.shuffle(pool)
        pool = pool[: len(pool) - rng.randint(0, 2)]
        if rng.random() < 0.2:
            pool.insert(rng.randrange(len(pool) + 1), rng.choice(strays))
        words, facts = frozenset(), F._WordFacts(frozenset(), oracle)
        while pool:
            cut = rng.randint(1, 3)
            words, pool = words | frozenset(pool[:cut]), pool[cut:]
            if facts.inadmissible is None and rng.random() < 0.5:
                facts.roots(oracle)
            facts = F._WordFacts(words, oracle, facts)
            fresh = F._WordFacts(words, oracle)
            assert facts.inadmissible == fresh.inadmissible, seed
            assert list(facts.powers(oracle).items()) == list(fresh.powers(oracle).items()), seed
            if fresh.inadmissible is None:
                assert facts.roots(oracle) == fresh.roots(oracle), seed
                compared["refused" if fresh.roots(oracle)[-1][4] else "passed"] += 1
    assert min(compared.values()) >= 150, compared


def test_least_value_scans_start_at_the_gap_of_an_indexed_map(monkeypatch):
    """Every point below the gap lies in a cycle, so no scan looks at one."""
    scanned = []
    scan = F._least_admissible

    def counted(c, pair_at, taken, oracle, what):
        return scan(c, pair_at, lambda v: scanned.append(v) or taken(v), oracle, what)

    monkeypatch.setattr(F, "_least_admissible", counted)
    _auto_trace(Flavor.CODING, 256)
    assert len(scanned) == FROM_GAP_SCANNED <= FROM_ZERO_SCANNED // 100


def test_refused_candidates_of_the_staged_strata_link_none_of_their_pairs(monkeypatch):
    """A candidate's pairs wait in the orbit index until an orbit query reads it.

    No query reads a candidate the checks refuse, so over the five strata
    triples the index of a map's versions links no pair of one, though the
    order check reads x's cycles off that very index.  Each candidate owns
    its map's dicts when it is checked, which tell the index of its
    versions from a word graph's.
    """
    refused, kept, linked = set(), [], []
    admissible, link = F._admissible, I._OrbitIndex.link

    def counted_admissible(c, candidate, oracle):
        fwd = candidate.s._fwd
        try:
            return admissible(c, candidate, oracle)
        except F.Refused:
            kept.append(fwd)
            refused.update((id(fwd), n, m) for n, m in candidate.s.pairs_beyond(c.s))
            raise

    def counted_link(index, fwd, n, m):
        kept.append(fwd)  # alive, so that no later dict takes its id
        linked.append((id(fwd), n, m))
        return link(index, fwd, n, m)

    monkeypatch.setattr(F, "_admissible", counted_admissible)
    monkeypatch.setattr(I._OrbitIndex, "link", counted_link)
    assert not hasattr(I._OrbitIndex, "copy")
    for code in STRATA_TRIPLES:
        staged_run(_targets(code))
    assert len(refused) >= 200 and len(linked) >= 900, (len(refused), len(linked))
    # the index of every refused candidate's map links pairs of its other versions
    assert {fwd for fwd, _, _ in refused} <= {fwd for fwd, _, _ in linked}
    assert refused.isdisjoint(linked)


def _index_points(monkeypatch, n):
    """The points the orbit index's links and unlinks touch while coding auto:n builds.

    A link touches its pair's point, and when it closes a cycle, the cycle's
    points and those the gap advances past; an unlink touches the orbit it
    takes the pair out of, walked.
    """
    touched = 0
    link, unlink = I._OrbitIndex.link, I._OrbitIndex.unlink

    def counted_link(index, fwd, a, b):
        nonlocal touched
        before = len(index.covered) + index.gap
        link(index, fwd, a, b)
        touched += 1 + len(index.covered) + index.gap - before

    def counted_unlink(index, fwd, bwd, a, b):
        nonlocal touched
        p, walked = b, 1
        while (p := fwd.get(p)) not in (None, b):
            walked += 1
        if p is None:  # a path: its points from its entry to a, too
            p, walked = a, walked + 1
            while (p := bwd.get(p)) is not None:
                walked += 1
        touched += walked
        unlink(index, fwd, bwd, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(I._OrbitIndex, "link", counted_link)
        patch.setattr(I._OrbitIndex, "unlink", counted_unlink)
        _auto_trace(Flavor.CODING, n)
    return touched


def test_the_orbit_index_touches_points_linearly_in_a_coding_build(monkeypatch):
    """Each link and unlink pays for its own orbit's points, never for every cycle so far."""
    points = [_index_points(monkeypatch, n) for n in (512, 1024, 2048)]
    for smaller, larger in zip(points, points[1:]):
        assert larger <= 2.2 * smaller, points
