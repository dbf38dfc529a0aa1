"""Acceptance suite: ten end-to-end criteria, one test each.

Run with -v for one pass/fail line per criterion.  Timed criteria assert
their stated budget; the combinatorial ones are exact with zero tolerance.
"""

import collections
import copy
import dataclasses
import itertools
import json
import math
import random
import re
import time

import pytest

from orbitcode import (
    DomainHits,
    ExplicitTree,
    Flavor,
    FullInjectiveTree,
    KTooSmall,
    OrbitCoded,
    PartialInjection,
    RangeHits,
    SparseCongruenceTree,
    TreeDiagonalized,
    Word,
    WordAdded,
    X,
    add_word,
    auto_schedule,
    avoidance_bound,
    close_orbit,
    closed_orbits,
    closing_threshold,
    coding_condition,
    dagger_condition,
    decode,
    extend_domain,
    extend_range,
    fixed_points,
    graph_restriction,
    group,
    leq,
    o_dagger,
    orbit_of,
    parse_word,
    plain_condition,
    power,
    run,
    seal,
    staged_oracle,
    staged_run,
    strong_close_orbit,
    trace_to_data,
    translation_oracle,
    trivial_oracle,
    validate,
    verify_tightness_sample,
    verify_trace_data,
    word_graph,
    x_power,
)
from orbitcode.cli import main as cli_main

import helpers

TRANS = translation_oracle()

WORD_POOL = [
    x_power(1),
    x_power(2),
    x_power(3),
    x_power(4),
    Word((group(1), X)),
    Word((group(-2), X)),
    Word((group(1), X, X)),
    Word((group(2), X, group(1), X)),
    Word((group(-1), X, group(2), X)),
]


def test_criterion_01_coding_round_trip():
    rng = random.Random(101)
    oracle_budget = 5.0
    started = time.monotonic()
    for _ in range(100):
        r = tuple(rng.randrange(2) for _ in range(8))
        oracle = trivial_oracle()
        trace = run(Flavor.CODING, r, auto_schedule(Flavor.CODING, 8), oracle)
        assert trace.decoded == r
        assert decode(trace.final.s, "orbit_order", 7) == r
        lower = coding_condition(r)
        for step in trace.steps:
            leq(step.condition, lower, oracle)
            lower = step.condition
    elapsed = time.monotonic() - started
    assert elapsed < oracle_budget, f"took {elapsed:.2f}s"
    print(f"criterion 1 (coding round trip, 100 runs, {elapsed:.2f}s): PASS")


def test_criterion_02_dagger_round_trip():
    rng = random.Random(202)
    started = time.monotonic()
    schedule = [WordAdded(x_power(j)) for j in (1, 2, 3, 5, 7)]
    for _ in range(50):
        r = tuple(rng.randrange(2) for _ in range(4))
        oracle = trivial_oracle()
        trace = run(Flavor.DAGGER, r, schedule, oracle)
        graph = word_graph(x_power(1), trace.final.s, oracle)
        assert o_dagger(graph, 3) == r
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"criterion 2 (dagger round trip, 50 runs, {elapsed:.2f}s): PASS")


def test_criterion_03_conjugacy_invariance():
    started = time.monotonic()
    perms = list(itertools.permutations(range(6)))
    bits = {p: o_dagger(PartialInjection(enumerate(p)), 2) for p in perms}
    for f in perms:
        for g in perms:
            fg = tuple(f[g[i]] for i in range(6))
            gf = tuple(g[f[i]] for i in range(6))
            assert bits[fg] == bits[gf]
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"criterion 3 (conjugacy invariance, 720^2 pairs, {elapsed:.2f}s): PASS")


def test_criterion_04_power_stability():
    # Checked law: under f^k an orbit of size L splits into d = gcd(L, k)
    # orbits of size L / d.  When p_n > |fix(f^k)|, f has no orbit of size
    # p_n with p_n | k (it would give p_n fixed points), so
    #   o_dagger(f^k)(n) == o_dagger(f)(n) + sum of d over orbits of f of
    #   size p_n * d with d = gcd(p_n * d, k) > 1            (mod 2).
    # The correction comes from f's cycle type (helpers.cycle_sizes), not from
    # o_dagger.  The uncorrected claim, agreement at every such bit, is false:
    # a 6-cycle cubed is three transpositions, so the 840 permutations of
    # S_7 with a 6-cycle break it at k = 3, n = 0 while f^3 keeps one fixed
    # point.  Those are exactly the cases with an odd correction, and the
    # test pins them down so that it cannot pass vacuously.
    started = time.monotonic()
    cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def bits_of(p):
        if p not in cache:
            cache[p] = o_dagger(PartialInjection(enumerate(p)), 4)
        return cache[p]

    cases = 0
    mismatches = []
    uncorrected_failures = []
    odd_corrections = []
    for f in itertools.permutations(range(7)):
        base = bits_of(f)
        sizes = helpers.cycle_sizes(f)
        for k in (2, 3, 4):
            fk = helpers.perm_power(f, k)
            fix_count = sum(1 for i in range(7) if fk[i] == i)
            powered = bits_of(fk)
            splits = [(math.gcd(size, k), size) for size in sizes]
            for n in range(5):
                p = helpers.PRIMES[n]
                if p <= fix_count:
                    continue
                cases += 1
                correction = sum(
                    d for d, size in splits if d > 1 and size == p * d
                )
                if powered[n] != (base[n] + correction) % 2:
                    mismatches.append((f, k, n))
                if powered[n] != base[n]:
                    uncorrected_failures.append((f, k, n))
                if correction % 2:
                    odd_corrections.append((f, k, n))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    # 57927 triples (f, k, n) meet the hypothesis; 840 = 7 * 5! is the number
    # of permutations of seven points that contain a 6-cycle.
    assert cases == 57927
    assert not mismatches, (
        f"{len(mismatches)} mismatches over {cases} cases;"
        f" first: f = {mismatches[0][0]}, k = {mismatches[0][1]},"
        f" bit {mismatches[0][2]}"
    )
    assert len(uncorrected_failures) == 840
    assert uncorrected_failures == odd_corrections
    assert all(
        k == 3 and n == 0 and 6 in helpers.cycle_sizes(f)
        for f, k, n in uncorrected_failures
    )
    print(
        f"criterion 4 (power law, {cases} cases, 840 uncorrected"
        f" counterexamples, {elapsed:.2f}s): PASS"
    )


def _random_plain_condition(rng):
    pairs = []
    dom: set[int] = set()
    ran: set[int] = set()
    for _ in range(rng.randrange(7)):
        n, m = rng.randrange(12), rng.randrange(12)
        if n in dom or m in ran:
            continue
        dom.add(n)
        ran.add(m)
        pairs.append((n, m))
    words = rng.sample(WORD_POOL, k=rng.randrange(4))
    return plain_condition(PartialInjection(pairs), words)


def test_criterion_05_orbit_closing():
    rng = random.Random(505)
    for _ in range(200):
        c = _random_plain_condition(rng)
        validate(c, TRANS)
        open_points = [
            p for p in sorted(c.s.support)
            if not any(p in o.ordered for o in closed_orbits(c.s))
        ]
        if open_points and rng.random() < 0.5:
            n = rng.choice(open_points)
        else:
            n = max(c.s.support, default=0) + 1 + rng.randrange(4)
        threshold = closing_threshold(c, orbit_of(c.s, n))
        before = {w: fixed_points(w, c.s, TRANS) for w in c.words}
        for k in range(threshold + 1, threshold + 7):
            t = close_orbit(c, n, k, TRANS)
            orbit = next(o for o in closed_orbits(t.s) if n in o.ordered)
            assert orbit.size == k
            leq(t, c, TRANS)
            for w, points in before.items():
                assert fixed_points(w, t.s, TRANS) == points
        with pytest.raises(KTooSmall):
            close_orbit(c, n, threshold, TRANS)
    print("criterion 5 (orbit closing, 200 conditions x 6 lengths): PASS")


def _random_dagger_condition(rng):
    r = tuple(rng.randrange(2) for _ in range(4))
    c = dagger_condition(r, None, [])
    for _ in range(rng.randrange(3)):
        c = add_word(c, x_power(rng.randrange(1, 4)), TRANS)
    for _ in range(rng.randrange(4)):
        n = rng.randrange(25)
        if n not in c.s.domain:
            c = extend_domain(c, n, TRANS)
    return c


def test_criterion_06_strong_closure():
    rng = random.Random(606)
    roots = [x_power(1), Word((group(1), X)), Word((group(1), X, group(2), X))]
    done = 0
    while done < 100:
        c = _random_dagger_condition(rng)
        validate(c, TRANS)
        v = rng.choice(roots)
        k = rng.randrange(1, 6)
        if power(v, k, TRANS) in c.words:
            continue
        before = closed_orbits(word_graph(v, c.s, TRANS))
        t = strong_close_orbit(c, v, k, TRANS)
        after = closed_orbits(word_graph(v, t.s, TRANS))
        old_sets = {frozenset(o.ordered) for o in before}
        new = [o for o in after if frozenset(o.ordered) not in old_sets]
        assert len(after) == len(before) + 1
        assert len(new) == 1 and new[0].size == k
        before_counts = collections.Counter(o.size for o in before)
        before_counts[k] += 1
        assert collections.Counter(o.size for o in after) == before_counts
        done += 1
    print("criterion 6 (strong closure, 100 conditions): PASS")


def _valid_pair(c, n, m, oracle):
    if n in c.s.domain or m in c.s.range:
        return False
    candidate = dataclasses.replace(c, s=c.s.with_pair(n, m))
    return helpers.holds(validate, candidate, oracle) and helpers.holds(leq, candidate, c, oracle)


def test_criterion_07_extension_validity_is_cofinite():
    rng = random.Random(707)
    for trial in range(200):
        c = _random_plain_condition(rng) if trial % 2 else _random_dagger_condition(rng)
        handles = graph_restriction(c.words, TRANS)
        if trial % 4 < 2:
            n = max(c.s.support, default=0) + 1 + rng.randrange(4)
            invalid = [m for m in range(200) if not _valid_pair(c, n, m, TRANS)]
            exclusion = max(
                [avoidance_bound(c, TRANS), n + 1]
                + [TRANS.eval(h, n) + 1 for h in handles]
            )
            assert all(m < exclusion for m in invalid)
            for probe in (exclusion, 301, 997):
                assert _valid_pair(c, n, probe, TRANS)
            chosen = extend_domain(c, n, TRANS).s.apply(n)
            assert chosen == min(m for m in range(200) if m not in invalid)
        else:
            m = max(c.s.support, default=0) + 1 + rng.randrange(4)
            invalid = [n for n in range(200) if not _valid_pair(c, n, m, TRANS)]
            exclusion = max(
                [avoidance_bound(c, TRANS), m + 1]
                + [TRANS.eval(h, m) + 1 for h in handles]
            )
            assert all(n < exclusion for n in invalid)
            for probe in (exclusion, 301, 997):
                assert _valid_pair(c, probe, m, TRANS)
            chosen = extend_range(c, m, TRANS).s.apply_inverse(m)
            assert chosen == min(n for n in range(200) if n not in invalid)
    print("criterion 7 (cofinite extension validity, 200 conditions): PASS")


def test_criterion_08_tree_diagonalization():
    oracle = trivial_oracle()
    trees = [FullInjectiveTree() for _ in range(5)]
    trees += [SparseCongruenceTree(seed=i) for i in range(5)]
    schedule = [WordAdded(x_power(1))]
    schedule += [TreeDiagonalized(tree) for tree in trees]
    schedule += [DomainHits(i) for i in range(16)]
    schedule += [RangeHits(i) for i in range(16)]
    trace = run(Flavor.PLAIN, None, schedule, oracle)
    stage = seal(trace, oracle)
    g = stage.injection.as_dict()

    truncations = []
    for step in trace.steps:
        if not isinstance(step.requirement, TreeDiagonalized):
            continue
        k = step.extra["witness_index"]
        branch = tuple(step.extra["witness_node"])[: k + 1]
        assert g[k] == branch[k]
        explicit = ExplicitTree.from_branch(branch)
        for node in explicit.nodes:
            assert step.requirement.tree.contains(node)
        truncations.append(explicit)

    assert len(truncations) == 10
    deepest = max(len(node) for t in truncations for node in t.nodes)
    assert deepest <= stage.window
    reports = verify_tightness_sample(stage, truncations)
    assert len(reports) == 10
    for report in reports:
        assert report["root_witness"] is not None
        assert report["densely_diagonalizes"]
        assert report["counterexample"] is None
    print("criterion 8 (tree diagonalization, 10 scheduled trees): PASS")


def test_criterion_09_staged_construction():
    started = time.monotonic()
    targets = [(1, 0, 1, 1), (1, 1, 0, 0), (1, 0, 0, 1)]
    stages = staged_run(targets)
    assert len(stages) == 3
    for i, stage in enumerate(stages):
        assert decode(stage.injection, "prime_parity", 3) == targets[i]
    for i in (1, 2):
        words_with_generators = [
            step.requirement.word
            for step in stages[i].trace.steps
            if isinstance(step.requirement, WordAdded)
            and any(letter.handle is not None for letter in step.requirement.word.letters)
        ]
        assert words_with_generators
        assert stages[i].trace.growth_events, f"stage {i} never grew the oracle"
    # the grown group stays genuinely overlapping: the second stage's words
    # evaluate through the first generator without dangling
    oracle = staged_oracle(stages[:1])
    gx = Word((group(oracle.generator(0)), X))
    graph = word_graph(gx, stages[1].injection, oracle)
    assert closed_orbits(graph)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"criterion 9 (staged construction, 3 stages, {elapsed:.2f}s): PASS")


def _replay_corpus() -> dict:
    """The traces criterion 10 forges, on the wire, by name."""
    trivial = trivial_oracle()
    stages = staged_run([(1,), (1,)])
    v = parse_word("g1.x.g1.x", TRANS)
    trees = [FullInjectiveTree(), SparseCongruenceTree(1)]
    builds = {
        "coding-auto-4": (run(Flavor.CODING, (1, 0, 1, 1), auto_schedule(Flavor.CODING, 4),
                              trivial), trivial),
        "coding-chained": (run(Flavor.CODING, (1, 0, 1, 1, 0, 1), [OrbitCoded(5)], trivial),
                           trivial),
        "dagger-translation": (run(Flavor.DAGGER, (1, 0, 1),
                                   [WordAdded(v)] + auto_schedule(Flavor.DAGGER, 3), TRANS), TRANS),
        "plain-trees": (run(Flavor.PLAIN, None, auto_schedule(Flavor.PLAIN, 3)
                            + [TreeDiagonalized(tree) for tree in trees], trivial), trivial),
        "stage-1": (stages[1].trace, staged_oracle(stages[:1])),
    }
    return {name: json.loads(json.dumps(trace_to_data(trace, oracle)))
            for name, (trace, oracle) in builds.items()}


def _delta_forgeries(data, step_index, fresh):
    """Each pair of a step's delta shifted on either side or dropped, and a fresh pair added."""
    for pair_index in range(len(data["steps"][step_index]["pairs"])):
        for side in (0, 1):
            broken = copy.deepcopy(data)
            broken["steps"][step_index]["pairs"][pair_index][side] += 1
            yield broken
        broken = copy.deepcopy(data)
        del broken["steps"][step_index]["pairs"][pair_index]
        yield broken
    broken = copy.deepcopy(data)
    # above every point, so the pairs stay in order
    broken["steps"][step_index]["pairs"].append([fresh, fresh + 1])
    yield broken


def _final_forgeries(data):
    """(forged trace, the step that adds the pair) per final pair shifted on either side."""
    for pair_index, pair in enumerate(data["final"]["injection"]):
        adds = next(i for i, step in enumerate(data["steps"]) if pair in step["pairs"])
        for side in (0, 1):
            broken = copy.deepcopy(data)
            broken["final"]["injection"][pair_index][side] += 1
            yield broken, adds


def test_criterion_10_replay_integrity(tmp_path, capsys):
    """A coding trace, one step chaining six closures, a dagger run over group letters, tree
    steps and a stage-1 trace, each forged one pair at a time; all under 5 s.

    A forged delta is refused at most one step past its own, or at the final
    comparison if it is the last; a forged final pair names "final", at its
    parse or at the step that adds the pair it no longer holds.
    """
    started = time.monotonic()
    mutations = 0
    for name, data in _replay_corpus().items():
        clean = tmp_path / f"{name}.json"
        clean.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["verify", str(clean)]) == 0, name
        capsys.readouterr()
        last = len(data["steps"]) - 1
        fresh = 1 + max(n for pair in data["final"]["injection"] for n in pair)
        for step_index in range(len(data["steps"])):
            for broken in _delta_forgeries(data, step_index, fresh):
                err = helpers.refusal(verify_trace_data, broken)
                numbered = re.match(r"step (\d+): ", err)
                if numbered:
                    assert int(numbered.group(1)) <= step_index + 1, (name, step_index, err)
                else:
                    # a drift in the last delta can surface only at the final comparison
                    assert step_index == last and err.startswith("final condition"), (name, err)
                mutations += 1
        for broken, adds in _final_forgeries(data):
            err = helpers.refusal(verify_trace_data, broken)
            assert "final" in err, (name, err)
            assert err.startswith((f"step {adds}: pair ", "malformed trace: final: ")), (name, err)
            mutations += 1
    elapsed = time.monotonic() - started
    assert mutations > 200
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 10 (replay integrity, {mutations} mutations, {elapsed:.2f}s): PASS")
