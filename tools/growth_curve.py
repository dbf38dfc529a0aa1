"""Print how coding traces, and the work of verifying them, grow with n.

For each n, builds the coding `auto:n` run on the trivial oracle, bit i
being (7i + 3) mod 5 mod 2, and prints:

- `bytes`, the length of its trace as compact JSON (`separators=(",", ":")`);
- `inserted`, the pairs `PartialInjection._add` inserts while
  `verify_trace_data` replays that trace, against `final`, the pair count
  of the final condition;
- `build_ms`, the median over the runs of `engine.run` building it;
- `paused_ms`, the same with the cyclic garbage collector paused
  (`gc.disable()`), so the time the collector spends traversing what a
  build allocates shows apart from the build's own growth;
- `verify_ms`, the median over the runs of `json.loads` plus
  `verify_trace_data` on that text;
- `checks`, the `forcing._admissible` calls of one more build, untimed, and
  `unlinks`, the `_OrbitIndex.unlink` calls in it: n + 2 and 1, since an
  isolated point closes as a one-point path with no scan for its image
  (2n and n - 1 while a scan of its own anchored it).

Each n is timed REPEATS times, or LARGE_REPEATS times from n = LARGE on.
Each of the five columns before `checks` is followed by its ratio to the previous n, so a
linear column reads about 2.0 per doubling and a quadratic one about 4.0.

Then, over the 40 triples of the staged-3 benchmark pool (`STAGED_STRATA` in
`bench/workloads.py`, built as that workload builds them), it prints the
letters of the words handed to `words.evaluate`:

- `build letters`, while the pool is built, beside VALIDATE_FIRST_LETTERS,
  the figure when the build validated each candidate before the order check
  and so evaluated its roots twice;
- `verify letters`, while `verify_trace_data` replays their 120 stage
  traces, beside PER_WORD_LETTERS, the figure when the order check
  evaluated every word of E and not only its roots;
- `verify facts words`, the words whose facts (`forcing._WordFacts`) that
  replay examines, beside FRESH_FACTS_WORDS, the figure when each word set's
  facts were derived from scratch and not from a kept subset's;

and `verify_s`, the median over REPEATS runs of verifying them all.

Last, over TREE_INPUTS trees-40 inputs (`bench/workloads.py`, drawn from
`random.Random(TREE_SEED)` as that workload draws them), it prints what the
tree steps (`forcing.tree_extend`) do while those inputs are built:

- `tree steps`, how many there are;
- `pick options`, the options their picks (`forcing.many_extensions`)
  yield, one per step, beside WALK_OPTIONS, the figure when a step walked
  its tree one depth at a time and yielded an option at every depth
  outside the domain;
- `step leq calls`, the `leq` calls made inside the steps, one per step,
  beside PER_OPTION_LEQ_CALLS, the figure when the walk checked each
  option with its own `leq` as it came;

and what their seals (`engine.seal`) do:

- `seal fresh checks`, the `forcing._fresh_point_ok` calls, beside
  PER_CLOSURE_FRESH_CHECKS, the figure on the same runs when every
  closure's chain scan started again at the gap;
- `seal path walks`, the `_OrbitIndex.paths` calls, beside
  PER_CLOSURE_PATH_WALKS, the figure on the same runs when the seal listed
  the open paths again for every closure.

Last, for TREE_RUNS trees, 40 to 640 (as trees-40 builds its 40, the
seeds drawn from `random.Random(TREE_SEED)`), it builds the run and seals
it REPEATS times, or LARGE_REPEATS times past TREE_LARGE trees, and prints:

- `build_ms`, the median time of `engine.run` building it;
- `seal_ms`, the median time of `engine.seal` sealing it;
- `verify_ms`, the median time of `json.loads` plus `verify_trace_data` on
  the run's trace as compact JSON;
- `bytes`, the length of that text;

each with its ratio to the previous count of trees.  No run is built that
is not reported.

    python3 tools/growth_curve.py                     # n = 32, 64, ..., 4096

Run from the root of a checkout; the library is imported from `src/`.  It
takes about 10 s with CPython 3.11 on a 2-CPU host, most of it the n = 4096
builds and verifies and the staged-3 pool.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from orbitcode import engine as E  # noqa: E402
from orbitcode import forcing as F  # noqa: E402
from orbitcode import trees as T  # noqa: E402
from orbitcode import words as W  # noqa: E402
from orbitcode.forcing import Flavor  # noqa: E402
from orbitcode.injections import PartialInjection, _OrbitIndex  # noqa: E402
from orbitcode.oracle import trivial_oracle  # noqa: E402
from workloads import STAGED_STRATA, TREE_HITS, WORKLOADS, _triple  # noqa: E402

SIZES = (32, 64, 128, 256, 512, 1024, 2048, 4096)
REPEATS = 7
LARGE = 2048
LARGE_REPEATS = 3
VALIDATE_FIRST_LETTERS = 26_260
PER_WORD_LETTERS = 191_623
FRESH_FACTS_WORDS = 3_840
TREE_INPUTS = 4
TREE_SEED = 7
WALK_OPTIONS = 4_308
PER_OPTION_LEQ_CALLS = 4_308
# on the runs the direct tree pick builds; 3,975 and 113 on those the
# depth-by-depth walk built
PER_CLOSURE_FRESH_CHECKS = 4_857
PER_CLOSURE_PATH_WALKS = 82
TREE_RUNS = (40, 80, 160, 320, 640)
TREE_LARGE = 160


def coding_text(n: int, repeats: int) -> tuple[str, int, float, float]:
    """The coding auto:n trace as compact JSON, its final pair count, and its median build
    times with the garbage collector running and paused."""
    oracle = trivial_oracle()
    bits = tuple((7 * i + 3) % 5 % 2 for i in range(n))
    medians = []
    for paused in (False, True):
        times = []
        if paused:
            gc.disable()
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                trace = E.run(Flavor.CODING, bits, E.auto_schedule(Flavor.CODING, n), oracle)
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        medians.append(statistics.median(times))
    text = json.dumps(E.trace_to_data(trace, oracle), separators=(",", ":"))
    return text, len(trace.final.s), *medians


def coding_checks(n: int) -> tuple[int, int]:
    """The _admissible calls and orbit-index unlinks of one coding auto:n build."""
    admissible, unlink = F._admissible, _OrbitIndex.unlink
    checks = unlinks = 0

    def counting_admissible(*args):
        nonlocal checks
        checks += 1
        return admissible(*args)

    def counting_unlink(*args):
        nonlocal unlinks
        unlinks += 1
        return unlink(*args)

    F._admissible, _OrbitIndex.unlink = counting_admissible, counting_unlink
    try:
        bits = tuple((7 * i + 3) % 5 % 2 for i in range(n))
        E.run(Flavor.CODING, bits, E.auto_schedule(Flavor.CODING, n), trivial_oracle())
    finally:
        F._admissible, _OrbitIndex.unlink = admissible, unlink
    return checks, unlinks


def verify_insertions(text: str) -> int:
    """The pairs PartialInjection._add inserts while verify_trace_data replays text."""
    add = PartialInjection._add
    inserted = 0

    def counting(self, pairs):
        nonlocal inserted
        new = add(self, pairs)
        inserted += len(new)
        return new

    PartialInjection._add = counting
    try:
        E.verify_trace_data(json.loads(text))
    finally:
        PartialInjection._add = add
    return inserted


def verify_seconds(*texts: str, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for text in texts:
            E.verify_trace_data(json.loads(text))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def staged_texts() -> list[str]:
    """The compact JSON of every stage trace of the staged-3 pool's triples."""
    workload = WORKLOADS["staged-3"]
    texts = []
    for code in " ".join(STAGED_STRATA).split():
        built = workload.build({"targets": _triple(code)})
        texts += [
            json.dumps(E.trace_to_data(trace, oracle), separators=(",", ":"))
            for trace, oracle in built.traces
        ]
    return texts


def evaluated_letters(action):
    """What action() returns, and the letters of the words handed to words.evaluate as it runs."""
    evaluate = W.evaluate
    letters = 0

    def counting(w, s, oracle, n, stuck=None):
        nonlocal letters
        letters += len(w)
        return evaluate(w, s, oracle, n, stuck)

    W.evaluate = counting
    try:
        result = action()
    finally:
        W.evaluate = evaluate
    return result, letters


def examined_words(action) -> int:
    """The words forcing._WordFacts examines as action() runs: those a word set adds to its base."""
    derive = F._WordFacts.__init__
    examined = 0

    def counting(self, words, oracle, base=None):
        nonlocal examined
        examined += len(words) - (len(base.words) if base else 0)
        derive(self, words, oracle, base)

    F._WordFacts.__init__ = counting
    try:
        action()
    finally:
        F._WordFacts.__init__ = derive
    return examined


def pick_and_seal_counts() -> tuple[int, int, int, int, int]:
    """As the trees-40 inputs build: tree steps, the options their picks yield and the leq
    calls inside them, then fresh-point checks and open-path walks inside the seals."""
    workload = WORKLOADS["trees-40"]
    leq, step, pick, seal = F.leq, F.tree_extend, F.many_extensions, E.seal
    fresh_point_ok, paths = F._fresh_point_ok, _OrbitIndex.paths
    inside = steps = options = calls = sealing = fresh = walks = 0

    def counting_leq(*args):
        nonlocal calls
        calls += inside
        return leq(*args)

    def counting_step(*args):
        nonlocal inside, steps
        inside += 1
        steps += 1
        try:
            return step(*args)
        finally:
            inside -= 1

    def counting_pick(*args):
        nonlocal options
        node, found = pick(*args)
        options += len(found)
        return node, found

    def counting_seal(*args):
        nonlocal sealing
        sealing += 1
        try:
            return seal(*args)
        finally:
            sealing -= 1

    def counting_fresh(*args):
        nonlocal fresh
        fresh += sealing
        return fresh_point_ok(*args)

    def counting_paths(*args):
        nonlocal walks
        walks += sealing
        return paths(*args)

    F.leq, F.tree_extend, F.many_extensions, E.seal = (
        counting_leq, counting_step, counting_pick, counting_seal
    )
    F._fresh_point_ok, _OrbitIndex.paths = counting_fresh, counting_paths
    try:
        for inp in workload.inputs(random.Random(TREE_SEED), TREE_INPUTS):
            workload.build(inp)
    finally:
        F.leq, F.tree_extend, F.many_extensions, E.seal = leq, step, pick, seal
        F._fresh_point_ok, _OrbitIndex.paths = fresh_point_ok, paths
    return steps, options, calls, fresh, walks


def tree_run_row(trees: int) -> tuple[float, float, float, int]:
    """Median build, seal and verify times of the run of `trees` trees, built as trees-40
    builds its 40, and the length of its trace as compact JSON."""
    rng = random.Random(TREE_SEED)
    schedule = [E.WordAdded(W.x_power(1))]
    for seed in [rng.randrange(1 << 30) for _ in range(trees // 2)]:
        schedule += [E.TreeDiagonalized(T.FullInjectiveTree()),
                     E.TreeDiagonalized(T.SparseCongruenceTree(seed))]
    schedule += [E.DomainHits(i) for i in range(TREE_HITS)]
    schedule += [E.RangeHits(i) for i in range(TREE_HITS)]
    repeats = LARGE_REPEATS if trees > TREE_LARGE else REPEATS
    builds, seals = [], []
    for _ in range(repeats):
        oracle = trivial_oracle()
        start = time.perf_counter()
        trace = E.run(Flavor.PLAIN, None, schedule, oracle)
        builds.append(time.perf_counter() - start)
        start = time.perf_counter()
        E.seal(trace, oracle)
        seals.append(time.perf_counter() - start)
    # the trivial oracle never grows, so the seal adds no growth event to the trace
    text = json.dumps(E.trace_to_data(trace, oracle), separators=(",", ":"))
    verify = verify_seconds(text, repeats=repeats)
    return statistics.median(builds), statistics.median(seals), verify, len(text)


def main() -> int:
    print(f"{'n':>5} {'bytes':>9} {'x':>5} {'inserted':>9} {'final':>6} {'x':>5}"
          f" {'build_ms':>10} {'x':>5} {'paused_ms':>10} {'x':>5} {'verify_ms':>10} {'x':>5}"
          f" {'checks':>7} {'unlinks':>7}")
    previous = None
    for n in SIZES:
        repeats = LARGE_REPEATS if n >= LARGE else REPEATS
        text, final, build, paused = coding_text(n, repeats)
        verify = verify_seconds(text, repeats=repeats)
        row = (len(text), verify_insertions(text), build * 1000, paused * 1000, verify * 1000)
        checks, unlinks = coding_checks(n)
        ratios = [f"{now / before:5.2f}" for now, before in zip(row, previous or row)]
        if previous is None:
            ratios = ["    -"] * 5
        print(f"{n:>5} {row[0]:>9} {ratios[0]} {row[1]:>9} {final:>6} {ratios[1]}"
              f" {row[2]:>10.2f} {ratios[2]} {row[3]:>10.2f} {ratios[3]}"
              f" {row[4]:>10.2f} {ratios[4]} {checks:>7} {unlinks:>7}", flush=True)
        previous = row
    texts, built = evaluated_letters(staged_texts)
    _, verified = evaluated_letters(lambda: [E.verify_trace_data(json.loads(t)) for t in texts])
    print(f"\nstaged-3 pool, {len(texts)} stage traces:")
    print(f"  build letters {built:>7} (validate first {VALIDATE_FIRST_LETTERS},"
          f" {built / VALIDATE_FIRST_LETTERS:.3f}x)")
    print(f"  verify letters {verified:>6} (per word {PER_WORD_LETTERS},"
          f" {verified / PER_WORD_LETTERS:.3f}x), verify_s {verify_seconds(*texts):.3f}")
    examined = examined_words(lambda: [E.verify_trace_data(json.loads(t)) for t in texts])
    print(f"  verify facts words {examined:>5} (from scratch {FRESH_FACTS_WORDS},"
          f" {examined / FRESH_FACTS_WORDS:.3f}x)")
    steps, options, calls, fresh, walks = pick_and_seal_counts()
    print(f"\ntrees-40, {TREE_INPUTS} inputs of seed {TREE_SEED}:")
    print(f"  tree steps {steps:>9}")
    print(f"  pick options {options:>7} (depth-by-depth walk {WALK_OPTIONS},"
          f" {options / WALK_OPTIONS:.3f}x)")
    print(f"  step leq calls {calls:>5} (per-option walk {PER_OPTION_LEQ_CALLS},"
          f" {calls / PER_OPTION_LEQ_CALLS:.3f}x)")
    print(f"  seal fresh checks {fresh:>4} (per-closure seal {PER_CLOSURE_FRESH_CHECKS},"
          f" {fresh / PER_CLOSURE_FRESH_CHECKS:.3f}x)")
    print(f"  seal path walks {walks:>6} (per-closure seal {PER_CLOSURE_PATH_WALKS},"
          f" {walks / PER_CLOSURE_PATH_WALKS:.3f}x)")
    print(f"\n{'trees':>5} {'build_ms':>10} {'x':>5} {'seal_ms':>9} {'x':>5}"
          f" {'verify_ms':>10} {'x':>5} {'bytes':>9} {'x':>5}")
    previous = None
    for trees in TREE_RUNS:
        build, seal, verify, size = tree_run_row(trees)
        row = (build * 1000, seal * 1000, verify * 1000, size)
        ratios = [f"{now / before:5.2f}" for now, before in zip(row, previous or row)]
        if previous is None:
            ratios = ["    -"] * 4
        print(f"{trees:>5} {row[0]:>10.2f} {ratios[0]} {row[1]:>9.2f} {ratios[1]}"
              f" {row[2]:>10.2f} {ratios[2]} {row[3]:>9} {ratios[3]}", flush=True)
        previous = row
    return 0


if __name__ == "__main__":
    sys.exit(main())
