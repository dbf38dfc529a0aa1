"""Print how coding traces, and the work of verifying them, grow with n.

For each n, builds the coding `auto:n` run on the trivial oracle, bit i
being (7i + 3) mod 5 mod 2, and prints:

- `bytes`, the length of its trace as compact JSON (`separators=(",", ":")`);
- `inserted`, the pairs `PartialInjection._add` inserts while
  `verify_trace_data` replays that trace, against `final`, the pair count
  of the final condition;
- `build_ms`, the median over the runs of `engine.run` building it;
- `verify_ms`, the median over the runs of `json.loads` plus
  `verify_trace_data` on that text.

Each n is timed REPEATS times, or LARGE_REPEATS times from n = LARGE on.
Each of the four columns is followed by its ratio to the previous n, so a
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
tree walks (`forcing.many_extensions`) do while those inputs are built:

- `walk options`, the options they yield, beside PER_OPTION_OPTIONS, the
  figure when a walk checked each option with its own `leq` as it came: the
  walk itself is the same, so the two agree;
- `walk leq calls`, the `leq` calls made inside them, beside
  PER_OPTION_LEQ_CALLS, one per option then, one per walk now.

    python3 tools/growth_curve.py                     # n = 32, 64, ..., 4096

Run from the root of a checkout; the library is imported from `src/`.  It
takes about 12 s with CPython 3.11 on a 2-CPU host, most of it the n = 4096
builds and verifies.
"""

from __future__ import annotations

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
from orbitcode import words as W  # noqa: E402
from orbitcode.forcing import Flavor  # noqa: E402
from orbitcode.injections import PartialInjection  # noqa: E402
from orbitcode.oracle import trivial_oracle  # noqa: E402
from workloads import STAGED_STRATA, WORKLOADS, _triple  # noqa: E402

SIZES = (32, 64, 128, 256, 512, 1024, 2048, 4096)
REPEATS = 7
LARGE = 2048
LARGE_REPEATS = 3
VALIDATE_FIRST_LETTERS = 26_260
PER_WORD_LETTERS = 191_623
FRESH_FACTS_WORDS = 3_840
TREE_INPUTS = 4
TREE_SEED = 7
PER_OPTION_OPTIONS = 4_308
PER_OPTION_LEQ_CALLS = 4_308


def coding_text(n: int, repeats: int) -> tuple[str, int, float]:
    """The coding auto:n trace as compact JSON, its final pair count, and its median build time."""
    oracle = trivial_oracle()
    bits = tuple((7 * i + 3) % 5 % 2 for i in range(n))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        trace = E.run(Flavor.CODING, bits, E.auto_schedule(Flavor.CODING, n), oracle)
        times.append(time.perf_counter() - start)
    text = json.dumps(E.trace_to_data(trace, oracle), separators=(",", ":"))
    return text, len(trace.final.s), statistics.median(times)


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


def walk_counts() -> tuple[int, int]:
    """Options the tree walks yield, and leq calls inside them, as the trees-40 inputs build."""
    workload = WORKLOADS["trees-40"]
    leq, walk = F.leq, F.many_extensions
    inside = options = calls = 0

    def counting_leq(*args):
        nonlocal calls
        calls += inside
        return leq(*args)

    def counting_walk(*args):
        nonlocal inside, options
        inside += 1
        try:
            node, found = walk(*args)
        finally:
            inside -= 1
        options += len(found)
        return node, found

    F.leq, F.many_extensions = counting_leq, counting_walk
    try:
        for inp in workload.inputs(random.Random(TREE_SEED), TREE_INPUTS):
            workload.build(inp)
    finally:
        F.leq, F.many_extensions = leq, walk
    return options, calls


def main() -> int:
    print(f"{'n':>5} {'bytes':>9} {'x':>5} {'inserted':>9} {'final':>6} {'x':>5}"
          f" {'build_ms':>10} {'x':>5} {'verify_ms':>10} {'x':>5}")
    previous = None
    for n in SIZES:
        repeats = LARGE_REPEATS if n >= LARGE else REPEATS
        text, final, build = coding_text(n, repeats)
        verify = verify_seconds(text, repeats=repeats)
        row = (len(text), verify_insertions(text), build * 1000, verify * 1000)
        ratios = [f"{now / before:5.2f}" for now, before in zip(row, previous or row)]
        if previous is None:
            ratios = ["    -"] * 4
        print(f"{n:>5} {row[0]:>9} {ratios[0]} {row[1]:>9} {final:>6} {ratios[1]}"
              f" {row[2]:>10.2f} {ratios[2]} {row[3]:>10.2f} {ratios[3]}", flush=True)
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
    options, calls = walk_counts()
    print(f"\ntrees-40, {TREE_INPUTS} inputs of seed {TREE_SEED}:")
    print(f"  walk options {options:>7} (per-option walk {PER_OPTION_OPTIONS},"
          f" {options / PER_OPTION_OPTIONS:.3f}x)")
    print(f"  walk leq calls {calls:>5} (per-option walk {PER_OPTION_LEQ_CALLS},"
          f" {calls / PER_OPTION_LEQ_CALLS:.3f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
