"""Digest fixed builds' traces, to show a change left them byte-identical.

Builds and verifies two groups of runs and prints one sha256 per run.  Each
group ends with a sha256 over its lines, `combined` for the staged group:

- the 193 staged triples of the benchmark README's draw: `random.Random(20261017)`,
  `randrange(4096)` each, repeats skipped, written as three hex digits, one
  per 4-bit stage target.  Each triple's digest covers the compact JSON of
  its three stage traces, each verified; a triple whose `staged_run` raises
  (b91 does) is digested by its error's type and text instead;
- 27 plain tree runs over the staged oracle of triples 052, 488 and 512:
  three word sets with group letters, each with two steps on a full, a
  sparse(1) or a sparse(2, 5) tree, then domain and range hits 0..3, on
  fresh stages per run.  Each tree step takes the least index outside the
  map's domain and the least value its tree admits there past the
  avoidance bound, so these digests moved when that pick replaced the
  depth-by-depth walk, and tree-488-words2-full, which the walk drove to
  a window the engine's one growth per step did not settle, now builds.

and `combined-closure` for the closure group, which pins the orbit closures
on single oracles.  Each of its digests covers the compact JSON of the
verified trace and of `stage_to_data(seal(...))` of it:

- coding `auto:n` runs for n = 32, 64, 128 and 256 on the trivial oracle,
  bit i being (7i + 3) mod 5 mod 2;
- dagger `auto:n` runs for n = 3..6 on the trivial and translation oracles,
  with the same bits;
- dagger runs on the translation oracle that adjoin g1.x.g1.x and
  g-2.x.g1.x before `auto:n`, for bits 101, 0110 and 110101, so strong
  closures walk group letters and sealing closes orbits past handles.

    python3 tools/trace_digests.py            # print the digests
    python3 tools/trace_digests.py --check    # compare with tools/trace_digests.txt

The digests cover the traces as the current format version writes them
(its `conventions` included), so a format bump re-pins every line but
triple-b91, digested by its error; format version 9, whose tree steps
write no witness node, did, and so did format version 10, whose steps
write no `upper_sum`.  A change to which pair a step picks re-pins only the
runs that make such steps, as the direct tree pick re-pinned the tree lines.

Run from the root of a checkout; the library is imported from `src/`.  It
takes 6 to 9 s with CPython 3.11 on a 2-CPU host, and CI runs `--check`
in the tier-1 job.  `--check` exits 1 and names the runs whose digest
differs from the pinned file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orbitcode import engine as E  # noqa: E402
from orbitcode import oracle as O  # noqa: E402
from orbitcode import trees as T  # noqa: E402
from orbitcode import words as W  # noqa: E402
from orbitcode.errors import OrbitCodeError  # noqa: E402
from orbitcode.forcing import Flavor  # noqa: E402
from orbitcode.oracle import stage_to_data  # noqa: E402

PINNED = Path(__file__).resolve().parent / "trace_digests.txt"
DRAW_SEED = 20261017
TRIPLES = 193
TREE_TRIPLES = ("052", "488", "512")
TREE_WORDS = (("x", "g0.x"), ("g1.x", "g2^-1.x"), ("x", "g0*1.x", "g2.x"))
TREES = (
    ("full", lambda: T.FullInjectiveTree()),
    ("sparse1", lambda: T.SparseCongruenceTree(1)),
    ("sparse2m5", lambda: T.SparseCongruenceTree(2, 5)),
)
CODING_SIZES = (32, 64, 128, 256)
DAGGER_SIZES = (3, 4, 5, 6)
DAGGER_ORACLES = (("trivial", O.trivial_oracle), ("translation", O.translation_oracle))
WORD_FIRST = ("g1.x.g1.x", "g-2.x.g1.x")
WORD_FIRST_BITS = ("101", "0110", "110101")


def drawn_triples() -> list[str]:
    rng = random.Random(DRAW_SEED)
    codes: list[str] = []
    while len(codes) < TRIPLES:
        code = f"{rng.randrange(4096):03x}"
        if code not in codes:
            codes.append(code)
    return codes


def targets(code: str) -> tuple[tuple[int, ...], ...]:
    value = int(code, 16)
    return tuple(tuple((value >> (4 * (2 - k) + 3 - j)) & 1 for j in range(4)) for k in range(3))


def _verified_text(trace, oracle) -> str:
    data = E.trace_to_data(trace, oracle)
    E.verify_trace_data(json.loads(json.dumps(data)))
    return json.dumps(data, separators=(",", ":"))


def _digest(build) -> str:
    """sha256 of the text build() returns, or of the library error it raises."""
    try:
        text = build()
    except OrbitCodeError as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def triple_text(code: str) -> str:
    stages = E.staged_run(targets(code))
    return "\n".join(
        _verified_text(stage.trace, O.StagedOracle(stages[:i])) for i, stage in enumerate(stages)
    )


def tree_text(code: str, texts: tuple[str, ...], make_tree) -> str:
    oracle = O.StagedOracle(E.staged_run(targets(code)))
    schedule = [E.WordAdded(W.parse_word(text, oracle)) for text in texts]
    schedule += [E.TreeDiagonalized(make_tree()) for _ in range(2)]
    for i in range(4):
        schedule += [E.DomainHits(i), E.RangeHits(i)]
    return _verified_text(E.run(Flavor.PLAIN, None, schedule, oracle), oracle)


def bits_of(n: int) -> tuple[int, ...]:
    return tuple((7 * i + 3) % 5 % 2 for i in range(n))


def sealed_text(flavor, bits, make_oracle, texts) -> str:
    """The verified run adjoining `texts`, then auto:len(bits), and the stage seal makes of it."""
    oracle = make_oracle()
    schedule = [E.WordAdded(W.parse_word(text, oracle)) for text in texts]
    schedule += E.auto_schedule(flavor, len(bits))
    trace = E.run(flavor, bits, schedule, oracle)
    sealed = stage_to_data(E.seal(trace, oracle))
    return _verified_text(trace, oracle) + "\n" + json.dumps(sealed, separators=(",", ":"))


def closure_runs():
    """(label, digest thunk) per run of the closure group."""
    builds = [(f"coding-{n}", Flavor.CODING, bits_of(n), O.trivial_oracle, ()) for n in CODING_SIZES]
    builds += [
        (f"dagger-{n}-{name}", Flavor.DAGGER, bits_of(n), make_oracle, ())
        for name, make_oracle in DAGGER_ORACLES
        for n in DAGGER_SIZES
    ]
    builds += [
        (f"dagger-words-{bits}", Flavor.DAGGER, tuple(map(int, bits)), O.translation_oracle,
         WORD_FIRST)
        for bits in WORD_FIRST_BITS
    ]
    for label, *args in builds:
        yield label, lambda args=args: _digest(lambda: sealed_text(*args))


def staged_runs():
    """(label, digest thunk) per run of the staged group."""
    for code in drawn_triples():
        yield f"triple-{code}", lambda code=code: _digest(lambda: triple_text(code))
    for code in TREE_TRIPLES:
        for w, texts in enumerate(TREE_WORDS):
            for name, make_tree in TREES:
                yield (
                    f"tree-{code}-words{w}-{name}",
                    lambda code=code, texts=texts, make_tree=make_tree: _digest(
                        lambda: tree_text(code, texts, make_tree)
                    ),
                )


GROUPS = (("combined", staged_runs), ("combined-closure", closure_runs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", help=f"compare with {PINNED.name}")
    args = parser.parse_args(argv)
    lines, summary = [], []
    for name, runs in GROUPS:
        group = []
        for label, digest in runs():
            group.append(f"{label} {digest()}")
            if not args.check:
                print(group[-1], flush=True)
        combined = hashlib.sha256("\n".join(group).encode()).hexdigest()
        lines += group + [f"{name} {combined}"]
        summary.append(f"{len(group)} runs, {name} {combined}")
        if not args.check:
            print(lines[-1], flush=True)
    if not args.check:
        return 0
    pinned = PINNED.read_text().splitlines()
    if pinned == lines:
        print(f"ok: {'; '.join(summary)}")
        return 0
    by_label = dict(line.split(" ", 1) for line in pinned)
    for line in lines:
        label, digest = line.split(" ", 1)
        if by_label.get(label) != digest:
            print(f"differs: {label}")
    if len(pinned) != len(lines):
        print(f"{len(pinned)} lines pinned, {len(lines)} written")
    return 1


if __name__ == "__main__":
    sys.exit(main())
