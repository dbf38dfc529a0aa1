"""Digest every staged trace of a fixed draw, to show a change left them byte-identical.

Builds and verifies two sets of runs and prints one sha256 per run, then a
combined one over all of them:

- the 193 staged triples of the benchmark README's draw: `random.Random(20261017)`,
  `randrange(4096)` each, repeats skipped, written as three hex digits, one
  per 4-bit stage target.  Each triple's digest covers the compact JSON of
  its three stage traces, each verified; a triple whose `staged_run` raises
  (b91 does) is digested by its error's type and text instead;
- 27 plain tree runs over the staged oracle of triples 052, 488 and 512:
  three word sets with group letters, each with two steps on a full, a
  sparse(1) or a sparse(2, 5) tree, then domain and range hits 0..3, on
  fresh stages per run.  Five of them stop at a window the engine's one
  growth per step does not settle, and are digested by their error.

    python3 tools/trace_digests.py            # print the digests
    python3 tools/trace_digests.py --check    # compare with tools/trace_digests.txt

Run from the root of a checkout; the library is imported from `src/`.  It
takes about 25 s with CPython 3.11 on a 2-CPU host, and CI runs `--check`
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


def runs():
    """(label, digest thunk) per run, in the pinned file's order."""
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", help=f"compare with {PINNED.name}")
    args = parser.parse_args(argv)
    lines = []
    for label, digest in runs():
        line = f"{label} {digest()}"
        lines.append(line)
        if not args.check:
            print(line, flush=True)
    combined = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    lines.append(f"combined {combined}")
    if not args.check:
        print(lines[-1])
        return 0
    pinned = PINNED.read_text().splitlines()
    if pinned == lines:
        print(f"ok: {len(lines) - 1} runs, combined {combined}")
        return 0
    by_label = dict(line.split(" ", 1) for line in pinned)
    for line in lines:
        label, digest = line.split(" ", 1)
        if by_label.get(label) != digest:
            print(f"differs: {label}")
    if len(pinned) != len(lines):
        print(f"{len(pinned) - 1} runs pinned, {len(lines) - 1} run")
    return 1


if __name__ == "__main__":
    sys.exit(main())
