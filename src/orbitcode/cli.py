"""Command line front end: run schedules, verify traces, decode injections.

Exit codes: 0 success, 1 failed run or failed verification, 2 usage errors
(bad flags, missing files, malformed inputs).
"""

from __future__ import annotations

import argparse
import json
import string
import sys
from pathlib import Path

from . import engine as E
from . import forcing as F
from . import injections as I
from . import oracle as O
from . import trees as T
from . import words as W
from .errors import OrbitCodeError, Refused


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def parse_bits(text: str) -> tuple[int, ...]:
    """A bit string, written in binary (10110) or hex (0x16)."""
    if text.lower().startswith("0x"):
        digits = text[2:]
        if not digits:
            raise ValueError("empty hex bit string")
        if any(ch not in string.hexdigits for ch in digits):
            raise ValueError(f"bits must be binary or 0x-hex, got {text!r}")
        return tuple(int(b) for b in bin(int(digits, 16))[2:].zfill(4 * len(digits)))
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"bits must be binary or 0x-hex, got {text!r}")
    return tuple(int(ch) for ch in text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_oracle(spec: str):
    if spec == "trivial":
        return O.trivial_oracle()
    if spec == "translation":
        return O.translation_oracle()
    if spec.startswith("staged:"):
        data = _load_json(spec[len("staged:") :])
        if isinstance(data, dict):
            data = data["stages"]
        return O.oracle_from_descriptor({"kind": "staged", "stages": data})
    raise ValueError(f"unknown oracle {spec!r} (trivial, translation, staged:<path>)")


def _count(text: str) -> int:
    """A flag's count: a natural number, written in decimal."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a count") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is a negative count")
    return value


def _build_schedule(args, flavor, oracle) -> list:
    """The requirements the run's flags ask for.

    A negative count or a word that reduces to the identity raises
    ValueError naming the flag and the value as written.
    """
    schedule: list = []
    if args.schedule is not None:
        if args.schedule.startswith("auto:"):
            n = int(args.schedule[len("auto:") :])
            if n < 0:
                raise ValueError(f"--schedule {args.schedule} is a negative count")
            schedule = E.auto_schedule(flavor, n)
        else:
            data = _load_json(args.schedule)
            if isinstance(data, dict):
                data = data["schedule"]
            schedule = [E.requirement_from_data(entry, oracle) for entry in data]
    if args.words:
        for token in args.words.split(","):
            token = token.strip()
            if token:
                word = W.parse_word(token, oracle)
                if word.is_identity:
                    raise ValueError(f"--words token {token!r} reduces to the identity")
                schedule.append(E.WordAdded(word))
    for _ in range(args.full_trees):
        schedule.append(E.TreeDiagonalized(T.FullInjectiveTree()))
    for i in range(args.sparse_trees):
        schedule.append(E.TreeDiagonalized(T.SparseCongruenceTree(args.seed + i)))
    return schedule


def _describe(req_data: dict) -> str:
    kind = req_data["kind"]
    if kind == "domain_hits":
        return f"domain_hits({req_data['n']})"
    if kind == "range_hits":
        return f"range_hits({req_data['m']})"
    if kind == "word_added":
        return f"word_added({req_data['word']})"
    if kind == "tree_diagonalized":
        return f"tree_diagonalized({req_data['tree']['kind']})"
    return f"orbit_coded({req_data['index']})"


def cmd_run(args) -> int:
    flavor = F.Flavor(args.flavor)
    if flavor is F.Flavor.PLAIN and args.bits is not None:
        return _fail("plain runs take no --bits", 2)
    if flavor is not F.Flavor.PLAIN and args.bits is None:
        return _fail(f"{flavor.value} runs need --bits", 2)
    try:
        bits = () if args.bits is None else parse_bits(args.bits)
    except ValueError as exc:
        return _fail(str(exc), 2)
    try:
        oracle = _load_oracle(args.oracle)
    except (OSError, ValueError, KeyError, TypeError, OrbitCodeError) as exc:
        return _fail(f"cannot load oracle: {exc}", 2)
    try:
        schedule = _build_schedule(args, flavor, oracle)
    except (OSError, ValueError, KeyError, TypeError, OrbitCodeError) as exc:
        return _fail(f"cannot build schedule: {exc}", 2)
    if not schedule:
        return _fail("empty schedule: give --schedule, --words, or trees", 2)
    try:
        trace = E.run(flavor, bits, schedule, oracle)
    except OrbitCodeError as exc:
        return _fail(str(exc), 1)
    data = E.trace_to_data(trace, oracle)
    out = Path(args.out)
    out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    for step in trace.steps:
        req = E.requirement_to_data(step.requirement, oracle)
        print(f"step {step.index}: {_describe(req)} {step.op} ok")
    for event in trace.growth_events:
        print(f"growth at step {event['step']} (needed {event['required']})")
    if trace.decoded:
        print("decoded: " + "".join(str(b) for b in trace.decoded))
    print(f"trace written to {out}")
    return 0


def cmd_verify(args) -> int:
    try:
        data = _load_json(args.trace)
    except OSError as exc:
        return _fail(f"cannot read trace: {exc}", 2)
    except json.JSONDecodeError as exc:
        return _fail(f"not JSON: {exc}", 2)
    try:
        E.verify_trace_data(data)
    except Refused as exc:
        return _fail(f"verification failed: {exc}", 1)
    print(f"ok: {len(data.get('steps', []))} steps verified")
    return 0


def cmd_decode(args) -> int:
    try:
        data = _load_json(args.source)
    except OSError as exc:
        return _fail(f"cannot read input: {exc}", 2)
    except json.JSONDecodeError as exc:
        return _fail(f"not JSON: {exc}", 2)
    if not (isinstance(data, dict) and ("final" in data or "cycles" in data)):
        return _fail("input holds neither a trace nor a stage", 2)
    try:
        if "final" in data:
            s = I.injection_from_pairs(data["final"]["injection"])
        else:
            s = I.PartialInjection(I.pairs_from_cycles(data["cycles"]))
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"malformed injection: {exc}", 2)
    try:
        bits = E.decode(s, args.mode, args.upto)
    except ValueError as exc:
        return _fail(str(exc), 2)
    except OrbitCodeError as exc:
        return _fail(str(exc), 1)
    print("".join(str(b) for b in bits))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcode",
        description="build, verify, and decode orbit-coded partial injections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="meet a schedule of requirements")
    runp.add_argument("--flavor", required=True, choices=["plain", "coding", "dagger"])
    runp.add_argument("--bits", help="target bits, binary (10110) or hex (0x16)")
    runp.add_argument(
        "--oracle",
        default="trivial",
        help="trivial, translation, or staged:<stages.json>",
    )
    runp.add_argument(
        "--schedule", help="auto:N for the stock schedule, or a JSON schedule file"
    )
    runp.add_argument("--words", help="comma-separated words to adjoin, e.g. x^2,x^3")
    runp.add_argument("--full-trees", type=_count, default=0, dest="full_trees")
    runp.add_argument("--sparse-trees", type=_count, default=0, dest="sparse_trees")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--out", default="trace.json")
    runp.set_defaults(handler=cmd_run)

    verifyp = sub.add_parser("verify", help="replay and recheck a trace file")
    verifyp.add_argument("trace")
    verifyp.set_defaults(handler=cmd_verify)

    decodep = sub.add_parser("decode", help="read bits out of a trace or stage file")
    decodep.add_argument("source")
    decodep.add_argument(
        "--mode", required=True, choices=["orbit_order", "prime_parity"]
    )
    decodep.add_argument("--upto", type=int, default=None)
    decodep.set_defaults(handler=cmd_decode)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
