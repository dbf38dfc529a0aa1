"""Spans at orbitcode's module boundaries, installed from outside the package.

`Tracer.active()` swaps the public functions (and a few methods) of each
orbitcode module for timing wrappers and puts the originals back on exit, so
untraced operations in the same process run the library untouched.  Every
wrapped call records a span: name, start, end, parent span and operation id.
The hot leaves (close to a million calls per operation) get no span of their
own; their calls and time are summed per enclosing span instead.  A span's
self time is its duration minus the time of every wrapped call directly
inside it, hot leaves included.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from orbitcode import cli, engine, forcing, injections, oracle, trees, words
from orbitcode.errors import WindowTooSmall

HOT = (
    "words.evaluate", "words.reduce", "words.format_word", "oracle.eval", "injections.with_pair"
)

# (owner, attribute, span name); a name shared by several owners (the eval of
# each oracle class) is one layer entry
TARGETS = [
    *(
        (engine, attr, f"engine.{attr}")
        for attr in ("run", "seal", "staged_run", "trace_to_data", "verify_trace_data")
    ),
    *(
        (forcing, attr, f"forcing.{attr}")
        for attr in (
            "validate", "leq", "extend_domain", "extend_range", "avoidance_bound",
            "many_extensions", "tree_extend", "close_orbit", "code_next_orbit",
            "strong_close_orbit", "add_word", "close_all_orbits", "condition_to_data",
            "condition_from_data", "certificate_to_data", "verify_certificate_data",
        )
    ),
    *(
        (injections, attr, f"injections.{attr}")
        for attr in ("orbit_decomposition", "fixed_points", "word_graph")
    ),
    (injections.PartialInjection, "with_pair", "injections.with_pair"),
    *(
        (words, attr, f"words.{attr}")
        for attr in ("evaluate", "reduce", "format_word", "parse_word")
    ),
    *(
        (cls, attr, f"oracle.{attr}")
        for cls in (oracle.TrivialOracle, oracle.TranslationOracle, oracle.StagedOracle)
        for attr in ("eval", "fixed_points")
    ),
    (oracle.StagedOracle, "grow_window", "oracle.grow_window"),
    *(
        (cls, "extend_avoiding", "trees.extend_avoiding")
        for cls in (trees.FullInjectiveTree, trees.SparseCongruenceTree, trees.ExplicitTree)
    ),
    (cli, "main", "cli.main"),
]


class Tracer:
    """Spans and leaf sums for the operations run under `active()`."""

    def __init__(self):
        # span: [name, start, end, parent span, op, self time, outermost, raised]
        self.spans: list[list] = []
        # (leaf name, enclosing span) -> [calls, time, self time]
        self.leaves: dict[tuple[str, int], list] = {}
        self.window_misses: dict[int, int] = defaultdict(int)
        self.window_final: dict[int, int] = {}
        self.options: dict[int, int] = defaultdict(int)
        self.op = -1
        # frame: [name, time of wrapped calls inside, enclosing span]
        self._stack: list[list] = [["op", 0.0, -1]]
        self._depth: dict[str, int] = defaultdict(int)

    @contextmanager
    def active(self, op: int):
        """Trace one operation: wrap every target, restore them afterwards."""
        self.op = op
        saved = []
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        if name in HOT:
            leaves = self.leaves
            counts_misses = name == "oracle.eval"

            def leaf(*args, **kwargs):
                parent = stack[-1]
                frame = [name, 0.0, parent[2]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except WindowTooSmall:
                    if counts_misses:
                        self.window_misses[self.op] += 1
                    raise
                finally:
                    duration = clock() - start
                    stack.pop()
                    parent[1] += duration
                    entry = leaves.get((name, frame[2]))
                    if entry is None:
                        leaves[(name, frame[2])] = [1, duration, duration - frame[1]]
                    else:
                        entry[0] += 1
                        entry[1] += duration
                        entry[2] += duration - frame[1]

            return leaf

        spans = self.spans

        def span(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            record = [name, 0.0, 0.0, parent[2], self.op, 0.0, depth[name] == 0, True]
            spans.append(record)
            frame = [name, 0.0, index]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                record[7] = False
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                parent[1] += end - start
                record[1], record[2], record[5] = start, end, end - start - frame[1]
            if name == "oracle.grow_window":
                self.window_final[self.op] = result
            elif name == "forcing.many_extensions":
                self.options[self.op] += len(result[1])
            return result

        return span

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, outermost time, self time, and calls by parent name."""
        out: dict[str, dict] = {}

        def entry(name):
            if name not in out:
                out[name] = {
                    "calls": 0, "s": 0.0, "self_s": 0.0, "ok": 0, "by_parent": defaultdict(int)
                }
            return out[name]

        for name, start, end, parent, _op, self_s, outer, raised in self.spans:
            e = entry(name)
            e["calls"] += 1
            e["self_s"] += self_s
            if outer:
                e["s"] += end - start
            if not raised:
                e["ok"] += 1
            e["by_parent"][self.spans[parent][0] if parent >= 0 else "op"] += 1
        for (name, parent), (calls, total, self_s) in self.leaves.items():
            e = entry(name)
            e["calls"] += calls
            e["s"] += total
            e["self_s"] += self_s
            e["by_parent"][self.spans[parent][0] if parent >= 0 else "op"] += calls
        return out

    def parent_time(self, names: tuple[str, ...], parent_name: str) -> float:
        """Time of spans called with the given names directly from `parent_name`."""
        return sum(
            end - start
            for name, start, end, parent, *_ in self.spans
            if name in names and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, leaf sums attached to their span."""
        leaves_by_span: dict[int, dict] = defaultdict(dict)
        for (name, parent), (calls, total, _self) in self.leaves.items():
            leaves_by_span[parent][name] = [calls, total]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                name, start, end, parent, op, _self, _outer, raised = span
                record = {
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }
                if raised:
                    record["raised"] = True
                if index in leaves_by_span:
                    record["leaves"] = leaves_by_span[index]
                handle.write(json.dumps(record) + "\n")
