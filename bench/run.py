"""orbitcode benchmark: certified build, serialize and audit round trips.

    python3 bench/run.py --workload coding-64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
One client on one thread runs a closed loop of operations, each one certified
round trip: build the workload's result through the library, serialize every
run trace with `trace_to_data` and `json.dumps(..., indent=2)` to a file (the
format `orbitcode run --out` writes), then audit each file with the CLI's
`verify` in-process.  Every operation is checked (see `workloads.py`); one
that fails a check or raises counts as failed instead of stopping the run.

--trace 0 prints the end-to-end metrics; --trace 1 repeats the first two
inputs, each once untraced and once traced, and prints the per-layer
metrics (see `tracer.py` and README.md).  Human-readable lines come first;
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench-trace"

SETUP_REPEATS = 9  # setup_s is their median
REFERENCE_S = 0.03  # the reference loop's time on the host these figures were tuned on
INPUT_COUNT = 240  # a multiple of every workload's cycle
TAIL_BEYOND = 10  # the tail is the highest sample with this many samples above it
# trace_bytes covers the first inputs: a multiple of every cycle, and enough
# that its median over seeds spreads by under 0.02 on staged-3 (0.047 at 10)
BYTES_OPS = 25
MIN_OPS = BYTES_OPS  # timed operations a run makes even past --seconds; > TAIL_BEYOND
DIGEST_OPS = 2  # the trace digest covers the first inputs, which the traced run repeats
TRACE_INPUTS = 2  # inputs the traced run repeats
FAILURES_SHOWN = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_p50_s": "s",
    "build_tail_s": "s",
    "verify_p50_s": "s",
    "verify_tail_s": "s",
    "roundtrips_per_s": "1/s",
    "trace_bytes": "B",
    "peak_rss_mib": "MiB",
}


def _fresh_import(name: str):
    """Import `name` with orbitcode and the benchmark modules loaded anew."""
    for module in list(sys.modules):
        if module.split(".")[0] in ("orbitcode", "workloads", "tracer"):
            del sys.modules[module]
    return importlib.import_module(name)


def reference_s() -> float:
    """Time of a fixed loop of dict, set and tuple work, like the library's.

    The host's speed drifts by up to 1.6x over seconds to minutes, which
    moved run medians by 25-30% between runs.  Every reported time is
    therefore scaled by REFERENCE_S / this loop's time, measured just before
    and just after the timed work (`speed`): the figures read as seconds on
    a host where the loop takes REFERENCE_S, and runs made at different
    moments compare.  The raw seconds are printed beside them.  The set is emptied as it fills, so the
    loop holds under 1 MiB and stays out of peak_rss_mib.
    """
    start = time.perf_counter()
    counts, seen = {}, set()
    for i in range(100_000):
        k = (i * 7919) % 10007
        counts[k] = counts.get(k, 0) + 1
        if k & 1:
            seen.add((k, i & 255))
            if len(seen) == 4096:
                seen.clear()
    return time.perf_counter() - start


def speed(*loop_s: float) -> float:
    """Scale for work timed next to reference loops: REFERENCE_S over their mean.

    The host's speed persists over tens of milliseconds (successive loop
    times correlate at 0.75-0.85) but can change within an operation, so
    work is scaled by the loops nearest to it in time.
    """
    return REFERENCE_S * len(loop_s) / sum(loop_s)


def setup(workload: str, seed: int):
    """Import orbitcode afresh and generate the inputs.

    Returns the workload, its inputs, and the scaled and raw time taken.
    """
    before = reference_s()
    start = time.perf_counter()
    workloads = _fresh_import("workloads")
    wl = workloads.WORKLOADS[workload]
    inputs = wl.inputs(random.Random(seed), INPUT_COUNT)
    raw = time.perf_counter() - start
    return wl, inputs, raw * speed(before, reference_s()), raw


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest sample with TAIL_BEYOND samples above it, and its percentile label."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of n={n}, too few samples for a tail"
    index = n - 1 - TAIL_BEYOND
    return ordered[index], f"p{100 * (index + 1) / n:.0f}, n={n}"


class Runner:
    """Runs operations in a scratch directory and keeps their measurements."""

    def __init__(self, wl, workdir: Path):
        from orbitcode import cli, engine

        self.wl, self.workdir = wl, workdir
        self.cli, self.engine = cli, engine
        # raw seconds per successful operation, and the scale for each (`speed`)
        self.build_s: list[float] = []
        self.verify_s: list[float] = []
        self.build_speed: list[float] = []
        self.verify_speed: list[float] = []
        self.wall_s = self.scaled_wall_s = 0.0
        # input position -> serialized bytes, and -> sha256 over its trace files
        self.trace_bytes: dict[int, int] = {}
        self.digests: dict[int, str] = {}
        self.steps: list[int] = []
        self.growth_events: list[int] = []
        self.attempted = self.failed = 0
        self.negatives = self.rejected = 0

    def _verify(self, path: Path) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.cli.main(["verify", str(path)])

    def _serialize(self, traces) -> list[Path]:
        """Write each trace as `orbitcode run --out` does; nothing of them stays held."""
        paths = []
        for k, (trace, oracle) in enumerate(traces):
            data = self.engine.trace_to_data(trace, oracle)
            paths.append(self.workdir / f"trace{k}.json")
            paths[-1].write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
            del data
        return paths

    def operation(self, inp, position: int, tracing=contextlib.nullcontext) -> None:
        """One certified round trip on the input at `position`, timed, then checked.

        `tracing()` encloses the timed part only: the checks and the negative
        control stay out of the per-layer numbers.  The round trip holds the
        built result and one serialized trace at a time; the benchmark's own
        work after it (digest, negative control) starts once the built result
        is released, so it stays below the round trip's memory peak.
        """
        self.attempted += 1
        gc.collect()  # the previous operation's garbage is not this one's cost
        before = reference_s()
        start = time.perf_counter()
        try:
            with tracing():
                built = self.wl.build(inp)
                built_at = time.perf_counter()
                paths = self._serialize(built.traces)
                verify_at = time.perf_counter()
                codes = [self._verify(path) for path in paths]
                end = time.perf_counter()
            after = reference_s()
            self._add_wall(end - start, speed(before, after))
            problem = next(
                (f"verify exited {code} on trace {k}" for k, code in enumerate(codes) if code),
                None,
            ) or self.wl.check(inp, built)
            steps = sum(len(trace.steps) for trace, _ in built.traces)
            growth_events = sum(len(trace.growth_events) for trace, _ in built.traces)
            del built
            if problem is None and self.wl.negative_control:
                problem = self._negative_control(paths[0], inp["flip"])
        except Exception:
            self._add_wall(time.perf_counter() - start, speed(before, reference_s()))
            problem = traceback.format_exc()
        if problem is not None:
            self.failed += 1
            if self.failed <= FAILURES_SHOWN:
                print(f"operation {self.attempted - 1} failed: {problem}", file=sys.stderr)
            return
        self.build_s.append(built_at - start)
        self.verify_s.append(end - verify_at)
        # the build spans most of the time between the two loops; verify ends
        # right before the second, which alone tracks it more closely
        self.build_speed.append(speed(before, after))
        self.verify_speed.append(speed(after))
        self.steps.append(steps)
        self.growth_events.append(growth_events)
        if position < BYTES_OPS:
            self.trace_bytes.setdefault(position, sum(path.stat().st_size for path in paths))
        if position < DIGEST_OPS:
            sha = hashlib.sha256()
            for path in paths:
                sha.update(path.read_bytes())
            self.digests.setdefault(position, sha.hexdigest())

    def _add_wall(self, seconds: float, scale: float) -> None:
        self.wall_s += seconds
        self.scaled_wall_s += seconds * scale

    def _negative_control(self, trace_path: Path, position: int) -> str | None:
        """Untimed: the same trace with one top-level decoded bit flipped must fail."""
        data = json.loads(trace_path.read_text(encoding="utf-8"))
        data["decoded"][position] ^= 1
        path = self.workdir / "flipped.json"
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        del data  # verify parses its own copy
        self.negatives += 1
        if self._verify(path) == 0:
            return f"verify accepted a trace with decoded bit {position} flipped"
        self.rejected += 1
        return None

    def digest(self) -> str | None:
        """sha256 over the first DIGEST_OPS inputs' per-operation sha256s."""
        if any(position not in self.digests for position in range(DIGEST_OPS)):
            return None
        joined = "".join(self.digests[position] for position in range(DIGEST_OPS))
        return hashlib.sha256(joined.encode("ascii")).hexdigest()


def measure(wl, inputs, seconds, workdir, setup_times, resetup) -> Runner:
    """Timed operations, with setup repeated between them until SETUP_REPEATS.

    The host's speed drifts over seconds, so setup samples taken at one
    moment would all share that moment's speed; the repeats are spread over
    the run instead.  Each imports a fresh copy of the library that the
    running operations do not use, between two operations and after the
    garbage is collected, so it does not set the memory peak.
    """
    runner = Runner(wl, workdir)
    Runner(wl, workdir).operation(wl.warmup_input(inputs), 0)  # warm-up, not recorded
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < MIN_OPS or time.perf_counter() < deadline or i % wl.cycle:
        runner.operation(inputs[i % len(inputs)], i % len(inputs))
        i += 1
        due = start + seconds * len(setup_times) / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and time.perf_counter() >= due:
            gc.collect()
            setup_times.append(resetup())
    return runner


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(runner: Runner, setup_times, floor_mib: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics from scaled times; raw seconds go into the notes.

    `setup_times` holds (scaled, raw) seconds per setup sample; `floor_mib`
    is the peak resident memory before the first operation.
    """
    values = {
        "setup_s": statistics.median(scaled for scaled, _ in setup_times),
        "peak_rss_mib": peak_rss_mib(),
    }
    notes = {
        "setup_s": f"raw {statistics.median(raw for _, raw in setup_times):.4g} s",
        "peak_rss_mib": f"{floor_mib:.4g} MiB before the first operation",
    }
    if runner.build_s:
        n = len(runner.build_s)
        for kind, raw, scales in (
            ("build", runner.build_s, runner.build_speed),
            ("verify", runner.verify_s, runner.verify_speed),
        ):
            scaled = [t * scale for t, scale in zip(raw, scales)]
            values[f"{kind}_p50_s"] = statistics.median(scaled)
            notes[f"{kind}_p50_s"] = f"n={n}, raw {statistics.median(raw):.4g} s"
            values[f"{kind}_tail_s"], label = tail(scaled)
            notes[f"{kind}_tail_s"] = f"{label}, raw {tail(raw)[0]:.4g} s"
        values["roundtrips_per_s"] = n / runner.scaled_wall_s
        notes["roundtrips_per_s"] = f"raw {n / runner.wall_s:.4g} 1/s"
    if len(runner.trace_bytes) == BYTES_OPS:
        values["trace_bytes"] = statistics.fmean(runner.trace_bytes.values())
        notes["trace_bytes"] = f"first {BYTES_OPS} inputs"
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }
    lines = [
        f"{name:<18} {m['value']:<14.6g} {m['unit']:<5} {notes.get(name, '')}".rstrip()
        for name, m in metrics.items()
    ]
    return metrics, lines


def per_layer(runner: Runner, tracer, traced, untraced_build, traced_build):
    """Per traced operation; `traced` indexes the runner's traced results."""
    ops = len(traced)
    summary = tracer.summary()

    def stat(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0) / ops

    def by_parent(name: str, keep) -> float:
        parents = summary.get(name, {}).get("by_parent", {})
        return sum(calls for parent, calls in parents.items() if keep(parent)) / ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    steps = statistics.fmean(runner.steps[i] for i in traced)
    candidates = by_parent(
        "injections.with_pair", lambda p: p in ("forcing.extend_domain", "forcing.extend_range")
    )
    options = sum(tracer.options.values()) / ops
    v = {
        "engine.steps": steps,
        "engine.growth_events": statistics.fmean(runner.growth_events[i] for i in traced),
        "engine.certify.s": (
            tracer.parent_time(("forcing.validate", "forcing.leq"), "engine.run") / ops
        ),
        "engine.verify_trace_data.self_s": stat("engine.verify_trace_data", "self_s"),
        "engine.trace_to_data.s": stat("engine.trace_to_data", "s"),
        "forcing.leq.calls_by_engine": by_parent(
            "forcing.leq", lambda p: p in ("engine.run", "engine.seal")
        ),
        "forcing.leq.calls_by_ops": by_parent(
            "forcing.leq",
            lambda p: p.startswith("forcing.") and p != "forcing.verify_certificate_data",
        ),
        "forcing.extend.candidates": candidates,
        "forcing.extend.accept_ratio": ratio(
            stat("forcing.extend_domain", "ok") + stat("forcing.extend_range", "ok"), candidates
        ),
        "forcing.tree_extend.options": options,
        "forcing.tree_extend.use_ratio": ratio(stat("forcing.tree_extend", "ok"), options),
        "injections.orbit_decomposition.calls_per_step": ratio(
            stat("injections.orbit_decomposition", "calls"), steps
        ),
        "words.evaluate.per_leq": ratio(
            stat("words.evaluate", "calls"), stat("forcing.leq", "calls")
        ),
        "oracle.window_misses": sum(tracer.window_misses.values()) / ops,
        "oracle.window_final": sum(tracer.window_final.values()) / ops,
        "trace.overhead_s": statistics.median(traced_build) - statistics.median(untraced_build),
    }
    fields = {
        "forcing.leq": ("calls", "s", "self_s"),
        "forcing.validate": ("calls", "s", "self_s"),
        "forcing.tree_extend": ("s",),
        "forcing.close_orbit": ("s",),
        "forcing.add_word": ("s",),
        "forcing.strong_close_orbit": ("calls",),
        "forcing.condition_from_data": ("s",),
        "injections.orbit_decomposition": ("calls", "s"),
        "injections.fixed_points": ("calls", "s"),
        "injections.word_graph": ("calls", "s"),
        "injections.with_pair": ("calls", "s"),
        "words.evaluate": ("calls", "s"),
        "words.reduce": ("calls", "s"),
        "words.format_word": ("calls", "s"),
        "words.parse_word": ("calls", "s"),
        "oracle.grow_window": ("calls", "s"),
        "oracle.eval": ("calls", "s"),
        "oracle.fixed_points": ("calls", "s"),
        "trees.extend_avoiding": ("calls", "s"),
        "cli.main": ("self_s",),
    }
    for name, wanted in fields.items():
        for field in wanted:
            v[f"{name}.{field}"] = stat(name, field)
    metrics = {}
    for name in sorted(v):
        suffix = name.rsplit(".", 1)[1]
        if suffix in ("s", "self_s", "overhead_s"):
            unit = "s"
        else:
            unit = "ratio" if "ratio" in suffix else "count"
        metrics[name] = {"value": v[name], "unit": unit}
    lines = [f"{name:<48} {m['value']:<14.6g} {m['unit']}" for name, m in metrics.items()]
    library_s = sum(end - start for _name, start, end, parent, *_ in tracer.spans if parent < 0)
    for field, title, names in (
        ("self_s", "self time", summary),
        ("s", "inclusive time below engine and cli",
         [n for n in summary if n.split(".")[0] not in ("engine", "cli")]),
    ):
        ranked = sorted(names, key=lambda name: -summary[name][field])[:6]
        lines.append(f"largest shares of traced library time, by {title}:")
        lines += [f"  {name:<40} {summary[name][field] / library_s:6.1%}" for name in ranked]
    lines.append(
        f"tracing overhead: build p50 {statistics.median(traced_build):.4f} s traced,"
        f" {statistics.median(untraced_build):.4f} s untraced"
    )
    return metrics, lines


def measure_traced(wl, inputs, seconds: float, workdir: Path):
    """Cycles of the first TRACE_INPUTS inputs, each untraced then traced."""
    tracer_module = importlib.import_module("tracer")
    tracer = tracer_module.Tracer()
    runner = Runner(wl, workdir)
    Runner(wl, workdir).operation(wl.warmup_input(inputs), 0)  # warm-up, not recorded
    traced, untraced_build, traced_build = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for position in range(TRACE_INPUTS):
            before = len(runner.build_s)
            runner.operation(inputs[position], position)
            if len(runner.build_s) > before:
                untraced_build.append(runner.build_s[-1])
            before = len(runner.build_s)
            runner.operation(inputs[position], position, lambda: tracer.active(before))
            if len(runner.build_s) > before:
                traced.append(before)
                traced_build.append(runner.build_s[-1])
        if not traced:
            break
    return runner, tracer, traced, untraced_build, traced_build


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["coding-64", "trees-40", "staged-3"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbitcode" / "__init__.py").is_file():
        print(f"error: no orbitcode package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl, inputs, *first_setup = setup(args.workload, args.seed)
    mode = "traced" if args.trace else "untraced"
    print(f"# orbitcode benchmark: {args.workload}, seed {args.seed},"
          f" {args.seconds:g} s, {mode}")
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as scratch:
        workdir = Path(scratch)
        if args.trace:
            runner, tracer, traced, untraced_build, traced_build = measure_traced(
                wl, inputs, args.seconds, workdir
            )
            if traced:
                metrics, lines = per_layer(runner, tracer, traced, untraced_build, traced_build)
                SPAN_DIR.mkdir(exist_ok=True)
                span_file = SPAN_DIR / f"{args.workload}-seed{args.seed}.jsonl.gz"
                tracer.write(span_file)
                where = span_file.relative_to(ROOT)
                lines.append(f"spans ({len(tracer.spans)}) written to {where}")
            else:
                metrics, lines = {}, ["no traced operation completed"]
        else:
            setup_times = [tuple(first_setup)]
            floor_mib = peak_rss_mib()
            runner = measure(
                wl, inputs, args.seconds, workdir, setup_times,
                lambda: setup(args.workload, args.seed)[2:],
            )
            metrics, lines = end_to_end(runner, setup_times, floor_mib)
    for line in lines:
        print(line)
    frac = runner.failed / runner.attempted
    print(f"failed_frac        {frac:<14.6g} ratio"
          f" ({runner.failed} of {runner.attempted} operations)")
    if wl.negative_control:
        print(f"negative_control   rejected {runner.rejected} of {runner.negatives}"
              " flipped traces")
    digest = runner.digest()
    if digest is not None:
        print(f"trace_sha256       {digest} (first {DIGEST_OPS} inputs)")
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
