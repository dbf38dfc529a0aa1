"""Schedule-driven construction runs.

A run starts from the empty condition and meets one requirement per step:
hit a domain or range point, adjoin a word, diagonalize against an injective
tree, or close the next coded orbit.  Every step is certified once, by the
forcing operation that takes it: the engine stores the certificate the
operation returns and checks nothing again, except that a step leaving the
condition unchanged records the reflexive certificate leq(c, c).  A trace
serializes to JSON that an independent verifier replays without trusting
the run.  Format version 2 writes each fact once: a step holds its upper
condition and fixed-point snapshots, plus a tree step's witness; its lower
condition is the previous upper and its requirement the schedule's entry.

Windowed oracles may refuse evaluations mid-step; the engine then grows the
window once, generously, and retries that step a single time.  A step that
still fails aborts the run with an EngineError naming the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import forcing as F
from . import injections as I
from . import oracle as O
from . import trees as T
from . import words as W
from .errors import (
    EngineError,
    InternalCheckFailed,
    OrbitCodeError,
    PrefixTooShort,
    WindowTooSmall,
)

CONVENTIONS = {
    "format_version": 2,
    "prime_indexing": "p0=2",
    "integer_pairing": "0,-1,1,-2,2,...",
    "orbit_order": "closed orbits sorted by minimum",
}


@dataclass(frozen=True)
class DomainHits:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative point {self.n}")


@dataclass(frozen=True)
class RangeHits:
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"negative point {self.m}")


@dataclass(frozen=True)
class WordAdded:
    word: W.Word


@dataclass(frozen=True)
class TreeDiagonalized:
    tree: T.InjectiveTree
    node: T.Node = ()


@dataclass(frozen=True)
class OrbitCoded:
    index: int


Requirement = DomainHits | RangeHits | WordAdded | TreeDiagonalized | OrbitCoded


def requirement_to_data(req: Requirement, oracle) -> dict:
    if isinstance(req, DomainHits):
        return {"kind": "domain_hits", "n": req.n}
    if isinstance(req, RangeHits):
        return {"kind": "range_hits", "m": req.m}
    if isinstance(req, WordAdded):
        return {"kind": "word_added", "word": W.format_word(req.word, oracle)}
    if isinstance(req, TreeDiagonalized):
        return {"kind": "tree_diagonalized", "tree": req.tree.descriptor(), "node": list(req.node)}
    if isinstance(req, OrbitCoded):
        return {"kind": "orbit_coded", "index": req.index}
    raise TypeError(f"not a requirement: {req!r}")


def requirement_from_data(data: Mapping, oracle) -> Requirement:
    kind = data["kind"]
    if kind == "domain_hits":
        return DomainHits(I.wire_int(data["n"]))
    if kind == "range_hits":
        return RangeHits(I.wire_int(data["m"]))
    if kind == "word_added":
        return WordAdded(W.parse_word(data["word"], oracle))
    if kind == "tree_diagonalized":
        return TreeDiagonalized(
            T.tree_from_descriptor(data["tree"]), tuple(map(I.wire_int, data["node"]))
        )
    if kind == "orbit_coded":
        return OrbitCoded(I.wire_int(data["index"]))
    raise ValueError(f"unknown requirement kind {kind!r}")


@dataclass
class RunStep:
    index: int
    requirement: Requirement
    op: str
    certificate: F.ExtensionCertificate
    extra: dict = field(default_factory=dict)


@dataclass
class RunTrace:
    flavor: F.Flavor
    target: tuple[int, ...] | None
    schedule: tuple[Requirement, ...]
    steps: list[RunStep]
    final: F.Condition
    decoded: tuple[int, ...]
    oracle_spec: dict
    growth_events: list[dict]


def _apply_requirement(req: Requirement, c: F.Condition, oracle):
    """Meet one requirement; returns (op name, certificate, a tree step's witness or {})."""
    if isinstance(req, DomainHits):
        if c.s.apply(req.n) is not None:
            return "already_present", F.leq(c, c, oracle), {}
        return "extend_domain", F.extend_domain(c, req.n, oracle), {}
    if isinstance(req, RangeHits):
        if c.s.apply_inverse(req.m) is not None:
            return "already_present", F.leq(c, c, oracle), {}
        return "extend_range", F.extend_range(c, req.m, oracle), {}
    if isinstance(req, WordAdded):
        w = W.reduce(req.word.letters, oracle)
        if w in c.words:
            return "already_present", F.leq(c, c, oracle), {}
        op = "add_word" if c.flavor is F.Flavor.DAGGER else "adjoin_word"
        return op, F.add_word(c, w, oracle), {}
    if isinstance(req, TreeDiagonalized):
        cert, witness, k = F.tree_extend(c, req.tree, req.node, oracle)
        return "tree_extend", cert, {"witness_node": list(witness), "witness_index": k}
    if isinstance(req, OrbitCoded):
        cert = None
        while len(I.closed_orbits(c.s)) <= req.index:
            cert = F.chain(cert, F.code_next_orbit(c, oracle))
            c = cert.upper
        return "code_next_orbit", cert or F.leq(c, c, oracle), {}
    raise TypeError(f"not a requirement: {req!r}")


def _growth_target(required: int, window: int) -> int:
    """The growth rule: at least double the window, past the miss, with headroom."""
    return max(required, 2 * window) + 16


def _grow_once(oracle, needed: int, step: int, growth_events: list[dict]) -> None:
    current = oracle.window()
    if current >= O.UNBOUNDED:
        raise InternalCheckFailed("an unwindowed oracle reported a window miss")
    goal = _growth_target(needed, current)
    reached = oracle.grow_window(goal)
    growth_events.append(
        {"step": step, "required": needed, "target": goal, "window": reached}
    )


def _attempt(step: int, operation, oracle, growth_events: list[dict]):
    """Run operation, allowing one window growth and a single retry.

    Any package error, window growth's included, is raised as an EngineError.
    """
    try:
        try:
            return operation()
        except WindowTooSmall as miss:
            _grow_once(oracle, miss.required, step, growth_events)
        return operation()
    except WindowTooSmall as again:
        raise EngineError(
            step, f"window still too small after growth, need {again.required}"
        ) from again
    except OrbitCodeError as exc:
        raise EngineError(step, str(exc)) from exc


def _decode_final(c: F.Condition) -> tuple[int, ...]:
    if c.flavor is F.Flavor.CODING:
        return decode(c.s, "orbit_order")
    if c.flavor is F.Flavor.DAGGER and c.target:
        return decode(c.s, "prime_parity", len(c.target) - 1)
    return ()


def run(flavor, r, schedule: Sequence[Requirement], oracle) -> RunTrace:
    """Meet the scheduled requirements in order, storing each step's certificate."""
    flavor = F.Flavor(flavor) if not isinstance(flavor, F.Flavor) else flavor
    if flavor is F.Flavor.PLAIN:
        if r:
            raise ValueError("plain runs take no target bits")
        target = None
    else:
        target = tuple(int(b) for b in (r or ()))
        if not set(target) <= {0, 1}:
            raise ValueError(f"target bits must be 0 or 1, got {list(target)}")
    c = F.Condition(I.PartialInjection(), frozenset(), flavor, target)
    oracle_spec = oracle.descriptor()
    schedule = tuple(schedule)
    steps: list[RunStep] = []
    growth_events: list[dict] = []
    for index, req in enumerate(schedule):
        op, cert, extra = _attempt(
            index, lambda: _apply_requirement(req, c, oracle), oracle, growth_events
        )
        steps.append(RunStep(index, req, op, cert, extra))
        c = cert.upper
    return RunTrace(
        flavor=flavor,
        target=target,
        schedule=schedule,
        steps=steps,
        final=c,
        decoded=_decode_final(c),
        oracle_spec=oracle_spec,
        growth_events=growth_events,
    )


def seal(trace: RunTrace, oracle, generator_index: int = 0) -> O.CompletedStage:
    """Close every remaining open orbit of the run's final condition.

    The sealed injection has only cycles, so it induces a permutation of its
    support; the stage window is the first natural outside that settled
    initial segment.  Growth events recorded here carry the step index one
    past the schedule.
    """
    sealed = _attempt(
        len(trace.schedule),
        lambda: F.close_all_orbits(trace.final, oracle),
        oracle,
        trace.growth_events,
    ).upper
    stage = O.CompletedStage(
        generator_index=generator_index,
        condition=sealed,
        window=I.mex(sealed.s.support),
    )
    stage.trace = trace
    return stage


STAGE_DEPTH = 4


def default_stage_schedule(
    index: int, target: tuple[int, ...], oracle
) -> list[Requirement]:
    """The stock stage schedule: tie to the previous generator, code, cover.

    Stages after the first adjoin v = g·x and v² for the previous generator
    g, forcing the coded parity of v's evaluation before anything else; then
    the pure powers x^{p_n} pin every target bit, and domain/range hits make
    the injection total on the initial segment below STAGE_DEPTH.
    """
    reqs: list[Requirement] = []
    if index > 0:
        g = oracle.generator(index - 1)
        v = W.Word((W.group(g), W.X))
        reqs.append(WordAdded(v))
        reqs.append(WordAdded(W.power(v, 2, oracle)))
    for n in range(len(target)):
        reqs.append(WordAdded(W.x_power(I.nth_prime(n))))
    for j in range(STAGE_DEPTH):
        reqs.append(DomainHits(j))
        reqs.append(RangeHits(j))
    return reqs


def staged_run(targets: Sequence[Sequence[int]]) -> list[O.CompletedStage]:
    """Build one sealed stage per target bit string, each over its predecessors.

    Stage i runs default_stage_schedule over the staged oracle of stages
    0..i-1, so its words can mention every earlier generator; window growth
    triggered inside any stage re-extends the earlier ones in place.
    """
    stages: list[O.CompletedStage] = []
    for index, target in enumerate(targets):
        bits = tuple(int(b) for b in target)
        oracle = O.StagedOracle(stages)
        schedule = default_stage_schedule(index, bits, oracle)
        trace = run(F.Flavor.DAGGER, bits, schedule, oracle)
        stages.append(seal(trace, oracle, generator_index=index))
    return stages


def decode(s: I.PartialInjection, mode: str, upto: int | None = None) -> tuple[int, ...]:
    """Read bits back out of a finished injection.

    orbit_order: parities of closed-orbit sizes in min-order, truncated to
    upto+1 bits when a bound is given.  prime_parity: bit n is the parity of
    the number of closed orbits of size p_n.
    """
    if upto is not None and upto < 0:
        raise ValueError(f"bit bound must be at least 0, got {upto}")
    if mode == "orbit_order":
        bits = I.o_partial(s)
        if upto is None:
            return bits
        if len(bits) <= upto:
            raise PrefixTooShort(f"only {len(bits)} closed orbits, need {upto + 1}")
        return bits[: upto + 1]
    if mode == "prime_parity":
        if upto is None:
            raise ValueError("prime_parity decoding needs an explicit bit bound")
        return I.o_dagger(s, upto)
    raise ValueError(f"unknown decode mode {mode!r}")


def verify_tightness_sample(
    stage: O.CompletedStage, trees: Sequence[T.ExplicitTree]
) -> list[dict]:
    """Check the stage permutation diagonalizes against each explicit tree.

    For each tree: search a witness above the root, then the least non-maximal
    node with none, the counterexample to dense diagonalization.  Raises
    WindowTooSmall if a tree probes indices the stage window does not settle.
    """
    g = stage.condition.s.as_dict()
    reports = []
    for tree in trees:
        deepest = max((len(node) for node in tree.nodes), default=0)
        if deepest > stage.window:
            raise WindowTooSmall(
                deepest, f"tree reaches depth {deepest}, window is {stage.window}"
            )
        witness = T.diagonalization_witness(g, tree, ())
        node = T.undiagonalized_node(g, tree)
        reports.append(
            {
                "tree": tree.descriptor(),
                "root_witness": None
                if witness is None
                else {"node": list(witness[0]), "index": witness[1]},
                "densely_diagonalizes": node is None,
                "counterexample": None if node is None else list(node),
            }
        )
    return reports


def auto_schedule(flavor, n: int) -> list[Requirement]:
    """The stock single-oracle schedule for n bits (or n cover points).

    Coding: hit i, cover i, close orbit i, for each i < n.  Dagger: the same
    cover interleaved with the pure powers x^j up to the n-th prime
    obligation.  Plain: cover only.
    """
    flavor = F.Flavor(flavor) if not isinstance(flavor, F.Flavor) else flavor
    reqs: list[Requirement] = []
    if flavor is F.Flavor.CODING:
        for i in range(n):
            reqs += [DomainHits(i), RangeHits(i), OrbitCoded(i)]
        return reqs
    if flavor is F.Flavor.DAGGER:
        exponents = list(range(1, I.nth_prime(n - 1) + 1)) if n > 0 else []
        for i in range(max(n, len(exponents))):
            if i < n:
                reqs += [DomainHits(i), RangeHits(i)]
            if i < len(exponents):
                reqs.append(WordAdded(W.x_power(exponents[i])))
        return reqs
    for i in range(n):
        reqs += [DomainHits(i), RangeHits(i)]
    return reqs


def trace_to_data(trace: RunTrace, oracle) -> dict:
    return {
        "conventions": dict(CONVENTIONS),
        "flavor": trace.flavor.value,
        "target": None if trace.target is None else list(trace.target),
        "oracle": trace.oracle_spec,
        "schedule": [requirement_to_data(req, oracle) for req in trace.schedule],
        "steps": [
            {"certificate": F.certificate_to_data(step.certificate, oracle)}
            | ({"extra": step.extra} if step.extra else {})
            for step in trace.steps
        ],
        "final": F.condition_to_data(trace.final, oracle),
        "decoded": list(trace.decoded),
        "growth_events": [dict(ev) for ev in trace.growth_events],
    }


def _requirement_holds(req: Requirement, extra: Mapping, c: F.Condition, oracle) -> bool:
    if isinstance(req, DomainHits):
        return c.s.apply(req.n) is not None
    if isinstance(req, RangeHits):
        return c.s.apply_inverse(req.m) is not None
    if isinstance(req, WordAdded):
        return W.reduce(req.word.letters, oracle) in c.words
    if isinstance(req, OrbitCoded):
        return len(I.closed_orbits(c.s)) > req.index
    if isinstance(req, TreeDiagonalized):
        witness = tuple(map(I.wire_int, extra["witness_node"]))
        k = I.wire_int(extra["witness_index"])
        return (
            req.tree.contains(witness)
            and witness[: len(req.node)] == tuple(req.node)
            and len(req.node) <= k < len(witness)
            and c.s.apply(k) == witness[k]
        )
    return False


_TRACE_KEYS = frozenset(
    ("conventions", "flavor", "target", "oracle", "schedule", "steps", "final", "decoded",
     "growth_events")
)
_STEP_KEYS = frozenset(("certificate",))
_TREE_STEP_KEYS = frozenset(("certificate", "extra"))
_CERTIFICATE_KEYS = frozenset(("upper", "fixpoint_snapshots"))
_WITNESS_KEYS = frozenset(("witness_node", "witness_index"))
_GROWTH_KEYS = frozenset(("step", "required", "target", "window"))
_CONDITION_KEYS = frozenset(("flavor", "injection", "words"))
_ORACLE_KEYS = frozenset(("kind",))
_STAGED_ORACLE_KEYS = frozenset(("kind", "stages"))
_STAGE_KEYS = frozenset(("generator_index", "injection", "words", "target_bits", "window"))


def _closed(data, keys: frozenset, what: str):
    """data itself, if it is an object with exactly `keys`; ValueError otherwise."""
    if not isinstance(data, Mapping):
        raise TypeError(f"{what} is not an object")
    if data.keys() != keys:
        raise ValueError(f"{what} has keys {sorted(data)}, format gives {sorted(keys)}")
    return data


def _oracle_from_data(data) -> O.GroupOracle:
    """The oracle a descriptor names: `kind`, plus `stages` when staged, each stage closed."""
    staged = isinstance(data, Mapping) and data.get("kind") == "staged"
    _closed(data, _STAGED_ORACLE_KEYS if staged else _ORACLE_KEYS, "oracle")
    for j, entry in enumerate(data["stages"] if staged else ()):
        _closed(entry, _STAGE_KEYS, f"oracle stage {j}")
    return O.oracle_from_descriptor(data)


def _requirement_from_entry(entry, oracle) -> Requirement:
    """A schedule entry exactly as requirement_to_data writes it: keys, tree, word text."""
    req = requirement_from_data(entry, oracle)
    written = requirement_to_data(req, oracle)
    _closed(entry, written.keys(), "schedule entry")
    for key, value in written.items():
        if entry[key] != value:
            raise ValueError(f"schedule entry's {key} is not the one its requirement writes")
    return req


def _replay_growth(events, oracle, length: int) -> None:
    """Replay growth events, raising ValueError at one the engine would not record.

    An unwindowed oracle never grows, so it admits no event.  Steps never
    decrease and stay at most `length` (the seal's); each target is the
    growth rule's for the window so far, and reaches the recorded window.
    """
    last = 0
    for j, event in enumerate(events):
        _closed(event, _GROWTH_KEYS, f"growth event {j}")
        if oracle.window() >= O.UNBOUNDED:
            raise ValueError(f"growth event {j}: the oracle has no window to grow")
        step = I.wire_int(event["step"])
        if not last <= step <= length:
            raise ValueError(f"growth event {j}: step {step} out of order")
        goal = _growth_target(I.wire_int(event["required"]), oracle.window())
        if I.wire_int(event["target"]) != goal:
            raise ValueError(f"growth event {j}: target {event['target']}, rule gives {goal}")
        if oracle.grow_window(goal) != I.wire_int(event["window"]):
            raise ValueError(f"growth event {j} misses window {event['window']}")
        last = step


def verify_trace_data(data: Mapping) -> F.CheckResult:
    """Replay a serialized trace from scratch and recheck every claim in it.

    Anything trace_to_data would not write is malformed: a key missing from
    an object's closed key set or outside it, a number that is not a JSON
    integer (or a bit other than 0 or 1), a schedule entry other than
    its requirement writes, a condition's pairs or word texts out of order
    or form (`r_prefix` exactly when the flavor is not plain), an embedded
    stage seal did not make, other conventions, and growth events off the
    engine's rule.  Each step's upper condition, each word text parsed once,
    must extend the condition before it with the stored snapshots, validate,
    and meet its schedule entry; the final condition and decoded bits must
    recompute.
    """
    try:
        _closed(data, _TRACE_KEYS, "trace")
        oracle = _oracle_from_data(data["oracle"])
        raw_target = data["target"]
        target = None if raw_target is None else tuple(I.wire_int(b, bit=True) for b in raw_target)
        c = F.Condition(I.PartialInjection(), frozenset(), F.Flavor(data["flavor"]), target)
        condition_keys = _CONDITION_KEYS | (set() if target is None else {"r_prefix"})
        schedule = data["schedule"]
        steps = data["steps"]
        if not (isinstance(schedule, list) and isinstance(steps, list)):
            raise TypeError("schedule and steps must be lists")
        if data["conventions"] != CONVENTIONS:
            version = CONVENTIONS["format_version"]
            raise ValueError(f"conventions are not those of format version {version}")
        if len(schedule) != len(steps):
            raise ValueError("schedule and steps disagree in length")
        _replay_growth(data["growth_events"], oracle, len(schedule))
    except (KeyError, TypeError, ValueError, OrbitCodeError) as exc:
        return F.CheckResult(False, f"malformed trace: {exc}")
    parsed: dict = {}
    for i, (entry, step) in enumerate(zip(schedule, steps)):
        try:
            req = _requirement_from_entry(entry, oracle)
            tree = isinstance(req, TreeDiagonalized)
            _closed(step, _TREE_STEP_KEYS if tree else _STEP_KEYS, "step")
            extra = _closed(step["extra"], _WITNESS_KEYS, "extra") if tree else {}
            data_cert = _closed(step["certificate"], _CERTIFICATE_KEYS, "certificate")
            _closed(data_cert["upper"], condition_keys, "upper")
            cert = F.verify_certificate_data(data_cert, c, oracle, parsed)
            if not cert:
                return F.CheckResult(False, f"step {i}: {cert.reason}")
            c = cert.upper
            valid = F.validate(c, oracle)
            if not valid:
                return F.CheckResult(False, f"step {i}: invalid condition: {valid.reason}")
            if not _requirement_holds(req, extra, c, oracle):
                return F.CheckResult(False, f"step {i}: requirement not satisfied")
        except (KeyError, TypeError, ValueError, OrbitCodeError) as exc:
            return F.CheckResult(False, f"step {i}: malformed: {exc}")
    try:
        final = _closed(data["final"], condition_keys, "final")
        if F.condition_from_data(final, oracle, parsed) != c:
            return F.CheckResult(False, "final condition does not match the last step")
        if _decode_final(c) != tuple(I.wire_int(b, bit=True) for b in data["decoded"]):
            return F.CheckResult(False, "decoded bits do not match the final condition")
    except (KeyError, TypeError, ValueError, OrbitCodeError) as exc:
        return F.CheckResult(False, f"malformed trace: {exc}")
    return F.CheckResult(True)
