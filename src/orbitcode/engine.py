"""Schedule-driven construction runs.

A run starts from the empty condition and meets one requirement per step:
hit a domain or range point, adjoin a word, diagonalize against an injective
tree, or close the next coded orbit.  Every step is checked once, by the
forcing operation that takes it: the engine stores the condition the
operation returns and checks nothing again, and a step whose requirement
was already met stores the condition before it.  A trace serializes to
JSON that an independent verifier replays without trusting the run.
Format version 10 writes each step as one flat object, its delta:
the `pairs` and `words` its upper condition adds to the previous one,
which is its lower condition.  A tree step writes the same two keys: its
tree decides whether it admits the pair the step adds, so no witness node
is written.  No fixed-point set is written: a word's set is frozen from
the step it enters E, and the verifier recomputes what it checks.  Its
requirement is the schedule's entry; only the final condition's map and
words are written whole, each step's delta must be part of them, and no
number the reader derives is written: a checksum, a stage's
index or window, a growth event's target or the window it reaches.

Windowed oracles may refuse evaluations mid-step; the engine then grows the
window once, generously, and retries that step a single time.  A step that
still fails aborts the run with an EngineError naming the step, a refusal
raised by a forcing check included.  Each growth is recorded as an event
with the new cycles every stage of the oracle gained, which the verifier
checks in place of growing the stages again.
"""

from __future__ import annotations

import copy
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
    Refused,
    WindowTooSmall,
)

CONVENTIONS = {
    "format_version": 10,
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

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"negative orbit index {self.index}")


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


def requirement_from_data(data: Mapping, oracle, parsed: Mapping = {}) -> Requirement:
    """The requirement an entry writes; ValueError for a word that reduces to the identity.

    A word text `parsed` holds, as its parse, is not parsed again.
    """
    kind = data["kind"]
    if kind == "domain_hits":
        return DomainHits(I.wire_int(data["n"]))
    if kind == "range_hits":
        return RangeHits(I.wire_int(data["m"]))
    if kind == "word_added":
        text = data["word"]
        cached = isinstance(text, str) and text in parsed
        word = parsed[text] if cached else W.parse_word(text, oracle)
        if word.is_identity:
            raise ValueError(f"word_added word {data['word']!r} reduces to the identity")
        return WordAdded(word)
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
    condition: F.Condition
    extra: dict = field(default_factory=dict)


@dataclass
class RunTrace:
    start: F.Condition  # the empty condition of the run's flavor and target
    schedule: tuple[Requirement, ...]
    steps: list[RunStep]
    final: F.Condition
    decoded: tuple[int, ...]
    oracle_spec: dict
    growth_events: list[dict]


def _apply_requirement(req: Requirement, c: F.Condition, oracle):
    """Meet one requirement; returns (op name, condition reached, a tree step's witness or {}).

    A requirement c already meets, by the verifier's _requirement_holds,
    returns c itself.
    """
    if isinstance(req, TreeDiagonalized):
        c, witness = F.tree_extend(c, req.tree, req.node, oracle)
        return "tree_extend", c, {"witness_node": list(witness), "witness_index": len(witness) - 1}
    if isinstance(req, OrbitCoded):
        while not _requirement_holds(req, c, c, oracle):
            c = F.code_next_orbit(c, oracle)
        return "code_next_orbit", c, {}
    if _requirement_holds(req, c, c, oracle):
        return "already_present", c, {}
    if isinstance(req, DomainHits):
        return "extend_domain", F.extend_domain(c, req.n, oracle), {}
    if isinstance(req, RangeHits):
        return "extend_range", F.extend_range(c, req.m, oracle), {}
    if isinstance(req, WordAdded):
        op = "add_word" if c.flavor is F.Flavor.DAGGER else "adjoin_word"
        return op, F.add_word(c, W.reduce(req.word.letters, oracle), oracle), {}
    raise TypeError(f"not a requirement: {req!r}")


def _growth_target(required: int, window: int) -> int:
    """The growth rule: at least double the window, past the miss, with headroom."""
    return max(required, 2 * window) + 16


def _grow_once(oracle, needed: int, step: int, growth_events: list[dict]) -> None:
    """Grow the window by the rule, recording the new cycles of each stage, in index order.

    A stage's list includes what growing a later stage grew it by.  The old
    cycles are told by their minima, read before the growth, so the stage's
    orbit index is never moved back to its map from before it.
    """
    current = oracle.window()
    if current >= O.UNBOUNDED:
        raise InternalCheckFailed("an unwindowed oracle reported a window miss")
    goal = _growth_target(needed, current)
    before = [{c[0] for c in I.cycles_to_data(stage.injection)} for stage in oracle.stages]
    oracle.grow_window(goal)
    cycles = [I.cycles_to_data(stage.injection, old) for stage, old in zip(oracle.stages, before)]
    growth_events.append({"step": step, "required": needed, "cycles": cycles})


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
    """Meet the scheduled requirements in order, storing the condition each step reaches."""
    flavor = F.Flavor(flavor) if not isinstance(flavor, F.Flavor) else flavor
    if flavor is F.Flavor.PLAIN:
        if r:
            raise ValueError("plain runs take no target bits")
        target = None
    else:
        target = tuple(r or ())
        if any(type(b) is not int or b not in (0, 1) for b in target):
            raise ValueError(f"target bits must be 0 or 1, got {list(target)}")
    c = start = F.Condition(I.PartialInjection(), frozenset(), flavor, target)
    oracle_spec = oracle.descriptor()
    schedule = tuple(schedule)
    steps: list[RunStep] = []
    growth_events: list[dict] = []
    for index, req in enumerate(schedule):
        op, c, extra = _attempt(
            index, lambda: _apply_requirement(req, c, oracle), oracle, growth_events
        )
        steps.append(RunStep(index, req, op, c, extra))
    return RunTrace(
        start=start,
        schedule=schedule,
        steps=steps,
        final=c,
        decoded=_decode_final(c),
        oracle_spec=oracle_spec,
        growth_events=growth_events,
    )


def seal(trace: RunTrace, oracle) -> O.CompletedStage:
    """Close every remaining open orbit of the run's final condition.

    The sealed injection has only cycles, so it induces a permutation of its
    support; the stage window is the first natural outside that settled
    initial segment.  The stage keeps the run's oracle, which its words are
    written in, and the trace.  Growth events recorded here carry the step
    index one past the schedule.
    """
    sealed = _attempt(
        len(trace.schedule),
        lambda: F.close_all_orbits(trace.final, oracle),
        oracle,
        trace.growth_events,
    )
    return O.CompletedStage(sealed, oracle, trace)


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
        bits = tuple(target)
        oracle = O.StagedOracle(stages)
        schedule = default_stage_schedule(index, bits, oracle)
        trace = run(F.Flavor.DAGGER, bits, schedule, oracle)
        stages.append(seal(trace, oracle))
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


def _steps_to_data(trace: RunTrace, oracle) -> list[dict]:
    """Each step's delta against the condition before it, the run's start before step 0.

    Each lower condition is a version of its step's map, so no delta compares dicts.
    """
    lowers = [trace.start] + [step.condition for step in trace.steps]
    return [F.certificate_to_data(step.condition, lower, oracle)
            for step, lower in zip(trace.steps, lowers)]


def trace_to_data(trace: RunTrace, oracle) -> dict:
    """The trace on the wire, sharing no mutable object with it: editing one leaves the other."""
    return {
        "conventions": dict(CONVENTIONS),
        "flavor": trace.start.flavor.value,
        "target": None if trace.start.target is None else list(trace.start.target),
        "oracle": copy.deepcopy(trace.oracle_spec),
        "schedule": [requirement_to_data(req, oracle) for req in trace.schedule],
        "steps": _steps_to_data(trace, oracle),
        "final": F.condition_to_data(trace.final, oracle),
        "decoded": list(trace.decoded),
        "growth_events": copy.deepcopy(trace.growth_events),
    }


def _requirement_holds(req: Requirement, lower: F.Condition, c: F.Condition, oracle) -> bool:
    """Whether the step from lower to c meets req: a tree's, when its tree admits a pair it adds."""
    if isinstance(req, DomainHits):
        return c.s.apply(req.n) is not None
    if isinstance(req, RangeHits):
        return c.s.apply_inverse(req.m) is not None
    if isinstance(req, WordAdded):
        return W.reduce(req.word.letters, oracle) in c.words
    if isinstance(req, OrbitCoded):
        return I.closed_and_gap(c.s)[0] > req.index
    if isinstance(req, TreeDiagonalized):
        return any(req.tree.admits(req.node, k, v) for k, v in c.s.pairs_beyond(lower.s))
    return False


_TRACE_KEYS = frozenset(
    ("conventions", "flavor", "target", "oracle", "schedule", "steps", "final", "decoded",
     "growth_events")
)
_STEP_KEYS = frozenset(("pairs", "words"))
_GROWTH_KEYS = frozenset(("step", "required", "cycles"))
_CONDITION_KEYS = frozenset(("injection", "words"))


def _requirement_from_entry(entry, oracle, parsed: dict) -> Requirement:
    """A schedule entry exactly as requirement_to_data writes it: keys, tree, word text.

    A word text `parsed` holds was checked as its parse's text when it was
    parsed (forcing.map_and_words_from_data), so it is not formatted again.
    """
    req = requirement_from_data(entry, oracle, parsed)
    if isinstance(req, WordAdded) and entry["word"] in parsed:
        written = {"kind": "word_added", "word": entry["word"]}
    else:
        written = requirement_to_data(req, oracle)
    I.wire_object(entry, written.keys(), "schedule entry")
    for key, value in written.items():
        if entry[key] != value:
            raise ValueError(f"schedule entry's {key} is not the one its requirement writes")
    return req


def _grow_stage_by(stage: O.CompletedStage, cycles) -> None:
    """Grow a sealed stage by the new cycles an event writes for it, rechecking the order.

    The cycles must be in their wire form (injections.pairs_from_cycles);
    the grown stage must extend the old one with no word gaining a fixed
    point, checked as a delta of pairs alone (forcing.verify_certificate_data),
    so it still validates: a new cycle of v of an obligated prime size p
    would make v^p, a word of its closed E, gain its points.
    """
    if pairs := sorted(I.pairs_from_cycles(cycles)):
        delta = {"pairs": pairs, "words": []}
        stage.condition = F.verify_certificate_data(delta, stage.condition, stage.oracle)


def _check_growth(events, oracle, length: int) -> None:
    """Check growth events in order, growing each stage by the cycles an event writes for it.

    An unwindowed oracle never grows, so it admits no event.  Steps never
    decrease and stay at most `length` (the seal's).  An event writes one
    list of new cycles per stage of the oracle, and the stages grow in index
    order (_grow_stage_by), so each is checked over stages this event has
    grown already.  Then the window must reach the growth rule's target for
    `required` and the window before the event.  Nothing is searched, so
    the work follows the cycles written, not `required`: growth is checked
    to be sound, not to be the engine's least choice.  A form error raises
    ValueError, a failed claim Refused.
    """
    if not isinstance(events, list):
        raise TypeError("growth_events must be a list")
    last = 0
    for j, event in enumerate(events):
        I.wire_object(event, _GROWTH_KEYS, f"growth event {j}")
        if oracle.window() >= O.UNBOUNDED:
            raise ValueError(f"growth event {j}: the oracle has no window to grow")
        step = I.wire_int(event["step"])
        if not last <= step <= length:
            raise ValueError(f"growth event {j}: step {step} out of order")
        goal = _growth_target(I.wire_int(event["required"]), oracle.window())
        stages, grown = oracle.stages, event["cycles"]
        if not (isinstance(grown, list) and len(grown) == len(stages)):
            raise ValueError(f"growth event {j}: cycles must be {len(stages)} lists, one per stage")
        for k, (stage, cycles) in enumerate(zip(stages, grown)):
            try:
                _grow_stage_by(stage, cycles)
            except Refused as exc:
                raise Refused(f"growth event {j}: stage {k}: {exc}") from None
            except (ValueError, OrbitCodeError) as exc:
                raise ValueError(f"growth event {j}: stage {k}: {exc}") from None
        if (window := oracle.window()) < goal:
            raise Refused(f"growth event {j}: window {window} is short of target {goal}")
        last = step


def verify_trace_data(data: Mapping) -> None:
    """Replay a serialized trace from scratch and recheck every claim in it.

    Anything trace_to_data would not write is malformed: a key missing from an
    object's closed key set or outside it (a step's is `pairs` and `words`, a
    tree step's too), a list written as another type (a step's pairs or words,
    the target or the decoded bits), a number that is not a JSON integer (or a
    bit other than 0 or 1), a schedule entry other than its requirement
    writes, a delta (the step itself, see forcing.verify_certificate_data) or
    the final condition with pairs or word texts out of order or form, an
    embedded stage seal did not make, other conventions, and growth events off
    the engine's rule.  The final condition is read first.  Each step's upper
    condition, the one before it plus its delta, each word text parsed once,
    must extend the condition before it, no word of that condition gaining a
    fixed point; every pair and word its delta adds must be the final
    condition's, one lookup each, so a forged delta is refused at its own
    step; then the upper condition must validate and meet its schedule entry,
    a tree step's when its tree admits a pair (k, v) the step adds
    (trees.InjectiveTree.admits), which no condition before the step can
    meet; and a step whose entry the condition before it already met must add
    nothing, as the engine does.  A step whose pairs and words are both empty
    has the condition before it as its upper condition, which the step before
    validated or which is the empty condition every flavor admits, so it is
    checked only against its entry: no delta is parsed, no order rechecked and
    nothing validated again.  validate is given the condition before a step,
    so its coding clause compares only the code bits the step adds.  So a step
    parses and inserts only its delta, with_pairs makes its map a new version
    of lower's without copying it, and no fixed-point set is read off the
    wire.  Last, the replay, which the final condition holds, must be all of
    it, else the refusal names the first pair or word no step adds, and the
    decoded bits must recompute; Refused names the first claim that fails, and
    the step it fails at.
    """
    i = None  # the step being replayed; None before and after the steps
    try:
        I.wire_object(data, _TRACE_KEYS, "trace")
        oracle = O.oracle_from_descriptor(data["oracle"])
        raw_target = data["target"]
        target = None if raw_target is None else tuple(
            I.wire_int(b, bit=True) for b in I.wire_list(raw_target, "target")
        )
        c = F.Condition(I.PartialInjection(), frozenset(), F.Flavor(data["flavor"]), target)
        schedule = data["schedule"]
        steps = data["steps"]
        if not (isinstance(schedule, list) and isinstance(steps, list)):
            raise TypeError("schedule and steps must be lists")
        if data["conventions"] != CONVENTIONS:
            version = CONVENTIONS["format_version"]
            raise ValueError(f"conventions are not those of format version {version}")
        I.wire_int(data["conventions"]["format_version"])  # equal, but maybe written 10.0
        if len(schedule) != len(steps):
            raise ValueError("schedule and steps disagree in length")
        _check_growth(data["growth_events"], oracle, len(schedule))
        parsed: dict = {}
        final = I.wire_object(data["final"], _CONDITION_KEYS, "final")
        try:
            goal = F.condition_from_data(final, c.flavor, c.target, oracle, parsed)
        except (TypeError, ValueError, OrbitCodeError) as exc:
            raise ValueError(f"final: {exc}") from None
        for i, (entry, step) in enumerate(zip(schedule, steps)):
            req = _requirement_from_entry(entry, oracle, parsed)
            I.wire_object(step, _STEP_KEYS, "step")
            lower, met = c, False
            if step["pairs"] != [] or step["words"] != []:  # else c is its own upper condition
                met = _requirement_holds(req, lower, lower, oracle)
                c = F.verify_certificate_data(step, lower, oracle, parsed)
                for n, m in step["pairs"]:
                    if (image := goal.s.apply(n)) != m:
                        has = f"has no image for {n}" if image is None else f"maps {n} to {image}"
                        raise Refused(f"pair ({n}, {m}) is not in the final condition, which {has}")
                for text in step["words"]:
                    if parsed[text] not in goal.words:
                        raise Refused(f"word {text!r} is not in the final condition")
                try:
                    F.validate(c, oracle, lower)
                except Refused as exc:
                    raise Refused(f"invalid condition: {exc}") from None
            if not _requirement_holds(req, lower, c, oracle):
                raise Refused("requirement not satisfied")
            if met:
                raise Refused("requirement already met, but the step changes the condition")
        i = None
        if goal != c:  # every step's delta is in goal, so goal holds more
            extra = [f"pair ({n}, {m})" for n, m in final["injection"] if c.s.apply(n) is None]
            extra += [f"word {text!r}" for text in final["words"] if parsed[text] not in c.words]
            raise Refused(f"final condition holds {extra[0]}, which no step adds")
        decoded = I.wire_list(data["decoded"], "decoded")
        if _decode_final(c) != tuple(I.wire_int(b, bit=True) for b in decoded):
            raise Refused("decoded bits do not match the final condition")
    except Refused as exc:
        raise Refused(str(exc) if i is None else f"step {i}: {exc}") from None
    except (KeyError, TypeError, ValueError, OrbitCodeError) as exc:
        where = "malformed trace" if i is None else f"step {i}: malformed"
        raise Refused(f"{where}: {exc}") from None
