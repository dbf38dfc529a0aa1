"""Scheduler runs, sealing, decoding, staged construction, trace replay."""

import itertools
import json

import pytest

from orbitcode import (
    DomainHits,
    ExplicitTree,
    Flavor,
    FullInjectiveTree,
    OrbitCodeError,
    OrbitCoded,
    PartialInjection,
    PrefixTooShort,
    RangeHits,
    SparseCongruenceTree,
    TreeDiagonalized,
    WordAdded,
    Word,
    X,
    X_INV,
    auto_schedule,
    closed_orbits,
    coding_condition,
    decode,
    format_word,
    group,
    leq,
    o_dagger,
    open_orbits,
    orbit_decomposition,
    run,
    seal,
    staged_oracle,
    staged_run,
    trace_to_data,
    translation_oracle,
    trivial_oracle,
    validate,
    verify_certificate_data,
    verify_tightness_sample,
    verify_trace_data,
    word_graph,
    x_power,
)
from orbitcode import engine as E
from orbitcode import forcing as F
from orbitcode import injections as I
from orbitcode import oracle as O
from orbitcode import words as W
from orbitcode.errors import Refused
from orbitcode.engine import _grow_stage_by, requirement_from_data, requirement_to_data

import helpers


def test_plain_run_covers_the_requested_points():
    oracle = trivial_oracle()
    trace = run(Flavor.PLAIN, None, [DomainHits(i) for i in range(5)], oracle)
    s = trace.final.s
    for i in range(5):
        assert s.apply(i) is not None
    assert len(set(s.as_dict().values())) == len(s)
    assert trace.decoded == ()


def test_plain_runs_reject_target_bits():
    with pytest.raises(ValueError):
        run(Flavor.PLAIN, (1, 0), [DomainHits(0)], trivial_oracle())


@pytest.mark.parametrize("flavor", [Flavor.CODING, Flavor.DAGGER])
def test_runs_reject_target_bits_other_than_0_and_1(flavor):
    """Only the integers 0 and 1 are bits; staged runs are dagger runs.

    verify reads nothing else as a bit, so a run given a 2, a float, a
    string or a boolean would write a trace it refuses.
    """
    for bits, shown in (((1, 2), r"\[1, 2\]"), ((1.7, "0", True), r"\[1.7, '0', True\]")):
        with pytest.raises(ValueError, match=rf"target bits must be 0 or 1, got {shown}"):
            run(flavor, bits, [DomainHits(0)], trivial_oracle())
        if flavor is Flavor.DAGGER:
            with pytest.raises(ValueError, match=rf"target bits must be 0 or 1, got {shown}"):
                staged_run([bits])


def test_coding_run_round_trips_its_bits():
    oracle = trivial_oracle()
    r = (1, 0, 1, 1)
    trace = run(Flavor.CODING, r, auto_schedule(Flavor.CODING, 4), oracle)
    assert trace.decoded == r
    assert decode(trace.final.s, "orbit_order", 3) == r


def test_certificates_chain_across_the_run():
    """Each step's condition extends the one before it, step 0's the empty condition."""
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, (1, 1), auto_schedule(Flavor.CODING, 2), oracle)
    empty = coding_condition((1, 1))
    previous = empty
    for step in trace.steps:
        leq(step.condition, previous, oracle)
        previous = step.condition
    assert trace.final == previous
    # transitivity: the last condition sits below the empty one
    leq(trace.final, empty, oracle)


@pytest.mark.parametrize("flavor, bits", [(Flavor.PLAIN, None), (Flavor.CODING, (1, 0))])
def test_adjoining_an_inadmissible_word_is_refused(flavor, bits):
    schedule = [DomainHits(0), WordAdded(Word((X_INV,)))]
    with pytest.raises(OrbitCodeError, match=r"x\^-1"):
        run(flavor, bits, schedule, trivial_oracle())


def test_a_multi_orbit_coding_step_stores_the_chained_certificate():
    """The step stores the condition its three closures reach, and its delta rebuilds it."""
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, (1, 0, 1), [WordAdded(x_power(1)), OrbitCoded(2)], oracle)
    lower, upper = trace.steps[0].condition, trace.steps[1].condition
    assert len(closed_orbits(upper.s)) - len(closed_orbits(lower.s)) == 3
    leq(upper, lower, oracle)
    validate(upper, oracle)
    assert verify_certificate_data(_wire(trace, oracle)["steps"][1], lower, oracle) == upper


def test_a_met_requirement_stores_the_condition_before_it_and_checks_nothing(monkeypatch):
    """No leq of a condition against itself: what changes nothing returns its input.

    A coding auto:8 run, a plain run that repeats a hit, a dagger run that
    adjoins a word its E holds already, and a seal with no open orbit.  A
    step whose requirement the condition before it met stores that very
    condition and writes an empty delta.
    """
    reflexive = []
    leq_ = F.leq

    def counted(upper, lower, oracle):
        reflexive.append(upper is lower)
        return leq_(upper, lower, oracle)

    monkeypatch.setattr(F, "leq", counted)
    oracle = trivial_oracle()
    traces = [
        run(Flavor.CODING, (1, 0, 1, 1, 0, 0, 1, 0), auto_schedule(Flavor.CODING, 8), oracle),
        run(Flavor.PLAIN, None, [DomainHits(0), RangeHits(3), DomainHits(0)], oracle),
        run(Flavor.DAGGER, (1, 1), [WordAdded(x_power(2)), WordAdded(x_power(1))], oracle),
    ]
    for t, trace in enumerate(traces):
        steps, met = _wire(trace, oracle)["steps"], 0
        for i in range(1, len(trace.steps)):
            before = trace.steps[i - 1].condition
            if E._requirement_holds(trace.steps[i].requirement, (), before, oracle):
                met += 1
                assert trace.steps[i].condition is before, (t, i)
                assert (steps[i]["pairs"], steps[i]["words"]) == ([], []), (t, i)
        assert met > 0, t
    dagger = traces[2].final
    assert x_power(1) in dagger.words and not open_orbits(dagger.s)
    assert F.add_word(dagger, x_power(1), oracle) is dagger
    assert seal(traces[2], oracle).condition is dagger
    assert reflexive and True not in reflexive


def _workload_shaped_traces():
    """Coding auto:64, dagger auto:6 over translations, trees-40's shape, staged triple 052."""
    trivial = trivial_oracle()
    bits = tuple((7 * i + 3) % 5 % 2 for i in range(64))
    yield run(Flavor.CODING, bits, auto_schedule(Flavor.CODING, 64), trivial)
    yield run(Flavor.DAGGER, bits[:6], auto_schedule(Flavor.DAGGER, 6), translation_oracle())
    schedule = [WordAdded(x_power(1))]
    for seed in range(20):
        schedule += [TreeDiagonalized(FullInjectiveTree())]
        schedule += [TreeDiagonalized(SparseCongruenceTree(seed))]
    schedule += [DomainHits(i) for i in range(16)] + [RangeHits(i) for i in range(16)]
    yield run(Flavor.PLAIN, None, schedule, trivial)
    targets = [[(0x052 >> (4 * (2 - k) + 3 - j)) & 1 for j in range(4)] for k in range(3)]
    yield from (stage.trace for stage in staged_run(targets))


def test_every_step_map_is_one_version_of_the_map_before_it(monkeypatch):
    """Each step's map was made from the map of the condition it met by one with_pairs.

    No step of these runs chains operations, so leq, verify and the trace
    writer read each delta off that one link; an anchored orbit closure
    makes its anchor pair and its chain in one.  The lower conditions are
    the ones each step that returned was given, step 0's the run's own
    empty condition.
    """
    lowers = []
    apply = E._apply_requirement

    def recording(req, c, oracle):
        reached = apply(req, c, oracle)
        lowers.append(c)
        return reached

    monkeypatch.setattr(E, "_apply_requirement", recording)
    for t, trace in enumerate(_workload_shaped_traces()):
        given = [lowers.pop(0) for _ in trace.steps]
        apart = [step.index for step, c in zip(trace.steps, given)
                 if not helpers.one_link(step.condition.s, c.s)]
        assert apart == [], f"trace {t}"
    assert lowers == []


def test_dagger_run_codes_the_prime_parities():
    oracle = trivial_oracle()
    schedule = [WordAdded(x_power(j)) for j in (1, 2, 3)]
    trace = run(Flavor.DAGGER, (1, 1), schedule, oracle)
    assert o_dagger(trace.final.s, 1) == (1, 1)
    assert trace.decoded == (1, 1)


def test_run_keeps_every_requirement_satisfied():
    oracle = trivial_oracle()
    schedule = [DomainHits(3), RangeHits(5), WordAdded(x_power(2)), DomainHits(3)]
    trace = run(Flavor.PLAIN, None, schedule, oracle)
    assert trace.final.s.apply(3) is not None
    assert trace.final.s.apply_inverse(5) is not None
    assert x_power(2) in trace.final.words
    assert trace.steps[3].op == "already_present"


def test_seal_closes_every_orbit():
    oracle = trivial_oracle()
    schedule = [WordAdded(x_power(1)), DomainHits(0), DomainHits(10)]
    trace = run(Flavor.PLAIN, None, schedule, oracle)
    assert open_orbits(trace.final.s)
    stage = seal(trace, oracle)
    assert not open_orbits(stage.injection)
    validate(stage.condition, oracle)
    assert stage.window == helpers.mex(stage.injection.support)


def test_seal_of_a_fully_closed_run_keeps_the_condition():
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, (1,), auto_schedule(Flavor.CODING, 1), oracle)
    leftover = open_orbits(trace.final.s)
    stage = seal(trace, oracle)
    if not leftover:
        assert stage.condition == trace.final


def test_seal_does_not_disturb_committed_parities():
    oracle = trivial_oracle()
    schedule = [WordAdded(x_power(1)), WordAdded(x_power(2)), DomainHits(9)]
    trace = run(Flavor.DAGGER, (1,), schedule, oracle)
    before = o_dagger(trace.final.s, 0)
    stage = seal(trace, oracle)
    assert o_dagger(stage.injection, 0) == before == (1,)


def test_decode_prime_parity_of_the_empty_injection():
    assert decode(PartialInjection(), "prime_parity", 3) == (0, 0, 0, 0)


def test_a_long_dagger_target_buys_no_prime_search(monkeypatch):
    """Bits past the largest cycle size are 0, so a long target computes no prime past it.

    A dagger run with 10,000 target bits and no step, its verify, its seal
    embedded as a stage and decode each read all the bits.
    """
    nth_prime = I.nth_prime

    def bounded(n):
        assert n <= 100, f"nth_prime({n}) searched"
        return nth_prime(n)

    monkeypatch.setattr(I, "nth_prime", bounded)
    bits = (0,) * 10_000
    oracle = trivial_oracle()
    trace = run(Flavor.DAGGER, bits, [], oracle)
    assert trace.decoded == bits
    verify_trace_data(_wire(trace, oracle))
    stages = staged_oracle([seal(trace, oracle)])
    verify_trace_data(_wire(run(Flavor.PLAIN, None, [DomainHits(0)], stages), stages))
    assert decode(PartialInjection([(0, 1), (1, 0)]), "prime_parity", 9_999) == (1,) + bits[1:]


def test_decode_orbit_order_counts_by_minimum():
    s = PartialInjection([(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)])
    assert decode(s, "orbit_order") == (1, 0)
    assert decode(s, "orbit_order", 1) == (1, 0)


def test_decode_orbit_order_refuses_short_prefixes():
    s = PartialInjection([(0, 1), (1, 0)])
    with pytest.raises(PrefixTooShort):
        decode(s, "orbit_order", 3)


def test_decode_rejects_unknown_modes():
    with pytest.raises(ValueError):
        decode(PartialInjection(), "off_by_one")
    with pytest.raises(ValueError):
        decode(PartialInjection(), "prime_parity")


def test_tightness_sample_reports_witnesses():
    oracle = trivial_oracle()
    trace = run(Flavor.PLAIN, None, [DomainHits(i) for i in range(4)], oracle)
    stage = seal(trace, oracle)
    g = stage.injection.as_dict()
    matching = ExplicitTree.from_branch((g[0],))
    disjoint = ExplicitTree.from_branch((g[0] + 1 if g[1] != g[0] + 1 else g[0] + 2,))
    reports = verify_tightness_sample(stage, [matching, disjoint])
    assert reports[0]["densely_diagonalizes"]
    assert reports[0]["root_witness"] == {"node": [g[0]], "index": 0}
    assert not reports[1]["densely_diagonalizes"]
    assert reports[1]["counterexample"] == []
    assert verify_tightness_sample(stage, []) == []


def test_scheduled_trees_are_witnessed_by_the_run():
    oracle = trivial_oracle()
    tree = FullInjectiveTree()
    schedule = [WordAdded(x_power(1)), TreeDiagonalized(tree), TreeDiagonalized(tree)]
    schedule += [DomainHits(i) for i in range(6)] + [RangeHits(i) for i in range(6)]
    trace = run(Flavor.PLAIN, None, schedule, oracle)
    stage = seal(trace, oracle)
    g = stage.injection.as_dict()
    for step in trace.steps:
        if not isinstance(step.requirement, TreeDiagonalized):
            continue
        k = step.extra["witness_index"]
        branch = tuple(step.extra["witness_node"])[: k + 1]
        assert g[k] == branch[k]
        explicit = ExplicitTree.from_branch(branch)
        reports = verify_tightness_sample(stage, [explicit])
        assert reports[0]["densely_diagonalizes"]


def test_single_stage_construction_matches_a_plain_dagger_run():
    stages = staged_run([(1, 0)])
    assert len(stages) == 1
    stage = stages[0]
    assert not open_orbits(stage.injection)
    assert decode(stage.injection, "prime_parity", 1) == (1, 0)


def test_two_stage_construction_keeps_targets_apart():
    r0, r1 = (1, 0), (0, 1)
    stages = staged_run([r0, r1])
    assert decode(stages[0].injection, "prime_parity", 1) == r0
    assert decode(stages[1].injection, "prime_parity", 1) == r1


def test_second_stage_words_mention_the_first_generator():
    stages = staged_run([(1,), (1,)])
    words = stages[1].condition.words
    assert any(
        any(letter.handle is not None for letter in w.letters) for w in words
    )
    oracle = staged_oracle(stages[:1])
    gx = Word((group(oracle.generator(0)), X))
    graph = word_graph(gx, stages[1].injection, oracle)
    orbits = orbit_decomposition(graph)
    assert any(o.closed for o in orbits)


def test_later_stages_grow_the_earlier_windows():
    stages = staged_run([(1,), (1,), (1,)])
    assert stages[0].trace.growth_events == []
    assert stages[1].trace.growth_events or stages[2].trace.growth_events
    events = stages[1].trace.growth_events + stages[2].trace.growth_events
    assert all(set(event) == {"step", "required", "cycles"} for event in events)
    assert any(event["cycles"][0] for event in events), "stage 0 gains cycles"


def test_trace_serialization_replays_cleanly():
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, (1, 0, 1), auto_schedule(Flavor.CODING, 3), oracle)
    data = trace_to_data(trace, oracle)
    assert data["conventions"]["prime_indexing"]
    wire = json.loads(json.dumps(data))
    verify_trace_data(wire)


def test_tampered_traces_fail_replay():
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, (1, 0), auto_schedule(Flavor.CODING, 2), oracle)
    data = json.loads(json.dumps(trace_to_data(trace, oracle)))
    data["steps"][3]["pairs"][0][1] += 1
    helpers.reseal(data)  # so only the pair itself is forged
    result = helpers.refusal(verify_trace_data, data)
    assert "step" in result


def test_rewritten_decoded_bits_fail_replay():
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, (1, 0), auto_schedule(Flavor.CODING, 2), oracle)
    data = json.loads(json.dumps(trace_to_data(trace, oracle)))
    data["decoded"] = [0, 0]
    helpers.refusal(verify_trace_data, data)


def _wire(trace, oracle):
    return json.loads(json.dumps(trace_to_data(trace, oracle)))


@pytest.fixture(scope="module")
def three_stages():
    return staged_run([(1,), (1,), (1,)])


def test_every_stage_trace_replays_its_growth_events(three_stages):
    assert three_stages[1].trace.growth_events
    assert three_stages[2].trace.growth_events
    for i, stage in enumerate(three_stages):
        verify_trace_data(_wire(stage.trace, staged_oracle(three_stages[:i])))


def test_a_stage_trace_without_its_growth_events_fails_replay(three_stages):
    data = _wire(three_stages[1].trace, staged_oracle(three_stages[:1]))
    data["growth_events"] = []
    result = helpers.refusal(verify_trace_data, data)
    assert result.startswith("step 1:")


def test_a_growth_target_off_the_engine_rule_fails_replay(three_stages):
    """A forged `required` moves the rule's target past the window the written cycles reach."""
    data = _wire(three_stages[1].trace, staged_oracle(three_stages[:1]))
    [(_, reached)] = _growth_windows(data)[:1]
    data["growth_events"][0]["required"] = reached
    result = helpers.refusal(verify_trace_data, data)
    assert result == f"growth event 0: window {reached} is short of target {reached + 16}"


def test_a_stage_trace_missing_its_first_growth_event_fails_replay(three_stages):
    data = _wire(three_stages[1].trace, staged_oracle(three_stages[:1]))
    assert [event["step"] for event in data["growth_events"]] == [1, 11]
    data["growth_events"].pop(0)
    result = helpers.refusal(verify_trace_data, data)
    assert "growth event 0" in result


def _growth_windows(data):
    """(the rule's target, the window reached) per growth event, from the cycles written.

    A stage's window is the least natural outside its cycles, the oracle's
    the least of its stages'.
    """
    points = [{p for c in stage["cycles"] for p in c} for stage in data["oracle"]["stages"]]
    windows = []
    for event in data["growth_events"]:
        target = max(event["required"], 2 * min(map(helpers.mex, points))) + 16
        for s, cycles in zip(points, event["cycles"]):
            s.update(p for c in cycles for p in c)
        windows.append((target, min(map(helpers.mex, points))))
    return windows


POOL_052 = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0))  # the benchmark pool's triple 052


@pytest.fixture(scope="module")
def pool_stages():
    return staged_run(POOL_052)


def test_a_hostile_required_buys_no_work(pool_stages, monkeypatch):
    """required = 2^62 with the rule's target is refused at its event, searching nothing.

    Replaying growth by the rule would grow the window to 2^62 + 16; checking
    the written cycles costs no more than verifying the unedited trace.
    """
    text = json.dumps(_wire(pool_stages[1].trace, staged_oracle(pool_stages[:1])))
    evaluations, oracle_evals = _count_evaluations(monkeypatch), []
    oracle_eval = O.StagedOracle.eval

    def counted(self, a, n):
        oracle_evals.append(n)
        return oracle_eval(self, a, n)

    monkeypatch.setattr(O.StagedOracle, "eval", counted)
    verify_trace_data(json.loads(text))
    honest = (len(evaluations), len(oracle_evals))
    assert min(honest) > 0
    data = json.loads(text)
    [(_, window)] = _growth_windows(data)
    [event] = data["growth_events"]
    event["required"] = 2**62
    evaluations.clear()
    oracle_evals.clear()
    result = helpers.refusal(verify_trace_data, data)
    assert result == f"growth event 0: window {window} is short of target {2**62 + 16}"
    assert len(evaluations) <= honest[0] and len(oracle_evals) <= honest[1]


def _point_edits(p):
    """One point p rewritten: its neighbours, a far point, 0, a negative, non-integers, or dropped."""
    return (p - 1, p + 1, p + 1000, 0, -1, float(p), str(p), None)


def test_a_single_point_edit_of_a_growth_cycle_is_refused_unless_past_its_target(pool_stages):
    """Every edit of every growth cycle of 052's stage-2 trace; only Refused escapes.

    An edit at or to a point below its event's target leaves a hole below
    the target, or writes a point twice, or meets the old stage, so it is
    refused.  Past the target, a point that closed an orbit may move or go
    and the grown stage still extends, validates and reaches the window:
    verify checks that growth is sound, not that it is the engine's least.
    """
    text = json.dumps(_wire(pool_stages[2].trace, staged_oracle(pool_stages[:2])))
    initial = json.loads(text)
    events, windows = initial["growth_events"], _growth_windows(initial)
    assert all(len(event["cycles"]) == 2 for event in events)
    edits = refused = 0
    for e, (event, (target, _)) in enumerate(zip(events, windows)):
        for k, cycles in enumerate(event["cycles"]):
            for c, cycle in enumerate(cycles):
                for i, p in enumerate(cycle):
                    for new in _point_edits(p):
                        data = json.loads(text)
                        edited = data["growth_events"][e]["cycles"][k][c]
                        if new is None:
                            del edited[i]
                        else:
                            edited[i] = new
                        edits += 1
                        try:
                            verify_trace_data(data)
                        except Refused:
                            refused += 1
                            continue
                        past = p >= target and (new is None or new >= target)
                        assert past, (e, k, c, i, p, new)
    assert edits > 100 and refused > edits * 3 // 4


def test_a_dagger_run_over_translations_replays_its_word_requirement():
    oracle = translation_oracle()
    trace = run(Flavor.DAGGER, (1, 0), [WordAdded(Word((group(1), X)))], oracle)
    verify_trace_data(_wire(trace, oracle))


def _tree_step_wire():
    oracle = trivial_oracle()
    schedule = [DomainHits(0), TreeDiagonalized(FullInjectiveTree())]
    data = _wire(run(Flavor.PLAIN, None, schedule, oracle), oracle)
    verify_trace_data(data)
    return data


def _index_99(step):
    """Index 99: the node run on by fresh values so that it ends there."""
    node = step["witness_node"]
    return {"witness_node": node + list(range(1000, 1100 - len(node)))}


@pytest.mark.parametrize(
    "forge",
    [_index_99, lambda step: {"witness_node": [5] * len(step["witness_node"])}],
    ids=["witness_index", "witness_node"],
)
def test_a_forged_tree_witness_fails_replay(forge):
    data = _tree_step_wire()
    step = data["steps"][1]
    step.update(forge(step))
    result = helpers.refusal(verify_trace_data, data)
    assert result == "step 1: requirement not satisfied"


def test_the_wire_form_shares_no_mutable_object_with_its_trace():
    """Editing the witness or oracle trace_to_data wrote leaves the trace and its next writing."""
    oracle = trivial_oracle()
    trace = run(Flavor.PLAIN, None, [DomainHits(0), TreeDiagonalized(FullInjectiveTree())], oracle)
    extra = json.loads(json.dumps(trace.steps[1].extra))
    fresh = json.dumps(trace_to_data(trace, oracle))
    data = trace_to_data(trace, oracle)
    data["steps"][1]["witness_node"].append(99)
    data["oracle"]["kind"] = "forged"
    assert trace.steps[1].extra == extra
    assert json.dumps(trace_to_data(trace, oracle)) == fresh


def test_a_tree_witness_past_its_index_is_refused_at_its_step():
    """The witness a trace writes ends at its index: values past it move the index the reader takes.

    The step then claims s(k) = node[k] at a later k, which its map does not
    meet, whether the node runs on by one value or by several.
    """
    trace = run(Flavor.PLAIN, None, [DomainHits(0), TreeDiagonalized(FullInjectiveTree())],
                trivial_oracle())
    assert trace.steps[1].extra["witness_index"] == len(trace.steps[1].extra["witness_node"]) - 1
    for more in ([1000], [1000, 1001, 1002]):
        data = _tree_step_wire()
        data["steps"][1]["witness_node"] += more
        result = helpers.refusal(verify_trace_data, data)
        assert result == "step 1: requirement not satisfied"


def test_a_growth_event_on_an_unwindowed_oracle_fails_replay():
    oracle = trivial_oracle()
    data = _wire(run(Flavor.CODING, (1, 0), auto_schedule(Flavor.CODING, 2), oracle), oracle)
    event = {"step": 0, "required": 5, "cycles": []}
    data["growth_events"].append(event)
    result = helpers.refusal(verify_trace_data, data)
    assert result == "malformed trace: growth event 0: the oracle has no window to grow"


def _cycle_maps(points):
    """Every injection with only cycles on a subset of `points`, as its cycles on the wire."""
    for size in range(len(points) + 1):
        for subset in itertools.combinations(points, size):
            for image in itertools.permutations(subset):
                graph, cycles = dict(zip(subset, image)), []
                for p in subset:  # ascending, so each cycle starts at its minimum
                    if all(p not in cycle for cycle in cycles):
                        cycles.append([p])
                        while graph[cycles[-1][-1]] != p:
                            cycles[-1].append(graph[cycles[-1][-1]])
                yield cycles


def test_a_grown_stage_the_order_recheck_passes_still_validates():
    """Every stage on {0..5} with E = closure(x, k), k <= 3, grown by one or two new cycles.

    A new cycle of a prime size p <= k would make x^p gain its points, so
    the order recheck refuses it before the dagger code could change: a
    stage that validated before an accepted growth validates after it, and
    growing checks no more than the order.
    """
    oracle = trivial_oracle()
    points = tuple(range(6))
    growths = {}  # the one- and two-cycle growths on each set of free points
    accepted = refused = 0
    for k in (1, 2, 3):
        words = frozenset(W.closure(x_power(1), k, oracle))
        last = len(I.primes_up_to(k)) - 1
        for cycles in _cycle_maps(points):
            s = PartialInjection(I.pairs_from_cycles(cycles))
            condition = F.dagger_condition(I.o_dagger(s, last), s, words)
            validate(condition, oracle)
            free = tuple(p for p in points if s.apply(p) is None)
            if free not in growths:
                growths[free] = [new for new in _cycle_maps(free) if len(new) in (1, 2)]
            for new in growths[free]:
                stage = O.CompletedStage(condition, oracle)
                try:
                    _grow_stage_by(stage, new)
                except Refused:
                    refused += 1
                    continue
                validate(stage.condition, oracle)
                accepted += 1
    assert (accepted, refused) == (5464, 18725)


def _forge_op(data):
    data["steps"][1]["op"] = "forged"


def _forge_lower(data):
    lower = {"injection": [[9, 9]], "words": []}
    data["steps"][1]["lower"] = lower


def _keep_snapshots(data):
    data["steps"][1]["fixpoint_snapshots"] = []


def _extra_on_a_hit(data):
    data["steps"][1]["witness_node"] = []


@pytest.mark.parametrize("forge", [_forge_op, _forge_lower, _keep_snapshots, _extra_on_a_hit])
def test_a_step_with_a_key_outside_the_format_fails_replay(forge):
    oracle = trivial_oracle()
    data = _wire(run(Flavor.CODING, (1, 0), auto_schedule(Flavor.CODING, 2), oracle), oracle)
    verify_trace_data(data)
    forge(data)
    result = helpers.refusal(verify_trace_data, data)
    assert result.startswith("step 1: malformed: ")


@pytest.mark.parametrize(
    "key, forged", [("witness_index", 1), ("witness_node", None), ("origin", "forged")]
)
def test_a_tree_witness_with_a_key_outside_the_format_fails_replay(key, forged):
    """A tree step writes its witness node alone: no index beside it, and no other key."""
    oracle = trivial_oracle()
    schedule = [DomainHits(0), TreeDiagonalized(FullInjectiveTree())]
    data = _wire(run(Flavor.PLAIN, None, schedule, oracle), oracle)
    if forged is None:
        del data["steps"][1][key]
    else:
        data["steps"][1][key] = forged
    result = helpers.refusal(verify_trace_data, data)
    assert result.startswith("step 1: malformed: step has keys")


@pytest.mark.parametrize("key", ["growth_events", "target", "note"])
def test_a_trace_with_a_top_level_key_outside_the_format_fails_replay(key):
    oracle = trivial_oracle()
    data = _wire(run(Flavor.CODING, (1, 0), auto_schedule(Flavor.CODING, 2), oracle), oracle)
    if key in data:
        del data[key]
    else:
        data[key] = "forged"
    result = helpers.refusal(verify_trace_data, data)
    assert result.startswith("malformed trace: trace has keys")


def test_a_growth_event_with_a_key_outside_the_format_fails_replay(three_stages):
    data = _wire(three_stages[1].trace, staged_oracle(three_stages[:1]))
    data["growth_events"][0]["note"] = "forged"
    result = helpers.refusal(verify_trace_data, data)
    assert result.startswith("malformed trace: growth event 0 has keys")


def _note_at(*path):
    def forge(data):
        for key in path:
            data = data[key]
        data["note"] = "forged"

    return forge


@pytest.mark.parametrize(
    "forge, reason",
    [
        (_note_at("steps", 1), "step 1: malformed: step has keys"),
        (_note_at("schedule", 0), "step 0: malformed: schedule entry has keys"),
        (_note_at("final"), "malformed trace: final has keys"),
        (_note_at("oracle"), "malformed trace: oracle has keys"),
    ],
    ids=["upper", "schedule", "final", "oracle"],
)
def test_a_condition_schedule_entry_or_oracle_with_a_key_outside_the_format_fails_replay(
    forge, reason
):
    oracle = trivial_oracle()
    data = _wire(run(Flavor.CODING, (1, 0), auto_schedule(Flavor.CODING, 2), oracle), oracle)
    verify_trace_data(data)
    forge(data)
    result = helpers.refusal(verify_trace_data, data)
    assert result.startswith(reason)


@pytest.mark.parametrize(
    "tree",
    [FullInjectiveTree(), SparseCongruenceTree(seed=3), ExplicitTree.from_branch((3, 4, 5))],
    ids=["full", "sparse", "explicit"],
)
def test_a_tree_descriptor_with_a_key_outside_the_format_fails_replay(tree):
    oracle = trivial_oracle()
    schedule = [DomainHits(0), TreeDiagonalized(tree)]
    data = _wire(run(Flavor.PLAIN, None, schedule, oracle), oracle)
    verify_trace_data(data)
    data["schedule"][1]["tree"]["note"] = "forged"
    result = helpers.refusal(verify_trace_data, data)
    reason = "step 1: malformed: schedule entry's tree is not the one its requirement writes"
    assert result == reason


def test_a_plain_condition_with_target_bits_fails_replay():
    oracle = trivial_oracle()
    data = _wire(run(Flavor.PLAIN, None, [DomainHits(0), DomainHits(1)], oracle), oracle)
    data["final"]["r_prefix"] = []
    result = helpers.refusal(verify_trace_data, data)
    assert result.startswith("malformed trace: final has keys")


def test_an_embedded_stage_with_a_key_outside_the_format_fails_replay(three_stages):
    data = _wire(three_stages[1].trace, staged_oracle(three_stages[:1]))
    verify_trace_data(data)
    data["oracle"]["stages"][0]["note"] = "forged"
    result = helpers.refusal(verify_trace_data, data)
    assert result.startswith("malformed trace: oracle stage 0 has keys")


@pytest.fixture(scope="module")
def second_stage_wire():
    """The stage-1 trace of two one-bit stages, as text; its oracle embeds stage 0."""
    stages = staged_run([(1,), (1,)])
    return json.dumps(trace_to_data(stages[1].trace, staged_oracle(stages[:1])))


def _flip_bits(stage):
    stage["target_bits"] = [1 - b for b in stage["target_bits"]]


def _flip_bits_and_drop_words(stage):
    _flip_bits(stage)
    stage["words"] = []


@pytest.mark.parametrize(
    "forge, clause",
    [
        (_flip_bits, "invalid condition: evaluation of 'x' miscodes bit 0"),
        (_flip_bits_and_drop_words, "decodes to [1], not its target bits [0]"),
    ],
    ids=["target-bits", "target-bits-no-words"],
)
def test_an_embedded_stage_that_seal_did_not_make_fails_replay(second_stage_wire, forge, clause):
    data = json.loads(second_stage_wire)
    verify_trace_data(data)
    forge(data["oracle"]["stages"][0])
    result = helpers.refusal(verify_trace_data, data)
    assert result == f"malformed trace: stage 0: {clause}"


def _rotate_a_cycle(stage):
    first = stage["cycles"][0]
    first.append(first.pop(0))


def _reverse_cycles(stage):
    stage["cycles"].reverse()


def _repeat_a_point(stage):
    stage["cycles"][1].append(stage["cycles"][0][1])


def _reverse_words(stage):
    stage["words"].reverse()


def _spell_out_a_power(stage):
    stage["words"] = ["x.x" if text == "x^2" else text for text in stage["words"]]


@pytest.mark.parametrize(
    "forge, clause",
    [
        (_rotate_a_cycle, "cycle [3, 4, 0] does not start at its minimum"),
        (_reverse_cycles, "cycle minima do not increase: 0 after 1"),
        (_repeat_a_point, "point 3 is written twice"),
        (_reverse_words, "word texts do not strictly increase"),
        (_spell_out_a_power, "word 'x.x' is not written as its parse"),
    ],
    ids=["rotated-cycle", "reversed-cycles", "repeated-point", "reversed-words",
         "spelled-out-power"],
)
def test_an_embedded_stage_not_in_the_writers_form_fails_replay(second_stage_wire, forge, clause):
    data = json.loads(second_stage_wire)
    assert data["oracle"]["stages"][0]["cycles"] == [[0, 3, 4], [1, 2]]
    assert data["oracle"]["stages"][0]["words"] == ["x", "x^2"]
    forge(data["oracle"]["stages"][0])
    result = helpers.refusal(verify_trace_data, data)
    assert result == f"malformed trace: stage 0: {clause}"


def _bits_as_booleans(stage):
    stage["target_bits"] = [bool(b) for b in stage["target_bits"]]


@pytest.mark.parametrize(
    "forge, clause",
    [(_bits_as_booleans, "True is not a bit")],
    ids=["boolean-target-bits"],
)
def test_an_embedded_stage_number_not_written_as_an_integer_fails_replay(
    second_stage_wire, forge, clause
):
    data = json.loads(second_stage_wire)
    forge(data["oracle"]["stages"][0])
    result = helpers.refusal(verify_trace_data, data)
    assert result == f"malformed trace: stage 0: {clause}"


def _coding_trace():
    oracle = trivial_oracle()
    return _wire(run(Flavor.CODING, (1, 0, 1, 1), auto_schedule(Flavor.CODING, 4), oracle), oracle)


def _sparse_tree_trace():
    oracle = trivial_oracle()
    schedule = [DomainHits(0), TreeDiagonalized(SparseCongruenceTree(seed=1))]
    return _wire(run(Flavor.PLAIN, None, schedule, oracle), oracle)


def _rewrite_zero(side, value):
    """Write the point 0 of step 0's delta, on the domain (0) or range (1) side."""

    def forge(data):
        [pair] = [pair for pair in data["steps"][0]["pairs"] if pair[side] == 0]
        pair[side] = value

    return forge


def _float_witness(data):
    step = data["steps"][1]
    step["witness_node"] = [float(v) for v in step["witness_node"]]


@pytest.mark.parametrize(
    "trace, forge, reason",
    [
        (_coding_trace, _rewrite_zero(0, 0.0), "step 0: malformed: 0.0 is not an integer"),
        (_coding_trace, _rewrite_zero(1, "0"), "step 0: malformed: '0' is not an integer"),
        (
            _coding_trace,
            lambda data: data["target"].__setitem__(0, 1.5),
            "malformed trace: 1.5 is not a bit",
        ),
        (
            _coding_trace,
            lambda data: data.__setitem__("decoded", [str(b) for b in data["decoded"]]),
            "malformed trace: '1' is not a bit",
        ),
        (
            _coding_trace,
            lambda data: data.__setitem__("target", [bool(b) for b in data["target"]]),
            "malformed trace: True is not a bit",
        ),
        (
            _coding_trace,
            lambda data: data["schedule"][3].__setitem__("n", True),
            "step 3: malformed: True is not an integer",
        ),
        (
            _sparse_tree_trace,
            lambda data: data["schedule"][1]["tree"].__setitem__("seed", 1.0),
            "step 1: malformed: 1.0 is not an integer",
        ),
        (_sparse_tree_trace, _float_witness, "step 1: malformed: 1.0 is not an integer"),
        (
            _coding_trace,
            lambda data: data["conventions"].__setitem__("format_version", 8.0),
            "malformed trace: 8.0 is not an integer",
        ),
    ],
    ids=["float-point", "string-point", "float-target-bit", "string-decoded-bits",
         "boolean-target-bits", "boolean-schedule-point", "float-tree-seed",
         "float-witness-node", "float-format-version"],
)
def test_a_number_not_written_as_a_json_integer_fails_replay(trace, forge, reason):
    data = trace()
    verify_trace_data(data)
    forge(data)
    result = helpers.refusal(verify_trace_data, data)
    assert result == reason


CODING_16 = tuple((7 * i + 3) % 5 % 2 for i in range(16))


def test_neither_a_coding_run_nor_its_verify_rebuilds_the_orbit_decomposition(monkeypatch):
    calls = []
    decomposition = I.orbit_decomposition

    def counted(s):
        calls.append(s)
        return decomposition(s)

    monkeypatch.setattr(I, "orbit_decomposition", counted)
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, CODING_16, auto_schedule(Flavor.CODING, 16), oracle)
    verify_trace_data(_wire(trace, oracle))
    assert len(calls) == 0


def _plain_trees_schedule(per_kind=2, word=x_power(1)):
    """The schedule of the plain-trees digest build (tests/test_trace_digests.py).

    With `per_kind` above 2 it takes that many full trees, and sparse trees
    of seeds 3, 4, 5, ..., in place of two of each; with `word`, that word in
    place of x.
    """
    schedule = [WordAdded(word)]
    schedule += [TreeDiagonalized(FullInjectiveTree()) for _ in range(per_kind)]
    schedule += [TreeDiagonalized(SparseCongruenceTree(seed)) for seed in range(3, 3 + per_kind)]
    for i in range(8):
        schedule += [DomainHits(i), RangeHits(i)]
    return schedule


def _count_evaluations(monkeypatch) -> list:
    calls = []
    evaluate = W.evaluate

    def counted(*args, **kwargs):
        calls.append(args[3])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(W, "evaluate", counted)
    return calls


def test_each_tree_option_check_costs_one_evaluation_per_scratch_word(monkeypatch):
    """A walk checks its options together, with one leq over all of them.

    That check evaluates each scratch word once per option at most.
    """
    calls = _count_evaluations(monkeypatch)
    checks = []
    walks = []
    leq, many_extensions = F.leq, F.many_extensions

    def counted_leq(upper, lower, oracle):
        before = len(calls)
        result = leq(upper, lower, oracle)
        if walks and walks[-1] is None:
            checks.append((len(calls) - before, len(lower.words), len(upper.s) - len(lower.s)))
        return result

    def flagged(*args):
        walks.append(None)
        node, options = many_extensions(*args)
        walks[-1] = len(options)
        return node, options

    monkeypatch.setattr(F, "leq", counted_leq)
    monkeypatch.setattr(F, "many_extensions", flagged)
    # eight walks, two trees of each kind four times over, and one check each
    run(Flavor.PLAIN, None, _plain_trees_schedule(4), trivial_oracle())
    assert len(walks) == len(checks) == 8 and max(walks) >= 3
    assert [options for *_, options in checks] == walks
    assert all(spent <= options * words for spent, words, options in checks), checks


def test_verify_evaluates_only_where_the_added_pairs_reach(monkeypatch):
    """One evaluation of g1.x per pair a step adds, not one per pair the step holds.

    The same schedule tracking x evaluates nothing: x[s] is s, so the order
    check reads x's new values and cycles off the map itself.
    """
    oracle = translation_oracle()
    schedule = _plain_trees_schedule(word=W.parse_word("g1.x", oracle))
    trace = run(Flavor.PLAIN, None, schedule, oracle)
    data = _wire(trace, oracle)
    calls = _count_evaluations(monkeypatch)
    verify_trace_data(data)
    assert len(trace.final.s) == 10 and len(trace.final.words) == 1
    assert 0 < len(calls) <= len(trace.final.s)
    trivial = trivial_oracle()
    data = _wire(run(Flavor.PLAIN, None, _plain_trees_schedule(), trivial), trivial)
    calls.clear()
    verify_trace_data(data)
    assert calls == []


def test_verify_recertifies_only_the_steps_that_add(monkeypatch):
    """A step whose delta is empty keeps its lower condition as its upper one.

    On a coding auto:64 trace, verify runs leq, validate and with_pairs once
    for each step that adds pairs, and none of them for a step that adds
    nothing, whose requirement it checks once; a step that adds checks its
    requirement against both conditions.
    """
    oracle = trivial_oracle()
    bits = tuple((7 * i + 3) % 5 % 2 for i in range(64))
    data = _wire(run(Flavor.CODING, bits, auto_schedule(Flavor.CODING, 64), oracle), oracle)
    step, counts = [-1], []
    entry_of = E._requirement_from_entry

    def entering(entry, oracle):
        step[0] += 1
        counts.append(dict.fromkeys(("leq", "validate", "with_pairs", "holds"), 0))
        return entry_of(entry, oracle)

    def counted(name, fn):
        def call(*args):
            counts[step[0]][name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(E, "_requirement_from_entry", entering)
    monkeypatch.setattr(F, "leq", counted("leq", F.leq))
    monkeypatch.setattr(F, "validate", counted("validate", F.validate))
    with_pairs = counted("with_pairs", I.PartialInjection.with_pairs)
    monkeypatch.setattr(I.PartialInjection, "with_pairs", with_pairs)
    monkeypatch.setattr(E, "_requirement_holds", counted("holds", E._requirement_holds))
    verify_trace_data(data)
    empty = {"leq": 0, "validate": 0, "with_pairs": 0, "holds": 1}
    adding = {"leq": 1, "validate": 1, "with_pairs": 1, "holds": 2}
    expected = [adding if s["pairs"] else empty for s in data["steps"]]
    assert counts == expected
    assert expected.count(empty) == 127 and expected.count(adding) == 65


def _index_state(s):
    index = s._orbits()
    return index.exit_of, index.entry_of, index.cycles


def test_verify_inherits_an_orbit_index_equal_to_one_built_from_scratch():
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, CODING_16, auto_schedule(Flavor.CODING, 16), oracle)
    lower = coding_condition(CODING_16)
    closed_orbits(lower.s)
    for i, step in enumerate(_wire(trace, oracle)["steps"]):
        upper = verify_certificate_data(step, lower, oracle)
        fresh = PartialInjection(upper.s.pairs())
        assert _index_state(upper.s) == _index_state(fresh), i
        lower = upper


def test_a_negative_requirement_point_fails_replay():
    oracle = trivial_oracle()
    data = _wire(run(Flavor.PLAIN, None, [DomainHits(0), RangeHits(0)], oracle), oracle)
    data["schedule"][1]["m"] = -3
    result = helpers.refusal(verify_trace_data, data)
    assert result == "step 1: malformed: negative point -3"


@pytest.mark.parametrize("text", ["x^0", "", "x.x^-1"])
def test_a_word_added_entry_that_reduces_to_the_identity_is_refused(text):
    """The entry names its word as written; no run would reach it."""
    with pytest.raises(ValueError) as raised:
        requirement_from_data({"kind": "word_added", "word": text}, trivial_oracle())
    assert str(raised.value) == f"word_added word {text!r} reduces to the identity"


@pytest.mark.parametrize("text", ["x^0", ""])
def test_a_schedule_entry_adding_the_identity_fails_replay(text):
    oracle = trivial_oracle()
    data = _wire(run(Flavor.PLAIN, None, [WordAdded(x_power(1)), DomainHits(0)], oracle), oracle)
    data["schedule"][0] = {"kind": "word_added", "word": text}
    result = helpers.refusal(verify_trace_data, data)
    assert result == f"step 0: malformed: word_added word {text!r} reduces to the identity"


def test_an_orbit_coded_requirement_refuses_a_negative_index():
    with pytest.raises(ValueError, match="negative orbit index -1"):
        OrbitCoded(-1)


def test_a_negative_orbit_index_fails_replay():
    data = _coding_trace()
    data["schedule"][2]["index"] = -1
    assert helpers.refusal(verify_trace_data, data) == "step 2: malformed: negative orbit index -1"


@pytest.mark.parametrize("events", [{}, ""], ids=["object", "string"])
def test_growth_events_that_are_not_a_list_fail_replay(events):
    data = _coding_trace()
    data["growth_events"] = events
    result = helpers.refusal(verify_trace_data, data)
    assert result == "malformed trace: growth_events must be a list"


@pytest.mark.parametrize(
    "entry, key, value", [(4, "m", 0), (8, "index", 1)], ids=["range-hits", "orbit-coded"]
)
def test_a_step_whose_entry_was_already_met_must_leave_the_condition(entry, key, value):
    """Lowered to an entry an earlier step met, the entry still holds, but the step adds pairs."""
    data = _coding_trace()
    data["schedule"][entry][key] = value
    result = helpers.refusal(verify_trace_data, data)
    assert result == f"step {entry}: requirement already met, but the step changes the condition"


def _repeat_last(items):
    items.append(json.loads(json.dumps(items[-1])))


def _delta(data, step):
    return data["steps"][step]


def _words_first_trace():
    """Step 0 adds x, x^2 and x^3 at once, the powers below x^3 first."""
    oracle = translation_oracle()
    return _wire(run(Flavor.DAGGER, (1, 0), [WordAdded(x_power(3)), DomainHits(0)], oracle), oracle)


@pytest.mark.parametrize(
    "trace, forge, reason",
    [
        (
            _coding_trace,
            lambda data: _repeat_last(_delta(data, 8)["pairs"]),
            "step 8: malformed: delta pairs do not strictly increase by domain point",
        ),
        (
            _coding_trace,
            lambda data: _repeat_last(data["final"]["injection"]),
            "malformed trace: injection pairs do not strictly increase by domain point",
        ),
        (
            _coding_trace,
            lambda data: _delta(data, 8)["pairs"].reverse(),
            "step 8: malformed: delta pairs do not strictly increase by domain point",
        ),
        (
            _words_first_trace,
            lambda data: _repeat_last(_delta(data, 0)["words"]),
            "step 0: malformed: word texts do not strictly increase",
        ),
        (
            _words_first_trace,
            lambda data: _delta(data, 0)["words"].reverse(),
            "step 0: malformed: word texts do not strictly increase",
        ),
        (
            _words_first_trace,
            lambda data: _delta(data, 0)["words"].__setitem__(1, "x.x"),
            "step 0: malformed: word 'x.x' is not written as its parse",
        ),
    ],
    ids=["repeated-pair", "repeated-final-pair", "reversed-pairs", "repeated-word",
         "reversed-words", "unreduced-word-text"],
)
def test_a_condition_not_in_the_writers_form_fails_replay(trace, forge, reason):
    data = trace()
    verify_trace_data(data)
    forge(data)
    result = helpers.refusal(verify_trace_data, data)
    assert result == reason


def test_a_word_that_is_not_text_fails_replay():
    oracle = translation_oracle()
    data = _wire(run(Flavor.DAGGER, (1, 0), auto_schedule(Flavor.DAGGER, 2), oracle), oracle)
    _delta(data, 6)["words"] = [3]
    result = helpers.refusal(verify_trace_data, data)
    assert result == "step 6: malformed: a word is text, not 3"


def test_verify_cost_follows_the_trace_not_the_numbers_in_it(monkeypatch):
    """g1.x over the translations, since the root x is not evaluated at all."""
    oracle = translation_oracle()
    word = W.parse_word("g1.x", oracle)
    data = _wire(run(Flavor.PLAIN, None, [WordAdded(word), DomainHits(0)], oracle), oracle)
    assert data["final"]["injection"] == [[0, 0]]
    calls = []
    evaluate = W.evaluate

    def counted(*args):
        calls.append(args)
        if len(calls) > 10:
            raise AssertionError("more than 10 word evaluations")
        return evaluate(*args)

    monkeypatch.setattr(W, "evaluate", counted)
    # the small value first: a scan up to the pair fails there, before a big one
    for far in (10**4, 10**9):
        data["steps"][1]["pairs"] = [[0, far]]
        data["final"]["injection"] = [[0, far]]
        helpers.reseal(data)
        assert len(json.dumps(data)) < 1024
        calls.clear()
        verify_trace_data(data)
        assert 0 < len(calls) <= 10


def test_verify_work_on_a_claimed_power_follows_its_length(monkeypatch):
    """x^2000 is six characters; rejecting it reduces a few copies, not one per rotation."""
    oracle = trivial_oracle()
    data = _wire(run(Flavor.DAGGER, (1, 0), auto_schedule(Flavor.DAGGER, 2), oracle), oracle)
    data["steps"][0]["words"] = ["x^2000"]
    reduced = []
    reduce = W.reduce

    def counted(raw, oracle):
        raw = tuple(raw)
        reduced.append(len(raw))
        if sum(reduced) > 3 * 2000:
            raise AssertionError("more than 6000 letters reduced")
        return reduce(raw, oracle)

    monkeypatch.setattr(W, "reduce", counted)
    result = helpers.refusal(verify_trace_data, data)
    assert result == "step 0: invalid condition: missing power 1 of root of 'x^2000'"


def test_a_refused_root_asks_for_no_primes(monkeypatch):
    """x^20000 alone misses its root x: the refusal is the closure's, and no prime is sought."""
    oracle = trivial_oracle()
    data = _wire(run(Flavor.DAGGER, (1, 0), auto_schedule(Flavor.DAGGER, 2), oracle), oracle)
    data["steps"][0]["words"] = ["x^20000"]
    asked = []
    primes_up_to = I.primes_up_to

    def counted(k):
        asked.append(k)
        return primes_up_to(k)

    monkeypatch.setattr(I, "primes_up_to", counted)
    result = helpers.refusal(verify_trace_data, data)
    assert result == "step 0: invalid condition: missing power 1 of root of 'x^20000'"
    assert max(asked, default=0) < 20000


def _bound_word_work(monkeypatch, limit):
    """Count letters reduced, yielded by closure or evaluated; raise once past `limit`."""
    work = []

    def spend(letters):
        work.append(letters)
        if sum(work) > limit:
            raise AssertionError(f"more than {limit} letters of word work")

    reduce, evaluate, closure = W.reduce, W.evaluate, getattr(W, "closure", None)

    def counted_reduce(raw, oracle):
        raw = tuple(raw)
        spend(len(raw))
        return reduce(raw, oracle)

    def counted_evaluate(w, s, oracle, n, stuck=None):
        spend(len(w))
        return evaluate(w, s, oracle, n, stuck)

    def counted_closure(v, k, oracle):
        for u in closure(v, k, oracle):
            spend(len(u))
            yield u

    monkeypatch.setattr(W, "reduce", counted_reduce)
    monkeypatch.setattr(W, "evaluate", counted_evaluate)
    monkeypatch.setattr(W, "closure", counted_closure, raising=False)
    return work


def test_verify_work_on_claimed_powers_follows_their_letters(monkeypatch):
    """x, x^2, ..., x^200: one closure of 20,100 letters, not a rebuilt power per power."""
    oracle = trivial_oracle()
    data = _wire(run(Flavor.DAGGER, (0,) * 46, [DomainHits(0)], oracle), oracle)
    texts = sorted(format_word(x_power(p), oracle) for p in range(1, 201))
    data["steps"][0]["words"] = texts
    helpers.reseal(data)  # so the step passes, and the final comparison refuses
    letters = 200 * 201 // 2
    work = _bound_word_work(monkeypatch, 3 * letters)
    result = helpers.refusal(verify_trace_data, data)
    assert result == "final condition does not match the last step"
    assert sum(work) >= 2 * letters


def test_verify_work_on_a_written_out_power_follows_its_length(monkeypatch):
    """(g1.x)^1000 written out, 5.5 KB: its root's closure fails at once, cut by cut it did not."""
    oracle = translation_oracle()
    data = _wire(run(Flavor.DAGGER, (1, 0), [DomainHits(0)], oracle), oracle)
    text = format_word(Word((group(1), X) * 1000), oracle)
    assert len(text) == 4 * 1000 + 999
    data["steps"][0]["words"] = [text]
    _bound_word_work(monkeypatch, 3 * 2000)
    result = helpers.refusal(verify_trace_data, data)
    assert result == f"step 0: invalid condition: missing power 1 of root of {text!r}"


def test_identical_runs_serialize_identically():
    def one():
        oracle = trivial_oracle()
        trace = run(Flavor.CODING, (1, 1, 0), auto_schedule(Flavor.CODING, 3), oracle)
        return trace_to_data(trace, oracle)

    assert json.dumps(one(), sort_keys=True) == json.dumps(one(), sort_keys=True)


def test_auto_schedule_shapes():
    coding = auto_schedule(Flavor.CODING, 2)
    assert coding == [
        DomainHits(0),
        RangeHits(0),
        OrbitCoded(0),
        DomainHits(1),
        RangeHits(1),
        OrbitCoded(1),
    ]
    plain = auto_schedule(Flavor.PLAIN, 2)
    assert plain == [DomainHits(0), RangeHits(0), DomainHits(1), RangeHits(1)]
    dagger = auto_schedule(Flavor.DAGGER, 2)
    assert WordAdded(x_power(3)) in dagger
    assert DomainHits(1) in dagger


def test_requirement_wire_format_round_trip():
    oracle = translation_oracle()
    reqs = [
        DomainHits(4),
        RangeHits(0),
        WordAdded(Word((group(1), X))),
        TreeDiagonalized(SparseCongruenceTree(seed=5), (3,)),
        TreeDiagonalized(FullInjectiveTree()),
        OrbitCoded(2),
    ]
    for req in reqs:
        data = json.loads(json.dumps(requirement_to_data(req, oracle)))
        back = requirement_from_data(data, oracle)
        assert requirement_to_data(back, oracle) == requirement_to_data(req, oracle)
