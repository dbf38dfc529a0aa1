"""Scheduler runs, sealing, decoding, staged construction, trace replay."""

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
    mex,
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
from orbitcode import forcing as F
from orbitcode import injections as I
from orbitcode import words as W
from orbitcode.engine import requirement_from_data, requirement_to_data


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
    """verify reads only bits, so a run with a target of 2 would write a trace it refuses."""
    with pytest.raises(ValueError, match=r"target bits must be 0 or 1, got \[1, 2\]"):
        run(flavor, (1, 2), [DomainHits(0)], trivial_oracle())


def test_coding_run_round_trips_its_bits():
    oracle = trivial_oracle()
    r = (1, 0, 1, 1)
    trace = run(Flavor.CODING, r, auto_schedule(Flavor.CODING, 4), oracle)
    assert trace.decoded == r
    assert decode(trace.final.s, "orbit_order", 3) == r


def test_certificates_chain_across_the_run():
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, (1, 1), auto_schedule(Flavor.CODING, 2), oracle)
    previous = None
    for step in trace.steps:
        cert = step.certificate
        assert leq(cert.upper, cert.lower, oracle)
        if previous is not None:
            assert cert.lower == previous
        previous = cert.upper
    assert trace.final == previous
    # transitivity: the last condition sits below the first lower bound
    assert leq(trace.final, trace.steps[0].certificate.lower, oracle)


@pytest.mark.parametrize("flavor, bits", [(Flavor.PLAIN, None), (Flavor.CODING, (1, 0))])
def test_adjoining_an_inadmissible_word_is_refused(flavor, bits):
    schedule = [DomainHits(0), WordAdded(Word((X_INV,)))]
    with pytest.raises(OrbitCodeError, match=r"x\^-1"):
        run(flavor, bits, schedule, trivial_oracle())


def test_a_multi_orbit_coding_step_stores_the_chained_certificate():
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, (1, 0, 1), [WordAdded(x_power(1)), OrbitCoded(2)], oracle)
    step = trace.steps[1]
    cert = step.certificate
    assert len(closed_orbits(cert.upper.s)) - len(closed_orbits(cert.lower.s)) == 3
    assert step.certificate == leq(step.certificate.upper, step.certificate.lower, oracle)


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
    assert validate(stage.condition, oracle)
    assert stage.window == mex(stage.injection.support)


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
    for event in stages[1].trace.growth_events + stages[2].trace.growth_events:
        assert event["target"] >= event["required"]


def test_trace_serialization_replays_cleanly():
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, (1, 0, 1), auto_schedule(Flavor.CODING, 3), oracle)
    data = trace_to_data(trace, oracle)
    assert data["conventions"]["prime_indexing"]
    wire = json.loads(json.dumps(data))
    assert verify_trace_data(wire)


def test_tampered_traces_fail_replay():
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, (1, 0), auto_schedule(Flavor.CODING, 2), oracle)
    data = json.loads(json.dumps(trace_to_data(trace, oracle)))
    data["steps"][2]["certificate"]["upper"]["injection"][0][1] += 1
    result = verify_trace_data(data)
    assert not result
    assert "step" in (result.reason or "")


def test_rewritten_decoded_bits_fail_replay():
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, (1, 0), auto_schedule(Flavor.CODING, 2), oracle)
    data = json.loads(json.dumps(trace_to_data(trace, oracle)))
    data["decoded"] = [0, 0]
    assert not verify_trace_data(data)


def _wire(trace, oracle):
    return json.loads(json.dumps(trace_to_data(trace, oracle)))


@pytest.fixture(scope="module")
def three_stages():
    return staged_run([(1,), (1,), (1,)])


def test_every_stage_trace_replays_its_growth_events(three_stages):
    assert three_stages[1].trace.growth_events
    assert three_stages[2].trace.growth_events
    for i, stage in enumerate(three_stages):
        assert verify_trace_data(_wire(stage.trace, staged_oracle(three_stages[:i]))), i


def test_a_stage_trace_without_its_growth_events_fails_replay(three_stages):
    data = _wire(three_stages[1].trace, staged_oracle(three_stages[:1]))
    data["growth_events"] = []
    result = verify_trace_data(data)
    assert not result
    assert result.reason.startswith("step 1:")


def test_a_growth_target_off_the_engine_rule_fails_replay(three_stages):
    data = _wire(three_stages[1].trace, staged_oracle(three_stages[:1]))
    for event in data["growth_events"]:
        event["target"] = event["required"]
    result = verify_trace_data(data)
    assert not result
    assert "growth event 0" in result.reason


def test_a_stage_trace_missing_its_first_growth_event_fails_replay(three_stages):
    data = _wire(three_stages[1].trace, staged_oracle(three_stages[:1]))
    assert [event["step"] for event in data["growth_events"]] == [1, 11]
    data["growth_events"].pop(0)
    result = verify_trace_data(data)
    assert not result
    assert "growth event 0" in result.reason


def test_a_forged_fixed_point_snapshot_fails_replay():
    oracle = trivial_oracle()
    schedule = [WordAdded(x_power(1)), DomainHits(0), RangeHits(0), DomainHits(1)]
    data = _wire(run(Flavor.PLAIN, None, schedule, oracle), oracle)
    assert verify_trace_data(data)
    entry = data["steps"][2]["certificate"]["fixpoint_snapshots"][0]
    assert entry["word"] == "x"
    entry["fixed_points"].append(max(entry["fixed_points"], default=0) + 1)
    result = verify_trace_data(data)
    assert not result
    assert result.reason == "step 2: fixed-point snapshots do not match"


def test_a_dagger_run_over_translations_replays_its_word_requirement():
    oracle = translation_oracle()
    trace = run(Flavor.DAGGER, (1, 0), [WordAdded(Word((group(1), X)))], oracle)
    assert verify_trace_data(_wire(trace, oracle))


@pytest.mark.parametrize("key, forged", [("witness_index", 99), ("witness_node", [5, 5, 5])])
def test_a_forged_tree_witness_fails_replay(key, forged):
    oracle = trivial_oracle()
    schedule = [DomainHits(0), TreeDiagonalized(FullInjectiveTree())]
    data = _wire(run(Flavor.PLAIN, None, schedule, oracle), oracle)
    assert verify_trace_data(data)
    data["steps"][1]["extra"][key] = forged
    result = verify_trace_data(data)
    assert not result
    assert result.reason == "step 1: requirement not satisfied"


def test_a_growth_event_on_an_unwindowed_oracle_fails_replay():
    oracle = trivial_oracle()
    data = _wire(run(Flavor.CODING, (1, 0), auto_schedule(Flavor.CODING, 2), oracle), oracle)
    data["growth_events"].append({"step": 0, "required": 5, "target": 2**63 + 16, "window": 2**62})
    result = verify_trace_data(data)
    assert not result
    assert result.reason == "malformed trace: growth event 0: the oracle has no window to grow"


def _forge_op(data):
    data["steps"][1]["op"] = "forged"


def _forge_lower(data):
    lower = {"flavor": "coding", "injection": [[9, 9]], "words": [], "r_prefix": [1, 0]}
    data["steps"][1]["certificate"]["lower"] = lower


def _drop_snapshots(data):
    del data["steps"][1]["certificate"]["fixpoint_snapshots"]


def _extra_on_a_hit(data):
    data["steps"][1]["extra"] = {"witness_node": [], "witness_index": 0}


@pytest.mark.parametrize("forge", [_forge_op, _forge_lower, _drop_snapshots, _extra_on_a_hit])
def test_a_step_with_a_key_outside_the_format_fails_replay(forge):
    oracle = trivial_oracle()
    data = _wire(run(Flavor.CODING, (1, 0), auto_schedule(Flavor.CODING, 2), oracle), oracle)
    assert verify_trace_data(data)
    forge(data)
    result = verify_trace_data(data)
    assert not result
    assert result.reason.startswith("step 1: malformed: ")


@pytest.mark.parametrize("key, forged", [("witness_index", None), ("origin", "forged")])
def test_a_tree_witness_with_a_key_outside_the_format_fails_replay(key, forged):
    oracle = trivial_oracle()
    schedule = [DomainHits(0), TreeDiagonalized(FullInjectiveTree())]
    data = _wire(run(Flavor.PLAIN, None, schedule, oracle), oracle)
    if forged is None:
        del data["steps"][1]["extra"][key]
    else:
        data["steps"][1]["extra"][key] = forged
    result = verify_trace_data(data)
    assert not result
    assert result.reason.startswith("step 1: malformed: extra has keys")


@pytest.mark.parametrize("key", ["growth_events", "target", "note"])
def test_a_trace_with_a_top_level_key_outside_the_format_fails_replay(key):
    oracle = trivial_oracle()
    data = _wire(run(Flavor.CODING, (1, 0), auto_schedule(Flavor.CODING, 2), oracle), oracle)
    if key in data:
        del data[key]
    else:
        data[key] = "forged"
    result = verify_trace_data(data)
    assert not result
    assert result.reason.startswith("malformed trace: trace has keys")


def test_a_growth_event_with_a_key_outside_the_format_fails_replay(three_stages):
    data = _wire(three_stages[1].trace, staged_oracle(three_stages[:1]))
    data["growth_events"][0]["note"] = "forged"
    result = verify_trace_data(data)
    assert not result
    assert result.reason.startswith("malformed trace: growth event 0 has keys")


def _note_at(*path):
    def forge(data):
        for key in path:
            data = data[key]
        data["note"] = "forged"

    return forge


@pytest.mark.parametrize(
    "forge, reason",
    [
        (_note_at("steps", 1, "certificate", "upper"), "step 1: malformed: upper has keys"),
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
    assert verify_trace_data(data)
    forge(data)
    result = verify_trace_data(data)
    assert not result
    assert result.reason.startswith(reason)


@pytest.mark.parametrize(
    "tree",
    [FullInjectiveTree(), SparseCongruenceTree(seed=3), ExplicitTree.from_branch((3, 4, 5))],
    ids=["full", "sparse", "explicit"],
)
def test_a_tree_descriptor_with_a_key_outside_the_format_fails_replay(tree):
    oracle = trivial_oracle()
    schedule = [DomainHits(0), TreeDiagonalized(tree)]
    data = _wire(run(Flavor.PLAIN, None, schedule, oracle), oracle)
    assert verify_trace_data(data)
    data["schedule"][1]["tree"]["note"] = "forged"
    result = verify_trace_data(data)
    assert not result
    reason = "step 1: malformed: schedule entry's tree is not the one its requirement writes"
    assert result.reason == reason


def test_a_plain_condition_with_target_bits_fails_replay():
    oracle = trivial_oracle()
    data = _wire(run(Flavor.PLAIN, None, [DomainHits(0), DomainHits(1)], oracle), oracle)
    data["steps"][1]["certificate"]["upper"]["r_prefix"] = []
    result = verify_trace_data(data)
    assert not result
    assert result.reason.startswith("step 1: malformed: upper has keys")


def test_an_embedded_stage_with_a_key_outside_the_format_fails_replay(three_stages):
    data = _wire(three_stages[1].trace, staged_oracle(three_stages[:1]))
    assert verify_trace_data(data)
    data["oracle"]["stages"][0]["note"] = "forged"
    result = verify_trace_data(data)
    assert not result
    assert result.reason.startswith("malformed trace: oracle stage 0 has keys")


@pytest.fixture(scope="module")
def second_stage_wire():
    """The stage-1 trace of two one-bit stages, as text; its oracle embeds stage 0."""
    stages = staged_run([(1,), (1,)])
    return json.dumps(trace_to_data(stages[1].trace, staged_oracle(stages[:1])))


def _pop_a_pair(stage):
    stage["injection"].pop()


def _renumber(stage):
    stage["generator_index"] = 5


def _widen(stage):
    stage["window"] += 1


def _flip_bits(stage):
    stage["target_bits"] = [1 - b for b in stage["target_bits"]]


def _flip_bits_and_drop_words(stage):
    _flip_bits(stage)
    stage["words"] = []


@pytest.mark.parametrize(
    "forge, clause",
    [
        (_pop_a_pair, "has an open orbit"),
        (_renumber, "generator_index is 5"),
        (_widen, "window 6 is not mex(support) = 5"),
        (_flip_bits, "invalid condition: evaluation of 'x' miscodes bit 0"),
        (_flip_bits_and_drop_words, "decodes to [1], not its target bits [0]"),
    ],
    ids=["popped-pair", "generator-index", "window", "target-bits", "target-bits-no-words"],
)
def test_an_embedded_stage_that_seal_did_not_make_fails_replay(second_stage_wire, forge, clause):
    data = json.loads(second_stage_wire)
    assert verify_trace_data(data)
    forge(data["oracle"]["stages"][0])
    result = verify_trace_data(data)
    assert not result
    assert result.reason == f"malformed trace: stage 0: {clause}"


def _reverse_pairs(stage):
    stage["injection"].reverse()


def _repeat_a_pair(stage):
    stage["injection"].insert(1, list(stage["injection"][0]))


def _reverse_words(stage):
    stage["words"].reverse()


def _spell_out_a_power(stage):
    stage["words"] = ["x.x" if text == "x^2" else text for text in stage["words"]]


@pytest.mark.parametrize(
    "forge, clause",
    [
        (_reverse_pairs, "injection pairs do not strictly increase by domain point"),
        (_repeat_a_pair, "injection pairs do not strictly increase by domain point"),
        (_reverse_words, "word texts do not strictly increase"),
        (_spell_out_a_power, "word 'x.x' is not written as its parse"),
    ],
    ids=["reversed-pairs", "repeated-pair", "reversed-words", "spelled-out-power"],
)
def test_an_embedded_stage_not_in_the_writers_form_fails_replay(second_stage_wire, forge, clause):
    data = json.loads(second_stage_wire)
    assert data["oracle"]["stages"][0]["words"] == ["x", "x^2"]
    forge(data["oracle"]["stages"][0])
    result = verify_trace_data(data)
    assert not result
    assert result.reason == f"malformed trace: stage 0: {clause}"


def _bits_as_booleans(stage):
    stage["target_bits"] = [bool(b) for b in stage["target_bits"]]


def _window_as_float(stage):
    stage["window"] = float(stage["window"])


@pytest.mark.parametrize(
    "forge, clause",
    [
        (_bits_as_booleans, "True is not a bit"),
        (_window_as_float, "5.0 is not an integer"),
    ],
    ids=["boolean-target-bits", "float-window"],
)
def test_an_embedded_stage_number_not_written_as_an_integer_fails_replay(
    second_stage_wire, forge, clause
):
    data = json.loads(second_stage_wire)
    forge(data["oracle"]["stages"][0])
    result = verify_trace_data(data)
    assert not result
    assert result.reason == f"malformed trace: stage 0: {clause}"


def _coding_trace():
    oracle = trivial_oracle()
    return _wire(run(Flavor.CODING, (1, 0, 1, 1), auto_schedule(Flavor.CODING, 4), oracle), oracle)


def _sparse_tree_trace():
    oracle = trivial_oracle()
    schedule = [DomainHits(0), TreeDiagonalized(SparseCongruenceTree(seed=1))]
    return _wire(run(Flavor.PLAIN, None, schedule, oracle), oracle)


def _rewrite_zero(side, value):
    """Write the point 0 of the last condition's pairs, on the domain (0) or range (1) side."""

    def forge(data):
        [pair] = [pair for pair in _last_upper(data)["injection"] if pair[side] == 0]
        pair[side] = value

    return forge


def _set_witness(key, cast):
    def forge(data):
        extra = data["steps"][1]["extra"]
        extra[key] = cast(extra[key])

    return forge


@pytest.mark.parametrize(
    "trace, forge, reason",
    [
        (_coding_trace, _rewrite_zero(0, 0.0), "step 11: malformed: 0.0 is not an integer"),
        (_coding_trace, _rewrite_zero(1, "0"), "step 11: malformed: '0' is not an integer"),
        (
            _coding_trace,
            lambda data: _last_upper(data)["r_prefix"].__setitem__(0, 1.5),
            "step 11: malformed: 1.5 is not a bit",
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
        (
            _sparse_tree_trace,
            _set_witness("witness_index", float),
            "step 1: malformed: 1.0 is not an integer",
        ),
        (
            _sparse_tree_trace,
            _set_witness("witness_node", lambda node: [float(v) for v in node]),
            "step 1: malformed: 1.0 is not an integer",
        ),
    ],
    ids=["float-point", "string-point", "float-r-prefix-bit", "string-decoded-bits",
         "boolean-target-bits", "boolean-schedule-point", "float-tree-seed",
         "float-witness-index", "float-witness-node"],
)
def test_a_number_not_written_as_a_json_integer_fails_replay(trace, forge, reason):
    data = trace()
    assert verify_trace_data(data)
    forge(data)
    result = verify_trace_data(data)
    assert not result
    assert result.reason == reason


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
    assert verify_trace_data(_wire(trace, oracle))
    assert len(calls) == 0


def _plain_trees_schedule():
    """The schedule of the plain-trees digest build (tests/test_trace_digests.py)."""
    schedule = [WordAdded(x_power(1))]
    schedule += [TreeDiagonalized(FullInjectiveTree()) for _ in range(2)]
    schedule += [TreeDiagonalized(SparseCongruenceTree(seed)) for seed in (3, 4)]
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
    calls = _count_evaluations(monkeypatch)
    checks = []
    scanning = []
    leq, many_extensions = F.leq, F.many_extensions

    def counted_leq(upper, lower, oracle):
        before = len(calls)
        result = leq(upper, lower, oracle)
        if scanning:
            checks.append((len(calls) - before, len(lower.words), len(upper.s)))
        return result

    def flagged(*args):
        scanning.append(True)
        try:
            return many_extensions(*args)
        finally:
            scanning.pop()

    monkeypatch.setattr(F, "leq", counted_leq)
    monkeypatch.setattr(F, "many_extensions", flagged)
    run(Flavor.PLAIN, None, _plain_trees_schedule(), trivial_oracle())
    assert len(checks) > 20 and max(size for *_, size in checks) >= 3
    assert all(spent <= words for spent, words, _ in checks), checks


def test_verify_evaluates_only_where_the_added_pairs_reach(monkeypatch):
    """One evaluation per pair a step adds, not one per pair the step holds."""
    oracle = trivial_oracle()
    trace = run(Flavor.PLAIN, None, _plain_trees_schedule(), oracle)
    data = _wire(trace, oracle)
    calls = _count_evaluations(monkeypatch)
    assert verify_trace_data(data)
    assert len(trace.final.s) == 10 and len(trace.final.words) == 1
    assert 0 < len(calls) <= len(trace.final.s)


def _index_state(s):
    index = s._orbits()
    return index.exit_of, index.entry_of, index.cycles


def test_verify_inherits_an_orbit_index_equal_to_one_built_from_scratch():
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, CODING_16, auto_schedule(Flavor.CODING, 16), oracle)
    lower = coding_condition(CODING_16)
    closed_orbits(lower.s)
    for i, step in enumerate(_wire(trace, oracle)["steps"]):
        cert = verify_certificate_data(step["certificate"], lower, oracle)
        assert cert, i
        assert cert.upper.s._index is not None, i
        fresh = PartialInjection(cert.upper.s.pairs())
        assert _index_state(cert.upper.s) == _index_state(fresh), i
        lower = cert.upper


def test_a_negative_requirement_point_fails_replay():
    oracle = trivial_oracle()
    data = _wire(run(Flavor.PLAIN, None, [DomainHits(0), RangeHits(0)], oracle), oracle)
    data["schedule"][1]["m"] = -3
    result = verify_trace_data(data)
    assert not result
    assert result.reason == "step 1: malformed: negative point -3"


def _repeat_last(items):
    items.append(json.loads(json.dumps(items[-1])))


def _last_upper(data):
    return data["steps"][-1]["certificate"]["upper"]


@pytest.mark.parametrize(
    "flavor, forge, reason",
    [
        (
            Flavor.CODING,
            lambda data: _repeat_last(_last_upper(data)["injection"]),
            "step 5: malformed: injection pairs do not strictly increase by domain point",
        ),
        (
            Flavor.CODING,
            lambda data: _repeat_last(data["final"]["injection"]),
            "malformed trace: injection pairs do not strictly increase by domain point",
        ),
        (
            Flavor.CODING,
            lambda data: _last_upper(data)["injection"].reverse(),
            "step 5: malformed: injection pairs do not strictly increase by domain point",
        ),
        (
            Flavor.DAGGER,
            lambda data: _repeat_last(_last_upper(data)["words"]),
            "step 6: malformed: word texts do not strictly increase",
        ),
        (
            Flavor.DAGGER,
            lambda data: _last_upper(data)["words"].reverse(),
            "step 6: malformed: word texts do not strictly increase",
        ),
        (
            Flavor.DAGGER,
            lambda data: _last_upper(data)["words"].__setitem__(1, "x.x"),
            "step 6: malformed: word 'x.x' is not written as its parse",
        ),
    ],
    ids=["repeated-pair", "repeated-final-pair", "reversed-pairs", "repeated-word",
         "reversed-words", "unreduced-word-text"],
)
def test_a_condition_not_in_the_writers_form_fails_replay(flavor, forge, reason):
    oracle = translation_oracle()
    trace = run(flavor, (1, 0), auto_schedule(flavor, 2), oracle)
    data = _wire(trace, oracle)
    assert verify_trace_data(data)
    forge(data)
    result = verify_trace_data(data)
    assert not result
    assert result.reason == reason


def test_a_word_that_is_not_text_fails_replay():
    oracle = translation_oracle()
    data = _wire(run(Flavor.DAGGER, (1, 0), auto_schedule(Flavor.DAGGER, 2), oracle), oracle)
    _last_upper(data)["words"] = [3]
    result = verify_trace_data(data)
    assert not result
    assert result.reason == "step 6: malformed: a word is text, not 3"


def test_verify_cost_follows_the_trace_not_the_numbers_in_it(monkeypatch):
    oracle = trivial_oracle()
    data = _wire(run(Flavor.PLAIN, None, [WordAdded(x_power(1)), DomainHits(0)], oracle), oracle)
    assert data["final"]["injection"] == [[0, 1]]
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
        data["steps"][1]["certificate"]["upper"]["injection"] = [[0, far]]
        data["final"]["injection"] = [[0, far]]
        assert len(json.dumps(data)) < 1024
        calls.clear()
        assert verify_trace_data(data)
        assert 0 < len(calls) <= 10


def test_verify_work_on_a_claimed_power_follows_its_length(monkeypatch):
    """x^2000 is six characters; rejecting it reduces a few copies, not one per rotation."""
    oracle = trivial_oracle()
    data = _wire(run(Flavor.DAGGER, (1, 0), auto_schedule(Flavor.DAGGER, 2), oracle), oracle)
    data["steps"][0]["certificate"]["upper"]["words"] = ["x^2000"]
    reduced = []
    reduce = W.reduce

    def counted(raw, oracle):
        raw = tuple(raw)
        reduced.append(len(raw))
        if sum(reduced) > 3 * 2000:
            raise AssertionError("more than 6000 letters reduced")
        return reduce(raw, oracle)

    monkeypatch.setattr(W, "reduce", counted)
    result = verify_trace_data(data)
    assert not result
    assert result.reason == "step 0: invalid condition: missing power 1 of root of 'x^2000'"


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

    def counted_evaluate(w, s, oracle, n):
        spend(len(w))
        return evaluate(w, s, oracle, n)

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
    data["steps"][0]["certificate"]["upper"]["words"] = texts
    letters = 200 * 201 // 2
    work = _bound_word_work(monkeypatch, 3 * letters)
    result = verify_trace_data(data)
    assert not result
    assert result.reason == "final condition does not match the last step"
    assert sum(work) >= 2 * letters


def test_verify_work_on_a_written_out_power_follows_its_length(monkeypatch):
    """(g1.x)^1000 written out, 5.5 KB: its root's closure fails at once, cut by cut it did not."""
    oracle = translation_oracle()
    data = _wire(run(Flavor.DAGGER, (1, 0), [DomainHits(0)], oracle), oracle)
    text = format_word(Word((group(1), X) * 1000), oracle)
    assert len(text) == 4 * 1000 + 999
    data["steps"][0]["certificate"]["upper"]["words"] = [text]
    _bound_word_work(monkeypatch, 3 * 2000)
    result = verify_trace_data(data)
    assert not result
    assert result.reason == f"step 0: invalid condition: missing power 1 of root of {text!r}"


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
