"""Every clause the checks refuse with, by its exact text.

One case per clause of `validate`, `leq`, `verify_certificate_data`, the
closing clauses of `verify_trace_data`, its clause on a step whose entry
was already met and on a step's `upper_sum`, the clauses on a delta in a
form the writer never writes, a list the writer writes written as another
type, a step that adds nothing to a condition that does not meet its entry,
a tree witness running past its index, those
on a growth event's cycles and the stages they grow, and the closed key
sets of a step, an embedded stage, a growth event and `final`, which hold
none of the numbers their reader derives and no object format 7 wrapped a
step's parts in; each case builds the call and its arguments, and the
refusal it raises must read exactly as listed.  leq's gain clause formats
its text only when it is read, so a last test holds each such refusal of a
staged run to the text formatted at the moment it was raised.
"""

import functools
import json

import pytest

from orbitcode import (
    DomainHits,
    Flavor,
    FullInjectiveTree,
    PartialInjection,
    Refused,
    TreeDiagonalized,
    auto_schedule,
    certificate_to_data,
    coding_condition,
    dagger_condition,
    extend_domain,
    leq,
    parse_word,
    plain_condition,
    run,
    staged_oracle,
    staged_run,
    trace_to_data,
    translation_oracle,
    trivial_oracle,
    validate,
    verify_certificate_data,
    verify_trace_data,
    x_power,
)

import helpers

TRIV = trivial_oracle()
TRANS = translation_oracle()


def _inj(mapping):
    return PartialInjection(mapping.items())


def _words(*texts):
    return [parse_word(text, TRANS) for text in texts]


def _forged_certificate(forge):
    """verify_certificate_data on the certificate of one domain step, forged by `forge`."""
    lower = plain_condition(None, [x_power(1)])
    upper = extend_domain(lower, 0, TRIV)
    data = certificate_to_data(upper, lower, TRIV)
    forge(data)
    return verify_certificate_data, data, lower, TRIV


def _forged_trace(forge, flavor=Flavor.CODING):
    """verify_trace_data on a two-bit trace, forged by `forge`.

    Coding: step 0 adds [0, 0], step 3 [1, 2] and step 4 [2, 1], and steps
    1, 2 and 5 add nothing.  Dagger: the same pairs, and steps 2, 5 and 6
    add the words x, x^2 and x^3.  Plain: a two-point cover, no bits.
    """
    trace = run(flavor, None if flavor is Flavor.PLAIN else (1, 0), auto_schedule(flavor, 2), TRIV)
    data = json.loads(json.dumps(trace_to_data(trace, TRIV)))
    forge(data)
    return verify_trace_data, data


def _forged_witness(forge):
    """verify_trace_data on a domain hit at 0 then a full-tree step, that step forged."""
    schedule = [DomainHits(0), TreeDiagonalized(FullInjectiveTree())]
    data = json.loads(json.dumps(trace_to_data(run(Flavor.PLAIN, None, schedule, TRIV), TRIV)))
    forge(data["steps"][1])
    return verify_trace_data, data


@functools.cache
def _second_stage_wire() -> str:
    stages = staged_run([(1,), (1,)])
    return json.dumps(trace_to_data(stages[1].trace, staged_oracle(stages[:1])))


def _forged_stage_trace(forge):
    """verify_trace_data on the stage-1 trace of two one-bit stages, forged by `forge`.

    Its oracle embeds stage 0, cycles [[0, 3, 4], [1, 2]] and words x and
    x^2; growth event 0 (required 6, so the rule's target is 26) grows it
    by the 3-cycles [5, 6, 7], [8, 9, 10], ..., [23, 24, 25], to window 26.
    """
    data = json.loads(_second_stage_wire())
    forge(data)
    return verify_trace_data, data


def _forged_growth(forge):
    """_forged_stage_trace with its growth event 0 forged by `forge`."""
    return _forged_stage_trace(lambda data: forge(data["growth_events"][0]))


def _set_first_cycles(*cycles):
    """_forged_growth with the first cycles of event 0's stage-0 list replaced by `cycles`."""

    def forge(event):
        event["cycles"][0][: len(cycles)] = [list(c) for c in cycles]

    return _forged_growth(forge)


def _set_delta(step, key, value, flavor=Flavor.CODING):
    """_forged_trace with step `step`'s delta `key` set to `value`."""
    return _forged_trace(lambda data: data["steps"][step].__setitem__(key, value), flavor)


def _format_7_step(step):
    """The step as format 7 wrote it: its delta wrapped in `certificate`."""
    step["certificate"] = {"pairs": step.pop("pairs"), "words": step.pop("words")}


def _format_7_witness(step):
    """A tree step's witness as format 7 wrote it: wrapped in `extra`, its index beside it."""
    node = step.pop("witness_node")
    step["extra"] = {"witness_node": node, "witness_index": len(node) - 1}


_UNMET = {"kind": "domain_hits", "n": 5}  # not in the domain at step 1, which adds nothing

CASES = {
    "validate-admissible": (
        lambda: (validate, plain_condition(None, _words("x^-1", "g1")), TRANS),
        "word 'g1' is not admissible",
    ),
    "validate-nice": (
        lambda: (validate, coding_condition((0,), _inj({1: 2, 2: 1})), TRIV),
        "injection is not nice",
    ),
    "validate-prefix": (
        lambda: (validate, coding_condition((1,), _inj({0: 1, 1: 0})), TRIV),
        "orbit code [0] is not a prefix of target [1]",
    ),
    "validate-rotation": (
        lambda: (validate, dagger_condition((1,), None, _words("g1.x.g2.x")), TRANS),
        "rotation class not closed: missing 'g2.x.g1.x'",
    ),
    "validate-power": (
        lambda: (validate, dagger_condition((1,), None, _words("x^2")), TRANS),
        "missing power 1 of root of 'x^2'",
    ),
    "validate-target-short": (
        lambda: (validate, dagger_condition((), None, _words("x", "x^2")), TRANS),
        "target too short for power-2 obligation at bit 0",
    ),
    "validate-miscode": (
        lambda: (validate, dagger_condition((1,), None, _words("x", "x^2")), TRANS),
        "evaluation of 'x' miscodes bit 0",
    ),
    "leq-flavor": (
        lambda: (leq, coding_condition((1,)), coding_condition((0,)), TRIV),
        "flavor or target mismatch",
    ),
    "leq-injection": (
        lambda: (leq, plain_condition(), plain_condition(_inj({0: 2})), TRIV),
        "injection does not extend",
    ),
    "leq-words": (
        lambda: (leq, plain_condition(), plain_condition(None, [x_power(1)]), TRIV),
        "word set does not extend",
    ),
    "leq-fixed-points": (
        lambda: (
            leq,
            plain_condition(_inj({3: 3, 4: 5}), [x_power(1)]),
            plain_condition(_inj({4: 5}), [x_power(1)]),
            TRIV,
        ),
        "word 'x' changed fixed points (gained [3])",
    ),
    "certificate-order": (
        lambda: _forged_certificate(lambda data: data.__setitem__("pairs", [[0, 0]])),
        "order recheck failed: word 'x' changed fixed points (gained [0])",
    ),
    "trace-already-met": (
        lambda: _forged_trace(lambda data: data["schedule"][4].__setitem__("m", 0)),
        "step 4: requirement already met, but the step changes the condition",
    ),
    "trace-already-met-delta": (
        lambda: _set_delta(1, "words", ["x"], Flavor.DAGGER),
        "step 1: requirement already met, but the step changes the condition",
    ),
    "trace-upper-sum": (
        lambda: _forged_trace(lambda data: data["steps"][3].__setitem__("upper_sum", "0" * 16)),
        "step 3: upper_sum '0000000000000000', but deltas sum to de0805d239259f0d",
    ),
    "trace-delta-repeats-a-pair": (
        lambda: _set_delta(4, "pairs", [[1, 2], [2, 1]]),
        "step 4: malformed: delta pair [1, 2] meets the lower condition's domain or range",
    ),
    "trace-delta-domain": (
        lambda: _set_delta(4, "pairs", [[1, 3]]),
        "step 4: malformed: delta pair [1, 3] meets the lower condition's domain or range",
    ),
    "trace-delta-range": (
        lambda: _set_delta(4, "pairs", [[3, 2]]),
        "step 4: malformed: delta pair [3, 2] meets the lower condition's domain or range",
    ),
    "trace-delta-word": (
        lambda: _set_delta(6, "words", ["x^2", "x^3"], Flavor.DAGGER),
        "step 6: malformed: delta word 'x^2' is already in the lower condition",
    ),
    "trace-delta-pair-order": (
        lambda: _set_delta(4, "pairs", [[3, 4], [2, 1]]),
        "step 4: malformed: delta pairs do not strictly increase by domain point",
    ),
    "trace-delta-word-order": (
        lambda: _set_delta(6, "words", ["x^4", "x^3"], Flavor.DAGGER),
        "step 6: malformed: word texts do not strictly increase",
    ),
    "trace-empty-step-unmet-first": (
        lambda: _set_delta(0, "pairs", []),
        "step 0: requirement not satisfied",
    ),
    "trace-empty-step-unmet-later": (
        lambda: _forged_trace(lambda data: data["schedule"].__setitem__(1, _UNMET)),
        "step 1: requirement not satisfied",
    ),
    "trace-empty-tree-step": (
        lambda: _forged_witness(lambda step: step.__setitem__("pairs", [])),
        "step 1: requirement not satisfied",
    ),
    "trace-pairs-object": (
        lambda: _set_delta(1, "pairs", {}),
        "step 1: malformed: pairs is not a list",
    ),
    "trace-pairs-string": (
        lambda: _set_delta(1, "pairs", ""),
        "step 1: malformed: pairs is not a list",
    ),
    "trace-words-object": (
        lambda: _set_delta(1, "words", {}),
        "step 1: malformed: words is not a list",
    ),
    "trace-witness-object": (
        lambda: _forged_witness(lambda step: step.__setitem__("witness_node", {})),
        "step 1: malformed: witness_node is not a list",
    ),
    "trace-witness-string": (
        lambda: _forged_witness(lambda step: step.__setitem__("witness_node", "")),
        "step 1: malformed: witness_node is not a list",
    ),
    "trace-decoded-object": (
        lambda: _forged_trace(lambda data: data.__setitem__("decoded", {}), Flavor.PLAIN),
        "malformed trace: decoded is not a list",
    ),
    "trace-decoded-string": (
        lambda: _forged_trace(lambda data: data.__setitem__("decoded", ""), Flavor.PLAIN),
        "malformed trace: decoded is not a list",
    ),
    "trace-target-object": (
        lambda: _forged_trace(lambda data: data.__setitem__("target", {})),
        "malformed trace: target is not a list",
    ),
    "trace-certificate-missing-key": (
        lambda: _forged_trace(lambda data: data["steps"][1].pop("words")),
        "step 1: malformed: step has keys ['pairs', 'upper_sum'],"
        " format gives ['pairs', 'upper_sum', 'words']",
    ),
    "trace-certificate-extra-key": (
        lambda: _set_delta(1, "upper", {}),
        "step 1: malformed: step has keys ['pairs', 'upper', 'upper_sum', 'words'],"
        " format gives ['pairs', 'upper_sum', 'words']",
    ),
    "trace-certificate-snapshots": (
        lambda: _set_delta(1, "fixpoint_snapshots", []),
        "step 1: malformed: step has keys ['fixpoint_snapshots', 'pairs', 'upper_sum', 'words'],"
        " format gives ['pairs', 'upper_sum', 'words']",
    ),
    "trace-certificate-wrapped": (
        lambda: _forged_trace(lambda data: _format_7_step(data["steps"][1])),
        "step 1: malformed: step has keys ['certificate', 'upper_sum'],"
        " format gives ['pairs', 'upper_sum', 'words']",
    ),
    "trace-version-2": (
        lambda: _forged_trace(lambda data: data["conventions"].__setitem__("format_version", 2)),
        "malformed trace: conventions are not those of format version 8",
    ),
    "trace-version-3": (
        lambda: _forged_trace(lambda data: data["conventions"].__setitem__("format_version", 3)),
        "malformed trace: conventions are not those of format version 8",
    ),
    "trace-version-4": (
        lambda: _forged_trace(lambda data: data["conventions"].__setitem__("format_version", 4)),
        "malformed trace: conventions are not those of format version 8",
    ),
    "trace-version-5": (
        lambda: _forged_trace(lambda data: data["conventions"].__setitem__("format_version", 5)),
        "malformed trace: conventions are not those of format version 8",
    ),
    "trace-version-6": (
        lambda: _forged_trace(lambda data: data["conventions"].__setitem__("format_version", 6)),
        "malformed trace: conventions are not those of format version 8",
    ),
    "trace-version-7": (
        lambda: _forged_trace(lambda data: data["conventions"].__setitem__("format_version", 7)),
        "malformed trace: conventions are not those of format version 8",
    ),
    "trace-witness-length": (
        lambda: _forged_witness(lambda step: step["witness_node"].append(99)),
        "step 1: requirement not satisfied",
    ),
    "trace-witness-wrapped": (
        lambda: _forged_witness(_format_7_witness),
        "step 1: malformed: step has keys ['extra', 'pairs', 'upper_sum', 'words'],"
        " format gives ['pairs', 'upper_sum', 'witness_node', 'words']",
    ),
    "growth-cycle-minimum": (
        lambda: _set_first_cycles([6, 7, 5]),
        "malformed trace: growth event 0: stage 0: cycle [6, 7, 5] does not start at its minimum",
    ),
    "growth-cycle-order": (
        lambda: _set_first_cycles([8, 9, 10], [5, 6, 7]),
        "malformed trace: growth event 0: stage 0: cycle minima do not increase: 5 after 8",
    ),
    "growth-point-within": (
        lambda: _set_first_cycles([5, 6, 7, 6]),
        "malformed trace: growth event 0: stage 0: point 6 is written twice",
    ),
    "growth-point-across": (
        lambda: _set_first_cycles([5, 6, 9], [8, 9, 10]),
        "malformed trace: growth event 0: stage 0: point 9 is written twice",
    ),
    "growth-meets-old-stage": (
        lambda: _set_first_cycles([4, 6, 7]),
        "malformed trace: growth event 0: stage 0:"
        " delta pair [4, 6] meets the lower condition's domain or range",
    ),
    "growth-fixed-point": (
        lambda: _set_first_cycles([5, 6]),
        "growth event 0: stage 0:"
        " order recheck failed: word 'x^2' changed fixed points (gained [5, 6])",
    ),
    "growth-window-short": (
        lambda: _forged_growth(lambda event: event.update(required=100)),
        "growth event 0: window 26 is short of target 116",
    ),
    "growth-target-written": (
        lambda: _forged_growth(lambda event: event.update(target=26)),
        "malformed trace: growth event 0 has keys ['cycles', 'required', 'step', 'target'],"
        " format gives ['cycles', 'required', 'step']",
    ),
    "stage-window-written": (
        lambda: _forged_stage_trace(lambda data: data["oracle"]["stages"][0].update(window=5)),
        "malformed trace: oracle stage 0 has keys ['cycles', 'target_bits', 'window', 'words'],"
        " format gives ['cycles', 'target_bits', 'words']",
    ),
    "final-r-prefix-written": (
        lambda: _forged_trace(lambda data: data["final"].update(r_prefix=[1, 0])),
        "malformed trace: final has keys ['injection', 'r_prefix', 'words'],"
        " format gives ['injection', 'words']",
    ),
    "growth-list-count": (
        lambda: _forged_growth(lambda event: event["cycles"].append([])),
        "malformed trace: growth event 0: cycles must be 1 lists, one per stage",
    ),
    "trace-final": (
        lambda: _forged_trace(lambda data: data["final"]["injection"].pop()),
        "final condition does not match the last step",
    ),
    "trace-decoded": (
        lambda: _forged_trace(lambda data: data.__setitem__("decoded", [0, 0])),
        "decoded bits do not match the final condition",
    ),
}


@pytest.mark.parametrize("case, expected", CASES.values(), ids=CASES.keys())
def test_each_refusal_names_its_clause(case, expected):
    assert helpers.refusal(*case()) == expected


def test_a_lazy_gain_refusal_reads_as_the_eager_one(monkeypatch):
    """Every refusal of leq's gain clause in a staged run, its text read after the run.

    The text leq wrote when it raised, with the eager formatter, is taken
    at the moment of the refusal; the refusal's own message, formatted only
    when read, must match it once the run has moved on.
    """
    from orbitcode import forcing as F

    leq_ = F.leq
    refusals = []

    def recording(upper, lower, oracle):
        try:
            return leq_(upper, lower, oracle)
        except Refused as exc:
            if exc.clause == "leq-fixed-points":
                refusals.append((exc, helpers.eager_gain_text(exc.fields["gains"], oracle)))
            raise

    monkeypatch.setattr(F, "leq", recording)
    staged_run([(1, 0, 1, 1), (1, 1, 0, 0)])
    assert len(refusals) >= 20
    for exc, eager in refusals:
        assert str(exc) == eager
