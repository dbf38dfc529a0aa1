"""Every clause the checks refuse with, by its exact text.

One case per clause of `validate`, `leq`, `verify_certificate_data`, the
closing clauses of `verify_trace_data` and its clause on a step whose entry
was already met; each case builds the call and its arguments, and the
refusal it raises must read exactly as listed.
"""

import json

import pytest

from orbitcode import (
    Flavor,
    PartialInjection,
    auto_schedule,
    certificate_to_data,
    coding_condition,
    dagger_condition,
    extend_domain,
    leq,
    parse_word,
    plain_condition,
    run,
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
    upper = extend_domain(lower, 0, TRIV).upper
    data = certificate_to_data(leq(upper, lower, TRIV), TRIV)
    forge(data)
    return verify_certificate_data, data, lower, TRIV


def _forged_trace(forge):
    """verify_trace_data on a two-bit coding trace, forged by `forge`."""
    trace = run(Flavor.CODING, (1, 0), auto_schedule(Flavor.CODING, 2), TRIV)
    data = json.loads(json.dumps(trace_to_data(trace, TRIV)))
    forge(data)
    return verify_trace_data, data


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
        lambda: _forged_certificate(lambda data: data["upper"].__setitem__("injection", [[0, 0]])),
        "order recheck failed: word 'x' changed fixed points (gained [0])",
    ),
    "certificate-snapshots": (
        lambda: _forged_certificate(lambda data: data.__setitem__("fixpoint_snapshots", [])),
        "fixed-point snapshots do not match",
    ),
    "trace-already-met": (
        lambda: _forged_trace(lambda data: data["schedule"][4].__setitem__("m", 0)),
        "step 4: requirement already met, but the step changes the condition",
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
