"""Pinned trace digests: fixed builds serialize to the same bytes, release after release.

Each digest is the sha256 of `json.dumps(trace_to_data(trace, oracle), indent=2)`,
the text `orbitcode run --out` writes.  A refactor of the forcing operations or
of the engine must leave these bytes alone; a deliberate format change updates
the digests together with `CONVENTIONS["format_version"]`.  The same builds
check that every stored certificate is exactly what `leq` recomputes.
"""

import hashlib
import json

from orbitcode import (
    DomainHits,
    Flavor,
    FullInjectiveTree,
    RangeHits,
    SparseCongruenceTree,
    StagedOracle,
    TreeDiagonalized,
    Word,
    WordAdded,
    X,
    auto_schedule,
    condition_to_data,
    group,
    leq,
    power,
    run,
    seal,
    staged_run,
    trace_to_data,
    translation_oracle,
    trivial_oracle,
    x_power,
)

CODING_BITS = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1)

DIGESTS = {
    "coding-16": (
        "74ca5970d4c724c46064458706e4e80d"
        "98b115b4cb0a54701f24857aad45e7fe"
    ),
    "dagger-3-translation": (
        "cc1c60b4f71f0760f032e8325c6a5c40"
        "ad082581dbbece4da4e3a7d7083aff9f"
    ),
    "plain-trees": (
        "b0abb181171e3216208081f333b90e4d"
        "b196369458ac06fdf4b9fb114ef062f6"
    ),
    "plain-trees-sealed": (
        "fcb92eb0bbbd49600319733e6f66964e"
        "7cdd6a16b8f3bef9a82bba09023a9739"
    ),
    "staged-0": (
        "0dcc5c82affc2f7696d55954753a2105"
        "a3246fc0450efb223f98c610632bb7d6"
    ),
    "staged-1": (
        "6cfe7236a33f255fd43127d9e59f880b"
        "9917db83d3f95aa38f5f8ed246bfe1b1"
    ),
}


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, indent=2).encode("utf-8")).hexdigest()


def _assert_certificates_recompute(trace, oracle):
    for step in trace.steps:
        cert = step.certificate
        assert cert == leq(cert.upper, cert.lower, oracle), f"step {step.index}"


def _coding():
    oracle = trivial_oracle()
    trace = run(Flavor.CODING, CODING_BITS, auto_schedule(Flavor.CODING, 16), oracle)
    return {"coding-16": (trace, oracle)}


def _dagger_translation():
    oracle = translation_oracle()
    v = Word((group(1), X))
    schedule = auto_schedule(Flavor.DAGGER, 3)
    schedule += [WordAdded(v), WordAdded(power(v, 2, oracle))]
    trace = run(Flavor.DAGGER, (1, 0, 1), schedule, oracle)
    return {"dagger-3-translation": (trace, oracle)}


def _plain_trees():
    oracle = trivial_oracle()
    schedule = [WordAdded(x_power(1))]
    schedule += [TreeDiagonalized(FullInjectiveTree()) for _ in range(2)]
    schedule += [TreeDiagonalized(SparseCongruenceTree(seed)) for seed in (3, 4)]
    for i in range(8):
        schedule += [DomainHits(i), RangeHits(i)]
    trace = run(Flavor.PLAIN, None, schedule, oracle)
    stage = seal(trace, oracle)
    return {"plain-trees": (trace, oracle)}, condition_to_data(stage.condition, oracle)


def _staged():
    stages = staged_run([(1, 0), (0, 1)])
    return {
        f"staged-{i}": (stage.trace, StagedOracle(stages[:i]))
        for i, stage in enumerate(stages)
    }


def _check(builds):
    for name, (trace, oracle) in builds.items():
        _assert_certificates_recompute(trace, oracle)
        assert _digest(trace_to_data(trace, oracle)) == DIGESTS[name], name


def test_coding_trace_digest():
    _check(_coding())


def test_dagger_translation_trace_digest():
    _check(_dagger_translation())


def test_plain_tree_trace_and_seal_digests():
    builds, sealed = _plain_trees()
    _check(builds)
    assert _digest(sealed) == DIGESTS["plain-trees-sealed"]


def test_staged_trace_digests():
    _check(_staged())
