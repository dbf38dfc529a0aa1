"""Pinned trace digests: fixed builds serialize to the same bytes, release after release.

Each digest is the sha256 of `json.dumps(trace_to_data(trace, oracle), indent=2)`,
the text `orbitcode run --out` writes.  A refactor of the forcing operations or
of the engine must leave these bytes alone; a deliberate format change updates
the digests together with `CONVENTIONS["format_version"]`, which is pinned here
beside them, so a change to one without the other fails in this file.  The
same builds check that every stored certificate is exactly what `leq`
recomputes.
"""

import hashlib
import json

from orbitcode import (
    CONVENTIONS,
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

FORMAT_VERSION = 2

CODING_BITS = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1)

DIGESTS = {
    "coding-16": (
        "5b98e779ea4d2228804224e268725571"
        "fbe977958c3497b8b8df28094d41c1fa"
    ),
    "dagger-3-translation": (
        "bc1694bcd0ee0cbc2823e34f653c4882"
        "a3fc1475c878afc6978a2c5083095fbf"
    ),
    "plain-trees": (
        "a6b3be6d8663c0088b2cbc576c0e8bab"
        "2ed77e61f307275472b69150c3a35519"
    ),
    "plain-trees-sealed": (
        "fcb92eb0bbbd49600319733e6f66964e"
        "7cdd6a16b8f3bef9a82bba09023a9739"
    ),
    "staged-0": (
        "2fdd7645432dd2081fa5201e6070ca36"
        "9eae9e60fc889bdd11804d3f56534622"
    ),
    "staged-1": (
        "2e7ed42c9b565dbd7ee7331974c12df0"
        "9206d1a7b1e683a541eb43fc05cf345c"
    ),
    "translation-trees": (
        "c36054dcdbc26f92032cb70c37a95145"
        "705edbb37cedcb84ad5c85fa1df80f22"
    ),
    "staged-trees-full": (
        "08b2d8c182ee0dbfe8d6ee0f067963f2"
        "be989dfc41736b20a688cd81d3ad62e0"
    ),
    "staged-trees-sparse-1": (
        "20ea5a873fa976b6440730fed520c2b6"
        "1d575505e6149c43beb39ceb947921fe"
    ),
    "staged-trees-sparse-2-5": (
        "fdabcf56064e985299c0b5e2937cafbc"
        "09fd7f64fff6fd24d5a62157d5901163"
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


def _translation_trees():
    """Tree steps that bar the images of g1 and g-1 at every depth."""
    oracle = translation_oracle()
    schedule = [WordAdded(x_power(1)), WordAdded(Word((group(1), X)))]
    trees = [FullInjectiveTree(), SparseCongruenceTree(3)]
    schedule += [TreeDiagonalized(tree) for tree in trees * 2]
    for i in range(8):
        schedule += [DomainHits(i), RangeHits(i)]
    return {"translation-trees": (run(Flavor.PLAIN, None, schedule, oracle), oracle)}


def _staged_trees():
    """Three plain tree runs, in order, over one staged oracle; sparse(1) grows its window."""
    oracle = StagedOracle(staged_run(((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0))))
    words = [x_power(1)] + [Word((group(oracle.generator(i)), X)) for i in (0, 1)]
    builds = {}
    for name, tree in (
        ("staged-trees-full", FullInjectiveTree()),
        ("staged-trees-sparse-1", SparseCongruenceTree(1)),
        ("staged-trees-sparse-2-5", SparseCongruenceTree(2, 5)),
    ):
        schedule = [WordAdded(w) for w in words] + [TreeDiagonalized(tree)] * 3
        for i in range(6):
            schedule += [DomainHits(i), RangeHits(i)]
        trace = run(Flavor.PLAIN, None, schedule, oracle)
        builds[name] = (trace, oracle)
        assert len(trace.growth_events) == (1 if name == "staged-trees-sparse-1" else 0)
    return builds


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


def test_digests_are_pinned_at_their_format_version():
    assert CONVENTIONS["format_version"] == FORMAT_VERSION


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


def test_tree_trace_digests_off_the_trivial_oracle():
    _check(_translation_trees())
    _check(_staged_trees())
