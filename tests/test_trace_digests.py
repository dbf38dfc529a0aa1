"""Pinned trace digests: fixed builds serialize to the same bytes, release after release.

Each digest is the sha256 of `json.dumps(trace_to_data(trace, oracle), indent=2)`,
the text `orbitcode run --out` writes.  A refactor of the forcing operations or
of the engine must leave these bytes alone; a deliberate format change updates
the digests together with `CONVENTIONS["format_version"]`, which is pinned here
beside them, so a change to one without the other fails in this file.  The
same builds check that every stored certificate is exactly what `leq`
recomputes, and that the deltas a trace writes encode the chain the run
built: the union of the deltas up to each step is that step's upper
condition, its `upper_sum` that union's checksum, and the last union the
final condition.
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

import helpers

FORMAT_VERSION = 3

CODING_BITS = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1)

DIGESTS = {
    "coding-16": (
        "388fbf7e231725fd89460f4b78072247"
        "1277d2fd4aa8ec9a11ffd738be6420d9"
    ),
    "dagger-3-translation": (
        "c57f3ac8ba2df499c8330103426cc479"
        "65987f89c35e48d8923d7b97a81944f0"
    ),
    "plain-trees": (
        "a404b5a332436e6c3dd70919d62770ce"
        "f49e6ca7197a8ef86af15ea063cbd1ba"
    ),
    "plain-trees-sealed": (
        "fcb92eb0bbbd49600319733e6f66964e"
        "7cdd6a16b8f3bef9a82bba09023a9739"
    ),
    "staged-0": (
        "52be84bdc5c07b40a92d78c8028ef5e2"
        "ceb2070095cb9966dfa013ecb0236669"
    ),
    "staged-1": (
        "ca5689beb438f81ee136b2edec9335ff"
        "b39343bc9b261b99e22f351f40346ad6"
    ),
    "translation-trees": (
        "d961947a4bfcbe29c06c6c4ce68ce0f2"
        "41df10a0a38aee4ad2bcba00d06fb62b"
    ),
    "staged-trees-full": (
        "d7f83be86e84f76f2b32bda834625942"
        "8afc4c0d01e0316cb124f7e6ce560210"
    ),
    "staged-trees-sparse-1": (
        "9b8c13dd25332b16bb12b4ef461b1fc8"
        "204b8f6541db93f22077d0259fb0a1aa"
    ),
    "staged-trees-sparse-2-5": (
        "8d35d224c164046b4c075c1569b13caf"
        "1fc384e8a1b983a7637a529873acad24"
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


def _assert_deltas_encode_the_chain(trace, data, oracle):
    unions = helpers.delta_unions(data)
    assert len(unions) == len(trace.steps) > 0
    for step, written, (pairs, texts) in zip(trace.steps, data["steps"], unions):
        upper = condition_to_data(step.certificate.upper, oracle)
        assert (pairs, texts) == (upper["injection"], upper["words"]), f"step {step.index}"
        assert written["upper_sum"] == helpers.upper_sum(pairs, texts), f"step {step.index}"
    assert (data["final"]["injection"], data["final"]["words"]) == unions[-1]


def _check(builds):
    for name, (trace, oracle) in builds.items():
        _assert_certificates_recompute(trace, oracle)
        data = trace_to_data(trace, oracle)
        _assert_deltas_encode_the_chain(trace, data, oracle)
        assert _digest(data) == DIGESTS[name], name


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
