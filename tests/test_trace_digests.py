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

FORMAT_VERSION = 6

CODING_BITS = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1)

DIGESTS = {
    "coding-16": (
        "ae7662efbddaafcfd6a2f1ae4fac79f9"
        "8022546621b0e4d1edee9d715c462cc3"
    ),
    "dagger-3-translation": (
        "da4478588af03483d28c1ba76e93a892"
        "8e14f4b6e250bfe6ed376b532e413b17"
    ),
    "plain-trees": (
        "af67bfed711daf0df8d26ddbbc97c07d"
        "cc7959155fbfd4bf2e49cddb4230b760"
    ),
    "plain-trees-sealed": (
        "fcb92eb0bbbd49600319733e6f66964e"
        "7cdd6a16b8f3bef9a82bba09023a9739"
    ),
    "staged-0": (
        "78644ec8e97fe66633e5eda696e05703"
        "d3cb85b64b12101e1d7efd6d5a52267e"
    ),
    "staged-1": (
        "11ff2ad39b7d926ac7f351365bdc62d3"
        "dc91509f6794f8f37837ebb76aee0f48"
    ),
    "translation-trees": (
        "daf8781bb399258f64fe63388fb1139b"
        "14a1438591b4013d17bb04566025574d"
    ),
    "staged-trees-full": (
        "60524f6b52f3e58ef970dfcf8111b6be"
        "0a68ba0deb2b194774550570c643f8e8"
    ),
    "staged-trees-sparse-1": (
        "98dee5ed3320820bc4c4936809c2bf4a"
        "8aeb1298d8a5821beeb7afe9bb555a45"
    ),
    "staged-trees-sparse-2-5": (
        "461a5da07aff3070967fbaf2b9b9cd72"
        "324d791aa1127020699dab0fcc9bee87"
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
