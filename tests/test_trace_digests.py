"""Pinned trace digests: fixed builds serialize to the same bytes, release after release.

Each digest is the sha256 of `json.dumps(trace_to_data(trace, oracle), indent=2)`,
the text `orbitcode run --out` writes.  A refactor of the forcing operations or
of the engine must leave these bytes alone; a deliberate format change updates
the digests together with `CONVENTIONS["format_version"]`, which is pinned here
beside them, so a change to one without the other fails in this file.  The
same builds check that every stored condition passes `leq` over the one
before it, and that the deltas a trace writes encode the chain the run
built: the union of the deltas up to each step is that step's upper
condition, its `upper_sum` that union's checksum, and the last union the
final condition.
"""

import hashlib
import json

from orbitcode import (
    CONVENTIONS,
    Condition,
    DomainHits,
    Flavor,
    FullInjectiveTree,
    OrbitCoded,
    PartialInjection,
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
    verify_trace_data,
    x_power,
)

import helpers

FORMAT_VERSION = 8

CODING_BITS = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1)

DIGESTS = {
    "coding-16": (
        "1d593b5b545d2ac90812f1f648194a12"
        "67b1053d24ccdcf8dca98c1a0155900e"
    ),
    "dagger-3-translation": (
        "915716167b75d727bc0418e753153288"
        "b315e502e31e259bdabb838dc4728150"
    ),
    "plain-trees": (
        "ca2e0a594a0fc844ca41bc2f7028e9f2"
        "95e2f519600a4e1911ce882aee48c5e0"
    ),
    "plain-trees-sealed": (
        "7f4afa3fa9a4b038d33f3c3a8d919cc8"
        "8e6c64edaef52eced315c54bd3056a26"
    ),
    "staged-0": (
        "038774ce6549f3347ba87b92bcf98ec1"
        "cdd5650e7f62ef7e09fafcaa94e82927"
    ),
    "staged-1": (
        "44fb7c35ce92cf5afedde5669b9e8a42"
        "4d7aa8d985695a3920373fe8532347d1"
    ),
    "translation-trees": (
        "4b17be387c46865f8d7b1231649cefd4"
        "0a972505a57048380db9dd3d5cfb2c53"
    ),
    "staged-trees-full": (
        "ffe4d94101a54113aaa17f904b1b0423"
        "681ff26139a8838794bae97e0262701b"
    ),
    "staged-trees-sparse-1": (
        "693f9dfe8d949652b38fd1bb575c83f4"
        "9412dd04d02f33eda403ddcd6c2d5f1c"
    ),
    "staged-trees-sparse-2-5": (
        "efc921d23568b6011d82bd3416b246b3"
        "fc502b32e9e75efb41ba2f35e54879ee"
    ),
    "coding-chained": (
        "7c4d48e837b1d7a3ce36e5768ff6a54c"
        "c4cbd3c9175c0356e86d6f951d219b9d"
    ),
    "dagger-chained-translation": (
        "ba6f0768b8cbfc1124c7160a162c672b"
        "e5cea50e72cd1c7829d7de859d3671f3"
    ),
}


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, indent=2).encode("utf-8")).hexdigest()


def _assert_certificates_recompute(trace, oracle):
    """Each step's condition passes leq over the one before it, step 0's the empty condition."""
    lower = Condition(PartialInjection(), frozenset(), trace.flavor, trace.target)
    for step in trace.steps:
        assert helpers.holds(leq, step.condition, lower, oracle), f"step {step.index}"
        lower = step.condition


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


def _chained():
    """One step each that chains operations: eight orbit closures, and three strong closures.

    Their certificates span several versions of the map, so the writer and
    leq read their deltas off a comparison of the two maps' dicts.
    """
    trivial, translation = trivial_oracle(), translation_oracle()
    coding = run(Flavor.CODING, (1, 0, 1, 1, 0, 0, 1, 0), [OrbitCoded(7)], trivial)
    dagger = run(Flavor.DAGGER, (1, 0, 1, 1), [WordAdded(x_power(7))], translation)
    return {"coding-chained": (coding, trivial), "dagger-chained-translation": (dagger, translation)}


def _assert_deltas_encode_the_chain(trace, data, oracle):
    unions = helpers.delta_unions(data)
    assert len(unions) == len(trace.steps) > 0
    for step, written, (pairs, texts) in zip(trace.steps, data["steps"], unions):
        upper = condition_to_data(step.condition, oracle)
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


def test_chained_step_trace_digests_and_replays():
    builds = _chained()
    _check(builds)
    for trace, oracle in builds.values():
        verify_trace_data(json.loads(json.dumps(trace_to_data(trace, oracle))))
