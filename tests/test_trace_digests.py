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
    OrbitCoded,
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

FORMAT_VERSION = 7

CODING_BITS = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1)

DIGESTS = {
    "coding-16": (
        "19d5a23ac0778a19e7421770e116dfef"
        "feb45754d8df775434da1a53772c6479"
    ),
    "dagger-3-translation": (
        "aaae1dc1373f79e1380f8d07a7526345"
        "e6563d3129c793909c78fd8c63313508"
    ),
    "plain-trees": (
        "e9133ea7ee9bdba8d293113a966e2d98"
        "69310e02c46d1ebb7e5a7ac483f446f3"
    ),
    "plain-trees-sealed": (
        "7f4afa3fa9a4b038d33f3c3a8d919cc8"
        "8e6c64edaef52eced315c54bd3056a26"
    ),
    "staged-0": (
        "1b67ff03d9bc63203f566fae02c4b8fb"
        "9457781736750c3482c8b085ae8c4cf3"
    ),
    "staged-1": (
        "eacc388fb18ad11123555c6348c5701e"
        "e26722bc6d5046f01c8e683c71302a5c"
    ),
    "translation-trees": (
        "0003fa83604584657bf66ef9df6ce38d"
        "bd4ae73931d5c80790fb2ba50e44f12e"
    ),
    "staged-trees-full": (
        "3907332cc84ed05e3c7cb129ad1d4a1f"
        "dbf7bd880fe72fa2dcacb8d54be40a01"
    ),
    "staged-trees-sparse-1": (
        "bd9d8fc6db42642ebb9db733fe0b5a2b"
        "4235a85ca8745f82dac8732896562498"
    ),
    "staged-trees-sparse-2-5": (
        "b39ce163c73cb5db163e4659d8339721"
        "d4b59549cf137e67a80ccc7ca3f244d7"
    ),
    "coding-chained": (
        "7cbc6bd63528a3e7e66800f01acfcd72"
        "61111dc77a17c422c280dfe7ff014d41"
    ),
    "dagger-chained-translation": (
        "1835679ac6072d5123690ad5d6f8f380"
        "ad25cfb5b51052b7304be0e324b07aa5"
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


def test_chained_step_trace_digests_and_replays():
    builds = _chained()
    _check(builds)
    for trace, oracle in builds.values():
        verify_trace_data(json.loads(json.dumps(trace_to_data(trace, oracle))))
