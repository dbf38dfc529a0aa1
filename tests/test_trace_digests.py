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
    parse_word,
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

FORMAT_VERSION = 9

CODING_BITS = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1)

DIGESTS = {
    "coding-16": (
        "9ea4037e4419c380ad56e31bcbaa0e77"
        "81fef105a238a02e565f962a3bc0307c"
    ),
    "dagger-3-translation": (
        "d4990f3010f79a23cc111fa948524fde"
        "387507fbf3339c758c391c961c07a0fb"
    ),
    "plain-trees": (
        "7d143bb21f681b1675655e1878d16b84"
        "acdcaff869bee8d74d10f12353652159"
    ),
    "plain-trees-sealed": (
        "7f4afa3fa9a4b038d33f3c3a8d919cc8"
        "8e6c64edaef52eced315c54bd3056a26"
    ),
    "staged-0": (
        "c01233f721219f7d56ce89f2a46fcde3"
        "32a758d6bb6a8839edfcbca3a7ef3536"
    ),
    "staged-1": (
        "7deb04a22fd73c1a0b8ac65c365677d6"
        "e9f8b161b81520e27d0d1cc95f572ebb"
    ),
    "translation-trees": (
        "2bf3820039e4e8ff39766e96d8c4654f"
        "433803b0fc119defe7dd3d82deed9ba5"
    ),
    "staged-trees-full": (
        "82b07cc188f45f07ae63d0bc1ef7aa0c"
        "90e1cc66faeffd6bbcbbcd841e1fc65c"
    ),
    "staged-trees-sparse-1": (
        "563a16958741abeb1a4a269ef271b881"
        "2277f316d9e397e69d7be7c7eafe7dd0"
    ),
    "staged-trees-sparse-2-5": (
        "7952d29396d3cf68a6faee7b2a7846b2"
        "dab532da5539e9e798b74af883ed064b"
    ),
    "coding-chained": (
        "166dbff44298940cc3e3e9f313750490"
        "68b1b3d280e138b8355a22878db0a730"
    ),
    "dagger-chained-translation": (
        "4c5891067781bd9bf945bd283f668d26"
        "8e1908c16f95afe41ee099d0aa829401"
    ),
    "coding-group-words": (
        "7ca25f29f71cbe013c2fada97b493396"
        "98bbe1c5d6d75dda435a91e9ca87a2c0"
    ),
}


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, indent=2).encode("utf-8")).hexdigest()


def _assert_certificates_recompute(trace, oracle):
    """Each step's condition passes leq over the one before it, step 0's the run's start."""
    lower = trace.start
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


def _coding_group_words():
    """Orbit closures after group-letter words: each isolated point closes as a one-point path.

    Its chain's first point is the least the fresh-point clause admits, not
    the least admissible image, so steps 10 to 25 differ from a build that
    anchored the point first.
    """
    oracle = translation_oracle()
    schedule = [WordAdded(parse_word(text, oracle)) for text in ("g1.x", "g-2.x.g1.x")]
    schedule += auto_schedule(Flavor.CODING, 8)
    trace = run(Flavor.CODING, (1, 0, 1, 1, 0, 1, 1, 0), schedule, oracle)
    return {"coding-group-words": (trace, oracle)}


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


def test_coding_trace_digest_with_group_words_replays():
    builds = _coding_group_words()
    _check(builds)
    (trace, oracle), = builds.values()
    verify_trace_data(json.loads(json.dumps(trace_to_data(trace, oracle))))
