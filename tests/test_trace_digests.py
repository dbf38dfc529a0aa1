"""Pinned trace digests: fixed builds serialize to the same bytes, release after release.

Each digest is the sha256 of `json.dumps(trace_to_data(trace, oracle), indent=2)`,
the text `orbitcode run --out` writes.  A refactor of the forcing operations or
of the engine must leave these bytes alone; a deliberate format change updates
the digests together with `CONVENTIONS["format_version"]`, which is pinned here
beside them, so a change to one without the other fails in this file.  The
same builds check that every stored condition passes `leq` over the one
before it, and that the deltas a trace writes encode the chain the run
built: the union of the deltas up to each step is that step's upper
condition, each delta is contained in the final condition, and the last
union is the final condition.
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

FORMAT_VERSION = 10

CODING_BITS = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1)

DIGESTS = {
    "coding-16": (
        "7b04b5ddf84b741ae21473f38d9ec417"
        "b8a4f2389ffa7abf5e118790e4ce5636"
    ),
    "dagger-3-translation": (
        "23da36026cdfa8cb51c83ff511129925"
        "2dfabcf58f1216df12f9ac18a0c01e0f"
    ),
    "plain-trees": (
        "469a85077465b04acafd2bf0b7424d49"
        "4e35cc5b8f30e92e8c6d6974b3597094"
    ),
    "plain-trees-sealed": (
        "3ad8d9036e0fcfdb5d80119ef71d1107"
        "f3626f2f44816f69ebf9ce8cf873c761"
    ),
    "staged-0": (
        "a5fb29a3f1258c0052bc4e82a04edb5c"
        "826113f535f9820ed9582a246a3dcd4e"
    ),
    "staged-1": (
        "e985f6fede73f9c43c879ddea944c1aa"
        "27f8fdbaa79c7a46974305808f18e018"
    ),
    "translation-trees": (
        "16132566349882ec09ecbe942f229883"
        "43699891ebe6ab88ef6dfcc7cd79a4ed"
    ),
    "staged-trees-full": (
        "fa812f48efd9ea87ba9a2ef2ccc15123"
        "983cfc4be8e7588ea5649ce74435f582"
    ),
    "staged-trees-sparse-1": (
        "5f2825cefa5995a504980a1010c9cddf"
        "29ea0bfec44dcd84dd874b41ba5f933b"
    ),
    "staged-trees-sparse-2-5": (
        "efd35d726a43c79d20d2abd50e237159"
        "922bef65a4b29c6a8191cad94978c30d"
    ),
    "coding-chained": (
        "2c2f79588e59ec651a961224891a1726"
        "ba2dc17112ce9e5fc2232e168e3b24e9"
    ),
    "dagger-chained-translation": (
        "fb2571a7748eeb92f27791fb986e53a9"
        "2f41dc6f25b3c45e5cd4d999f2b2bde2"
    ),
    "coding-group-words": (
        "518db0d27542bbd5cbf7fa9ef6409f45"
        "ac084f2f4d4ca8ed224597e1b28fc2d0"
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
    image = dict(map(tuple, data["final"]["injection"]))
    for step, written, (pairs, texts) in zip(trace.steps, data["steps"], unions):
        upper = condition_to_data(step.condition, oracle)
        assert (pairs, texts) == (upper["injection"], upper["words"]), f"step {step.index}"
        assert all(image.get(n) == m for n, m in written["pairs"]), f"step {step.index}"
        assert set(written["words"]) <= set(data["final"]["words"]), f"step {step.index}"
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
