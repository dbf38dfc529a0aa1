"""Ambient-group oracles: the group the word letters live in.

Every oracle answers composition, inversion, identity tests, pointwise
evaluation on naturals, and the fixed points of a non-identity element
(for a windowed oracle, those within its window).  Three
implementations: the one-element group, the integers translating ℤ carried
onto ω by the zig-zag pairing 0, -1, 1, -2, 2, …, and the staged oracle whose
elements are reduced words in previously constructed generator injections.

The staged oracle is windowed: its generators are finite injections, so
evaluation beyond the settled region raises WindowTooSmall with the needed
bound, and grow_window extends every stage's injection (re-running domain and
range extensions plus orbit closing against the stage's own stored condition)
without ever changing settled values: each of those operations checks
that the condition it returns extends its input, so the build takes that
condition and checks nothing again.  A sealed stage has only cycles, so it
is written as its cycles (injections.cycles_to_data), and a growth adds
whole new cycles that meet none of the old ones; a trace's growth events
write those, and the verifier checks them (engine._check_growth) instead
of growing again.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from . import forcing as F
from . import injections as I
from . import words as W
from .errors import Refused, StageExtensionFailed, UnknownGroupElement, WindowTooSmall

UNBOUNDED = 2**62


class GroupOracle:
    """Interface; concrete oracles fill in the group operations."""

    def compose(self, a, b):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def is_identity(self, a) -> bool:
        raise NotImplementedError

    def eval(self, a, n: int) -> int:
        raise NotImplementedError

    def fixed_points(self, a) -> frozenset[int]:
        """The points a fixes, within the window; PreconditionViolated for the identity."""
        raise NotImplementedError

    def window(self) -> int:
        return UNBOUNDED

    def grow_window(self, n: int) -> int:
        return self.window()

    def format_element(self, a) -> str:
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


class TrivialOracle(GroupOracle):
    """The one-element group; its only element is the identity on ω."""

    def compose(self, a, b):
        self._check(a)
        self._check(b)
        return 0

    def invert(self, a):
        self._check(a)
        return 0

    def identity(self):
        return 0

    def is_identity(self, a) -> bool:
        self._check(a)
        return True

    def eval(self, a, n: int) -> int:
        self._check(a)
        return n

    def fixed_points(self, a) -> frozenset[int]:
        self._check(a)
        raise F.PreconditionViolated("the identity fixes every natural")

    def format_element(self, a) -> str:
        self._check(a)
        return "e"

    def parse_element(self, text: str):
        if text != "e":
            raise UnknownGroupElement(f"trivial group has no element {text!r}")
        return 0

    def descriptor(self) -> dict:
        return {"kind": "trivial"}

    @staticmethod
    def _check(a):
        if a != 0:
            raise UnknownGroupElement(f"trivial group has no element {a!r}")


def zigzag_decode(n: int) -> int:
    """ω → ℤ along 0, -1, 1, -2, 2, …"""
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def zigzag_encode(z: int) -> int:
    return 2 * z if z >= 0 else -2 * z - 1


class TranslationOracle(GroupOracle):
    """ℤ acting on itself by translation, carried to ω by the zig-zag pairing.

    Element k is the translation z ↦ z + k.  Unwindowed: evaluation is exact
    everywhere, and nonzero translations are fixed-point free.
    """

    def compose(self, a, b):
        return self._check(a) + self._check(b)

    def invert(self, a):
        return -self._check(a)

    def identity(self):
        return 0

    def is_identity(self, a) -> bool:
        return self._check(a) == 0

    def eval(self, a, n: int) -> int:
        return zigzag_encode(zigzag_decode(n) + self._check(a))

    def fixed_points(self, a) -> frozenset[int]:
        if self._check(a) == 0:
            raise F.PreconditionViolated("the identity fixes every natural")
        return frozenset()

    def format_element(self, a) -> str:
        return str(self._check(a))

    def parse_element(self, text: str):
        try:
            return int(text)
        except ValueError:
            raise UnknownGroupElement(f"not a translation: {text!r}") from None

    def descriptor(self) -> dict:
        return {"kind": "translation"}

    @staticmethod
    def _check(a) -> int:
        if not isinstance(a, int) or isinstance(a, bool):
            raise UnknownGroupElement(f"not a translation: {a!r}")
        return a


def trivial_oracle() -> TrivialOracle:
    return TrivialOracle()


def translation_oracle() -> TranslationOracle:
    return TranslationOracle()


@dataclass
class CompletedStage:
    """A sealed construction stage: its injection has only closed orbits.

    `oracle` is the group its words are written in (in a staged run, the
    stages before it), so growing the stage and writing it out reuse that
    oracle's word memos.
    """

    condition: F.Condition
    oracle: GroupOracle = field(repr=False, compare=False)
    trace: object = field(default=None, repr=False, compare=False)

    @property
    def injection(self) -> I.PartialInjection:
        return self.condition.s

    @property
    def window(self) -> int:
        """The least natural no cycle covers; with only closed orbits, mex(support)."""
        return I.closed_and_gap(self.condition.s)[1]

    @property
    def target_bits(self) -> tuple[int, ...]:
        return self.condition.target


# staged elements: reduced words ((stage index, exponent), ...) with
# nonzero exponents and distinct adjacent indices


def _reduce_staged(pairs) -> tuple[tuple[int, int], ...]:
    stack: list[list[int]] = []
    for idx, exp in pairs:
        if exp == 0:
            continue
        if stack and stack[-1][0] == idx:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([idx, exp])
    return tuple((i, e) for i, e in stack)


def _format_staged(elem) -> str:
    return "*".join(str(i) if e == 1 else f"{i}^{e}" for i, e in elem)


def _parse_staged(text: str):
    if not text:
        return ()
    pairs = []
    for token in text.split("*"):
        if "^" in token:
            idx, _, exp = token.partition("^")
            pairs.append((int(idx), int(exp)))
        else:
            pairs.append((int(token), 1))
    return _reduce_staged(pairs)


class StagedOracle(GroupOracle):
    """Reduced words in the stage generators, evaluated through their injections.

    Stage states are shared: an oracle built over a prefix of the stage list
    (as each stage's own oracle is) sees and contributes the same growth.
    """

    def __init__(self, stages: Sequence[CompletedStage]):
        self._stages = list(stages)

    @property
    def stages(self) -> tuple[CompletedStage, ...]:
        return tuple(self._stages)

    def generator(self, index: int):
        if not 0 <= index < len(self._stages):
            raise UnknownGroupElement(f"no generator {index}")
        return ((index, 1),)

    def _check(self, a):
        if not isinstance(a, tuple):
            raise UnknownGroupElement(f"not a staged element: {a!r}")
        for pair in a:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise UnknownGroupElement(f"not a staged element: {a!r}")
            idx, exp = pair
            if not 0 <= idx < len(self._stages) or exp == 0:
                raise UnknownGroupElement(f"bad letter {pair} in {a!r}")
        return a

    def compose(self, a, b):
        return _reduce_staged(list(self._check(a)) + list(self._check(b)))

    def invert(self, a):
        return tuple((i, -e) for i, e in reversed(self._check(a)))

    def identity(self):
        return ()

    def is_identity(self, a) -> bool:
        return self._check(a) == ()

    def eval(self, a, n: int) -> int:
        value = n
        for idx, exp in reversed(self._check(a)):
            s = self._stages[idx].condition.s
            for _ in range(abs(exp)):
                nxt = s.apply(value) if exp > 0 else s.apply_inverse(value)
                if nxt is None:
                    raise WindowTooSmall(
                        value + 1, f"generator {idx} unsettled at {value}"
                    )
                value = nxt
        return value

    def fixed_points(self, a) -> frozenset[int]:
        if self.is_identity(a):
            raise F.PreconditionViolated("the identity fixes every natural")
        return frozenset(n for n in range(self.window()) if self.eval(a, n) == n)

    def window(self) -> int:
        if not self._stages:
            return UNBOUNDED
        return min(stage.window for stage in self._stages)

    def grow_window(self, n: int) -> int:
        for index in range(len(self._stages)):
            self._grow_stage(index, n)
        return self.window()

    def _grow_stage(self, index: int, n: int):
        state = self._stages[index]
        if state.window >= n:
            return
        sub = state.oracle
        cond = state.condition
        attempts = 0

        def retrying(operation):
            nonlocal attempts
            while True:
                try:
                    return operation()
                except WindowTooSmall as e:
                    attempts += 1
                    if attempts > 16:
                        raise StageExtensionFailed(
                            f"stage {index} growth kept hitting window limits"
                        ) from e
                    sub.grow_window(max(e.required, 2 * sub.window()))
                except (F.PreconditionViolated, F.InternalCheckFailed, Refused) as exc:
                    raise StageExtensionFailed(
                        f"stage {index} growth broke its stored order: {exc}"
                    ) from exc

        for point in range(n):
            if cond.s.apply(point) is None:
                cond = retrying(lambda: F.extend_domain(cond, point, sub))
            if cond.s.apply_inverse(point) is None:
                cond = retrying(lambda: F.extend_range(cond, point, sub))
        state.condition = retrying(lambda: F.close_all_orbits(cond, sub))
        if state.window < n:
            raise StageExtensionFailed(
                f"stage {index} growth reached window {state.window} < {n}"
            )

    def format_element(self, a) -> str:
        return _format_staged(self._check(a))

    def parse_element(self, text: str):
        return self._check(_parse_staged(text))

    def descriptor(self) -> dict:
        return {"kind": "staged", "stages": [stage_to_data(stage) for stage in self._stages]}


def staged_oracle(stages: Sequence[CompletedStage]) -> StagedOracle:
    return StagedOracle(stages)


def stage_to_data(stage: CompletedStage) -> dict:
    """A stage's wire form; its words are written in the stage's oracle, the stages before it.

    A stage's index is its place in the stage list, and its window follows
    from its cycles, so neither is written.
    """
    cond = stage.condition
    return {
        "cycles": I.cycles_to_data(cond.s),
        "words": sorted(W.format_word(w, stage.oracle) for w in cond.words),
        "target_bits": list(cond.target or ()),
    }


def stage_from_data(data: dict, oracle: StagedOracle) -> CompletedStage:
    """Inverse of stage_to_data; ValueError for cycles or word texts not in its form.

    `oracle` is the stages before it, so a word naming this stage or a later
    one is rejected.
    """
    s = I.PartialInjection(I.pairs_from_cycles(data["cycles"]))
    _, words = F.map_and_words_from_data([], data["words"], oracle)
    bits = tuple(I.wire_int(b, bit=True) for b in data["target_bits"])
    return CompletedStage(F.Condition(s, words, F.Flavor.DAGGER, bits), oracle)


_ORACLE_KEYS = frozenset(("kind",))
_STAGED_ORACLE_KEYS = frozenset(("kind", "stages"))
_STAGE_KEYS = frozenset(("cycles", "words", "target_bits"))


def oracle_from_descriptor(data: dict) -> GroupOracle:
    """The oracle a descriptor names; ValueError for one descriptor() would not write.

    The descriptor holds exactly `kind`, plus `stages` when staged, and each
    stage exactly stage_to_data's keys (TypeError for a non-object).  Each
    stage must be one seal makes over the stages before it: the cycle form
    ensures only closed orbits, and its condition must validate over the
    stages before it and its injection decode to its target bits.
    """
    staged = isinstance(data, Mapping) and data.get("kind") == "staged"
    I.wire_object(data, _STAGED_ORACLE_KEYS if staged else _ORACLE_KEYS, "oracle")
    kind = data["kind"]
    if kind == "trivial":
        return trivial_oracle()
    if kind == "translation":
        return translation_oracle()
    if not staged:
        raise ValueError(f"unknown oracle kind {kind!r}")
    stages: list[CompletedStage] = []
    for i, entry in enumerate(data["stages"]):
        I.wire_object(entry, _STAGE_KEYS, f"oracle stage {i}")
        try:
            stage = stage_from_data(entry, StagedOracle(stages))
            F.validate(stage.condition, stage.oracle)
        except Refused as exc:
            raise ValueError(f"stage {i}: invalid condition: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"stage {i}: {exc}") from exc
        bits = stage.target_bits
        if (decoded := I.o_dagger(stage.injection, len(bits) - 1)) != bits:
            problem = f"decodes to {list(decoded)}, not its target bits {list(bits)}"
            raise ValueError(f"stage {i}: {problem}")
        stages.append(stage)
    return StagedOracle(stages)
