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
without ever changing settled values: each of those operations certifies
that its result extends its input, so growth takes their `.upper` and checks
nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import forcing as F
from . import injections as I
from . import words as W
from .errors import StageExtensionFailed, UnknownGroupElement, WindowTooSmall

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
    """A sealed construction stage: its injection has only closed orbits."""

    generator_index: int
    condition: F.Condition
    window: int
    trace: object = field(default=None, repr=False, compare=False)

    @property
    def injection(self) -> I.PartialInjection:
        return self.condition.s

    @property
    def target_bits(self) -> tuple[int, ...]:
        return self.condition.target


# staged elements: reduced words ((generator_index, exponent), ...) with
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
    (as the growth machinery does) sees and contributes the same growth.
    """

    def __init__(self, stages: Sequence[CompletedStage]):
        self._stages = list(stages)

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
        sub = StagedOracle(self._stages[:index])
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
                except (F.PreconditionViolated, F.InternalCheckFailed) as exc:
                    raise StageExtensionFailed(
                        f"stage {index} growth broke its stored order: {exc}"
                    ) from exc

        for point in range(n):
            if cond.s.apply(point) is None:
                cond = retrying(lambda: F.extend_domain(cond, point, sub)).upper
            if cond.s.apply_inverse(point) is None:
                cond = retrying(lambda: F.extend_range(cond, point, sub)).upper
        cond = retrying(lambda: F.close_all_orbits(cond, sub)).upper
        new_window = I.mex(cond.s.support)
        if new_window < n:
            raise StageExtensionFailed(
                f"stage {index} growth reached window {new_window} < {n}"
            )
        state.condition = cond
        state.window = new_window

    def format_element(self, a) -> str:
        return _format_staged(self._check(a))

    def parse_element(self, text: str):
        return self._check(_parse_staged(text))

    def descriptor(self) -> dict:
        stages = [
            stage_to_data(stage, StagedOracle(self._stages[:i]))
            for i, stage in enumerate(self._stages)
        ]
        return {"kind": "staged", "stages": stages}


def staged_oracle(stages: Sequence[CompletedStage]) -> StagedOracle:
    return StagedOracle(stages)


def stage_to_data(stage: CompletedStage, oracle: StagedOracle) -> dict:
    """A stage's wire form; its words are written in `oracle`, the stages before it."""
    cond = stage.condition
    return {
        "generator_index": stage.generator_index,
        "injection": [list(p) for p in cond.s.pairs()],
        "words": sorted(W.format_word(w, oracle) for w in cond.words),
        "target_bits": list(cond.target or ()),
        "window": stage.window,
    }


def stage_from_data(data: dict, oracle: StagedOracle) -> CompletedStage:
    """Inverse of stage_to_data; ValueError for pairs or word texts not in its form.

    A word naming this stage or a later one is rejected.
    """
    s, words = F.map_and_words_from_data(data["injection"], data["words"], oracle)
    bits = tuple(I.wire_int(b, bit=True) for b in data["target_bits"])
    return CompletedStage(
        generator_index=I.wire_int(data["generator_index"]),
        condition=F.Condition(s, words, F.Flavor.DAGGER, bits),
        window=I.wire_int(data["window"]),
    )


def oracle_from_descriptor(data: dict) -> GroupOracle:
    kind = data["kind"]
    if kind == "trivial":
        return trivial_oracle()
    if kind == "translation":
        return translation_oracle()
    if kind == "staged":
        stages: list[CompletedStage] = []
        for i, entry in enumerate(data["stages"]):
            before = StagedOracle(stages)
            try:
                stage = stage_from_data(entry, before)
            except ValueError as exc:
                raise ValueError(f"stage {i}: {exc}") from exc
            stages.append(_proven_stage(i, stage, before))
        return StagedOracle(stages)
    raise ValueError(f"unknown oracle kind {kind!r}")


def _proven_stage(i: int, stage: CompletedStage, before: StagedOracle) -> CompletedStage:
    """stage itself if it is what seal makes as stage i over `before`; ValueError otherwise.

    Sealed means generator i, only closed orbits (dom = ran) and the window
    mex(support); its condition validates over the stages before it, and
    its injection decodes to its target bits.
    """
    s, bits = stage.injection, stage.target_bits
    decoded = I.o_dagger(s, len(bits) - 1)
    if stage.generator_index != i:
        problem = f"generator_index is {stage.generator_index}"
    elif s.domain != s.range:
        problem = "has an open orbit"
    elif stage.window != I.mex(s.support):
        problem = f"window {stage.window} is not mex(support) = {I.mex(s.support)}"
    elif not (valid := F.validate(stage.condition, before)):
        problem = f"invalid condition: {valid.reason}"
    elif decoded != bits:
        problem = f"decodes to {list(decoded)}, not its target bits {list(bits)}"
    else:
        return stage
    raise ValueError(f"stage {i}: {problem}")
