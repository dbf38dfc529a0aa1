"""Reduced words over a group alphabet extended by one formal symbol.

A word is a finite sequence of letters, leftmost letter applied last, so that
evaluation against a partial injection walks the letters right to left.  The
three letter kinds are the formal symbol ``x`` (evaluated as the injection),
its inverse ``x^-1`` (the inverse injection), and opaque group elements that
an oracle evaluates, composes and inverts.  Group handles are canonical: two
letters are equal exactly when their handles compare equal.

The admissible ("nice") words are powers x^k with k > 0, and alternations

    g_l x^{k_l} ... g_1 x^{k_1} g_0 x^{k_0}

with k_0 > 0, every k_i nonzero and every g_i distinct from the identity.
Blocks are indexed from the right, matching that display.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .errors import NotNiceWord


class LetterKind(Enum):
    X = "x"
    X_INV = "x^-1"
    GROUP = "g"


@dataclass(frozen=True)
class Letter:
    kind: LetterKind
    handle: object = None

    def __repr__(self) -> str:
        if self.kind is LetterKind.GROUP:
            return f"g[{self.handle!r}]"
        return self.kind.value


X = Letter(LetterKind.X)
X_INV = Letter(LetterKind.X_INV)


def group(handle) -> Letter:
    """Letter for one group element, given by its canonical handle."""
    return Letter(LetterKind.GROUP, handle)


@dataclass(frozen=True)
class Word:
    """A reduced word. Construct through `reduce`, not directly."""

    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def x_count(self) -> int:
        """Number of x or x^-1 letters."""
        return sum(1 for l in self.letters if l.kind is not LetterKind.GROUP)


IDENTITY_WORD = Word()


def reduce(raw: Iterable[Letter], oracle) -> Word:
    """Freely reduce a letter sequence.

    Adjacent x/x^-1 pairs cancel, adjacent group letters compose through the
    oracle, and identity group letters vanish.  Raises UnknownGroupElement if
    a handle is not the oracle's.
    """
    stack: list[Letter] = []
    for letter in raw:
        if letter.kind is LetterKind.GROUP and oracle.is_identity(letter.handle):
            continue
        while True:
            if not stack:
                stack.append(letter)
                break
            top = stack[-1]
            if (top.kind is LetterKind.X and letter.kind is LetterKind.X_INV) or (
                top.kind is LetterKind.X_INV and letter.kind is LetterKind.X
            ):
                stack.pop()
                break
            if top.kind is LetterKind.GROUP and letter.kind is LetterKind.GROUP:
                stack.pop()
                composed = oracle.compose(top.handle, letter.handle)
                if oracle.is_identity(composed):
                    break
                letter = group(composed)
                continue
            stack.append(letter)
            break
    return Word(tuple(stack))


def inverse_word(w: Word, oracle) -> Word:
    inverted = []
    for letter in reversed(w.letters):
        if letter.kind is LetterKind.X:
            inverted.append(X_INV)
        elif letter.kind is LetterKind.X_INV:
            inverted.append(X)
        else:
            inverted.append(group(oracle.invert(letter.handle)))
    return reduce(inverted, oracle)


def power(w: Word, k: int, oracle) -> Word:
    if k < 0:
        return power(inverse_word(w, oracle), -k, oracle)
    return reduce(w.letters * k, oracle)


def x_power(k: int) -> Word:
    """The word x^k (reduced by construction; k may be negative or zero)."""
    if k >= 0:
        return Word((X,) * k)
    return Word((X_INV,) * (-k))


def _runs(w: Word) -> list[tuple[str, object, int]]:
    """Collapse letters into runs: ('x', None, signed length) or ('g', handle, 1)."""
    runs: list[tuple[str, object, int]] = []
    for letter in w.letters:
        if letter.kind is LetterKind.GROUP:
            runs.append(("g", letter.handle, 1))
            continue
        step = 1 if letter.kind is LetterKind.X else -1
        if runs and runs[-1][0] == "x" and (runs[-1][2] > 0) == (step > 0):
            runs[-1] = ("x", None, runs[-1][2] + step)
        else:
            runs.append(("x", None, step))
    return runs


def nice_blocks(w: Word) -> tuple[tuple[object, int], ...] | None:
    """Block decomposition witnessing admissibility, or None.

    Blocks are (group handle, exponent) pairs indexed from the right; a pure
    power x^k yields the single block (None, k).
    """
    runs = _runs(w)
    if not runs:
        return None
    if all(kind == "x" for kind, _, _ in runs):
        # a single uniform run; positive exponent required
        exp = runs[0][2]
        return ((None, exp),) if exp > 0 else None
    # alternation read right to left: x-run, then group, ..., ending in a group
    if runs[-1][0] != "x" or runs[-1][2] <= 0:
        return None
    if runs[0][0] != "g":
        return None
    blocks: list[tuple[object, int]] = []
    # runs alternate by construction of _runs only between x and g when reduced
    items = list(reversed(runs))
    if len(items) % 2 != 0:
        return None
    for i in range(0, len(items), 2):
        xkind, _, exp = items[i]
        gkind, handle, _ = items[i + 1]
        if xkind != "x" or gkind != "g":
            return None
        blocks.append((handle, exp))
    return tuple(blocks)


def is_nice(w: Word) -> bool:
    return nice_blocks(w) is not None


def cyclic_conjugates_and_inverses(w: Word, oracle) -> frozenset[Word]:
    """All admissible words among cyclic rotations of w and their inverses.

    w is reduced and admissible: it starts with a group letter and ends in
    x, so its rotations are reduced too.  An admissible rotation starts with
    a group letter (a pure power has only itself), and one whose inverse is
    admissible ends with one, so only the cuts at and just after a group
    letter are tried: linear work for x^k, not quadratic.
    """
    if nice_blocks(w) is None:
        raise NotNiceWord(f"not an admissible word: {format_word(w, oracle)!r}")
    letters = w.letters
    groups = [i for i, letter in enumerate(letters) if letter.kind is LetterKind.GROUP]
    cuts = {0, *groups, *((i + 1) % len(letters) for i in groups)}
    out = set()
    for i in cuts:
        rotated = Word(letters[i:] + letters[:i])
        for candidate in (rotated, inverse_word(rotated, oracle)):
            if is_nice(candidate):
                out.add(candidate)
    return frozenset(out)


def _word_from_blocks(blocks: Sequence[tuple[object, int]]) -> Word:
    letters: list[Letter] = []
    for handle, exp in reversed(blocks):
        if handle is not None:
            letters.append(group(handle))
        letters.extend(x_power(exp).letters)
    return Word(tuple(letters))


def indecomposable_root(w: Word, oracle) -> tuple[Word, int]:
    """The unique admissible v and maximal k >= 1 with v^k equal to w.

    Powers concatenate block sequences without reduction, so the check is an
    exact periodicity scan over block-count divisors.
    """
    blocks = nice_blocks(w)
    if blocks is None:
        raise NotNiceWord(f"not an admissible word: {format_word(w, oracle)!r}")
    if blocks[0][0] is None:
        return Word((X,)), blocks[0][1]
    total = len(blocks)
    for period in range(1, total + 1):
        if total % period != 0:
            continue
        if all(blocks[i] == blocks[i % period] for i in range(total)):
            return _word_from_blocks(blocks[:period]), total // period
    raise AssertionError("period 'total' always matches")


def evaluate(w: Word, s, oracle, n: int) -> int | None:
    """Apply the word to n, rightmost letter first. None once any step is.

    `s` answers .apply(k) and .apply_inverse(k) with an int or None.
    """
    value: int | None = n
    for letter in reversed(w.letters):
        if letter.kind is LetterKind.X:
            value = s.apply(value)
        elif letter.kind is LetterKind.X_INV:
            value = s.apply_inverse(value)
        else:
            value = oracle.eval(letter.handle, value)
        if value is None:
            return None
    return value


def graph_restriction(words: Iterable[Word], oracle) -> frozenset:
    """Handles of all group letters, their inverses, and the identity."""
    handles = {oracle.identity()}
    for w in words:
        for letter in w.letters:
            if letter.kind is LetterKind.GROUP:
                handles.add(letter.handle)
                handles.add(oracle.invert(letter.handle))
    return frozenset(handles)


def format_word(w: Word, oracle) -> str:
    """Canonical text: tokens x, x^k, g<element> joined by dots, leftmost first."""
    if w.is_identity:
        return ""
    tokens = []
    for kind, handle, exp in _runs(w):
        if kind == "g":
            tokens.append("g" + oracle.format_element(handle))
        elif exp == 1:
            tokens.append("x")
        else:
            tokens.append(f"x^{exp}")
    return ".".join(tokens)


def parse_word(text: str, oracle) -> Word:
    """Inverse of format_word. The result is reduced."""
    letters: list[Letter] = []
    text = text.strip()
    if not text:
        return IDENTITY_WORD
    for token in text.split("."):
        token = token.strip()
        if token == "x":
            letters.append(X)
        elif token.startswith("x^"):
            exp = int(token[2:])
            letters.extend(x_power(exp).letters)
        elif token.startswith("g"):
            letters.append(group(oracle.parse_element(token[1:])))
        else:
            raise ValueError(f"unrecognized word token: {token!r}")
    return reduce(letters, oracle)


def sort_key(w: Word, oracle) -> str:
    """A deterministic ordering key for serialization."""
    return format_word(w, oracle)
