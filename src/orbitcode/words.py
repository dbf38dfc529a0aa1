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
from typing import Iterable, Iterator

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
    """A reduced word. Construct through `reduce`, not directly.

    Equal exactly when the letters are; the hash of the letters is taken
    once, at construction, since words key sets and memos.
    """

    letters: tuple[Letter, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.letters))

    def __hash__(self) -> int:
        return self._hash

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
    # the inverse of a reduced word is reduced
    return Word(tuple(inverted))


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
    if len(runs) == 1 and runs[0][0] == "x":
        return ((None, runs[0][2]),) if runs[0][2] > 0 else None
    # an alternation read right to left: a positive x-run, then a group letter, ...
    items = runs[::-1]
    if not items or len(items) % 2 or items[0][2] <= 0:
        return None
    blocks: list[tuple[object, int]] = []
    for (xkind, _, exp), (gkind, handle, _) in zip(items[::2], items[1::2]):
        if xkind != "x" or gkind != "g":
            return None
        blocks.append((handle, exp))
    return tuple(blocks)


def is_nice(w: Word) -> bool:
    return nice_blocks(w) is not None


def is_admissible(w: Word, oracle) -> bool:
    """Nice with no identity group letter, as the module docstring defines: reduced, ends in x."""
    blocks = nice_blocks(w)
    return blocks is not None and not any(oracle.is_identity(h) for h, _ in blocks if h is not None)


def closure(v: Word, k: int, oracle) -> Iterator[Word]:
    """What a dagger E holding v^k must hold: v^p's admissible rotations and inverses, p ≤ k.

    v is an indecomposable root, so these are the p-th powers of v's own.
    v starts with a group letter and ends in x (or is x), so its rotations
    are reduced: the one at a group letter is admissible when an x precedes
    it, the inverse of the one just after it when an x^-1 follows.  Each
    such u starts with a group letter, so u^p is u's letters repeated.
    Yields v first, then v's other members, then their powers by p: work is
    linear in the letters yielded, and a caller may stop at any member.
    """
    letters, size = v.letters, len(v.letters)
    rotations = [] if letters[0].kind is LetterKind.GROUP else [v]
    yield from rotations
    for i, letter in enumerate(letters):
        if letter.kind is not LetterKind.GROUP:
            continue
        if letters[i - 1].kind is LetterKind.X:
            rotations.append(Word(letters[i:] + letters[:i]))
            yield rotations[-1]
        if letters[(i + 1) % size].kind is LetterKind.X_INV:
            rotations.append(inverse_word(Word(letters[i + 1 :] + letters[: i + 1]), oracle))
            yield rotations[-1]
    for p in range(2, k + 1):
        for u in rotations:
            yield Word(u.letters * p)


def indecomposable_root(w: Word, oracle) -> tuple[Word, int]:
    """The unique admissible v and maximal k >= 1 with v^k equal to w.

    Powers of an admissible word concatenate its letters without reduction,
    so v is w's shortest letter period.
    """
    if not is_nice(w):
        raise NotNiceWord(f"not an admissible word: {format_word(w, oracle)!r}")
    letters, size = w.letters, len(w.letters)
    for period in range(1, size + 1):
        if size % period == 0 and letters[:period] * (size // period) == letters:
            return Word(letters[:period]), size // period
    raise AssertionError("period 'size' always matches")


def evaluate(w: Word, s, oracle, n: int, stuck: dict | None = None) -> int | None:
    """Apply the word to n, rightmost letter first. None once any step is.

    `s` answers .apply(k) and .apply_inverse(k) with an int or None.  Given
    a `stuck` index, an evaluation that stops files n there under the text
    of the x or x^-1 letter it stopped at and the value it met: under
    ("x", a) it waits for a pair (a, ·), under ("x^-1", b) for a pair (·, b).
    """
    value = n
    for letter in reversed(w.letters):
        if letter.kind is LetterKind.X:
            image = s.apply(value)
        elif letter.kind is LetterKind.X_INV:
            image = s.apply_inverse(value)
        else:
            image = oracle.eval(letter.handle, value)
        if image is None:
            if stuck is not None:
                stuck.setdefault((letter.kind.value, value), []).append(n)
            return None
        value = image
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
    if not isinstance(text, str):
        raise TypeError(f"a word is text, not {text!r}")
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
