"""Exception types shared across the package."""

from collections.abc import Callable


class OrbitCodeError(Exception):
    """Base class for package errors."""


class Refused(OrbitCodeError):
    """A check (validate, leq, a verifier) said no; the message names the clause.

    Most clauses give their message as `clause`.  A clause whose message
    costs work to write, as leq's gain clause formats the words that gain,
    gives instead the key of the clause as `clause`, a `render` function and
    the `fields` it reads: the message is render(**fields), written the
    first time it is read, so a caller that catches the refusal and moves on,
    as a least-value scan does with each candidate it refuses, never pays
    for it.  `fields` hold what the check found and stay on the refusal.
    """

    def __init__(self, clause: str, render: Callable[..., str] | None = None, **fields):
        super().__init__(clause)
        self.clause = clause
        self.fields = fields
        self._render = render

    def __str__(self) -> str:
        if self._render is not None:
            self.args = (self._render(**self.fields),)
            self._render = None
        return super().__str__()


class UnknownGroupElement(OrbitCodeError):
    """A handle was passed to an oracle that does not recognize it."""


class NotNiceWord(OrbitCodeError):
    """The word is outside the admissible shape (see words.nice_blocks)."""


class NotNiceInjection(OrbitCodeError):
    """Closed orbits are not enumerated by an initial segment of minima."""


class PrefixTooShort(OrbitCodeError):
    """The target bit string has no bit at a required index."""


class WindowTooSmall(OrbitCodeError):
    """An oracle query fell outside the certified window.

    `required` is the least window size that would have answered the query.
    """

    def __init__(self, required: int, message: str | None = None):
        self.required = required
        super().__init__(message or f"oracle window too small, need at least {required}")


class StageExtensionFailed(OrbitCodeError):
    """Growing a staged oracle could not re-extend a stage. Signals a bug."""


class TreeRefusedExtension(OrbitCodeError):
    """A generated tree's extension oracle refused to produce a longer node."""


class KTooSmall(OrbitCodeError):
    """The requested orbit size is at or below the closing threshold."""


class PreconditionViolated(OrbitCodeError):
    """An operation was called outside its stated preconditions."""


class InternalCheckFailed(OrbitCodeError):
    """A per-call postcondition verification failed. Signals a bug."""


class EngineError(OrbitCodeError):
    """A run aborted; `step` is the index of the failing schedule entry."""

    def __init__(self, step: int, message: str):
        self.step = step
        super().__init__(f"step {step}: {message}")
