"""Exception types shared across the package."""

from __future__ import annotations

from typing import Callable


class WordParseError(ValueError):
    """Word text could not be parsed; ``position`` is the offending character offset."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class _RunLengthError(ValueError):
    """A word's run lengths break a rule of the calculus; ``run_index`` names
    the run.

    ``message`` may be a function of no arguments that returns the text: it
    is called when the message is first read (``str``, ``repr`` or pickling)
    and the text then replaces it in ``args``.  The raisers render the whole
    word into the message, so a caller that only catches the error, as
    :func:`smoothwords.calculus.chain_levels` does, never renders it.
    """

    def __init__(self, message: str | Callable[[], str], run_index: int | None = None):
        super().__init__(message)
        self.run_index = run_index

    def __str__(self) -> str:
        if callable(self.args[0]):
            self.args = (self.args[0](),)
        return super().__str__()

    def __repr__(self) -> str:
        str(self)
        return super().__repr__()

    def __reduce__(self):
        return type(self), (str(self), self.run_index)


class NotClosableError(_RunLengthError):
    """A run is longer than b, so the word has no closure (and cannot be smooth)."""


class NotDifferentiableError(_RunLengthError):
    """An interior run length is outside {a, b} or a run exceeds b."""


class CertificationError(RuntimeError):
    """An exhaustively checked identity failed; carries the level and both sides.

    Raising this means the implementation found a counterexample to a property
    the library certifies, which should never happen on valid inputs.
    """

    def __init__(self, message: str, level: int | None = None,
                 expected: object = None, actual: object = None):
        super().__init__(message)
        self.level = level
        self.expected = expected
        self.actual = actual
