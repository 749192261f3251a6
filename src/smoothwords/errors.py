"""Exception types shared across the package.

Each carries a plain message string, and pickles the default way.
"""

from __future__ import annotations


class WordParseError(ValueError):
    """Word text could not be parsed; ``position`` is the offending character offset."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class _RunLengthError(ValueError):
    """A word's run lengths break a rule of the calculus; ``run_index`` names
    the run.

    The message renders the whole word.  Default exception pickling keeps
    the text and ``run_index``.
    """

    def __init__(self, message: str, run_index: int | None = None):
        super().__init__(message)
        self.run_index = run_index


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
