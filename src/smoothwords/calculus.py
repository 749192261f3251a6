"""Differentiability, the derivative, and smoothness testing by derivative chains.

A word over {a, b} is differentiable when every run is at most ``b`` long and
every interior run length is exactly ``a`` or ``b`` (boundary runs may have
any length 1..b).  Its derivative is the run-length word with a boundary run
dropped when shorter than ``b``.  ``rho`` composes closure and derivative;
a word is smooth when iterating ``rho`` reaches the empty word.
``chain_levels`` yields that chain level by level, and ``chain_text``
renders it as it comes: that is the text of the ``chain`` command.  ``runs``
decomposes a word into :class:`Run` records.  No command calls it, so it
lives here rather than in ``core``, which every command compiles.
"""

from __future__ import annotations

from typing import Generator, Iterable, Iterator, NamedTuple

from .core import Alphabet, EPSILON, Word, _FrozenRecord, closure, run_lengths, word_to_text
from .errors import NotClosableError, NotDifferentiableError

__all__ = [
    "REASON_RUN_TOO_LONG", "REASON_INTERIOR_RUN", "REASON_BAD_LETTER",
    "ChainFailure", "DerivativeChain", "Run", "RunDecomposition",
    "runs", "is_differentiable", "derivative", "rho", "rho_by_formula",
    "chain_levels", "chain_text", "smooth_chain", "is_smooth",
]

REASON_RUN_TOO_LONG = "run-too-long"
REASON_INTERIOR_RUN = "interior-run-not-in-alphabet"
REASON_BAD_LETTER = "letter-not-in-alphabet"


class ChainFailure(NamedTuple):
    level: int
    reason: str


class DerivativeChain(NamedTuple):
    """The words w, rho(w), rho^2(w), ... with a smoothness verdict.

    For a smooth word the last level is the empty word.  For a non-smooth
    word the levels end at the first one that cannot be differentiated, and
    ``failure`` names it and the reason.
    """

    levels: tuple[Word, ...]
    verdict: str  # "smooth" | "not-smooth"
    failure: ChainFailure | None = None

    @property
    def is_smooth(self) -> bool:
        return self.verdict == "smooth"

    def to_json(self) -> dict:
        doc: dict = {
            "levels": [word_to_text(level) for level in self.levels],
            "verdict": self.verdict,
        }
        if self.failure is not None:
            doc["failure"] = {"level": self.failure.level, "reason": self.failure.reason}
        return doc


def is_differentiable(w: Word, ab: Alphabet) -> bool:
    """True iff every run is <= b and every interior run length is a or b."""
    w = w if isinstance(w, Word) else Word(w)
    ab.require_word(w)
    try:
        derivative(w, ab)
    except NotDifferentiableError:
        return False
    return True


def derivative(w: Word, ab: Alphabet) -> Word:
    """Run lengths of ``w`` with a boundary run dropped when shorter than b.

    Like :func:`smoothwords.core.closure` this is driven by run lengths only,
    so letters are not restricted to the alphabet.
    """
    w = w if isinstance(w, Word) else Word(w)
    a, b = ab.a, ab.b
    lengths = run_lengths(w)
    for i, length in enumerate(lengths):
        if length > b or (0 < i < len(lengths) - 1 and length != a and length != b):
            raise NotDifferentiableError(
                f"{word_to_text(w)!r} is not differentiable over {ab}: "
                f"run {i} has length {length}",
                run_index=i)
    if not lengths:
        return EPSILON
    if len(lengths) == 1:
        return Word._wrap((b,)) if lengths[0] == b else EPSILON
    # Trim in place, so the list is copied once, into the tuple.
    if lengths[-1] != b:
        lengths.pop()
    if lengths[0] != b:
        del lengths[0]
    return Word._wrap(tuple(lengths))


def rho(w: Word, ab: Alphabet) -> Word:
    """The derivative of the closure: rho(w) = D(closure(w)).

    This literal composition is the source of truth that the shortcut
    :func:`rho_by_formula` and the bulk search engine are checked against.
    """
    return derivative(closure(w, ab), ab)


def rho_by_formula(w: Word, ab: Alphabet) -> Word:
    """Compute rho by the boundary-case shortcut instead of building the closure.

    Prepend b when b > lfr(w) > a, append b when b > llr(w) > a (a single-run
    word gets the one-sided pad only).  Must agree with :func:`rho` everywhere.
    """
    w = w if isinstance(w, Word) else Word(w)
    d = derivative(w, ab)
    a, b = ab.a, ab.b
    lengths = run_lengths(w)
    if not lengths:
        return d
    if len(lengths) == 1:
        return Word._wrap((b,)) + d if a < lengths[0] < b else d
    out = d
    if a < lengths[0] < b:
        out = Word._wrap((b,)) + out
    if a < lengths[-1] < b:
        out = out + Word._wrap((b,))
    return out


def chain_levels(w: Word, ab: Alphabet) -> Generator[Word, None, tuple[str, ChainFailure | None]]:
    """Yield w, rho(w), rho^2(w), ... and return ``(verdict, failure)``; never raises.

    The last level yielded is the empty word for a smooth word, else the
    first level that cannot be differentiated, which ``failure`` names.
    Words with letters outside the alphabet stop at level 0 with reason
    ``letter-not-in-alphabet``.  Only the current level (and, while ``rho``
    runs, the next) is alive, so a caller that prints each level as it
    comes holds one word instead of the whole chain.
    """
    w = w if isinstance(w, Word) else Word(w)
    yield w
    if ab.first_foreign(w) is not None:
        return "not-smooth", ChainFailure(level=0, reason=REASON_BAD_LETTER)
    # |rho(w)| < |w| guarantees termination within |w| steps.
    for level in range(len(w) + 1):
        if not w:
            return "smooth", None
        # closure runs first, so a run longer than b is reported as
        # run-too-long even when it is also an interior run: it is the
        # stronger failure (the word has no closure at all).
        try:
            w = rho(w, ab)
        except NotClosableError:
            return "not-smooth", ChainFailure(level=level, reason=REASON_RUN_TOO_LONG)
        except NotDifferentiableError:
            return "not-smooth", ChainFailure(level=level, reason=REASON_INTERIOR_RUN)
        yield w
    raise RuntimeError("derivative chain failed to shrink; closure rule is broken")


def chain_text(w: Word, ab: Alphabet) -> Iterator[str]:
    """The lines of the ``chain`` text report: ``level i: <word>`` for each
    level of :func:`chain_levels`, then the verdict and, for a word that is
    not smooth, the failing level and its reason.

    Each level is rendered as it comes and not kept, so a caller that writes
    each line before asking for the next holds one level at a time.
    """
    levels = chain_levels(w, ab)
    del w  # chain_levels drops each level for the next; this frame must not keep level 0
    i = 0
    while True:
        try:
            yield f"level {i}: {word_to_text(next(levels))}\n"
        except StopIteration as stop:
            verdict, failure = stop.value
            break
        i += 1
    yield f"verdict: {verdict}\n"
    if failure is not None:
        yield f"failure: level {failure.level} ({failure.reason})\n"


def smooth_chain(w: Word, ab: Alphabet) -> DerivativeChain:
    """Collect every level of :func:`chain_levels` with its verdict; never raises."""
    levels = []
    chain = chain_levels(w, ab)
    while True:
        try:
            levels.append(next(chain))
        except StopIteration as stop:
            verdict, failure = stop.value
            return DerivativeChain(tuple(levels), verdict, failure)


def is_smooth(w: Word, ab: Alphabet) -> bool:
    """Convenience wrapper: the verdict of :func:`smooth_chain`."""
    return smooth_chain(w, ab).is_smooth


class Run(NamedTuple):
    letter: int
    length: int


class RunDecomposition(_FrozenRecord):
    """The runs of a word, in order; adjacent runs always differ in letter."""

    __slots__ = ("runs",)

    def __init__(self, runs: tuple[Run, ...]):
        self._init(runs)

    @property
    def r(self) -> int:
        """Number of runs."""
        return len(self.runs)

    @property
    def fr(self) -> Run:
        """First run."""
        if not self.runs:
            raise ValueError("empty word has no runs")
        return self.runs[0]

    @property
    def lr(self) -> Run:
        """Last run."""
        if not self.runs:
            raise ValueError("empty word has no runs")
        return self.runs[-1]

    @property
    def lfr(self) -> int:
        """Length of the first run."""
        return self.fr.length

    @property
    def llr(self) -> int:
        """Length of the last run."""
        return self.lr.length

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(run.length for run in self.runs)

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(run.letter for run in self.runs)

    def to_word(self) -> Word:
        """Re-expand the runs; inverse of :func:`runs`."""
        out = []
        for letter, length in self.runs:
            out.extend([letter] * length)
        return Word._wrap(tuple(out))

    def __iter__(self) -> Iterator[Run]:
        return iter(self.runs)


def runs(w: Iterable[int]) -> RunDecomposition:
    """Decompose a word into its maximal runs."""
    w = tuple(w)
    out, start = [], 0
    for length in run_lengths(w):
        out.append(Run(w[start], length))
        start += length
    return RunDecomposition(tuple(out))
