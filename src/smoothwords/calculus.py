"""Differentiability, the derivative, and smoothness testing by derivative chains.

A word over {a, b} is differentiable when every run is at most ``b`` long and
every interior run length is exactly ``a`` or ``b`` (boundary runs may have
any length 1..b).  Its derivative is the run-length word with a boundary run
dropped when shorter than ``b``.  ``rho`` composes closure and derivative;
a word is smooth when iterating ``rho`` reaches the empty word.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Alphabet, EPSILON, Word, closure, run_lengths, word_to_text
from .errors import NotDifferentiableError

__all__ = [
    "REASON_RUN_TOO_LONG", "REASON_INTERIOR_RUN", "REASON_BAD_LETTER",
    "ChainFailure", "DerivativeChain",
    "is_differentiable", "derivative", "rho", "rho_by_formula",
    "smooth_chain", "is_smooth",
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


def _check_lengths(lengths: list[int], ab: Alphabet) -> str | None:
    """Reason the run-length list violates the differentiable form, or None.

    A run longer than b is reported as run-too-long even when it is also an
    interior run: it is the stronger failure (the word has no closure at all).
    """
    a, b = ab.a, ab.b
    for length in lengths:
        if length > b:
            return REASON_RUN_TOO_LONG
    for length in lengths[1:-1]:
        if length != a and length != b:
            return REASON_INTERIOR_RUN
    return None


def is_differentiable(w: Word, ab: Alphabet) -> bool:
    """True iff every run is <= b and every interior run length is a or b."""
    w = w if isinstance(w, Word) else Word(w)
    for i, c in enumerate(w):
        if c not in ab:
            raise ValueError(f"letter {c} at position {i} is not in alphabet {ab}")
    return _check_lengths(run_lengths(w), ab) is None


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
                f"{word_to_text(w)!r} is not differentiable over {ab}: run {i} has length {length}",
                run_index=i)
    if not lengths:
        return EPSILON
    if len(lengths) == 1:
        return Word._wrap((b,)) if lengths[0] == b else EPSILON
    out = lengths if lengths[0] == b else lengths[1:]
    if lengths[-1] != b:
        out = out[:-1]
    return Word._wrap(tuple(out))


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


def smooth_chain(w: Word, ab: Alphabet) -> DerivativeChain:
    """Iterate rho until the empty word or a failure; never raises.

    Words with letters outside the alphabet get verdict not-smooth with
    reason ``letter-not-in-alphabet`` at level 0.
    """
    w = w if isinstance(w, Word) else Word(w)
    a, b = ab.a, ab.b
    for c in w:
        if c != a and c != b:
            return DerivativeChain(
                levels=(w,), verdict="not-smooth",
                failure=ChainFailure(level=0, reason=REASON_BAD_LETTER))
    levels = [w]
    for _ in range(len(w) + 1):
        cur = levels[-1]
        if not cur:
            return DerivativeChain(levels=tuple(levels), verdict="smooth")
        reason = _check_lengths(run_lengths(cur), ab)
        if reason is not None:
            return DerivativeChain(
                levels=tuple(levels), verdict="not-smooth",
                failure=ChainFailure(level=len(levels) - 1, reason=reason))
        levels.append(rho(cur, ab))
    # |rho(w)| < |w| guarantees termination within |w| steps.
    raise RuntimeError("derivative chain failed to shrink; closure rule is broken")


def is_smooth(w: Word, ab: Alphabet) -> bool:
    """Convenience wrapper: the verdict of :func:`smooth_chain`."""
    return smooth_chain(w, ab).is_smooth
