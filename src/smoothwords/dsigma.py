"""The stored middle-word tables Dσ, one per alphabet class.

For smooth uxv with x drawn from the table, the derivative splits as
D(uxv) = D(u) w D(v) with the middle word w again in the table.  This module
only holds the tables and renders them; :mod:`smoothwords.concat` certifies
the splitting against them and rebuilds them from scratch, and
:func:`smoothwords.powers.power_decomposition` checks the middles of powers
against them.  It loads nothing but ``core``, so ``dsigma`` reads its table
without compiling a certifier.
"""

from __future__ import annotations

from .core import Alphabet, Word, _FrozenRecord, mirror, word_to_text

__all__ = ["DsigmaTable", "dsigma_table"]

_D12 = ("", "1", "2", "12", "21", "11", "22", "112", "211", "121", "122",
        "221", "212", "1121", "1211", "1212", "2121", "2112", "1221", "1122",
        "2211", "11211")
_D13 = ("", "1", "3", "13", "31", "11", "33", "113", "311", "131", "313",
        "111", "3111", "1113", "1311", "1131")
_D14 = ("", "1", "4", "14", "41", "11", "44", "111", "411", "114", "141",
        "414", "1111", "4111", "1114")


def _shortlex(t):
    return (len(t), tuple(t))


class DsigmaTable(_FrozenRecord):
    """The finite set of possible middle words for one alphabet."""

    __slots__ = ("alphabet", "words")

    def __init__(self, alphabet: Alphabet, words: frozenset[Word]):
        if Word() not in words:
            raise ValueError("middle-word table must contain the empty word")
        for w in words:
            if mirror(w) not in words:
                raise ValueError(f"middle-word table is not mirror-closed at {w}")
        self._init(alphabet, words)

    @property
    def sorted_words(self) -> tuple[Word, ...]:
        return tuple(sorted(self.words, key=_shortlex))

    def __contains__(self, w) -> bool:
        return Word(w) in self.words

    def to_json(self) -> dict:
        return {
            "alphabet": [self.alphabet.a, self.alphabet.b],
            "words": [word_to_text(w) for w in self.sorted_words],
        }

    def text_lines(self):
        """The text report: one word per line, in shortlex order (the empty
        word is the empty line)."""
        for w in self.sorted_words:
            yield word_to_text(w) + "\n"


def dsigma_table(ab: Alphabet) -> DsigmaTable:
    """The middle-word table for the alphabet, selected by alphabet class.

    Six classes: {1,2}; {1,3}; {1,4}; {1,b} with b >= 5; {2,b}; {a,b} with
    a >= 3.  Parametric entries are instantiated with the concrete letters.

    The stored {1,3} table (``_D13``) is incomplete: the smooth product
    13·1113·33 forces the middle 133, and its mirror 331, and neither is in
    it.  Exhaustive certification over {1,3} reports those violations
    (acceptance check C07, which fails on purpose), and the middle-word
    fixpoint closes at the stored table plus 133 and 331.
    """
    a, b = ab.a, ab.b
    if (a, b) == (1, 2):
        words = [Word(t) for t in _D12]
    elif (a, b) == (1, 3):
        words = [Word(t) for t in _D13]
    elif (a, b) == (1, 4):
        words = [Word(t) for t in _D14]
    elif a == 1:  # b >= 5
        words = [Word(t) for t in
                 [(), (1,), (b,), (1, b), (b, 1), (1, 1), (b, b),
                  (1, 1, b), (b, 1, 1), (1, 1, 1), (1, 1, 1, 1)]]
    elif a == 2:
        words = [Word(t) for t in
                 [(), (2,), (b,), (2, b), (b, 2), (2, 2), (b, b), (2, 2, 2)]]
    else:  # a >= 3
        words = [Word(t) for t in
                 [(), (a,), (b,), (a, a), (b, b), (a, b), (b, a)]]
    return DsigmaTable(alphabet=ab, words=frozenset(words))
