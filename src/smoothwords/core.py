"""Two-letter integer alphabets, words, runs, and the run-length operators.

A word is a finite sequence of positive integer letters.  A run is a maximal
block of equal adjacent letters.  ``delta`` maps a word to the sequence of its
run lengths; ``delta_inv`` rebuilds a word from prescribed run lengths with
letters alternating over the alphabet.  ``closure`` pads a boundary run whose
length exceeds ``a`` up to length ``b`` with its own letter, which is the
normal form the derivative calculus in :mod:`smoothwords.calculus` works on.

All values are immutable and all operations are pure, so everything here is
safe to share between threads or processes.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator, NamedTuple

from .errors import NotClosableError, WordParseError

__all__ = [
    "Alphabet", "Word", "EPSILON", "Run", "RunDecomposition",
    "runs", "delta", "delta_inv", "mirror", "complement", "closure",
    "word_to_text", "word_from_text",
]


class _FrozenRecord:
    """Base of the records that validate or iterate, which ``NamedTuple``
    cannot express: the fields are the ``__slots__``, set once in
    ``__init__``; equality, hash, repr and pickling go by the field values,
    and assignment raises ``AttributeError``."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Alphabet(_FrozenRecord):
    """Ordered two-letter alphabet {a, b} of positive integers with a < b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if (not isinstance(a, int) or not isinstance(b, int)
                or isinstance(a, bool) or isinstance(b, bool)):
            raise ValueError(f"alphabet letters must be integers, got {a!r}, {b!r}")
        if not 1 <= a < b:
            raise ValueError(f"alphabet requires 1 <= a < b, got a={a}, b={b}")
        self._init(a, b)

    @classmethod
    def parse(cls, text: str) -> "Alphabet":
        """Parse ``"a,b"`` (e.g. ``"1,2"``) into an Alphabet."""
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"alphabet must be two comma-separated integers, got {text!r}")
        try:
            a, b = (int(p.strip()) for p in parts)
        except ValueError:
            raise ValueError(f"alphabet must be two comma-separated integers, got {text!r}") from None
        return cls(a, b)

    @property
    def letters(self) -> tuple[int, int]:
        return (self.a, self.b)

    def complement_of(self, letter: int) -> int:
        """The involution a <-> b."""
        if letter == self.a:
            return self.b
        if letter == self.b:
            return self.a
        raise ValueError(f"letter {letter} is not in alphabet {self}")

    def __contains__(self, letter: object) -> bool:
        return letter == self.a or letter == self.b

    def __str__(self) -> str:
        return f"{self.a},{self.b}"


class Word(tuple):
    """An immutable word of positive integer letters.

    Accepts an iterable of ints, or a text form: compact digits ("31113")
    or comma-separated letters ("12,1,12").  Concatenation is ``+`` and
    repetition is ``*`` (``u * 3`` is the cube of ``u``).
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] | str = ()):
        if isinstance(letters, str):
            return word_from_text(letters)
        w = super().__new__(cls, letters)
        for i, x in enumerate(w):
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise ValueError(f"letter at position {i} must be a positive integer, got {x!r}")
        return w

    @classmethod
    def _wrap(cls, letters: tuple) -> "Word":
        # Private constructor skipping validation; use only on known-good tuples.
        return tuple.__new__(cls, letters)

    def __add__(self, other) -> "Word":
        return Word._wrap(tuple.__add__(self, tuple(other)))

    def __radd__(self, other) -> "Word":
        return Word._wrap(tuple(other) + tuple(self))

    def __mul__(self, n: int) -> "Word":
        return Word._wrap(tuple.__mul__(self, n))

    __rmul__ = __mul__

    def __getitem__(self, index):
        item = tuple.__getitem__(self, index)
        if isinstance(index, slice):
            return Word._wrap(item)
        return item

    def __repr__(self) -> str:
        return f"Word({word_to_text(self)!r})"

    def __str__(self) -> str:
        return word_to_text(self)

    @property
    def text(self) -> str:
        return word_to_text(self)


EPSILON = Word()


def word_to_text(w: Iterable[int]) -> str:
    """Render a word: compact digit string when every letter <= 9, else comma form.

    The empty word renders as the empty string.  A one-letter word with a
    letter above 9 gets a trailing comma ("25,"), since the bare decimal
    would read back as a digit string.
    """
    letters = tuple(w)
    if not letters:
        return ""
    if max(letters) <= 9:
        return "".join(map(str, letters))
    if len(letters) == 1:
        return f"{letters[0]},"
    return ",".join(map(str, letters))


def word_from_text(text: str) -> Word:
    """Parse word text: comma-separated decimals, or a digit string of nonzero digits."""
    s = text.strip()
    if not s:
        return EPSILON
    if "," in s:
        parts = s.split(",")
        if len(parts) > 1 and parts[-1] == "":  # trailing comma of a singleton
            parts = parts[:-1]
        letters = []
        offset = 0
        for part in parts:
            token = part.strip()
            if not token or not token.isdigit():
                raise WordParseError(f"malformed letter {part!r} in {text!r}", position=offset)
            value = int(token)
            if value == 0:
                raise WordParseError(f"zero letter in {text!r}", position=offset)
            letters.append(value)
            offset += len(part) + 1
        return Word._wrap(tuple(letters))
    for i, ch in enumerate(s):
        if ch == "0":
            raise WordParseError(f"zero digit in {text!r}", position=i)
        if not ch.isdigit():
            raise WordParseError(f"non-digit {ch!r} in {text!r}", position=i)
    return Word._wrap(tuple(int(ch) for ch in s))


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
    return RunDecomposition(tuple(
        Run(letter, sum(1 for _ in group)) for letter, group in groupby(w)
    ))


def run_lengths(w: Iterable[int]) -> list[int]:
    """The run lengths of ``w`` as a plain list (cheap form of ``delta``)."""
    return [sum(1 for _ in group) for _, group in groupby(w)]


def delta(w: Iterable[int]) -> Word:
    """The run-length word of ``w``: j-th letter = length of the j-th run."""
    return Word._wrap(tuple(run_lengths(w)))


def delta_inv(u: Iterable[int], alpha: int, ab: Alphabet) -> Word:
    """Rebuild a word with run lengths ``u`` and letters alternating from ``alpha``.

    Inverse of ``delta`` on its image: ``delta(delta_inv(u, alpha, ab)) == u``.
    """
    if alpha not in ab:
        raise ValueError(f"starting letter {alpha} is not in alphabet {ab}")
    u = u if isinstance(u, Word) else Word(u)
    out = []
    cur = alpha
    for length in u:
        out.extend([cur] * length)
        cur = ab.complement_of(cur)
    return Word._wrap(tuple(out))


def mirror(w: Iterable[int]) -> Word:
    """Reversal; an involution."""
    return Word._wrap(tuple(w)[::-1])


def complement(w: Iterable[int], ab: Alphabet) -> Word:
    """Swap a <-> b in every position; an involution commuting with mirror."""
    a, b = ab.a, ab.b
    out = []
    for i, c in enumerate(w):
        if c == a:
            out.append(b)
        elif c == b:
            out.append(a)
        else:
            raise ValueError(f"letter {c} at position {i} is not in alphabet {ab}")
    return Word._wrap(tuple(out))


def closure(w: Iterable[int], ab: Alphabet) -> Word:
    """Pad boundary runs longer than ``a`` up to length ``b`` with their own letter.

    A single-run word is padded once (never on both sides), so the closure of
    alpha^i with a < i <= b is alpha^b.  Any run longer than ``b`` makes the
    word non-closable, hence not smooth.  Only run lengths matter here; the
    letters themselves are not restricted to the alphabet.
    """
    w = w if isinstance(w, Word) else Word(w)
    a, b = ab.a, ab.b
    rd = runs(w)
    if rd.r == 0:
        return EPSILON
    for i, run in enumerate(rd.runs):
        if run.length > b:
            raise NotClosableError(
                f"run {i} of {word_to_text(w)!r} has length {run.length} > b={b}",
                run_index=i)
    first = rd.fr
    if rd.r == 1:
        if first.length > a:
            return Word._wrap((first.letter,) * b)
        return w
    last = rd.lr
    prefix = (first.letter,) * (b - first.length) if first.length > a else ()
    suffix = (last.letter,) * (b - last.length) if last.length > a else ()
    if not prefix and not suffix:
        return w
    return Word._wrap(prefix + tuple(w) + suffix)
