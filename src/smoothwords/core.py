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

from typing import Iterable, Sequence

from .errors import NotClosableError, WordParseError

__all__ = [
    "Alphabet", "Word", "EPSILON", "delta", "delta_inv", "mirror", "complement", "closure",
    "word_to_text", "word_to_csv", "word_from_text",
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
    """Ordered two-letter alphabet {a, b} of positive integers with a < b;
    the one owner of letter membership (:meth:`first_foreign`)."""

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
        self.require_letter(letter, "letter")
        return self.a + self.b - letter

    def __contains__(self, letter: object) -> bool:
        return letter == self.a or letter == self.b

    def first_foreign(self, letters: Sequence[int]) -> int | None:
        """The position of the first letter outside {a, b}, or None."""
        a = self.a
        b = self.b
        for c in letters:
            if c != a and c != b:
                # No earlier letter equals c: it would be outside {a, b} too.
                return letters.index(c)
        return None

    def require_letter(self, letter: int, role: str = "starting letter") -> None:
        """Raise ``ValueError`` when ``letter`` (named by ``role``) is not a or b."""
        if letter not in self:
            raise ValueError(f"{role} {letter} is not in alphabet {self}")

    def require_word(self, letters: Sequence[int]) -> None:
        """Raise ``ValueError`` naming the first letter outside {a, b}."""
        i = self.first_foreign(letters)
        if i is not None:
            raise ValueError(f"letter {letters[i]} at position {i} is not in alphabet {self}")

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

    def __reduce__(self):
        # Unpickled as _wrap builds it: its letters were checked when it was made.
        return tuple.__new__, (Word, tuple(self))

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


# Letter values 0..9 to the ASCII digits, for the compact form.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
# The ASCII digits to the letter values 0..9, inverse of _DIGITS.
_LETTERS = bytes.maketrans(b"0123456789", bytes(range(10)))


def word_to_text(w: Sequence[int]) -> str:
    """Render a word: compact digit string when every letter <= 9, else comma form.

    The empty word renders as the empty string.  A one-letter word with a
    letter above 9 gets a trailing comma ("25,"), since the bare decimal
    would read back as a digit string.  ``w`` is read in place, not copied.
    """
    if not w:
        return ""
    if max(w) <= 9:
        return bytes(w).translate(_DIGITS).decode()
    if len(w) == 1:
        return f"{w[0]},"
    return ",".join(map(str, w))


def word_to_csv(w: Sequence[int]) -> str:
    """:func:`word_to_text` as one CSV field: quoted when it is empty (an
    empty line would read as a row of no fields) or when the comma form makes
    it hold a comma (the text never holds a quote)."""
    text = word_to_text(w)
    return f'"{text}"' if not text or "," in text else text


def word_from_text(text: str) -> Word:
    """Parse word text: comma-separated decimals, or a digit string of nonzero digits.

    Only the ASCII digits 0-9 count as digits; any other character (a
    superscript or an Arabic-Indic digit included) raises
    :class:`WordParseError` with its position in the stripped text.
    """
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
            if not token:
                raise WordParseError(f"malformed letter {part!r} in {text!r}", position=offset)
            lead = len(part) - len(part.lstrip())
            bad = _first_non_digit(token)
            if bad is not None:
                raise WordParseError(f"malformed letter {part!r} in {text!r}",
                                     position=offset + lead + bad)
            value = int(token)
            if value == 0:
                raise WordParseError(f"zero letter in {text!r}", position=offset + lead)
            letters.append(value)
            offset += len(part) + 1
        return Word._wrap(tuple(letters))
    bad = _first_non_digit(s)
    zero = s.find("0", 0, len(s) if bad is None else bad)
    if zero >= 0:
        raise WordParseError(f"zero digit in {text!r}", position=zero)
    if bad is not None:
        raise WordParseError(f"non-digit {s[bad]!r} in {text!r}", position=bad)
    return Word._wrap(tuple(s.encode().translate(_LETTERS)))


def _first_non_digit(s: str) -> int | None:
    """Index of the first character of ``s`` that is not an ASCII digit, or None."""
    if s.isascii() and s.isdigit():
        return None
    for i, ch in enumerate(s):
        if not "0" <= ch <= "9":
            return i
    return None


def run_lengths(w: Iterable[int]) -> list[int]:
    """The run lengths of ``w`` as a plain list (cheap form of ``delta``)."""
    lens = []
    letters = iter(w)
    # The outer loop takes only the first letter; the inner one the rest.
    for last in letters:
        n = 1
        for c in letters:
            if c == last:
                n += 1
            else:
                lens.append(n)
                last = c
                n = 1
        lens.append(n)
    return lens


def delta(w: Iterable[int]) -> Word:
    """The run-length word of ``w``: j-th letter = length of the j-th run."""
    return Word._wrap(tuple(run_lengths(w)))


def delta_inv(u: Iterable[int], alpha: int, ab: Alphabet) -> Word:
    """Rebuild a word with run lengths ``u`` and letters alternating from ``alpha``.

    Inverse of ``delta`` on its image: ``delta(delta_inv(u, alpha, ab)) == u``.
    """
    ab.require_letter(alpha)
    u = u if isinstance(u, Word) else Word(u)
    out = []
    cur = alpha
    total = ab.a + ab.b
    for length in u:
        out.extend([cur] * length)
        cur = total - cur
    return Word._wrap(tuple(out))


def mirror(w: Iterable[int]) -> Word:
    """Reversal; an involution."""
    return Word._wrap(tuple(w)[::-1])


def complement(w: Iterable[int], ab: Alphabet) -> Word:
    """Swap a <-> b in every position; an involution commuting with mirror."""
    w = tuple(w)
    ab.require_word(w)
    return Word._wrap(tuple(map((ab.a + ab.b).__sub__, w)))


def closure(w: Iterable[int], ab: Alphabet) -> Word:
    """Pad boundary runs longer than ``a`` up to length ``b`` with their own letter.

    A single-run word is padded once (never on both sides), so the closure of
    alpha^i with a < i <= b is alpha^b.  Any run longer than ``b`` makes the
    word non-closable, hence not smooth.  Only run lengths matter here; the
    letters themselves are not restricted to the alphabet.  The word is read
    through :func:`run_lengths` and its two end letters, so no per-run
    objects are built.
    """
    w = w if isinstance(w, Word) else Word(w)
    a, b = ab.a, ab.b
    lengths = run_lengths(w)
    if not lengths:
        return EPSILON
    if max(lengths) > b:
        i = next(i for i, length in enumerate(lengths) if length > b)
        raise NotClosableError(f"run {i} of {word_to_text(w)!r} has length {lengths[i]} > b={b}",
                               run_index=i)
    first, last = lengths[0], lengths[-1]
    if len(lengths) == 1:
        if first > a:
            return Word._wrap((w[0],) * b)
        return w
    prefix = (w[0],) * (b - first) if first > a else ()
    suffix = (w[-1],) * (b - last) if last > a else ()
    if not prefix and not suffix:
        return w
    return Word._wrap(prefix + tuple(w) + suffix)
