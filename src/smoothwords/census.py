"""Power census: exhaustive scans for smooth powers, counts, and witnesses.

``enumerate_smooth`` lists the smooth words of a range of lengths: they are
the power scan's bases for n = 1 (:func:`smoothwords.search.power_hits`),
so it collects them with that walk.  It serves the ``enumerate`` command.
``gamma`` runs the power scan: it walks every smooth base up to a length
bound (bases of smooth powers are necessarily smooth, because factors of
smooth words are smooth) and tests the n-th power inside the walk
(:func:`smoothwords.search.power_hits`).  It walks only the bases that start
with a: the complement of a smooth power is a smooth power, so the bases
starting with b follow from those.  The walk is split into one task per
a-initial smooth prefix of a depth that the alphabet and the bound fix
(``_split``), so every ``jobs`` runs the same task list.  A witness
stores its base, exponent and primitive base, not the power word
(:class:`PowerWitness`).  ``gamma`` counts the distinct power words found
and reports a finite count as stable only when no new power word appeared
in the top quartile of base lengths; with n = 1 the scan keeps every base
and the count is unbounded.  ``scan_powers`` is its report for n >= 2.
A :class:`CensusReport` renders itself as text, JSON or CSV.

The one-word power objects (``h_delta``, ``lift``, ``lift_family``,
``kolakoski_prefix`` and ``power_decomposition``) live in
:mod:`smoothwords.powers`, so ``lift`` and ``kolakoski`` compile neither
this module nor the engine.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .core import Alphabet, Word, _FrozenRecord, word_to_csv, word_to_text
from .search import map_tasks, power_hits

__all__ = ["PowerWitness", "CensusReport", "enumerate_smooth", "scan_powers", "gamma"]

# The scans' least task count (:func:`_split`), enough to balance a few workers.
_SPLIT_PREFIXES = 32


def enumerate_smooth(ab: Alphabet, n: int, min_len: int | None = None) -> list[Word]:
    """The smooth words w over {a, b} with min_len <= |w| <= n, in shortlex
    order; ``min_len`` defaults to n, which gives exactly the length n.

    The words starting with a are the hits of
    :func:`smoothwords.search.power_hits` at exponent 1 below the letter a:
    one walk to depth n keeps the lengths asked for, each in lexicographic
    order, and walks through the shorter words without keeping them.  The
    words starting with b are built from those by the complement (swapping
    a and b), which is exact:

    * the swap keeps every run length, so it keeps the derivative, smoothness
      and smooth powers (w^n is smooth exactly when its complement is);
    * it maps the smooth words that start with a one-to-one onto those that
      start with b;
    * among words of one length it reverses lexicographic order, so the
      reversed complements of a lexicographic a-list are the b-list, in
      order, and every b-word sorts after every a-word.

    So each length's b-half is its a-half's reversed complements.  The power
    scans build their b-half the same way (:func:`_witness_pairs`), and the
    concatenation certifier shares its walks over v between a u·x and its
    complement by the same swap (``smoothwords.concat``).
    """
    if n < 0:
        raise ValueError("length must be >= 0")
    low = n if min_len is None else min_len
    words = [Word()] if low <= 0 else []
    if n:
        wrap = Word._wrap
        swap = (ab.a + ab.b).__sub__
        for level in power_hits(ab, 1, n, (ab.a,), max(low, 1)):
            words += level
            words += [wrap(map(swap, w)) for w in reversed(level)]
    return words


class PowerWitness(_FrozenRecord):
    """A smooth power: the base u, the power u^n and the primitive root of
    both, constructed, iterated, compared, printed and pickled as the record
    ``(base, power, primitive_base)``.

    It stores u, n (``exponent``) and the root, and rebuilds ``power`` when
    it is read; a census's witness of a primitive u holds u as its root, so
    each word is held once.  A ``power`` that is not a power of ``base``, the
    empty power of a non-empty base included, raises ``ValueError``.
    """

    __slots__ = ("base", "exponent", "primitive_base")

    def __init__(self, base: Word, power: Word, primitive_base: Word):
        exponent = len(power) // len(base) if base else 1
        if exponent < 1 or base * exponent != power:
            raise ValueError(f"power {word_to_text(power)!r} is not a power of "
                             f"base {word_to_text(base)!r}")
        self._init(base, exponent, primitive_base)

    @property
    def power(self) -> Word:
        return self.base * self.exponent

    def _values(self) -> tuple:
        # Equality, hash and pickling go by the public fields.
        return self.base, self.power, self.primitive_base

    def __iter__(self):
        return iter(self._values())

    def __repr__(self) -> str:
        return (f"PowerWitness(base={self.base!r}, power={self.power!r}, "
                f"primitive_base={self.primitive_base!r})")

    def texts(self) -> tuple[str, str, str]:
        """The text of the base, the power and the primitive base.

        The base is rendered once: in compact form every letter is one
        digit, so the power is the base's text repeated and the primitive
        base is a prefix of it.  Comma form renders each word on its own
        (the power of ``10,`` is ``10,10``).
        """
        base = word_to_text(self.base)
        if not base or "," in base:
            return base, word_to_text(self.power), word_to_text(self.primitive_base)
        return base, base * self.exponent, base[:len(self.primitive_base)]

    def to_json(self) -> dict:
        base, power, primitive = self.texts()
        return {
            "base": base,
            "base_length": len(self.base),
            "power": power,
            "power_length": len(self.base) * self.exponent,
            "primitive_base": primitive,
        }


_new_witness = object.__new__
_set_base = PowerWitness.base.__set__
_set_exponent = PowerWitness.exponent.__set__
_set_primitive = PowerWitness.primitive_base.__set__


def _witness(base: Word, exponent: int, primitive_base: Word) -> PowerWitness:
    """A :class:`PowerWitness` from its stored fields, unchecked (the census's
    own constructor, like ``Word._wrap``): the slots are set directly."""
    w = _new_witness(PowerWitness)
    _set_base(w, base)
    _set_exponent(w, exponent)
    _set_primitive(w, primitive_base)
    return w


class CensusReport(NamedTuple):
    """Witnesses and counts from one power scan.

    ``gamma`` counts distinct power words (not bases); each witness also
    records the primitive base of its power word.  For one exponent n,
    u^n = v^n forces u = v, so the witnesses' powers are already distinct.
    ``stable`` applies the top-quartile heuristic.
    """

    alphabet: Alphabet
    exponent: int
    bound: int
    witnesses: tuple[PowerWitness, ...]
    gamma: int
    last_new_base_length: int | None
    stable: bool
    note: str

    @property
    def distinct_powers(self) -> tuple[Word, ...]:
        return tuple(w.power for w in self.witnesses)

    def to_json(self) -> dict:
        """The document; its ``witnesses`` are the :class:`PowerWitness`
        records, whose ``to_json()`` the encoder's ``default`` must call."""
        return {
            "alphabet": str(self.alphabet),
            "exponent": self.exponent,
            "bound": self.bound,
            "gamma": self.gamma,
            "stable": self.stable,
            "last_new_base_length": self.last_new_base_length,
            "note": self.note,
            "witnesses": self.witnesses,
        }

    def csv_lines(self):
        """The CSV report: a header line, then one line per witness."""
        yield "base,base_length,power_length\n"
        for w in self.witnesses:
            yield f"{word_to_csv(w.base)},{len(w.base)},{len(w.base) * w.exponent}\n"

    def text_lines(self):
        """The text report: four header lines, then one line per witness."""
        yield f"alphabet {self.alphabet}  exponent {self.exponent}  bound {self.bound}\n"
        yield f"{len(self.witnesses)} witnesses\n"
        yield f"gamma={self.gamma} stable={str(self.stable).lower()}\n"
        yield f"note: {self.note}\n"
        for base, power, primitive in map(PowerWitness.texts, self.witnesses):
            yield f"witness: base={base} power={power} primitive={primitive}\n"


def _root_length(u: tuple) -> int:
    """The length of the shortest r with u = r^k; r is also the primitive
    root of every power of u."""
    n = len(u)
    for d in range(1, n):
        if n % d == 0 and u[:d] * (n // d) == u:
            return d
    return n


def _witness_pairs(level: list[Word], n: int, ab: Alphabet) -> list[PowerWitness]:
    """The witnesses of the bases in ``level`` (a-initial, lexicographic, all
    of one length; each kept as its witness's base), then those of their
    reversed complements.

    The complement of a base has the same run lengths and period, so its
    primitive root is the complement's prefix of the same length: each root
    length is found once per pair, on the complement's plain tuple.
    """
    swap = (ab.a + ab.b).__sub__
    wrap = Word._wrap
    first, second = [], []
    for u in level:
        c = tuple(map(swap, u))
        k = _root_length(c)
        v = wrap(c)
        if k == len(c):  # primitive: the base is its own root, one object
            first.append(_witness(u, n, u))
            second.append(_witness(v, n, v))
        else:
            first.append(_witness(u, n, u[:k]))
            second.append(_witness(v, n, wrap(c[:k])))
    second.reverse()
    return first + second


def _stability(bound: int, last_new: int | None) -> tuple[bool, str]:
    quartile = max(1, -(-bound // 4))  # ceil(bound / 4)
    start = bound - quartile + 1
    if last_new is None:
        return True, f"no smooth power found at any base length <= {bound}"
    if last_new < start:
        return True, (f"stable: last new power word at base length {last_new}, "
                      f"none in top-quartile lengths {start}..{bound}")
    return False, (f"bound too small: a new power word first appeared at base "
                   f"length {last_new}, inside the top quartile {start}..{bound}")


def _split(ab: Alphabet, L: int) -> tuple[int, list[Word]]:
    """The shallowest depth (at most L) with at least ``_SPLIT_PREFIXES``
    smooth prefixes that start with a, and those prefixes in lexicographic
    order: the hits of :func:`smoothwords.search.power_hits` at exponent 1
    below the letter a, that length only."""
    depth, level = 1, [(ab.a,)]
    while depth < L and len(level) < _SPLIT_PREFIXES:
        depth += 1
        level = power_hits(ab, 1, depth, (ab.a,), depth)[depth]
    return depth, level


def scan_powers(ab: Alphabet, n: int, L: int, jobs: int = 1) -> CensusReport:
    """Test u^n for smoothness over every smooth base u with 1 <= |u| <= L:
    the report of :func:`gamma`, for n >= 2."""
    if n < 2:
        raise ValueError("exponent must be >= 2")
    return gamma(ab, n, L, jobs)[1]


def gamma(ab: Alphabet, n: int, L: int, jobs: int = 1) -> tuple[int, CensusReport]:
    """Count distinct smooth power words u^n with |u| <= L: the scan tests
    u^n over every smooth base u with 1 <= |u| <= L.

    Only the bases starting with a are walked; the rest are their reversed
    complements, each witness built with its complement's (the order of
    :func:`enumerate_smooth`).  The shorter bases are tested first, then the
    walk is split below the a-initial smooth prefixes of :func:`_split`'s
    depth, one task each.  ``jobs`` only sets the workers that
    :func:`smoothwords.search.map_tasks` maps that one task list over.  For
    n = 1 every smooth word qualifies, so the count can only grow with L;
    the report says so instead of pretending stability.
    """
    if n < 1:
        raise ValueError("exponent must be >= 1")
    if L < 1:
        raise ValueError("base-length bound must be >= 1")
    depth, prefixes = _split(ab, L)
    hits = power_hits(ab, n, depth - 1, (ab.a,))
    # Prefix order keeps each length's bases lexicographic.
    for part in map_tasks(partial(power_hits, ab, n, L), prefixes, jobs):
        hits.extend([] for _ in range(len(hits), len(part)))
        for level, found in zip(hits[depth:], part[depth:]):
            level.extend(found)

    # For one n, distinct bases have distinct powers (u^n = v^n forces
    # |u| = |v|, so u = v): gamma counts the witnesses, and the last new
    # power word is the last, longest base's.
    witnesses = []
    for level in hits:
        witnesses += _witness_pairs(level, n, ab)
    last_new = len(witnesses[-1].base) if witnesses else None
    if n == 1:
        stable, note = False, "unbounded at this bound"
    else:
        stable, note = _stability(L, last_new)
    return len(witnesses), CensusReport(
        alphabet=ab, exponent=n, bound=L, witnesses=tuple(witnesses),
        gamma=len(witnesses), last_new_base_length=last_new, stable=stable, note=note)
