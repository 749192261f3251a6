"""Power census: exhaustive scans for smooth powers, counts, and witnesses.

``scan_powers`` walks every smooth base up to a length bound (bases of smooth
powers are necessarily smooth, because factors of smooth words are smooth)
and tests the n-th power inside the walk (:func:`smoothwords.search.power_hits`).
It walks only the bases that start with a: the complement of a smooth power
is a smooth power, so the bases starting with b follow from those.
``gamma`` counts the distinct power words found and applies a stabilization
heuristic: a finite count is only reported as stable when no new power word
appeared in the top quartile of base lengths.
``lift_family`` manufactures families of distinct smooth n-power bases by
repeatedly pulling an even-length base back through ``delta_inv``, which is
the constructive evidence for "infinitely many" power claims.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Alphabet, EPSILON, Word, delta_inv, word_to_text
from .errors import CertificationError
from .search import (SHARED_ENUMERATOR, complete_by_complement, is_smooth_fast, power_hits,
                     seeded_state, walk)

__all__ = [
    "IndexPair", "PowerWitness", "CensusReport",
    "h_delta", "enumerate_smooth", "scan_powers", "gamma",
    "lift", "lift_family", "kolakoski_prefix",
]


class IndexPair(NamedTuple):
    """Power-freeness threshold h and exact power-free index delta for one alphabet."""

    h: int
    delta: int


def h_delta(ab: Alphabet) -> IndexPair:
    """The threshold h(a,b) beyond which multi-letter smooth bases have no
    smooth powers, and the exact power-free index delta(a,b).

    h: b+2 for {1,3}; (b+4)/2 for even b; (b+5)/2 for odd b with a=1 (b != 3);
    (b+3)/2 for odd b with a >= 2.  delta: b+2 for {1,3}, else b+1.
    """
    a, b = ab.a, ab.b
    if a == 1 and b == 3:
        h = b + 2
    elif b % 2 == 0:
        h = (b + 4) // 2
    elif a == 1:
        h = (b + 5) // 2
    else:
        h = (b + 3) // 2
    delta_index = b + 2 if (a == 1 and b == 3) else b + 1
    return IndexPair(h=h, delta=delta_index)


def enumerate_smooth(ab: Alphabet, n: int) -> list[Word]:
    """Exactly the smooth words of length n over {a, b}, lexicographic.

    One walk to depth n below the letter a keeps only the leaves (preorder
    visits them in lexicographic order); the shorter words are walked
    through, not kept.  The words starting with b are their reversed
    complements.
    """
    if n < 0:
        raise ValueError("length must be >= 0")
    if n == 0:
        return [Word()]
    out: list[Word] = []
    wrap = Word._wrap

    def visit(path: list[int]) -> None:
        if len(path) == n:
            out.append(wrap(tuple(path)))

    walk(seeded_state(ab, (ab.a,)), [ab.a], n, visit)
    complete_by_complement([out], ab, wrap)
    return out


class PowerWitness(NamedTuple):
    base: Word
    power: Word
    primitive_base: Word

    def to_json(self) -> dict:
        return {
            "base": word_to_text(self.base),
            "base_length": len(self.base),
            "power": word_to_text(self.power),
            "power_length": len(self.power),
            "primitive_base": word_to_text(self.primitive_base),
        }


class CensusReport(NamedTuple):
    """Witnesses and counts from one power scan.

    ``gamma`` counts distinct power words (not bases); each witness also
    records the primitive base of its power word so double representations
    stay visible.  ``stable`` applies the top-quartile heuristic.
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
        seen = []
        have = set()
        for w in self.witnesses:
            if w.power not in have:
                have.add(w.power)
                seen.append(w.power)
        return tuple(seen)

    def to_json(self) -> dict:
        return {
            "alphabet": str(self.alphabet),
            "exponent": self.exponent,
            "bound": self.bound,
            "gamma": self.gamma,
            "stable": self.stable,
            "last_new_base_length": self.last_new_base_length,
            "note": self.note,
            "witnesses": [w.to_json() for w in self.witnesses],
        }

    def to_csv(self) -> str:
        lines = ["base,base_length,power_length"]
        for w in self.witnesses:
            lines.append(f"{word_to_text(w.base)},{len(w.base)},{len(w.power)}")
        return "\n".join(lines) + "\n"


def _primitive_root(p: Word) -> Word:
    n = len(p)
    for d in range(1, n + 1):
        if n % d == 0 and p[:d] * (n // d) == p:
            return p[:d]
    return p


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


def _power_subtree(args):
    a, b, n, L, prefix = args
    return power_hits(Alphabet(a, b), n, L, prefix)


def _split_depth(ab: Alphabet, L: int, tasks: int) -> int:
    """The shallowest depth (at most L) with at least ``tasks`` smooth prefixes."""
    depth = 1
    while depth < L and len(enumerate_smooth(ab, depth)) < tasks:
        depth += 1
    return depth


def scan_powers(ab: Alphabet, n: int, L: int, jobs: int = 1) -> CensusReport:
    """Test u^n for smoothness over every smooth base u with 1 <= |u| <= L.

    Only the bases starting with a are walked; the rest are their reversed
    complements (:func:`smoothwords.search.complete_by_complement`).  With
    ``jobs`` > 1 that walk is split into the subtrees below the a-initial
    smooth prefixes of the depth that has at least 8 smooth prefixes per
    worker; the caller tests the shorter bases itself.  The witnesses are
    the same for every ``jobs``.
    """
    if n < 2:
        raise ValueError("exponent must be >= 2")
    if L < 1:
        raise ValueError("base-length bound must be >= 1")
    if jobs > 1:
        # Imported here, so that commands run with --jobs 1 skip it at start-up.
        from concurrent.futures import ProcessPoolExecutor
        depth = _split_depth(ab, L, 8 * jobs)
        work = [(ab.a, ab.b, n, L, tuple(p)) for p in enumerate_smooth(ab, depth)
                if p[0] == ab.a]
        hits = power_hits(ab, n, depth - 1, (ab.a,)) + [[] for _ in range(depth, L + 1)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # Prefix order keeps each length's bases lexicographic.
            for part in pool.map(_power_subtree, work):
                for level, found in zip(hits[depth:], part[depth:]):
                    level.extend(found)
    else:
        hits = power_hits(ab, n, L, (ab.a,))
    complete_by_complement(hits, ab)

    witnesses = []
    seen: set[Word] = set()
    last_new: int | None = None
    for u in (Word._wrap(t) for level in hits for t in level):
        p = u * n
        if p not in seen:
            seen.add(p)
            last_new = len(u)
        witnesses.append(PowerWitness(base=u, power=p, primitive_base=_primitive_root(p)))
    stable, note = _stability(L, last_new)
    return CensusReport(alphabet=ab, exponent=n, bound=L,
                        witnesses=tuple(witnesses), gamma=len(seen),
                        last_new_base_length=last_new, stable=stable, note=note)


def gamma(ab: Alphabet, n: int, L: int, jobs: int = 1) -> tuple[int, CensusReport]:
    """Count distinct smooth power words u^n with |u| <= L.

    For n = 1 every smooth word qualifies, so the count can only grow with L;
    the report says so instead of pretending stability.
    """
    if n < 1:
        raise ValueError("exponent must be >= 1")
    if L < 1:
        raise ValueError("base-length bound must be >= 1")
    if n == 1:
        words = SHARED_ENUMERATOR.flat(ab, L, min_len=1)
        witnesses = tuple(PowerWitness(base=u, power=u, primitive_base=_primitive_root(u))
                          for u in words)
        report = CensusReport(alphabet=ab, exponent=1, bound=L,
                              witnesses=witnesses, gamma=len(words),
                              last_new_base_length=L if words else None,
                              stable=False, note="unbounded at this bound")
        return len(words), report
    report = scan_powers(ab, n, L, jobs=jobs)
    return report.gamma, report


def lift(u, alpha: int, k: int, ab: Alphabet) -> Word:
    """Apply delta_inv k times, restarting from letter alpha at each level."""
    if k < 0:
        raise ValueError("lift depth must be >= 0")
    if alpha not in ab:
        raise ValueError(f"starting letter {alpha} is not in alphabet {ab}")
    w = Word(u)
    for i, c in enumerate(w):
        if c not in ab:
            raise ValueError(f"letter {c} at position {i} is not in alphabet {ab}")
    for _ in range(k):
        w = delta_inv(w, alpha, ab)
    return w


def lift_family(u, n: int, alpha: int, K: int, ab: Alphabet) -> list[Word]:
    """The bases lift(u, alpha, k) for k = 0..K-1, each certified.

    Requires |u| even, a and b of the same parity, and u^n smooth: then every
    lift has even length and its n-th power stays smooth.  A lift violating
    that raises :class:`CertificationError` (a certified-claim failure, never
    silently dropped); the same applies if the K bases are not distinct.
    """
    u = Word(u)
    a, b = ab.a, ab.b
    if K < 1:
        raise ValueError("family size must be >= 1")
    if len(u) % 2:
        raise ValueError(f"base length {len(u)} must be even")
    if (a - b) % 2:
        raise ValueError(f"alphabet letters {a},{b} must have the same parity")
    if alpha not in ab:
        raise ValueError(f"starting letter {alpha} is not in alphabet {ab}")
    if not is_smooth_fast(u * n, ab):
        raise ValueError(f"({word_to_text(u)})^{n} must be smooth over {ab}")
    family: list[Word] = []
    for k in range(K):
        v = lift(u, alpha, k, ab)
        if len(v) % 2:
            raise CertificationError(
                f"lift depth {k} of {word_to_text(u)!r} has odd length {len(v)}",
                level=k, actual=v)
        if not is_smooth_fast(v * n, ab):
            raise CertificationError(
                f"lift depth {k}: ({word_to_text(v)})^{n} is not smooth over {ab}",
                level=k, actual=v)
        family.append(v)
    if len(set(family)) != K:
        raise CertificationError(f"lifted bases of {word_to_text(u)!r} are not pairwise distinct")
    return family


def kolakoski_prefix(ab: Alphabet, first: int, length: int) -> Word:
    """Prefix of the self-generating word whose run lengths spell the word itself.

    Letters alternate between a and b run by run, starting with ``first``;
    run j has the length given by letter j of the word being generated.
    Runs in O(length) with no recursion.
    """
    if first not in ab:
        raise ValueError(f"first letter {first} is not in alphabet {ab}")
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return EPSILON
    out: list[int] = []
    i = 0
    cur = first
    other = ab.complement_of(first)
    while len(out) < length:
        if i < len(out):
            out.extend([cur] * out[i])
        else:
            # The pointer caught up: this run's first letter is also its length.
            out.append(cur)
            out.extend([cur] * (cur - 1))
        cur, other = other, cur
        i += 1
    return Word._wrap(tuple(out[:length]))
