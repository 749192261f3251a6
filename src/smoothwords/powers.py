"""Smooth powers one word at a time: the power-free indices, the derivative
formula for powers, and lifts.

:func:`power_decomposition` checks the paper's power derivative formula for
one smooth power u^n: D^j(u^n) = (D^j(u) w_j)^(n-1) D^j(u) at every level j
at which D^j(u) still has two runs or more, with each middle w_j in the
alphabet's table (:mod:`smoothwords.dsigma`).  :func:`lift` and
:func:`lift_family` pull a base back through ``delta_inv``, which over an
alphabet of letters of the same parity turns one smooth power of even base
length into infinitely many; :func:`kolakoski_prefix` builds the
run-length self-generating word.  :func:`h_delta` states the paper's
power-free thresholds.

At module level this loads only ``core`` and ``errors``, so ``lift`` and
``kolakoski`` compile nothing else.  The engine's copy-by-copy power test
(``search``), the literal calculus and the table are imported by the
functions that use them.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Alphabet, Word, delta_inv, run_lengths, word_to_text
from .errors import CertificationError

__all__ = [
    "IndexPair", "PowerDecomposition",
    "h_delta", "power_decomposition", "lift", "lift_family", "kolakoski_prefix",
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

    These are the paper's values, returned as stated.  Exhaustive search
    refutes the (b+3)/2 threshold for {2, odd b}: over {2,3}, h is 3, yet the
    10-letter base 2233322233 (and its complement 3322233322) has a smooth
    cube.  Acceptance check C05 pins that witness and fails on purpose.
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


class PowerDecomposition(NamedTuple):
    """Per-level middle words of a smooth power: D^j(u^n) = (D^j(u) w_j)^(n-1) D^j(u)."""

    base: Word
    exponent: int
    alphabet: Alphabet
    levels: tuple[tuple[int, Word], ...]

    def to_json(self) -> dict:
        return {
            "alphabet": [self.alphabet.a, self.alphabet.b],
            "base": word_to_text(self.base),
            "exponent": self.exponent,
            "levels": [{"j": j, "witness": word_to_text(w)} for j, w in self.levels],
        }

    def text_lines(self):
        """The text report: the base and exponent, then one line per level."""
        yield f"base {word_to_text(self.base)}  exponent {self.exponent}\n"
        for j, w in self.levels:
            yield f"level {j}: witness {word_to_text(w) or 'eps'}\n"


def power_decomposition(u, n: int, ab: Alphabet) -> PowerDecomposition:
    """Extract and verify the middle word at every derivative level of u^n.

    Requires u^n smooth and u with at least two runs.  Any mismatch between
    the reconstruction and the actual derivative, or a middle word outside
    the table, raises :class:`CertificationError` carrying the level and both
    sides; it is never silently repaired.  D^j(u) and D^j(u^n) come from the
    literal ``calculus.derivative``; only the smoothness of u^n is tested by
    the engine, copy by copy, so a huge n fails before u^n is built.
    """
    from .calculus import derivative
    from .dsigma import dsigma_table
    from .search import seeded_state
    u = Word(u)
    if n < 2:
        raise ValueError("exponent must be >= 2")
    if len(run_lengths(u)) < 2:
        raise ValueError(f"base {word_to_text(u)!r} must have at least two runs")
    if seeded_state(ab, u, n) is None:
        raise ValueError(f"({word_to_text(u)})^{n} must be smooth over {ab}")
    table = dsigma_table(ab).words

    # D^j(u) and D^j(u^n) side by side, down to the last level of the base
    # with at least two runs.
    duj, dpj = u, u * n
    levels: list[tuple[int, Word]] = []
    while len(run_lengths(duj)) >= 2:
        j = len(levels) + 1
        duj, dpj = derivative(duj, ab), derivative(dpj, ab)
        slack = len(dpj) - n * len(duj)
        if slack < 0 or slack % (n - 1):
            raise CertificationError(
                f"level {j}: |D^{j}(u^{n})| = {len(dpj)} does not fit "
                f"(|D^{j}(u)| {len(duj)})·{n} + (n-1)·|w|",
                level=j, expected=None, actual=dpj)
        wlen = slack // (n - 1)
        w = dpj[len(duj):len(duj) + wlen]
        rebuilt = (duj + w) * (n - 1) + duj
        if rebuilt != dpj:
            raise CertificationError(
                f"level {j}: (D^{j}(u) w)^{n - 1} D^{j}(u) does not reproduce D^{j}(u^{n})",
                level=j, expected=dpj, actual=rebuilt)
        if w not in table:
            raise CertificationError(
                f"level {j}: middle word {word_to_text(w)!r} is outside the table",
                level=j, expected=None, actual=w)
        levels.append((j, w))
    return PowerDecomposition(base=u, exponent=n, alphabet=ab, levels=tuple(levels))


def lift(u, alpha: int, k: int, ab: Alphabet) -> Word:
    """Apply delta_inv k times, restarting from letter alpha at each level."""
    if k < 0:
        raise ValueError("lift depth must be >= 0")
    ab.require_letter(alpha)
    w = Word(u)
    ab.require_word(w)
    for _ in range(k):
        w = delta_inv(w, alpha, ab)
    return w


def lift_family(u, n: int, alpha: int, K: int, ab: Alphabet) -> list[Word]:
    """The bases lift(u, alpha, k) for k = 0..K-1, each certified.

    Requires n >= 1, |u| even, a and b of the same parity, and u^n smooth
    (tested copy by copy, without building u^n): then every lift has even
    length and its n-th power stays smooth.  A lift violating that raises
    :class:`CertificationError` (a certified-claim failure, never silently
    dropped); the same applies if the K bases are not distinct.
    """
    from .search import seeded_state
    u = Word(u)
    a, b = ab.a, ab.b
    if n < 1:
        raise ValueError("exponent must be >= 1")
    if K < 1:
        raise ValueError("family size must be >= 1")
    if len(u) % 2:
        raise ValueError(f"base length {len(u)} must be even")
    if (a - b) % 2:
        raise ValueError(f"alphabet letters {a},{b} must have the same parity")
    ab.require_letter(alpha)
    if seeded_state(ab, u, n) is None:
        raise ValueError(f"({word_to_text(u)})^{n} must be smooth over {ab}")
    # The checks above certify depth 0, u, and its letters (seeded_state), so
    # depth k is lift(u, alpha, k): one delta_inv of depth k - 1.
    family = [u]
    for k in range(1, K):
        v = delta_inv(family[-1], alpha, ab)
        if len(v) % 2:
            raise CertificationError(
                f"lift depth {k} of {word_to_text(u)!r} has odd length {len(v)}",
                level=k, actual=v)
        if seeded_state(ab, v, n) is None:
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
    ab.require_letter(first, "first letter")
    if length < 0:
        raise ValueError("length must be >= 0")
    out: list[int] = []
    total = ab.a + ab.b
    cur = first
    i = 0
    while len(out) < length:
        # Once the pointer catches up, a run's first letter is also its length.
        out += [cur] * (out[i] if i < len(out) else cur)
        cur = total - cur
        i += 1
    return Word._wrap(tuple(out[:length]))
