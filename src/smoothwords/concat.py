"""Middle-word tables and the concatenation/power derivative identities.

For smooth uxv with x drawn from a fixed finite table, the derivative splits
as D(uxv) = D(u) w D(v) with the middle word w again in the table.  The table
depends only on the alphabet class; :func:`certify_concat` re-verifies the
splitting exhaustively at bounded length, and :func:`empirical_middle_set`
rebuilds the table from scratch as a least fixpoint, independent of the
stored literals.  :func:`power_decomposition` applies the same splitting to
powers: D^j(u^n) = (D^j(u) w)^(n-1) D^j(u), checked level by level.

Both certifiers run on one scan (:func:`_scan`) over a list of x words:
one walk over u, one walk over v per distinct tower of u·x whatever the x,
and at each v one test per class of pairs (u, x) that the identity
D(u·x·v) = R[s:] + V[:e] of :func:`_scan_group` gives the same verdict.
The scan uses the complement symmetry once, where it files each pair:
swapping a and b keeps every run length, so (u, x, v) and (ū, x̄, v̄) are
smooth together and have the same derivatives and the same middle, and a
u·x that ends in b shares the walk over v of its complement.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .census import enumerate_smooth
from .core import Alphabet, Word, _FrozenRecord, mirror, run_lengths, runs, word_to_text
from .errors import CertificationError
from .search import (complement_tower, derivative_from_runs, fast_derivative, is_power_smooth,
                     is_smooth_fast, map_tasks, push_copies, walk)

__all__ = [
    "DsigmaTable", "ConcatViolation", "ConcatCertificate", "PowerDecomposition",
    "dsigma_table", "middle_witness", "certify_concat", "empirical_middle_set",
    "power_decomposition",
]

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


def dsigma_table(ab: Alphabet) -> DsigmaTable:
    """The middle-word table for the alphabet, selected by alphabet class.

    Six classes: {1,2}; {1,3}; {1,4}; {1,b} with b >= 5; {2,b}; {a,b} with
    a >= 3.  Parametric entries are instantiated with the concrete letters.
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


def _extract_middle(du: tuple, dv: tuple, dfull: tuple) -> tuple | None:
    """The middle slice of dfull between a literal du prefix and dv suffix."""
    nu, nv, nf = len(du), len(dv), len(dfull)
    if nu + nv > nf or dfull[:nu] != du or (nv and dfull[nf - nv:] != dv):
        return None
    return dfull[nu:nf - nv]


def middle_witness(u, x, v, ab: Alphabet) -> Word | None:
    """The middle word w with D(uxv) = D(u) w D(v), or None if no such slice.

    Requires uxv smooth.  Absence of a witness is data for the certifier,
    not an error.
    """
    u, x, v = Word(u), Word(x), Word(v)
    full = u + x + v
    if not is_smooth_fast(full, ab):
        raise ValueError(f"u·x·v = {word_to_text(full)!r} must be smooth over {ab}")
    b = ab.b
    mid = _extract_middle(fast_derivative(u, b), fast_derivative(v, b),
                          fast_derivative(full, b))
    return Word._wrap(mid) if mid is not None else None


def _scan(ab: Alphabet, L: int, xs: list, table_set: frozenset | None, jobs: int = 1):
    """Certify every (u, x, v) with x in ``xs``, u, v smooth, |u|,|v| <= L
    and uxv smooth.  Returns (tested count per x, violations, set of
    extracted middles); with ``table_set`` None only the middles are
    collected, otherwise a middle outside it is a violation.

    One walk over u pushes every x onto each u's tower and groups the pairs
    (u, x) with a smooth u·x by the tower of u·x, filed under the tower of
    its complement when u·x ends in b.  A walk reads nothing but its tower,
    so the v that extend a group's tower are, for a pair filed as it is, its
    smooth v, and for a flipped pair the complements of its smooth v.  Each
    group is one task (:func:`_scan_group`), in first-seen order, mapped over
    ``jobs`` workers.
    """
    a, b = ab.a, ab.b
    counts = dict.fromkeys(xs, 0)
    # An x with a letter outside {a, b} has no triple; push does not check.
    xs = [x for x in xs if all(c == a or c == b for c in x)]
    groups: dict[tuple, list[tuple]] = {}
    # The u are held as linked lists (last letter, the rest of u), so a walk
    # down a deep path holds one pair per word, not every prefix in full;
    # links[d] is the word d letters into the walk.
    links = [()]

    def visit_u(tower: tuple, upath: list[int]) -> None:
        depth = len(upath)
        if depth:
            links[depth:] = [(upath[-1], links[depth - 1])]
        link = links[depth]
        for x in xs:
            ux_tower = push_copies(ab, tower, x, 1)
            if ux_tower is not None:
                flip = (x[-1] if x else upath[-1] if depth else a) == b
                if flip:
                    ux_tower = complement_tower(ux_tower, ab)
                groups.setdefault(ux_tower, []).append((link, x, flip))

    walk(ab, (), [], L, visit_u)
    tasks = list(groups.items())
    violations: list[tuple[tuple, tuple, tuple, str]] = []
    middles: set[tuple] = set()
    for (_, members), (nodes, vio, mids) in zip(
            tasks, map_tasks(partial(_scan_group, ab, L, table_set), tasks, jobs)):
        for _, x, _ in members:
            counts[x] += nodes
        violations += vio
        middles |= mids
    return counts, violations, middles


def _scan_group(ab: Alphabet, L: int, table_set: frozenset | None, task: tuple):
    """One walk over v from the tower shared by a group of pairs (u, x);
    returns (v nodes walked, violations, middles).

    Every non-empty u·x of the group ends in a, or is flipped: it ends in b
    and stands for its complement, which has the same runs, derivative and
    middles, so a flipped pair's triple at v is (u, x, v̄).  The walk keeps
    the run lengths of v per depth, so D(v) and D(u·x·v) are slices of run
    lengths.  Let R be the runs of u·x, without its last run when v starts
    with a, and V the runs of v, the first then lengthened by that last run.
    For R and V not empty, ``derivative_from_runs`` gives

        D(u·x·v) = R[s:] + V[:e],  s = (R[0] != b),  e = |V| - (V[-1] != b).

    So when |R[s:]| >= |D(u)|, the verdict and middle at v depend on (u, x)
    only through whether R[s:] starts with D(u) and, if so, the rest of
    R[s:]: pairs with equal keys form a class, tested once per v, and a
    failing class gives a violation per pair.  At v = ε, and for pairs with
    an empty or shorter R[s:], each triple is tested by itself.
    """
    ux_tower, members = task
    a, b = ab.a, ab.b
    swap = (a + b).__sub__
    violations: list[tuple[tuple, tuple, tuple, str]] = []
    middles: set[tuple] = set()
    # Indexed by ``merge`` below: the classes by key (None when R[s:] does
    # not start with D(u)), and the pairs tested one triple at a time.
    classes, single, at_root = ({}, {}), ([], []), []
    for link, x, flip in members:
        u = _unlink(link)
        du = fast_derivative(u, b)
        uxruns = tuple(run_lengths(u + x))
        member = (u, x, flip)
        at_root.append((member, du, uxruns))
        for merge, r in enumerate((uxruns, uxruns[:-1])):
            rest = r[r[0] != b:] if r else ()
            if not r or len(rest) < len(du):
                single[merge].append((member, du, r))
            else:
                key = rest[len(du):] if rest[:len(du)] == du else None
                classes[merge].setdefault(key, []).append(member)
    # Every u·x of the group has the same last run length.
    tail = uxruns[-1] if uxruns else 0

    def record(mid: tuple | None, group, path: list[int]) -> None:
        if mid is not None:
            middles.add(mid)
            if table_set is None or mid in table_set:
                return
        reason = "no-middle-decomposition" if mid is None else "middle-not-in-table"
        v = tuple(path)
        violations.extend((u, x, tuple(map(swap, v)) if flip else v, reason)
                          for u, x, flip in group)

    # vruns[d] holds the run lengths of the v that is d letters into the
    # walk; the list grows with the depth the walk reaches, not with L.
    vruns = [()]
    nodes = 0

    def visit_v(tower: tuple, path: list[int]) -> None:
        nonlocal nodes
        nodes += 1
        depth = len(path)
        if depth:
            vr = vruns[depth - 1]
            vr = vr[:-1] + (vr[-1] + 1,) if depth > 1 and path[-1] == path[-2] else vr + (1,)
            vruns[depth:] = [vr]
            dv = derivative_from_runs(vr, b)
            merge = path[0] == a
            if merge:
                # v's first run continues the last run of u·x.
                vr = (vr[0] + tail,) + vr[1:]
            head = vr[:len(vr) - (vr[-1] != b)]
            for key, group in classes[merge].items():
                record(None if key is None else _extract_middle((), dv, key + head), group, path)
            one_by_one = single[merge]
        else:
            vr, dv, one_by_one = (), (), at_root
        for member, du, r in one_by_one:
            record(_extract_middle(du, dv, derivative_from_runs(r + vr, b)), (member,), path)

    walk(ab, ux_tower, [], L, visit_v)
    return nodes, violations, middles


def _unlink(node: tuple) -> tuple:
    """The letters of a word held as nested pairs (last letter, the rest)."""
    letters = []
    while node:
        c, node = node
        letters.append(c)
    return tuple(reversed(letters))


class ConcatViolation(NamedTuple):
    u: Word
    x: Word
    v: Word
    reason: str

    def to_json(self) -> dict:
        return {"u": word_to_text(self.u), "x": word_to_text(self.x),
                "v": word_to_text(self.v), "reason": self.reason}


class ConcatCertificate(NamedTuple):
    """Result of exhaustively checking the concatenation splitting at bound L."""

    alphabet: Alphabet
    bound: int
    tested_triples: int
    violations: tuple[ConcatViolation, ...]
    middle_set: tuple[Word, ...]
    x_source: str

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "alphabet": [self.alphabet.a, self.alphabet.b],
            "bound": self.bound,
            "x_source": self.x_source,
            "tested_triples": self.tested_triples,
            "violations": [v.to_json() for v in self.violations],
            "middle_set": [word_to_text(w) for w in self.middle_set],
        }


def certify_concat(ab: Alphabet, L: int, jobs: int = 1,
                   explore: int | None = None) -> ConcatCertificate:
    """Check D(uxv) = D(u) w D(v) with w in the table, exhaustively to bound L.

    ``x`` ranges over the alphabet's table; with ``explore`` set it ranges
    over all smooth words up to that length instead, and middles are reported
    without being asserted against the table.

    All x share one walk over u; each group of (u, x) with one tower of u·x,
    up to the complement, is one task, mapped over ``jobs`` workers
    (:func:`_scan`); the certificate is the same for every ``jobs``.
    """
    if L < 1:
        raise ValueError("length bound must be >= 1")
    if explore is None:
        check: frozenset | None = frozenset(tuple(w) for w in dsigma_table(ab).words)
        xs = sorted(check, key=_shortlex)
        x_source = "table"
    else:
        if explore < 0:
            raise ValueError("length bound must be >= 0")
        xs = [tuple(w) for w in enumerate_smooth(ab, explore, min_len=0)]
        check = None
        x_source = f"smooth-x<={explore}"

    counts, violations, middles = _scan(ab, L, xs, check, jobs)
    violations.sort(key=lambda r: (_shortlex(r[0]), _shortlex(r[1]), _shortlex(r[2])))
    return ConcatCertificate(
        alphabet=ab, bound=L, tested_triples=sum(counts.values()),
        violations=tuple(ConcatViolation(Word._wrap(u), Word._wrap(x), Word._wrap(v), reason)
                         for u, x, v, reason in violations),
        middle_set=tuple(Word._wrap(m) for m in sorted(middles, key=_shortlex)),
        x_source=x_source)


def empirical_middle_set(ab: Alphabet, L: int, size_limit: int = 512) -> set[Word]:
    """Least fixpoint of middle extraction, seeded with the empty word.

    This is the independent oracle for the stored tables: it never reads
    them, it only slices derivatives of smooth concatenations.  Each round
    scans every middle the last round found as x, in one :func:`_scan`.
    """
    if L < 1:
        raise ValueError("length bound must be >= 1")
    found: set[tuple] = {()}
    new: set[tuple] = {()}
    while new:
        _, _, mids = _scan(ab, L, list(new), None)
        new = mids - found
        found |= new
        if len(found) > size_limit:
            raise RuntimeError(
                f"middle-word fixpoint exceeded {size_limit} elements over {ab}; "
                "the splitting property is broken")
    return {Word._wrap(t) for t in found}


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


def power_decomposition(u, n: int, ab: Alphabet) -> PowerDecomposition:
    """Extract and verify the middle word at every derivative level of u^n.

    Requires u^n smooth and u with at least two runs.  Any mismatch between
    the reconstruction and the actual derivative, or a middle word outside
    the table, raises :class:`CertificationError` carrying the level and both
    sides; it is never silently repaired.
    """
    u = Word(u)
    if n < 2:
        raise ValueError("exponent must be >= 2")
    if runs(u).r < 2:
        raise ValueError(f"base {word_to_text(u)!r} must have at least two runs")
    # Tested copy by copy first, so a huge n fails without building u^n.
    if not is_power_smooth(u, n, ab):
        raise ValueError(f"({word_to_text(u)})^{n} must be smooth over {ab}")
    power = u * n
    b = ab.b
    table_items = frozenset(tuple(w) for w in dsigma_table(ab).words)

    # Derivative towers of the base and of the power (plain derivative).
    # The base tower stops at the last level with at least two runs.
    base_levels = [tuple(u)]
    while len(run_lengths(base_levels[-1])) >= 2:
        base_levels.append(fast_derivative(base_levels[-1], b))
    k = len(base_levels) - 1
    power_levels = [tuple(power)]
    for _ in range(k):
        power_levels.append(fast_derivative(power_levels[-1], b))

    levels: list[tuple[int, Word]] = []
    for j in range(1, k + 1):
        duj = base_levels[j]
        dpj = power_levels[j]
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
        if w not in table_items:
            raise CertificationError(
                f"level {j}: middle word {word_to_text(Word._wrap(w))!r} is outside the table",
                level=j, expected=None, actual=w)
        levels.append((j, Word._wrap(w)))
    return PowerDecomposition(base=u, exponent=n, alphabet=ab, levels=tuple(levels))
