"""Middle-word tables and the concatenation/power derivative identities.

For smooth uxv with x drawn from a fixed finite table, the derivative splits
as D(uxv) = D(u) w D(v) with the middle word w again in the table.  The table
depends only on the alphabet class; :func:`certify_concat` re-verifies the
splitting exhaustively at bounded length, and :func:`empirical_middle_set`
rebuilds the table from scratch as a least fixpoint, independent of the
stored literals.  :func:`power_decomposition` applies the same splitting to
powers: D^j(u^n) = (D^j(u) w)^(n-1) D^j(u), checked level by level.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (Alphabet, Word, _FrozenRecord, mirror, run_lengths, runs,
                   word_to_text)
from .errors import CertificationError
from .search import (SHARED_ENUMERATOR, ChainState, derivative_from_runs, fast_derivative,
                     is_power_smooth, is_smooth_fast, walk)

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
    if nu + nv > nf:
        return None
    if dfull[:nu] != du:
        return None
    if nv and dfull[nf - nv:] != dv:
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


def _scan_x(ab: Alphabet, L: int, x: tuple, table_set: frozenset | None):
    """Certify every (u, x, v) with u, v smooth, |u|,|v| <= L, uxv smooth.

    Returns (tested count, violations, set of extracted middles).  When
    ``table_set`` is None only the middles are collected (exploratory /
    fixpoint use); otherwise membership failures are recorded as violations.

    One state serves the whole scan.  An outer walk runs over u; at each node
    the letters of x are pushed onto the live state, and when u·x is smooth
    an inner walk over v runs from that same state before x is popped again.
    The inner walk keeps the run lengths of v, updated in O(1) per node from
    the parent's, so D(v) and D(u·x·v) are slices of run lengths (the runs of
    u·x and v merge when v starts with the last letter of u·x) rather than
    re-derivations of whole words.  Every triple is still sliced and tested.
    """
    a, b = ab.a, ab.b
    tested = 0
    violations: list[tuple[tuple, tuple, tuple, str]] = []
    middles: set[tuple] = set()
    if any(c != a and c != b for c in x):
        return tested, violations, middles
    state = ChainState(ab)
    push = state.push
    pop = state.pop
    # At the node d letters into the inner walk, v's runs are
    # vruns[:top[d] + 1] and the last of them has length last[d].  A sibling
    # subtree may have lengthened the parent's last run in place, so a node
    # that opens a new run first writes that length back.
    vruns = [0] * (L + 1)
    top = [0] * (L + 1)
    last = [0] * (L + 1)

    def visit_u(upath: list[int]) -> None:
        pushed = 0
        for c in x:
            if not push(c):
                break
            pushed += 1
        else:
            scan_v(tuple(upath))
        for _ in range(pushed):
            pop()

    def scan_v(u: tuple) -> None:
        du = fast_derivative(u, b)
        ux = u + x
        uxruns = run_lengths(ux)
        joint = ux[-1] if ux else 0
        head = uxruns[:-1]
        tail = uxruns[-1] if ux else 0
        d_ux = derivative_from_runs(uxruns, b)

        def visit_v(path: list[int]) -> None:
            nonlocal tested
            depth = len(path)
            if depth:
                if depth == 1:
                    slot, length = 0, 1
                elif path[-1] == path[-2]:
                    slot, length = top[depth - 1], last[depth - 1] + 1
                else:
                    slot, length = top[depth - 1] + 1, 1
                    vruns[slot - 1] = last[depth - 1]
                vruns[slot] = length
                top[depth] = slot
                last[depth] = length
                vr = vruns[:slot + 1]
                dv = derivative_from_runs(vr, b)
                if path[0] == joint:
                    vr[0] += tail
                    dfull = derivative_from_runs(head + vr, b)
                else:
                    dfull = derivative_from_runs(uxruns + vr, b)
            else:
                dv = ()
                dfull = d_ux
            mid = _extract_middle(du, dv, dfull)
            tested += 1
            if mid is None:
                violations.append((u, x, tuple(path), "no-middle-decomposition"))
            else:
                middles.add(mid)
                if table_set is not None and mid not in table_set:
                    violations.append((u, x, tuple(path), "middle-not-in-table"))

        walk(state, [], L, visit_v)

    walk(state, [], L, visit_u)
    return tested, violations, middles


def _certify_worker(args):
    a, b, L, x, table_items = args
    table_set = frozenset(table_items) if table_items is not None else None
    return _scan_x(Alphabet(a, b), L, x, table_set)


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
    """
    if L < 1:
        raise ValueError("length bound must be >= 1")
    table = dsigma_table(ab)
    table_items = frozenset(tuple(w) for w in table.words)
    if explore is None:
        xs = sorted((tuple(w) for w in table.words), key=_shortlex)
        check: frozenset | None = table_items
        x_source = "table"
    else:
        xs = [tuple(w) for w in SHARED_ENUMERATOR.flat(ab, explore)]
        check = None
        x_source = f"smooth-x<={explore}"

    if jobs > 1:
        # Imported here, so that commands run with --jobs 1 skip it at start-up.
        from concurrent.futures import ProcessPoolExecutor
        work = [(ab.a, ab.b, L, x, tuple(check) if check is not None else None)
                for x in xs]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_certify_worker, work))
    else:
        results = [_scan_x(ab, L, x, check) for x in xs]

    tested = 0
    violations: list[tuple] = []
    middles: set[tuple] = set()
    for t, vio, mids in results:
        tested += t
        violations.extend(vio)
        middles |= mids
    violations.sort(key=lambda r: (_shortlex(r[0]), _shortlex(r[1]), _shortlex(r[2])))
    return ConcatCertificate(
        alphabet=ab,
        bound=L,
        tested_triples=tested,
        violations=tuple(ConcatViolation(Word._wrap(u), Word._wrap(x), Word._wrap(v), reason)
                         for u, x, v, reason in violations),
        middle_set=tuple(Word._wrap(m) for m in sorted(middles, key=_shortlex)),
        x_source=x_source,
    )


def empirical_middle_set(ab: Alphabet, L: int, size_limit: int = 512) -> set[Word]:
    """Least fixpoint of middle extraction, seeded with the empty word.

    This is the independent oracle for the stored tables: it never reads
    them, it only slices derivatives of smooth concatenations.
    """
    if L < 1:
        raise ValueError("length bound must be >= 1")
    found: set[tuple] = {()}
    queue: list[tuple] = [()]
    while queue:
        x = queue.pop(0)
        _, _, mids = _scan_x(ab, L, x, None)
        new = mids - found
        found |= new
        queue.extend(sorted(new, key=_shortlex))
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
