"""Independent oracle for the smooth-word calculus, written from the definitions.

It imports nothing from ``smoothwords``: the benchmark judges the program's
outputs against it.  Words are tuples of positive ints and an alphabet is a
pair ``(a, b)`` with ``1 <= a < b``.

* run lengths: lengths of the maximal blocks of equal letters;
* closure: a boundary run longer than ``a`` is padded with its own letter up
  to length ``b`` (a one-run word is padded once); a run longer than ``b``
  has no closure;
* derivative: a word is differentiable when every run is at most ``b`` long
  and every interior run is exactly ``a`` or ``b`` long; its derivative is
  the list of run lengths with a boundary run dropped when shorter than ``b``;
* rho = derivative of the closure; a word over {a, b} is smooth when iterating
  rho reaches the empty word.

Everything slow here is deliberately literal.  Only memoisation of the
smoothness verdict is added, which changes no result.

Run ``python3 bench/oracle.py`` to check the oracle against facts from the
paper.
"""

from __future__ import annotations

import sys

RUN_TOO_LONG = "run-too-long"
INTERIOR_RUN = "interior-run-not-in-alphabet"
BAD_LETTER = "letter-not-in-alphabet"


def run_lengths(w) -> list[int]:
    out: list[int] = []
    prev = None
    for c in w:
        if out and c == prev:
            out[-1] += 1
        else:
            out.append(1)
            prev = c
    return out


def delta(w) -> tuple:
    return tuple(run_lengths(w))


def delta_inv(u, alpha: int, ab) -> tuple:
    """Word whose run lengths are ``u``, letters alternating from ``alpha``."""
    a, b = ab
    out: list[int] = []
    cur = alpha
    for length in u:
        out.extend([cur] * length)
        cur = b if cur == a else a
    return tuple(out)


def mirror(w) -> tuple:
    return tuple(w)[::-1]


def failure_reason(w, ab) -> str | None:
    """Why ``w`` is not differentiable over ``ab``, or None when it is."""
    a, b = ab
    lengths = run_lengths(w)
    if any(n > b for n in lengths):
        return RUN_TOO_LONG
    if any(n != a and n != b for n in lengths[1:-1]):
        return INTERIOR_RUN
    return None


def closure(w, ab) -> tuple:
    a, b = ab
    w = tuple(w)
    lengths = run_lengths(w)
    if any(n > b for n in lengths):
        raise ValueError("a run longer than b has no closure")
    if not w:
        return w
    if len(lengths) == 1:
        return (w[0],) * b if lengths[0] > a else w
    head = (w[0],) * (b - lengths[0]) if lengths[0] > a else ()
    tail = (w[-1],) * (b - lengths[-1]) if lengths[-1] > a else ()
    return head + w + tail


def derivative(w, ab) -> tuple:
    a, b = ab
    if failure_reason(w, ab) is not None:
        raise ValueError("not differentiable")
    lengths = run_lengths(w)
    if not lengths:
        return ()
    if len(lengths) == 1:
        return (b,) if lengths[0] == b else ()
    if lengths[0] != b:
        lengths = lengths[1:]
    if lengths[-1] != b:
        lengths = lengths[:-1]
    return tuple(lengths)


def rho(w, ab) -> tuple:
    return derivative(closure(w, ab), ab)


def chain(w, ab) -> tuple[list[tuple], str, tuple[int, str] | None]:
    """Levels w, rho(w), ... with the verdict and (level, reason) of a failure."""
    a, b = ab
    w = tuple(w)
    if any(c != a and c != b for c in w):
        return [w], "not-smooth", (0, BAD_LETTER)
    levels = [w]
    while levels[-1]:
        reason = failure_reason(levels[-1], ab)
        if reason is not None:
            return levels, "not-smooth", (len(levels) - 1, reason)
        levels.append(rho(levels[-1], ab))
    return levels, "smooth", None


_SMOOTH_MEMO: dict = {}


def is_smooth(w, ab) -> bool:
    """Smoothness by iterating rho, memoised on (alphabet, word)."""
    a, b = ab
    w = tuple(w)
    if any(c != a and c != b for c in w):
        return False
    path = []
    verdict = True
    while w:
        key = (ab, w)
        known = _SMOOTH_MEMO.get(key)
        if known is not None:
            verdict = known
            break
        path.append(key)
        if failure_reason(w, ab) is not None:
            verdict = False
            break
        w = rho(w, ab)
    for key in path:
        _SMOOTH_MEMO[key] = verdict
    if len(_SMOOTH_MEMO) > 2_000_000:
        _SMOOTH_MEMO.clear()
    return verdict


def smooth_words(ab, n: int) -> list[list[tuple]]:
    """All smooth words by length 0..n, lexicographic within a length.

    Prefix pruning is valid because every factor of a smooth word is smooth,
    so a word with a non-smooth prefix has no smooth extension.
    """
    by_len: list[list[tuple]] = [[()]]
    for _ in range(n):
        by_len.append([w + (c,) for w in by_len[-1] for c in ab
                       if is_smooth(w + (c,), ab)])
    return by_len


def power_bases(ab, n: int, L: int, by_len=None) -> list[tuple]:
    """Smooth bases u, 1 <= |u| <= L, in shortlex order, with u^n smooth."""
    by_len = by_len or smooth_words(ab, L)
    return [u for length in range(1, L + 1) for u in by_len[length]
            if is_smooth(u * n, ab)]


def middle(du, dv, dfull):
    """The slice w with dfull = du + w + dv, or None."""
    if len(du) + len(dv) > len(dfull):
        return None
    if dfull[:len(du)] != du or dfull[len(dfull) - len(dv):] != dv:
        return None
    return dfull[len(du):len(dfull) - len(dv)]


def concat_census(ab, L: int, xs) -> tuple[int, int, set]:
    """Count smooth triples u·x·v with |u|, |v| <= L and x from ``xs``.

    Returns (triples, triples without a middle slice, set of middles), where
    the middle of a triple is w in D(uxv) = D(u) w D(v) and D is the plain
    derivative.  The v side is walked letter by letter with prefix pruning.
    """
    words = [w for level in smooth_words(ab, L) for w in level]
    tested = 0
    missing = 0
    middles: set = set()
    for x in xs:
        x = tuple(x)
        for u in words:
            seed = u + x
            if not is_smooth(seed, ab):
                continue
            du = derivative(u, ab)
            frontier = [()]
            while frontier:
                v = frontier.pop()
                tested += 1
                mid = middle(du, derivative(v, ab), derivative(seed + v, ab))
                if mid is None:
                    missing += 1
                else:
                    middles.add(mid)
                if len(v) < L:
                    frontier.extend(v + (c,) for c in ab if is_smooth(seed + v + (c,), ab))
    return tested, missing, middles


def kolakoski(ab, first: int, length: int) -> tuple:
    """Prefix of the word whose run lengths spell the word itself.

    Run j has the letter alternating from ``first`` and the length given by
    letter j; when run j starts at position j its own letter is that length.
    """
    a, b = ab
    out: list[int] = []
    j = 0
    cur = first
    while len(out) < length:
        out.extend([cur] * (out[j] if j < len(out) else cur))
        cur = b if cur == a else a
        j += 1
    return tuple(out[:length])


def power_levels(u, n: int, ab) -> list[tuple[tuple, tuple]]:
    """(D^j(u), D^j(u^n)) for j = 1..k, k the first level where D^k(u) has < 2 runs."""
    base = tuple(u)
    power = base * n
    out = []
    while len(run_lengths(base)) >= 2:
        base = derivative(base, ab)
        power = derivative(power, ab)
        out.append((base, power))
    return out


# The middle-word tables as the paper states them, by alphabet class.  They
# are the x values of table-mode certification.
_TABLE_12 = ("", "1", "2", "12", "21", "11", "22", "112", "211", "121", "122",
             "221", "212", "1121", "1211", "1212", "2121", "2112", "1221",
             "1122", "2211", "11211")
_TABLE_14 = ("", "1", "4", "14", "41", "11", "44", "111", "411", "114", "141",
             "414", "1111", "4111", "1114")


def paper_table(ab) -> list[tuple]:
    a, b = ab
    if ab == (1, 2):
        words = [tuple(int(c) for c in t) for t in _TABLE_12]
    elif ab == (1, 4):
        words = [tuple(int(c) for c in t) for t in _TABLE_14]
    elif a == 1 and b >= 5:
        words = [(), (1,), (b,), (1, b), (b, 1), (1, 1), (b, b),
                 (1, 1, b), (b, 1, 1), (1, 1, 1), (1, 1, 1, 1)]
    elif a == 2:
        words = [(), (2,), (b,), (2, b), (b, 2), (2, 2), (b, b), (2, 2, 2)]
    elif a >= 3:
        words = [(), (a,), (b,), (a, a), (b, b), (a, b), (b, a)]
    else:
        raise ValueError(f"no table-mode certification for {ab}")
    return sorted(set(words), key=shortlex)


def shortlex(w):
    return (len(w), tuple(w))


def to_text(w) -> str:
    """Digit string when every letter is at most 9, else the comma form."""
    w = tuple(w)
    if not w:
        return ""
    if max(w) <= 9:
        return "".join(map(str, w))
    if len(w) == 1:
        return f"{w[0]},"
    return ",".join(map(str, w))


def from_text(s: str) -> tuple:
    s = s.strip()
    if not s:
        return ()
    if "," in s:
        return tuple(int(p) for p in s.split(",") if p != "")
    return tuple(int(c) for c in s)


def self_check() -> list[str]:
    """Facts from the paper the oracle must reproduce; returns the failures."""
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got!r}, want {want!r}")

    by12 = smooth_words((1, 2), 40)
    expect("smooth words of length 1..3 over {1,2}",
           [len(by12[n]) for n in (1, 2, 3)], [2, 4, 6])
    k = kolakoski((1, 2), 1, 2000)
    expect("Kolakoski run lengths spell the word", delta(k)[:-1], k[:len(delta(k)) - 1])
    expect("Kolakoski prefix is smooth over {1,2}", is_smooth(k, (1, 2)), True)
    squares = {u * 2 for u in power_bases((1, 2), 2, 40, by12)}
    expect("smooth squares over {1,2} with |u| <= 40", len(squares), 46)
    expect("smooth cubes over {1,2} with |u| <= 40", power_bases((1, 2), 3, 40, by12), [])
    expect("(2233322233)^3 is smooth over {2,3}",
           is_smooth(from_text("2233322233") * 3, (2, 3)), True)
    u, x, v = from_text("13"), from_text("1113"), from_text("33")
    expect("13·1113·33 is smooth over {1,3}", is_smooth(u + x + v, (1, 3)), True)
    expect("13·1113·33 forces the middle 133",
           middle(derivative(u, (1, 3)), derivative(v, (1, 3)),
                  derivative(u + x + v, (1, 3))), from_text("133"))
    expect("rho(22122) over {1,2}", to_text(rho(from_text("22122"), (1, 2))), "212")
    return problems


if __name__ == "__main__":
    failures = self_check()
    for line in failures:
        print("FAIL", line)
    print("oracle self-check:", "FAIL" if failures else "ok")
    sys.exit(1 if failures else 0)
