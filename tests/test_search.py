"""The incremental engine must agree exactly with the literal chain."""

import ast
import os
import subprocess
import sys
import time
from functools import partial
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from smoothwords import (Alphabet, Word, certify_concat, complement, enumerate_smooth, gamma,
                         is_smooth, kolakoski_prefix, runs, scan_powers, smooth_chain)
from smoothwords import census, concat, search
from smoothwords.core import run_lengths
from smoothwords.search import (complement_tower, derivative_from_runs,
                                is_smooth_fast, map_tasks, power_hits, push_copies,
                                seeded_state, walk)

from conftest import fresh_env


def push(tower: tuple, letter: int, a: int, b: int) -> tuple | None:
    return push_copies(Alphabet(a, b), tower, (letter,), 1)


def test_engine_matches_chain_exhaustively():
    cases = [(Alphabet(1, 2), 13), (Alphabet(1, 3), 13),
             (Alphabet(2, 4), 10), (Alphabet(2, 5), 10), (Alphabet(3, 4), 10)]
    for ab, max_len in cases:
        for n in range(max_len + 1):
            for tup in product(ab.letters, repeat=n):
                w = Word(tup)
                assert is_smooth_fast(w, ab) == smooth_chain(w, ab).is_smooth, (ab, w)


def test_engine_rejects_foreign_letters():
    assert not is_smooth_fast((5,), Alphabet(1, 2))
    assert not is_smooth_fast((1, 9, 1), Alphabet(1, 2))


@given(st.data())
def test_first_failed_push_is_at_the_shortest_non_smooth_prefix(data):
    a = data.draw(st.integers(min_value=1, max_value=11), label="a")
    b = data.draw(st.integers(min_value=a + 1, max_value=12), label="b")
    ab = Alphabet(a, b)
    # Runs of length a or b keep most words smooth for long; any other
    # length up to b + 1 breaks them somewhere.
    lengths = data.draw(st.lists(st.one_of(st.sampled_from(ab.letters),
                                           st.integers(min_value=1, max_value=b + 1)),
                                 max_size=200), label="run lengths")
    letter = data.draw(st.sampled_from(ab.letters), label="first letter")
    w = []
    for n in lengths:
        w += [letter] * n
        letter = ab.complement_of(letter)
    w = w[:200]
    tower, pushed = (), 0
    for c in w:
        tower = push(tower, c, a, b)
        pushed += 1
        if tower is None:
            break
    # Smooth words are closed under prefixes, so the first failure must come
    # at the shortest prefix that is not smooth, and only there.
    assert (tower is None) == (not smooth_chain(Word(w[:pushed]), ab).is_smooth), (ab, w)
    assert smooth_chain(Word(w[:pushed - (tower is None)]), ab).is_smooth, (ab, w)


def test_third_letter_of_a_run_over_12_fails():
    tower = seeded_state(Alphabet(1, 2), (1, 1))
    assert tower is not None
    assert push(tower, 1, 1, 2) is None
    assert push(tower, 2, 1, 2) is not None


def test_fast_derivative_matches_public():
    from smoothwords import derivative
    ab = Alphabet(1, 3)
    for n in range(11):
        for tup in product(ab.letters, repeat=n):
            w = Word(tup)
            if is_smooth(w, ab):
                assert derivative_from_runs(run_lengths(tuple(w)), ab.b) == tuple(derivative(w, ab))


def test_enumerator_orders_and_counts():
    ab = Alphabet(1, 2)
    words = enumerate_smooth(ab, 4, min_len=0)
    by_len = [[w for w in words if len(w) == k] for k in range(5)]
    assert by_len[0] == [Word()]
    assert by_len[1] == [Word("1"), Word("2")]
    assert by_len[2] == [Word("11"), Word("12"), Word("21"), Word("22")]
    assert len(by_len[3]) == 6
    assert words == sorted(words, key=lambda w: (len(w), w))  # shortlex
    assert all(type(w) is Word for w in words)  # the b-half built by complement too
    # a deeper call keeps the shorter lengths consistent
    assert enumerate_smooth(ab, 6, min_len=0)[:len(words)] == words
    assert len(enumerate_smooth(ab, 3, min_len=1)) == 2 + 4 + 6


def _towers_by_push(ab: Alphabet, max_len: int) -> list[tuple[tuple, tuple]]:
    """(tower, word) for every smooth word up to ``max_len`` letters, the
    empty word included, in preorder, built by :func:`push` alone."""
    found = []

    def grow(tower, word):
        found.append((tower, word))
        if len(word) < max_len:
            for c in ab.letters:
                child = push(tower, c, ab.a, ab.b)
                if child is not None:
                    grow(child, word + (c,))

    grow((), ())
    return found


def _pushed(ab: Alphabet, tower, letters, copies):
    for _ in range(copies):
        for c in letters:
            if tower is None:
                return None
            tower = push(tower, c, ab.a, ab.b)
    return tower


@pytest.mark.parametrize("a, b", [(1, 2), (1, 3), (2, 5), (3, 4), (10, 12)])
def test_inline_bottom_level_agrees_with_push(a, b):
    # walk builds the bottom level of a tower inline, and so does
    # push_copies, which push and seeded_state run on; every tower must be
    # push's, which test_interned_towers_match_the_reference_engine checks
    # against nested towers.
    ab = Alphabet(a, b)
    nodes = _towers_by_push(ab, 12)
    whole = []
    walk(ab, (), [], 12, lambda tower, path: whole.append((tower, tuple(path))))
    assert whole == nodes
    for tower, word in nodes:
        assert seeded_state(ab, word) == _pushed(ab, (), word, 1), word
        visited = []
        walk(ab, tower, list(word), len(word) + 1,
             lambda t, path: visited.append((t, tuple(path))))
        children = [(push(tower, c, a, b), word + (c,)) for c in ab.letters]
        assert visited == [(tower, word)] + [(t, w) for t, w in children if t is not None]
        for start in (tower, ()):
            for copies in range(4):
                assert push_copies(ab, start, word, copies) == \
                    _pushed(ab, start, word, copies), (word, start, copies)


def test_seeded_walk_completeness():
    ab = Alphabet(1, 2)
    seed = (2, 2)
    seen = set()
    walk(ab, seeded_state(ab, seed), [], 5, lambda tower, path: seen.add(tuple(path)))
    # oracle: plain filter over all suffixes
    expected = {tup for n in range(6) for tup in product(ab.letters, repeat=n)
                if is_smooth(Word(seed + tup), ab)}
    assert seen == expected


def test_seeded_walk_dead_seed():
    # A seed that is not smooth yields no state, so there is nothing to walk.
    assert seeded_state(Alphabet(1, 2), (1, 1, 1)) is None


@settings(deadline=None)
@given(st.data())
def test_walk_visits_the_smooth_extensions_in_preorder(data):
    a = data.draw(st.integers(min_value=1, max_value=8), label="a")
    b = data.draw(st.integers(min_value=a + 1, max_value=9), label="b")
    ab = Alphabet(a, b)
    seed = data.draw(st.lists(st.sampled_from(ab.letters), max_size=3), label="seed")
    max_len = data.draw(st.integers(min_value=len(seed), max_value=12), label="max_len")
    visited = []
    tower = seeded_state(ab, seed)
    if tower is not None:
        path = list(seed)
        walk(ab, tower, path, max_len, lambda tower, path: visited.append(tuple(path)))
        assert path == seed
    # Preorder with a tried before b is the lexicographic order of the words,
    # since a < b and a prefix sorts before its extensions.
    expected = [w for n in range(len(seed), max_len + 1)
                for w in product(ab.letters, repeat=n)
                if list(w[:len(seed)]) == seed and smooth_chain(Word(w), ab).is_smooth]
    assert visited == sorted(expected), (ab, seed, max_len)


def test_equal_towers_have_equal_smooth_extensions():
    # The certifier walks v once per tower of u·x, which is exact only if
    # the tower alone decides which words extend a smooth word smoothly.
    for a, b in [(1, 2), (1, 3), (2, 5), (3, 4)]:
        ab = Alphabet(a, b)
        groups = {}
        for w in enumerate_smooth(ab, 9, min_len=0):
            groups.setdefault(seeded_state(ab, w), []).append(w)
        tails = [t for n in range(1, 5) for t in product(ab.letters, repeat=n)]
        for words in groups.values():
            extensions = {frozenset(t for t in tails if smooth_chain(w + t, ab).is_smooth)
                          for w in words}
            assert len(extensions) == 1, (ab, words)
        assert len(groups) < sum(map(len, groups.values())), ab
        if (a, b) == (1, 2):
            # Over {1,2} words share a tower only because it keeps a flag
            # "more than one run", not a run count.
            assert any(len({runs(w).r for w in words}) > 1 for words in groups.values())


def test_fused_power_scan_matches_chain():
    # Differential check of the power test fused into the walk (the junction
    # check, then the pushed copies) against the literal chain of each whole
    # power: every alphabet with b <= 6, up to the exponent b + 1 (and at
    # least 5).
    for b in range(2, 7):
        for a in range(1, b):
            ab = Alphabet(a, b)
            bases = enumerate_smooth(ab, 14, min_len=1)
            for n in range(2, max(b + 2, 6)):
                expected = [u for u in bases if smooth_chain(u * n, ab).is_smooth]
                got = [w.base for w in scan_powers(ab, n, 14).witnesses]
                assert got == expected, (ab, n)


@settings(deadline=None)
@given(st.data())
def test_junction_check_rejects_only_non_smooth_squares(data):
    # power_hits rejects a base of two or more runs by its junction in u·u
    # before it pushes any copy; a base it rejects must have a non-smooth
    # square, so no power of it is smooth.
    a = data.draw(st.integers(min_value=1, max_value=8), label="a")
    b = data.draw(st.integers(min_value=a + 1, max_value=9), label="b")
    ab = Alphabet(a, b)
    lengths = data.draw(st.lists(st.one_of(st.sampled_from(ab.letters),
                                           st.integers(min_value=1, max_value=b)),
                                 min_size=2, max_size=12), label="run lengths")
    letter = data.draw(st.sampled_from(ab.letters), label="first letter")
    n = data.draw(st.integers(min_value=2, max_value=4), label="n")
    w = []
    for k in lengths:
        w += [letter] * k
        letter = ab.complement_of(letter)
    u = Word(max((w[:k] for k in range(1, len(w) + 1) if is_smooth_fast(w[:k], ab)), key=len))
    assume(runs(u).r >= 2)
    pushed = []
    real = search.push_copies

    def recording(ab_, tower, letters, copies):
        if tower:  # not the seeding of the walk's root
            pushed.append(tuple(letters))
        return real(ab_, tower, letters, copies)

    search.push_copies = recording
    try:
        hits = power_hits(ab, n, len(u), u, len(u))
    finally:
        search.push_copies = real
    if not pushed:
        assert not smooth_chain(u * 2, ab).is_smooth, (ab, u)
    assert hits[len(u):] == ([[u]] if smooth_chain(u * n, ab).is_smooth else []), (ab, u, n)


def _bottom_class(tower: tuple, ab: Alphabet) -> tuple:
    """What the walk's expansion tells apart in a bottom level: one run or
    more, and the last run's length below a, a, between a and b, or b."""
    runs, _, length, _ = tower
    return (runs, length < ab.a, length == ab.a, ab.a < length < ab.b, length == ab.b)


@pytest.mark.parametrize("a, b", [(2, 4), (2, 5), (3, 5)])
def test_walk_expands_every_bottom_level(a, b):
    # Seed the walk at bottom levels of every kind the expansion tells apart
    # (the empty tower; one run or more, each with a last run shorter than a,
    # of length a, between a and b, or of length b; either last letter) and
    # compare its visits with the literal calculus, max_len == len(seed)
    # included.
    ab = Alphabet(a, b)
    seeds = [()]
    for c in ab.letters:
        d = ab.complement_of(c)
        for k in range(1, b + 1):
            seeds.append((c,) * k)
            for r in (1, b):
                seeds.append((d,) * r + (c,) * k)
                for m in ab.letters:  # an interior run of length a or b
                    seeds.append((c,) * r + (d,) * m + (c,) * k)
    seeds = [seed for seed in seeds if seeded_state(ab, seed) is not None]
    classes = {_bottom_class(seeded_state(ab, seed), ab) for seed in seeds if seed}
    assert len(classes) == 8, classes
    for seed in seeds:
        for extra in (0, 1, 3):
            max_len = len(seed) + extra
            path = list(seed)
            visited = []
            walk(ab, seeded_state(ab, seed), path, max_len,
                 lambda t, p: visited.append((tuple(p), t)))
            assert path == list(seed)
            expected = [seed + t for k in range(extra + 1) for t in product(ab.letters, repeat=k)
                        if smooth_chain(Word(seed + t), ab).is_smooth]
            assert [w for w, _ in visited] == sorted(expected), (seed, max_len)
            assert all(t == seeded_state(ab, w) for w, t in visited), (seed, max_len)


def _current_depth() -> int:
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_enumeration_depth_is_not_bounded_by_recursion():
    # A recursive walk would need one frame per letter: 150 letters over
    # {7,9} is 50 more frames than allowed here.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_current_depth() + 100)
    try:
        words = enumerate_smooth(Alphabet(7, 9), 150, min_len=0)
    finally:
        sys.setrecursionlimit(limit)
    assert len(words) == 44785
    longest = [w for w in words if len(w) == 150]
    assert longest and all(is_smooth_fast(w, Alphabet(7, 9)) for w in longest[:20])


def test_push_depth_is_bounded_by_tower_height():
    # The 100,000-letter prefixes have towers 27 ({1,2}) and 15 ({1,3})
    # levels high, and checking them must fit in 50 frames.  A table miss
    # recurses once per level it climbs, and these words climb at most one
    # level per miss (their upper towers are those of their own shorter
    # prefixes), so this checks the engine on warm tables; a climb through
    # all 27 levels at once is pinned by
    # test_push_depth_on_cold_tables_is_bounded.
    words = [(ab, kolakoski_prefix(ab, 1, 100_000)) for ab in (Alphabet(1, 2), Alphabet(1, 3))]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_current_depth() + 50)
    try:
        verdicts = [is_smooth_fast(w, ab) for ab, w in words]
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == [True, True]


COLD_DEPTH_CHECK = """
import ast, sys
from smoothwords import Alphabet, kolakoski_prefix
from smoothwords import search
from smoothwords.search import is_smooth_fast, push_copies

def push(tower, letter, a, b):
    return push_copies(Alphabet(a, b), tower, (letter,), 1)

def current_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth

# A level (runs, last, length, upper state) packed as the table packs it.
def intern(table, tower):
    if not tower:
        return 0
    runs, last, length, upper = tower
    code = ((intern(table, upper) * (table.b + 1) + length) * 2 + (last == table.b)) * 2 + runs - 1
    if code not in table.ids:
        table.ids[code] = len(table.levels)
        table.levels.append(code)
        table.on_a.append(0)
        table.on_b.append(0)
    return table.ids[code]

def nested(table, state):
    if not state:
        return ()
    rest, more = divmod(table.levels[state], 2)
    rest, is_b = divmod(rest, 2)
    upper, length = divmod(rest, table.b + 1)
    return (more + 1, table.b if is_b else table.a, length, nested(table, upper))

assert not search._tables
# The states of a tower 27 levels high and none of their successors: the
# push below misses and climbs through every level.
table = search._tables[1, 2] = search._Table(1, 2)
reference, letter, expected = ast.literal_eval(sys.stdin.read())
tower = reference[:3] + (intern(table, reference[3]),)
words = [(ab, kolakoski_prefix(ab, 1, 100_000)) for ab in (Alphabet(1, 2), Alphabet(1, 3))]
sys.setrecursionlimit(current_depth() + 50)
child = push(tower, letter, 1, 2)
verdicts = [is_smooth_fast(w, ab) for ab, w in words]
sys.setrecursionlimit(1000)
assert child[:3] + (nested(table, child[3]),) == expected
assert sum(map(bool, table.on_a + table.on_b)) >= 27
print(verdicts)
"""


def _height(tower: tuple) -> int:
    height = 0
    while tower:
        height, tower = height + 1, tower[3]
    return height


def _top_growth() -> tuple[tuple, int, tuple, int]:
    """(tower, letter, child, k) for the last letter of the 100,000-letter
    Kolakoski prefix over {1,2} that makes its tower higher: the nested
    towers of the prefix of k letters and of that prefix and the letter."""
    word = kolakoski_prefix(Alphabet(1, 2), 1, 100_000)
    tower = ()
    for k, c in enumerate(word):
        child = _reference_push(tower, c, 1, 2)
        if _height(child) > _height(tower):
            grew = (tower, c, child, k)
        tower = child
    return grew


def test_push_depth_on_cold_tables_is_bounded():
    # The Kolakoski checks of test_push_depth_is_bounded_by_tower_height in a
    # fresh interpreter, so the tables of upper states start empty, within the
    # same 50-frame budget.  Those words share their upper towers with their
    # own shorter prefixes, so their misses climb one level or two; the check
    # first pushes the letter that makes the {1,2} tower 27 levels high onto
    # a table that holds the tower's states but none of their successors, a
    # miss that recurses through every level.
    grew = _top_growth()[:3]
    assert _height(grew[2]) == 27
    env = fresh_env()
    proc = subprocess.run([sys.executable, "-c", COLD_DEPTH_CHECK], env=env, input=repr(grew),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[True, True]\n")


def test_cold_miss_calls_climb_once_per_level(monkeypatch):
    # The miss of test_push_depth_on_cold_tables_is_bounded in this process,
    # on a fresh table that holds the states of the prefix's tower and none
    # of their successors: the letter climbs every level above the bottom,
    # the new top included, with one _climb call each.
    _, letter, expected, k = _top_growth()
    ab = Alphabet(1, 2)
    word = kolakoski_prefix(ab, 1, k)
    monkeypatch.setattr(search, "_tables", {})
    tower = seeded_state(ab, word)
    table = search._table(1, 2)
    table.on_a[:] = table.on_b[:] = [0] * len(table.levels)
    climb, calls = search._climb, []

    def counted(table, state, letter):
        calls.append(state)
        return climb(table, state, letter)

    monkeypatch.setattr(search, "_climb", counted)
    child = push(tower, letter, 1, 2)
    assert len(calls) == _height(expected) - 1 == 26
    assert calls[-1] == 0  # the empty tower above the old top
    assert child == seeded_state(ab, word + (letter,))


def _reference_push(tower: tuple, letter: int, a: int, b: int) -> tuple | None:
    """The engine before its upper levels were interned: every level a
    nested tuple (runs, last, length, upper), one recursive call per level."""
    if not tower:
        return (1, letter, 1, ())
    runs, last, length, upper = tower
    if letter == last:
        if length == b:
            return None
        if length == a:
            upper = _reference_push(upper, b, a, b)
            if upper is None:
                return None
        return (runs, last, length + 1, upper)
    if runs > 1:
        if length == a:
            upper = _reference_push(upper, a, a, b)
            if upper is None:
                return None
        elif length != b:
            return None
    return (2, letter, 1, upper)


@pytest.mark.parametrize("a, b", [(1, 2), (1, 3), (2, 3), (2, 5), (3, 4)])
def test_interned_towers_match_the_reference_engine(a, b):
    # Every smooth word up to 12 letters and each one-letter extension: the
    # same verdict, and equal towers exactly when the nested towers are equal.
    pairs = set()
    frontier = [((), ())]
    for _ in range(13):
        pairs.update(frontier)
        frontier = _grown(frontier, a, b)
    pairs.update(frontier)
    assert len({r for r, _ in pairs}) == len({t for _, t in pairs}) == len(pairs)


def _grown(frontier: list, a: int, b: int) -> list:
    """The one-letter extensions of each (nested tower, tower) pair over
    {a, b}, by the reference engine and by push, which must agree on each
    verdict."""
    grown = []
    for reference, tower in frontier:
        for c in (a, b):
            child = (_reference_push(reference, c, a, b), push(tower, c, a, b))
            assert (child[0] is None) == (child[1] is None), (reference, c)
            if child[0] is not None:
                grown.append(child)
    return grown


def test_held_towers_stay_valid_across_alphabets():
    # Towers of {1,2} words held while scans over {1,3} and {2,5} fill their
    # own tables, then extended with a push over each of those alphabets
    # between two over {1,2}: every push finds its table by (a, b), so the
    # held towers must still extend as the reference engine says.
    frontier = [((), ())]
    for _ in range(8):
        frontier = _grown(frontier, 1, 2)
    scan_powers(Alphabet(1, 3), 3, 30)
    scan_powers(Alphabet(2, 5), 2, 40)
    others = {(1, 3): [((), ())], (2, 5): [((), ())]}
    pairs = set(frontier)
    for _ in range(6):
        grown = []
        for pair in frontier:
            grown += _grown([pair], 1, 2)
            for (a, b), queue in others.items():
                others[a, b] = queue[1:] + _grown(queue[:1], a, b)
        frontier = grown
        pairs.update(frontier)
    assert len({r for r, _ in pairs}) == len({t for _, t in pairs}) == len(pairs)


# The bulk walks visit only the words that start with a and build the rest
# by the complement, so they are checked here against lists built without
# the walker: every word of each length, filtered by the literal calculus.
SYMMETRY_CASES = [((1, 2), 12), ((1, 3), 12), ((2, 3), 11), ((2, 5), 10),
                  ((3, 4), 10), ((1, 5), 11)]


def _oracle_smooth_by_length(ab: Alphabet, max_len: int) -> list[list[Word]]:
    # product() yields each length's words in lexicographic order.
    return [[w for w in map(Word, product(ab.letters, repeat=k)) if is_smooth(w, ab)]
            for k in range(max_len + 1)]


def test_halved_walks_match_literal_oracle():
    for (a, b), max_len in SYMMETRY_CASES:
        ab = Alphabet(a, b)
        by_len = _oracle_smooth_by_length(ab, max_len)
        for k in range(max_len + 1):
            assert enumerate_smooth(ab, k) == by_len[k], (ab, k)
        for low in (0, 1, max_len):
            expected = [w for level in by_len[low:] for w in level]
            assert enumerate_smooth(ab, max_len, min_len=low) == expected, (ab, low)
        bases = [w for level in by_len[1:] for w in level]
        _, report = gamma(ab, 1, max_len)
        assert [w.base for w in report.witnesses] == bases, ab
        for n in range(2, 6):
            expected = [u for u in bases if smooth_chain(u * n, ab).is_smooth]
            for jobs in (1, 2):
                got = [w.base for w in scan_powers(ab, n, max_len, jobs=jobs).witnesses]
                assert got == expected, (ab, n, jobs)


@given(st.data())
def test_complement_keeps_smoothness(data):
    a = data.draw(st.integers(min_value=1, max_value=6), label="a")
    b = data.draw(st.integers(min_value=a + 1, max_value=9), label="b")
    ab = Alphabet(a, b)
    w = data.draw(st.lists(st.sampled_from(ab.letters), max_size=60), label="w")
    assert is_smooth_fast(complement(w, ab), ab) == is_smooth_fast(w, ab)


def test_power_test_matches_literal_power():
    ab = Alphabet(2, 3)
    for u in ("2233322233", "23", "22", "3", ""):
        for n in range(1, 5):
            w = Word(u)
            assert (seeded_state(ab, w, n) is not None) == is_smooth(w * n, ab), (u, n)
    assert seeded_state(ab, (1,), 2) is None  # a letter outside the alphabet


@pytest.mark.parametrize("letters, n", [((1, 1, 1), 1), ((1, 3), 1), ((1, 2), 3),
                                        ((1, 1, 2), 2), ((2, 1, 3), 2)])
def test_letters_may_be_an_iterator(letters, n):
    # The letters are read more than once (membership, then the pushes).
    ab = Alphabet(1, 2)
    want = seeded_state(ab, letters, n)
    assert seeded_state(ab, iter(letters), n) == want
    assert is_smooth_fast(iter(letters), ab) == is_smooth_fast(letters, ab)


def test_huge_exponent_stops_at_the_first_failed_copy():
    # 10**20 copies cannot be built; the copies are pushed one at a time and
    # the first failure ends the test.
    ab = Alphabet(1, 2)
    assert seeded_state(ab, Word("1211"), 10**20) is None
    assert power_hits(ab, 10**20, 6, (1,)) == []  # no hit, so no list
    assert scan_powers(ab, 10**20, 4).witnesses == ()


@given(st.data())
def test_copies_give_the_tower_of_the_repeated_word(data):
    # seeded_state pushes k copies without building the word: the tower, or
    # None, must be that of the built word, also when the letters are an
    # iterator.  Runs of length a or b keep many words smooth.
    a = data.draw(st.integers(min_value=1, max_value=8), label="a")
    b = data.draw(st.integers(min_value=a + 1, max_value=9), label="b")
    ab = Alphabet(a, b)
    lengths = data.draw(st.lists(st.one_of(st.sampled_from(ab.letters),
                                           st.integers(min_value=1, max_value=b + 1)),
                                 max_size=30), label="run lengths")
    w, letter = [], data.draw(st.sampled_from(ab.letters), label="first letter")
    for n in lengths:
        w += [letter] * n
        letter = ab.complement_of(letter)
    w = w[:30]
    if w and data.draw(st.booleans(), label="foreign"):
        foreign = data.draw(st.integers(min_value=0, max_value=10).filter(
            lambda c: c not in ab.letters), label="foreign letter")
        w[data.draw(st.integers(min_value=0, max_value=len(w) - 1), label="at")] = foreign
    k = data.draw(st.integers(min_value=1, max_value=4), label="k")
    want = seeded_state(ab, tuple(w) * k)
    assert seeded_state(ab, w, k) == want
    assert seeded_state(ab, iter(w), k) == want


# Search functions that return a tower: a name bound to their result holds one.
_TOWER_MAKERS = {"seeded_state", "push_copies", "complement_tower"}


def _tower_reads(source: str) -> list[int]:
    """The lines of ``source`` that read a tower's fields: a constant-index
    subscript of a name that holds a tower, or an unpacking of one into four
    names.  A name holds a tower when it says so ("tower" is in it) or is
    bound to a call of a search function that returns one.  An index that
    is not constant (``towers[prefix]``) looks a tower up, so it passes."""
    tree = ast.parse(source)
    holders = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.NamedExpr)) and isinstance(node.value, ast.Call):
            func = node.value.func
            if getattr(func, "attr", getattr(func, "id", None)) in _TOWER_MAKERS:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                holders |= {t.id for t in targets if isinstance(t, ast.Name)}

    def holds(node) -> bool:
        return isinstance(node, ast.Name) and ("tower" in node.id or node.id in holders)

    def constant(node) -> bool:
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        if isinstance(node, ast.Slice):
            return all(part is None or constant(part)
                       for part in (node.lower, node.upper, node.step))
        return isinstance(node, ast.Constant)

    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and holds(node.value) and constant(node.slice):
            lines.add(node.lineno)
        elif isinstance(node, ast.Assign) and holds(node.value) and any(
                isinstance(t, ast.Tuple) and len(t.elts) == 4 for t in node.targets):
            lines.add(node.lineno)
    return sorted(lines)


def test_tower_reads_are_found():
    source = """
many = (tower[0] > 1, tower[2], tower[-3]) if tower else None
runs, last, length, upper = ux_tower
fork = push_copies(ab, tower, (b,), 1)
head = fork[:2]
if (t := seeded_state(ab, w)) is not None:
    level = t[3]
found = towers[prefix]
runs, last = pair
"""
    assert _tower_reads(source) == [2, 3, 5, 7]


def test_only_search_reads_a_tower():
    # A tower's layout is search's to know: every other module reads a
    # bottom level through search.bottom_level.
    package = Path(search.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "search.py")
    assert len(modules) >= 9
    reads = {p.name: lines for p in modules if (lines := _tower_reads(p.read_text()))}
    assert reads == {}


def _fake_cpus(monkeypatch, count):
    """This process's CPU mask reads as ``count`` CPUs, and setting it does
    nothing, so the worker count never depends on the machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)


def test_pool_never_has_more_workers_than_tasks(monkeypatch):
    tasks, forks = [], []

    def recording_map(fn, task_list, jobs):
        tasks.append(len(task_list))
        return search.map_tasks(fn, task_list, jobs)

    def recording_fork(real_fork=os.fork):
        forks.append(1)  # only this process's list is read
        return real_fork()

    monkeypatch.setattr(census, "map_tasks", recording_map)
    monkeypatch.setattr(concat, "map_tasks", recording_map)
    monkeypatch.setattr(os, "fork", recording_fork)
    _fake_cpus(monkeypatch, 64)

    def forks_and_tasks(run, jobs):
        """Run ``run(jobs)`` against ``run(1)``; the forks and task counts
        of the ``jobs`` run."""
        expected = run(1)
        del tasks[:], forks[:]
        assert run(jobs) == expected
        return len(forks), tasks

    # A certify-concat task is one tower of u·x, a u·x that ends in b counted
    # under its complement's.  Over {3,4} at L = 1 the words u·x (u in ε, 3,
    # 4; x in the table) have six such towers: ε; 3, 4; 33, 44; 333, 444;
    # 344, 433; and 34, 43, 334, 443 share one.  So six tasks for sixteen
    # jobs: six workers, this process and five forked children.
    assert forks_and_tasks(partial(certify_concat, Alphabet(3, 4), 1), 16) == (5, [6])
    # With L = 1 the only task is the prefix "1": no child at all.
    assert forks_and_tasks(partial(scan_powers, Alphabet(1, 2), 2, 1), 3) == (0, [1])
    # Nor more workers than CPUs, and the task list ignores jobs: depth 12
    # is the first with 32 smooth words or more that start with 1 (39).
    _fake_cpus(monkeypatch, 2)
    ab = Alphabet(1, 2)
    assert forks_and_tasks(partial(gamma, ab, 2, 20), 5000) == (1, [39])
    count, concat_tasks = forks_and_tasks(partial(certify_concat, ab, 6), 5000)
    assert count == 1 and concat_tasks[0] > 2
    # Where the mask cannot be read the CPUs are os.cpu_count(), which may
    # be None: one worker, in this process, and the same 39 tasks.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert forks_and_tasks(partial(gamma, ab, 2, 20), 5000) == (0, [39])


def test_task_list_is_the_same_for_every_jobs(monkeypatch):
    # Only the worker count follows --jobs: the scans and the certifier hand
    # map_tasks one task list, built from their inputs alone.
    seen = []

    def recording_map(fn, task_list, jobs):
        seen.append(list(task_list))
        return search.map_tasks(fn, task_list, jobs)

    monkeypatch.setattr(census, "map_tasks", recording_map)
    monkeypatch.setattr(concat, "map_tasks", recording_map)
    _fake_cpus(monkeypatch, 4)
    for run in (partial(scan_powers, Alphabet(1, 3), 2, 40), partial(gamma, Alphabet(1, 2), 1, 14),
                partial(certify_concat, Alphabet(1, 3), 4)):
        lists = []
        for jobs in (1, 2, 3):
            del seen[:]
            run(jobs=jobs)
            lists.append(seen[0])
        assert len(lists[0]) > 3
        assert lists[1] == lists[0] and lists[2] == lists[0], run


def _fail_on_four(t):
    if t == 4:
        raise ValueError("task 4")
    return t * t


def test_map_tasks_yields_in_task_order(monkeypatch):
    _fake_cpus(monkeypatch, 3)
    tasks = list(range(5, 15))  # shares of 4, 3 and 3 tasks
    expected = list(map(_fail_on_four, tasks))
    assert list(map_tasks(_fail_on_four, tasks, 3)) == expected
    # Without os.fork (Windows) the same map runs in this process.
    monkeypatch.delattr(os, "fork")
    assert list(map_tasks(_fail_on_four, tasks, 3)) == expected


def test_map_tasks_raises_a_child_error_and_leaves_no_child(monkeypatch):
    _fake_cpus(monkeypatch, 3)
    # Task 4 is in share 1 (tasks 1, 4, 7), which a forked child runs; then
    # in share 0, which this process runs while the children still work.
    for tasks in (list(range(10)), list(range(4, 14))):
        with pytest.raises(ValueError, match="task 4"):
            list(map_tasks(_fail_on_four, tasks, 3))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _sleep_unless_zero(t):
    if t == 0:
        raise ValueError("task 0")
    time.sleep(30)


def test_map_tasks_kills_the_children_when_the_caller_fails(monkeypatch):
    _fake_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(ValueError, match="task 0"):
        list(map_tasks(_sleep_unless_zero, [0, 1], 2))
    assert time.monotonic() - start < 20  # the child's task sleeps 30 s
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_tasks_gives_the_caller_its_cpu_mask_back():
    # On the machine's own mask: after a clean map, a child's error (task 4
    # in share 1 of range(1, 11) or range(10)) and an error in this process
    # (task 4 in share 0 of range(4, 14)).
    before = os.sched_getaffinity(0)
    jobs = max(2, min(len(before), 3))
    tasks = list(range(5, 15))
    assert list(map_tasks(_fail_on_four, tasks, jobs)) == list(map(_fail_on_four, tasks))
    assert os.sched_getaffinity(0) == before
    for tasks in (list(range(1, 11)), list(range(10)), list(range(4, 14))):
        with pytest.raises(ValueError, match="task 4"):
            list(map_tasks(_fail_on_four, tasks, jobs))
        assert os.sched_getaffinity(0) == before


def test_map_tasks_places_each_worker_then_gives_the_mask_back(monkeypatch):
    # Each call to the recording sched_setaffinity lands in the list of the
    # process that made it; a child reports its list through its result.
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {9, 3, 5}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(sorted(cpus)),
                        raising=False)
    records = list(map_tasks(lambda t: (t, list(calls)), [0, 1, 2], 3))
    # The caller forks on the first CPU of its mask and has the whole mask
    # back before it runs task 0; child k starts on the k-th CPU.
    assert records == [(0, [[3], [3, 5, 9]]),
                       (1, [[3], [5], [3, 5, 9]]),
                       (2, [[3], [9], [3, 5, 9]])]
    # The caller is given the mask back after its last fork and again on the
    # way out, also when a child's task or its own raises.
    assert calls == [[3], [3, 5, 9], [3, 5, 9]]
    for tasks in (list(range(10)), list(range(4, 14))):
        del calls[:]
        with pytest.raises(ValueError, match="task 4"):
            list(map_tasks(_fail_on_four, tasks, 3))
        assert calls[0] == [3] and calls[-1] == [3, 5, 9]


def test_map_tasks_without_placement_gives_the_same_results(monkeypatch):
    forks = []

    def recording_fork(real_fork=os.fork):
        forks.append(1)
        return real_fork()

    def refused(pid, cpus):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    tasks = list(range(5, 15))
    expected = list(map(_fail_on_four, tasks))
    monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
    assert list(map_tasks(_fail_on_four, tasks, 3)) == expected
    # No sched_setaffinity at all (macOS).
    monkeypatch.delattr(os, "sched_setaffinity")
    assert list(map_tasks(_fail_on_four, tasks, 3)) == expected
    assert len(forks) == 4


def test_map_tasks_forks_nothing_on_one_cpu(monkeypatch):
    forks, calls = [], []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(cpus),
                        raising=False)
    assert list(map_tasks(abs, [-1, -2, -3], 4)) == [1, 2, 3]
    assert forks == [] and calls == []


UNFLUSHED_CHILD = """
import os
from smoothwords.search import map_tasks
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
real_fork = os.fork
def fork():
    forks.append(1)
    return real_fork()
os.fork = fork
print("before the map")  # buffered: stdout is a pipe
print(list(map_tasks(abs, [-1, -2, -3], 2)), len(forks))
"""


def test_forked_child_never_writes_the_callers_output():
    env = fresh_env()
    proc = subprocess.run([sys.executable, "-c", UNFLUSHED_CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "before the map\n[1, 2, 3] 1\n"


@given(st.data())
def test_complement_tower_is_the_tower_of_the_complement(data):
    a = data.draw(st.integers(min_value=1, max_value=8), label="a")
    b = data.draw(st.integers(min_value=a + 1, max_value=9), label="b")
    ab = Alphabet(a, b)
    letters = data.draw(st.lists(st.sampled_from(ab.letters), min_size=1, max_size=60),
                        label="letters")
    # The longest smooth prefix; a single letter is smooth, so it is not empty.
    w = max((letters[:k] for k in range(1, len(letters) + 1)
             if is_smooth_fast(letters[:k], ab)), key=len)
    assert complement_tower(seeded_state(ab, w), ab) == seeded_state(ab, complement(w, ab))
