"""The incremental engine must agree exactly with the literal chain."""

import sys
from itertools import product

from hypothesis import given, strategies as st

from smoothwords import (Alphabet, Word, complement, enumerate_smooth, gamma, is_smooth,
                         scan_powers, smooth_chain)
from smoothwords.search import (ChainState, SmoothEnumerator, complete_by_complement,
                                fast_derivative, is_power_smooth, is_smooth_fast,
                                power_hits, seeded_state, walk)


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


def test_push_pop_restores_state():
    ab = Alphabet(1, 2)
    state = ChainState(ab)
    for c in (1, 2, 2, 1, 1, 2):
        assert state.push(c)
    snapshot = [list(lv) for lv in state.levels]
    depth = state.depth()
    assert state.push(1)
    state.pop()
    assert [list(lv) for lv in state.levels] == snapshot
    assert state.depth() == depth


def test_rejected_push_leaves_state_untouched():
    ab = Alphabet(1, 2)
    state = ChainState(ab)
    for c in (1, 1):
        assert state.push(c)
    snapshot = [list(lv) for lv in state.levels]
    assert not state.push(1)  # run of three 1s is too long
    assert [list(lv) for lv in state.levels] == snapshot


def test_fast_derivative_matches_public():
    from smoothwords import derivative
    ab = Alphabet(1, 3)
    for n in range(11):
        for tup in product(ab.letters, repeat=n):
            w = Word(tup)
            if is_smooth(w, ab):
                assert fast_derivative(tuple(w), ab.b) == tuple(derivative(w, ab))


def test_enumerator_orders_and_counts():
    enum = SmoothEnumerator()
    ab = Alphabet(1, 2)
    by_len = enum.up_to(ab, 4)
    assert by_len[0] == [Word()]
    assert by_len[1] == [Word("1"), Word("2")]
    assert by_len[2] == [Word("11"), Word("12"), Word("21"), Word("22")]
    assert len(by_len[3]) == 6
    for words in by_len:
        assert words == sorted(words)
    # a deeper call keeps the shorter lengths consistent
    assert enum.up_to(ab, 6)[:5] == by_len
    flat = enum.flat(ab, 3, min_len=1)
    assert len(flat) == 2 + 4 + 6


def test_seeded_walk_completeness():
    ab = Alphabet(1, 2)
    seed = (2, 2)
    seen = set()
    walk(seeded_state(ab, seed), [], 5, lambda path: seen.add(tuple(path)))
    # oracle: plain filter over all suffixes
    expected = {tup for n in range(6) for tup in product(ab.letters, repeat=n)
                if is_smooth(Word(seed + tup), ab)}
    assert seen == expected


def test_seeded_walk_dead_seed():
    # A seed that is not smooth yields no state, so there is nothing to walk.
    assert seeded_state(Alphabet(1, 2), (1, 1, 1)) is None


def test_fused_power_scan_matches_chain():
    # Differential check of the power test fused into the walk against the
    # literal chain of each whole power.
    enum = SmoothEnumerator()
    for a, b in [(1, 2), (1, 3), (2, 3), (2, 5), (3, 4)]:
        ab = Alphabet(a, b)
        bases = enum.flat(ab, 14, min_len=1)
        for n in range(2, 6):
            expected = [u for u in bases if smooth_chain(u * n, ab).is_smooth]
            got = [w.base for w in scan_powers(ab, n, 14).witnesses]
            assert got == expected, (ab, n)


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
        by_len = SmoothEnumerator().up_to(Alphabet(7, 9), 150)
    finally:
        sys.setrecursionlimit(limit)
    assert len(by_len) == 151
    assert sum(map(len, by_len)) == 44785
    assert by_len[150] and all(is_smooth_fast(w, Alphabet(7, 9)) for w in by_len[150][:20])


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
        assert SmoothEnumerator().up_to(ab, max_len) == by_len, ab
        bases = [w for level in by_len[1:] for w in level]
        _, report = gamma(ab, 1, max_len)
        assert [w.base for w in report.witnesses] == bases, ab
        for n in range(2, 6):
            expected = [u for u in bases if smooth_chain(u * n, ab).is_smooth]
            for jobs in (1, 2):
                got = [w.base for w in scan_powers(ab, n, max_len, jobs=jobs).witnesses]
                assert got == expected, (ab, n, jobs)


def test_complete_by_complement_appends_reversed_complements():
    ab = Alphabet(1, 3)
    by_len = [[(1,)], [(1, 1), (1, 3)], [], [(1, 1, 3), (1, 3, 3)]]
    complete_by_complement(by_len, ab)
    assert by_len == [[(1,), (3,)], [(1, 1), (1, 3), (3, 1), (3, 3)], [],
                      [(1, 1, 3), (1, 3, 3), (3, 1, 1), (3, 3, 1)]]
    words = [[Word("12")]]
    complete_by_complement(words, Alphabet(1, 2), Word._wrap)
    assert words == [[Word("12"), Word("21")]] and type(words[0][1]) is Word


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
            assert is_power_smooth(w, n, ab) == is_smooth(w * n, ab), (u, n)
    assert not is_power_smooth((1,), 2, ab)  # a letter outside the alphabet


def test_huge_exponent_stops_at_the_first_failed_copy():
    # 10**20 copies cannot be built; the copies are pushed one at a time and
    # the first failure ends the test.
    ab = Alphabet(1, 2)
    assert not is_power_smooth(Word("1211"), 10**20, ab)
    assert power_hits(ab, 10**20, 6, (1,)) == [[] for _ in range(7)]
    assert scan_powers(ab, 10**20, 4).witnesses == ()
