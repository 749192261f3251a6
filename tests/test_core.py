from itertools import product

import pytest
from hypothesis import given, strategies as st

from smoothwords import (Alphabet, EPSILON, Word, closure, complement, delta,
                         delta_inv, mirror, runs, word_from_text, word_to_text)
from smoothwords.errors import NotClosableError, WordParseError

ALPHABETS = [Alphabet(1, 2), Alphabet(1, 3), Alphabet(2, 4), Alphabet(3, 7)]

letters_12 = st.lists(st.sampled_from([1, 2]), max_size=14)
letters_13 = st.lists(st.sampled_from([1, 3]), max_size=14)
positive_words = st.lists(st.integers(min_value=1, max_value=9), max_size=12)


class TestAlphabet:
    def test_validation(self):
        with pytest.raises(ValueError):
            Alphabet(2, 2)
        with pytest.raises(ValueError):
            Alphabet(0, 1)
        with pytest.raises(ValueError):
            Alphabet(3, 2)

    def test_rejects_bool_letters(self):
        # bool is an int subclass, but True is no letter (as in Word).
        for a, b in [(True, 2), (1, True), (False, True)]:
            with pytest.raises(ValueError, match="must be integers"):
                Alphabet(a, b)

    def test_parse_and_str(self):
        ab = Alphabet.parse("2,5")
        assert (ab.a, ab.b) == (2, 5)
        assert str(ab) == "2,5"
        with pytest.raises(ValueError):
            Alphabet.parse("2")
        with pytest.raises(ValueError):
            Alphabet.parse("x,y")

    def test_complement_of(self):
        ab = Alphabet(1, 3)
        assert ab.complement_of(1) == 3
        assert ab.complement_of(3) == 1
        with pytest.raises(ValueError):
            ab.complement_of(2)

    def test_contains(self):
        ab = Alphabet(2, 4)
        assert 2 in ab and 4 in ab and 3 not in ab


class TestWord:
    def test_construction(self):
        assert Word("122") == (1, 2, 2)
        assert Word([1, 2]) == (1, 2)
        assert Word() == ()
        with pytest.raises(ValueError):
            Word([0, 1])
        with pytest.raises(ValueError):
            Word([1, -2])

    def test_concat_and_power(self):
        u = Word("12")
        assert u + Word("21") == Word("1221")
        assert u * 3 == Word("121212")
        assert isinstance(u * 2, Word)
        assert isinstance(u[1:], Word)

    def test_text_forms(self):
        assert word_to_text(Word("31113")) == "31113"
        assert word_to_text(Word([12, 1, 12])) == "12,1,12"
        assert word_to_text(EPSILON) == ""
        assert word_from_text("12,1,12") == (12, 1, 12)
        assert word_from_text("31113") == (3, 1, 1, 1, 3)
        assert word_from_text("") == EPSILON

    def test_parse_rejects_zero_digit(self):
        with pytest.raises(WordParseError) as err:
            word_from_text("102")
        assert err.value.position == 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(WordParseError):
            word_from_text("1,x,2")
        with pytest.raises(WordParseError):
            word_from_text("1,,2")
        with pytest.raises(WordParseError):
            word_from_text("1a2")

    @given(positive_words)
    def test_text_round_trip(self, letters):
        w = Word(letters)
        assert word_from_text(word_to_text(w)) == w

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=10))
    def test_text_round_trip_multidigit(self, letters):
        w = Word(letters)
        assert word_from_text(word_to_text(w)) == w


class TestRuns:
    def test_long_mixed_runs(self):
        rd = runs(Word("3311133313133311133"))
        assert rd.lengths == (2, 3, 3, 1, 1, 1, 3, 3, 2)
        assert rd.letters == (3, 1, 3, 1, 3, 1, 3, 1, 3)

    def test_empty(self):
        rd = runs(EPSILON)
        assert rd.r == 0
        with pytest.raises(ValueError):
            rd.fr

    def test_short_scan(self):
        rd = runs(Word("122112"))
        assert tuple(rd) == ((1, 1), (2, 2), (1, 2), (2, 1))
        assert rd.lfr == 1 and rd.llr == 1
        assert rd.fr.letter == 1 and rd.lr.letter == 2

    @given(letters_12)
    def test_round_trip(self, letters):
        w = Word(letters)
        assert runs(w).to_word() == w

    @given(letters_13)
    def test_adjacent_runs_differ(self, letters):
        rd = runs(Word(letters))
        for left, right in zip(rd.runs, rd.runs[1:]):
            assert left.letter != right.letter


class TestDelta:
    def test_examples(self):
        assert delta(Word("2211")) == Word("22")
        assert delta(EPSILON) == EPSILON
        k19 = Word("1221121221221121122")
        assert delta(k19) == Word("122112122122")
        assert k19[:12] == delta(k19)

    @given(letters_12, letters_12)
    def test_concat_law(self, lu, lv):
        u, v = Word(lu), Word(lv)
        split = delta(u) + delta(v)
        if u and v:
            assert (delta(u + v) == split) == (u[-1] != v[0])
        else:
            assert delta(u + v) == split


class TestDeltaInv:
    def test_examples(self):
        assert delta_inv(Word("12"), 1, Alphabet(1, 2)) == Word("122")
        assert delta_inv(Word("1313"), 1, Alphabet(1, 3)) == Word("13331333")
        assert delta_inv(Word("22"), 2, Alphabet(1, 2)) == Word("2211")

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            delta_inv(Word("12"), 3, Alphabet(1, 2))

    @given(st.lists(st.integers(min_value=1, max_value=6), max_size=10),
           st.sampled_from([1, 3]))
    def test_delta_round_trip(self, lengths, alpha):
        u = Word(lengths)
        built = delta_inv(u, alpha, Alphabet(1, 3))
        assert delta(built) == u
        assert runs(built).r == len(u)


class TestSymmetries:
    def test_examples(self):
        assert mirror(Word("122")) == Word("221")
        assert mirror(EPSILON) == EPSILON
        assert mirror(Word("3111313111")) == Word("1113131113")
        assert complement(Word("113"), Alphabet(1, 3)) == Word("331")
        assert complement(Word("1221"), Alphabet(1, 2)) == Word("2112")
        assert complement(EPSILON, Alphabet(1, 2)) == EPSILON

    def test_complement_needs_alphabet_letters(self):
        with pytest.raises(ValueError):
            complement(Word("12"), Alphabet(1, 3))

    @given(letters_13)
    def test_involutions_commute(self, letters):
        ab = Alphabet(1, 3)
        w = Word(letters)
        assert mirror(mirror(w)) == w
        assert complement(complement(w, ab), ab) == w
        assert complement(mirror(w), ab) == mirror(complement(w, ab))


class TestClosure:
    def test_pads_both_boundaries(self):
        w = Word("3311133313133311133")
        assert closure(w, Alphabet(1, 3)) == Word("333111333131333111333")

    def test_boundary_already_full(self):
        assert closure(Word("11"), Alphabet(1, 2)) == Word("11")

    def test_single_run_padded_once(self):
        assert closure(Word("22"), Alphabet(1, 3)) == Word("222")
        assert closure(Word("2"), Alphabet(1, 3)) == Word("2")
        assert closure(EPSILON, Alphabet(1, 2)) == EPSILON

    def test_not_closable(self):
        with pytest.raises(NotClosableError) as err:
            closure(Word("2222"), Alphabet(1, 3))
        assert err.value.run_index == 0

    def test_symmetry_small_exhaustive(self):
        for ab in (Alphabet(1, 2), Alphabet(1, 3)):
            for n in range(9):
                for tup in product(ab.letters, repeat=n):
                    w = Word(tup)
                    try:
                        closed = closure(w, ab)
                    except NotClosableError:
                        continue
                    assert closure(mirror(w), ab) == mirror(closed)
                    assert closure(complement(w, ab), ab) == complement(closed, ab)
