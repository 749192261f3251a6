import pickle
import tracemalloc
from itertools import groupby, product

import pytest
from hypothesis import given, strategies as st

from smoothwords import (Alphabet, EPSILON, Word, closure, complement, delta,
                         delta_inv, mirror, runs, word_from_text, word_to_text)
from smoothwords.core import run_lengths
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
        # A tuple on the left still gives a Word (Word.__radd__).
        assert (1,) + Word("2") == Word("12")
        assert isinstance((1,) + Word("2"), Word)

    def test_text_forms(self):
        assert word_to_text(Word("31113")) == "31113"
        assert word_to_text(Word([12, 1, 12])) == "12,1,12"
        assert word_to_text(EPSILON) == ""
        assert word_from_text("12,1,12") == (12, 1, 12)
        assert word_from_text("31113") == (3, 1, 1, 1, 3)
        assert word_from_text("") == EPSILON
        assert Word("12").text == "12"

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

    @pytest.mark.parametrize("text,position", [
        ("\u0661\u0662", 0),  # Arabic-Indic digits, which str.isdigit accepts
        ("1\u00b21", 1),       # a superscript two, which int() rejects
        ("12,\u00b2", 3),      # the same in the comma form
        ("12, 1\u00b2", 5),
    ])
    def test_parse_accepts_only_ascii_digits(self, text, position):
        with pytest.raises(WordParseError) as err:
            word_from_text(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text,position", [("1,0", 2), ("1, 0", 3), ("12, 00,3", 4)])
    def test_zero_letter_is_reported_at_the_zero(self, text, position):
        # Comma form counts a part's leading blanks, as for a malformed letter.
        with pytest.raises(WordParseError, match="zero letter") as err:
            word_from_text(text)
        assert err.value.position == position

    def test_parse_reports_the_first_fault(self):
        with pytest.raises(WordParseError, match="zero digit") as err:
            word_from_text("10a")
        assert err.value.position == 1
        with pytest.raises(WordParseError, match="non-digit") as err:
            word_from_text("1a0")
        assert err.value.position == 1

    @given(positive_words)
    def test_text_round_trip(self, letters):
        w = Word(letters)
        assert word_from_text(word_to_text(w)) == w

    @given(st.one_of(st.just([]), st.lists(st.integers(min_value=10, max_value=12),
                                           min_size=1, max_size=1),
                     st.lists(st.integers(min_value=1, max_value=12), max_size=40)))
    def test_text_matches_the_str_join_definition(self, letters):
        if letters and max(letters) <= 9:
            expected = "".join(map(str, letters))
        elif len(letters) == 1:
            expected = f"{letters[0]},"
        else:
            expected = ",".join(map(str, letters))
        assert word_to_text(Word(letters)) == word_to_text(letters) == expected

    def test_text_reads_the_word_in_place(self):
        # The text and its bytes take 100 KB each; a copy of the 100,000
        # letters as a tuple would add 800 KB.
        w = Word._wrap((1, 2) * 50_000)
        tracemalloc.start()
        try:
            assert word_to_text(w) == "12" * 50_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=10))
    def test_text_round_trip_multidigit(self, letters):
        w = Word(letters)
        assert word_from_text(word_to_text(w)) == w

    def test_pickle_skips_the_letter_check(self, monkeypatch):
        # Words cross the --jobs pipe by the thousand; their letters were
        # checked when they were made, so unpickling must not check them again.
        words = [Word("1213"), Word("12,1,12"), EPSILON, Word("3")[:0]]

        def checked(cls, letters=()):
            raise AssertionError("Word.__new__ called")

        monkeypatch.setattr(Word, "__new__", checked)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(words, protocol=protocol))
            assert [type(w) for w in back] == [Word] * len(words)
            assert back == words


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
        for name in ("lr", "llr"):
            with pytest.raises(ValueError, match="^empty word has no runs$"):
                getattr(runs(Word("")), name)

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

    @given(st.lists(st.integers(min_value=1, max_value=12), max_size=40))
    def test_matches_groupby_definition(self, letters):
        # The empty word, letters above 9, and any iterable, not only words.
        want = [(c, sum(1 for _ in g)) for c, g in groupby(letters)]
        assert run_lengths(letters) == [n for _, n in want]
        assert run_lengths(iter(letters)) == [n for _, n in want]
        assert tuple(runs(iter(letters))) == tuple(want)


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

    @staticmethod
    def closure_from_runs(w, ab):
        """The closure written from the run decomposition, as the definition reads."""
        rd = runs(w)
        for i, run in enumerate(rd):
            if run.length > ab.b:
                raise NotClosableError(f"run {i} of {word_to_text(w)!r} has length "
                                       f"{run.length} > b={ab.b}", run_index=i)
        if rd.r == 0:
            return EPSILON
        first, last = rd.fr, rd.lr
        prefix = [first.letter] * (ab.b - first.length) if first.length > ab.a else []
        suffix = ([last.letter] * (ab.b - last.length)
                  if rd.r > 1 and last.length > ab.a else [])
        return Word(prefix + list(w) + suffix)

    @given(st.sampled_from(ALPHABETS), st.lists(st.sampled_from([1, 2, 3, 12]), max_size=30))
    def test_matches_the_run_decomposition(self, ab, letters):
        # Any letters, not only those of the alphabet: closure reads run lengths.
        w = Word(letters)
        try:
            want = self.closure_from_runs(w, ab)
        except NotClosableError as exc:
            with pytest.raises(NotClosableError) as err:
                closure(w, ab)
            assert (str(err.value), err.value.run_index) == (str(exc), exc.run_index)
        else:
            assert closure(w, ab) == want

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
