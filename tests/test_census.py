import tracemalloc
from itertools import product

import pytest

from smoothwords import (Alphabet, Word, delta, delta_inv, enumerate_smooth, gamma,
                         h_delta, is_smooth, kolakoski_prefix, lift,
                         lift_family, scan_powers, smooth_chain, word_to_text)
from smoothwords import census, powers, search
from smoothwords.census import PowerWitness, _split
from smoothwords.search import walk
from smoothwords.errors import CertificationError


def root_of_power(p):
    """The shortest r with p = r^k: the definition, on the whole power word."""
    n = len(p)
    for d in range(1, n + 1):
        if n % d == 0 and p[:d] * (n // d) == p:
            return p[:d]


class TestHDelta:
    def test_table(self):
        cases = {(1, 2): (3, 3), (1, 3): (5, 5), (1, 4): (4, 5), (1, 5): (5, 6),
                 (2, 3): (3, 4), (2, 4): (4, 5), (3, 4): (4, 5), (2, 5): (4, 6),
                 (3, 7): (5, 8), (1, 8): (6, 9)}
        for (a, b), (h, d) in cases.items():
            pair = h_delta(Alphabet(a, b))
            assert (pair.h, pair.delta) == (h, d), (a, b)

    def test_invariants(self):
        for a in range(1, 6):
            for b in range(a + 1, 12):
                pair = h_delta(Alphabet(a, b))
                assert pair.h >= 3
                assert pair.delta in (b + 1, b + 2)
                assert pair.h <= pair.delta


class TestEnumerate:
    def test_small(self, ab12):
        assert [word_to_text(w) for w in enumerate_smooth(ab12, 1)] == ["1", "2"]
        assert [word_to_text(w) for w in enumerate_smooth(ab12, 2)] == \
            ["11", "12", "21", "22"]
        assert len(enumerate_smooth(ab12, 3)) == 6
        assert enumerate_smooth(ab12, 0) == [Word()]

    def test_matches_naive_filter(self, ab12, ab13):
        # the naive filter goes through the public chain, a fully independent path
        for ab in (ab12, ab13):
            for n in range(11):
                expected = [Word(t) for t in product(ab.letters, repeat=n)
                            if smooth_chain(Word(t), ab).is_smooth]
                assert enumerate_smooth(ab, n) == expected

    def test_pinned_counts_at_60(self):
        # Confirmed by bench/oracle.py; "up to" counts include the empty word.
        for (a, b), at_60, up_to_60 in [((1, 2), 3702, 65895), ((1, 3), 1856, 38577),
                                        ((2, 5), 506, 12849)]:
            ab = Alphabet(a, b)
            per_length = [0] * 61

            def count(tower, path):
                per_length[len(path)] += 1

            walk(ab, (), [], 60, count)
            assert (per_length[60], sum(per_length)) == (at_60, up_to_60), ab
            words = enumerate_smooth(ab, 60)
            assert len(words) == at_60 and words == sorted(words)


class TestScanPowers:
    def test_cube_free_12(self, ab12):
        report = scan_powers(ab12, 3, 12)
        assert report.gamma == 0 and not report.witnesses

    def test_biquadrates_13(self, ab13):
        report = scan_powers(ab13, 4, 12)
        bases = {word_to_text(w.base) for w in report.witnesses}
        assert Word("3111313111") in {w.base for w in report.witnesses}
        # closed under mirror and complement
        assert bases == {"3111313111", "1113131113", "1333131333", "3331313331"}

    def test_distinct_powers_24(self):
        report = scan_powers(Alphabet(2, 4), 4, 8)
        assert {word_to_text(p) for p in report.distinct_powers} == {"2222", "4444"}

    def test_multirun_cubes_over_23(self):
        # exhaustive search refutes 3-power-freeness of multi-letter smooth
        # words over {2,3}: two 10-letter bases have smooth cubes
        report = scan_powers(Alphabet(2, 3), 3, 10)
        multi = {word_to_text(w.base) for w in report.witnesses if len(w.base) > 1}
        assert multi == {"2233322233", "3322233322"}
        assert report.gamma == 4

    def test_parallel_matches_sequential(self, ab12):
        # Every jobs splits at the first depth with 32 prefixes that start
        # with a; the witnesses must straddle that depth so both the caller's
        # part and the merged subtrees are compared.
        for ab, n, L in [(ab12, 2, 30), (Alphabet(3, 4), 3, 30)]:
            depth, prefixes = _split(ab, L)
            assert 1 < depth < L
            shorter, split = ([tuple(w) for w in enumerate_smooth(ab, d) if w[0] == ab.a]
                              for d in (depth - 1, depth))
            assert len(shorter) < 32 <= len(split)
            assert prefixes == split
            seq = scan_powers(ab, n, L, jobs=1)
            lengths = {len(w.base) for w in seq.witnesses}
            assert min(lengths) < depth <= max(lengths), (ab, depth, lengths)
            assert scan_powers(ab, n, L, jobs=2) == seq

    def test_parallel_split_at_depth_one(self, ab12):
        # With L = 1 the split depth is 1, so the caller has no shorter
        # a-initial bases to test and the one worker task is the prefix "1".
        assert _split(ab12, 1) == (1, [(1,)])
        seq = scan_powers(ab12, 2, 1, jobs=1)
        assert [word_to_text(w.base) for w in seq.witnesses] == ["1", "2"]
        assert scan_powers(ab12, 2, 1, jobs=2) == seq

    def test_primitive_base_tracking(self):
        report = scan_powers(Alphabet(2, 4), 2, 4)
        by_base = {word_to_text(w.base): word_to_text(w.primitive_base)
                   for w in report.witnesses}
        # 2222 = (22)^2 = 2^4: primitive base of the power word is "2"
        assert by_base["22"] == "2"

    @pytest.mark.parametrize("ab, exponents, L", [
        (Alphabet(1, 3), (2, 3, 4), 16), (Alphabet(10, 12), (2,), 24)])
    def test_primitive_base_is_the_roots_of_the_power(self, ab, exponents, L):
        for n in exponents:
            report = scan_powers(ab, n, L)
            assert report.witnesses
            for w in report.witnesses:
                assert w.power == w.base * n
                assert w.primitive_base == root_of_power(w.power), (n, w.base)
            # Distinct bases give distinct power words.
            assert report.gamma == len(report.distinct_powers) == len(report.witnesses)

    @pytest.mark.parametrize("ab, n, L", [(Alphabet(1, 3), 2, 20), (Alphabet(1, 3), 4, 16),
                                          (Alphabet(2, 4), 2, 16), (Alphabet(10, 12), 2, 24)])
    def test_witnesses_match_brute_force(self, ab, n, L):
        # Each witness and its complement's are built together; every field
        # must be what the base alone defines.
        for jobs in (1, 2):
            report = scan_powers(ab, n, L, jobs=jobs)
            assert report.witnesses
            for w in report.witnesses:
                assert w.power == w.base * n
                assert w.primitive_base == root_of_power(w.power)
                assert all(type(v) is Word for v in w)
                assert w.texts() == tuple(map(word_to_text, w))

    def test_rejects_bad_arguments(self, ab12):
        with pytest.raises(ValueError):
            scan_powers(ab12, 1, 5)
        with pytest.raises(ValueError):
            scan_powers(ab12, 2, 0)


class TestWitnessStorage:
    """A witness stores its base, exponent and primitive base; the power is
    rebuilt when read, and a primitive base is the base object itself."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_power_derived_and_primitive_base_shared(self, ab13, n):
        report = scan_powers(ab13, n, 30)
        assert report.witnesses
        shared = 0
        for w in report.witnesses:
            if len(w.primitive_base) == len(w.base):
                assert w.primitive_base is w.base
                shared += 1
            assert type(w.power) is Word
            assert w.power == w.base * n
            assert w.exponent == n
        assert shared

    def test_exponent_one_power_is_the_base(self, ab12):
        _, report = gamma(ab12, 1, 8)
        assert report.witnesses
        for w in report.witnesses:
            assert w.power == w.base
            assert w.primitive_base is w.base or len(w.primitive_base) < len(w.base)

    @pytest.mark.parametrize("base, power", [
        ("12", "121"), ("12", "1221"), ("12", "1"), ("", "1"), ("11", "111"), ("12", "")])
    def test_power_must_be_a_power_of_the_base(self, base, power):
        with pytest.raises(ValueError):
            PowerWitness(Word(base), Word(power), Word(base))

    def test_power_is_not_stored(self):
        assert "power" not in PowerWitness.__slots__
        w = PowerWitness(Word("1"), Word("111"), Word("1"))
        assert not hasattr(w, "__dict__")
        assert (w.exponent, w.power) == (3, Word("111"))


class TestGamma:
    def test_46_squares(self, ab12):
        count, report = gamma(ab12, 2, 60)
        assert count == 46
        assert report.stable
        assert report.last_new_base_length == 27

    def test_zero_above_b(self):
        count, report = gamma(Alphabet(2, 4), 5, 8)
        assert count == 0 and report.stable

    def test_two_at_h_equals_b(self):
        count, report = gamma(Alphabet(1, 4), 4, 10)
        assert count == 2
        assert {word_to_text(p) for p in report.distinct_powers} == {"1111", "4444"}

    def test_same_parity_consistency(self):
        # h <= n <= b gives exactly the two single-letter powers; n > b gives none
        for (a, b), n in [((2, 4), 4), ((1, 5), 5), ((3, 5), 4), ((3, 5), 5)]:
            count, report = gamma(Alphabet(a, b), n, 8)
            assert count == 2, (a, b, n)
            assert {word_to_text(p) for p in report.distinct_powers} == \
                {str(a) * n, str(b) * n}
        for (a, b), n in [((2, 4), 5), ((1, 5), 6), ((3, 5), 6), ((1, 3), 5)]:
            count, _ = gamma(Alphabet(a, b), n, 8)
            assert count == 0, (a, b, n)

    def test_unbounded_note_for_exponent_one(self, ab12):
        count, report = gamma(ab12, 1, 6)
        # lengths 1..6 hold 2, 4, 6, 10, 14, 18 smooth words (oracle-checked
        # against the naive filter in the enumeration tests)
        assert count == 2 + 4 + 6 + 10 + 14 + 18
        assert not report.stable
        assert report.note == "unbounded at this bound"

    def test_unstable_flag_wording(self):
        # at L=10 the {2,3} cube census still gains a new power at length 10,
        # inside the top quartile, so the report must refuse stability
        count, report = gamma(Alphabet(2, 3), 3, 10)
        assert count == 4
        assert not report.stable
        assert "bound too small" in report.note

    def test_csv_shape(self, ab12):
        _, report = gamma(ab12, 2, 8)
        lines = "".join(report.csv_lines()).strip().splitlines()
        assert lines[0] == "base,base_length,power_length"
        assert len(lines) == 1 + len(report.witnesses)


class TestHugeBounds:
    """The per-length lists grow with the lengths the walk finds, not with
    the bound.  Stubbed walks visit only their root, so no bound is walked."""

    @pytest.fixture(autouse=True)
    def root_only(self, monkeypatch):
        def walk_root(ab, tower, path, max_len, visit):
            visit(tower, path)

        # _split walks only as deep as its task count needs, whatever the
        # bound, so it keeps the real walk: its split is taken before the stub.
        split = _split(Alphabet(1, 2), 10**20)
        monkeypatch.setattr(census, "_split", lambda ab, L: split)
        monkeypatch.setattr(search, "walk", walk_root)

    @staticmethod
    def _run(L):
        ab = Alphabet(1, 2)
        return (scan_powers(ab, 2, L), gamma(ab, 1, L)[0], enumerate_smooth(ab, L),
                enumerate_smooth(ab, L, min_len=0))

    def test_a_million_allocates_under_a_megabyte(self):
        tracemalloc.start()
        try:
            self._run(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_huge_bound(self):
        report, count, words, up_to = self._run(10**20)
        # The roots are "1" (the shorter bases) and the 39 twelve-letter
        # prefixes of _split; of their squares only 11 is smooth.
        assert [word_to_text(w.base) for w in report.witnesses] == ["1", "2"]
        assert report.stable and report.last_new_base_length == 1
        # n = 1 keeps every root: 1, the 39 prefixes and their complements.
        assert count == 80
        assert words == []
        assert up_to == [Word(), Word("1"), Word("2")]


class TestLift:
    def test_examples(self, ab13):
        assert lift(Word("13"), 1, 1, ab13) == Word("1333")
        assert lift(Word("22"), 2, 1, Alphabet(2, 4)) == Word("2244")
        assert lift(Word("13"), 1, 0, ab13) == Word("13")

    def test_bad_alpha(self, ab13):
        with pytest.raises(ValueError):
            lift(Word("13"), 2, 1, ab13)

    def test_power_compatibility(self):
        # lifting commutes with powers for even-length bases on same-parity
        # alphabets, and lifts keep even length
        for a, b in [(1, 3), (2, 4), (1, 5)]:
            ab = Alphabet(a, b)
            for n_letters in (2, 4, 6, 8):
                for tup in product(ab.letters, repeat=n_letters):
                    u = Word(tup)
                    for alpha in ab.letters:
                        for k in (1, 2):
                            lifted = lift(u, alpha, k, ab)
                            assert len(lifted) % 2 == 0
                            for n in (2, 3):
                                assert lift(u * n, alpha, k, ab) == lifted * n


class TestLiftFamily:
    def test_cube_family_24(self):
        fam = lift_family(Word("2244"), 3, 2, 3, Alphabet(2, 4))
        assert len(fam) == len(set(fam)) == 3
        for base in fam:
            assert is_smooth(base * 3, Alphabet(2, 4))

    def test_biquadrate_family_13(self, ab13):
        fam = lift_family(Word("3111313111"), 4, 1, 3, ab13)
        assert len(set(fam)) == 3
        for base in fam:
            assert is_smooth(base * 4, ab13)

    def test_quartic_family_15(self):
        fam = lift_family(Word("155555"), 4, 1, 2, Alphabet(1, 5))
        assert len(set(fam)) == 2

    def test_parity_preconditions(self):
        with pytest.raises(ValueError):
            lift_family(Word("121"), 2, 1, 2, Alphabet(1, 3))  # odd length
        with pytest.raises(ValueError):
            lift_family(Word("12"), 2, 1, 2, Alphabet(1, 2))  # mixed parity

    def test_non_smooth_power_rejected(self, ab13):
        with pytest.raises(ValueError):
            lift_family(Word("13"), 5, 1, 2, ab13)

    def test_huge_exponent_is_refuted_without_building_the_power(self):
        # 10**20 copies overflow a list repetition; the power is tested copy
        # by copy and fails within a few copies.
        with pytest.raises(ValueError, match="must be smooth"):
            lift_family(Word("2244"), 10**20, 2, 2, Alphabet(2, 4))

    @pytest.mark.parametrize("n", [0, -3])
    def test_exponent_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="exponent must be >= 1"):
            lift_family(Word("2244"), n, 2, 2, Alphabet(2, 4))

    @pytest.mark.parametrize("module, name, stub, text, level, actual", [
        (powers, "delta_inv", lambda w, alpha, ab: delta_inv(w, alpha, ab) + Word((alpha,)),
         "lift depth 1 of '2244' has odd length 13", 1, Word("2244222244442")),
        (search, "is_power_smooth", lambda w, n, ab: w == Word("2244"),
         "lift depth 1: (224422224444)^3 is not smooth over 2,4", 1, Word("224422224444")),
        (powers, "delta_inv", lambda w, alpha, ab: w,
         "lifted bases of '2244' are not pairwise distinct", None, None),
    ], ids=["odd-length", "not-smooth", "not-distinct"])
    def test_certification_violations(self, monkeypatch, module, name, stub, text, level,
                                      actual):
        # A lift that breaks the certified claim is forced by a stub.
        monkeypatch.setattr(module, name, stub)
        with pytest.raises(CertificationError) as err:
            lift_family(Word("2244"), 3, 2, 3, Alphabet(2, 4))
        exc = err.value
        assert (str(exc), exc.level, exc.expected, exc.actual) == (text, level, None, actual)


class TestKolakoski:
    def test_classic_prefixes(self, ab12):
        assert word_to_text(kolakoski_prefix(ab12, 1, 12)) == "122112122122"
        assert word_to_text(kolakoski_prefix(ab12, 1, 19)) == "1221121221221121122"
        assert word_to_text(kolakoski_prefix(ab12, 1, 1)) == "1"

    def test_self_consistency_at_scale(self, ab12):
        prefix = kolakoski_prefix(ab12, 1, 10000)
        d = delta(prefix)
        # the final run may be truncated by the cut, every earlier letter is exact
        assert d[:-1] == prefix[:len(d) - 1]
        assert d[-1] <= prefix[len(d) - 1]

    def test_prefixes_are_smooth(self, ab12):
        assert is_smooth(kolakoski_prefix(ab12, 1, 2000), ab12)

    def test_other_start_letter(self, ab12):
        w = kolakoski_prefix(ab12, 2, 10)
        assert word_to_text(w) == "2211212212"
        d = delta(w)
        assert d[:-1] == w[:len(d) - 1]

    def test_other_alphabets(self):
        for a, b in [(1, 3), (2, 4), (2, 3)]:
            ab = Alphabet(a, b)
            for first in (a, b):
                w = kolakoski_prefix(ab, first, 600)
                d = delta(w)
                assert d[:-1] == w[:len(d) - 1]
                assert is_smooth(w, ab)

    def test_rejects_foreign_first_letter(self, ab12):
        with pytest.raises(ValueError):
            kolakoski_prefix(ab12, 3, 5)
