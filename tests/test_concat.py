import json
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from smoothwords import (Alphabet, EPSILON, Word, certify_concat, complement, derivative,
                         dsigma_table, empirical_middle_set, enumerate_smooth, is_smooth,
                         middle_witness, mirror, power_decomposition, word_to_text)
from smoothwords import calculus, concat, dsigma
from smoothwords.cli import main
from smoothwords.concat import _extract_middle, _scan
from smoothwords.core import run_lengths
from smoothwords.dsigma import DsigmaTable
from smoothwords.errors import CertificationError
from smoothwords.search import (bottom_level, derivative_from_runs, is_smooth_fast, push_copies,
                                seeded_state, walk)

from conftest import fresh_env


def words(texts):
    return {Word(t) for t in texts}


class TestTables:
    def test_table_12(self):
        expected = words(["", "1", "2", "12", "21", "11", "22", "112", "211",
                          "121", "122", "221", "212", "1121", "1211", "1212",
                          "2121", "2112", "1221", "1122", "2211", "11211"])
        assert dsigma_table(Alphabet(1, 2)).words == expected
        assert len(expected) == 22

    def test_table_13(self):
        expected = words(["", "1", "3", "13", "31", "11", "33", "113", "311",
                          "131", "313", "111", "3111", "1113", "1311", "1131"])
        assert dsigma_table(Alphabet(1, 3)).words == expected

    def test_table_14(self):
        expected = words(["", "1", "4", "14", "41", "11", "44", "111", "411",
                          "114", "141", "414", "1111", "4111", "1114"])
        assert dsigma_table(Alphabet(1, 4)).words == expected

    def test_table_1b(self):
        expected = words(["", "1", "7", "17", "71", "11", "77", "117", "711",
                          "111", "1111"])
        assert dsigma_table(Alphabet(1, 7)).words == expected

    def test_table_2b(self):
        expected = words(["", "2", "5", "25", "52", "22", "55", "222"])
        assert dsigma_table(Alphabet(2, 5)).words == expected

    def test_table_ab(self):
        expected = {Word(t) for t in [(), (3,), (7,), (3, 3), (7, 7), (3, 7), (7, 3)]}
        assert dsigma_table(Alphabet(3, 7)).words == expected

    def test_tables_mirror_closed(self):
        for ab in [Alphabet(1, 2), Alphabet(1, 3), Alphabet(1, 4), Alphabet(1, 9),
                   Alphabet(2, 3), Alphabet(2, 8), Alphabet(3, 4), Alphabet(4, 11)]:
            table = dsigma_table(ab).words
            assert {mirror(w) for w in table} == table

    def test_membership_takes_text_or_words(self):
        table = dsigma_table(Alphabet(1, 2))
        assert "12" in table and Word("12") in table
        assert "3" not in table

    def test_json(self):
        doc = dsigma_table(Alphabet(2, 5)).to_json()
        assert doc["alphabet"] == [2, 5]
        assert "222" in doc["words"]
        json.dumps(doc)


class TestMiddleWitness:
    def test_examples(self, ab12):
        assert middle_witness(Word("2"), EPSILON, Word("2"), ab12) == Word("2")
        assert middle_witness(Word("12"), EPSILON, Word("12"), ab12) == Word("11")
        assert middle_witness(EPSILON, EPSILON, EPSILON, ab12) == EPSILON

    def test_requires_smooth_product(self, ab12):
        with pytest.raises(ValueError):
            middle_witness(Word("11"), Word("1"), EPSILON, ab12)


class TestCertify:
    def test_zero_violations_small(self):
        for ab, L in [(Alphabet(1, 2), 6), (Alphabet(3, 4), 5), (Alphabet(1, 5), 5)]:
            cert = certify_concat(ab, L)
            assert cert.ok, cert.violations[:3]
            assert set(cert.middle_set) <= set(dsigma_table(ab).words)
            assert cert.tested_triples > 0

    def test_table_13_is_incomplete(self, ab13):
        # The stored {1,3} table misses the middles 133 and 331: the smooth
        # product 13·1113·33 forces D = 133 with empty flanks.  The certifier
        # must report that instead of smoothing it over.
        cert = certify_concat(ab13, 6)
        reasons = {v.reason for v in cert.violations}
        assert reasons == {"middle-not-in-table"}
        extras = set(cert.middle_set) - set(dsigma_table(ab13).words)
        assert extras == words(["133", "331"])
        xs = {word_to_text(v.x) for v in cert.violations}
        assert xs == {"1113", "3111"}

    def test_minimal_violating_triple(self, ab13):
        w = middle_witness(Word("13"), Word("1113"), Word("33"), ab13)
        assert w == Word("133")
        assert w not in dsigma_table(ab13).words

    def test_violations_sorted_deterministically(self, ab13):
        cert1 = certify_concat(ab13, 6)
        cert2 = certify_concat(ab13, 6)
        assert cert1 == cert2

    def test_parallel_matches_sequential(self):
        ab = Alphabet(1, 2)
        seq = certify_concat(ab, 6, jobs=1)
        par = certify_concat(ab, 6, jobs=2)
        assert seq == par

    def test_parallel_matches_sequential_with_violations_and_explore(self, ab13):
        seq = certify_concat(ab13, 6, jobs=1)
        assert seq.violations
        assert certify_concat(ab13, 6, jobs=2) == seq
        explored = certify_concat(ab13, 5, jobs=1, explore=4)
        assert certify_concat(ab13, 5, jobs=2, explore=4) == explored

    def test_each_certificate_is_that_of_a_fresh_process(self):
        # Each scan has its own table of middles per (class, v root): its
        # keys name neither the alphabet nor the table, so certificates over
        # two alphabets, and over one with and without the table, in one
        # process must each equal the certificate a fresh process computes.
        cases = [((1, 2), 7, None), ((1, 3), 7, None), ((1, 3), 7, 4), ((1, 2), 7, 4),
                 ((1, 3), 7, None)]
        here = [certify_concat(Alphabet(*ab), L, explore=explore).to_json()
                for ab, L, explore in cases]
        assert here[1]["violations"] and not here[2]["violations"]
        env = fresh_env()
        for (ab, L, explore), doc in zip(cases, here):
            code = ("import json; from smoothwords import Alphabet, certify_concat; "
                    f"print(json.dumps(certify_concat(Alphabet{ab}, {L}, explore={explore})"
                    ".to_json()))")
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=60, check=True)
            assert json.loads(proc.stdout) == doc, (ab, L, explore)

    def test_pinned_counts_12(self, ab12):
        # Confirmed by bench/oracle.py, which shares no code with the package.
        cert = certify_concat(ab12, 10)
        assert cert.tested_triples == 54470
        assert cert.ok
        assert cert.middle_set == dsigma_table(ab12).sorted_words

    def test_pinned_counts_13(self, ab13):
        # Confirmed by bench/oracle.py against the stored {1,3} table.
        cert = certify_concat(ab13, 8)
        assert cert.tested_triples == 19895
        assert len(cert.violations) == 268

    def test_explore_mode_reports_without_asserting(self, ab12):
        cert = certify_concat(ab12, 4, explore=3)
        assert cert.x_source == "smooth-x<=3"
        assert cert.ok  # no table check in explore mode
        assert Word("11") in set(cert.middle_set)

    def test_json(self, ab12):
        doc = certify_concat(ab12, 4).to_json()
        assert doc["alphabet"] == [1, 2]
        assert doc["violations"] == []
        json.dumps(doc)


class TestScanDifferential:
    """``_scan`` against a brute force over all (u, x, v) built on the
    literal ``calculus.derivative``."""

    # Bounds keep each case near a second of literal derivatives; over
    # {2,7} L = 9 reaches the roots c^7 c̄.
    CASES = [((1, 2), 6), ((1, 3), 6), ((1, 4), 6), ((2, 3), 8), ((2, 5), 8), ((3, 4), 8),
             ((2, 7), 9)]
    _found: dict = {}

    @staticmethod
    def _xs(ab):
        a, b = ab.a, ab.b
        table = sorted(tuple(w) for w in dsigma_table(ab).words)
        # Smooth words of lengths 4-6 outside the table: first, middle, last.
        rest = [tuple(w) for n in (4, 5, 6) for w in enumerate_smooth(ab, n)
                if tuple(w) not in table]
        outside = [rest[0], rest[len(rest) // 2], rest[-1]]
        assert len(set(outside)) == 3
        assert all(is_smooth(Word(x), ab) and x not in table for x in outside)
        dead = [(a,) * (b + 1), (a, a, a, b) + (b,) * b, (b + 1,)]
        assert not any(is_smooth(Word(x), ab) for x in dead)
        return table + outside + dead

    @classmethod
    def _brute(cls, ab, L, x):
        """(u, v, middle or None) for every smooth u·x·v, by the literal
        calculus.

        v grows one letter at a time while u·x·v stays smooth: factors of
        smooth words are smooth, so no smooth triple is skipped.
        """
        if (ab, L, x) in cls._found:
            return cls._found[ab, L, x]
        found = []
        if all(c in ab.letters for c in x):
            x = Word(x)
            for n in range(L + 1):
                for u in map(Word, product(ab.letters, repeat=n)):
                    ux = u + x
                    if not is_smooth(u, ab) or not is_smooth(ux, ab):
                        continue
                    du = tuple(derivative(u, ab))
                    frontier = [Word()]
                    while frontier:
                        v = frontier.pop()
                        dv, df = tuple(derivative(v, ab)), tuple(derivative(ux + v, ab))
                        mid = None
                        if len(du) + len(dv) <= len(df) and df[:len(du)] == du \
                                and df[len(df) - len(dv):] == dv:
                            mid = df[len(du):len(df) - len(dv)]
                        found.append((tuple(u), tuple(v), mid))
                        if len(v) < L:
                            frontier.extend(v + (c,) for c in ab.letters
                                            if is_smooth(ux + v + (c,), ab))
        cls._found[ab, L, tuple(x)] = found
        return found

    @pytest.mark.parametrize("ab_pair,L", CASES)
    def test_scan_matches_literal_brute_force(self, ab_pair, L):
        ab = Alphabet(*ab_pair)
        for x in self._xs(ab):
            found = self._brute(ab, L, x)
            middles = {mid for _, _, mid in found if mid is not None}
            missing = [(u, x, v, "no-middle-decomposition") for u, v, mid in found if mid is None]
            tested, violations, got_middles = _scan(ab, L, [x], None)
            assert (tested, got_middles) == (len(found), middles), (ab, x)
            assert sorted(violations) == sorted(missing), (ab, x)
            # The empty table makes every triple a violation.
            want = sorted(missing + [(u, x, v, "middle-not-in-table")
                                     for u, v, mid in found if mid is not None])
            tested, violations, got_middles = _scan(ab, L, [x], frozenset())
            assert (tested, got_middles) == (len(found), middles), (ab, x)
            assert len(violations) == tested
            for got, expected in zip(sorted(violations), want):
                assert got == expected, (ab, x)

    @pytest.mark.parametrize("ab_pair,L", CASES)
    def test_some_tower_of_u_holds_several_u(self, monkeypatch, ab_pair, L):
        # At these bounds the brute-force tests reach members that stand for
        # two u or more, so a count is multiplied and, with the empty table,
        # a failing member lists each of its u.
        ab = Alphabet(*ab_pair)
        scan_group, members = concat._scan_group, []

        def recording_scan_group(*args):
            members.extend(m for group in args[-1][1].values() for m in group)
            return scan_group(*args)

        monkeypatch.setattr(concat, "_scan_group", recording_scan_group)
        _scan(ab, L, self._xs(ab), frozenset())
        assert all(len(set(us)) == len(us) for us, _, _ in members)
        assert max(len(us) for us, _, _ in members) >= 2, ab

    @pytest.mark.parametrize("ab_pair,L", CASES)
    def test_one_scan_over_every_x_matches_the_union(self, ab_pair, L):
        # Pairs (u, x) of different x share towers, walks over v and classes;
        # the scan counts the triples of every x, and each x still gets its
        # own violations and middles.
        ab = Alphabet(*ab_pair)
        xs = self._xs(ab)
        found = {x: self._brute(ab, L, x) for x in xs}
        middles = {mid for x in xs for _, _, mid in found[x] if mid is not None}
        tested, violations, got_middles = _scan(ab, L, xs, None)
        assert tested == sum(len(found[x]) for x in xs)
        assert got_middles == middles
        assert sorted(violations) == sorted((u, x, v, "no-middle-decomposition")
                                            for x in xs for u, v, mid in found[x]
                                            if mid is None)
        # The empty table fails every class, so each expands to all its members.
        tested, violations, got_middles = _scan(ab, L, xs, frozenset())
        assert got_middles == middles
        assert sorted(violations) == sorted(
            (u, x, v, "no-middle-decomposition" if mid is None else "middle-not-in-table")
            for x in xs for u, v, mid in found[x])
        assert len(violations) == tested

    def test_one_v_walk_per_tower_of_ux(self, monkeypatch, ab12):
        # Pairs (u, x) with equal towers of u·x share one group, across all x
        # and with the complements of the u·x that end in b; one walk over u
        # serves every x.  A group walks only the subtrees of its multi-run
        # roots c^k c̄: ε and the one-run v are visited without a walk.
        L, starts, groups = 8, [], []
        scan_group = concat._scan_group

        def counting_walk(ab, tower, path, max_len, visit):
            starts.append((tower, tuple(path)))
            walk(ab, tower, path, max_len, visit)

        def counting_scan_group(*args):
            groups.append(args[-1][0])  # the task's tower
            return scan_group(*args)

        xs = [tuple(w) for w in dsigma_table(ab12).words]
        singles = [_scan(ab12, L, [x], None) for x in xs]
        monkeypatch.setattr(concat, "walk", counting_walk)
        monkeypatch.setattr(concat, "_scan_group", counting_scan_group)
        tested, violations, middles = _scan(ab12, L, xs, None)
        words = [tuple(u) for u in enumerate_smooth(ab12, L, min_len=0)]
        # A u·x that ends in b is filed under the tower of its complement.
        towers = {x: {seeded_state(ab12, complement(u + x, ab12) if (u + x)[-1:] == (2,)
                                   else u + x) for u in words}
                  - {None} for x in xs}
        everywhere = set().union(*towers.values())
        # One task per distinct tower of u·x, up to the complement.
        assert sorted(groups) == sorted(everywhere)
        assert len(everywhere) < sum(map(len, towers.values()))
        # One walk over u from the empty tower; every other walk starts at
        # a root c^k c̄ (k >= 1) of a group, once.
        assert starts[0] == ((), ())
        runs = [(t, (c,) * k + (d,)) for t in groups for c, d in ((1, 2), (2, 1))
                for k in range(1, L)]
        roots = [(push_copies(ab12, t, run, 1), run) for t, run in runs]
        assert sorted(starts[1:]) == sorted(r for r in roots if r[0] is not None)
        assert tested == sum(t for t, _, _ in singles)
        assert sorted(violations) == sorted(v for _, vio, _ in singles for v in vio)
        assert middles == set().union(*(m for _, _, m in singles))

    @pytest.mark.parametrize("table", [None, frozenset()])
    @pytest.mark.parametrize("ab_pair,L", CASES)
    def test_one_judgment_per_signature(self, monkeypatch, ab_pair, L, table):
        # A group is judged once per signature of v (first letter, first run
        # length, one run or more) and once at v = ε: at most 4b + 1 times,
        # also when the empty table fails every triple.
        ab = Alphabet(*ab_pair)
        judge, scan_group = concat._judge, concat._scan_group
        per_group, nodes = [], []

        def counting_judge(*args):
            per_group[-1] += 1
            return judge(*args)

        def counting_scan_group(*args):
            per_group.append(0)
            result = scan_group(*args)
            nodes.append(result[0])
            return result

        monkeypatch.setattr(concat, "_judge", counting_judge)
        monkeypatch.setattr(concat, "_scan_group", counting_scan_group)
        _scan(ab, L, self._xs(ab), table)
        assert per_group and max(per_group) <= 4 * ab.b + 1
        assert sum(per_group) < sum(nodes)

    @staticmethod
    def _count_extractions(monkeypatch):
        """Patch ``_extract_middle`` and ``_judge`` to count, in the dict
        returned, the extractions, the (class, v root) keys judged and the
        middles read (one per class of a group and judgment)."""
        extract, judge = concat._extract_middle, concat._judge
        seen = {"calls": 0, "keys": set(), "reads": 0}

        def counting_extract(*args):
            seen["calls"] += 1
            return extract(*args)

        def recording_judge(ab, classes, v, *rest):
            seen["reads"] += len(classes)
            seen["keys"].update((cls, tuple(v)) for cls in classes)
            return judge(ab, classes, v, *rest)

        monkeypatch.setattr(concat, "_extract_middle", counting_extract)
        monkeypatch.setattr(concat, "_judge", recording_judge)
        return seen

    @pytest.mark.parametrize("table", [None, frozenset()])
    @pytest.mark.parametrize("ab_pair,L", CASES)
    def test_one_extraction_per_class_and_root(self, monkeypatch, ab_pair, L, table):
        # One scan extracts each middle once per (class of (u, x), v root),
        # however many groups judge that class at that root.
        ab = Alphabet(*ab_pair)
        seen = self._count_extractions(monkeypatch)
        _scan(ab, L, self._xs(ab), table)
        assert seen["calls"] == len(seen["keys"]) < seen["reads"]

    def test_extractions_pinned_for_12(self, monkeypatch, ab12):
        # certify-concat --alphabet 1,2 -L 16 reads a middle 4,827 times and
        # extracts 372 of them.
        seen = self._count_extractions(monkeypatch)
        assert certify_concat(ab12, 16).tested_triples == 334218
        assert (seen["calls"], len(seen["keys"]), seen["reads"]) == (372, 372, 4827)

    @pytest.mark.parametrize("table", [None, frozenset()])
    @pytest.mark.parametrize("ab_pair,L", [((a, b), L) for a, b in ((2, 7), (1, 9), (4, 9), (2, 9))
                                           for L in range(3, b + 3)])
    def test_subtrees_lose_and_double_no_v(self, monkeypatch, ab_pair, L, table):
        # A group visits ε and its one-run v and walks the subtree of each
        # multi-run root c^k c̄.  Its nodes, violations and middles equal
        # those of one plain walk from its tower with a judgment at every v;
        # L < b also cuts first runs.
        ab = Alphabet(*ab_pair)
        judge, scan_group = concat._judge, concat._scan_group
        swap = (ab.a + ab.b).__sub__
        groups = 0

        def checked_scan_group(ab, L, table_set, found, task):
            nonlocal groups
            groups += 1
            seen = []

            def recording_judge(*args):
                seen.append(args)
                return judge(*args)

            monkeypatch.setattr(concat, "_judge", recording_judge)
            result = scan_group(ab, L, table_set, found, task)
            monkeypatch.setattr(concat, "_judge", judge)
            # Every judgment of the group reads the same classes.  The plain
            # walk extracts its own middles: each v is a root of its own.
            _, classes, _, _, _, _ = seen[0]
            nodes, violations, middles, own = 0, [], set(), {}

            def visit(tower, path):
                nonlocal nodes
                nodes += 1
                v = tuple(path)
                vs = (v, tuple(map(swap, v)))
                violations.extend((u, x, vs[flip], reason) for u, x, flip, reason
                                  in judge(ab, classes, path, table_set, middles, own))

            walk(ab, task[0], [], L, visit)
            assert result[0] == nodes
            assert sorted(result[1]) == sorted(violations)
            assert result[2] == middles
            return result

        monkeypatch.setattr(concat, "_scan_group", checked_scan_group)
        _scan(ab, L, TestScanDifferential._xs(ab), table)
        assert groups

    def test_huge_bound_needs_no_arrays_of_that_size(self, monkeypatch, ab12):
        # Stubbed walks visit only their root, so 10**20 is never walked.
        def root_only(ab, tower, path, max_len, visit):
            visit(tower, path)

        monkeypatch.setattr(concat, "walk", root_only)
        # Only u = ε is visited; its group visits v = ε, the one-run v and
        # the multi-run roots c^k c̄, and a run of 3 is too long over {1,2}.
        for x in [(), (1, 2)]:
            vs = [()] + [(c,) * k + end for c, d in ((1, 2), (2, 1)) for k in (1, 2, 3)
                         for end in ((), (d,))]
            vs = [v for v in vs if is_smooth_fast(x + v, ab12)]
            middles = {middle_witness((), x, v, ab12) for v in vs}
            assert None not in middles
            assert _scan(ab12, 10**20, [x], None) == (len(vs), [], set(map(tuple, middles)))


@pytest.mark.parametrize("du, dv, dfull", [
    pytest.param((1, 2), (1,), (2, 2, 1), id="prefix-mismatch"),
    pytest.param((1,), (2,), (1, 2, 1), id="suffix-mismatch"),
    # Both ends match, but D(u) and D(v) would share the letter 2.
    pytest.param((1, 2), (2, 1), (1, 2, 1), id="overlap"),
])
def test_no_middle_is_extracted(du, dv, dfull):
    # The triple is then a no-middle-decomposition violation.
    assert _extract_middle(du, dv, dfull) is None
    assert _extract_middle(du, dv, du + (3,) + dv) == (3,)


def _literal_middle(u, x, v, ab):
    """The middle of u·x·v by the literal ``calculus.derivative``, or None."""
    mid = _extract_middle(*(tuple(derivative(Word(w), ab)) for w in (u, v, u + x + v)))
    return None if mid is None else Word(mid)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_middle_depends_on_v_only_through_its_signature(data):
    # Signature locality, which _scan_group relies on, checked triple by
    # triple: two v with the same first letter, first run length and "one
    # run or more" give every smooth u·x·v the same middle, or both none.
    a = data.draw(st.integers(min_value=1, max_value=8), label="a")
    b = data.draw(st.integers(min_value=a + 1, max_value=9), label="b")
    ab = Alphabet(a, b)
    pool = sorted({tuple(w) for w in dsigma_table(ab).words}
                  | {tuple(w) for w in enumerate_smooth(ab, 3, min_len=0)})
    x = data.draw(st.sampled_from(pool), label="x")
    assume(is_smooth_fast(x, ab))
    letters = st.lists(st.sampled_from(ab.letters), max_size=12)
    # Suffixes of a u with u·x smooth keep it smooth, and prefixes of a v
    # with u·x·v smooth do too, so the longest such u and v are well defined.
    raw = tuple(data.draw(letters, label="u letters"))
    u = next(raw[i:] for i in range(len(raw) + 1) if is_smooth_fast(raw[i:] + x, ab))

    def longest_smooth_prefix(w):
        return next(w[:n] for n in range(len(w), -1, -1) if is_smooth_fast(u + x + w[:n], ab))

    v = longest_smooth_prefix(tuple(data.draw(letters, label="v letters")))
    assume(v)
    c = v[0]
    k = next((i for i, d in enumerate(v) if d != c), len(v))  # first run length
    if k == len(v):
        v2 = v  # one run: the signature is the whole word
    else:
        rest = tuple(data.draw(letters, label="v2 letters"))
        v2 = longest_smooth_prefix((c,) * k + (a + b - c,) + rest)
        assume(len(v2) > k)
    mid = middle_witness(u, x, v, ab)
    assert mid == middle_witness(u, x, v2, ab), (ab, u, x, v, v2)
    assert mid == _literal_middle(u, x, v, ab) and mid == _literal_middle(u, x, v2, ab)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shortened_triple_has_the_same_middle(data):
    # The shortening argument behind empirical_middle_set's bound b+1: cut u
    # to its last run plus one letter of the run before it, and v to its
    # root (ε, c^k or c^k c̄).  The cut triple is smooth, each cut part has
    # at most b+1 letters, and the middle is the same, or none for both.
    a = data.draw(st.integers(min_value=1, max_value=6), label="a")
    b = data.draw(st.integers(min_value=a + 1, max_value=7), label="b")
    ab = Alphabet(a, b)
    x = data.draw(st.sampled_from(sorted(tuple(w) for w in dsigma_table(ab).words)), label="x")
    assume(is_smooth_fast(x, ab))
    letters = st.lists(st.sampled_from(ab.letters), max_size=14)
    raw = tuple(data.draw(letters, label="u letters"))
    u = next(raw[i:] for i in range(len(raw) + 1) if is_smooth_fast(raw[i:] + x, ab))
    raw = tuple(data.draw(letters, label="v letters"))
    v = next(raw[:n] for n in range(len(raw), -1, -1) if is_smooth_fast(u + x + raw[:n], ab))
    last = next((i for i in range(len(u) - 1, 0, -1) if u[i - 1] != u[i]), 0)
    cut_u = u[max(last - 1, 0):]
    k = next((i for i, d in enumerate(v) if d != v[0]), len(v))  # first run length
    cut_v = v[:k + 1]
    assert len(cut_u) <= b + 1 and len(cut_v) <= b + 1
    assert middle_witness(cut_u, x, cut_v, ab) == middle_witness(u, x, v, ab), (ab, u, x, v)


def _draw_smooth_triple(data):
    """(alphabet with b <= 9, u, x, v cut from one smooth word of up to 16
    letters, draw), where draw(label) draws the letters of a smooth word."""
    a = data.draw(st.integers(min_value=1, max_value=8), label="a")
    b = data.draw(st.integers(min_value=a + 1, max_value=9), label="b")
    ab = Alphabet(a, b)

    def draw(label):
        n = data.draw(st.integers(min_value=0, max_value=16), label=label + " length")
        return tuple(data.draw(st.sampled_from(enumerate_smooth(ab, n)), label=label))

    w = draw("u·x·v")
    i = data.draw(st.integers(min_value=0, max_value=len(w)), label="|u|")
    j = data.draw(st.integers(min_value=i, max_value=len(w)), label="|u·x|")
    return ab, w[:i], w[i:j], w[j:], draw


def _same_class(ab, u, rest, draw):
    """Another u2 of the class of u with u2·rest smooth: for u of two runs
    or more, the longest such suffix of drawn letters, the other letter and
    u's last run; ε and one run are their own class."""
    last = next((i for i in range(len(u) - 1, 0, -1) if u[i - 1] != u[i]), None)
    if last is None:
        return u
    raw = draw("u2 letters") + (ab.a + ab.b - u[-1],) + u[last:]
    u2 = next(raw[i:] for i in range(len(raw) + 1) if is_smooth_fast(raw[i:] + rest, ab))
    # u's last two runs are a factor of u·rest, so they stay.
    assert len(u2) > len(u) - last
    return u2


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_middle_depends_on_u_only_through_its_class(data):
    # The u half of locality, which _judge relies on when it reuses a
    # middle across groups: two u with the same class (empty, one run or
    # more; last run length; last letter of u equal to the first of x or
    # not) give every smooth u·x·v the same middle, or both none.
    ab, u, x, v, draw = _draw_smooth_triple(data)
    u2 = _same_class(ab, u, x + v, draw)
    mid = middle_witness(u, x, v, ab)
    assert mid == middle_witness(u2, x, v, ab), (ab, u, u2, x, v)
    assert mid == _literal_middle(u, x, v, ab) and mid == _literal_middle(u2, x, v, ab)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_middle_is_a_function_of_the_whole_signature(data):
    # Both halves together: any two smooth triples with the same u class,
    # the same x and the same v signature have the same middle, or none.
    ab, u, x, v, draw = _draw_smooth_triple(data)
    u2 = _same_class(ab, u, x, draw)
    k = next((i for i, d in enumerate(v) if d != v[0]), len(v))  # first run length
    if k == len(v):
        v2 = v  # ε or one run: the signature is the whole word
        assume(is_smooth_fast(u2 + x + v2, ab))
    else:
        w = v[:k] + (ab.a + ab.b - v[0],) + draw("v2 letters")
        v2 = next(w[:n] for n in range(len(w), -1, -1) if is_smooth_fast(u2 + x + w[:n], ab))
        assume(len(v2) > k)
    mid = _literal_middle(u, x, v, ab)
    assert mid == _literal_middle(u2, x, v2, ab), (ab, u, u2, x, v, v2)
    assert mid == middle_witness(u, x, v, ab) and mid == middle_witness(u2, x, v2, ab)


@pytest.mark.parametrize("ab_pair", [(1, 2), (1, 3), (2, 5), (3, 4), (2, 9)])
def test_u_of_one_tower_share_class_and_pushes(ab_pair):
    # _scan files each u under its tower and pushes every x once per tower:
    # the u of one tower must have one (two runs or more, last run length,
    # last letter), that of the tower's bottom level, and each table x must
    # give all of them one tower of u·x, or fail for all of them.
    ab = Alphabet(*ab_pair)
    xs = sorted(tuple(w) for w in dsigma_table(ab).words)
    groups = {}
    for u in enumerate_smooth(ab, 10, min_len=0):
        groups.setdefault(seeded_state(ab, u), []).append(tuple(u))
    for tower, us in groups.items():
        bottom = bottom_level(tower)
        for u in us:
            runs = run_lengths(u)
            assert ((len(runs) > 1, runs[-1], u[-1]) if u else (False, 0, 0)) == bottom, \
                (ab, tower, u)
        for x in xs:
            assert len({seeded_state(ab, u + x) for u in us}) == 1, (ab, us, x)
    assert len(groups) < sum(map(len, groups.values())), ab


class TestComplementHalving:
    """``certify_concat`` files a pair (u, x) whose u·x ends in b under the
    tower of its complement and reports the complement of v for it; the
    reference merges ``_scan`` over each non-empty x on its own with all
    triples of x = ε, listed by pairs of smooth words without a walk."""

    # (alphabet, L, explore, truncated table or None).  The stored tables put
    # violations only on x whose complement is outside the table ({1,3}:
    # 1113, 3111); a truncated table puts them on ε and on complement pairs.
    CASES = [((1, 2), 7, None, None), ((1, 3), 8, None, None), ((1, 4), 7, None, None),
             ((2, 5), 9, None, None), ((3, 4), 9, None, None), ((1, 5), 8, None, None),
             ((1, 2), 6, 4, None), ((2, 4), 7, 4, None),
             ((1, 2), 7, None, ("", "1", "2", "12", "21")),
             ((2, 5), 8, None, ("", "2", "5")),
             # The only x of length 0 is ε: the reference is _epsilon alone.
             ((1, 2), 8, 0, None), ((1, 3), 8, 0, None), ((2, 5), 9, 0, None)]

    @staticmethod
    def _epsilon(ab, L, check):
        """(tested, violations, middles) over every (u, ε, v)."""
        words = [tuple(w) for w in enumerate_smooth(ab, L, min_len=0)]
        derivs = {w: derivative_from_runs(run_lengths(w), ab.b) for w in words}
        tested, violations, middles = 0, [], set()
        for u in words:
            for v in words:
                if not is_smooth_fast(u + v, ab):
                    continue
                tested += 1
                mid = _extract_middle(derivs[u], derivs[v],
                                      derivative_from_runs(run_lengths(u + v), ab.b))
                if mid is None:
                    violations.append((u, (), v, "no-middle-decomposition"))
                    continue
                middles.add(mid)
                if check is not None and mid not in check:
                    violations.append((u, (), v, "middle-not-in-table"))
        return tested, violations, middles

    @classmethod
    def _reference(cls, ab, L, explore):
        if explore is None:
            xs = [tuple(w) for w in concat.dsigma_table(ab).words]
            check = frozenset(xs)
        else:
            xs = [tuple(w) for w in enumerate_smooth(ab, explore, min_len=0)]
            check = None
        tested, violations, middles = cls._epsilon(ab, L, check)
        for x in xs:
            if x:
                count, vio, mids = _scan(ab, L, [x], check)
                tested += count
                violations += vio
                middles |= mids
        def shortlex(w):
            return len(w), w

        violations.sort(key=lambda r: (shortlex(r[0]), shortlex(r[1]), shortlex(r[2])))
        return tested, violations, sorted(middles, key=shortlex)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("ab_pair,L,explore,table", CASES)
    def test_matches_full_scans(self, monkeypatch, ab_pair, L, explore, table, jobs):
        ab = Alphabet(*ab_pair)
        if table is not None:
            monkeypatch.setattr(concat, "dsigma_table",
                                lambda ab: DsigmaTable(ab, frozenset(map(Word, table))))
        tested, violations, middles = self._reference(ab, L, explore)
        cert = certify_concat(ab, L, jobs=jobs, explore=explore)
        assert cert.x_source == ("table" if explore is None else f"smooth-x<={explore}")
        assert cert.tested_triples == tested
        assert [tuple(v) for v in cert.violations] == violations
        assert [tuple(w) for w in cert.middle_set] == middles
        if table is not None:
            # Violations on ε and on both members of a complement pair.
            xs = {word_to_text(v.x) for v in cert.violations}
            assert {"", table[1], table[2]} <= xs, xs


class TestEmpiricalMiddleSet:
    def test_subset_of_table_for_12(self, ab12):
        ems = empirical_middle_set(ab12)
        assert EPSILON in ems
        assert ems <= set(dsigma_table(ab12).words)

    def test_exactly_table_plus_gap_for_13(self, ab13):
        # Independent fixpoint oracle: rebuilds the whole stored table plus
        # the two middles the stored table lacks, then closes.
        ems = empirical_middle_set(ab13)
        assert ems == set(dsigma_table(ab13).words) | words(["133", "331"])

    def test_contains_epsilon_at_tiny_bound(self, ab12):
        # ε seeds the fixpoint, so it is a middle at any bound, down to 1.
        assert EPSILON in self._fixpoint_at(ab12, 1)
        assert EPSILON in empirical_middle_set(ab12)

    def test_fixpoint_larger_than_the_limit_raises(self, ab12, monkeypatch):
        # The {1,2} fixpoint has 22 middles, more than five.
        monkeypatch.setattr(concat, "_MIDDLE_SET_LIMIT", 5)
        with pytest.raises(RuntimeError, match="exceeded 5 elements"):
            empirical_middle_set(ab12)

    @staticmethod
    def _fixpoint_at(ab, L):
        """The fixpoint with every round's scan at bound L."""
        found, new = {()}, {()}
        while new:
            new = _scan(ab, L, list(new), None)[2] - found
            found |= new
        return {Word(t) for t in found}

    def test_equals_the_stored_tables_at_every_length(self):
        # The stored tables, C07's {1,3} refutation included, hold at every
        # length: the fixpoint scans at b+1, and for b <= 6 it is also the
        # fixpoint whose rounds scan at b+2 and at b+3.
        for b in range(2, 13):
            for a in range(1, b):
                ab = Alphabet(a, b)
                ems = empirical_middle_set(ab)
                table = set(dsigma_table(ab).words)
                if (a, b) == (1, 3):
                    table |= words(["133", "331"])
                assert ems == table, ab
                if b <= 6:
                    for L in (b + 2, b + 3):
                        assert self._fixpoint_at(ab, L) == ems, (ab, L)


class TestTripleSplitting:
    def test_three_part_decomposition(self):
        # D(u1 u2 u3) = D(u1) w1 D(u2) w2 D(u3) with both middles in the table.
        for ab, max_len in [(Alphabet(1, 2), 6), (Alphabet(1, 3), 6), (Alphabet(2, 4), 5)]:
            pool = [tuple(w) for w in enumerate_smooth(ab, max_len, min_len=0)]
            table = {tuple(w) for w in dsigma_table(ab).words}
            b = ab.b
            derivs = {w: derivative_from_runs(run_lengths(w), b) for w in pool}
            tested = 0
            for u1 in pool:
                for u2 in pool:
                    u12 = u1 + u2
                    if not is_smooth_fast(u12, ab):
                        continue
                    for u3 in pool:
                        full = u12 + u3
                        if not is_smooth_fast(full, ab):
                            continue
                        tested += 1
                        assert self._splits(derivs[u1], derivs[u2], derivs[u3],
                                            derivative_from_runs(run_lengths(full), b), table), \
                            (ab, u1, u2, u3)
            assert tested > 1000

    @staticmethod
    def _splits(d1, d2, d3, df, table):
        slack = len(df) - len(d1) - len(d2) - len(d3)
        if slack < 0 or df[:len(d1)] != d1 or (d3 and df[-len(d3):] != d3):
            return False
        for l1 in range(slack + 1):
            w1 = df[len(d1):len(d1) + l1]
            if w1 not in table:
                continue
            pos = len(d1) + l1
            if df[pos:pos + len(d2)] != d2:
                continue
            w2 = df[pos + len(d2):len(df) - len(d3)]
            if w2 in table:
                return True
        return False


def _tamper_power_level(change):
    """The literal derivative, with D((3111313111)^4) passed through ``change``."""
    real, power = calculus.derivative, Word("3111313111") * 4
    return lambda w, ab: change(real(w, ab)) if w == power else real(w, ab)


def _table_without(word):
    """The stored middle-word tables, without ``word``."""
    real = dsigma.dsigma_table
    return lambda ab: DsigmaTable(ab, real(ab).words - {word})


class TestPowerDecomposition:
    def test_square_of_12(self, ab12):
        pd = power_decomposition(Word("12"), 2, ab12)
        assert pd.levels == ((1, Word("11")),)

    def test_square_of_21_mirror(self, ab12):
        pd = power_decomposition(Word("21"), 2, ab12)
        assert pd.levels == ((1, Word("11")),)

    def test_biquadrate_all_levels(self, ab13):
        pd = power_decomposition(Word("3111313111"), 4, ab13)
        assert [j for j, _ in pd.levels] == [1, 2]
        table = dsigma_table(ab13).words
        assert all(w in table for _, w in pd.levels)

    def test_multirun_cube_over_23(self):
        ab = Alphabet(2, 3)
        pd = power_decomposition(Word("2233322233"), 3, ab)
        assert pd.levels == ((1, Word("22")),)

    def test_precondition_two_runs(self, ab12):
        with pytest.raises(ValueError):
            power_decomposition(Word("2"), 2, ab12)

    def test_precondition_smooth_power(self, ab12):
        with pytest.raises(ValueError):
            power_decomposition(Word("12"), 3, ab12)  # cube-free alphabet

    def test_json(self, ab12):
        doc = power_decomposition(Word("12"), 2, ab12).to_json()
        assert doc == {"alphabet": [1, 2], "base": "12", "exponent": 2,
                       "levels": [{"j": 1, "witness": "11"}]}

    @pytest.mark.parametrize("module, name, stub, text, expected, actual", [
        (calculus, "derivative", _tamper_power_level(lambda d: d + Word("1")),
         "|D^1(u^4)| = 24 does not fit (|D^1(u)| 5)·4 + (n-1)·|w|",
         None, Word("311131311131311131311131")),
        (calculus, "derivative", _tamper_power_level(lambda d: d[:-1] + Word("1")),
         "(D^1(u) w)^3 D^1(u) does not reproduce D^1(u^4)",
         Word("31113131113131113131111"), Word("31113131113131113131113")),
        (dsigma, "dsigma_table", _table_without(Word("1")),
         "middle word '1' is outside the table", None, Word("1")),
    ], ids=["does-not-fit", "does-not-reproduce", "outside-the-table"])
    def test_certification_violations(self, monkeypatch, capsys, ab13, module, name, stub,
                                      text, expected, actual):
        # Each check is forced to fail at level 1 of (3111313111)^4; the CLI
        # reports the violation on stderr alone and exits 1.
        monkeypatch.setattr(module, name, stub)
        with pytest.raises(CertificationError) as err:
            power_decomposition(Word("3111313111"), 4, ab13)
        exc = err.value
        assert (str(exc), exc.level, exc.expected, exc.actual) == (
            f"level 1: {text}", 1, expected, actual)
        code = main(["power-decomp", "--alphabet", "1,3", "--word", "3111313111", "-n", "4"])
        out, err_text = capsys.readouterr()
        assert (code, out, err_text) == (1, "", f"certification violation: level 1: {text}\n")
