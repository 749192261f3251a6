"""Acceptance suite: one test per desk-scale criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Two criteria fail by design and are expected to stay red: the exhaustive
census refutes the claims they pin down.  Criterion 5 expects no multi-letter
smooth base over {2,3} to have a smooth cube, but ("2233322233")^3 is smooth
(chain 3322332233 -> 222 -> 3 -> eps).  Criterion 7 expects the stored {1,3}
middle-word table to absorb every extracted middle, but the smooth product
13|1113|33 forces the middle 133 (and its mirror 331), which the stored
16-word table lacks.  Both counterexamples were re-verified with an
independent implementation written directly from the definitions; weakening
the checks to hide them would defeat their purpose.
"""

import time
from itertools import product

from smoothwords import (Alphabet, EPSILON, Word, certify_concat, complement,
                         delta, derivative, dsigma_table, empirical_middle_set,
                         enumerate_smooth, gamma, h_delta, is_differentiable,
                         is_smooth, kolakoski_prefix, lift_family, mirror,
                         power_decomposition, rho, rho_by_formula, runs,
                         scan_powers, smooth_chain, word_to_text)
from smoothwords.errors import NotClosableError
from smoothwords.core import closure

AB12 = Alphabet(1, 2)
AB13 = Alphabet(1, 3)

H_TABLE = {(1, 4): 4, (1, 5): 5, (2, 3): 3, (2, 4): 4, (3, 4): 4}


def report(number, ok, elapsed, detail):
    print(f"ACCEPTANCE C{number:02d}: {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.2f}s] {detail}")


def test_c01_kolakoski_fixed_point():
    t0 = time.time()
    prefix = kolakoski_prefix(AB12, 1, 10000)
    d = delta(prefix)
    head_ok = prefix[:19] == Word("1221121221221121122")
    # the cut may truncate the final run; every earlier letter must be exact
    fixed_ok = d[:-1] == prefix[:len(d) - 1] and d[-1] <= prefix[len(d) - 1]
    elapsed = time.time() - t0
    report(1, head_ok and fixed_ok and elapsed < 1.0, elapsed,
           f"run-length word reproduces the prefix ({len(d)} letters checked)")
    assert head_ok and fixed_ok
    assert elapsed < 1.0


def test_c02_cube_freeness_12():
    t0 = time.time()
    rep = scan_powers(AB12, 3, 30)
    elapsed = time.time() - t0
    ok = rep.gamma == 0 and not rep.witnesses
    report(2, ok and elapsed < 60, elapsed,
           f"{len(rep.witnesses)} cube witnesses over {{1,2}} at L=30")
    assert ok
    assert elapsed < 60


def test_c03_forty_six_squares():
    t0 = time.time()
    count, rep = gamma(AB12, 2, 60)
    elapsed = time.time() - t0
    ok = count == 46 and rep.stable
    report(3, ok and elapsed < 120, elapsed,
           f"gamma={count}, last new square at base length {rep.last_new_base_length}")
    assert count == 46, rep.note
    assert rep.stable, rep.note
    assert rep.last_new_base_length < 45
    assert elapsed < 120


def test_c04_13_biquadrate_and_quintic_freeness():
    t0 = time.time()
    chain = smooth_chain(Word("3111313111") * 4, AB13)
    rep = scan_powers(AB13, 5, 12)
    elapsed = time.time() - t0
    ok = chain.is_smooth and rep.gamma == 0
    report(4, ok and elapsed < 60, elapsed,
           f"biquadrate smooth={chain.is_smooth}, quintic witnesses={len(rep.witnesses)}")
    assert chain.is_smooth
    assert rep.gamma == 0 and not rep.witnesses
    assert elapsed < 60


def test_c05_h_table_spot_checks():
    t0 = time.time()
    offenders = {}
    for (a, b), h in H_TABLE.items():
        ab = Alphabet(a, b)
        assert h_delta(ab).h == h
        rep = scan_powers(ab, h, 10)
        multi = [word_to_text(w.base) for w in rep.witnesses if len(w.base) > 1]
        if multi:
            offenders[(a, b)] = multi
    elapsed = time.time() - t0
    assert elapsed < 120
    report(5, not offenders, elapsed,
           f"multi-letter bases with smooth h-powers: {offenders or 'none'}")
    # Expected red: {2,3} has smooth cubes with the 10-letter bases
    # 2233322233 and 3322233322, refuting 3-power-freeness there.
    assert not offenders, (
        f"multi-letter smooth bases with smooth h(a,b)-powers exist: {offenders}")


def test_c06_delta_sharpness():
    t0 = time.time()
    ok = True
    for (a, b) in H_TABLE:
        ab = Alphabet(a, b)
        d = h_delta(ab).delta
        assert d == b + 1
        for alpha in (a, b):
            assert is_smooth(Word((alpha,) * b), ab)
        rep = scan_powers(ab, d, 10)
        ok = ok and not rep.witnesses
        assert not rep.witnesses, (a, b)
    elapsed = time.time() - t0
    report(6, ok and elapsed < 60, elapsed,
           "alpha^b smooth everywhere, no smooth delta-powers at L=10")
    assert elapsed < 60


def test_c07_concat_certification():
    t0 = time.time()
    combos = [(AB12, 12), (AB13, 12), (Alphabet(1, 4), 8), (Alphabet(1, 5), 8),
              (Alphabet(2, 3), 8), (Alphabet(2, 5), 8), (Alphabet(3, 4), 8)]
    failures = {}
    for ab, L in combos:
        cert = certify_concat(ab, L)
        ems = empirical_middle_set(ab)
        table = set(dsigma_table(ab).words)
        problems = []
        if cert.violations:
            problems.append(f"{len(cert.violations)} violations")
        extra = ems - table
        if extra:
            problems.append("middles outside table: "
                            + " ".join(sorted(map(word_to_text, extra))))
        if problems:
            failures[str(ab)] = "; ".join(problems)
    elapsed = time.time() - t0
    assert elapsed < 300
    report(7, not failures, elapsed, f"table escapes: {failures or 'none'}")
    # Expected red: over {1,3} the smooth products around x=1113/x=3111
    # force the middles 133 and 331, missing from the stored table.
    assert not failures, f"middle-word table certification failed: {failures}"


def test_c08_power_decompositions():
    t0 = time.time()
    jobs = [(Word("3111313111"), 4, AB13)]
    for w in scan_powers(AB13, 4, 12).witnesses:
        jobs.append((w.base, 4, AB13))
    for (a, b), h in H_TABLE.items():
        ab = Alphabet(a, b)
        for w in scan_powers(ab, h, 10).witnesses:
            jobs.append((w.base, h, ab))
    decomposed = 0
    for base, n, ab in jobs:
        if runs(base).r >= 2:
            decomp = power_decomposition(base, n, ab)  # raises on any mismatch
            table = dsigma_table(ab).words
            assert decomp.levels and all(w in table for _, w in decomp.levels)
            decomposed += 1
        else:
            # single-run witnesses are exactly the single-letter powers
            assert len(base) == 1 and base[0] in (ab.a, ab.b)
    elapsed = time.time() - t0
    report(8, True, elapsed,
           f"{decomposed} multi-run witnesses decomposed with table middles")
    assert decomposed >= 7


def test_c09_lifting_families():
    t0 = time.time()
    fam24 = lift_family(Word("2244"), 3, 2, 3, Alphabet(2, 4))
    fam13 = lift_family(Word("3111313111"), 4, 1, 3, AB13)
    # any CertificationError here is a refuted-claim failure of the suite
    fam15 = lift_family(Word("155555"), 4, 1, 2, Alphabet(1, 5))
    elapsed = time.time() - t0
    ok = len(set(fam24)) == 3 and len(set(fam13)) == 3 and len(set(fam15)) == 2
    report(9, ok and elapsed < 60, elapsed,
           f"family sizes {len(fam24)}/{len(fam13)}/{len(fam15)}, all powers smooth")
    assert ok
    assert elapsed < 60


def _invariant_sweep(ab, max_len):
    for n in range(max_len + 1):
        for tup in product(ab.letters, repeat=n):
            w = Word(tup)
            try:
                closed = closure(w, ab)
            except NotClosableError:
                closed = None
            if closed is not None:
                assert closure(mirror(w), ab) == mirror(closed)
                assert closure(complement(w, ab), ab) == complement(closed, ab)
            if is_differentiable(w, ab):
                d = derivative(w, ab)
                assert derivative(mirror(w), ab) == mirror(d)
                assert derivative(complement(w, ab), ab) == d
                assert runs(w).r <= len(d) + 2
                image = rho(w, ab)
                assert image == rho_by_formula(w, ab)
                if len(w) >= 1:
                    assert len(image) < len(w)
                assert rho(complement(w, ab), ab) == image
                assert rho(mirror(w), ab) == mirror(image)
                text_closed = word_to_text(closed)
                assert word_to_text(w) in text_closed
                for i in range(len(w)):
                    for j in range(i + 1, len(w) + 1):
                        assert word_to_text(closure(w[i:j], ab)) in text_closed
            if is_smooth(w, ab):
                for i in range(len(w)):
                    for j in range(i + 1, len(w) + 1):
                        assert is_smooth(w[i:j], ab)
            if is_smooth(delta(w), ab):
                assert is_smooth(w, ab)
    half = max_len // 2
    pool = [Word(t) for n in range(half + 1) for t in product(ab.letters, repeat=n)]
    for u in pool:
        for v in pool:
            lhs = delta(u + v)
            rhs = delta(u) + delta(v)
            if u and v:
                assert (lhs == rhs) == (u[-1] != v[0])
            else:
                assert lhs == rhs


def test_c10_invariant_suite():
    t0 = time.time()
    for ab, bound in [(AB12, 12), (AB13, 12), (Alphabet(2, 4), 8), (Alphabet(3, 4), 8)]:
        _invariant_sweep(ab, bound)
    elapsed = time.time() - t0
    report(10, elapsed < 300, elapsed,
           "symmetry, factor-closure, splitting and shrink laws: zero counterexamples")
    assert elapsed < 300


def test_c11_enumeration_oracle():
    t0 = time.time()
    for ab in (AB12, AB13):
        for n in range(11):
            naive = [Word(t) for t in product(ab.letters, repeat=n)
                     if smooth_chain(Word(t), ab).is_smooth]
            assert enumerate_smooth(ab, n) == naive, (ab, n)
    counts = [len(enumerate_smooth(AB12, n)) for n in (1, 2, 3)]
    elapsed = time.time() - t0
    report(11, counts == [2, 4, 6], elapsed,
           f"prefix-pruned enumeration equals the naive filter; counts {counts}")
    assert counts == [2, 4, 6]
