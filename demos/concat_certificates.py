"""Certifying the middle-word tables for derivatives of concatenations.

When uxv is smooth and x comes from a small per-alphabet table, the
derivative splits as D(uxv) = D(u) w D(v) with the middle w again in the
table.  certify_concat re-checks that exhaustively at bounded length, and
empirical_middle_set rebuilds the table from nothing but derivative slices,
at every length.

Over {1,2} the stored 22-word table is airtight and fully realized.  Over
{1,3} the same machinery exposes two middles the stored table lacks.
"""

from smoothwords import (Alphabet, Word, certify_concat, dsigma_table,
                         empirical_middle_set, middle_witness,
                         power_decomposition, word_to_text)


def show(words):
    return " ".join(sorted((word_to_text(w) or "eps" for w in words),
                           key=lambda t: (len(t), t)))


for a, b, bound in [(1, 2, 10), (1, 3, 10), (2, 5, 8), (3, 4, 8)]:
    ab = Alphabet(a, b)
    table = dsigma_table(ab)
    cert = certify_concat(ab, bound)
    fixpoint = empirical_middle_set(ab)
    print(f"alphabet {{{a},{b}}}  (table of {len(table.words)}, bound {bound})")
    print(f"  smooth triples tested: {cert.tested_triples}")
    print(f"  violations: {len(cert.violations)}")
    escaped = fixpoint - set(table.words)
    if escaped:
        print(f"  fixpoint escapes the table: {show(escaped)}")
    else:
        print(f"  fixpoint stays inside the table "
              f"({len(fixpoint)} of {len(table.words)} realized)")
    print()

print("the minimal escape over {1,3}: both flanking derivatives are empty,")
print("so the middle is forced to be the whole derivative of the product:")
u, x, v = Word("13"), Word("1113"), Word("33")
w = middle_witness(u, x, v, Alphabet(1, 3))
print(f"  u={u} x={x} v={v}: D(uxv) = {w}, not among the stored middles")

print("\nthe same splitting applied to powers, level by level:")
for base, n, (a, b) in [("12", 2, (1, 2)), ("3111313111", 4, (1, 3)),
                        ("2233322233", 3, (2, 3))]:
    decomp = power_decomposition(Word(base), n, Alphabet(a, b))
    inner = ", ".join(f"level {j}: {word_to_text(w) or 'eps'}"
                      for j, w in decomp.levels)
    print(f"  ({base})^{n} over {{{a},{b}}}: {inner}")
