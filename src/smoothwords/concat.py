"""The concatenation derivative identity: its certifier and the middle-word fixpoint.

For smooth uxv with x drawn from a fixed finite table (the stored tables are
in :mod:`smoothwords.dsigma`), the derivative splits as D(uxv) = D(u) w D(v)
with the middle word w again in the table.  The table depends only on the
alphabet class; :func:`certify_concat` re-verifies the splitting
exhaustively at bounded length, and :func:`empirical_middle_set` rebuilds
the table from scratch as a least fixpoint, independent of the stored
literals, and complete at every length: it scans at L = b+1, where every
middle of a longer triple already occurs.  The one-word certifier
:func:`middle_witness` derives with the literal ``calculus.derivative``,
imported when it runs.  A :class:`ConcatCertificate` renders itself as
text or JSON.  The same splitting applied to powers,
:func:`smoothwords.powers.power_decomposition`, lives with the other
one-word power objects, so neither ``dsigma`` nor ``power-decomp``
compiles this module.

Both certifiers run on one scan (:func:`_scan`) over a list of x words:
one walk over u that files each u under its tower, one round of x pushes
per distinct tower of u (its u have the same smooth extensions), and one
group of v per distinct tower of u·x whatever the x.  The pairs (u, x) of
one tower of u·x are judged once per *junction signature* of v (first
letter, first run length, one run or more), not once per v: the verdict at
v depends on v through nothing else.  Every v of one signature is
either c^k or lies in the subtree below c^k c̄, so a group judges each root
once and its walks over v cost their pushes and little else.  The verdict
depends on (u, x) only through its *class* (u empty, one run or more; the
last run length of u; whether u's last letter is x's first; the runs of x),
so one scan extracts each middle once per (class, root), whatever the group
(both proofs are in :func:`_scan_group`).  The class needs no letter of u
beyond its tower's bottom level, so every u of one tower rides in one
member of its group, which counts it once per v and lists it on a failure.
The scan uses the complement symmetry once, where it files each pair:
swapping a and b keeps every run length, so (u, x, v) and (ū, x̄, v̄) are
smooth together and have the same derivatives and the same middle, and a
u·x that ends in b shares the walk over v of its complement.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .core import Alphabet, Word, run_lengths, word_to_text
from .dsigma import _shortlex, dsigma_table
from .search import (bottom_level, complement_tower, derivative_from_runs, map_tasks,
                     push_copies, walk)

__all__ = ["ConcatViolation", "ConcatCertificate", "middle_witness", "certify_concat",
           "empirical_middle_set"]

# More middles than this in empirical_middle_set: the splitting property is broken.
_MIDDLE_SET_LIMIT = 512


def _extract_middle(du: tuple, dv: tuple, dfull: tuple) -> tuple | None:
    """The middle slice of dfull between a literal du prefix and dv suffix."""
    nu, nv, nf = len(du), len(dv), len(dfull)
    if nu + nv > nf or dfull[:nu] != du or (nv and dfull[nf - nv:] != dv):
        return None
    return dfull[nu:nf - nv]


def middle_witness(u, x, v, ab: Alphabet) -> Word | None:
    """The middle word w with D(uxv) = D(u) w D(v), or None if no such slice.

    Requires uxv smooth.  Absence of a witness is data for the certifier,
    not an error.  It reads the literal calculus, which the scans never load.
    """
    from .calculus import derivative, is_smooth
    u, x, v = Word(u), Word(x), Word(v)
    full = u + x + v
    if not is_smooth(full, ab):
        raise ValueError(f"u·x·v = {word_to_text(full)!r} must be smooth over {ab}")
    return _extract_middle(derivative(u, ab), derivative(v, ab), derivative(full, ab))


def _scan(ab: Alphabet, L: int, xs: list, table_set: frozenset | None, jobs: int = 1):
    """Certify every (u, x, v) with x in ``xs``, u, v smooth, |u|,|v| <= L
    and uxv smooth.  Returns (triples tested, violations, set of extracted
    middles); with ``table_set`` None only the middles are collected,
    otherwise a middle outside it is a violation.

    One walk over u files each u under its tower.  Words with equal towers
    have the same smooth extensions, so each x is pushed once per distinct
    tower of u, and the pairs (u, x) with a smooth u·x are grouped by the
    tower of u·x, filed under the tower of its complement when u·x ends in
    b, and within its group by its class.  A walk reads nothing but its
    tower, so the v that extend a group's tower are, for a pair filed as it
    is, its smooth v, and for a flipped pair the complements of its smooth
    v.  Each group is one task (:func:`_scan_group`), in first-seen order,
    mapped over ``jobs`` workers.  Every group reads and fills one dict of
    this call, which maps (class of (u, x), v root) to the middle or None,
    so a middle is extracted once per (class, root) in the scan; a forked
    share starts with what the dict held at the fork.  The dict lives no
    longer than the call: its keys name neither the alphabet nor the table.

    A group maps each class, in first-seen order, to its *members*
    (us, x, flip).  ``us`` lists the letters of every u of one tower, one
    list shared by all x.  The class of their pairs with x follows from x
    and the tower's :func:`~smoothwords.search.bottom_level`, and ``flip``
    says whether u·x was complemented.  So x costs one push per tower of u,
    not per u, and a group's v count is multiplied by the number of u its
    members hold.  The x are taken in shortlex order, so an x whose prefix
    one letter shorter is also an x (tables and explore lists are
    prefix-closed) costs one push onto that prefix's tower.
    """
    b = ab.b
    # An x with a letter outside {a, b} has no triple (push_copies does not check).
    # Each x is a plain tuple: the pushes index it per tower, a Word by a call.
    xs = sorted((tuple(x) for x in xs if ab.first_foreign(x) is None), key=_shortlex)
    index = {x: i for i, x in enumerate(xs)}
    # Each x with its runs and the index of x less its last letter, or -1
    # when that is not an x (or x is ε).
    plan = [(x, tuple(run_lengths(x)), index.get(x[:-1], -1) if x else -1) for x in xs]
    by_tower: dict[tuple, list[tuple]] = {}
    walk(ab, (), [], L, lambda tower, upath: by_tower.setdefault(tower, []).append(tuple(upath)))
    groups: dict[tuple, dict[tuple, list[tuple]]] = {}
    for tower, us in by_tower.items():
        many, length, last = bottom_level(tower)
        towers = []
        for x, xr, prefix in plan:
            if prefix < 0:
                ux_tower = push_copies(ab, tower, x, 1)
            else:
                ux_tower = towers[prefix]
                if ux_tower is not None:
                    ux_tower = push_copies(ab, ux_tower, x[-1:], 1)
            towers.append(ux_tower)
            if ux_tower is not None:
                # The last letter of u·x: x's, or u's when x = ε.
                flip = (x[-1] if x else last) == b
                if flip:
                    ux_tower = complement_tower(ux_tower, ab)
                cls = (many, length, x[0] == last if x else False, xr)
                groups.setdefault(ux_tower, {}).setdefault(cls, []).append((us, x, flip))

    tasks = list(groups.items())
    tested = 0
    violations: list[tuple[tuple, tuple, tuple, str]] = []
    middles: set[tuple] = set()
    found: dict[tuple, tuple | None] = {}
    for (_, classes), (nodes, vio, mids) in zip(
            tasks, map_tasks(partial(_scan_group, ab, L, table_set, found), tasks, jobs)):
        tested += nodes * sum(len(us) for group in classes.values() for us, _, _ in group)
        violations += vio
        middles |= mids
    return tested, violations, middles


def _scan_group(ab: Alphabet, L: int, table_set: frozenset | None, found: dict, task: tuple):
    """Every v from the tower shared by a group of pairs (u, x); returns
    (v nodes visited, violations, middles).  The task is the tower and a
    dict from each class to its members (us, x, flip), as :func:`_scan`
    files them.  ``found`` maps (class, v root) to the middle or None, as
    :func:`_scan` says.

    Every non-empty u·x of the group ends in a, or is flipped: it ends in b
    and stands for its complement, which has the same runs, derivative and
    middles, so a flipped pair's triple at v is (u, x, v̄).  The verdict of
    every pair at v ≠ ε depends on v only through its *signature*: its first
    letter, the length k of its first run, and whether it is one run.  A
    one-run v is c^k, and every v with more runs and signature (c, k) lies
    in the subtree below c^k c̄.  So v = ε and each c^k are judged
    (:func:`_judge`) and visited on their own, and each root c^k c̄ is
    judged once and its subtree walked, each v of it reporting the root's
    failing pairs: at most 4b + 1 judgments per group, however many v the
    walks visit.  The verdict depends on (u, x) only through its *class*:
    whether u is empty, one run or more, the last run length of u, whether
    the last letter of u is the first letter of x, and the runs of x.  So a
    judgment reads one middle per class, and a middle is extracted once per
    (class, root) in a whole scan.

    Proof for v.  Let t be the last run length of u·x (0 for u·x = ε), R
    the runs of u·x, without the last run when v starts with a (the merge:
    v's first run continues that run), and V the runs of v, the first
    lengthened by t on a merge, so V[0] is k + t or k.  Then u·x·v has the
    runs R + V, and ``derivative_from_runs`` drops each boundary run unless
    it has length b.  The first letter fixes the merge, and with k it fixes
    V[0].

    * v is one run: u·x·v has the runs R + (V[0],), and D(v) is (b,) or ε
      as k is b or not, so the signature fixes all three derivatives.
    * v has two runs or more, so e = |V| - (V[-1] != b) >= 1.  Then
      D(u·x·v) = P + V[1:e] with P = (R + (V[0],))[s:], where s = 0 when
      the first run of u·x·v has length b and 1 otherwise, and D(v) =
      Q + V[1:e] with Q = (b,) when k = b and ε otherwise.  Cutting one
      suffix off both a word and its expected suffix changes neither
      whether a middle exists nor what it is, so the middle is that of D(u),
      Q and P, and P and Q depend on v only through (merge, V[0], k):
      - k ≠ b: Q = ε, and the middle is what (R + (V[0],))[s:] leaves after
        D(u); with R ≠ ε that is R[s:] + (V[0],);
      - k = b without a merge: V[0] = b, so P = (R + (b,))[s:] and Q = (b,)
        are the same for every such v; with R ≠ ε the middle is what R[s:]
        leaves after D(u);
      - k = b with a merge and u·x ≠ ε: V[0] = b + t > b, so u·x·v is not
        smooth and the walk never reaches it.  (For u·x = ε, t = 0 and
        R = ε, so a merge changes nothing.)

    Proof for u.  The proof for v reads (u, x) only through D(u), the runs
    of u·x and t.  For an empty u the class fixes all three: they are ε, the
    runs of x and x's last run length.  For u = c^l it fixes them too: D(u)
    is (b,) or ε as l is b or not, and u·x has the runs (l + x₁,) followed
    by the rest of x's runs when c is the first letter of x, and (l,)
    followed by x's runs otherwise.  Now let u have n >= 2 runs U, the last
    of length l.  Then u·x·v has the runs F = U[:n-1] + T + V, where T, the
    runs from u's last run on with the last one dropped on a merge, and V
    depend on u only through the class, and T + V ≠ ε.  The first run of
    u·x·v is U[0], so D(u) and D(u·x·v) drop the same first run: with s as
    above, D(u) = U[s:n-1] + Z, where Z = (b,) when l = b and ε otherwise,
    and D(u·x·v) = U[s:n-1] + G, where G is T + V less its last run unless
    that has length b.  The two agree up to position n - 1, and everything
    after it moves by that one offset: the prefix test drops U[s:n-1] on
    both sides, the length test subtracts its length from both, and when
    that holds, D(v) is a suffix of G.  So the middle is that of Z, D(v)
    and G, which depend on u only through its class.
    """
    ux_tower, classes = task
    a, b = ab.a, ab.b
    swap = (a + b).__sub__
    violations: list[tuple[tuple, tuple, tuple, str]] = []
    middles: set[tuple] = set()
    nodes = 0
    failing: list[tuple] = []

    def visit_v(tower: tuple, path: list[int]) -> None:
        nonlocal nodes
        nodes += 1
        if failing:
            v = tuple(path)
            vs = (v, tuple(map(swap, v)))
            violations.extend((u, x, vs[flip], reason) for u, x, flip, reason in failing)

    def root(tower: tuple, path: list[int], subtree: bool) -> None:
        # Judge the signature of path, then visit path and, for a subtree,
        # every v below it: they all have that signature.
        nonlocal failing
        failing = _judge(ab, classes, path, table_set, middles, found)
        if subtree:
            walk(ab, tower, path, L, visit_v)
        else:
            visit_v(tower, path)

    root(ux_tower, [], False)
    for c, other in ((a, b), (b, a)):
        tower, run = ux_tower, []
        while len(run) < L and (tower := push_copies(ab, tower, (c,), 1)) is not None:
            run.append(c)
            root(tower, run, False)
            if len(run) < L:
                fork = push_copies(ab, tower, (other,), 1)
                if fork is not None:
                    root(fork, run + [other], True)
    return nodes, violations, middles


def _judge(ab: Alphabet, classes: dict, v: list[int], table_set: frozenset | None,
           middles: set, found: dict) -> list[tuple]:
    """The pairs of a group that fail at the root v, as (u, x, flip, reason);
    every middle found is added to ``middles``.

    ``classes`` maps each class of (u, x), as in :func:`_scan_group`, to its
    members (us, x, flip).  The middle of a class at v is read from
    ``found``; on a miss it is extracted on run lengths, from the first u of
    the class's first member and the runs of x the class holds: D(u) from
    the runs of u, D(v) from the runs of v, D(u·x·v) from the runs of u·x
    and v, and stored there.  A failing member lists each of its u as it
    stands.
    """
    a, b = ab.a, ab.b
    root = tuple(v)
    vr = tuple(run_lengths(v))
    dv = derivative_from_runs(vr, b)
    merge = bool(v) and v[0] == a
    failing = []
    for cls, group in classes.items():
        try:
            mid = found[cls, root]
        except KeyError:
            ur, xr = tuple(run_lengths(group[0][0][0])), cls[3]
            r = ur[:-1] + (ur[-1] + xr[0],) + xr[1:] if cls[2] else ur + xr
            if merge and r:
                # v's first run continues the last run of u·x.
                r = r[:-1] + (r[-1] + vr[0],) + vr[1:]
            else:
                r += vr
            mid = found[cls, root] = _extract_middle(derivative_from_runs(ur, b), dv,
                                                     derivative_from_runs(r, b))
        if mid is not None:
            middles.add(mid)
            if table_set is None or mid in table_set:
                continue
        reason = "no-middle-decomposition" if mid is None else "middle-not-in-table"
        failing += [(u, x, flip, reason) for us, x, flip in group for u in us]
    return failing


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

    def text_lines(self):
        """The text report: bound and x source, counts, the middle set, then
        one line per violation."""
        yield f"alphabet {self.alphabet}  bound {self.bound}  x from {self.x_source}\n"
        yield (f"{self.tested_triples} smooth triples tested, "
               f"{len(self.violations)} violations\n")
        yield "middle set: " + " ".join(word_to_text(w) or "eps" for w in self.middle_set) + "\n"
        for v in self.violations:
            yield (f"violation: u={word_to_text(v.u)} x={word_to_text(v.x)} "
                   f"v={word_to_text(v.v)} ({v.reason})\n")


def certify_concat(ab: Alphabet, L: int, jobs: int = 1,
                   explore: int | None = None) -> ConcatCertificate:
    """Check D(uxv) = D(u) w D(v) with w in the table, exhaustively to bound L.

    ``x`` ranges over the alphabet's table; with ``explore`` set it ranges
    over all smooth words up to that length instead, and middles are reported
    without being asserted against the table.

    All x share one walk over u; each group of (u, x) with one tower of u·x,
    up to the complement, is one task, mapped over ``jobs`` workers
    (:func:`_scan`); the certificate is the same for every ``jobs``.
    """
    if L < 1:
        raise ValueError("length bound must be >= 1")
    if explore is None:
        # A Word hashes and compares as its tuple, so the table serves as is.
        check: frozenset | None = dsigma_table(ab).words
        xs = list(check)
        x_source = "table"
    else:
        if explore < 0:
            raise ValueError("length bound must be >= 0")
        # The x words are the nodes of one walk from ε.
        xs = []
        walk(ab, (), [], explore, lambda tower, path: xs.append(tuple(path)))
        check = None
        x_source = f"smooth-x<={explore}"

    tested, violations, middles = _scan(ab, L, xs, check, jobs)
    violations.sort(key=lambda r: (_shortlex(r[0]), _shortlex(r[1]), _shortlex(r[2])))
    return ConcatCertificate(
        alphabet=ab, bound=L, tested_triples=tested,
        violations=tuple(ConcatViolation(Word._wrap(u), Word._wrap(x), Word._wrap(v), reason)
                         for u, x, v, reason in violations),
        middle_set=tuple(Word._wrap(m) for m in sorted(middles, key=_shortlex)),
        x_source=x_source)


def empirical_middle_set(ab: Alphabet) -> set[Word]:
    """Least fixpoint of middle extraction, seeded with the empty word: every
    middle of every smooth u·x·v, at every length, with x in the set itself.

    This is the independent oracle for the stored tables: it never reads
    them, it only slices derivatives of smooth concatenations.  Each round
    scans every middle the last round found as x, in one :func:`_scan` at
    L = b+1, and no longer triple adds a middle.  Take a smooth u·x·v.
    Cut u to its last run plus one letter of the run before it (a u of one
    run or none stays whole), and v to its root: ε, c^k, or c^k c̄ when v
    has two runs or more.  The cut triple is a factor of u·x·v, so it is
    smooth, and it has the same class of (u, x) and the same root of v, so
    by the locality proofs of :func:`_scan_group` it has the same middle, or
    none.  Both cut parts have at most b+1 letters.  So a scan at b+1 finds
    every middle that a scan at any L finds for the same x, and the fixpoint
    at b+1 is the fixpoint at every L >= b+1.
    """
    found: set[tuple] = {()}
    new: set[tuple] = {()}
    while new:
        _, _, mids = _scan(ab, ab.b + 1, list(new), None)
        new = mids - found
        found |= new
        if len(found) > _MIDDLE_SET_LIMIT:
            raise RuntimeError(
                f"middle-word fixpoint exceeded {_MIDDLE_SET_LIMIT} elements over {ab}; "
                "the splitting property is broken")
    return {Word._wrap(t) for t in found}
