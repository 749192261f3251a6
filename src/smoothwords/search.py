"""Incremental derivative-chain engine for bulk smoothness work.

The whole tower w, rho(w), rho(rho(w)), ... is kept as one small tail state
per level, so appending a letter costs O(tower height) and is exactly
undoable.  That makes prefix-pruned enumeration and the concatenation
certifier run orders of magnitude faster than re-deriving every candidate
from scratch.

The state update uses the fact that rho(w) is the interior run lengths of w
framed by a ``b`` on each side where the corresponding boundary run is longer
than ``a``.  Only the last run of a level ever changes, and each change
touches at most one letter of the level above:

* a run growing past length ``a`` emits ``b`` upward (the boundary pad);
* a run closing at length ``a`` emits ``a`` upward (it just became interior);
* a run closing at length ``b`` emits nothing (its ``b`` went up already);
* a run closing at any other interior length, or growing past ``b``, kills
  smoothness for every extension, so the branch is pruned.

The first run of a level is exempt from the interior rule, as is the last
(still growing) run.  Correctness against the literal closure/derivative
composition is enforced by exhaustive tests at small lengths.

Every bulk workload runs on one walker, :func:`walk`: a preorder,
explicit-stack walk of the smooth words extending a seed (letter a before b),
calling a visitor at every node, the seed included.  Preorder visits the
words of one length in lexicographic order, so collecting per length gives
shortlex order.  Enumeration (``census.enumerate_smooth``), the power census
(:func:`power_hits`) and the concatenation certifier (``concat._scan_x``)
are visitors on it.  The power visitor fuses the n-th power test into the
walk: at node u it pushes n-1 more copies of u onto the live state, counts
the pushes that succeed and pops exactly that many, so u^n is tested
without a list of bases and without re-deriving u's tower.  The certifier
nests two walks on one state: at node u of the outer walk it pushes x, runs
an inner walk over v from the live u·x, and pops the letters of x it pushed.

Enumeration and the power census walk only the words that start with a and
build the rest by the complement (swapping a and b), which is exact:

* the swap keeps every run length, so it keeps the derivative, smoothness
  and smooth powers (w^n is smooth exactly when its complement is);
* it maps the smooth words that start with a one-to-one onto those that
  start with b;
* among words of one length it reverses lexicographic order, so the reversed
  complements of a lexicographic a-list are the b-list, in order, and every
  b-word sorts after every a-word.

:func:`complete_by_complement` appends that b-half, per length.  The
concatenation certifier halves its triples by the same swap
(``smoothwords.concat``).
"""

from __future__ import annotations

from .core import Alphabet, run_lengths

__all__ = ["ChainState", "seeded_state", "is_smooth_fast", "is_power_smooth",
           "push_copies", "fast_derivative", "derivative_from_runs", "walk",
           "complete_by_complement", "power_hits", "map_tasks"]

# Trail entry kinds for undo.
_EXTENDED = 0
_NEW_RUN = 1
_NEW_LEVEL = 2


class ChainState:
    """Mutable derivative tower supporting push(letter) / pop() in LIFO order."""

    __slots__ = ("a", "b", "levels", "_trail", "_marks")

    def __init__(self, ab: Alphabet):
        self.a = ab.a
        self.b = ab.b
        # One [run_count, last_letter, last_run_length] per level.
        self.levels: list[list[int]] = []
        self._trail: list[tuple[int, int, int, int]] = []
        self._marks: list[int] = []

    def push(self, letter: int) -> bool:
        """Append ``letter`` at level 0; update the tower.

        Returns False and leaves the state untouched when no smooth word
        extends the current one by ``letter``.
        """
        a = self.a
        b = self.b
        levels = self.levels
        trail = self._trail
        # Marked before the update, so that a failing push undoes itself with pop.
        self._marks.append(len(trail))
        i = 0
        x = letter
        while True:
            if i == len(levels):
                levels.append([1, x, 1])
                trail.append((i, _NEW_LEVEL, 0, 0))
                break
            lv = levels[i]
            if x == lv[1]:
                n = lv[2] + 1
                if n > b:
                    self.pop()
                    return False
                lv[2] = n
                trail.append((i, _EXTENDED, 0, 0))
                if n == a + 1:
                    # Run crossed a: its boundary pad (or eventual interior b) goes up.
                    x = b
                    i += 1
                    continue
                break
            else:
                run_count, closed_letter, closed_len = lv
                emit = 0
                if run_count >= 2:
                    # The closing run becomes interior; only lengths a and b survive.
                    if closed_len == a:
                        emit = a
                    elif closed_len != b:
                        self.pop()
                        return False
                lv[0] = run_count + 1
                lv[1] = x
                lv[2] = 1
                trail.append((i, _NEW_RUN, closed_letter, closed_len))
                if emit:
                    x = emit
                    i += 1
                    continue
                break
        return True

    def pop(self) -> None:
        """Undo the most recent successful push (strictly LIFO)."""
        mark = self._marks.pop()
        trail = self._trail
        levels = self.levels
        while len(trail) > mark:
            i, kind, prev_letter, prev_len = trail.pop()
            if kind == _EXTENDED:
                levels[i][2] -= 1
            elif kind == _NEW_RUN:
                lv = levels[i]
                lv[0] -= 1
                lv[1] = prev_letter
                lv[2] = prev_len
            else:
                levels.pop()

    def depth(self) -> int:
        return len(self.levels)


def seeded_state(ab: Alphabet, letters) -> ChainState | None:
    """A state with ``letters`` pushed, or None if they do not form a smooth
    word over ``ab`` (letters outside {a, b} fail)."""
    a = ab.a
    b = ab.b
    state = ChainState(ab)
    push = state.push
    for c in letters:
        if (c != a and c != b) or not push(c):
            return None
    return state


def is_smooth_fast(letters, ab: Alphabet) -> bool:
    """Smoothness test via the incremental engine; letters outside {a, b} fail."""
    return seeded_state(ab, letters) is not None


def push_copies(state: ChainState, letters, copies: int) -> int:
    """Push up to ``copies`` more copies of ``letters`` onto ``state``, one
    letter at a time, stopping at the first push that fails.

    Returns the number of letters pushed, which the caller pops again; all
    copies went on exactly when that is ``len(letters) * copies``.  No copy
    is built, so a huge ``copies`` costs only the pushes before the failure.
    """
    if not letters:
        return 0
    push = state.push
    pushed = 0
    for _ in range(copies):
        for c in letters:
            if not push(c):
                return pushed
            pushed += 1
    return pushed


def is_power_smooth(letters, n: int, ab: Alphabet) -> bool:
    """Whether ``letters`` repeated n >= 1 times is smooth over ``ab``,
    without building the power (see :func:`push_copies`)."""
    state = seeded_state(ab, letters)
    return (state is not None
            and push_copies(state, letters, n - 1) == len(letters) * (n - 1))


def fast_derivative(letters, b: int) -> tuple[int, ...]:
    """Derivative of a known-differentiable word, as a plain tuple.

    No validation: callers must only pass words whose smoothness (hence
    differentiability) is already established.
    """
    return derivative_from_runs(run_lengths(letters), b)


def derivative_from_runs(lens: list[int], b: int) -> tuple[int, ...]:
    """The derivative of the word whose run lengths are ``lens``: each
    boundary run is dropped unless it has length b (a lone run is both)."""
    n = len(lens)
    if n < 2:
        return (b,) if n and lens[0] == b else ()
    return tuple(lens[0 if lens[0] == b else 1:n if lens[-1] == b else n - 1])


def walk(state: ChainState, path: list[int], max_len: int, visit) -> None:
    """Call ``visit(path)`` for every smooth extension of ``path`` up to
    ``max_len`` letters, in preorder with letter a tried before b.

    ``state`` must hold ``path`` already pushed.  The walk appends to and pops
    from ``path`` and ``state`` in place and leaves both as it found them; the
    visitor sees the live list and may push onto ``state`` provided it pops
    the same number of letters before returning.  The root ``path`` itself is
    visited first.  An explicit stack replaces recursion, so depth is bounded
    by memory, not by the interpreter's recursion limit.
    """
    a = state.a
    b = state.b
    push = state.push
    pop = state.pop
    append = path.append
    retract = path.pop
    visit(path)
    room = max_len - len(path)
    if room <= 0:
        return
    # nxt[d] is the next letter to try below the node d letters into the
    # walk; 0 once both letters have been tried.
    nxt = [a]
    while nxt:
        c = nxt[-1]
        if c:
            nxt[-1] = b if c == a else 0
            if push(c):
                append(c)
                visit(path)
                if len(nxt) < room:
                    nxt.append(a)
                else:
                    retract()
                    pop()
        else:
            nxt.pop()
            if nxt:
                retract()
                pop()


def complete_by_complement(by_len: list[list], ab: Alphabet, make=tuple) -> None:
    """Extend each list of smooth words that start with a, lexicographic and
    all of one length, by the words that start with b, in place.

    Those are the reversed complements of the list (see the module
    docstring), built by ``make`` from an iterable of letters.  The empty
    word is its own complement, so no list may hold it.
    """
    swap = (ab.a + ab.b).__sub__
    for level in by_len:
        level += [make(map(swap, w)) for w in reversed(level)]


def power_hits(ab: Alphabet, n: int, max_len: int, prefix=()) -> list[list[tuple]]:
    """Smooth words u extending ``prefix`` with 1 <= |u| <= max_len and u^n
    smooth, grouped by length (index i holds length i) and lexicographic
    within a length.

    The test is fused into the walk: at node u the other n-1 copies of u are
    pushed onto the live state (:func:`push_copies`) and popped again, so a
    base that fails early in its second copy costs a few pushes and no base
    list is ever built.
    """
    state = seeded_state(ab, prefix)
    hits: list[list[tuple]] = [[] for _ in range(max_len + 1)]
    if state is None or len(prefix) > max_len:
        return hits
    pop = state.pop
    copies = n - 1

    def visit(path: list[int]) -> None:
        if not path:
            return
        pushed = push_copies(state, path, copies)
        if pushed == len(path) * copies:
            hits[len(path)].append(tuple(path))
        for _ in range(pushed):
            pop()

    walk(state, list(prefix), max_len, visit)
    return hits



def map_tasks(fn, tasks: list, jobs: int) -> list:
    """``[fn(t) for t in tasks]`` in task order, on ``min(jobs, len(tasks))``
    worker processes, or in this process when that is 1.  The pool module is
    imported only when a pool starts (and then ``fn`` and the tasks must
    pickle), so a run that starts none skips it at start-up."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
