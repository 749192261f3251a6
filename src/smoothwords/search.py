"""Incremental derivative-chain engine for bulk smoothness work.

The whole tower w, rho(w), rho(rho(w)), ... is kept as one small tail state
per level, so appending a letter costs O(tower height).  A level is
``(runs, last_letter, last_run_length, upper)``, where ``runs`` is 1 while
the level is a single run and 2 once it has more (the rules below never need
an exact count) and ``upper`` stands for the tower of the level above.  A
tower is its bottom level as such a 4-tuple, or ``()`` for the empty word.
Everything above the bottom level is an *upper state*: a small int that
indexes a table kept per alphabet, with 0 for the empty tower.  The table
interns each distinct upper tower once, as its own bottom level (whose
``upper`` is again a state) packed into one int, so equal upper towers have
equal states and the towers of two words are equal exactly when their nested
levels are.  Towers are immutable and hashable, and :func:`push_copies`
reads nothing else, so words with equal towers have the same smooth
extensions.  That makes prefix-pruned enumeration and the concatenation
certifier run orders of magnitude faster than re-deriving every candidate
from scratch.

The update uses the fact that rho(w) is the interior run lengths of w framed
by a ``b`` on each side where the corresponding boundary run is longer than
``a``.  Only the last run of a level ever changes, and each change touches at
most one letter of the level above:

* a run growing past length ``a`` emits ``b`` upward (the boundary pad);
* a run closing at length ``a`` emits ``a`` upward (it just became interior);
* a run closing at length ``b`` emits nothing (its ``b`` went up already);
* a run closing at any other interior length, or growing past ``b``, kills
  smoothness for every extension, so the branch is pruned.

The first run of a level is exempt from the interior rule, as is the last
(still growing) run.  Correctness against the literal closure/derivative
composition is enforced by exhaustive tests at small lengths.

Level 0 in locals, the levels above in a table.  Every letter appended
changes the bottom level, but only some go further up.  So :func:`walk` and
:func:`push_copies` (which :func:`seeded_state` runs on) hold the bottom
level's fields in local variables and apply the four rules to them inline.
A letter a rule sends up costs one list lookup in the alphabet's table,
which holds the successor of each upper state on a and on b: a state, -1
when no smooth word extends that way, or 0 until the first lookup computes it
(:func:`_climb`, which applies the rules to that level and, for a letter
they send up to a level with no entry yet, calls itself once more).  So a
miss recurses at most once per level above the bottom: no deeper than the
tower's height, which grows as the logarithm of the word's length.  The
table grows by one state per distinct upper tower, for the life of the
process.  A state means nothing outside its process and is never pickled or
written out; a child that :func:`map_tasks` forks inherits the tables as
they were, so the towers in its tasks stay valid there.  Tests check the
inline rules and the table against a reference engine of nested towers.

Every bulk workload runs on one walker, :func:`walk`, and splits its walks
into tasks that :func:`map_tasks` runs on ``--jobs`` workers.  The exports
serve ``census`` (:func:`power_hits`), ``concat`` (the pushes, the walk,
:func:`bottom_level`, :func:`complement_tower`, :func:`derivative_from_runs`),
``powers`` (:func:`seeded_state`, the one door for letters) and the package
(:func:`is_smooth_fast`); only this module reads a tower's fields.
"""

from __future__ import annotations

import os

from .core import Alphabet, Word

__all__ = ["seeded_state", "bottom_level", "complement_tower", "is_smooth_fast",
           "push_copies", "derivative_from_runs", "walk", "power_hits", "map_tasks"]


class _Table:
    """The interned upper towers over {a, b}.  State s > 0 stands for the
    level (runs, last, length, upper state) packed into the int ``levels[s]``
    (:func:`_climb`), and ``ids`` maps each packed level back to its state;
    state 0 is the empty tower.  ``on_a[s]`` and ``on_b[s]`` are the
    successors of s on a and on b: a state (never 0), -1 when no smooth word
    extends that way, or 0 while not yet computed."""

    __slots__ = ("a", "b", "levels", "ids", "on_a", "on_b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b
        self.levels: list = [None]
        self.ids: dict[int, int] = {}
        self.on_a = [0]
        self.on_b = [0]


_tables: dict[tuple[int, int], _Table] = {}


def _table(a: int, b: int) -> _Table:
    """The table of the upper states over {a, b}."""
    table = _tables.get((a, b))
    if table is None:
        table = _tables[a, b] = _Table(a, b)
    return table


def _climb(table: _Table, state: int, letter: int) -> int:
    """The successor of ``state`` on ``letter``, entered into the table.

    The four rules (module docstring) are applied to the level of ``state``;
    a letter they send up is pushed onto the level above, through the table
    or, when it has no entry yet, by one more call, so a climb recurses once
    per level it climbs and no deeper than the tower's height.  The new level
    is then interned after every level above it.  A level (runs, last,
    length, upper state) is packed into the int ``((upper * (b + 1) +
    length) * 2 + (last == b)) * 2 + runs - 1``, under half a tuple's size.
    """
    a, b = table.a, table.b
    step = 4 * (b + 1)  # the packed level's unit of upper state
    on = table.on_a if letter == a else table.on_b
    if not state:  # the empty tower: the letter opens its first run
        upper, low = 0, 4 + 2 * (letter == b)
    else:
        code = table.levels[state]
        upper, low = divmod(code, step)
        length = low >> 2
        if letter == (b if code & 2 else a):
            if length == b:
                upper = -1
            elif length == a:
                upper = table.on_b[upper] or _climb(table, upper, b)
            low += 4
        else:
            if code & 1 and length == a:
                upper = table.on_a[upper] or _climb(table, upper, a)
            elif code & 1 and length != b:
                upper = -1
            low = 5 + 2 * (letter == b)
    if upper >= 0:
        code = upper * step + low
        upper = table.ids.get(code)
        if upper is None:
            upper = table.ids[code] = len(table.levels)
            table.levels.append(code)
            table.on_a.append(0)
            table.on_b.append(0)
    on[state] = upper
    return upper


def seeded_state(ab: Alphabet, letters, copies: int = 1) -> tuple | None:
    """The tower of ``letters`` repeated ``copies`` times, pushed copy by
    copy without building that word (:func:`push_copies`), or None if it is
    not smooth over ``ab`` (letters outside {a, b} fail)."""
    letters = tuple(letters)  # read twice, so an iterator is taken once
    if ab.first_foreign(letters) is not None:
        return None
    return push_copies(ab, (), letters, copies)


def bottom_level(tower: tuple) -> tuple[bool, int, int]:
    """The bottom level of ``tower`` as (two runs or more, last run length,
    last letter); ε has (False, 0, 0), and 0 is no letter."""
    return (tower[0] > 1, tower[2], tower[1]) if tower else (False, 0, 0)


def complement_tower(tower: tuple, ab: Alphabet) -> tuple:
    """The tower of the complement of the word in ``tower``.

    The swap keeps every run length, so every level above the bottom is
    unchanged and the bottom level changes only its last letter.
    """
    if not tower:
        return tower
    runs, last, length, upper = tower
    return (runs, ab.a + ab.b - last, length, upper)


def is_smooth_fast(letters, ab: Alphabet) -> bool:
    """Smoothness test via the incremental engine; letters outside {a, b} fail."""
    return seeded_state(ab, letters) is not None


def push_copies(ab: Alphabet, tower: tuple, letters, copies: int) -> tuple | None:
    """The tower after ``copies`` more copies of ``letters`` are pushed onto
    ``tower``, one letter at a time, or None at the first push that fails.

    No copy is built, so a huge ``copies`` costs only the pushes before the
    failure.
    """
    if not letters or copies < 1:
        return tower
    a, b = ab.a, ab.b
    table = _table(a, b)
    on_a, on_b = table.on_a, table.on_b
    # The bottom level in locals ("Level 0 in locals", module docstring); the
    # empty tower's has no run and a last letter no alphabet has.
    runs, last, length, upper = tower or (0, 0, 0, 0)
    for _ in range(copies):
        for c in letters:
            if c == last:
                if length == b:
                    return None
                if length == a:
                    upper = on_b[upper] or _climb(table, upper, b)
                    if upper < 0:
                        return None
                length += 1
            else:
                if runs > 1:
                    if length == a:
                        upper = on_a[upper] or _climb(table, upper, a)
                        if upper < 0:
                            return None
                    elif length != b:
                        return None
                else:
                    runs += 1
                last = c
                length = 1
    return (runs, last, length, upper)


def derivative_from_runs(lens: list[int], b: int) -> tuple[int, ...]:
    """The derivative of the word whose run lengths are ``lens``: each
    boundary run is dropped unless it has length b (a lone run is both)."""
    n = len(lens)
    if n < 2:
        return (b,) if n and lens[0] == b else ()
    return tuple(lens[0 if lens[0] == b else 1:n if lens[-1] == b else n - 1])


def walk(ab: Alphabet, tower: tuple, path: list[int], max_len: int, visit) -> None:
    """Call ``visit(tower, path)`` for every smooth extension of ``path`` up
    to ``max_len`` letters, in preorder with letter a tried before b, where
    ``tower`` is the extension's tower.

    ``tower`` must be the tower of ``path``.  The walk writes to ``path`` in
    place and leaves it as it found it; the visitor sees the live list.  The
    root ``path`` itself is visited first.  Each node is expanded once: both
    children are built from its bottom level, b's child is pushed onto one
    explicit stack of (depth, letter, tower) and a's child is walked next,
    so depth is bounded by memory, not by the interpreter's recursion limit.
    """
    a, b = ab.a, ab.b
    table = _table(a, b)
    on_a, on_b = table.on_a, table.on_b
    append = path.append
    base = len(path)
    visit(tower, path)
    if max_len <= base:
        return
    stack = [(base, b, (1, b, 1, 0)), (base, a, (1, a, 1, 0))] if not tower else []
    put = stack.append
    depth = base if tower else max_len  # the empty root's children are stacked
    while True:
        if depth < max_len:
            # The children's bottom levels ("Level 0 in locals", module
            # docstring): the last run grows, or the other letter opens one.
            runs, last, length, upper = tower
            if length == a:
                up = on_b[upper] or _climb(table, upper, b)
                grown = (runs, last, a + 1, up) if up >= 0 else None
                if runs > 1:
                    upper = on_a[upper] or _climb(table, upper, a)
                opened = (2, a + b - last, 1, upper) if upper >= 0 else None
            else:
                grown = (runs, last, length + 1, upper) if length != b else None
                opened = (2, a + b - last, 1, upper) if runs == 1 or length == b else None
            if last == a:
                child_b, child_a = opened, grown
            else:
                child_b, child_a = grown, opened
            if child_b:
                put((depth, b, child_b))
        else:
            child_a = None
        if child_a:  # walked next, so it skips the stack
            tower = child_a
            append(a)
        elif stack:
            depth, c, tower = stack.pop()
            del path[depth:]
            append(c)
        else:
            break
        visit(tower, path)
        depth += 1
    del path[base:]


def power_hits(ab: Alphabet, n: int, max_len: int, prefix=(),
               min_len: int = 1) -> list[list[Word]]:
    """Smooth words u extending ``prefix`` with min_len <= |u| <= max_len
    (``min_len`` >= 1) and u^n smooth, grouped by length (index i holds
    length i, up to the longest hit) and lexicographic within a length;
    each hit is a ``Word``, made once from the walk's path.

    The test is fused into the walk: a u of two or more runs fails at once
    when a run at its junction in u·u, interior in u^n, is not a or b (the
    last run plus the first when u ends in its first letter, else each of
    the two); every other u has its n-1 other copies pushed onto its tower
    (:func:`push_copies`).  So no base list is built, and with n = 1 every
    node of the lengths asked for is a hit.  The lists grow only on a hit,
    so a huge ``max_len`` allocates nothing.
    """
    tower = seeded_state(ab, prefix)
    hits: list[list[Word]] = []
    if tower is None or len(prefix) > max_len:
        return hits
    copies = n - 1
    ends = (ab.a, ab.b)
    swap = ab.a + ab.b

    def visit(tower: tuple, path: list[int]) -> None:
        if len(path) < min_len:
            return
        if copies:
            runs, last, length, _ = tower
            if runs > 1:
                first = path[0]
                head = path.index(swap - first)  # the first run's length
                if last == first:
                    if length + head not in ends:
                        return
                elif length not in ends or head not in ends:
                    return
            if push_copies(ab, tower, path, copies) is None:
                return
        while len(hits) <= len(path):
            hits.append([])
        hits[len(path)].append(Word._wrap(path))

    walk(ab, tower, list(prefix), max_len, visit)
    return hits


def map_tasks(fn, tasks: list, jobs: int):
    """``fn(t)`` for each task, yielded in task order, on
    ``min(jobs, CPUs, len(tasks))`` workers, or in this process alone when
    that is 1 or the platform has no ``os.fork`` (Windows).  The CPUs are
    the ones this process may run on (``os.sched_getaffinity``), or
    ``os.cpu_count() or 1`` where that mask cannot be read (macOS); more
    workers than CPUs would only add processes.  ``jobs`` picks only the
    process that runs each task, never the tasks.

    The tasks are dealt round-robin into one share per worker.  One child
    process is forked per share after the first and runs its share while
    this process runs share 0; each child sends the list of its results (or
    the exception it raised) back pickled through a pipe, and a child's
    exception is raised again here.  The program starts no threads, so a
    fork copies it whole, ``fn`` and the tasks included: nothing is pickled
    on the way out.  A child always leaves through ``os._exit``, so it never
    returns into the caller's code nor flushes the caller's buffered output.
    The children are reaped on every path, and killed first when this
    process fails before it has read their results.  ``pickle`` is imported
    only when a child forks.

    A forked child starts on its parent's CPU and, left alone, may stay
    there for the whole share, so the workers are placed: this process
    moves to the first CPU of its mask for the forks, child k moves to the
    k-th, and each is then given the whole mask back, so the kernel stays
    free to move it later.  This process has its mask back on every path.
    Where the mask cannot be set, the workers are not placed."""
    try:
        mask = os.sched_getaffinity(0)
    except (AttributeError, OSError):
        mask = None
    workers = min(jobs, len(mask) if mask else os.cpu_count() or 1, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        yield from map(fn, tasks)
        return
    import pickle
    cpus = sorted(mask or ())
    pids, pipes, sent = [], [], []
    try:
        _set_cpus(cpus[:1])
        for k in range(1, workers):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as out:  # this process's copy closes after the fork
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, tasks[k::workers], out, cpus[k:k + 1], mask)
            pids.append(pid)
        _set_cpus(mask)
        shares = [[fn(t) for t in tasks[::workers]]]
        sent = [pipe.read() for pipe in pipes]
    finally:
        _set_cpus(mask)
        for pipe in pipes:
            pipe.close()
        if len(sent) < len(pids):
            import signal
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status, data in zip(pids, statuses, sent):
        if status:
            raise ChildProcessError(f"worker process {pid} failed with wait status {status}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        shares.append(value)
    for i in range(len(tasks)):
        yield shares[i % workers][i // workers]


def _set_cpus(cpus) -> None:
    """Let this process run only on ``cpus``; nothing when ``cpus`` is empty
    or None, the platform has no ``os.sched_setaffinity`` (macOS) or the
    mask is refused."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except (AttributeError, OSError):
            pass


def _run_share(fn, share: list, out, cpu: list, mask) -> None:
    """In a forked child: moved to ``cpu`` and then allowed ``mask`` again
    (:func:`_set_cpus`), ``fn`` over ``share``, the outcome pickled into the
    pipe ``out`` as ``(True, results)`` or ``(False, exception)``; never
    returns.  The exit status is 0 only when the outcome was sent."""
    status = 1
    try:
        _set_cpus(cpu)
        _set_cpus(mask)
        try:
            outcome = (True, [fn(t) for t in share])
        except BaseException as exc:
            outcome = (False, exc)
        import pickle
        pickle.dump(outcome, out)
        out.flush()
        status = 0
    finally:
        os._exit(status)
