"""The benchmark's workloads: command lists, their inputs and their output checks.

A workload is a list of smoothwords commands, each with a check that judges
the command's stdout against the independent oracle (``oracle.py``) or
against properties the method must have.  ``census``, ``sweep`` and
``concat`` have inputs fixed by alphabet and bound; ``words`` draws its
inputs from the seed.  Each workload also has a smoke size, which keeps every
check and computes its reference data with the oracle on the spot; at full
size the reference data comes from ``reference.json`` (see
``make_reference.py``).
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Command kinds; the throughput metric counts the work of one kind per workload.
SCAN = "scan"
CONCAT = "concat"
OTHER = "other"


@dataclass
class Command:
    args: list[str]
    check: Callable[[str], str | None]  # stdout -> problem, or None when correct
    kind: str = OTHER
    work: int = 1  # bases power-tested (scan) or triples tested (concat)
    # Index of an earlier command of the round whose stdout this one must match.
    same_as: int | None = None


@dataclass
class Workload:
    name: str
    commands: list[Command]
    # One working directory for the whole round (else a fresh one per command).
    shared_dir: bool = False
    # (jobs > 1 command, jobs = 1 command) indices for census.jobs2_over_jobs1.
    jobs_pair: tuple[int, int] | None = None
    work_kind: str = OTHER


def parse_ab(text: str) -> tuple[int, int]:
    a, b = text.split(",")
    return int(a), int(b)


def ab_text(ab) -> str:
    return f"{ab[0]},{ab[1]}"


# ---------------------------------------------------------------- references

class References:
    """Oracle facts the checks need, keyed by a readable spec string.

    With ``live`` set every fact is computed by the oracle when first asked
    for; otherwise it is read from ``reference.json``.
    """

    def __init__(self, live: bool):
        self.live = live
        self.table: dict = {}
        if not live:
            if not REFERENCE_FILE.is_file():
                raise FileNotFoundError(f"{REFERENCE_FILE} is missing; run make_reference.py")
            self.table = json.loads(REFERENCE_FILE.read_text())

    def get(self, key: str):
        if key not in self.table:
            if not self.live:
                raise KeyError(f"{key!r} is not in {REFERENCE_FILE.name}; run make_reference.py")
            self.table[key] = compute_reference(key)
        return self.table[key]

    def counts(self, ab, L: int) -> list[int]:
        """Number of smooth words of each length 0..L."""
        return self.get(f"counts {ab_text(ab)} L={L}")

    def scan(self, ab, n: int, L: int) -> list[str]:
        """Bases (shortlex) of smooth n-th powers with 1 <= |u| <= L."""
        return self.get(f"scan {ab_text(ab)} n={n} L={L}")

    def concat(self, ab, L: int, explore: int | None) -> dict:
        mode = "table" if explore is None else f"explore={explore}"
        return self.get(f"concat {ab_text(ab)} L={L} {mode}")


def compute_reference(key: str):
    """Compute one reference fact with the oracle alone."""
    kind, ab, *rest = key.split()
    ab = parse_ab(ab)
    params = dict(part.split("=") for part in rest if "=" in part)
    L = int(params["L"])
    if kind == "counts":
        return [len(level) for level in oracle.smooth_words(ab, L)]
    if kind == "scan":
        return [oracle.to_text(u) for u in oracle.power_bases(ab, int(params["n"]), L)]
    if kind == "concat":
        if "explore" in params:
            xs = [w for level in oracle.smooth_words(ab, int(params["explore"])) for w in level]
        else:
            xs = oracle.paper_table(ab)
        tested, missing, middles = oracle.concat_census(ab, L, xs)
        return {"tested": tested, "missing": missing,
                "middles": [oracle.to_text(m) for m in sorted(middles, key=oracle.shortlex)]}
    raise ValueError(f"unknown reference kind {kind!r}")


# ------------------------------------------------------------------- checks

def _json(stdout: str) -> dict:
    doc = json.loads(stdout)
    if doc.get("schema_version") != "1":
        raise ValueError("schema_version is not \"1\"")
    return doc


def primitive_root(p: tuple) -> tuple:
    n = len(p)
    for d in range(1, n + 1):
        if n % d == 0 and p[:d] * (n // d) == p:
            return p[:d]
    return p


def scan_check(ab, n: int, L: int, fmt: str, refs: References) -> Callable[[str], str | None]:
    """Witnesses equal the oracle's scan; every power is smooth and equals base^n."""

    want = refs.scan(ab, n, L)

    def check(stdout: str) -> str | None:
        if fmt == "csv":
            lines = stdout.splitlines()
            if lines[0] != "base,base_length,power_length":
                return "bad csv header"
            rows = [line.split(",") for line in lines[1:]]
            bases = [r[0] for r in rows]
            for base, blen, plen in rows:
                if int(blen) != len(base) or int(plen) != n * len(base):
                    return f"bad lengths for base {base}"
            if bases != want:
                return f"csv witnesses differ from the oracle ({len(bases)} vs {len(want)})"
            return None
        if fmt == "json":
            doc = _json(stdout)
            header = (doc["alphabet"], doc["exponent"], doc["bound"])
            gamma, stable, last_new = doc["gamma"], doc["stable"], doc["last_new_base_length"]
            witnesses = [(w["base"], w["power"], w["primitive_base"]) for w in doc["witnesses"]]
            for w in doc["witnesses"]:
                if w["base_length"] != len(w["base"]) or w["power_length"] != len(w["power"]):
                    return f"bad lengths for base {w['base']}"
        else:
            lines = stdout.splitlines()
            a_text, _, n_text, _, l_text = lines[0].split()[1:6]
            header = (a_text, int(n_text), int(l_text))
            if lines[1] != f"{len(lines) - 4} witnesses":
                return "witness count line disagrees with the witness lines"
            fields = dict(item.split("=") for item in lines[2].split())
            gamma, stable = int(fields["gamma"]), fields["stable"] == "true"
            last_new = "?"
            witnesses = []
            for line in lines[4:]:
                parts = dict(item.split("=", 1) for item in line.split()[1:])
                witnesses.append((parts["base"], parts["power"], parts["primitive"]))
        if header != (ab_text(ab), n, L):
            return f"header {header} is not {(ab_text(ab), n, L)}"
        if [w[0] for w in witnesses] != want:
            return f"witnesses differ from the oracle ({len(witnesses)} vs {len(want)})"
        powers = []
        for base_text, power_text, prim_text in witnesses:
            base, power = oracle.from_text(base_text), oracle.from_text(power_text)
            if power != base * n:
                return f"power {power_text} is not ({base_text})^{n}"
            if not oracle.is_smooth(power, ab):
                return f"witness power {power_text} is not smooth"
            if oracle.from_text(prim_text) != primitive_root(power):
                return f"primitive base of {power_text} is wrong"
            powers.append(power)
        if gamma != len(set(powers)):
            return f"gamma={gamma} but {len(set(powers))} distinct powers"
        first_seen: dict = {}
        for p in powers:
            first_seen.setdefault(p, len(p) // n)
        want_last = max(first_seen.values()) if first_seen else None
        if last_new != "?" and last_new != want_last:
            return f"last_new_base_length {last_new} is not {want_last}"
        start = L - max(1, math.ceil(L / 4)) + 1
        if stable != (want_last is None or want_last < start):
            return "stability verdict is wrong"
        return None

    return check


def enumerate_check(ab, n: int, refs: References) -> Callable[[str], str | None]:
    """All smooth words of length n: the oracle's count, distinct, sorted, smooth."""

    def check(stdout: str) -> str | None:
        doc = _json(stdout)
        words = [oracle.from_text(t) for t in doc["words"]]
        want = refs.counts(ab, n)[n]
        if doc["count"] != want or len(words) != want:
            return f"count {doc['count']} / {len(words)} words, oracle says {want}"
        if any(len(w) != n for w in words) or words != sorted(set(words)):
            return "words are not distinct, sorted and of the asked length"
        bad = [w for w in words if not oracle.is_smooth(w, ab)]
        if bad:
            return f"{oracle.to_text(bad[0])} is not smooth"
        return None

    return check


def concat_check(ab, L: int, explore: int | None, fmt: str,
                 refs: References) -> Callable[[str], str | None]:
    """Triple count and middle set equal the oracle's; the middle set is mirror-closed."""

    want = refs.concat(ab, L, explore)

    def check(stdout: str) -> str | None:
        if fmt == "json":
            doc = _json(stdout)
            tested, middles = doc["tested_triples"], doc["middle_set"]
            violations = [v["reason"] for v in doc["violations"]]
        else:
            lines = stdout.splitlines()
            tested = int(lines[1].split()[0])
            n_violations = int(lines[1].split(",")[1].split()[0])
            middles = ["" if t == "eps" else t for t in lines[2].split()[2:]]
            violations = [line.rsplit("(", 1)[1].rstrip(")") for line in lines[3:]]
            if len(violations) != n_violations:
                return "violation count line disagrees with the violation lines"
        if tested != want["tested"]:
            return f"tested_triples {tested}, oracle says {want['tested']}"
        if middles != want["middles"]:
            return f"middle set {middles} is not the oracle's {want['middles']}"
        mids = {oracle.from_text(m) for m in middles}
        if any(oracle.mirror(m) not in mids for m in mids):
            return "middle set is not mirror-closed"
        if explore is None:
            table = set(oracle.paper_table(ab))
            if violations or not mids <= table:
                return f"{len(violations)} violations in table mode"
        elif violations != ["no-middle-decomposition"] * want["missing"]:
            return f"{len(violations)} violations, oracle finds {want['missing']} triples without a middle"
        return None

    return check


def word_check(expected: str) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        got = stdout.rstrip("\n")
        if got != expected:
            return f"output {got[:60]!r} is not {expected[:60]!r}"
        return None
    return check


def chain_expected_text(w, ab) -> str:
    levels, verdict, failure = oracle.chain(w, ab)
    lines = [f"level {i}: {oracle.to_text(level)}" for i, level in enumerate(levels)]
    lines.append(f"verdict: {verdict}")
    if failure is not None:
        lines.append(f"failure: level {failure[0]} ({failure[1]})")
    return "\n".join(lines)


def chain_json_check(w, ab) -> Callable[[str], str | None]:
    levels, verdict, failure = oracle.chain(w, ab)
    want = {"alphabet": ab_text(ab), "levels": [oracle.to_text(x) for x in levels],
            "verdict": verdict}
    if failure is not None:
        want["failure"] = {"level": failure[0], "reason": failure[1]}

    def check(stdout: str) -> str | None:
        doc = _json(stdout)
        got = {k: v for k, v in doc.items() if k not in ("schema_version", "command")}
        return None if got == want else f"chain {got.get('verdict')} differs from the oracle"
    return check


def lift_check(u, alpha: int, k: int, ab) -> Callable[[str], str | None]:
    """The lift equals delta_inv applied k times, and delta undoes it."""
    want = tuple(u)
    for _ in range(k):
        want = oracle.delta_inv(want, alpha, ab)

    def check(stdout: str) -> str | None:
        got = oracle.from_text(stdout)
        if got != want:
            return "lift differs from the oracle's delta_inv^k"
        for _ in range(k):
            if got[:1] != (alpha,):
                return "a lift level does not start with alpha"
            got = oracle.delta(got)
        return None if got == tuple(u) else "delta^k does not undo the lift"
    return check


def power_decomp_check(u, n: int, ab, fmt: str) -> Callable[[str], str | None]:
    """Each level rebuilds D^j(u^n) as (D^j(u) w_j)^(n-1) D^j(u)."""
    levels = oracle.power_levels(u, n, ab)

    def check(stdout: str) -> str | None:
        if fmt == "json":
            doc = _json(stdout)
            got = [(lv["j"], lv["witness"]) for lv in doc["levels"]]
        else:
            got = []
            for line in stdout.splitlines()[1:]:
                j_text, w_text = line.split(": witness ")
                got.append((int(j_text.split()[1]), "" if w_text == "eps" else w_text))
        if [j for j, _ in got] != list(range(1, len(levels) + 1)):
            return f"levels {[j for j, _ in got]}, oracle has {len(levels)}"
        for (j, w_text), (du, dp) in zip(got, levels):
            w = oracle.from_text(w_text)
            if (du + w) * (n - 1) + du != dp:
                return f"level {j}: (D^j(u) w)^(n-1) D^j(u) is not D^j(u^n)"
        return None
    return check


def kolakoski_check(ab, first: int, length: int) -> Callable[[str], str | None]:
    want = oracle.kolakoski(ab, first, length)

    def check(stdout: str) -> str | None:
        got = oracle.from_text(stdout)
        runs = oracle.delta(got)
        if got[:1] != (first,) or runs[:-1] != got[:len(runs) - 1]:
            return "the word is not self-generating"
        return None if got == want else "the prefix differs from the oracle's"
    return check


def dsigma_check(ab, fmt: str) -> Callable[[str], str | None]:
    """The table is the paper's: it holds the empty word and is mirror-closed."""
    want = [oracle.to_text(w) for w in oracle.paper_table(ab)]

    def check(stdout: str) -> str | None:
        if fmt == "json":
            doc = _json(stdout)
            got = doc["words"]
            if doc["alphabet"] != list(ab):
                return "wrong alphabet"
        else:
            got = stdout.split("\n")[:-1]
        words = {oracle.from_text(t) for t in got}
        if () not in words or any(oracle.mirror(w) not in words for w in words):
            return "table lacks the empty word or is not mirror-closed"
        return None if got == want else "table differs from the paper's"
    return check


# ---------------------------------------------------------------- workloads

def census(smoke: bool, refs: References, seed: int) -> Workload:
    """Cold power census: every command enumerates and power-tests from scratch."""
    runs = [((1, 2), "gamma", 2, 60, "text"),
            ((1, 2), "scan-powers", 3, 50, "json"),
            ((1, 3), "scan-powers", 4, 50, "csv"),
            ((2, 3), "gamma", 3, 60, "text"),
            ((2, 5), "scan-powers", 4, 60, "json")]
    commands = []
    for ab, cmd, n, L, fmt in runs:
        L = 12 if smoke else L
        commands.append(Command(
            [cmd, "--alphabet", ab_text(ab), "-n", str(n), "-L", str(L),
             "--format", fmt, "--jobs", "1"],
            scan_check(ab, n, L, fmt, refs), SCAN, sum(refs.counts(ab, L)[1:])))
    return Workload("census", commands, work_kind=SCAN)


def sweep(smoke: bool, refs: References, seed: int) -> Workload:
    """Warm exponent sweep over {1,3}: one working directory, so the cache is read."""
    ab = (1, 3)
    L = 14 if smoke else 60
    common = ["--alphabet", ab_text(ab)]
    commands = [Command(["enumerate", *common, "-n", str(L), "--format", "json"],
                        enumerate_check(ab, L, refs))]
    bases = sum(refs.counts(ab, L)[1:])
    for cmd, n, fmt, jobs in [("gamma", 2, "text", 2), ("scan-powers", 3, "json", 2),
                              ("gamma", 4, "csv", 2), ("scan-powers", 5, "text", 2),
                              ("gamma", 2, "text", 1)]:
        commands.append(Command(
            [cmd, *common, "-n", str(n), "-L", str(L), "--format", fmt, "--jobs", str(jobs)],
            scan_check(ab, n, L, fmt, refs), SCAN, bases))
    # --jobs must not change one byte of stdout.
    commands[-1].same_as = 1
    return Workload("sweep", commands, shared_dir=True, jobs_pair=(1, len(commands) - 1),
                    work_kind=SCAN)


def concat(smoke: bool, refs: References, seed: int) -> Workload:
    """Certification of the splitting D(uxv) = D(u) w D(v); no power test runs."""
    runs = [((1, 2), 16, None, "text"), ((1, 4), 16, None, "json"),
            ((2, 5), 20, None, "text"), ((3, 4), 20, None, "json"),
            ((1, 3), 12, 5, "json")]
    commands = []
    for ab, L, explore, fmt in runs:
        if smoke:
            L, explore = 6, (3 if explore else None)
        args = ["certify-concat", "--alphabet", ab_text(ab), "-L", str(L),
                "--format", fmt, "--jobs", "1"]
        if explore is not None:
            args += ["--explore", str(explore)]
        commands.append(Command(args, concat_check(ab, L, explore, fmt, refs), CONCAT,
                                refs.concat(ab, L, explore)["tested"]))
    return Workload("concat", commands, work_kind=CONCAT)


WORD_ALPHABETS = [(1, 2), (1, 3), (2, 3), (2, 5), (1, 4), (3, 4), (2, 4), (1, 5)]
# (alphabet, exponent) pairs whose small smooth power bases feed power-decomp.
POWER_CLASSES = [((1, 2), 2), ((1, 3), 2), ((1, 3), 3), ((1, 3), 4), ((2, 3), 3),
                 ((2, 4), 2), ((2, 4), 3), ((1, 4), 2), ((1, 5), 2), ((3, 4), 2)]
# Alphabets with letters of equal parity, where lifting keeps smooth powers.
LIFT_CLASSES = [((1, 3), 2), ((1, 3), 4), ((2, 4), 2), ((1, 5), 2)]
# Alphabets of the paper's table classes that table mode certifies.
TABLE_ALPHABETS = [(1, 2), (1, 4), (2, 5), (3, 4), (2, 3), (1, 5)]
KOLAKOSKI_WORD = ((1, 2), 2, 100_000)


@functools.cache
def power_bases(ab, n: int, L: int) -> list[tuple]:
    return oracle.power_bases(ab, n, L)


@functools.cache
def short_smooth(ab, n: int) -> list[tuple]:
    return oracle.smooth_words(ab, n)[n]


def random_smooth(ab, length: int, rng: random.Random) -> tuple:
    """A smooth word: a factor of a repeated delta_inv lift of a short smooth word.

    delta_inv of a smooth word is smooth and factors of smooth words are
    smooth; the oracle confirms it anyway.
    """
    w = rng.choice(short_smooth(ab, 6))
    while len(w) < length + 8:
        w = oracle.delta_inv(w, rng.choice(ab), ab)
    start = rng.randrange(len(w) - length + 1)
    w = w[start:start + length]
    if not oracle.is_smooth(w, ab):
        raise AssertionError(f"generated word {oracle.to_text(w)} is not smooth")
    return w


def mutate(w, ab, rng: random.Random) -> tuple:
    """A variant of a smooth word that exercises chain's failure reasons."""
    a, b = ab
    i = rng.randrange(1, len(w) - 1)
    kind = rng.randrange(3)
    if kind == 0:  # a run longer than b
        return w[:i] + (w[i],) * (b + 1) + w[i:]
    if kind == 1:  # a letter outside the alphabet
        return w[:i] + (b + 1,) + w[i + 1:]
    flip = a if w[i] == b else b  # one swapped letter; may fail at any level
    return w[:i] + (flip,) + w[i + 1:]


def log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(round(lo * (hi / lo) ** rng.random()))


def words(smoke: bool, refs: References, seed: int) -> Workload:
    """Interactive single-word queries on seeded inputs; start-up dominates."""
    rng = random.Random(seed)
    top = 200 if smoke else 2000
    per_op = 3 if smoke else 25
    commands: list[Command] = []

    def add(args, check):
        commands.append(Command(args, check))

    def ab_args(ab):
        return ["--alphabet", ab_text(ab)]

    for op, fn in [("delta", lambda w, ab: oracle.delta(w)),
                   ("closure", oracle.closure), ("derive", oracle.derivative),
                   ("rho", oracle.rho)]:
        for _ in range(per_op):
            ab = rng.choice(WORD_ALPHABETS)
            w = random_smooth(ab, log_uniform(rng, 10, top), rng)
            add([op, *ab_args(ab), "--word", oracle.to_text(w)],
                word_check(oracle.to_text(fn(w, ab))))
    for fmt in ("text", "json"):
        for i in range(per_op):
            ab = rng.choice(WORD_ALPHABETS)
            w = random_smooth(ab, log_uniform(rng, 10, top), rng)
            if i % 2:
                w = mutate(w, ab, rng)
            check = (chain_json_check(w, ab) if fmt == "json"
                     else word_check(chain_expected_text(w, ab)))
            add(["chain", *ab_args(ab), "--word", oracle.to_text(w), "--format", fmt], check)
    n_lift = 2 if smoke else 20
    for _ in range(n_lift):
        ab = rng.choice(WORD_ALPHABETS)
        k = rng.randint(1, 3)
        growth = (ab[0] + ab[1]) / 2
        u = random_smooth(ab, max(4, int(log_uniform(rng, 10, top) / growth ** k)), rng)
        alpha = rng.choice(ab)
        add(["lift", *ab_args(ab), "--word", oracle.to_text(u), "--alpha", str(alpha),
             "-k", str(k)], lift_check(u, alpha, k, ab))
    power_L = 10 if smoke else 20
    for i in range(n_lift):
        fmt = "json" if i % 2 else "text"
        if i % 4 < 2:
            ab, n = rng.choice(POWER_CLASSES)
            u = rng.choice([u for u in power_bases(ab, n, power_L)
                            if len(oracle.run_lengths(u)) >= 2])
        else:
            ab, n = rng.choice(LIFT_CLASSES)
            seeds = [u for u in power_bases(ab, n, power_L)
                     if len(u) % 2 == 0 and len(oracle.run_lengths(u)) >= 2]
            u, alpha = rng.choice(seeds), rng.choice(ab)
            for _ in range(rng.randint(1, 3)):
                u = oracle.delta_inv(u, alpha, ab)
            if not oracle.is_smooth(u * n, ab):
                raise AssertionError(f"lifted base {oracle.to_text(u)} lost its smooth power")
        add(["power-decomp", *ab_args(ab), "--word", oracle.to_text(u), "-n", str(n),
             "--format", fmt], power_decomp_check(u, n, ab, fmt))
    for _ in range(2 if smoke else 12):
        ab = rng.choice(WORD_ALPHABETS)
        first, length = rng.choice(ab), log_uniform(rng, 10, 5 * top)
        add(["kolakoski", *ab_args(ab), "--alpha", str(first), "-n", str(length)],
            kolakoski_check(ab, first, length))
    for i in range(2 if smoke else 6):
        ab, fmt = rng.choice(TABLE_ALPHABETS), ("json" if i % 2 else "text")
        add(["dsigma", *ab_args(ab), "--format", fmt], dsigma_check(ab, fmt))
    ab, first, length = KOLAKOSKI_WORD
    k = oracle.kolakoski(ab, first, 2000 if smoke else length)
    add(["chain", *ab_args(ab), "--word", oracle.to_text(k)],
        word_check(chain_expected_text(k, ab)))
    return Workload("words", commands)


WORKLOADS = {"census": census, "sweep": sweep, "concat": concat, "words": words}


def build(name: str, smoke: bool, seed: int) -> Workload:
    refs = References(live=smoke)
    return WORKLOADS[name](smoke, refs, seed)
