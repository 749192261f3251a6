"""End-to-end benchmark of the smoothwords CLI.

    python3 bench/run.py --workload census|sweep|concat|words --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``.  Each command runs as a fresh process, one at a time, from a single
client (a closed loop).  A run repeats whole rounds of the workload's command
list until ``--seconds`` have passed, checks every output against the
independent oracle, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with times rescaled to a reference machine speed measured by a calibration
task run between commands; with ``--trace 1`` one untraced round is followed
by traced rounds, where every command runs under ``shim.py``, and the metrics
are the per-layer ones.
``--smoke`` runs a reduced size of the workload with the same checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ENTRY = "import sys; from smoothwords.cli import main; sys.exit(main())"
# A fixed pure-Python task of the benchmark's own, run as a fresh process
# between commands to measure how fast the machine is at that moment.
CALIBRATION = ("import sys; sys.path.insert(0, sys.argv[1]); import oracle; "
               "oracle.smooth_words((1, 2), 28)")
# Wall time of the calibration task at the reference speed.  End-to-end
# times are rescaled to it: t * CALIBRATION_REF_S / (calibration time then).
CALIBRATION_REF_S = 0.25
TICKS_BEFORE = 2


class Runner:
    """Runs commands of one workload as fresh processes inside a scratch directory.

    The commands are started by ``client.py``, a small process of their own
    that times each one and reports its exit status and peak RSS.
    """

    def __init__(self, work_root: Path):
        self.work_root = work_root
        env = {k: v for k, v in os.environ.items() if k != "SMOOTHWORDS_CACHE"}
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(work_root)
        self.client = subprocess.Popen([sys.executable, str(BENCH_DIR / "client.py")],
                                       cwd=work_root, env=env, text=True,
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.out_path = work_root / "stdout.bin"
        self.err_path = work_root / "stderr.bin"
        self.ticks: list[tuple[float, float]] = []  # (calibration, --help) seconds

    def close(self) -> None:
        self.client.stdin.close()
        self.client.stdout.close()
        self.client.wait()

    def command(self, args: list[str], cwd: Path, trace: Path | None = None) -> dict:
        """Run one smoothwords command, under the tracing shim when ``trace`` is given."""
        if trace is None:
            return self.run([sys.executable, "-c", ENTRY, *args], cwd)
        return self.run([sys.executable, str(BENCH_DIR / "shim.py"), str(trace), *args], cwd)

    def run(self, argv: list[str], cwd: Path) -> dict:
        """Run one process; returns its status, stdout, wall time and peak RSS."""
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(self.out_path),
                   "stderr": str(self.err_path)}
        self.client.stdin.write(json.dumps(request) + "\n")
        self.client.stdin.flush()
        reply = self.client.stdout.readline()
        if not reply:
            raise RuntimeError("the benchmark client exited")
        res = json.loads(reply)
        return {"status": res["status"], "out": self.out_path.read_bytes(),
                "seconds": res["seconds"], "rss_mb": res["rss_kb"] / 1024.0,
                "stderr": self.err_path.read_bytes()[-2000:]}

    def warm_up(self) -> None:
        """Compile the program's bytecode once, as an install does."""
        self.command(["--help"], self.work_root)

    def tick(self) -> float:
        """Time the calibration task and one fresh ``smoothwords --help``.

        The ``--help`` process (interpreter start, package import, parser
        build) is the fixed cost of every command; it is sampled here, spread
        over the run.  Returns the calibration time.
        """
        argv = [sys.executable, "-c", CALIBRATION, str(BENCH_DIR)]
        calibration = self.run(argv, self.work_root)["seconds"]
        setup = self.command(["--help"], self.work_root)["seconds"]
        self.ticks.append((calibration, setup))
        return calibration

    def round(self, workload: workloads.Workload, traced: bool = False,
              ticking: bool = False) -> dict:
        """One pass over the workload's command list.

        With ``ticking`` the round ticks before every ``stride``-th command and
        after the last one, and each command gets a scale from the mean
        calibration time of the ticks around it.
        """
        base = Path(tempfile.mkdtemp(dir=self.work_root))
        stride = max(1, len(workload.commands) // 10)
        results, pending = [], []
        calibration = None
        for i, cmd in enumerate(workload.commands):
            if ticking and i % stride == 0:
                calibration = self.settle(pending, calibration)
            cwd = base if workload.shared_dir else base / str(i)
            cwd.mkdir(exist_ok=True)
            trace = base.parent / f"trace-{base.name}-{i}.json" if traced else None
            before = cache_bytes(cwd) if traced else 0
            res = self.command(cmd.args, cwd, trace)
            if traced:
                res["cache_bytes"] = cache_bytes(cwd) - before
                res["trace"] = json.loads(trace.read_text()) if trace.is_file() else None
            results.append(res)
            pending.append(res)
        if ticking:
            self.settle(pending, calibration)
        shutil.rmtree(base)
        return {"results": results, "wall": sum(res["seconds"] for res in results)}

    def settle(self, pending: list[dict], before: float | None) -> float:
        """Tick, and give the commands run since the last tick their scale."""
        after = self.tick()
        for res in pending:
            res["scale"] = CALIBRATION_REF_S / ((before + after) / 2)
        pending.clear()
        return after


def cache_bytes(cwd: Path) -> int:
    cache = cwd / ".smoothcache"
    if not cache.is_dir():
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(cache) if entry.is_file())


class Verifier:
    """Checks command results; an output that was verified once is not re-checked."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.verified: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def round(self, results: list[dict]) -> None:
        for i, (cmd, res) in enumerate(zip(self.workload.commands, results)):
            self.attempted += 1
            problem = None
            if res["status"] != 0:
                problem = f"exit status {res['status']}: {res['stderr'][-300:]!r}"
            elif cmd.same_as is not None:
                if res["out"] != results[cmd.same_as]["out"]:
                    problem = f"stdout differs from command {cmd.same_as}'s"
            elif self.verified.get(i) != res["out"]:
                try:
                    problem = cmd.check(res["out"].decode())
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    problem = f"unreadable output: {exc!r}"
                if problem is None:
                    self.verified[i] = res["out"]
            if problem is not None:
                self.failed += 1
                self.wrong += res["status"] == 0
                self.problems.append(f"{' '.join(cmd.args)[:120]}: {problem}")


def end_to_end(workload: workloads.Workload, rounds: list[dict],
               ticks: list[tuple[float, float]]) -> dict:
    """End-to-end metrics at the reference speed.

    A command's time is its median over the run's rounds of wall time times
    its calibration scale; ``setup_s`` rescales each ``--help`` sample by the
    calibration run just before it.
    """
    def median_time(i, rescale):
        return statistics.median(r["results"][i]["seconds"] * (r["results"][i]["scale"]
                                                             if rescale else 1) for r in rounds)

    times = [median_time(i, True) for i in range(len(workload.commands))]
    measured = [median_time(i, False) for i in range(len(workload.commands))]
    kinds = [i for i, cmd in enumerate(workload.commands)
             if workload.work_kind in (workloads.OTHER, cmd.kind)]
    latencies = [res["seconds"] for r in rounds for res in r["results"]]
    values = {
        "setup_s": statistics.median(setup * CALIBRATION_REF_S / cal for cal, setup in ticks),
        "wall_s": sum(times),
        "peak_rss_mb": max(res["rss_mb"] for r in rounds for res in r["results"]),
        "work_per_s": (sum(workload.commands[i].work for i in kinds)
                       / sum(times[i] for i in kinds)),
        "(measured setup_s)": statistics.median(setup for _, setup in ticks),
        "(measured wall_s)": sum(measured),
        "(calibration_s)": statistics.median(cal for cal, _ in ticks),
        "(cmd_p50_ms)": 1000 * statistics.median(latencies),
    }
    if len(latencies) >= 200:  # ten samples beyond the 95th percentile
        values["(cmd_p95_ms)"] = 1000 * statistics.quantiles(latencies, n=20)[-1]
    values["(commands)"] = len(latencies)
    return values


def self_times(spans: list) -> list[float]:
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start - covered[i]) / 1e9 for i, (_, start, end, _, _) in enumerate(spans)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: workloads.Workload, rounds: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics per traced round, from the spans and counters of every command."""
    spans_by_name: dict[str, list] = {}
    hot: dict[str, list[int]] = {}
    imports, absent = [], set()
    stdout_bytes = cache_written = scan_bases = 0
    pair = {}
    for r in rounds:
        for i, (cmd, res) in enumerate(zip(workload.commands, r["results"])):
            stdout_bytes += len(res["out"])
            cache_written += res["cache_bytes"]
            trace = res["trace"]
            if trace is None:
                continue
            imports.append(trace["import_ns"] / 1e9)
            absent.update(trace["absent"])
            if cmd.kind == workloads.SCAN:
                scan_bases += cmd.work
            spans = trace["spans"]
            selfs = self_times(spans)
            for j, (name, start, end, parent, facts) in enumerate(spans):
                children = [s for s in spans if s[3] == j] if name == "search.up_to" else []
                entry = {"dur": (end - start) / 1e9, "self": selfs[j], "facts": facts or {},
                         "children": children}
                spans_by_name.setdefault(name, []).append(entry)
                if name == "census.scan_powers" and workload.jobs_pair and i in workload.jobs_pair:
                    pair[i] = pair.get(i, 0.0) + entry["dur"]
            for name, (calls, ns, trues) in trace["hot"].items():
                acc = hot.setdefault(name, [0, 0, 0])
                acc[0] += calls
                acc[1] += ns
                acc[2] += trues

    def spans(name):
        return spans_by_name.get(name, [])

    def total(name, key):
        return sum(s[key] for s in spans(name))

    def hot_of(name):
        return hot.get(name, [0, 0, 0])

    n = len(rounds)
    push, pop = hot_of("search.push"), hot_of("search.pop")
    loads = spans("cache.load_range")
    enumerated = sum(s["facts"].get("words", 0) for s in spans("search.up_to")
                     if not any(c[0] == "cache.load_range" and (c[4] or {}).get("hit")
                                for c in s["children"]))
    witnesses = sum(s["facts"].get("witnesses", 0) for s in spans("census.scan_powers"))
    to_text, from_text = hot_of("core.word_to_text"), hot_of("core.word_from_text")
    jobs_ratio = 0.0
    if workload.jobs_pair:
        jobs_ratio = ratio(pair.get(workload.jobs_pair[0], 0.0), pair.get(workload.jobs_pair[1], 0.0))
    traced_wall = statistics.mean(r["wall"] for r in rounds)
    values = {
        "search.enumerate_s": total("search.up_to", "self") / n,
        "search.words_enumerated": enumerated // n,
        "search.push_ns": ratio(push[1] + pop[1], push[0] + pop[0]),
        "search.push_attempts": push[0] // n,
        "search.push_ok": push[2] // n,
        "search.push_ok_ratio": ratio(push[2], push[0]),
        "search.is_smooth_fast_calls": hot_of("search.is_smooth_fast")[0] // n,
        "search.is_smooth_fast_s": hot_of("search.is_smooth_fast")[1] / 1e9 / n,
        "search.fast_derivative_calls": hot_of("search.fast_derivative")[0] // n,
        "search.fast_derivative_s": hot_of("search.fast_derivative")[1] / 1e9 / n,
        "census.scan_powers_self_s": total("census.scan_powers", "self") / n,
        "census.power_hit_ratio": ratio(witnesses, scan_bases),
        "census.jobs2_over_jobs1": jobs_ratio,
        "concat.certify_concat_self_s": total("concat.certify_concat", "self") / n,
        "concat.tested_triples": sum(s["facts"].get("tested", 0)
                                     for s in spans("concat.certify_concat")) // n,
        "cache.store_s": total("cache.store_range", "dur") / n,
        "cache.load_s": total("cache.load_range", "dur") / n,
        "cache.bytes_written": cache_written // n,
        "cache.hit_ratio": ratio(sum(s["facts"].get("hit", False) for s in loads), len(loads)),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.run_self_s": total("cli.run", "self") / n,
        "cli.stdout_bytes": stdout_bytes // n,
        "core.word_to_text_us": ratio(to_text[1], to_text[0]) / 1000,
        "core.word_from_text_us": ratio(from_text[1], from_text[0]) / 1000,
        "calculus.smooth_chain_s": total("calculus.smooth_chain", "dur") / n,
        "calculus.rho_calls": len(spans("calculus.rho")) // n,
        "trace.overhead_s": traced_wall - untraced_wall,
        "(traced wall_s)": traced_wall,
        "(untraced wall_s)": untraced_wall,
    }
    if absent:
        values["(absent)"] = ", ".join(sorted(absent))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, same checks, references computed on the spot")
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "smoothwords" / "cli.py").is_file() or not spec_file.is_file():
        print(f"error: no smoothwords source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = workloads.build(args.workload, args.smoke, args.seed)
    verifier = Verifier(workload)
    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(dir=work_parent))
    runner = Runner(work_root)
    try:
        runner.warm_up()
        if args.trace:
            reference = runner.round(workload)
            verifier.round(reference["results"])
        else:
            for _ in range(TICKS_BEFORE):
                runner.tick()
        rounds = []
        start = perf_counter()
        while not rounds or perf_counter() - start < args.seconds:
            rounds.append(runner.round(workload, traced=bool(args.trace),
                                       ticking=not args.trace))
            verifier.round(rounds[-1]["results"])
    finally:
        runner.close()
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass  # another run is using it

    if args.trace:
        values = per_layer(workload, rounds, reference["wall"])
    else:
        values = end_to_end(workload, rounds, runner.ticks)
    for problem in verifier.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {workload.name}: {len(rounds)} round(s) of {len(workload.commands)} "
          f"commands, {verifier.failed} failed")
    for name, value in values.items():
        print(f"  {name:32s} {value}")
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": verifier.wrong == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
