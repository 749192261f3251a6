"""Tests of the benchmark itself, on the smoke size of every workload.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_oracle_reproduces_the_paper():
    assert oracle.self_check() == []


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in metrics} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (ROOT / ".bench_work").exists()


def test_words_inputs_follow_the_seed():
    refs = workloads.References(live=True)
    first = [c.args for c in workloads.words(True, refs, 3).commands]
    assert first == [c.args for c in workloads.words(True, refs, 3).commands]
    assert first != [c.args for c in workloads.words(True, refs, 4).commands]


def test_full_size_references_are_present():
    for name in ("census", "sweep", "concat"):
        workloads.build(name, smoke=False, seed=0)


def test_checks_reject_wrong_outputs():
    refs = workloads.References(live=True)
    scan = workloads.scan_check((1, 2), 2, 10, "csv", refs)
    good = "base,base_length,power_length\n" + "".join(
        f"{b},{len(b)},{2 * len(b)}\n" for b in refs.scan((1, 2), 2, 10))
    assert scan(good) is None
    assert scan(good.rsplit("\n", 2)[0] + "\n") is not None  # a witness dropped
    expected = workloads.chain_expected_text((2, 2, 1, 2, 2), (1, 2))
    assert expected.startswith("level 0: 22122\nlevel 1: 212\n")
    chain = workloads.word_check(expected)
    assert chain(expected + "\n") is None
    assert chain(expected.replace("verdict: smooth", "verdict: not-smooth")) is not None
    dsigma = workloads.dsigma_check((2, 5), "text")
    assert dsigma("\n2\n5\n22\n25\n52\n55\n222\n") is None
    assert dsigma("\n2\n5\n22\n25\n55\n222\n") is not None  # 52 missing


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "census", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
