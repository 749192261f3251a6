"""Import hygiene: what a single CLI command loads in a fresh interpreter."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Imported only by the branches that need them (--jobs > 1, JSON output),
# or not at all.
DEFERRED = {"concurrent", "multiprocessing", "dataclasses", "json"}

CHILD = """
import sys
bare = set(sys.modules)
from smoothwords.cli import main
code = main(sys.argv[1:])
print("exit", code)
print("added", *sorted(set(sys.modules) - bare))
"""


def run_fresh(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[-2] == "exit 0"
    added = set(lines[-1].split()[1:])
    return lines[:-2], added


@pytest.mark.parametrize("argv, line", [
    (("chain", "--alphabet", "1,2", "--word", "1211"), "verdict: smooth"),
    # The scans run through search.map_tasks, which starts no pool here.
    (("gamma", "--alphabet", "1,2", "-n", "2", "-L", "8", "--jobs", "1"),
     "gamma=10 stable=true"),
    (("certify-concat", "--alphabet", "1,2", "-L", "4", "--jobs", "1"),
     "2654 smooth triples tested, 0 violations"),
], ids=["chain", "gamma", "certify-concat"])
def test_chain_command_skips_deferred_imports(argv, line):
    out, added = run_fresh(*argv)
    assert line in out
    assert {name.split(".")[0] for name in added} & DEFERRED == set()


def test_every_submodule_is_loaded():
    # The benchmark's tracing shim finds the layers it wraps in sys.modules
    # right after importing smoothwords.cli, so no submodule may be lazy.
    submodules = {f"smoothwords.{info.name}"
                  for info in pkgutil.iter_modules([str(SRC / "smoothwords")])}
    assert {"smoothwords.search", "smoothwords.census", "smoothwords.concat"} <= submodules
    _, added = run_fresh("chain", "--alphabet", "1,2", "--word", "1211")
    assert submodules <= added

