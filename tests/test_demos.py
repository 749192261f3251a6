"""Every narrative script in demos/ runs to the end in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fresh_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    proc = subprocess.run([sys.executable, str(demo)], env=fresh_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
