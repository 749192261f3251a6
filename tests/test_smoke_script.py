"""The CLI smoke script that CI runs (``ci/smoke.sh``), run on this Python.

The script calls ``python``; a link of that name to the interpreter running
the tests goes first on PATH, so the script checks this interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_script_passes(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python").symlink_to(sys.executable)
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run(["bash", str(ROOT / "ci" / "smoke.sh")], cwd=work, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # The script ran to its last check, which writes zero_letter.err.
    assert (work / "chain100k.json").is_file()
    assert (work / "zero_letter.err").is_file()
