"""Smoke tests: each script in scripts/ runs with small arguments and summarizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sct

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv, summary_line",
    [
        (
            ["reversal_sweep.py", "--k", "1", "--max-prefix", "1", "--max-period", "2"],
            "4 colorings, descent always at the recurring-color parameter",
        ),
        (["analyze_ackermann.py"], "criterion: terminating"),
    ],
    ids=["reversal_sweep", "analyze_ackermann"],
)
def test_script_runs(argv, summary_line):
    src = str(Path(sct.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert summary_line in proc.stdout.splitlines()
