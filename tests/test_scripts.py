"""Smoke tests: each script in scripts/ runs with small arguments and summarizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sct

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_python(*args):
    src = str(Path(sct.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=False,
    )


@pytest.mark.parametrize(
    "argv, summary_lines",
    [
        (
            ["reversal_sweep.py", "--k", "1", "--max-prefix", "1", "--max-period", "2"],
            ["4 colorings, descent always at the recurring-color parameter"],
        ),
        (
            ["analyze_ackermann.py"],
            [
                "criterion: terminating",
                "  A(2, 2) = 7 in 27 calls",
                "safety sample: 0 violations over 500 converged / 0 skipped trials",
            ],
        ),
    ],
    ids=["reversal_sweep", "analyze_ackermann"],
)
def test_script_runs(argv, summary_lines):
    proc = run_python(str(SCRIPTS / argv[0]), *argv[1:])
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert all(line in lines for line in summary_lines)


@pytest.mark.parametrize(
    "witness, message",
    [
        ("None", "no descent for EPColoring(k=1, prefix=(), period=(0,))"),
        (
            "sct.DescentWitness((5,), 0, 1)",
            "descent at parameters (5,) misses z0 for EPColoring(k=1, prefix=(), period=(0,))",
        ),
    ],
    ids=["no-descent", "wrong-parameter"],
)
def test_reversal_sweep_fails_under_optimization(witness, message):
    """The sweep's checks are explicit, so ``python -O`` keeps them."""
    code = (
        "import runpy, sct; "
        f"sct.decide_periodic_descent = lambda lasso, gs: {witness}; "
        f"runpy.run_path({str(SCRIPTS / 'reversal_sweep.py')!r}, run_name='__main__')"
    )
    proc = run_python("-O", "-c", code, "--k", "1", "--max-prefix", "0", "--max-period", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message + "\n")
