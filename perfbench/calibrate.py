"""A fixed pure-Python kernel that gauges how fast the machine runs right now.

The machine the benchmark runs on may be shared, and its speed drifts by a
third or more for minutes at a time, longer than one run.  So ``run.py``
times this kernel about twice a second during the timed pass and reports the
pass's times at a reference speed: scaled by ``REFERENCE_S`` over the
median time of the kernel in the run.

The kernel is the benchmark's own reference closure of one fixed graph set
and a recursive evaluation with a dict per frame, the kinds of work sct
does.  It runs in a separate process, started with ``python3
perfbench/calibrate.py``, so nothing the program under test leaves in its
own process (heap, caches, collector state) changes the kernel's time.  The
process reads one line per request and answers with the kernel's fastest
time, in seconds, over ``REPS`` runs; it exits at the end of its input.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
# the kernel's median time on the machine the benchmark was written on
# (shared 2-core x86-64, Python 3.11); times at the reference speed are
# close to raw times there
REFERENCE_S = 0.007
REPS = 3
SET_SEED = 11


def _fixed_set():
    """A fixed permutation set with a closure of 500 to 1500 elements, packed."""
    import gen
    import reference as ref

    rng = random.Random(SET_SEED)
    while True:
        packed = ref.Packed(gen.permutation_set(rng, 5, 0.0, False))
        if 500 <= len(ref.RefClosure(packed, cap=2000)) <= 1500:
            return packed


def _evaluate(env, m: int, n: int) -> int:
    frame = {"m": m, "n": n, "env": env}
    if frame["m"] == 0:
        return frame["n"] + 1
    if frame["n"] == 0:
        return _evaluate(frame, m - 1, 1)
    return _evaluate(frame, m - 1, _evaluate(frame, m, n - 1))


def serve() -> int:
    import reference as ref

    packed = _fixed_set()
    for _ in sys.stdin:
        best = float("inf")
        for _ in range(REPS):
            start = perf_counter()
            ref.RefClosure(packed)
            _evaluate(None, 2, 30)
            best = min(best, perf_counter() - start)
        print(best, flush=True)
    return 0


class Gauge:
    """The kernel's process, as seen from the benchmark; use it in a ``with``."""

    def __init__(self, src: Path):
        self.times: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )

    def measure(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process ended early")
        self.times.append(float(line))

    def scale(self) -> float:
        """Factor that turns a time of this run into one at the reference speed."""
        return REFERENCE_S / statistics.median(self.times)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait()


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(serve())
