#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/summary.py --workloads closure,oracle --seeds 1-10 [--trace 1] [--out FILE]

For each workload and metric prints the median, the quartiles and the
spread (distance between the quartiles as a share of the median), the
figures a change is judged by.  Runs one benchmark process at a time, from
the root of the checkout.  ``--out`` also writes them as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="closure,oracle,programs,cli")
    ap.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,2,3")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out")
    args = ap.parse_args()

    summary: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                cwd=HERE.parent, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            print(f"{workload} seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        metrics = {}
        for name, vs in values.items():
            q1, median, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            median = statistics.median(vs)
            spread = (q3 - q1) / median if median else 0.0
            metrics[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3, "spread": spread,
                             "values": vs}
            print(f"  {name:28s} median {median:14.6g} {units[name]:6s} spread {spread:6.3f}")
        summary[workload] = {"runs": runs, "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
