#!/usr/bin/env python3
"""Benchmark of the sct analyzer.

Run from the root of a checkout that holds ``src/sct``:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 25 --trace 0

One run measures one workload (closure, oracle, programs or cli; see
``workloads.py``) in a closed loop: one client, one item at a time, no
threads, and for ``cli`` one ``sct`` process at a time.  The inputs are drawn
from ``--seed``; the same seed gives the same inputs, and every seed the
same number of them.  After set-up the run makes whole passes over the
inputs for about ``--seconds`` seconds (at least three), and checks every
output against an independent reference (``reference.py``) and, for the
default seed 0, against recorded digests (``expected/``).

The machine this runs on may be shared, and its speed drifts by a third or
more for minutes at a time, longer than a run.  So an input's latency is
its median run, and the timed pass also gauges the machine's speed about
twice a second with a fixed kernel in a separate process
(``calibrate.py``): ``items_per_s``, ``item_p50_ms`` and ``item_tail_ms``
are reported at a reference speed, every time scaled by the kernel's
reference time over its median time in the run.  The detail lines give
them unscaled too.  Percentiles and goodput are computed over the inputs,
and ``attempted`` and ``failed`` count inputs, so they depend on the seed
and the program alone, not on how many passes fit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the items
plainly, then traced (every call into sct wrapped in a span), then plainly
again, and prints the per-layer metrics; the spans are written to
``.perfbench_work/trace-<workload>.jsonl``.  Human-readable detail lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program exits with 2, printing no result, when ``src/sct`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("closure", "oracle", "programs", "cli")
DEFAULT_SEED = 0
# set-up is timed in this process and in this many fresh ones; the median counts
EXTRA_SETUPS = 8
# every input runs at least this many times in a timed pass
MIN_PASSES = 3
# the machine's speed is gauged at least this often during the timed pass
GAUGE_INTERVAL_S = 0.5
STARTUP_SAMPLES = 5
TAIL_BEYOND = 10


def setup(name: str, seed: int, workdir: Path, traced: bool):
    """Import sct, choose the workload's inputs and build them.

    Returns the set-up time (the import and the build; choosing, which runs
    the benchmark's own reference, is not timed), the workload, its items,
    the api and the plan.
    """
    start = perf_counter()
    import tracing
    import workloads

    imported = perf_counter() - start
    tracer = tracing.Tracer() if traced else None
    api = tracing.Api(tracer)
    workload = workloads.WORKLOADS[name](workdir)
    plan = workload.choose(random.Random(seed))
    start = perf_counter()
    items = workload.build(plan, api)
    return imported + perf_counter() - start, workload, items, api, plan


def setup_from_plan(name: str, plan_path: Path, workdir: Path) -> float:
    """The timed part of ``setup`` alone, in a fresh process, from a written plan."""
    start = perf_counter()
    import tracing
    import workloads

    imported = perf_counter() - start
    workload = workloads.WORKLOADS[name](workdir)
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    start = perf_counter()
    workload.build(plan, tracing.Api())
    return imported + perf_counter() - start


class Pass:
    """Whole passes over the items: each input's outcome and run times."""

    def __init__(self, workload, items, seed: int):
        self.workload = workload
        self.items = items
        self.times: list[list[float]] = [[] for _ in items]
        self.outcome = ["ok"] * len(items)
        self.problems: Counter = Counter()
        self.passes = 0
        self.wall = 0.0
        self.recorded = {}
        if seed == DEFAULT_SEED:
            import workloads

            path = workloads.EXPECTED / "digests-seed0.json"
            self.recorded = json.loads(path.read_text(encoding="utf-8")).get(workload.name, {})

    def run(self, api, seconds=None, passes=None, min_passes=MIN_PASSES, gauge=None) -> None:
        """Run whole passes: ``passes`` of them, or as many as fit in ``seconds``.

        At least ``min_passes``; a pass is not started when one more of the
        average length would end past ``seconds``.  With a ``gauge``, the
        machine's speed is measured between items every ``GAUGE_INTERVAL_S``.
        """
        tracer = api.tracer
        gauged = perf_counter()
        if gauge is not None:
            gauge.measure()
        # the inputs are long-lived; keep them out of the collector's way
        gc.collect()
        gc.freeze()
        start = perf_counter()
        done = 0
        while True:
            elapsed = perf_counter() - start
            if passes is not None:
                if done >= passes:
                    break
            elif done >= min_passes and elapsed * (done + 1) / done > seconds:
                break
            for index, item in enumerate(self.items):
                self.run_one(api, tracer, index, item)
                if gauge is not None and perf_counter() - gauged >= GAUGE_INTERVAL_S:
                    gauge.measure()
                    gauged = perf_counter()
            done += 1
        if gauge is not None:
            gauge.measure()
        self.passes += done
        self.wall += perf_counter() - start
        gc.unfreeze()

    def run_one(self, api, tracer, index: int, item) -> None:
        if tracer is not None:
            tracer.item = index
            span = tracer.open("bench", item.kind)
        t0 = perf_counter()
        try:
            output, error = self.workload.run(item, api), None
        except Exception as exc:  # a crash of the program under test is a failed item
            # keep only the name: a RecursionError's traceback pins a thousand frames
            output, error = None, type(exc).__name__
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
            tracer.item = -1
        self.times[index].append(elapsed)
        outcome = self.classify(item, output, error)
        if self.outcome[index] == "ok":
            self.outcome[index] = outcome

    def classify(self, item, output, error) -> str:
        """``ok``, ``failed`` (crash, exit code, traceback) or ``wrong``."""
        import workloads

        if error is None:
            error = self.workload.failure(item, output)
        if error is not None:
            self.problems[f"failed: {error}"] += 1
            return "failed"
        problem = self.workload.judge(item, output)
        text = self.workload.text(item, output)
        if problem is None and self.recorded and text is not None:
            if self.recorded.get(item.key) != workloads.digest(text):
                problem = "digest differs from the recording for the default seed"
        if problem is not None:
            self.problems[f"wrong: {item.key}: {problem}"] += 1
            return "wrong"
        return "ok"

    def deep_checks(self) -> None:
        """Slow checks, once per input; a failing one makes the input wrong."""
        for index, item in enumerate(self.items):
            problem = self.workload.deep_check(item)
            if problem is not None:
                self.problems[f"wrong: {item.key}: {problem}"] += 1
                if self.outcome[index] == "ok":
                    self.outcome[index] = "wrong"

    def count(self, outcome: str) -> int:
        return self.outcome.count(outcome)

    def summary(self, scale: float = 1.0):
        """Goodput, median and tail latency (ms) over the inputs, each at its median run.

        Every time is multiplied by ``scale`` first.  A failed or wrong input
        ranks as slowest.  The tail is the input with exactly ``TAIL_BEYOND``
        inputs beyond it, the highest percentile that still has that many;
        its percentile is returned.
        """
        typical = [statistics.median(ts) * scale for ts in self.times]
        slowest_ok = max((t for t, o in zip(typical, self.outcome) if o == "ok"), default=0.0)
        ranked = sorted(t if o == "ok" else max(t, slowest_ok) for t, o in zip(typical, self.outcome))
        n = len(ranked)
        rank = max(0, n - 1 - TAIL_BEYOND)
        goodput = self.count("ok") / sum(typical)
        return goodput, statistics.median(ranked) * 1000, ranked[rank] * 1000, 100.0 * (rank + 1) / n

    def report(self) -> None:
        for problem, n in sorted(self.problems.items()):
            print(f"# {n} x {problem}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def fresh_setup_times(name: str, plan, workdir: Path) -> list[float]:
    workdir.mkdir(parents=True, exist_ok=True)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    times = []
    for _ in range(EXTRA_SETUPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--role", "setup", "--workload", name,
             "--plan", str(plan_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def startup_ms() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and what ``import sct.cli`` adds."""
    env = {"PYTHONPATH": str(ROOT / "src")}
    bare, imported = [], []
    for _ in range(STARTUP_SAMPLES):
        for code, sink in (("pass", bare), ("import sct.cli", imported)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            sink.append((perf_counter() - t0) * 1000)
    python_ms = statistics.median(bare)
    return python_ms, statistics.median(imported) - python_ms


def compose_us_per_call(sample) -> float:
    """Time ``compose`` on the sampled (closure element, base graph) pairs."""
    from sct import compose

    calls = 0
    start = perf_counter()
    while calls == 0 or perf_counter() - start < 0.3:
        for left, right in sample:
            compose(left, right)
        calls += len(sample)
    return (perf_counter() - start) / calls * 1e6


def peak_rss_mb(name: str) -> float:
    # the cli workload's memory is that of the sct processes it starts
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(args, workdir):
    import calibrate

    setup_s, workload, items, api, plan = setup(args.workload, args.seed, workdir, traced=False)
    timed = Pass(workload, items, args.seed)
    with calibrate.Gauge(ROOT / "src") as gauge:
        timed.run(api, seconds=args.seconds, gauge=gauge)
        # read before the gauge's process is waited for, so its memory is not counted
        rss = peak_rss_mb(args.workload)
    timed.deep_checks()
    setups = [setup_s] + fresh_setup_times(args.workload, plan, workdir)
    scale = gauge.scale()
    goodput, p50, tail, percentile = timed.summary(scale)
    raw_goodput, raw_p50, raw_tail, _ = timed.summary()
    attempted = len(items)
    good, n_failed, n_wrong = timed.count("ok"), timed.count("failed"), timed.count("wrong")
    print(f"# workload {args.workload}, seed {args.seed}: {attempted} inputs, "
          f"{timed.passes} passes in {timed.wall:.3f} s")
    print(f"# set-up samples (s): {', '.join(f'{t:.4f}' for t in setups)}")
    print(f"# item_tail_ms is p{percentile:.2f} of {attempted} inputs ({TAIL_BEYOND} beyond it)")
    print(f"# speed gauge: median kernel {statistics.median(gauge.times) * 1000:.3f} ms "
          f"of {len(gauge.times)}, times scaled by {scale:.4f}")
    print(f"# unscaled: items_per_s {raw_goodput:.4f}, item_p50_ms {raw_p50:.4f}, item_tail_ms {raw_tail:.4f}; "
          f"goodput over whole passes {good * timed.passes / timed.wall:.4f} items/s")
    print(f"# error_ratio {n_failed / attempted:.4f}, wrong_answers {n_wrong}")
    timed.report()
    return {
        "correct": n_wrong == 0,
        "attempted": attempted,
        "failed": n_failed + n_wrong,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "items_per_s": metric(goodput, "1/s"),
            "item_p50_ms": metric(p50, "ms"),
            "item_tail_ms": metric(tail, "ms"),
            "peak_rss_mb": metric(rss, "MB"),
            "success_ratio": metric(good / attempted, "ratio"),
        },
    }


def per_layer(args, workdir):
    import tracing

    _, workload, items, traced_api, _ = setup(args.workload, args.seed, workdir, traced=True)
    tracer = traced_api.tracer
    tracing.probe(traced_api)
    plain_api = tracing.Api()
    # the first plain pass warms up and fixes the number of passes; the overhead
    # compares the traced passes with a plain replay of as many after them
    warm = Pass(workload, items, args.seed)
    warm.run(plain_api, seconds=args.seconds / 3, min_passes=1)
    traced = Pass(workload, items, args.seed)
    traced.run(traced_api, passes=warm.passes)
    replay = Pass(workload, items, args.seed)
    replay.run(plain_api, passes=warm.passes)
    python_ms, import_ms = startup_ms()
    compose_us = compose_us_per_call(tracer.compose_sample)
    for timed in (warm, traced, replay):
        timed.deep_checks()
    tracer.write(WORK / f"trace-{args.workload}.jsonl")

    calls, busy, self_s = tracer.totals()
    pass_self = tracer.totals(items_only=True)[2]
    c = tracer.counts

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    jsonio_s = sum(busy[n] for n, layer in tracing.LAYER_OF.items() if layer == "jsonio")
    metrics = {
        "compose.us_per_call": metric(compose_us, "us"),
        "closure.calls": metric(calls["closure"], "count"),
        "closure.s": metric(busy["closure"], "s"),
        "closure.elements": metric(c["closure.elements"], "count"),
        "closure.elements_per_s": metric(rate(c["closure.elements"], busy["closure"]), "1/s"),
        "closure.max_witness_len": metric(c["closure.max_witness_len"], "count"),
        "closure.compose_calls": metric(c["closure.compose_calls"], "count"),
        "closure.useful_ratio": metric(rate(c["closure.elements"], c["closure.compose_calls"]), "ratio"),
        "criterion.s": metric(busy["check_sct_criterion"], "s"),
        "criterion.elements_scanned": metric(c["criterion.elements_scanned"], "count"),
        "oracle.calls": metric(calls["bounded_lasso_oracle"], "count"),
        "oracle.s": metric(busy["bounded_lasso_oracle"], "s"),
        "oracle.words": metric(c["oracle.words"], "count"),
        "oracle.words_per_s": metric(rate(c["oracle.words"], busy["bounded_lasso_oracle"]), "1/s"),
        "reduction.s": metric(busy["spp_reduction_family"], "s"),
        "parser.calls": metric(calls["parse_program"], "count"),
        "parser.s": metric(busy["parse_program"], "s"),
        "parser.bytes_per_s": metric(rate(c["parser.bytes"], busy["parse_program"]), "B/s"),
        "extract.calls": metric(calls["extract_description"], "count"),
        "extract.s": metric(busy["extract_description"], "s"),
        "extract.sites": metric(c["extract.sites"], "count"),
        "synth.calls": metric(calls["synthesize"], "count"),
        "synth.s": metric(busy["synthesize"], "s"),
        "interp.runs": metric(calls["eval_program"], "count"),
        "interp.s": metric(busy["eval_program"], "s"),
        "interp.fuel_spent": metric(c["interp.fuel_spent"], "count"),
        "interp.calls_per_s": metric(rate(c["interp.fuel_spent"], busy["eval_program"]), "1/s"),
        "interp.out_of_fuel": metric(c["interp.out_of_fuel"], "count"),
        "interp.errors": metric(c["interp.errors"], "count"),
        "safety.trials": metric(c["safety.trials"], "count"),
        "safety.s": metric(busy["sample_safety"], "s"),
        "jsonio.s": metric(jsonio_s, "s"),
        "jsonio.bytes": metric(c["jsonio.bytes"], "B"),
        "cli.python_ms": metric(python_ms, "ms"),
        "cli.import_ms": metric(import_ms, "ms"),
        "trace.overhead_ratio": metric(traced.wall / replay.wall, "ratio"),
    }
    # a cli span is a whole sct process; only the cli workload has them
    for layer in tracing.LAYERS:
        if layer != "cli":
            metrics[f"self_s.{layer}"] = metric(self_s[layer], "s")
    total_self = sum(pass_self.values())
    shares = ", ".join(f"{layer} {pass_self[layer] / total_self:.1%}"
                       for layer in sorted(pass_self, key=pass_self.get, reverse=True))
    # an input counts as failed or wrong when any of its three passes was
    outcomes = [next((o for o in outs if o != "ok"), "ok")
                for outs in zip(warm.outcome, traced.outcome, replay.outcome)]
    n_failed, n_wrong = outcomes.count("failed"), outcomes.count("wrong")
    print(f"# workload {args.workload}, seed {args.seed}: {len(items)} inputs, {traced.passes} passes, "
          f"traced in {traced.wall:.3f} s, plain in {replay.wall:.3f} s")
    print(f"# self time by layer in the traced pass: {shares}")
    print(f"# start-up and import: {python_ms + import_ms:.1f} ms per sct process")
    print(f"# failed {n_failed}, wrong {n_wrong}")
    traced.report()
    return {
        "correct": n_wrong == 0,
        "attempted": len(items),
        "failed": n_failed + n_wrong,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup"), default="run", help=argparse.SUPPRESS)
    parser.add_argument("--plan", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sct" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'sct'} not found; run from a checkout of the sct sources",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.role}-{os.getpid()}"
    try:
        if args.role == "setup":
            setup_s = setup_from_plan(args.workload, args.plan, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = per_layer(args, workdir) if args.trace else end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
