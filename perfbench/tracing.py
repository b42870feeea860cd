"""The sct entry points the benchmark calls, optionally wrapped in spans.

Spans are recorded from outside the program: each wrapper notes the layer,
the function, its start and end, the span that was open when it was called
(its parent) and the benchmark item it ran for.  Counters are read at the
same boundary from arguments and results, so the program is not touched.
Spans stay in memory until ``Tracer.write`` at the end of the run.
"""

from __future__ import annotations

import json
import subprocess
from collections import Counter
from time import perf_counter

import sct
from sct import Fuel, LassoMultipath, jsonio
from sct.extract import Mode
from sct.fixtures import ackermann_graph_set, ackermann_program
from sct.interp import OutOfFuel

# entry point -> layer (the sct module that defines it)
LAYER_OF = {
    "format_program": "syntax",
    "parse_program": "parser",
    "extract_description": "extract",
    "closure": "graphs",
    "check_sct_criterion": "graphs",
    "compose": "graphs",
    "decide_periodic_descent": "graphs",
    "bounded_lasso_oracle": "oracle",
    "spp_reduction_family": "reduction",
    "synthesize": "synth",
    "graph_multiset": "synth",
    "eval_program": "interp",
    "sample_safety": "interp",
    "verdict_to_json": "jsonio",
    "oracle_report_to_json": "jsonio",
    "graph_set_to_json": "jsonio",
    "dumps": "jsonio",
    # a whole sct process, started by the cli workload
    "process": "cli",
}

# every layer a span can be charged to; "bench" is the benchmark's own code
# inside an item
LAYERS = ("bench", *sorted(set(LAYER_OF.values())))

COMPOSE_SAMPLE_PER_CALL = 16
COMPOSE_SAMPLE_MAX = 4000


def _entry(name: str):
    if name == "process":
        return subprocess.run
    module = jsonio if LAYER_OF[name] == "jsonio" else sct
    return getattr(module, name)


class Api:
    """Attribute access to the sct entry points; traced when given a tracer."""

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        for name in LAYER_OF:
            fn = _entry(name)
            setattr(self, name, fn if tracer is None else tracer.wrap(name, fn))


class Tracer:
    def __init__(self):
        # (layer, name, start, end, parent span index, item index)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.item = -1
        self.counts: Counter = Counter()
        self.compose_sample: list[tuple] = []

    def open(self, layer: str, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((layer, name, perf_counter(), None, parent, self.item))
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = perf_counter()
        layer, name, start, _, parent, item = self.spans[index]
        self.spans[index] = (layer, name, start, end, parent, item)
        self.stack.pop()

    def wrap(self, name: str, fn):
        layer = LAYER_OF[name]
        count = getattr(self, f"_count_{name}", None)

        def traced(*args, **kwargs):
            before = args[3].budget if name == "eval_program" else None
            index = self.open(layer, name)
            error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error, result = exc, None
                raise
            finally:
                self.close(index)
                if count is not None:
                    count(args, result, error, before)

        return traced

    # --- counters read at the call boundary ------------------------------

    def _count_closure(self, args, cl, error, _):
        if cl is None:
            return
        gs = args[0]
        c = self.counts
        c["closure.elements"] += len(cl)
        c["closure.max_witness_len"] = max(c["closure.max_witness_len"], cl.witness_bound)
        composable: dict = {}
        for g in gs.graphs:
            composable.setdefault(g.source, []).append(g)
        c["closure.compose_calls"] += sum(len(composable.get(dg.graph.target, ())) for dg in cl.elements)
        if len(self.compose_sample) < COMPOSE_SAMPLE_MAX:
            step = max(1, len(cl) // COMPOSE_SAMPLE_PER_CALL)
            for dg in cl.elements[::step][:COMPOSE_SAMPLE_PER_CALL]:
                for base in composable.get(dg.graph.target, ()):
                    self.compose_sample.append((dg.graph, base))

    def _count_check_sct_criterion(self, args, verdict, error, _):
        cl = args[1] if len(args) > 1 else None
        if verdict is None or cl is None:
            return
        if verdict.sct:
            scanned = len(cl)
        else:
            scanned = cl.elements.index(verdict.failing_idempotent) + 1
        self.counts["criterion.elements_scanned"] += scanned

    def _count_bounded_lasso_oracle(self, args, report, error, _):
        if report is not None:
            self.counts["oracle.words"] += report.words_checked

    def _count_parse_program(self, args, program, error, _):
        self.counts["parser.bytes"] += len(args[0].encode("utf-8"))

    def _count_extract_description(self, args, description, error, _):
        if description is not None:
            self.counts["extract.sites"] += len(description)

    def _count_eval_program(self, args, value, error, before):
        c = self.counts
        c["interp.fuel_spent"] += before - args[3].budget
        if isinstance(error, OutOfFuel):
            c["interp.out_of_fuel"] += 1
        elif error is not None:
            c["interp.errors"] += 1

    def _count_sample_safety(self, args, report, error, _):
        trials = args[2] if len(args) > 2 else 0
        self.counts["safety.trials"] += trials
        if error is not None:
            self.counts["interp.errors"] += 1

    def _count_dumps(self, args, text, error, _):
        if text is not None:
            self.counts["jsonio.bytes"] += len(text.encode("utf-8"))

    # --- summaries --------------------------------------------------------

    def totals(self, items_only: bool = False) -> tuple[Counter, Counter, Counter]:
        """Calls and busy seconds per entry point, and self seconds per layer.

        With ``items_only`` only spans of the timed items count, not those of
        set-up and the probe.
        """
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_s: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for layer, name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (layer, name, start, end, _, item) in enumerate(self.spans):
            if items_only and item < 0:
                continue
            calls[name] += 1
            busy[name] += end - start
            self_s[layer] += end - start - child_time[i]
        return calls, busy, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for layer, name, start, end, parent, item in self.spans:
                fh.write(json.dumps([layer, name, start, end, parent, item]) + "\n")


def probe(api: Api) -> None:
    """Call every traced entry point once on the Ackermann example.

    The traced run starts with this, so every layer figure is measured on
    every workload, also where the workload itself leaves a layer idle.
    """
    program = api.parse_program(api.format_program(ackermann_program()))
    description = api.extract_description(program, Mode.GUARDED)
    api.extract_description(program, Mode.SYNTACTIC)
    gs = description.to_graph_set()
    cl = api.closure(gs)
    verdict = api.check_sct_criterion(gs, cl)
    api.dumps(api.verdict_to_json(verdict, gs))
    api.dumps(api.graph_set_to_json(gs))
    api.oracle_report_to_json(api.bounded_lasso_oracle(gs, 3), gs)
    api.decide_periodic_descent(LassoMultipath((), (0,)), gs)
    api.compose(gs.graphs[0], gs.graphs[-1])
    api.eval_program(program, "A", (2, 3), Fuel(10**6))
    api.sample_safety(program, description, 5, 3, 10**6, 0)
    api.synthesize(ackermann_graph_set())
    api.graph_multiset(gs.graphs)
    api.spp_reduction_family(2)
