"""The four workloads: how each chooses its inputs, builds them, runs an item and checks it.

Set-up has two parts.  ``choose`` draws candidate inputs from the seeded
``rng``, computes their reference answers (``reference.py``) and keeps those
that fill the workload's mix.  It returns a plan, plain data that names each
input's generator and sub-seed, and keeps the expected answers in
``self.expect``.  ``build`` turns a plan into items with sct: graph sets,
synthesized programs, the spp family, the files the ``cli`` commands read.
Only ``build`` and the import of sct are the program's set-up, timed as
``setup_s``; fresh processes repeat them from the same plan.

``run`` performs one item through an ``Api`` (plain or traced) and returns
its output; an exception means the item failed.  ``judge`` compares an
output with the expected answer and returns ``None`` when it is right, else a
short description of the difference.

Random inputs vary a lot in cost, so each workload fixes the shape of its
mix and leaves only the inputs themselves to the seed: ``closure`` takes one
graph set per bin of a fixed log-spaced grid of closure sizes, ``oracle`` one
per bin of a grid of modelled cost, and ``programs`` draws its operations
into fixed quotas by how deep their runs go.  So every seed gives the same
number of inputs, of nearly the same costs, and the same known failures.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import sct
from sct import Fuel, LassoMultipath, OutOfFuel
from sct.extract import Mode
from sct.fixtures import ackermann_program, fixture_files

import gen
import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"
# a mix that cannot be filled within this many draws per input is an error
MAX_DRAWS_PER_INPUT = 400


@dataclass
class Item:
    kind: str
    key: str
    data: dict


@dataclass
class Expected:
    """The reference answer for one graph set."""

    text: str
    witness: list[int] | None  # of the first failing idempotent, if any
    gs: Any = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def log_bins(low: float, high: float, count: int) -> list[tuple[float, float]]:
    """``count`` adjacent bins from ``low`` to ``high``, of equal ratio."""
    ratio = (high / low) ** (1 / count)
    edges = [low * ratio**i for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


def fill_bins(bins: list[tuple[float, float]], draw) -> list:
    """One drawn entry per bin.

    ``draw(cap)`` returns ``(measure, entry)``, or ``None`` for a candidate
    it found to measure ``cap`` or more; an entry goes to the open bin
    holding its measure, and is dropped when that bin is full or there is none.
    """
    chosen: list = [None] * len(bins)
    for _ in range(MAX_DRAWS_PER_INPUT * len(bins)):
        open_bins = [i for i, entry in enumerate(chosen) if entry is None]
        if not open_bins:
            return chosen
        got = draw(max(bins[i][1] for i in open_bins))
        if got is None:
            continue
        measure, entry = got
        for i in open_bins:
            if bins[i][0] <= measure < bins[i][1]:
                chosen[i] = entry
                break
    raise RuntimeError(f"could not fill {chosen.count(None)} of {len(bins)} bins of the input mix")


def _verdict_text(api, gs, mode: str | None = None) -> str:
    """Closure, criterion and the verdict JSON, as ``sct analyze`` prints them."""
    out: dict = {} if mode is None else {"mode": mode}
    if not gs.graphs:
        out.update({"sct": True, "closure_size": 0})
        return api.dumps(out)
    cl = api.closure(gs)
    verdict = api.check_sct_criterion(gs, cl)
    out.update(api.verdict_to_json(verdict, gs))
    out["closure_size"] = len(cl)
    return api.dumps(out)


def _graph_check_text(api, gs) -> str:
    """Criterion and oracle at the witness bound, as ``sct graphs check --oracle`` prints them."""
    cl = api.closure(gs)
    verdict = api.check_sct_criterion(gs, cl)
    out = api.verdict_to_json(verdict, gs)
    out["closure_size"] = len(cl)
    report = api.bounded_lasso_oracle(gs, cl.witness_bound)
    out["oracle"] = api.oracle_report_to_json(report, gs)
    out["oracle"]["agrees"] = verdict.sct == (report.counterexample is None)
    return api.dumps(out)


# A cost model of sct's work, in microseconds on the machine it was fitted on
# (least squares over timed random sets); the grids of the closure and oracle
# workloads are in these units.
CLOSURE_COMPOSITION_US = 1.6  # per composition during closure
CRITERION_STEP_US = 9.1  # per element the criterion scans
ARC_US = 12.3  # per arc of a closure element: building, hashing, comparing
ORACLE_COMPOSITION_US = 20  # per composition the oracle makes
PER_SET_US = 20  # per graph set: verdict and JSON
# the fewest modelled microseconds per closure element, to cap a draw's closure
MIN_ELEMENT_US = 40


def _closure_cost(rc: ref.RefClosure) -> float:
    """Modelled cost of closure and criterion on one graph set."""
    return (
        CLOSURE_COMPOSITION_US * rc.compositions
        + CRITERION_STEP_US * len(rc.scanned())
        + ARC_US * rc.arcs(rc.elements)
    )


def _reference_graph_check(gs, cap: int, max_words: int) -> tuple[int, Expected] | None:
    """Modelled cost and the ``graphs check --oracle`` report, or None past the caps."""
    pk = ref.Packed(gs)
    rc = ref.RefClosure(pk, cap=cap)
    if not rc.complete:
        return None
    bound = rc.witness_bound()
    if _cyclic_words(pk, bound) > max_words:
        return None
    words, counterexample, composed = ref.oracle(pk, bound)
    out = rc.verdict()
    out["oracle"] = {
        "max_word_len": bound,
        "words_checked": words,
        "counterexample": _period_json(pk, counterexample),
        "agrees": out["sct"] == (counterexample is None),
    }
    cost = _closure_cost(rc) + ORACLE_COMPOSITION_US * composed + PER_SET_US
    return int(cost), Expected(ref.dumps(out), _failing_witness(rc), gs)


def _failing_witness(rc: ref.RefClosure) -> list[int] | None:
    return None if rc.first_failing is None else rc.witness(rc.first_failing)


def _period_json(pk: ref.Packed, word: list[int] | None) -> dict | None:
    return None if word is None else {"period": [pk.graph_names[j] for j in word]}


def _cyclic_words(pk: ref.Packed, max_len: int) -> int:
    """Composable cyclic words of length 1..max_len: the sum of traces of M^l."""
    n = len(pk.sig_names)
    m = [[0] * n for _ in range(n)]
    for g in pk.base:
        m[g[0]][g[1]] += 1
    power = [row[:] for row in m]
    total = 0
    for _ in range(max_len):
        total += sum(power[i][i] for i in range(n))
        power = [[sum(power[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return total


def _check_failing(gs, witness: list[int] | None, oracle: bool = True) -> str | None:
    """A failing verdict's lasso has no descent, and the oracle at its length refutes it.

    Outputs already equal the reference, so its witness stands for the lasso
    ``sct`` printed.
    """
    if witness is None:
        return None
    if sct.decide_periodic_descent(LassoMultipath((), tuple(witness)), gs) is not None:
        return "failing lasso has a descent"
    if oracle and not sct.bounded_lasso_oracle(gs, len(witness)).refuted:
        return f"oracle at L={len(witness)} does not refute a failing verdict"
    return None


class Workload:
    name = ""
    # item kinds whose output text has a recorded digest for the default seed
    digest_kinds: tuple[str, ...] = ()

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.expect: dict[str, Any] = {}
        self._cache: dict[str, Any] = {}

    def choose(self, rng: random.Random) -> list[dict]:
        """Draw the inputs; returns the plan and fills ``self.expect``."""
        raise NotImplementedError

    def build(self, plan: list[dict], api) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item, api):
        raise NotImplementedError

    def failure(self, item: Item, output) -> str | None:
        """A failure that shows in the output itself (exit code, traceback)."""
        return None

    def judge(self, item: Item, output) -> str | None:
        raise NotImplementedError

    def deep_check(self, item: Item) -> str | None:
        """A slow check of an input that ran, made once after the pass."""
        return None

    def text(self, item: Item, output) -> str | None:
        """The byte-stable text of an output, for recorded digests."""
        return None

    def once(self, item: Item, compute):
        """Compute a reference or run a slow check once per input, not per output."""
        if item.key not in self._cache:
            self._cache[item.key] = compute()
        return self._cache[item.key]


class GraphSetWorkload(Workload):
    """Items are graph sets, each checked against its reference verdict."""

    digest_kinds = ("set",)
    # whether the deep check also runs the oracle on failing verdicts
    ORACLE_CHECK = True

    def judge(self, item, output):
        return None if output == self.expect[item.key].text else "output differs from the reference"

    def deep_check(self, item):
        expected = self.expect.get(item.key)
        if not isinstance(expected, Expected):
            return None
        return _check_failing(item.data["gs"], expected.witness, self.ORACLE_CHECK)

    def text(self, item, output):
        return output


class ClosureWorkload(GraphSetWorkload):
    """Permutation families: the ``closure`` -> ``compose`` hot path.

    Each input is three random partial permutations of one function's
    parameters, about 1 arc in 4 strict.  One input fills each bin of a
    log-spaced grid of modelled cost (closure sizes of about 20 to 2000);
    bins alternate between sets that terminate by construction (parameter
    0 descends in every graph) and sets that mostly do not, and each bin
    draws from the arity whose costs usually fall there.  One more
    non-terminating input, of about 10^4 elements, takes a third of the pass.
    """

    name = "closure"
    GRID = (1000, 150000, 60)  # modelled microseconds: low, high, bins
    LARGE = (740000, 860000)

    @staticmethod
    def arity(low: float, terminating: bool) -> int:
        if terminating:
            return 4 if low < 3000 else 5 if low < 30000 else 6
        return 4 if low < 8000 else 5

    @staticmethod
    def graph_set(spec: dict):
        return gen.permutation_set(
            random.Random(spec["seed"]), spec["arity"], spec["partial"], spec["terminating"]
        )

    def choose(self, rng):
        bins = [(lo, hi, i % 2 == 0) for i, (lo, hi) in enumerate(log_bins(*self.GRID))]
        bins.append((*self.LARGE, False))
        groups: dict[tuple[bool, int], list[int]] = {}
        for i, (lo, _, terminating) in enumerate(bins[:-1]):
            groups.setdefault((terminating, self.arity(lo, terminating)), []).append(i)
        chosen: list = [None] * len(bins)
        # the large input draws from arity 6 alone: its bin would hold up the others
        for (terminating, arity), members in [*groups.items(), ((False, 6), [len(bins) - 1])]:

            def draw(cap, terminating=terminating, arity=arity):
                spec = {"arity": arity, "partial": rng.choice((0.0, 0.15)), "terminating": terminating,
                        "seed": rng.randrange(2**32)}
                gs = self.graph_set(spec)
                rc = ref.RefClosure(ref.Packed(gs), cap=int(cap / MIN_ELEMENT_US))
                if not rc.complete:
                    return None
                return _closure_cost(rc), (spec, Expected(ref.dumps(rc.verdict()), _failing_witness(rc)))

            for i, entry in zip(members, fill_bins([bins[i][:2] for i in members], draw)):
                chosen[i] = entry
        plan = []
        for i, (spec, expected) in enumerate(chosen):
            key = f"c{i:02d}"
            plan.append(dict(spec, key=key))
            self.expect[key] = expected
        rng.shuffle(plan)
        return plan

    def build(self, plan, api):
        return [Item("set", spec["key"], {"gs": self.graph_set(spec)}) for spec in plan]

    def run(self, item, api):
        return _verdict_text(api, item.data["gs"])


class OracleWorkload(GraphSetWorkload):
    """Small random sets cross-checked against the oracle, plus the spp family.

    Sets have at most 2 functions of arity at most 4 and at most 4 graphs;
    the oracle runs at the witness bound.  One set fills each bin of a
    log-spaced grid of modelled cost.  Sets whose oracle search space
    (cyclic words up to that bound) exceeds ``MAX_WORDS`` are not drawn.
    The spp family at L=4 is a fixed input, and the slowest one.
    """

    name = "oracle"
    digest_kinds = ("set", "spp")
    # the output already holds the oracle's answer at the witness bound
    ORACLE_CHECK = False
    GRID = (100, 10000, 150)  # modelled microseconds: low, high, bins
    MAX_WORDS = 600
    SPP_K, SPP_L = 3, 4

    @staticmethod
    def graph_set(spec: dict):
        return gen.random_graph_set(random.Random(spec["seed"]), 2, 4, 4)

    def choose(self, rng):
        def draw(_cap):
            spec = {"seed": rng.randrange(2**32)}
            got = _reference_graph_check(self.graph_set(spec), 2000, self.MAX_WORDS)
            return None if got is None else (got[0], (spec, got[1]))

        plan = []
        for i, (spec, expected) in enumerate(fill_bins(log_bins(*self.GRID), draw)):
            key = f"o{i:02d}"
            plan.append(dict(spec, kind="set", key=key))
            self.expect[key] = expected
        plan.append({"kind": "spp", "key": "spp"})
        rng.shuffle(plan)
        return plan

    def build(self, plan, api):
        spp = api.spp_reduction_family(self.SPP_K)
        return [
            Item("spp", spec["key"], {"gs": spp}) if spec["kind"] == "spp"
            else Item("set", spec["key"], {"gs": self.graph_set(spec)})
            for spec in plan
        ]

    def run(self, item, api):
        gs = item.data["gs"]
        if item.kind == "spp":
            report = api.bounded_lasso_oracle(gs, self.SPP_L)
            return api.dumps(api.oracle_report_to_json(report, gs))
        return _graph_check_text(api, gs)

    def judge(self, item, output):
        if item.kind == "spp":
            expected = self.once(item, lambda: self._spp_expected(item.data["gs"]))
            return None if output == expected else "spp oracle report differs from the reference"
        return super().judge(item, output)

    def _spp_expected(self, gs) -> str:
        pk = ref.Packed(gs)
        words, counterexample, _ = ref.oracle(pk, self.SPP_L)
        return ref.dumps({
            "max_word_len": self.SPP_L,
            "words_checked": words,
            "counterexample": _period_json(pk, counterexample),
        })


class ProgramsWorkload(Workload):
    """Synthesized programs and Ackermann through frontend, criterion and interpreter.

    Programs are synthesized from random functional graph sets (up to 6
    functions).  Each operation is an item: ``analyze`` (format, parse,
    extraction in both modes, criterion, verdict JSON), ``roundtrip``
    (synthesis inverts syntactic extraction), ``run`` (fueled evaluation) and
    ``safety`` (guarded safety sampling).  Runs and safety samples are drawn
    into quotas of shallow ones (every run at most ``SHALLOW`` calls deep)
    and deep ones (some run at least ``DEEP`` calls deep).  Today's
    interpreter recurses in Python per call and raises RecursionError a few
    hundred calls deep, so the deep quota is where that known defect shows.
    """

    name = "programs"
    digest_kinds = ("analyze", "analyze_ack")
    QUOTAS = {"analyze": 60, "roundtrip": 60, "run-shallow": 40, "run-deep": 20,
              "safety-shallow": 30, "safety-deep": 20}
    SHALLOW, DEEP = 200, 400
    FUEL = 1000
    SAFETY_TRIALS, SAFETY_BOUND = 8, 3
    ACK_FUEL = 10**6
    # A(2, 100) nests about 200 calls deep, past the interpreter's Python
    # recursion limit today; it stays in the mix as a known failure
    ACK_FIXED = ((2, 50), (2, 100), (3, 3), (3, 4))
    ACK_SAFETY_SEED = 0

    @staticmethod
    def graph_set(seed: int):
        return gen.random_functional_graph_set(random.Random(seed), 6, 3, 8)

    def _depth_class(self, calls: int) -> str | None:
        if calls <= self.SHALLOW:
            return "shallow"
        return "deep" if calls >= self.DEEP else None

    def choose(self, rng):
        filled = {name: 0 for name in self.QUOTAS}
        plan: list[dict] = []

        def take(name: str, spec: dict, expected=None) -> None:
            if filled[name] < self.QUOTAS[name]:
                key = f"{name}{filled[name]}"
                plan.append(dict(spec, key=key))
                self.expect[key] = expected
                filled[name] += 1

        while any(filled[n] < q for n, q in self.QUOTAS.items()):
            seed = rng.randrange(2**32)
            gs = self.graph_set(seed)
            take("analyze", {"kind": "analyze", "set": seed})
            take("roundtrip", {"kind": "roundtrip", "set": seed})
            # synthesized functions all take the largest arity; the first is the set's first
            args = [rng.randint(0, 5) for _ in range(max(sig.arity for sig in gs.sigs))]
            outcome, value, calls = ref.run_synthesized(gs, gs.sigs[0].name, tuple(args), self.FUEL)
            depth = self._depth_class(calls)
            if depth is not None:
                take(f"run-{depth}", {"kind": "run", "set": seed, "args": args}, (outcome, value))
            safety_seed = rng.randrange(2**31)
            if filled["safety-shallow"] < self.QUOTAS["safety-shallow"] or \
                    filled["safety-deep"] < self.QUOTAS["safety-deep"]:
                runs = ref.safety_runs(gs, self.SAFETY_TRIALS, self.SAFETY_BOUND, self.FUEL, safety_seed)
                depth = self._depth_class(max(calls for _, _, calls in runs))
                if depth is not None:
                    converged = sum(1 for outcome, _, _ in runs if outcome == "value")
                    take(f"safety-{depth}", {
                        "kind": "safety", "set": seed, "seed": safety_seed, "trials": self.SAFETY_TRIALS,
                        "fuel": self.FUEL,
                    }, (converged, self.SAFETY_TRIALS - converged))
        pairs = list(self.ACK_FIXED) + [(2, rng.randint(0, 30)) for _ in range(2)]
        for m, n in pairs:
            plan.append({"kind": "run_ack", "key": f"A{m},{n}", "args": [m, n]})
            self.expect[f"A{m},{n}"] = ("value", ref.ackermann(m, n))
        plan.append({"kind": "analyze_ack", "key": "analyze_ack"})
        plan.append({"kind": "safety_ack", "key": "safety_ack", "seed": self.ACK_SAFETY_SEED, "trials": 20,
                     "fuel": self.ACK_FUEL})
        rng.shuffle(plan)
        return plan

    def build(self, plan, api):
        programs: dict[int, tuple] = {}
        ack = ackermann_program()
        items = []
        for spec in plan:
            data = {k: v for k, v in spec.items() if k not in ("kind", "key", "set")}
            if "set" in spec:
                if spec["set"] not in programs:
                    gs = self.graph_set(spec["set"])
                    programs[spec["set"]] = (gs, api.synthesize(gs))
                data["gs"], data["program"] = programs[spec["set"]]
            else:
                data["program"] = ack
            if "args" in data:
                data["args"] = tuple(data["args"])
            items.append(Item(spec["kind"], spec["key"], data))
        return items

    def run(self, item, api):
        kind, d = item.kind, item.data
        program = d["program"]
        if kind in ("analyze", "analyze_ack"):
            parsed = api.parse_program(api.format_program(program))
            description = api.extract_description(parsed, Mode.GUARDED)
            api.extract_description(parsed, Mode.SYNTACTIC)
            gs = description.to_graph_set()
            return _verdict_text(api, gs, "guarded"), gs
        if kind == "roundtrip":
            parsed = api.parse_program(api.format_program(program))
            description = api.extract_description(parsed, Mode.SYNTACTIC)
            return api.graph_multiset(description.sites) == api.graph_multiset(d["gs"].graphs)
        if kind in ("run", "run_ack"):
            budget = self.ACK_FUEL if kind == "run_ack" else self.FUEL
            try:
                return ("value", api.eval_program(program, program.defs[0].sig.name, d["args"], Fuel(budget)))
            except OutOfFuel:
                return ("out_of_fuel", None)
        if kind in ("safety", "safety_ack"):
            description = api.extract_description(program, Mode.GUARDED)
            return api.sample_safety(program, description, d["trials"], self.SAFETY_BOUND, d["fuel"], d["seed"])
        raise ValueError(kind)

    def judge(self, item, output):
        kind, d = item.kind, item.data
        expected = self.expect.get(item.key)
        if kind in ("analyze", "analyze_ack"):
            text, gs = output
            reference = self.once(item, lambda: self._analyze_reference(gs))
            if kind == "analyze_ack" and '"sct": true' not in reference.text:
                return "Ackermann is not proved terminating"
            return None if text == reference.text else "verdict differs from the reference closure"
        if kind == "roundtrip":
            return None if output else "synthesis round trip is not exact"
        if kind == "run":
            return None if output == expected else f"got {output}, reference {expected}"
        if kind == "run_ack":
            return None if output == expected else f"got {output}, closed form {expected}"
        if output.violations:
            return f"{len(output.violations)} safety violations on a guarded description"
        if expected is not None and (output.converged, output.skipped) != expected:
            return f"converged/skipped {output.converged}/{output.skipped}, reference {expected}"
        if output.converged + output.skipped != d["trials"]:
            return "safety trials do not add up"
        return None

    @staticmethod
    def _analyze_reference(gs) -> Expected:
        """The reference verdict on the guarded description ``sct`` extracted.

        The digest recorded for the default seed pins the extraction itself.
        """
        if not gs.graphs:
            return Expected(ref.dumps({"mode": "guarded", "sct": True, "closure_size": 0}), None, gs)
        rc = ref.RefClosure(ref.Packed(gs))
        return Expected(ref.dumps({"mode": "guarded", **rc.verdict()}), _failing_witness(rc), gs)

    def deep_check(self, item):
        if item.kind not in ("analyze", "analyze_ack") or item.key not in self._cache:
            return None
        reference = self._cache[item.key]
        return _check_failing(reference.gs, reference.witness)

    def text(self, item, output):
        return output[0] if item.kind in self.digest_kinds else None


class CliWorkload(Workload):
    """Whole ``python -m sct.cli`` invocations, one at a time.

    The recorded commands on the shipped fixtures, ``sct run`` of Ackermann
    on drawn arguments and on two that crash today (A(2, 100) and A(3, 5)
    nest about 200 and 250 calls deep; the expected result is exit 0 and the
    value), and ``sct graphs check --oracle`` on drawn small graph sets.
    """

    name = "cli"
    FUEL = 10**6
    RUNS, CHECKS = 14, 12
    KNOWN_CRASHES = ((2, 100), (3, 5))
    # modelled cost of a drawn graph set: small, so start-up still dominates
    SEEDED_COST = (20, 200)

    def choose(self, rng):
        plan = []
        for entry in json.loads((EXPECTED / "cli.json").read_text(encoding="utf-8")):
            plan.append({"kind": "recorded", "key": entry["name"], "argv": entry["argv"]})
            stdout = (EXPECTED / "cli" / f"{entry['name']}.out").read_text(encoding="utf-8")
            self.expect[entry["name"]] = (entry["code"], stdout)
        pairs = list(self.KNOWN_CRASHES)
        while len(pairs) < len(self.KNOWN_CRASHES) + self.RUNS:
            m = rng.choice((2, 3))
            pair = (m, rng.randint(0, 40) if m == 2 else rng.randint(0, 3))
            if pair not in pairs:
                pairs.append(pair)
        for m, n in pairs:
            key = f"run-A-{m}-{n}"
            plan.append({"kind": "run", "key": key, "argv": [
                "run", "ackermann.sct", "A", str(m), str(n), "--fuel", str(self.FUEL)]})
            report = {"function": "A", "args": [m, n], "fuel": self.FUEL, "value": ref.ackermann(m, n)}
            self.expect[key] = (0, ref.dumps(report))
        for i in range(self.CHECKS):
            while True:
                seed = rng.randrange(2**32)
                got = _reference_graph_check(self.graph_set(seed), 500, 200)
                if got is not None and self.SEEDED_COST[0] <= got[0] <= self.SEEDED_COST[1]:
                    break
            expected = got[1]
            key = f"graphs-check-{i:02d}"
            bound = json.loads(expected.text)["oracle"]["max_word_len"]
            plan.append({"kind": "seeded", "key": key, "seed": seed,
                         "argv": ["graphs", "check", f"{key}.json", "--oracle", str(bound)]})
            self.expect[key] = (0 if '"sct": true' in expected.text else 1, expected.text)
        rng.shuffle(plan)
        return plan

    @staticmethod
    def graph_set(seed: int):
        return gen.random_graph_set(random.Random(seed), 2, 3, 3)

    def write_fixtures(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, content in fixture_files().items():
            (self.workdir / name).write_text(content, encoding="utf-8")

    def build(self, plan, api):
        self.write_fixtures()
        for spec in plan:
            if spec["kind"] == "seeded":
                text = api.dumps(api.graph_set_to_json(self.graph_set(spec["seed"])))
                (self.workdir / f"{spec['key']}.json").write_text(text, encoding="utf-8")
        return [Item(spec["kind"], spec["key"], {"argv": spec["argv"]}) for spec in plan]

    def run(self, item, api):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = api.process(
            [sys.executable, "-m", "sct.cli", *item.data["argv"]],
            cwd=self.workdir,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def failure(self, item, output):
        code, _, stderr = output
        if "Traceback" in stderr:
            return f"exit {code} with a traceback"
        if code != self.expect[item.key][0]:
            return f"exit {code}, expected {self.expect[item.key][0]}"
        return None

    def judge(self, item, output):
        return None if output[1] == self.expect[item.key][1] else "stdout differs from the expected bytes"


WORKLOADS = {w.name: w for w in (ClosureWorkload, OracleWorkload, ProgramsWorkload, CliWorkload)}
