"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every criterion is exact
(structural equality or zero-failure sweeps); randomized sweeps are seeded.
"""

import random
from contextlib import contextmanager

import pytest

from helpers import (
    corrupted_ackermann_description,
    random_functional_graph_set,
    random_graph_set,
    walk_oracle,
)
from sct import (
    Arc,
    ArcKind,
    FunSig,
    LassoMultipath,
    SizeChangeGraph,
    check_sct_criterion,
    closure,
    compose,
    decide_periodic_descent,
    eval_program,
    graph_multiset,
    idempotent_power,
    sample_safety,
    synthesize,
)
from sct.colorings import PairColoring, pair_coloring_from_lasso, spp_witness, star_search
from sct.extract import Mode, extract_description
from sct.fixtures import ackermann_graph_set, ackermann_program
from sct.interp import Fuel, OutOfFuel
from sct.oracle import bounded_lasso_oracle
from sct.reduction import build_reversal_multipath, index_sets, spp_reduction_family, warmup_family
from test_reduction import all_colorings, random_coloring, recurring_and_active


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_c1_ackermann_golden_path():
    with criterion("C1 ackermann golden path"):
        program = ackermann_program()
        description = extract_description(program, Mode.GUARDED)
        g01, g2 = ackermann_graph_set().graphs
        assert description.sites == (g01, g01, g2)
        gs = ackermann_graph_set()
        cl = closure(gs)
        assert len(cl) == 2
        assert check_sct_criterion(gs, cl).sct is True


def test_c2_composition_algebra():
    with criterion("C2 composition algebra (10^4 triples)"):
        rng = random.Random(1002)

        def sig(name, arity):
            return FunSig(name, tuple(f"p{i}" for i in range(arity)))

        def graph(source, target):
            arcs = []
            for s in range(source.arity):
                for t in range(target.arity):
                    r = rng.random()
                    if r < 0.25:
                        arcs.append(Arc(s, ArcKind.STRICT, t))
                    elif r < 0.5:
                        arcs.append(Arc(s, ArcKind.NONSTRICT, t))
            return SizeChangeGraph(source, target, tuple(arcs))

        for _ in range(10_000):
            sigs = [sig(f"f{i}", rng.randint(1, 3)) for i in range(4)]
            g0, g1, g2 = (graph(sigs[i], sigs[i + 1]) for i in range(3))
            left = compose(compose(g0, g1), g2)
            right = compose(g0, compose(g1, g2))
            assert left == right
            for composed in (left, compose(g0, g1)):
                pairs = [(a.src, a.tgt) for a in composed.arcs]
                assert len(pairs) == len(set(pairs))

        for _ in range(2_000):
            s = sig("f", rng.randint(1, 3))
            g = graph(s, s)
            _, exponent = idempotent_power(g)
            assert exponent <= 3 ** (s.arity**2)


def test_c3_criterion_oracle_agreement():
    with criterion("C3 criterion vs oracle (500 graph sets)"):
        rng = random.Random(1003)
        for _ in range(500):
            gs = random_graph_set(rng, max_funs=2, max_arity=2, max_graphs=3)
            cl = closure(gs)
            verdict = check_sct_criterion(gs, cl)
            report = bounded_lasso_oracle(gs, cl.witness_bound)
            assert verdict.sct == (not report.refuted)
            assert report == walk_oracle(gs, cl.witness_bound)
            if not verdict.sct:
                assert decide_periodic_descent(verdict.lasso, gs) is None
            if report.refuted:
                assert decide_periodic_descent(report.counterexample, gs) is None


def test_c4_synthesis_round_trip():
    with criterion("C4 synthesis round trip (200 graph sets)"):
        rng = random.Random(1004)
        for _ in range(200):
            gs = random_functional_graph_set(rng, max_funs=3, max_arity=3, max_graphs=5)
            description = extract_description(synthesize(gs), Mode.SYNTACTIC)
            assert graph_multiset(description.sites) == graph_multiset(gs.graphs)
            assert (
                check_sct_criterion(gs).sct
                == check_sct_criterion(description.to_graph_set()).sct
            )


def test_c5_safety_sampling():
    with criterion("C5 safety sampling (1000 states)"):
        program = ackermann_program()
        description = extract_description(program, Mode.GUARDED)
        report = sample_safety(
            program, description, trials=1000, value_bound=3, fuel=10**6, seed=1005
        )
        assert not report.violations
        corrupted = corrupted_ackermann_description()
        bad = sample_safety(
            program, corrupted, trials=1000, value_bound=3, fuel=10**6, seed=1005
        )
        assert len(bad.violations) >= 1


def test_c6_interpreter_values_and_fuel():
    with criterion("C6 interpreter values and fuel monotonicity"):
        program = ackermann_program()

        def oracle(x, y):
            # closed forms for rows 1..3
            return {1: y + 2, 2: 2 * y + 3, 3: 2 ** (y + 3) - 3}[x]

        assert eval_program(program, "A", (2, 2), 10**6) == 7 == oracle(2, 2)
        assert eval_program(program, "A", (3, 3), 10**6) == 61 == oracle(3, 3)
        for values in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            fuel = Fuel(10**6)
            eval_program(program, "A", values, fuel)
            needed = 10**6 - fuel.budget
            expected = oracle(*values)
            with pytest.raises(OutOfFuel):
                eval_program(program, "A", values, needed - 1)
            for extra in (0, 1, 100):
                assert eval_program(program, "A", values, needed + extra) == expected


def test_c7_reversal_construction():
    with criterion("C7 reversal construction (exhaustive k<=2, sampled k=3)"):
        extra_params = 0

        def check(coloring):
            nonlocal extra_params
            run = build_reversal_multipath(coloring)
            witness = decide_periodic_descent(run.lasso, run.graphs)
            assert witness is not None
            target = index_sets(coloring.k).index(tuple(sorted(spp_witness(coloring))))
            params = witness.params
            assert target in params
            extra_params += len(params) - 1
            for recurs, active in recurring_and_active(coloring).values():
                assert recurs == active

        for k in (1, 2):
            for coloring in all_colorings(k, max_prefix=3, max_period=4):
                check(coloring)
        rng = random.Random(1007)
        for _ in range(25):
            check(random_coloring(rng, 3))
        # reported for information; uniqueness is not asserted
        print(f"[acceptance] C7 note: {extra_params} additional descent parameters seen")


def test_c8_family_termination():
    with criterion("C8 reduction family and warm-up are terminating"):
        for k in (1, 2, 3, 4):
            fam = spp_reduction_family(k)
            cl = closure(fam)
            assert all(dg.graph.strict_self_params() for dg in cl.elements)
            assert check_sct_criterion(fam, cl).sct
        warm = warmup_family()
        cl = closure(warm)
        assert all(dg.graph.strict_self_params() for dg in cl.elements)
        assert check_sct_criterion(warm, cl).sct


def test_c9_star_instances():
    with criterion("C9 anchored-triangle searches"):
        parity = PairColoring.from_function(2, 20, lambda i, j: (j - i) % 2)
        witness = star_search(parity, 5)
        assert witness is not None and len(witness.pairs) >= 5
        gs = ackermann_graph_set()
        for period in [(1,), (0, 1), (1, 1, 0)]:
            lasso = LassoMultipath((), period)
            coloring, palette = pair_coloring_from_lasso(lasso, gs, 12)
            star = star_search(coloring, 3)
            assert star is not None
            graph = palette[star.color]
            assert compose(graph, graph) == graph
            assert graph.strict_self_params()
