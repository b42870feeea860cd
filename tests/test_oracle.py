import itertools
import random
import sys

import pytest

from helpers import (
    random_functional_graph_set,
    random_graph_set,
    random_wide_graph_set,
    reference_oracle,
    walk_oracle,
)
from sct import (
    Arc,
    ArcKind,
    CompositionError,
    FunSig,
    GraphSet,
    LassoMultipath,
    SizeChangeGraph,
    check_sct_criterion,
    closure,
    compose,
    decide_periodic_descent,
    idempotent_power,
)
from sct.oracle import OracleReport, _strict_cycle, bounded_lasso_oracle
from sct.reduction import spp_reduction_family


def two_cycle(strict):
    f, g = FunSig("f", ("x",)), FunSig("g", ("y",))
    arcs = (Arc(0, ArcKind.STRICT, 0),) if strict else ()
    return GraphSet.of((SizeChangeGraph(f, g, arcs), SizeChangeGraph(g, f, arcs)))


def square_graph(sig, cells):
    """The graph on sig with one cell per (source, target) pair: 0 none, 1 non-strict, 2 strict."""
    kinds = (None, ArcKind.NONSTRICT, ArcKind.STRICT)
    n = sig.arity
    arcs = [Arc(i // n, kinds[c], i % n) for i, c in enumerate(cells) if c]
    return SizeChangeGraph(sig, sig, arcs)


def idempotent_descends(g):
    return bool(idempotent_power(g)[0].strict_self_params())


class TestStrictCycle:
    """The oracle's verdict on a cyclic value against the idempotent power it stands for."""

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_every_square_graph(self, arity):
        sig = FunSig("f", tuple(f"p{i}" for i in range(arity)))
        count = 0
        for cells in itertools.product(range(3), repeat=arity * arity):
            g = square_graph(sig, cells)
            assert _strict_cycle(g.rows, arity) == idempotent_descends(g), g
            count += 1
        assert count == 3 ** (arity * arity)

    @pytest.mark.parametrize("arity", [4, 5, 6, 7])
    def test_seeded_graphs(self, arity):
        rng = random.Random(47 + arity)
        sig = FunSig("f", tuple(f"p{i}" for i in range(arity)))
        descending = 0
        for _ in range(1000):
            # sparse to dense, so that both verdicts are common
            density, strict = rng.uniform(0.05, 0.45), rng.random()
            cells = [
                (2 if rng.random() < strict else 1) if rng.random() < density else 0
                for _ in range(arity * arity)
            ]
            g = square_graph(sig, cells)
            verdict = _strict_cycle(g.rows, arity)
            assert verdict == idempotent_descends(g), g
            descending += verdict
        assert 200 < descending < 800


class TestEnumeration:
    def test_self_loops(self, ack_graphs):
        assert bounded_lasso_oracle(ack_graphs, 1) == OracleReport(None, 1, 2)

    def test_two_cycles(self):
        assert bounded_lasso_oracle(two_cycle(strict=True), 2) == OracleReport(None, 2, 2)
        report = bounded_lasso_oracle(two_cycle(strict=False), 2)
        assert report == OracleReport(LassoMultipath((), (0, 1)), 2, 1)

    def test_no_cycles(self):
        f, g = FunSig("f", ("x",)), FunSig("g", ("y",))
        gs = GraphSet.of((SizeChangeGraph(f, g, ()),))
        assert bounded_lasso_oracle(gs, 3) == OracleReport(None, 3, 0)

    def test_acyclic_chain_stops_at_the_longest_path(self):
        sigs = [FunSig(f"f{i}", ("x",)) for i in range(4)]
        gs = GraphSet.of([SizeChangeGraph(a, b, ()) for a, b in zip(sigs, sigs[1:])])
        assert bounded_lasso_oracle(gs, 10**6) == OracleReport(None, 10**6, 0)

    def test_rejects_zero_bound(self, ack_graphs):
        for max_len in (0, -1):
            with pytest.raises(ValueError):
                bounded_lasso_oracle(ack_graphs, max_len)

    def test_shortlex_order(self):
        """The counterexample is the shortlex-least failing word."""
        rng = random.Random(44)
        found = 0
        while found < 40:
            gs = random_graph_set(rng)
            report = bounded_lasso_oracle(gs, 4)
            if not report.refuted:
                continue
            found += 1
            word = report.counterexample.period
            for length in range(1, len(word) + 1):
                for other in itertools.product(range(len(gs.graphs)), repeat=length):
                    if (length, other) >= (len(word), word):
                        break
                    try:
                        descent = decide_periodic_descent(LassoMultipath((), other), gs)
                    except CompositionError:
                        continue
                    assert descent is not None

    def test_matches_reference(self):
        rng = random.Random(45)
        for _ in range(1000):
            gs = random_graph_set(rng)
            for max_len in range(1, 6):
                assert bounded_lasso_oracle(gs, max_len) == reference_oracle(gs, max_len)

    def test_wide_sets_match_reference(self):
        """Rows past 64 bits: the row maps, the cycle test and the value walk against the reference."""
        rng = random.Random(46)
        refuted = 0
        for _ in range(100):
            gs = random_wide_graph_set(rng)
            for max_len in range(1, 5):
                report = bounded_lasso_oracle(gs, max_len)
                assert report == reference_oracle(gs, max_len)
            refuted += report.refuted
        assert 10 < refuted < 90

    def test_spp_family_matches_reference(self):
        # one function and 8 graphs: 4,680 words over a closure of 15 values
        report = bounded_lasso_oracle(spp_reduction_family(3), 4)
        assert report == reference_oracle(spp_reduction_family(3), 4)
        assert report.words_checked == 4680

    def test_equal_rows_on_two_functions(self):
        """Cyclic words at f and at g compose to equal rows; they stay two values with two verdicts."""
        f, g = FunSig("f", ("x", "y")), FunSig("g", ("u", "v"))
        nonstrict, strict = ArcKind.NONSTRICT, ArcKind.STRICT
        gs = GraphSet.of(
            (
                SizeChangeGraph(f, g, (Arc(0, strict, 0), Arc(1, nonstrict, 1))),
                SizeChangeGraph(g, f, (Arc(0, nonstrict, 0), Arc(1, nonstrict, 1))),
                SizeChangeGraph(f, f, (Arc(0, nonstrict, 0), Arc(1, strict, 1))),
                SizeChangeGraph(g, f, (Arc(0, nonstrict, 1), Arc(1, nonstrict, 0))),
            )
        )
        a, b = gs.graphs[:2]
        assert compose(a, b).rows == compose(b, a).rows
        for max_len in range(1, 7):
            assert bounded_lasso_oracle(gs, max_len) == reference_oracle(gs, max_len)

    def test_long_bound_needs_no_recursion(self):
        f = FunSig("f", ("x",))
        gs = GraphSet.of((SizeChangeGraph(f, f, (Arc(0, ArcKind.STRICT, 0),)),))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(400)
        try:
            report = bounded_lasso_oracle(gs, 600)
        finally:
            sys.setrecursionlimit(limit)
        assert report == OracleReport(None, 600, 600)

    def test_large_bound_is_counted_not_walked(self, ack_graphs):
        # 2 words of each length, none refuted: 2 + 4 + ... + 2^20000
        assert bounded_lasso_oracle(ack_graphs, 20000) == OracleReport(None, 20000, 2**20001 - 2)


class TestAgainstWalk:
    """The walk over distinct values against the word-by-word walk it replaced."""

    @pytest.mark.parametrize(
        "generate, seed",
        [(random_graph_set, 50), (random_functional_graph_set, 51), (random_wide_graph_set, 52)],
        ids=["random", "functional", "wide"],
    )
    def test_seeded_sets(self, generate, seed):
        rng = random.Random(seed)
        refuted = 0
        for _ in range(1000):
            gs = generate(rng)
            for max_len in (1, 2, 3, 5):
                report = bounded_lasso_oracle(gs, max_len)
                assert report == walk_oracle(gs, max_len), (gs, max_len)
                refuted += report.refuted
        assert 800 < refuted < 3200  # 2,600, 2,912 and 1,084 of the 4,000 reports

    @pytest.mark.parametrize("k, top", [(3, 7), (4, 4)])
    def test_spp_family(self, k, top):
        gs = spp_reduction_family(k)
        for max_len in range(1, top + 1):
            assert bounded_lasso_oracle(gs, max_len) == walk_oracle(gs, max_len)

    def test_ackermann(self, ack_graphs):
        for max_len in range(1, 19):
            assert bounded_lasso_oracle(ack_graphs, max_len) == walk_oracle(ack_graphs, max_len)


class TestOracle:
    def test_swap_is_refuted_at_length_one(self, swap_graphs):
        report = bounded_lasso_oracle(swap_graphs, 2)
        assert report.refuted
        assert report.counterexample.period == (0,)

    def test_ackermann_has_no_counterexample(self, ack_graphs):
        report = bounded_lasso_oracle(ack_graphs, 3)
        assert not report.refuted
        assert report.words_checked == 2 + 4 + 8

    def test_reduction_family_has_no_counterexample(self):
        from sct.reduction import spp_reduction_family

        report = bounded_lasso_oracle(spp_reduction_family(2), 2)
        assert not report.refuted

    def test_agreement_with_criterion(self):
        rng = random.Random(41)
        for _ in range(200):
            gs = random_graph_set(rng)
            cl = closure(gs)
            verdict = check_sct_criterion(gs, cl)
            report = bounded_lasso_oracle(gs, cl.witness_bound)
            assert verdict.sct == (not report.refuted)
            assert report == walk_oracle(gs, cl.witness_bound)

    def test_reported_lasso_is_descent_free(self):
        rng = random.Random(42)
        found = 0
        while found < 40:
            gs = random_graph_set(rng)
            report = bounded_lasso_oracle(gs, closure(gs).witness_bound)
            if report.refuted:
                found += 1
                assert decide_periodic_descent(report.counterexample, gs) is None
