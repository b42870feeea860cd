import copy
import pickle
import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sct.graphs
from helpers import (
    random_cyclic_word,
    random_graph,
    random_graph_set,
    random_permutation_set,
    random_sigs,
    random_sparse_graph,
    random_wide_graph_set,
    reference_closure,
    reference_compose,
)
from sct import (
    Arc,
    ArcKind,
    CompositionError,
    DescentWitness,
    FunSig,
    GraphSet,
    LassoMultipath,
    SizeChangeGraph,
    Verdict,
    check_sct_criterion,
    closure,
    compose,
    decide_periodic_descent,
    idempotent_power,
)
from sct.reduction import spp_reduction_family

def sig(name="f", arity=2):
    return FunSig(name, tuple(f"p{i}" for i in range(arity)))


@st.composite
def sig_chain(draw, length, max_arity=3):
    arities = [draw(st.integers(1, max_arity)) for _ in range(length)]
    return [sig(f"f{i}", a) for i, a in enumerate(arities)]


@st.composite
def graph_between(draw, source, target):
    arcs = []
    for s in range(source.arity):
        for t in range(target.arity):
            choice = draw(st.sampled_from(["none", "strict", "nonstrict"]))
            if choice != "none":
                arcs.append(Arc(s, ArcKind(choice), t))
    return SizeChangeGraph(source, target, tuple(arcs))


@st.composite
def composable_triple(draw):
    sigs = draw(sig_chain(4))
    return tuple(draw(graph_between(sigs[i], sigs[i + 1])) for i in range(3))


@st.composite
def cyclic_graph(draw, max_arity=3):
    s = sig("f", draw(st.integers(1, max_arity)))
    return draw(graph_between(s, s))


class TestCompose:
    def test_ackermann_pair(self, ack_graphs):
        g01, g2 = ack_graphs.graphs
        assert compose(g01, g2) == g01  # the single arc x>x survives

    def test_nonstrict_identity_is_neutral(self):
        f, h = sig("f", 3), sig("h", 2)
        identity = SizeChangeGraph(
            f, f, tuple(Arc(i, ArcKind.NONSTRICT, i) for i in range(3))
        )
        g = SizeChangeGraph(
            f, h, (Arc(0, ArcKind.STRICT, 1), Arc(2, ArcKind.NONSTRICT, 0))
        )
        assert compose(identity, g) == g

    def test_swap_squares_to_nonstrict_diagonal(self, swap_graphs):
        (s,) = swap_graphs.graphs
        f = s.source
        assert compose(s, s) == SizeChangeGraph(
            f, f, (Arc(0, ArcKind.NONSTRICT, 0), Arc(1, ArcKind.NONSTRICT, 1))
        )

    def test_endpoint_mismatch(self):
        g = SizeChangeGraph(sig("f"), sig("g"), ())
        with pytest.raises(CompositionError):
            compose(g, g)

    @given(composable_triple())
    def test_associative(self, triple):
        g0, g1, g2 = triple
        assert compose(compose(g0, g1), g2) == compose(g0, compose(g1, g2))

    @given(composable_triple())
    def test_single_arc_invariant(self, triple):
        g0, g1, _ = triple
        seen = set()
        for a in compose(g0, g1).arcs:
            assert (a.src, a.tgt) not in seen
            seen.add((a.src, a.tgt))


class TestConstructor:
    def test_arc_out_of_range(self):
        f, h = sig("f", 2), sig("h", 3)
        for src, tgt in ((2, 0), (-1, 0), (0, 3), (1, -1)):
            with pytest.raises(ValueError, match=rf"^arc {src}->{tgt} out of range for f->h$"):
                SizeChangeGraph(f, h, (Arc(0, ArcKind.STRICT, 0), Arc(src, ArcKind.STRICT, tgt)))

    def test_two_arcs_between_one_pair(self):
        f, h = sig("f", 2), sig("h", 3)
        arcs = (("p1", "strict", "p0"), ("p0", "nonstrict", "p2"), ("p1", "nonstrict", "p0"))
        with pytest.raises(ValueError, match="^two arcs between parameters 1 and 0$"):
            SizeChangeGraph.from_names(f, h, arcs)

    def test_immutable(self):
        f = sig("f", 2)
        g = SizeChangeGraph(f, f, (Arc(0, ArcKind.STRICT, 1),))
        for name, value in (("source", sig("g")), ("target", sig("g")), ("arcs", ())):
            with pytest.raises(AttributeError):
                setattr(g, name, value)
        assert g == SizeChangeGraph(f, f, (Arc(0, ArcKind.STRICT, 1),))

    def test_copies_are_equal(self):
        f, h = sig("f", 2), sig("h", 3)
        g = SizeChangeGraph(f, h, (Arc(0, ArcKind.STRICT, 2), Arc(1, ArcKind.NONSTRICT, 0)))
        for again in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert again == g
            assert hash(again) == hash(g)
            assert again.arcs == g.arcs

    def test_strict_self_params_across_arities(self):
        f, h = sig("f", 3), sig("h", 2)
        wide = SizeChangeGraph.from_names(
            f,
            h,
            (
                ("p0", "strict", "p0"),
                ("p1", "nonstrict", "p1"),
                ("p1", "strict", "p0"),
                ("p2", "strict", "p1"),
            ),
        )
        assert wide.strict_self_params() == (0,)
        narrow = SizeChangeGraph.from_names(
            h, f, (("p0", "strict", "p2"), ("p1", "strict", "p1"), ("p0", "nonstrict", "p0"))
        )
        assert narrow.strict_self_params() == (1,)

    @pytest.mark.parametrize(
        "sigs, names, message",
        [
            ((sig("f"),), (), "^need exactly one name per graph$"),
            ((sig("f"), sig("f", 3)), ("a",), "^function names must be distinct$"),
            ((sig("h"),), ("a",), "^graph endpoints must be drawn from the listed signatures$"),
        ],
    )
    def test_graph_set_checks(self, sigs, names, message):
        g = SizeChangeGraph(sig("f"), sig("f"), (Arc(0, ArcKind.STRICT, 1),))
        with pytest.raises(ValueError, match=message):
            GraphSet(sigs, (g,), names)

    def test_arcs_round_trip_in_any_order(self):
        rng = random.Random(8)
        for _ in range(2000):
            sigs = random_sigs(rng, 2, 6)
            g = random_graph(rng, rng.choice(sigs), rng.choice(sigs))
            arcs = list(g.arcs)
            rng.shuffle(arcs)
            for again in (
                SizeChangeGraph(g.source, g.target, g.arcs),
                SizeChangeGraph(g.source, g.target, arcs),
            ):
                assert again == g
                assert hash(again) == hash(g)
                assert again.arcs == g.arcs


class TestKernel:
    """The packed kernel against composition on `Arc` objects."""

    def test_compose_matches_reference(self):
        """Dense graphs on up to 6 parameters, then sparse ones on up to 70 (rows past 128 bits)."""
        rng = random.Random(9)
        wide = 0
        for max_arity, trials, draw in ((6, 5000, random_graph), (70, 1000, random_sparse_graph)):
            for _ in range(trials):
                sigs = random_sigs(rng, 3, max_arity)
                a, b, c = (rng.choice(sigs) for _ in range(3))
                g0, g1 = draw(rng, a, b), draw(rng, b, c)
                packed, plain = compose(g0, g1), reference_compose(g0, g1)
                assert packed == plain
                assert packed.arcs == plain.arcs
                wide += max(map(int.bit_length, g0.rows + g1.rows + packed.rows)) > 128
        assert wide > 80

    @staticmethod
    def assert_closure_matches_reference(gs):
        got = [(g.source, g.target, g.arcs, w) for g, w in reference_closure(gs)]
        assert got == [
            (dg.graph.source, dg.graph.target, dg.graph.arcs, dg.witness)
            for dg in closure(gs).elements
        ]

    def test_closure_matches_reference(self):
        rng = random.Random(10)
        for _ in range(200):
            gs = random_graph_set(rng, max_funs=3, max_arity=8, max_graphs=4)
            self.assert_closure_matches_reference(gs)
            # equal copies under later names: the first index is the witness
            graphs = list(gs.graphs)
            for g in rng.choices(gs.graphs, k=rng.randint(1, 3)):
                copy = SizeChangeGraph(g.source, g.target, g.arcs)
                graphs.insert(rng.randint(0, len(graphs)), copy)
            self.assert_closure_matches_reference(GraphSet.of(graphs, sigs=gs.sigs))

    def test_spp_family_closure_matches_reference(self):
        self.assert_closure_matches_reference(spp_reduction_family(4))


class TestIdempotents:
    def test_g2_idempotent(self, ack_graphs):
        g2 = ack_graphs.graphs[1]
        assert compose(g2, g2) == g2

    def test_swap_not_idempotent(self, swap_graphs):
        (s,) = swap_graphs.graphs
        assert compose(s, s) != s

    def test_empty_graph_idempotent(self):
        g = SizeChangeGraph(sig(), sig(), ())
        assert compose(g, g) == g

    def test_mismatched_endpoints_not_idempotent(self):
        g = SizeChangeGraph(sig("f"), sig("g"), ())
        with pytest.raises(CompositionError):
            compose(g, g)

    def test_power_of_swap(self, swap_graphs):
        (s,) = swap_graphs.graphs
        stable, exponent = idempotent_power(s)
        assert exponent == 2
        assert stable.arcs == (
            Arc(0, ArcKind.NONSTRICT, 0),
            Arc(1, ArcKind.NONSTRICT, 1),
        )

    def test_power_of_idempotent(self, ack_graphs):
        g2 = ack_graphs.graphs[1]
        assert idempotent_power(g2) == (g2, 1)

    def test_power_of_strict_swap(self):
        f = sig()
        d = SizeChangeGraph(f, f, (Arc(0, ArcKind.STRICT, 1), Arc(1, ArcKind.STRICT, 0)))
        stable, exponent = idempotent_power(d)
        assert exponent == 2
        assert stable.arcs == (Arc(0, ArcKind.STRICT, 0), Arc(1, ArcKind.STRICT, 1))

    def test_power_needs_cyclic_graph(self):
        with pytest.raises(CompositionError):
            idempotent_power(SizeChangeGraph(sig("f"), sig("g"), ()))

    @given(cyclic_graph())
    def test_power_is_idempotent_within_bound(self, g):
        stable, exponent = idempotent_power(g)
        assert compose(stable, stable) == stable
        assert 1 <= exponent <= 3 ** (g.source.arity**2)

    @given(cyclic_graph(max_arity=2), st.integers(1, 8))
    def test_strict_absorption(self, g, k):
        power = g
        for _ in range(k - 1):
            power = compose(power, g)
        stable, _ = idempotent_power(g)
        for p in power.strict_self_params():
            assert p in stable.strict_self_params()


class TestClosure:
    def test_ackermann_closure_is_the_pair(self, ack_graphs):
        cl = closure(ack_graphs)
        assert len(cl) == 2
        assert {dg.graph for dg in cl.elements} == set(ack_graphs.graphs)

    def test_singleton_idempotent(self, ack_graphs):
        g2 = ack_graphs.graphs[1]
        cl = closure(GraphSet.of((g2,)))
        assert [dg.graph for dg in cl.elements] == [g2]

    def test_witnesses_recompose(self):
        rng = random.Random(3)
        for _ in range(50):
            gs = random_graph_set(rng)
            for dg in closure(gs).elements:
                assert reduce(compose, [gs.graphs[i] for i in dg.witness]) == dg.graph

    def test_witness_bound_is_longest_witness(self):
        rng = random.Random(6)
        for _ in range(100):
            cl = closure(random_graph_set(rng, max_funs=3, max_arity=3, max_graphs=4))
            assert cl.witness_bound == max(len(dg.witness) for dg in cl.elements)

    def test_empty_set_closes_to_nothing(self):
        gs = GraphSet.of(())
        cl = closure(gs)
        assert (len(cl), cl.witness_bound, cl.elements) == (0, 0, ())
        assert check_sct_criterion(gs) == check_sct_criterion(gs, cl) == Verdict(True)

    def test_complete_for_short_words(self):
        rng = random.Random(4)
        for _ in range(30):
            gs = random_graph_set(rng)
            elements = {dg.graph for dg in closure(gs).elements}
            words = [((i,), g) for i, g in enumerate(gs.graphs)]
            for _ in range(3):  # all composable words up to length 4
                words += [
                    (w + (j,), compose(g, gj))
                    for w, g in words
                    for j, gj in enumerate(gs.graphs)
                    if g.target == gj.source
                ]
            for _, value in words:
                assert value in elements


class TestCriterion:
    def test_ackermann_is_sct(self, ack_graphs):
        assert check_sct_criterion(ack_graphs).sct

    def test_swap_counterexample(self, swap_graphs):
        verdict = check_sct_criterion(swap_graphs)
        assert not verdict.sct
        failing = verdict.failing_idempotent.graph
        assert failing.arcs == (
            Arc(0, ArcKind.NONSTRICT, 0),
            Arc(1, ArcKind.NONSTRICT, 1),
        )
        assert verdict.lasso == LassoMultipath((), (0, 0))

    def test_lasso_coherence(self):
        rng = random.Random(5)
        for _ in range(100):
            gs = random_graph_set(rng)
            verdict = check_sct_criterion(gs)
            if verdict.sct:
                for dg in closure(gs).elements:
                    g = dg.graph
                    if g.source == g.target:
                        lasso = LassoMultipath((), dg.witness)
                        assert decide_periodic_descent(lasso, gs) is not None
            else:
                assert decide_periodic_descent(verdict.lasso, gs) is None

    @staticmethod
    def reference_failing(order) -> list[int]:
        """Indices into a reference closure of its idempotents without a strict self-arc."""
        return [
            k
            for k, (g, _) in enumerate(order)
            if g.source == g.target
            and reference_compose(g, g).arcs == g.arcs
            and not any(a.src == a.tgt and a.kind is ArcKind.STRICT for a in g.arcs)
        ]

    @classmethod
    def assert_verdict_matches_reference(cls, gs) -> bool:
        """Against a plain scan of the reference closure, on arcs; True if gs fails."""
        order = reference_closure(gs)
        plain = [order[k] for k in cls.reference_failing(order)]
        verdict = check_sct_criterion(gs)
        assert verdict.sct == (not plain)
        if plain:
            g, w = plain[0]
            assert verdict.failing_idempotent.graph.arcs == g.arcs
            assert verdict.failing_idempotent.witness == w
            assert verdict.lasso == LassoMultipath((), w)
        return bool(plain)

    def test_failing_element_is_first_failing_idempotent(self):
        rng = random.Random(11)
        failures = sum(
            self.assert_verdict_matches_reference(
                random_graph_set(rng, max_funs=3, max_arity=3, max_graphs=3)
            )
            for _ in range(200)
        )
        assert failures > 20

    def test_wide_sets_match_reference(self):
        """Closure and verdict past 64 bits per row, against the references on arcs."""
        rng = random.Random(13)
        failures = 0
        for _ in range(100):
            gs = random_wide_graph_set(rng)
            TestKernel.assert_closure_matches_reference(gs)
            failures += self.assert_verdict_matches_reference(gs)
        assert 10 < failures < 90

    def test_permutation_sets_match_reference(self):
        """Closure and verdict on three partial permutations of one arity-5 function."""
        rng = random.Random(21)
        failures = 0
        for strict_fixpoint in (False, True):
            for _ in range(4):
                gs = random_permutation_set(rng, strict_fixpoint=strict_fixpoint)
                TestKernel.assert_closure_matches_reference(gs)
                failures += self.assert_verdict_matches_reference(gs)
        assert failures == 4

    def test_failing_element_is_found_in_elements(self):
        """``cl.elements`` holds the verdict's element at the reference index,
        whether it is read before or after the criterion, and each element
        built alone (by its backward walk) equals the one built in the
        forward pass of ``elements``."""
        rng = random.Random(17)
        sets = [random_graph_set(rng, max_funs=3, max_arity=3, max_graphs=3) for _ in range(100)]
        sets += [random_permutation_set(rng) for _ in range(4)]
        failures = 0
        for gs in sets:
            cl = closure(gs)
            alone = [cl.element(k) for k in range(-len(cl), len(cl))]
            assert alone == list(cl.elements) * 2
            failing = self.reference_failing(reference_closure(gs))
            if not failing:
                continue
            failures += 1
            for read_first in (True, False):
                cl = closure(gs)
                if read_first:
                    elements = cl.elements
                verdict = check_sct_criterion(gs, cl)
                assert cl.elements.index(verdict.failing_idempotent) == failing[0]
                if read_first:
                    assert cl.elements is elements
        assert failures > 20

    def test_failing_idempotent_recheck_raises(self, swap_graphs, monkeypatch):
        # an explicit check, so it survives python -O, unlike a bare assert
        witness = DescentWitness(params=(0,), start=0, block_len=1)
        monkeypatch.setattr(sct.graphs, "decide_periodic_descent", lambda lasso, gs: witness)
        with pytest.raises(AssertionError, match="has a descent"):
            check_sct_criterion(swap_graphs)


class TestPeriodicDescent:
    def test_g2_period(self, ack_graphs):
        witness = decide_periodic_descent(LassoMultipath((), (1,)), ack_graphs)
        assert (witness.params, witness.start, witness.block_len) == ((1,), 0, 1)

    def test_swap_period_has_no_descent(self, swap_graphs):
        assert decide_periodic_descent(LassoMultipath((), (0, 0)), swap_graphs) is None

    def test_prefixed_lasso(self, ack_graphs):
        witness = decide_periodic_descent(LassoMultipath((1,), (0,)), ack_graphs)
        assert (witness.params[0], witness.start) == (0, 1)

    def test_malformed_lasso(self):
        f, g = sig("f"), sig("g")
        gs = GraphSet.of((SizeChangeGraph(f, g, ()),))
        with pytest.raises(CompositionError):
            decide_periodic_descent(LassoMultipath((), (0,)), gs)

    def test_rotation_invariance(self):
        rng = random.Random(6)
        checked = 0
        while checked < 60:
            gs = random_graph_set(rng)
            word = random_cyclic_word(rng, gs)
            if word is None:
                continue
            checked += 1
            base = decide_periodic_descent(LassoMultipath((), word), gs)
            for r in range(1, len(word)):
                rotated = word[r:] + word[:r]
                if gs.graphs[rotated[0]].source != gs.graphs[rotated[-1]].target:
                    continue
                other = decide_periodic_descent(LassoMultipath((), rotated), gs)
                assert (base is None) == (other is None)

