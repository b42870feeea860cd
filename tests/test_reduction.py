import itertools
import random

import pytest

from helpers import (
    ChoiceState,
    active_sets,
    chi_step,
    graph_for,
    initial_chi,
    reference_graph_for,
    reference_reversal_multipath,
    reference_spp_family,
)
from sct import (
    check_sct_criterion,
    closure,
    decide_periodic_descent,
)
from sct.colorings import EPColoring, spp_witness
from sct.graphs import Arc, ArcKind, GraphSet, SizeChangeGraph
from sct.reduction import (
    build_reversal_multipath,
    family_signature,
    index_sets,
    spp_reduction_family,
    warmup_family,
)


def all_colorings(k, max_prefix=3, max_period=4):
    for plen in range(max_prefix + 1):
        for prefix in itertools.product(range(k), repeat=plen):
            for qlen in range(1, max_period + 1):
                for period in itertools.product(range(k), repeat=qlen):
                    yield EPColoring(k, prefix, period)


def random_coloring(rng, k, max_prefix=3, max_period=4):
    prefix = tuple(rng.randrange(k) for _ in range(rng.randint(0, max_prefix)))
    period = tuple(rng.randrange(k) for _ in range(rng.randint(1, max_period)))
    return EPColoring(k, prefix, period)


class TestIndexSets:
    def test_order_by_size_then_lex(self):
        assert list(index_sets(3)) == [
            (0,),
            (1,),
            (2,),
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 1, 2),
        ]

    def test_family_signature_names(self):
        assert family_signature(2).params == ("z0", "z1", "z01")

    @pytest.mark.parametrize("k", [0, 13, 40])
    def test_color_bound(self, k):
        message = f"^index sets are built for 1 <= k <= 12 colors, got k = {k}$"
        with pytest.raises(ValueError, match=message):
            index_sets(k)

    def test_names_distinct_up_to_the_bound(self):
        assert len(set(family_signature(12).params)) == 2**12 - 1

    def test_sets_are_nonempty_and_ascending(self):
        for k in range(1, 13):
            sets = index_sets(k)
            assert len(set(sets)) == len(sets) == 2**k - 1
            assert all(s and s == tuple(sorted(set(s))) and 0 <= s[0] <= s[-1] < k for s in sets)


class TestChi:
    def test_stays_put_without_successor_match(self):
        state = ChoiceState(2, (0, 1, 0))
        assert chi_step(state, 0).choices == (0, 1, 0)

    def test_advances_on_successor(self):
        state = ChoiceState(2, (0, 1, 0))
        assert chi_step(state, 1).choices == (0, 1, 1)

    def test_wraps_around(self):
        state = ChoiceState(2, (0, 1, 1))
        assert chi_step(state, 0).choices == (0, 1, 0)

    @pytest.mark.parametrize(
        "choices, message",
        [((0, 1), "^need one choice per index set$"), ((0, 1, 2), r"^choice 2 is not in \(0, 1\)$")],
    )
    def test_choice_state_checks(self, choices, message):
        with pytest.raises(ValueError, match=message):
            ChoiceState(2, choices)

    @pytest.mark.parametrize("color", [-1, 2])
    def test_color_out_of_range(self, color):
        with pytest.raises(ValueError, match=f"^color {color} out of range$"):
            chi_step(initial_chi(2), color)

    def test_initial_state_picks_least_elements(self):
        assert initial_chi(3).choices == (0, 1, 2, 0, 0, 1, 0)

    def test_choices_stay_inside_their_sets(self):
        rng = random.Random(51)
        for k in (1, 2, 3):
            state = initial_chi(k)
            for _ in range(200):
                state = chi_step(state, rng.randrange(k))
                for s, c in zip(index_sets(k), state.choices):
                    assert c in s


class TestGraphFor:
    def test_pair_set_at_cycle_end(self):
        sig = family_signature(2)
        g = graph_for(ChoiceState(2, (0, 1, 1)), 0)
        assert g == SizeChangeGraph(sig, sig, (Arc(2, ArcKind.STRICT, 2),))

    def test_singleton_active_only(self):
        g = graph_for(ChoiceState(2, (0, 1, 0)), 1)
        assert g.arcs == (
            Arc(0, ArcKind.NONSTRICT, 0),
            Arc(1, ArcKind.STRICT, 1),
            Arc(2, ArcKind.NONSTRICT, 2),
        )

    def test_single_color(self):
        g = graph_for(initial_chi(1), 0)
        assert g.arcs == (Arc(0, ArcKind.STRICT, 0),)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_reference_on_reached_states(self, k):
        """Every color at every state reached along seeded random colorings."""
        rng = random.Random(53 + k)
        for _ in range(20):
            coloring = random_coloring(rng, k, max_prefix=4, max_period=6)
            state = initial_chi(k)
            for x in range(40):
                for color in range(k):
                    g = graph_for(state, color)
                    expected = reference_graph_for(state, color)
                    assert g == expected and g.arcs == expected.arcs
                state = chi_step(state, coloring.at(x))


class TestFamily:
    def test_single_color_family(self):
        fam = spp_reduction_family(1)
        assert len(fam.graphs) == 1
        assert fam.graphs[0].arcs == (Arc(0, ArcKind.STRICT, 0),)

    def test_two_color_family_graphs(self):
        fam = spp_reduction_family(2)
        arcsets = {g.arcs for g in fam.graphs}
        assert arcsets == {
            (
                Arc(0, ArcKind.STRICT, 0),
                Arc(1, ArcKind.NONSTRICT, 1),
                Arc(2, ArcKind.NONSTRICT, 2),
            ),
            (
                Arc(0, ArcKind.NONSTRICT, 0),
                Arc(1, ArcKind.STRICT, 1),
                Arc(2, ArcKind.NONSTRICT, 2),
            ),
            (Arc(2, ArcKind.STRICT, 2),),
        }

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_closure_element_descends(self, k):
        cl = closure(spp_reduction_family(k))
        assert all(dg.graph.strict_self_params() for dg in cl.elements)
        assert check_sct_criterion(spp_reduction_family(k), cl).sct

    def test_materialization_cap(self):
        for k in (0, 7):
            with pytest.raises(ValueError, match="1 <= k <= 6"):
                spp_reduction_family(k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_product_enumeration(self, k):
        """Every (choice state, color) pair, deduplicated in first-appearance order."""
        graphs = []
        for choices in itertools.product(*index_sets(k)):
            for color in range(k):
                g = reference_graph_for(ChoiceState(k, choices), color)
                if g not in graphs:
                    graphs.append(g)
        assert spp_reduction_family(k) == GraphSet.of(graphs)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_reference_family(self, k):
        """Signatures, graphs, order and names, against the least-state construction."""
        fam, expected = spp_reduction_family(k), reference_spp_family(k)
        assert fam == expected
        assert [g.arcs for g in fam.graphs] == [g.arcs for g in expected.graphs]

    @pytest.mark.parametrize("k, count", [(4, 24), (5, 119), (6, 2229)])
    def test_family_size(self, k, count):
        fam = spp_reduction_family(k)
        assert len(fam) == count
        assert fam.sigs == (family_signature(k),)

    def test_warmup_family_descends_everywhere(self):
        fam = warmup_family()
        cl = closure(fam)
        assert all(dg.graph.strict_self_params() for dg in cl.elements)
        assert check_sct_criterion(fam, cl).sct


def assert_descent_at_witness_set(coloring):
    run = build_reversal_multipath(coloring)
    witness = decide_periodic_descent(run.lasso, run.graphs)
    assert witness is not None
    target = index_sets(coloring.k).index(tuple(sorted(spp_witness(coloring))))
    assert target in witness.params
    return witness.params


def recurring_and_active(coloring):
    """Two views of "this subset matters forever", per index set, from one run.

    First: every color of the subset recurs in the coloring.  Second: the
    subset is active at some step of the detected cycle, found by replaying
    the reference choice machine along the run's prefix and period.  The
    two agree.
    """
    run = reference_reversal_multipath(coloring)
    cut = len(run.lasso.prefix)
    state, period_active = initial_chi(coloring.k), set()
    for x in range(cut + len(run.lasso.period)):
        if x >= cut:
            period_active |= active_sets(state, coloring.at(x))
        state = chi_step(state, coloring.at(x))
    recurring = spp_witness(coloring)
    return {
        s: (set(s) <= recurring, s in period_active) for s in index_sets(coloring.k)
    }


class TestReversal:
    def test_alternating_pair(self):
        run = build_reversal_multipath(EPColoring(2, (), (0, 1)))
        witness = decide_periodic_descent(run.lasso, run.graphs)
        assert index_sets(2)[witness.params[0]] == (0, 1)

    def test_single_recurring_color(self):
        run = build_reversal_multipath(EPColoring(2, (), (0,)))
        witness = decide_periodic_descent(run.lasso, run.graphs)
        assert index_sets(2)[witness.params[0]] == (0,)

    def test_one_color(self):
        run = build_reversal_multipath(EPColoring(1, (), (0,)))
        witness = decide_periodic_descent(run.lasso, run.graphs)
        assert index_sets(1)[witness.params[0]] == (0,)

    def test_descent_lands_on_the_recurring_set_exhaustively(self):
        extras = 0
        for k in (1, 2):
            for coloring in all_colorings(k):
                params = assert_descent_at_witness_set(coloring)
                extras += len(params) - 1
        # additional descent parameters are reported, not asserted against
        assert extras >= 0

    def test_descent_lands_on_the_recurring_set_sampled_k3(self):
        rng = random.Random(52)
        for _ in range(25):
            assert_descent_at_witness_set(random_coloring(rng, 3))

    def test_recurring_vs_active_agree_exhaustively(self):
        for k in (1, 2):
            for coloring in all_colorings(k):
                for recurs, active in recurring_and_active(coloring).values():
                    assert recurs == active

    def test_recurring_vs_active_agree_exhaustively_k3(self):
        for coloring in all_colorings(3):
            for recurs, active in recurring_and_active(coloring).values():
                assert recurs == active

    def test_recurring_vs_active_examples(self):
        both = recurring_and_active(EPColoring(2, (), (0, 1)))
        assert both[(0, 1)] == (True, True)
        assert recurring_and_active(EPColoring(2, (), (1,)))[(0,)] == (False, False)
        assert recurring_and_active(EPColoring(1, (), (0,)))[(0,)] == (True, True)

    @staticmethod
    def assert_matches_reference(coloring):
        run, expected = build_reversal_multipath(coloring), reference_reversal_multipath(coloring)
        assert run.lasso == expected.lasso
        assert run.graphs == expected.graphs
        assert [g.rows for g in run.graphs.graphs] == [g.rows for g in expected.graphs.graphs]

    def test_matches_reference_on_the_sweep(self):
        """Every coloring with k <= 3, prefix length <= 2 and period length <= 3."""
        count = 0
        for k in (1, 2, 3):
            for coloring in all_colorings(k, max_prefix=2, max_period=3):
                self.assert_matches_reference(coloring)
                count += 1
        assert count == 614

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_matches_reference_on_seeded_colorings(self, k):
        rng = random.Random(5400 + k)
        for _ in range(20):
            self.assert_matches_reference(random_coloring(rng, k, max_prefix=4, max_period=2 * k))
