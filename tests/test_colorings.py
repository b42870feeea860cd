from functools import reduce

import pytest

from sct import (
    CompositionError,
    FunSig,
    GraphSet,
    LassoMultipath,
    SizeChangeGraph,
    compose,
)
from sct.colorings import (
    EPColoring,
    PairColoring,
    pair_coloring_from_lasso,
    spp_witness,
    star_search,
)


class TestEPColoring:
    def test_indexing(self):
        c = EPColoring(3, (0, 0, 1), (2, 1))
        assert [c.at(x) for x in range(8)] == [0, 0, 1, 2, 1, 2, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            EPColoring(2, (), ())
        with pytest.raises(ValueError):
            EPColoring(2, (2,), (0,))

    def test_witness_ignores_prefix(self):
        assert spp_witness(EPColoring(3, (0, 0, 1), (2,))) == {2}

    def test_witness_full_period(self):
        assert spp_witness(EPColoring(2, (), (0, 1))) == {0, 1}

    def test_witness_constant_period(self):
        assert spp_witness(EPColoring(2, (), (1, 1, 1))) == {1}


class TestStarSearch:
    def test_parity_coloring(self):
        c = PairColoring.from_function(2, 20, lambda i, j: (j - i) % 2)
        witness = star_search(c, 5)
        assert witness.center == 0 and witness.color == 0
        assert len(witness.pairs) >= 5
        assert all(m % 2 == 0 and l % 2 == 0 for m, l in witness.pairs)

    def test_constant_coloring(self):
        c = PairColoring.from_function(1, 6, lambda i, j: 0)
        witness = star_search(c, 3)
        assert (witness.center, witness.color) == (0, 0)

    def test_too_small_domain(self):
        c = PairColoring.from_function(1, 3, lambda i, j: 0)
        assert star_search(c, 5) is None


class TestPairColoring:
    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_a_point(self, ack_graphs, n):
        message = f"^need at least one point, got n = {n}$"
        with pytest.raises(ValueError, match=message):
            PairColoring.from_function(2, n, lambda i, j: 0)
        with pytest.raises(ValueError, match=message):
            pair_coloring_from_lasso(LassoMultipath((), (1,)), ack_graphs, n)


class TestInducedColoring:
    @pytest.mark.parametrize(
        "lasso",
        [LassoMultipath((), (1,)), LassoMultipath((), (0, 1)), LassoMultipath((0, 0), (1, 0))],
        ids=["period-1", "period-01", "with-prefix"],
    )
    def test_pairs_compose_their_segment(self, ack_graphs, lasso):
        coloring, palette = pair_coloring_from_lasso(lasso, ack_graphs, 8)
        for i in range(8):
            for j in range(i + 1, 8):
                segment = [ack_graphs.graphs[lasso.graph_index_at(t)] for t in range(i, j)]
                assert palette[coloring.at(i, j)] == reduce(compose, segment)

    def test_single_step(self, ack_graphs):
        coloring, palette = pair_coloring_from_lasso(LassoMultipath((), (1,)), ack_graphs, 2)
        assert palette[coloring.at(0, 1)] == ack_graphs.graphs[1]

    def test_idempotent_segment(self, ack_graphs):
        coloring, palette = pair_coloring_from_lasso(LassoMultipath((), (1,)), ack_graphs, 3)
        assert palette[coloring.at(0, 2)] == ack_graphs.graphs[1]

    def test_mixed_segment(self, ack_graphs):
        coloring, palette = pair_coloring_from_lasso(LassoMultipath((), (0, 1)), ack_graphs, 3)
        assert palette[coloring.at(0, 2)] == ack_graphs.graphs[0]

    def test_not_composable(self):
        f, g = FunSig("f", ("x",)), FunSig("g", ("y",))
        gs = GraphSet.of((SizeChangeGraph(f, g, ()),))
        for lasso in (LassoMultipath((), (0,)), LassoMultipath((), (1,))):
            with pytest.raises(CompositionError):
                pair_coloring_from_lasso(lasso, gs, 2)


class TestInducedStar:
    @pytest.mark.parametrize("period", [(1,), (0, 1), (1, 0, 1)])
    def test_ackermann_multipaths_anchor_descent_triangles(self, ack_graphs, period):
        lasso = LassoMultipath((), period)
        coloring, palette = pair_coloring_from_lasso(lasso, ack_graphs, 12)
        witness = star_search(coloring, 3)
        assert witness is not None
        graph = palette[witness.color]
        assert compose(graph, graph) == graph
        assert graph.strict_self_params()
