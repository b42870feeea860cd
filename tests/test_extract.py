import random

import pytest

from helpers import random_functional_graph_set
from sct import (
    Arc,
    ArcKind,
    FunSig,
    GuardContext,
    parse_program,
    sample_safety,
    synthesize,
)
from sct.extract import Mode, arc_for_argument, extract_description, extract_graph
from sct.parser import enumerate_call_sites
from sct.syntax import Call, Const, EqConst, Pred, PrimOp, Succ, Var


@pytest.fixture
def caller():
    return FunSig("f", ("x", "y"))


def guard(*facts):
    return GuardContext(frozenset(facts))


class TestArcForArgument:
    def test_guarded_decrement(self, caller):
        ctx = guard((EqConst("x", 0), False))
        arc = arc_for_argument(Pred("x"), 0, caller, ctx, Mode.GUARDED)
        assert arc == Arc(0, ArcKind.STRICT, 0)

    def test_unguarded_decrement_weakens(self, caller):
        arc = arc_for_argument(Pred("x"), 1, caller, guard(), Mode.GUARDED)
        assert arc == Arc(0, ArcKind.NONSTRICT, 1)

    def test_syntactic_decrement_is_strict(self, caller):
        arc = arc_for_argument(Pred("x"), 1, caller, guard(), Mode.SYNTACTIC)
        assert arc == Arc(0, ArcKind.STRICT, 1)

    def test_plain_variable(self, caller):
        arc = arc_for_argument(Var("y"), 0, caller, guard(), Mode.GUARDED)
        assert arc == Arc(1, ArcKind.NONSTRICT, 0)

    @pytest.mark.parametrize(
        "expr",
        [
            Succ("x"),
            Const(1),
            PrimOp("plus", (Var("x"), Var("y"))),
            Call("f", (Var("x"), Var("y"))),
        ],
    )
    def test_unknown_or_increasing(self, caller, expr):
        assert arc_for_argument(expr, 0, caller, guard(), Mode.GUARDED) is None
        assert arc_for_argument(expr, 0, caller, guard(), Mode.SYNTACTIC) is None


class TestExtractGraph:
    def test_ackermann_golden(self, ackermann, ack_graphs, ack_description):
        g01, g2 = ack_graphs.graphs
        assert ack_description.sites == (g01, g01, g2)

    def test_increasing_argument_yields_empty_graph(self):
        p = parse_program("f(x) = g(x+1)\ng(x) = x")
        (site,) = enumerate_call_sites(p)
        assert extract_graph(site, Mode.GUARDED).arcs == ()

    def test_call_free_program(self):
        p = parse_program("f(x) = x")
        assert extract_description(p, Mode.GUARDED).sites == ()


class TestModes:
    def test_arc_presence_agrees_and_kinds_only_weaken(self):
        rng = random.Random(21)
        for _ in range(40):
            program = synthesize(random_functional_graph_set(rng))
            guarded = extract_description(program, Mode.GUARDED)
            syntactic = extract_description(program, Mode.SYNTACTIC)
            for gg, sg in zip(guarded.sites, syntactic.sites):
                assert {(a.src, a.tgt) for a in gg.arcs} == {
                    (a.src, a.tgt) for a in sg.arcs
                }
                kinds = {(a.src, a.tgt): a.kind for a in sg.arcs}
                for ga in gg.arcs:
                    if ga.kind is ArcKind.STRICT:
                        assert kinds[ga.src, ga.tgt] is ArcKind.STRICT

    def test_guarded_extraction_is_empirically_safe(self):
        rng = random.Random(22)
        for _ in range(15):
            program = synthesize(random_functional_graph_set(rng))
            description = extract_description(program, Mode.GUARDED)
            report = sample_safety(
                program, description, trials=30, value_bound=3, fuel=40, seed=1
            )
            assert report.ok, f"violations in {description}"
