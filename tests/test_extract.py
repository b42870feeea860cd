import random

import pytest
from hypothesis import given, settings

from helpers import (
    program_text,
    random_functional_graph_set,
    reference_description,
    reference_positive,
)
from sct import (
    Arc,
    ArcKind,
    FunSig,
    SourceError,
    parse_program,
    sample_safety,
    synthesize,
)
from sct.extract import Mode, arc_for_argument, extract_description, extract_graph
from sct.parser import enumerate_call_sites
from sct.syntax import Call, Const, Pred, PrimOp, Succ, Var


@pytest.fixture
def caller():
    return FunSig("f", ("x", "y"))


class TestArcForArgument:
    def test_guarded_decrement(self, caller):
        arc = arc_for_argument(Pred("x"), 0, caller, frozenset({"x"}), Mode.GUARDED)
        assert arc == Arc(0, ArcKind.STRICT, 0)

    def test_unguarded_decrement_weakens(self, caller):
        arc = arc_for_argument(Pred("x"), 1, caller, frozenset({"y"}), Mode.GUARDED)
        assert arc == Arc(0, ArcKind.NONSTRICT, 1)

    def test_syntactic_decrement_is_strict(self, caller):
        arc = arc_for_argument(Pred("x"), 1, caller, frozenset(), Mode.SYNTACTIC)
        assert arc == Arc(0, ArcKind.STRICT, 1)

    def test_plain_variable(self, caller):
        arc = arc_for_argument(Var("y"), 0, caller, frozenset(), Mode.GUARDED)
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
        assert arc_for_argument(expr, 0, caller, frozenset(), Mode.GUARDED) is None
        assert arc_for_argument(expr, 0, caller, frozenset(), Mode.SYNTACTIC) is None


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


def assert_matches_guard_paths(program):
    sites = enumerate_call_sites(program)
    assert [s.positive for s in sites] == reference_positive(program)
    for mode in Mode:
        assert extract_description(program, mode).sites == reference_description(program, mode)


class TestAgainstGuardPaths:
    """Positive sets and both modes against a scan of each site's whole guard path."""

    def test_synthesized_programs(self):
        rng = random.Random(23)
        for _ in range(40):
            assert_matches_guard_paths(synthesize(random_functional_graph_set(rng)))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(program_text())
    def test_program_text(self, text):
        try:
            program = parse_program(text)
        except SourceError:
            return
        assert_matches_guard_paths(program)
