import random

import pytest
from hypothesis import given, settings

from helpers import (
    program_text,
    random_functional_graph_set,
    reference_description,
)
from sct import (
    Arc,
    ArcKind,
    SourceError,
    parse_program,
    sample_safety,
    synthesize,
)
from sct.extract import Mode, extract_description
from sct.syntax import Call, Const, PrimOp, Succ, Var, format_expr


def arcs_of(text: str, mode: Mode) -> tuple[Arc, ...]:
    """The arcs of the first call site of text."""
    return extract_description(parse_program(text), mode)[0].arcs


class TestArcForArgument:
    def test_guarded_decrement(self):
        # x=0 failed, so x > 0 and x-1 decreases strictly
        arcs = arcs_of("f(x, y) = if x=0 then 0 else f(x-1, y)", Mode.GUARDED)
        assert arcs == (Arc(0, ArcKind.STRICT, 0), Arc(1, ArcKind.NONSTRICT, 1))

    def test_unguarded_decrement_weakens(self):
        arcs = arcs_of("f(x, y) = if y=0 then 0 else f(y, x-1)", Mode.GUARDED)
        assert arcs == (Arc(0, ArcKind.NONSTRICT, 1), Arc(1, ArcKind.NONSTRICT, 0))

    def test_syntactic_decrement_is_strict(self):
        arcs = arcs_of("f(x, y) = f(y, x-1)", Mode.SYNTACTIC)
        assert arcs == (Arc(0, ArcKind.STRICT, 1), Arc(1, ArcKind.NONSTRICT, 0))

    def test_plain_variable(self):
        arcs = arcs_of("f(x, y) = f(y, x+1)", Mode.GUARDED)
        assert arcs == (Arc(1, ArcKind.NONSTRICT, 0),)

    @pytest.mark.parametrize(
        "expr",
        [
            Succ("x"),
            Const(1),
            PrimOp("plus", (Var("x"), Var("y"))),
            Call("f", (Var("x"), Var("y"))),
        ],
    )
    def test_unknown_or_increasing(self, expr):
        text = f"f(x, y) = f({format_expr(expr)}, y)"
        for mode in Mode:
            assert arcs_of(text, mode) == (Arc(1, ArcKind.NONSTRICT, 1),)


class TestExtractGraph:
    def test_ackermann_golden(self, ackermann, ack_graphs, ack_description):
        g01, g2 = ack_graphs.graphs
        assert ack_description.sites == (g01, g01, g2)

    def test_increasing_argument_yields_empty_graph(self):
        assert arcs_of("f(x) = g(x+1)\ng(x) = x", Mode.GUARDED) == ()

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
            assert not report.violations, f"violations in {description}"


def assert_matches_guard_paths(program):
    for mode in Mode:
        assert extract_description(program, mode).sites == reference_description(program, mode)


class TestAgainstGuardPaths:
    """Both modes against a scan of each site's whole guard path."""

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
