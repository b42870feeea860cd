import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_functional_graph_set, reference_lex
from sct import (
    Arc,
    ArcKind,
    FunSig,
    GraphSet,
    SizeChangeGraph,
    SynthesisError,
    check_sct_criterion,
    graph_multiset,
    parse_program,
    synthesize,
)
from sct.cli import main
from sct.extract import Mode, extract_description
from sct.jsonio import dumps, graph_set_to_json
from sct.parser import ParseError, is_function_name
from sct.reduction import warmup_family
from sct.syntax import PRIM_OPS, format_program


class TestSchema:
    def test_ackermann_graphs_produce_the_dispatch(self, ack_graphs):
        program = synthesize(ack_graphs)
        expected = parse_program(
            "A(x0, x1) = if x0=0 then A(x0-1, x1+1) else A(x0, x1-1)"
        )
        assert program == expected

    def test_empty_graph_pumps_every_argument(self):
        sig = FunSig("f", ("x",))
        gs = GraphSet.of((SizeChangeGraph(sig, sig, ()),))
        assert format_program(synthesize(gs)) == "f(x0) = f(x0+1)\n"

    def test_function_without_outgoing_graphs(self):
        f, g = FunSig("f", ("x",)), FunSig("g", ("y",))
        gs = GraphSet.of(
            (SizeChangeGraph.from_names(f, g, [("x", "strict", "y")]),), sigs=(f, g)
        )
        assert format_program(synthesize(gs)) == "f(x0) = g(x0-1)\ng(x0) = x0\n"

    def test_warmup_family_dispatch(self):
        gs = warmup_family()
        program = synthesize(gs)
        text = format_program(program)
        assert text.count("if") == 2  # three branches
        assert "z0=0" not in text  # parameters are renamed to x0..
        description = extract_description(program, Mode.SYNTACTIC)
        assert graph_multiset(description.sites) == graph_multiset(gs.graphs)

    def test_padding_to_common_arity(self):
        f, g = FunSig("f", ("a",)), FunSig("g", ("u", "v", "w"))
        gs = GraphSet.of(
            (SizeChangeGraph.from_names(f, g, [("a", "nonstrict", "v")]),), sigs=(f, g)
        )
        program = synthesize(gs)
        assert format_program(program).splitlines()[0] == "f(x0, x1, x2) = g(x0+1, x0, x2+1)"

    def test_rejects_two_sources_into_one_target(self):
        f = FunSig("f", ("x", "y"))
        g = SizeChangeGraph(
            f, f, (Arc(0, ArcKind.STRICT, 0), Arc(1, ArcKind.NONSTRICT, 0))
        )
        with pytest.raises(SynthesisError):
            synthesize(GraphSet.of((g,)))


def strict_loop(name: str) -> GraphSet:
    """One function named name with one strict self-loop on its first parameter."""
    sig = FunSig(name, ("x", "y"))
    return GraphSet.of((SizeChangeGraph(sig, sig, (Arc(0, ArcKind.STRICT, 0),)),))


class TestNames:
    @pytest.mark.parametrize(
        "name", ["plus", "if", "f g", ""], ids=["primitive", "keyword", "two-words", "empty"]
    )
    def test_unreadable_name_exits_2(self, tmp_path, capsys, name):
        # `plus` once came out as `plus(x0, x1) = plus(x0-1, x1+1)`, whose
        # call parses as the primitive, so the graph was lost
        path = tmp_path / "graphs.json"
        path.write_text(dumps(graph_set_to_json(strict_loop(name))), encoding="utf-8")
        assert main(["synth", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: function name {name!r} does not read back as a callable function\n"
        )

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.sampled_from(["f", "_", "iff", "plus1", "then_", "x0", "é", "x²", "½", "max", "else"])
        | st.text(alphabet="aif_0²½é #(", max_size=4)
    )
    def test_every_accepted_name_round_trips(self, name):
        try:
            tokens = reference_lex(name)
        except ParseError:
            tokens = []
        one_identifier = tokens[:1] == [("ident", name, 1, 1)] and len(tokens) == 2
        assert is_function_name(name) == (one_identifier and name not in PRIM_OPS)
        gs = strict_loop(name)
        if not is_function_name(name):
            with pytest.raises(SynthesisError):
                synthesize(gs)
            return
        program = parse_program(format_program(synthesize(gs)))
        description = extract_description(program, Mode.SYNTACTIC)
        assert graph_multiset(description.sites) == graph_multiset(gs.graphs)


class TestRoundTrip:
    def test_multiset_identity(self):
        rng = random.Random(31)
        for _ in range(60):
            gs = random_functional_graph_set(rng)
            description = extract_description(synthesize(gs), Mode.SYNTACTIC)
            assert graph_multiset(description.sites) == graph_multiset(gs.graphs)

    def test_criterion_transport(self):
        rng = random.Random(32)
        for _ in range(60):
            gs = random_functional_graph_set(rng)
            description = extract_description(synthesize(gs), Mode.SYNTACTIC)
            assert (
                check_sct_criterion(gs).sct
                == check_sct_criterion(description.to_graph_set()).sct
            )

    def test_emitted_programs_reparse(self):
        rng = random.Random(33)
        for _ in range(40):
            program = synthesize(random_functional_graph_set(rng))
            assert parse_program(format_program(program)) == program

    def test_long_chain_needs_no_recursion(self, tmp_path):
        # one function with 1,100 outgoing graphs: an else-if chain longer than
        # the default recursion limit, handled here under a limit of 400
        f = FunSig("f", ("x", "y"))
        shapes = [(Arc(0, ArcKind.STRICT, 0),), (Arc(0, ArcKind.NONSTRICT, 1),), ()]
        gs = GraphSet.of(SizeChangeGraph(f, f, shapes[i % 3]) for i in range(1100))
        path = tmp_path / "chain.json"
        path.write_text(dumps(graph_set_to_json(gs)), encoding="utf-8")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(400)
        try:
            text = format_program(synthesize(gs))
            program = parse_program(text)
            description = extract_description(program, Mode.SYNTACTIC)
            guarded = extract_description(program, Mode.GUARDED)
            code = main(["synth", str(path), "-o", str(tmp_path / "chain.sct")])
        finally:
            sys.setrecursionlimit(limit)
        assert text.count("else") == 1099
        assert graph_multiset(description.sites) == graph_multiset(gs.graphs)
        # only site 0, the x0=0 branch, leaves x0 unforced, so its x0-1 is non-strict
        first = description.sites[0]
        assert first.arcs == (Arc(0, ArcKind.STRICT, 0),)
        assert guarded.sites[0] == SizeChangeGraph(
            first.source, first.target, (Arc(0, ArcKind.NONSTRICT, 0),)
        )
        assert guarded.sites[1:] == description.sites[1:]
        assert code == 0
        assert (tmp_path / "chain.sct").read_text(encoding="utf-8") == text
