import random

import pytest

from helpers import random_functional_graph_set
from sct import (
    FunSig,
    ParseError,
    ValidationError,
    enumerate_call_sites,
    parse_program,
    synthesize,
)
from sct.parser import MAX_NESTING
from sct.syntax import (
    And,
    Call,
    Const,
    EqConst,
    FunDef,
    Not,
    Or,
    Pred,
    Program,
    Var,
    format_program,
)

CORPUS = [
    "f(x, y) = if x<y && !(x=0) then f(x-1, y) else plus(x, y)",
    "g(a) = if a=5 || a=1 then g(a-1) else max(a, 1)",
    "h(u, v) = if u<=v then h(u+1, v-1) else times(u, min(u, v))\nk(w) = h(w, 3)",
    "loop(n) = loop(n+1)",
    "f(x) = if (x=0 || x=1) && !(x=2) then 7 else f(x-1)",
]


class TestParse:
    def test_ackermann_shape(self, ackermann):
        assert len(ackermann.defs) == 1
        sites = enumerate_call_sites(ackermann)
        assert [s.id for s in sites] == [0, 1, 2]
        assert sites[0].args == (Pred("x"), Const(1))
        outer = sites[1]
        assert outer.args[0] == Pred("x")
        assert outer.args[1] == Call("A", (Var("x"), Pred("y")), 2)
        assert sites[2].args == (Var("x"), Pred("y"))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_program("")

    def test_comment_only_input(self):
        with pytest.raises(ParseError):
            parse_program("# nothing here\n")

    def test_undefined_function(self):
        with pytest.raises(ValidationError) as exc:
            parse_program("f(x) = g(x, x)")
        (diag,) = exc.value.diagnostics
        assert "undefined" in diag.message and diag.line == 1

    def test_arity_mismatch(self):
        with pytest.raises(ValidationError, match="expects 1 argument"):
            parse_program("f(x) = f(x, x)")

    def test_call_diagnostics_in_source_order(self):
        with pytest.raises(ValidationError) as exc:
            parse_program("f(x) = g(h(x), f(x, x))")
        assert [(d.col, d.message) for d in exc.value.diagnostics] == [
            (8, "call to undefined function 'g'"),
            (10, "call to undefined function 'h'"),
            (16, "f expects 1 argument(s), got 2"),
        ]

    def test_duplicate_function(self):
        with pytest.raises(ValidationError, match="duplicate function"):
            parse_program("f(x) = x\nf(y) = y")

    def test_duplicate_parameter(self):
        with pytest.raises(ValidationError, match="repeated parameters"):
            parse_program("f(x, x) = x")

    def test_unknown_parameter(self):
        with pytest.raises(ValidationError, match="unknown parameter"):
            parse_program("f(x) = y")

    def test_primop_arity(self):
        with pytest.raises(ValidationError, match="plus expects 2"):
            parse_program("f(x) = plus(x)")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("f(x) = if x=0 then x")
        assert exc.value.line == 1

    def test_only_ascii_digits_are_numbers(self):
        # '²' passes str.isdigit, but int() rejects it
        with pytest.raises(ParseError, match="unexpected character '²'") as exc:
            parse_program("f(x) = if x=² then 0 else x")
        assert (exc.value.line, exc.value.col) == (1, 13)

    @pytest.mark.parametrize(
        "text, col",
        [
            # the call's '(' past the last plus, the last '!', the last '||'
            ("f(x) = " + "plus(x, " * MAX_NESTING + "f(x)" + ")" * MAX_NESTING, 9 + 8 * MAX_NESTING),
            ("f(x) = if " + "!" * (MAX_NESTING + 1) + "x=0 then 0 else 1", 11 + MAX_NESTING),
            ("f(x) = if x=0" + " || x=0" * (MAX_NESTING + 1) + " then 0 else 1",
             15 + 7 * MAX_NESTING),
        ],
        ids=["arguments", "not", "or"],
    )
    def test_nesting_limit_position(self, text, col):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels") as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.col) == (1, col)

    def test_suffix_literal_must_be_one(self):
        with pytest.raises(ParseError, match="[+]1"):
            parse_program("f(x) = x+2")

    def test_connective_forms(self):
        p = parse_program(CORPUS[4])
        cond = p.defs[0].body.cond
        assert cond == And(Or(EqConst("x", 0), EqConst("x", 1)), Not(EqConst("x", 2)))

    def test_semicolon_and_juxtaposition(self):
        a = parse_program("f(x) = x; g(y) = f(y)")
        b = parse_program("f(x) = x\ng(y) = f(y)")
        c = parse_program("f(x) = x g(y) = f(y)")
        assert a == b == c


class TestRoundTrip:
    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus_fixpoint(self, text):
        once = parse_program(text)
        assert parse_program(format_program(once)) == once

    def test_ackermann_fixpoint(self, ackermann):
        assert parse_program(format_program(ackermann)) == ackermann

    def test_synthesized_fixpoint(self):
        rng = random.Random(11)
        for _ in range(30):
            program = synthesize(random_functional_graph_set(rng))
            assert parse_program(format_program(program)) == program

    def test_reparse_stability(self):
        text = CORPUS[2]
        assert parse_program(text) == parse_program(text)


class TestGuards:
    def test_ackermann_contexts(self, ackermann):
        sites = enumerate_call_sites(ackermann)
        # x=0 failed and y=0 passed; then x=0 and y=0 both failed
        assert [s.positive for s in sites] == [{"x"}, {"x", "y"}, {"x", "y"}]

    def test_comparison_guard(self):
        p = parse_program("f(x, y) = if x<y then f(y, y) else x")
        (site,) = enumerate_call_sites(p)
        assert site.positive == {"y"}

    def test_facts_are_exactly_the_branch_conditions(self):
        # the outcomes along then and else are united; ! and <= force nothing
        p = parse_program(
            "f(x, y) = if x<=y then if !(x=0) then f(x-1, y) else if y=2 then f(x, y-1) else x"
            " else if x=0 then x else f(x-1, y)"
        )
        first, second, third = enumerate_call_sites(p)
        assert first.positive == frozenset()
        assert second.positive == {"y"}
        assert third.positive == {"x"}

    def test_no_calls_no_sites(self):
        assert enumerate_call_sites(parse_program("f(x) = plus(x, 1)")) == []

    def test_unlabeled_program_is_rejected(self):
        # built by hand, so the call keeps the default label -1
        f = FunSig("f", ("x",))
        program = Program((FunDef(f, Call("f", (Pred("x"),))),))
        with pytest.raises(ValueError, match="labeled"):
            enumerate_call_sites(program)


def forced(cond: str, holds: bool) -> frozenset[str]:
    """The parameters of f(x, y) that cond evaluating to holds forces > 0."""
    sites = enumerate_call_sites(parse_program(f"f(x, y) = if {cond} then f(x, y) else f(y, x)"))
    return sites[0 if holds else 1].positive


class TestImpliesPositive:
    def test_failed_zero_test(self):
        assert forced("x=0", False) == {"x"}

    def test_empty_context(self):
        (site,) = enumerate_call_sites(parse_program("f(x, y) = f(x-1, y)"))
        assert site.positive == frozenset()

    def test_strict_upper_neighbor(self):
        assert forced("y<x", True) == {"x"}

    def test_one_and_constant_tests(self):
        assert forced("x=1", True) == {"x"}
        assert forced("x=3", True) == {"x"}
        assert forced("x=0", True) == frozenset()
        assert forced("x=3", False) == frozenset()

    def test_no_inference_beyond_the_rules(self):
        assert forced("x=0", True) == frozenset()
        assert forced("y<=x", True) == frozenset()
        assert forced("x<y", True) == {"y"}
        assert forced("y=0", False) == {"y"}
        assert forced("x<y", False) == frozenset()
        # a negated atom hidden under ! is not decomposed, nor are && and ||
        assert forced("!(x=0)", True) == frozenset()
        assert forced("!(x=0) && y<x", True) == frozenset()
        assert forced("x=0 || y=0", False) == frozenset()
