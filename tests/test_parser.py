import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import program_text, random_functional_graph_set, reference_lex
from sct import (
    ArcKind,
    FunSig,
    ParseError,
    ValidationError,
    parse_program,
    synthesize,
)
from sct.extract import Mode, extract_description
from sct.parser import MAX_NESTING, _Parser
from sct.syntax import (
    And,
    Call,
    Cases,
    Const,
    EqConst,
    FunDef,
    Not,
    Or,
    Pred,
    Program,
    Succ,
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
        (d,) = ackermann.defs
        # labels in document order: a call before the calls in its arguments
        inner = Call("A", (Var("x"), Pred("y")), 2)
        assert d.body == Cases(
            (EqConst("x", 0), EqConst("y", 0)),
            (Succ("y"), Call("A", (Pred("x"), Const(1)), 0)),
            Call("A", (Pred("x"), inner), 1),
        )

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
        (cond,) = p.defs[0].body.conds
        assert cond == And(Or(EqConst("x", 0), EqConst("x", 1)), Not(EqConst("x", 2)))

    def test_semicolon_and_juxtaposition(self):
        a = parse_program("f(x) = x; g(y) = f(y)")
        b = parse_program("f(x) = x\ng(y) = f(y)")
        c = parse_program("f(x) = x g(y) = f(y)")
        assert a == b == c


def lexed(text: str):
    """The parser's tokens as (kind, text, line, col), or its ParseError's text."""
    try:
        parser = _Parser(text)
    except ParseError as exc:
        return str(exc)
    return [(kind, word, *parser.where(offset)) for kind, word, offset in parser.tokens]


def reference_lexed(text: str):
    try:
        return reference_lex(text)
    except ParseError as exc:
        return str(exc)


LEX_CASES = [
    # an identifier starts with a letter (str.isalpha) or "_", and goes on
    # with letters, digits (str.isalnum) and "_"
    "f(x)=½",
    "f(x)=Ⅻ",
    "f(x)=x²",
    "f(x)=²",
    "f(é)=é+1",
    "_x(y)=_x(y)",
    "f(x)=x1٣ + ٣",
    "if iffy then1 else_ ifé",
    # only "\n" starts a line; other whitespace is one column each
    "f(x)=\u00a0x\u2028+1",
    "f(x)=\r\n\tx\r\n",
    "\tf(x)\t=\n\n  x",
    # a comment does not advance the column, so end of input right after one
    # is reported at its '#'
    "f(x)= #c",
    "f(x)= #c\n",
    "f(x)=x#c\n#d",
    "# only a comment",
    "",
    "a<=b&&c||!d;e=f+1-2<g,(h)",
    "a & b",
    "a | b",
    "a > b",
    "f(x) = $",
]


class TestLexer:
    """The one-pattern lexer against a plain character-at-a-time reference."""

    @pytest.mark.parametrize("text", LEX_CASES)
    def test_edge_cases(self, text):
        assert lexed(text) == reference_lexed(text)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(program_text() | st.text(max_size=40))
    def test_generated_text(self, text):
        assert lexed(text) == reference_lexed(text)

    def test_end_of_input_after_a_comment(self):
        with pytest.raises(ParseError, match="^1:7: expected an expression, found 'end of input'$"):
            parse_program("f(x)= #c")

    def test_many_diagnostics(self):
        text = "".join(f"f{i}(x) = g(y)\n" for i in range(2000))
        tokens = reference_lex(text)

        def at(word):
            return [(line, col) for _, w, line, col in tokens if w == word]

        with pytest.raises(ValidationError) as exc:
            parse_program(text)
        assert [(d.line, d.col) for d in exc.value.diagnostics] == at("y") + at("g")


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


def positive(text: str) -> list[frozenset[str]]:
    """Per call site, the caller's parameters whose x-1 argument extraction
    makes strict in guarded mode: those its guards force > 0, when the call
    passes x-1 for every parameter x."""
    description = extract_description(parse_program(text), Mode.GUARDED)
    return [
        frozenset(g.source.params[a.src] for a in g.arcs if a.kind is ArcKind.STRICT)
        for g in description.sites
    ]


class TestGuards:
    def test_ackermann_contexts(self):
        # Ackermann's guards: x=0 failed and y=0 passed; then x=0 and y=0 both failed
        text = (
            "A(x, y) = if x=0 then y+1 else if y=0 then A(x-1, y-1)"
            " else plus(A(x-1, y-1), A(x-1, y-1))"
        )
        assert positive(text) == [{"x"}, {"x", "y"}, {"x", "y"}]

    def test_comparison_guard(self):
        assert positive("f(x, y) = if x<y then f(x-1, y-1) else x") == [{"y"}]

    def test_facts_are_exactly_the_branch_conditions(self):
        # the outcomes along then and else are united; ! and <= force nothing
        first, second, third = positive(
            "f(x, y) = if x<=y then if !(x=0) then f(x-1, y-1) else if y=2 then f(x-1, y-1) else x"
            " else if x=0 then x else f(x-1, y-1)"
        )
        assert first == frozenset()
        assert second == {"y"}
        assert third == {"x"}

    def test_no_calls_no_sites(self):
        assert extract_description(parse_program("f(x) = plus(x, 1)"), Mode.GUARDED).sites == ()

    def test_unlabeled_program_is_rejected(self):
        # built by hand, so the call keeps the default label -1
        f = FunSig("f", ("x",))
        program = Program((FunDef(f, Call("f", (Pred("x"),))),))
        with pytest.raises(ValueError, match="labeled"):
            extract_description(program, Mode.GUARDED)


def forced(cond: str, holds: bool) -> frozenset[str]:
    """The parameters of f(x, y) that cond evaluating to holds forces > 0."""
    return positive(f"f(x, y) = if {cond} then f(x-1, y-1) else f(x-1, y-1)")[0 if holds else 1]


class TestImpliesPositive:
    def test_failed_zero_test(self):
        assert forced("x=0", False) == {"x"}

    def test_empty_context(self):
        assert positive("f(x, y) = f(x-1, y-1)") == [frozenset()]

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
