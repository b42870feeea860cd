"""Lexer, parser, and validator for the .sct program syntax.

Concrete syntax: keywords if/then/else; connectives &&, || and !; comparisons
<, <=; equality atoms x=0, x=1 and the extension x=c; definitions separated
by newlines or ';' (a definition is self-delimiting, so plain juxtaposition
also works); comments run from '#' to end of line.

The lexer is one compiled pattern that yields (kind, text, offset) tuples;
a line and column are worked out from an offset only when a ParseError or a
Diagnostic is made.  Calls are labeled in document order as they are met;
extraction (sct.extract) reads the call sites from the finished tree.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left

from .graphs import FunSig
from .record import record
from .syntax import (
    And,
    BoolExpr,
    Call,
    Cases,
    CondExpr,
    Const,
    EqConst,
    Expr,
    FunDef,
    Le,
    Lt,
    Not,
    Or,
    Pred,
    PrimOp,
    Program,
    PRIM_OPS,
    Succ,
    Var,
)


class SourceError(Exception):
    """Base class for problems with program text."""


@record
class Diagnostic:
    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(SourceError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ValidationError(SourceError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# The deepest nesting a program may use.  One level is a call's or an
# operator's arguments, a then-branch, the operand of `!`, a parenthesized
# condition, or an operand of `&&` or `||` (a chain of n operands nests n-1
# deep, as it is built left-associated); an else-if chain is one Cases node,
# so its length adds no level.  Every walk of a tree recurses at most six
# frames per level: the parser, format_program, extraction, the interpreter's
# compiler (calls run on an explicit stack), and the records' ==, hash and
# repr, pickle and copy.deepcopy.  So 128 levels take under 800 frames,
# inside Python's default recursion limit of 1000.
MAX_NESTING = 128

# the binary connectives, loosest first
_BINARY = (("||", Or), ("&&", And))

# a token: (kind, text, offset of its first character)
_Lexeme = tuple[str, str, int]

# One alternative per token class, named by its group: a "sym" token
# (keyword or punctuation) is its own kind, "ident" and "number" are kinds,
# and whitespace (\s, as str.isspace) and comments make no token.  A word
# (\w, as str.isalnum or "_") that starts outside ASCII is "other": it is an
# identifier when it starts with a letter (str.isalpha), as '½' or '²' does not.
_TOKEN = re.compile(
    r"(?P<sym>(?:if|then|else)\b|<=|&&|\|\||[(),;=+<!-])"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<number>[0-9]+)"  # ASCII only: \d also takes other scripts' digits
    r"|(?P<comment>#.*)"
    r"|\s+"
    r"|(?P<other>\w+|.)"  # a word that starts outside ASCII, or a stray character
)


def _starts_name(word: str) -> bool:
    """Whether an "other" word is an identifier."""
    return word[0].isalpha() or word[0] == "_"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.newlines: list[int] | None = None  # newline offsets, found on first use
        self.tokens = self.lex()
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        # (callee token, argument count) per call, in document order; the
        # index of a call here is its label
        self.calls: list[tuple[_Lexeme, int]] = []
        self.params: tuple[str, ...] = ()
        # the nesting level being parsed, and the deepest level reached
        self.depth = self.peak = 0

    # -- tokens: (kind, text, offset) tuples

    def lex(self) -> list[_Lexeme]:
        """The tokens of the text, ending in one "eof" token."""
        text = self.text
        tokens: list[_Lexeme] = []
        append = tokens.append
        end = len(text)
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind is None:
                continue
            word = m.group()
            if kind == "sym":
                append((word, word, m.start()))
            elif kind == "other":
                if not _starts_name(word):
                    raise self.error(f"unexpected character {word[0]!r}", m.start())
                append(("ident", word, m.start()))
            elif kind == "comment":
                if m.end() == end:  # a comment does not advance the column
                    end = m.start()
            else:
                append((kind, word, m.start()))
        append(("eof", "", end))
        return tokens

    def where(self, offset: int) -> tuple[int, int]:
        """The line and column of offset; only a newline starts a line."""
        if self.newlines is None:
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self.newlines, offset)
        return line + 1, offset - (self.newlines[line - 1] if line else -1)

    def error(self, message: str, offset: int) -> ParseError:
        return ParseError(message, *self.where(offset))

    def peek(self) -> _Lexeme:
        return self.tokens[self.pos]  # advance() never moves past "eof"

    def advance(self) -> _Lexeme:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Lexeme:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.error(f"expected {what}, found {tok[1] or 'end of input'!r}", tok[2])
        self.pos += 1  # kind is never "eof"
        return tok

    def report(self, message: str, tok: _Lexeme) -> None:
        self.diagnostics.append(Diagnostic(message, *self.where(tok[2])))

    def nest(self, tok: _Lexeme) -> None:
        """Enter one more level of nesting at tok; the caller leaves it."""
        self.depth += 1
        self.peak = max(self.peak, self.depth)
        if self.peak > MAX_NESTING:
            raise self.error(f"nested deeper than {MAX_NESTING} levels", tok[2])

    def number(self, tok: _Lexeme) -> int:
        """The value of a number token, which int() converts only up to its digit limit."""
        try:
            return int(tok[1])
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise self.error(f"number has more than {limit} digits", tok[2]) from None

    # -- grammar

    def program(self) -> Program:
        defs: list[FunDef] = []
        headers: list[_Lexeme] = []
        while self.peek()[0] == ";":
            self.advance()
        if self.peek()[0] == "eof":
            raise self.error("empty program", self.peek()[2])
        while self.peek()[0] != "eof":
            d, header = self.definition()
            defs.append(d)
            headers.append(header)
            while self.peek()[0] == ";":
                self.advance()
        table: dict[str, FunSig] = {}
        for d, header in zip(defs, headers):
            if d.sig.name in table:
                self.report(f"duplicate function name {d.sig.name!r}", header)
            else:
                table[d.sig.name] = d.sig
        for tok, nargs in self.calls:
            sig = table.get(tok[1])
            if sig is None:
                self.report(f"call to undefined function {tok[1]!r}", tok)
            elif sig.arity != nargs:
                self.report(f"{tok[1]} expects {sig.arity} argument(s), got {nargs}", tok)
        if self.diagnostics:
            raise ValidationError(self.diagnostics)
        return Program(tuple(defs))

    def definition(self) -> tuple[FunDef, _Lexeme]:
        header = self.expect("ident", "a function definition")
        self.expect("(", "'('")
        params = [self.expect("ident", "a parameter name")[1]]
        while self.peek()[0] == ",":
            self.advance()
            params.append(self.expect("ident", "a parameter name")[1])
        self.expect(")", "')'")
        try:
            sig = FunSig(header[1], tuple(params))
        except ValueError as exc:
            raise ValidationError([Diagnostic(str(exc), *self.where(header[2]))]) from None
        self.expect("=", "'='")
        self.params = sig.params
        return FunDef(sig, self.cond_expr()), header

    def cond_expr(self) -> CondExpr:
        conds, thens = [], []  # an else-if chain is read by a loop, not by recursion
        while self.peek()[0] == "if":
            self.advance()
            conds.append(self.bool_expr())
            self.nest(self.expect("then", "'then'"))
            thens.append(self.cond_expr())
            self.depth -= 1
            self.expect("else", "'else'")
        body = self.arith_expr()
        return Cases(tuple(conds), tuple(thens), body) if conds else body

    def bool_expr(self, level: int = 0) -> BoolExpr:
        """Operands joined by || (level 0) or && (level 1), associated to the left."""
        if level == len(_BINARY):
            return self.bool_not()
        op, make = _BINARY[level]
        outer, self.peak = self.peak, self.depth
        node = self.bool_expr(level + 1)
        while self.peek()[0] == op:
            tok = self.advance()
            self.peak += 1  # the chain so far becomes the left operand, one level down
            self.nest(tok)
            node = make(node, self.bool_expr(level + 1))
            self.depth -= 1
        self.peak = max(outer, self.peak)
        return node

    def bool_not(self) -> BoolExpr:
        if self.peek()[0] == "!":
            self.nest(self.advance())
            node = Not(self.bool_not())
            self.depth -= 1
            return node
        return self.bool_atom()

    def bool_atom(self) -> BoolExpr:
        tok = self.peek()
        if tok[0] == "(":
            self.nest(self.advance())
            node = self.bool_expr()
            self.expect(")", "')'")
            self.depth -= 1
            return node
        name = self.expect("ident", "a comparison")[1]
        self.check_param(name, tok)
        op = self.peek()
        if op[0] == "=":
            self.advance()
            return EqConst(name, self.number(self.expect("number", "a literal")))
        if op[0] in ("<", "<="):
            self.advance()
            right_tok = self.peek()
            right = self.expect("ident", "a parameter name")[1]
            self.check_param(right, right_tok)
            return Lt(name, right) if op[0] == "<" else Le(name, right)
        raise self.error(f"expected '=', '<' or '<=' after {name!r}", op[2])

    def arith_expr(self) -> Expr:
        tok = self.peek()
        if tok[0] == "number":
            self.advance()
            return Const(self.number(tok))
        ident = self.expect("ident", "an expression")
        name = ident[1]
        nxt = self.peek()[0]
        if nxt == "(":
            self.nest(self.advance())
            label = len(self.calls)  # a call precedes the calls in its arguments
            if name not in PRIM_OPS:
                self.calls.append((ident, -1))  # the count is known after the arguments
            args: list[Expr] = []
            if self.peek()[0] != ")":
                args.append(self.arith_expr())
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.arith_expr())
            self.expect(")", "')'")
            self.depth -= 1
            if name in PRIM_OPS:
                if len(args) != 2:
                    self.report(f"{name} expects 2 arguments, got {len(args)}", ident)
                return PrimOp(name, tuple(args))
            self.calls[label] = (ident, len(args))
            return Call(name, tuple(args), label)
        if nxt in ("+", "-"):
            self.advance()
            lit = self.expect("number", "the literal 1")
            if lit[1] != "1":
                raise self.error(f"only {name}+1 and {name}-1 are allowed", lit[2])
            self.check_param(name, ident)
            return Succ(name) if nxt == "+" else Pred(name)
        self.check_param(name, ident)
        return Var(name)

    def check_param(self, name: str, tok: _Lexeme) -> None:
        if name not in self.params:
            self.report(f"unknown parameter {name!r}", tok)


def is_function_name(name: str) -> bool:
    """Whether name reads back as the name of a callable function: the whole
    text lexes as one identifier (so no keyword) that is not a primitive."""
    m = _TOKEN.fullmatch(name)
    kind = m.lastgroup if m else None
    return (kind == "ident" or kind == "other" and _starts_name(name)) and name not in PRIM_OPS


def parse_program(text: str) -> Program:
    """Parse and validate program text; call sites are labeled in document order.

    Raises ParseError on lexical/syntax errors and ValidationError (with all
    collected diagnostics) on semantic ones.
    """
    return _Parser(text).program()
