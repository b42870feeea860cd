"""Lexer, parser, and validator for the .sct program syntax.

Concrete syntax: keywords if/then/else; connectives &&, || and !; comparisons
<, <=; equality atoms x=0, x=1 and the extension x=c; definitions separated
by newlines or ';' (a definition is self-delimiting, so plain juxtaposition
also works); comments run from '#' to end of line.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import FunSig
from .record import record
from .syntax import (
    And,
    BoolExpr,
    Call,
    CallSiteId,
    CondExpr,
    Const,
    EqConst,
    Expr,
    FunDef,
    If,
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


_KEYWORDS = {"if", "then", "else"}

# The deepest nesting a program may use.  One level is a call's or an
# operator's arguments, a then-branch, the operand of `!`, a parenthesized
# condition, or an operand of `&&` or `||` (a chain of n operands nests n-1
# deep, as it is built left-associated).  The parser, format_program, call
# site enumeration, hashing and comparing conditions and the evaluator
# recurse at most five frames per level, so each stays well inside Python's
# default recursion limit of 1000.
MAX_NESTING = 128

# the binary connectives, loosest first
_BINARY = (("||", Or), ("&&", And))


@record
class _Token:
    kind: str  # "ident", "number", "eof", or a punctuation string
    text: str
    line: int
    col: int


def _lex(text: str) -> Iterator[_Token]:
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "ident"
            yield _Token(kind, word, line, start_col)
            col += j - i
            i = j
            continue
        if "0" <= c <= "9":  # ASCII only: str.isdigit also accepts '²'
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            yield _Token("number", text[i:j], line, start_col)
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in ("<=", "&&", "||"):
            yield _Token(two, two, line, start_col)
            i += 2
            col += 2
            continue
        if c in "(),;=+-<!":
            yield _Token(c, c, line, start_col)
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    yield _Token("eof", "", line, col)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_lex(text))
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        # (callee token, argument count) per call, in document order; the
        # index of a call here is its label
        self.calls: list[tuple[_Token, int]] = []
        self.params: tuple[str, ...] = ()
        # the nesting level being parsed, and the deepest level reached
        self.depth = self.peak = 0

    # -- token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]  # advance() never moves past "eof"

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.advance()

    def report(self, message: str, tok: _Token) -> None:
        self.diagnostics.append(Diagnostic(message, tok.line, tok.col))

    def nest(self, tok: _Token) -> None:
        """Enter one more level of nesting at tok; the caller leaves it."""
        self.depth += 1
        self.peak = max(self.peak, self.depth)
        if self.peak > MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} levels", tok.line, tok.col)

    # -- grammar

    def program(self) -> Program:
        defs: list[FunDef] = []
        headers: list[_Token] = []
        while self.peek().kind == ";":
            self.advance()
        if self.peek().kind == "eof":
            tok = self.peek()
            raise ParseError("empty program", tok.line, tok.col)
        while self.peek().kind != "eof":
            d, header = self.definition()
            defs.append(d)
            headers.append(header)
            while self.peek().kind == ";":
                self.advance()
        table: dict[str, FunSig] = {}
        for d, header in zip(defs, headers):
            if d.sig.name in table:
                self.report(f"duplicate function name {d.sig.name!r}", header)
            else:
                table[d.sig.name] = d.sig
        for tok, nargs in self.calls:
            sig = table.get(tok.text)
            if sig is None:
                self.report(f"call to undefined function {tok.text!r}", tok)
            elif sig.arity != nargs:
                self.report(f"{tok.text} expects {sig.arity} argument(s), got {nargs}", tok)
        if self.diagnostics:
            raise ValidationError(self.diagnostics)
        return Program(tuple(defs))

    def definition(self) -> tuple[FunDef, _Token]:
        header = self.expect("ident", "a function definition")
        self.expect("(", "'('")
        params = [self.expect("ident", "a parameter name").text]
        while self.peek().kind == ",":
            self.advance()
            params.append(self.expect("ident", "a parameter name").text)
        self.expect(")", "')'")
        try:
            sig = FunSig(header.text, tuple(params))
        except ValueError as exc:
            raise ValidationError([Diagnostic(str(exc), header.line, header.col)]) from None
        self.expect("=", "'='")
        self.params = sig.params
        return FunDef(sig, self.cond_expr()), header

    def cond_expr(self) -> CondExpr:
        branches = []  # an else-if chain is read by a loop, not by recursion
        while self.peek().kind == "if":
            self.advance()
            cond = self.bool_expr()
            self.nest(self.expect("then", "'then'"))
            branches.append((cond, self.cond_expr()))
            self.depth -= 1
            self.expect("else", "'else'")
        body = self.arith_expr()
        for cond, then in reversed(branches):
            body = If(cond, then, body)
        return body

    def bool_expr(self, level: int = 0) -> BoolExpr:
        """Operands joined by || (level 0) or && (level 1), associated to the left."""
        if level == len(_BINARY):
            return self.bool_not()
        op, make = _BINARY[level]
        outer, self.peak = self.peak, self.depth
        node = self.bool_expr(level + 1)
        while self.peek().kind == op:
            tok = self.advance()
            self.peak += 1  # the chain so far becomes the left operand, one level down
            self.nest(tok)
            node = make(node, self.bool_expr(level + 1))
            self.depth -= 1
        self.peak = max(outer, self.peak)
        return node

    def bool_not(self) -> BoolExpr:
        if self.peek().kind == "!":
            self.nest(self.advance())
            node = Not(self.bool_not())
            self.depth -= 1
            return node
        return self.bool_atom()

    def bool_atom(self) -> BoolExpr:
        tok = self.peek()
        if tok.kind == "(":
            self.nest(self.advance())
            node = self.bool_expr()
            self.expect(")", "')'")
            self.depth -= 1
            return node
        name = self.expect("ident", "a comparison").text
        self.check_param(name, tok)
        op = self.peek()
        if op.kind == "=":
            self.advance()
            lit = self.expect("number", "a literal")
            return EqConst(name, int(lit.text))
        if op.kind in ("<", "<="):
            self.advance()
            right_tok = self.peek()
            right = self.expect("ident", "a parameter name").text
            self.check_param(right, right_tok)
            return Lt(name, right) if op.kind == "<" else Le(name, right)
        raise ParseError(f"expected '=', '<' or '<=' after {name!r}", op.line, op.col)

    def arith_expr(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Const(int(tok.text))
        ident = self.expect("ident", "an expression")
        nxt = self.peek()
        if nxt.kind == "(":
            self.nest(self.advance())
            label = len(self.calls)  # a call precedes the calls in its arguments
            if ident.text not in PRIM_OPS:
                self.calls.append((ident, -1))  # the count is known after the arguments
            args: list[Expr] = []
            if self.peek().kind != ")":
                args.append(self.arith_expr())
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.arith_expr())
            self.expect(")", "')'")
            self.depth -= 1
            if ident.text in PRIM_OPS:
                if len(args) != 2:
                    self.report(f"{ident.text} expects 2 arguments, got {len(args)}", ident)
                return PrimOp(ident.text, tuple(args))
            self.calls[label] = (ident, len(args))
            return Call(ident.text, tuple(args), label)
        if nxt.kind in ("+", "-"):
            self.advance()
            lit = self.expect("number", "the literal 1")
            if lit.text != "1":
                raise ParseError(
                    f"only {ident.text}+1 and {ident.text}-1 are allowed", lit.line, lit.col
                )
            self.check_param(ident.text, ident)
            return Succ(ident.text) if nxt.kind == "+" else Pred(ident.text)
        self.check_param(ident.text, ident)
        return Var(ident.text)

    def check_param(self, name: str, tok: _Token) -> None:
        if name not in self.params:
            self.report(f"unknown parameter {name!r}", tok)


def parse_program(text: str) -> Program:
    """Parse and validate program text; call sites are labeled in document order.

    Raises ParseError on lexical/syntax errors and ValidationError (with all
    collected diagnostics) on semantic ones.
    """
    return _Parser(text).program()


# --- call sites and the parameters their guards force positive ---------------


@record
class CallSite:
    id: CallSiteId
    caller: FunSig
    callee: FunSig
    args: tuple[Expr, ...]
    positive: frozenset[str]  # the caller's parameters the path's branches force > 0


def _forced_positive(cond: BoolExpr, holds: bool) -> frozenset[str]:
    """The parameters that one branch outcome, cond evaluating to holds, forces > 0.

    Closed rule set, deliberately without transitive reasoning: a failed x=0
    test, a passed x=c test with c >= 1 (x=1 among them), or a passed y<x
    test.  Nothing is inferred through !, &&, || or <=.
    """
    match cond:
        case EqConst(p, 0) if not holds:
            return frozenset((p,))
        case EqConst(p, c) if holds and c >= 1:
            return frozenset((p,))
        case Lt(_, r) if holds:
            return frozenset((r,))
    return frozenset()


def enumerate_call_sites(program: Program) -> list[CallSite]:
    """All call occurrences with the parameters their guards force positive, by label."""
    table = {d.sig.name: d.sig for d in program.defs}
    sites: list[CallSite] = []

    def walk_expr(e: Expr, caller: FunSig, positive: frozenset[str]) -> None:
        match e:
            case Call(fun, args, label):
                sites.append(CallSite(label, caller, table[fun], args, positive))
                for a in args:
                    walk_expr(a, caller, positive)
            case PrimOp(_, args):
                for a in args:
                    walk_expr(a, caller, positive)
            case _:
                pass

    def walk_cond(c: CondExpr, caller: FunSig, positive: frozenset[str]) -> None:
        while isinstance(c, If):  # along else-if chains without recursion
            walk_cond(c.then, caller, positive | _forced_positive(c.cond, True))
            c, positive = c.orelse, positive | _forced_positive(c.cond, False)
        walk_expr(c, caller, positive)

    for d in program.defs:
        walk_cond(d.body, d.sig, frozenset())
    if [s.id for s in sites] != list(range(len(sites))):
        raise ValueError("call sites are not labeled in document order")
    return sites
