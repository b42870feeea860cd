"""AST for the first-order functional language over the naturals.

Arithmetic expressions are parameters, +1/-1 on a parameter, primitive
operator applications, function calls, and literal constants (a grammar
extension; call arguments such as constant 1 need them).  Conditions branch
on parameter comparisons.  All values are naturals; x-1 is monus.
"""

from __future__ import annotations

from typing import Union

from .graphs import FunSig
from .record import record

CallSiteId = int

PRIM_OPS = ("plus", "times", "max", "min")  # all binary, total on the naturals


# --- arithmetic expressions -------------------------------------------------

@record
class Var:
    name: str


@record
class Const:
    value: int


@record
class Succ:
    name: str


@record
class Pred:
    name: str


@record
class PrimOp:
    op: str
    args: tuple["Expr", ...]


@record
class Call:
    fun: str
    args: tuple["Expr", ...]
    label: CallSiteId = -1


Expr = Union[Var, Const, Succ, Pred, PrimOp, Call]


# --- boolean expressions ----------------------------------------------------

@record
class EqConst:
    # equality with a literal c >= 0; x=0 and x=1 are the cases c = 0 and c = 1
    param: str
    value: int


@record
class Lt:
    left: str
    right: str


@record
class Le:
    left: str
    right: str


@record
class And:
    left: "BoolExpr"
    right: "BoolExpr"


@record
class Or:
    left: "BoolExpr"
    right: "BoolExpr"


@record
class Not:
    operand: "BoolExpr"


BoolExpr = Union[EqConst, Lt, Le, And, Or, Not]


# --- conditionals, definitions, programs -------------------------------------

@record
class Cases:
    # one else-if chain: the first of conds that holds selects its then,
    # and orelse is taken when none does; conds and thens have one length
    conds: tuple[BoolExpr, ...]
    thens: tuple["CondExpr", ...]
    orelse: Expr


# a Cases is told apart from every Expr class by its type
CondExpr = Union[Expr, Cases]


@record
class FunDef:
    sig: FunSig
    body: CondExpr


@record
class Program:
    defs: tuple[FunDef, ...]


# --- pretty printing ----------------------------------------------------------

def format_expr(e: Expr) -> str:
    match e:
        case Var(name):
            return name
        case Const(value):
            return str(value)
        case Succ(name):
            return f"{name}+1"
        case Pred(name):
            return f"{name}-1"
        case PrimOp(op, args):
            return f"{op}({', '.join(format_expr(a) for a in args)})"
        case Call(fun, args, _):
            return f"{fun}({', '.join(format_expr(a) for a in args)})"
    raise TypeError(e)


_OR, _AND, _NOT = 1, 2, 3


def _format_bool(b: BoolExpr, parent: int) -> str:
    match b:
        case EqConst(p, v):
            return f"{p}={v}"
        case Lt(l, r):
            return f"{l}<{r}"
        case Le(l, r):
            return f"{l}<={r}"
        case And(l, r):
            text = f"{_format_bool(l, _AND)} && {_format_bool(r, _NOT)}"
            return f"({text})" if parent > _AND else text
        case Or(l, r):
            text = f"{_format_bool(l, _OR)} || {_format_bool(r, _AND)}"
            return f"({text})" if parent > _OR else text
        case Not(operand):
            return f"!{_format_bool(operand, _NOT + 1)}"
    raise TypeError(b)


def format_cond(c: CondExpr) -> str:
    if not isinstance(c, Cases):
        return format_expr(c)
    return "".join(
        [f"if {_format_bool(b, 0)} then {format_cond(t)} else " for b, t in zip(c.conds, c.thens)]
    ) + format_expr(c.orelse)


def format_program(p: Program) -> str:
    return "\n".join(
        f"{d.sig.name}({', '.join(d.sig.params)}) = {format_cond(d.body)}" for d in p.defs
    ) + "\n"
