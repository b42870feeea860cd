"""Derive a size-change graph per call site of a program.

One walk of each body, in document order, meets every call with
``positive``: the caller's parameters that the branch outcomes on its path
force above 0, united along ``then`` and ``else``.  Each argument that is a
parameter x gives a non-strict arc, and each x-1 a strict one when the mode
is SYNTACTIC (guard-blind, the mode that inverts program synthesis exactly)
or x is in ``positive`` (GUARDED, sound under monus).  Other arguments (x+1,
operators, nested calls, constants) have unknown or increasing size and
give no arc.
"""

from __future__ import annotations

from enum import Enum

from .graphs import GraphSet, SizeChangeGraph
from .record import record
from .syntax import BoolExpr, Call, Cases, CondExpr, EqConst, Expr, Lt, Pred, PrimOp, Program, Var


class Mode(Enum):
    GUARDED = "guarded"
    SYNTACTIC = "syntactic"


@record
class Description:
    """One graph per call site, indexed by call-site id."""

    sites: tuple[SizeChangeGraph, ...]

    def __getitem__(self, site: int) -> SizeChangeGraph:
        return self.sites[site]

    def __len__(self) -> int:
        return len(self.sites)

    def to_graph_set(self) -> GraphSet:
        return GraphSet.of(self.sites, names=tuple(f"tau{i}" for i in range(len(self.sites))))


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


def extract_description(program: Program, mode: Mode) -> Description:
    sigs = {d.sig.name: d.sig for d in program.defs}
    guard_blind = mode is Mode.SYNTACTIC
    sites: list[SizeChangeGraph] = []
    labels: list[int] = []

    # caller and index (parameter name -> position) belong to the
    # definition being walked
    def walk_expr(e: Expr, positive: frozenset[str]) -> None:
        match e:
            case Call(fun, args, label):
                triples = []
                for j, a in enumerate(args):
                    match a:
                        case Var(x):
                            triples.append((index[x], False, j))
                        case Pred(x):
                            triples.append((index[x], guard_blind or x in positive, j))
                sites.append(SizeChangeGraph._of_triples(caller, sigs[fun], triples))
                labels.append(label)
                for a in args:
                    walk_expr(a, positive)
            case PrimOp(_, args):
                for a in args:
                    walk_expr(a, positive)

    def walk_cond(c: CondExpr, positive: frozenset[str]) -> None:
        if isinstance(c, Cases):
            for b, then in zip(c.conds, c.thens):
                walk_cond(then, positive | _forced_positive(b, True))
                positive |= _forced_positive(b, False)
            c = c.orelse
        walk_expr(c, positive)

    for d in program.defs:
        caller = d.sig
        index = {x: i for i, x in enumerate(caller.params)}
        walk_cond(d.body, frozenset())
    if labels != list(range(len(labels))):
        raise ValueError("call sites are not labeled in document order")
    return Description(tuple(sites))
