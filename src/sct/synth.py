"""Compile a graph set into a program whose extracted description is that set.

Every function is padded to a common arity with parameters x0..x{n-1}.  A
function with k outgoing graphs dispatches on x0 = 0, x0 = 1, ..., x0 = k-2
with the final branch as the last else; branch h calls the target of its
graph with x_s-1 for a strict arc into position j, x_s for a non-strict arc,
and x_j+1 where no arc enters j.  Guard-blind extraction inverts this
construction exactly.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .graphs import ArcKind, FunSig, GraphSet, SizeChangeGraph
from .syntax import (
    Call,
    CondExpr,
    EqConst,
    Expr,
    FunDef,
    If,
    Pred,
    Program,
    Succ,
    Var,
)


class SynthesisError(ValueError):
    """The graph set cannot be compiled (two sources feed one target parameter)."""


def _branch_call(graph: SizeChangeGraph, params: tuple[str, ...], arity: int, label: int) -> Expr:
    incoming: dict[int, tuple[int, ArcKind]] = {}
    for a in graph.arcs:
        if a.tgt in incoming:
            raise SynthesisError(
                f"two arcs into parameter {a.tgt} of {graph.target.name}"
            )
        incoming[a.tgt] = (a.src, a.kind)
    args: list[Expr] = []
    for j in range(arity):
        entry = incoming.get(j)
        if entry is None:
            args.append(Succ(params[j]))
        else:
            src, kind = entry
            args.append(Pred(params[src]) if kind is ArcKind.STRICT else Var(params[src]))
    return Call(graph.target.name, tuple(args), label)


def synthesize(gs: GraphSet) -> Program:
    """Build the dispatch program realizing a nonempty graph set."""
    if not gs.sigs:
        raise ValueError("cannot synthesize from an empty graph set")
    arity = max(sig.arity for sig in gs.sigs)
    params = tuple(f"x{j}" for j in range(arity))
    defs, offset = [], 0
    for sig in gs.sigs:
        outgoing = [g for g in gs.graphs if g.source == sig]
        # branch h holds the body's h-th call, so its label is offset + h
        calls = [_branch_call(g, params, arity, offset + h) for h, g in enumerate(outgoing)]
        offset += len(calls)
        body: CondExpr = calls.pop() if calls else Var(params[0])
        for h in range(len(calls) - 1, -1, -1):
            body = If(EqConst(params[0], h), calls[h], body)
        defs.append(FunDef(FunSig(sig.name, params), body))
    return Program(tuple(defs))


def graph_multiset(graphs: Iterable[SizeChangeGraph]) -> Counter:
    """Multiset of graphs keyed by endpoint names and index-level arcs.

    Padding parameters never carry arcs, so this key is stable across the
    arity padding that synthesis introduces.
    """
    return Counter((g.source.name, g.target.name, g.arcs) for g in graphs)
