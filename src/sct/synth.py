"""Compile a graph set into a program whose extracted description is that set.

Every function is padded to a common arity with parameters x0..x{n-1}.  A
function with k outgoing graphs dispatches on x0 = 0, x0 = 1, ..., x0 = k-2
with the final branch as the last else; branch h calls the target of its
graph with x_s-1 for a strict arc into position j, x_s for a non-strict arc,
and x_j+1 where no arc enters j.  Guard-blind extraction inverts this
construction exactly.  A function name must read back as a callable one
(`parser.is_function_name`): a keyword, a primitive or a name that is not
one identifier is a SynthesisError.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .graphs import FunSig, GraphSet, SizeChangeGraph
from .parser import is_function_name
from .syntax import (
    Call,
    Cases,
    CondExpr,
    EqConst,
    Expr,
    FunDef,
    Pred,
    Program,
    Succ,
    Var,
)


class SynthesisError(ValueError):
    """The graph set cannot be compiled: two sources feed one target
    parameter, or a function's name does not read back as a callable one."""


def _branch_call(graph: SizeChangeGraph, nodes, label: int) -> Expr:
    """The call of one branch, read off the graph's rows; nodes holds the
    x_j+1, x_j and x_j-1 argument nodes by position j."""
    succ, var, pred = nodes
    n = graph.target.arity
    args = list(succ)  # x_j+1 where no arc enters j
    fed = 0  # bit t: an earlier row has an arc into target parameter t
    for s, row in enumerate(graph.rows):
        reach = row & ((1 << n) - 1)
        clash = reach & fed
        if clash:
            t = (clash & -clash).bit_length() - 1
            raise SynthesisError(f"two arcs into parameter {t} of {graph.target.name}")
        fed |= reach
        while reach:
            t = (reach & -reach).bit_length() - 1
            args[t] = pred[s] if row >> (t + n) & 1 else var[s]
            reach &= reach - 1
    return Call(graph.target.name, tuple(args), label)


def synthesize(gs: GraphSet) -> Program:
    """Build the dispatch program realizing a nonempty graph set."""
    if not gs.sigs:
        raise ValueError("cannot synthesize from an empty graph set")
    arity = max(sig.arity for sig in gs.sigs)
    params = tuple(f"x{j}" for j in range(arity))
    # the nodes are immutable, so every branch shares one of each
    nodes = ([Succ(p) for p in params], [Var(p) for p in params], [Pred(p) for p in params])
    defs, offset = [], 0
    for sig in gs.sigs:
        if not is_function_name(sig.name):
            raise SynthesisError(
                f"function name {sig.name!r} does not read back as a callable function"
            )
        outgoing = [g for g in gs.graphs if g.source == sig]
        # branch h holds the body's h-th call, so its label is offset + h
        calls = [_branch_call(g, nodes, offset + h) for h, g in enumerate(outgoing)]
        offset += len(calls)
        body: CondExpr = calls.pop() if calls else Var(params[0])
        if calls:
            body = Cases(tuple(EqConst(params[0], h) for h in range(len(calls))), tuple(calls), body)
        defs.append(FunDef(FunSig(sig.name, params), body))
    return Program(tuple(defs))


def graph_multiset(graphs: Iterable[SizeChangeGraph]) -> Counter:
    """Multiset of graphs keyed by endpoint names and index-level arcs.

    Padding parameters never carry arcs, so this key is stable across the
    arity padding that synthesis introduces.
    """
    return Counter((g.source.name, g.target.name, g.arcs) for g in graphs)
