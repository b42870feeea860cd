"""Derive a size-change graph per call site of a program.

Two modes: GUARDED only emits a strict arc for x-1 when the call site's
branch conditions force x > 0 (sound under monus), SYNTACTIC always does
(guard-blind, the mode that inverts program synthesis exactly).
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .graphs import Arc, ArcKind, GraphSet, SizeChangeGraph
from .parser import CallSite, enumerate_call_sites
from .record import record
from .syntax import Expr, Pred, Program, Var


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


def arc_for_argument(
    expr: Expr,
    tgt_index: int,
    caller,
    positive: frozenset[str],
    mode: Mode,
) -> Optional[Arc]:
    """The size relation an argument expression justifies, if any.

    Passing a parameter unchanged is non-strict; x-1 is strict when the mode
    is guard-blind or x is in positive, the parameters the call site's guards
    force > 0, else non-strict.  Anything else (x+1, operators, nested calls,
    constants) has unknown or increasing size.
    """
    match expr:
        case Var(name):
            return Arc(caller.index_of(name), ArcKind.NONSTRICT, tgt_index)
        case Pred(name):
            if mode is Mode.SYNTACTIC or name in positive:
                return Arc(caller.index_of(name), ArcKind.STRICT, tgt_index)
            return Arc(caller.index_of(name), ArcKind.NONSTRICT, tgt_index)
        case _:
            return None


def extract_graph(site: CallSite, mode: Mode) -> SizeChangeGraph:
    arcs = []
    for j, arg in enumerate(site.args):
        arc = arc_for_argument(arg, j, site.caller, site.positive, mode)
        if arc is not None:
            arcs.append(arc)
    return SizeChangeGraph(site.caller, site.callee, tuple(arcs))


def extract_description(program: Program, mode: Mode) -> Description:
    sites = enumerate_call_sites(program)
    return Description(tuple(extract_graph(s, mode) for s in sites))
