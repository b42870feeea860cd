"""Built-in example programs and graph sets."""

from __future__ import annotations

from .graphs import FunSig, GraphSet, SizeChangeGraph
from .jsonio import dumps, graph_set_to_json
from .parser import parse_program
from .reduction import warmup_family
from .syntax import Program

ACKERMANN_SOURCE = """\
# two-argument Ackermann-Peter function
A(x, y) = if x=0 then y+1 else if y=0 then A(x-1, 1) else A(x-1, A(x, y-1))
"""


def ackermann_program() -> Program:
    return parse_program(ACKERMANN_SOURCE)


def ackermann_graph_set() -> GraphSet:
    sig = FunSig("A", ("x", "y"))
    g01 = SizeChangeGraph.from_names(sig, sig, [("x", "strict", "x")])
    g2 = SizeChangeGraph.from_names(sig, sig, [("x", "nonstrict", "x"), ("y", "strict", "y")])
    return GraphSet.of((g01, g2), names=("G01", "G2"))


def swap_graph_set() -> GraphSet:
    sig = FunSig("f", ("x", "y"))
    swap = SizeChangeGraph.from_names(
        sig, sig, [("x", "nonstrict", "y"), ("y", "nonstrict", "x")]
    )
    return GraphSet.of((swap,), names=("S",))


def fixture_files() -> dict[str, str]:
    """Name -> content of the shipped example files."""
    return {
        "ackermann.sct": ACKERMANN_SOURCE,
        "ackermann-graphs.json": dumps(graph_set_to_json(ackermann_graph_set())),
        "swap-graphs.json": dumps(graph_set_to_json(swap_graph_set())),
        "spp-warmup.json": dumps(graph_set_to_json(warmup_family())),
    }
