"""Graph families that turn recurring-color questions into descent questions.

For k colors, one parameter z_I is kept per nonempty subset I of the colors,
an ascending tuple.  A choice machine tracks, per subset, a chosen color
that cycles through the subset as colors are observed; a subset is "active"
when its choice sits at the end of the cycle and the observed color restarts
it.  Feeding an eventually periodic coloring through this machine produces
an ultimately periodic multipath whose unique descent parameter is z_I* for
I* = the set of colors that recur forever.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .colorings import EPColoring
from .graphs import FunSig, GraphSet, LassoMultipath, SizeChangeGraph
from .record import record


@lru_cache(maxsize=None)
def index_sets(k: int) -> tuple[tuple[int, ...], ...]:
    """All nonempty subsets of the colors as ascending tuples, ordered by
    (size, lexicographic); the tuple doubles as the subset's cyclic order.

    Bounded to 1 <= k <= 12: from k = 13 on the parameter names collide
    ({12} and {1,2} are both z12), and the sets grow as 2^k.
    """
    if not 1 <= k <= 12:
        raise ValueError(f"index sets are built for 1 <= k <= 12 colors, got k = {k}")
    return tuple(
        combo for size in range(1, k + 1) for combo in itertools.combinations(range(k), size)
    )


@lru_cache(maxsize=None)
def family_signature(k: int) -> FunSig:
    return FunSig("f", tuple("z" + "".join(map(str, s)) for s in index_sets(k)))


def _family_graph(k: int, m: int, chosen) -> SizeChangeGraph:
    """Strict self-arc on z_I for I at the chosen positions of index_sets(k),
    all of size m; non-strict self-arc on every other z_I of size >= m."""
    sig = family_signature(k)
    triples = ((p, p in chosen, p) for p, s in enumerate(index_sets(k)) if len(s) >= m)
    return SizeChangeGraph._of_triples(sig, sig, triples)


def spp_reduction_family(k: int) -> GraphSet:
    """The distinct graphs of all (choice state, color) pairs, in first-appearance order.

    A step's graph depends only on the color c, the largest active size m
    and the active sets of size m with least element c (singletons are
    always active).  Each choice of those sets is built once, keyed by the
    least state giving it: the last member on the chosen sets, the first
    elsewhere.  Distinct choices give distinct strict arcs; sorting on
    (choices, c) gives the order in which the product over states, then
    colors, first meets each graph.  Bounded to 1 <= k <= 6: k = 7 has over
    a million graphs.
    """
    if not 1 <= k <= 6:
        raise ValueError(f"the spp family is built for 1 <= k <= 6, got k = {k}")
    sets = index_sets(k)
    graphs: dict[tuple[tuple[int, ...], int], SizeChangeGraph] = {}
    for c in range(k):
        for m in range(1, k - c + 1):
            candidates = [p for p, s in enumerate(sets) if s[0] == c and len(s) == m]
            for r in range(1, len(candidates) + 1):
                for chosen in map(frozenset, itertools.combinations(candidates, r)):
                    choices = tuple(s[-1] if p in chosen else s[0] for p, s in enumerate(sets))
                    graphs[choices, c] = _family_graph(k, m, chosen)
    return GraphSet.of(graphs[key] for key in sorted(graphs))


def warmup_family() -> GraphSet:
    """The three-graph family on z0, z1, z2: graph i is strict on z_i, non-strict above."""
    sig = FunSig("f", ("z0", "z1", "z2"))
    graphs = [
        SizeChangeGraph._of_triples(sig, sig, ((j, j == i, j) for j in range(i, 3)))
        for i in range(3)
    ]
    return GraphSet.of(graphs, names=("G0", "G1", "G2"))


@record
class ReversalRun:
    """An eventually periodic multipath driven by a coloring, cut at a state repeat."""

    lasso: LassoMultipath
    graphs: GraphSet


def build_reversal_multipath(c: EPColoring) -> ReversalRun:
    """Drive the choice machine with the coloring until the joint state repeats.

    The choices start on each set's least member.  On color c, the sets
    that c starts and whose choice sits on their last member are active:
    the step's graph is _family_graph with m their largest size, strict on
    those of size m.  Then each choice that sits on c's predecessor in its
    set's cyclic order moves to c (a singleton never moves).  The joint
    state (choices, position in the coloring's automaton) is finite, so the
    run is cut into a prefix and a cyclic period.
    """
    k = c.k
    sets = index_sets(k)
    # per color: (position, predecessor of the color) of each set it can move,
    # and (position, last, size) of each set it starts, in ascending size
    moves = [
        [(p, s[s.index(color) - 1]) for p, s in enumerate(sets) if len(s) > 1 and color in s]
        for color in range(k)
    ]
    starts = [[(p, s[-1], len(s)) for p, s in enumerate(sets) if s[0] == color] for color in range(k)]
    prefix_len, period_len = len(c.prefix), len(c.period)
    choices = bytearray(s[0] for s in sets)  # colors are below 13, so a byte each
    seen: dict[tuple[bytes, int], int] = {}
    steps: dict[tuple[int, tuple[int, ...]], int] = {}  # (m, chosen) -> graph index
    word = []
    x = 0
    while True:
        key = (bytes(choices), x if x < prefix_len else prefix_len + (x - prefix_len) % period_len)
        if key in seen:
            start = seen[key]
            break
        seen[key] = x
        color = c.at(x)
        active = [(p, size) for p, last, size in starts[color] if choices[p] == last]
        m = active[-1][1]
        step = (m, tuple(p for p, size in active if size == m))
        word.append(steps.setdefault(step, len(steps)))
        for p, pred in moves[color]:
            if choices[p] == pred:
                choices[p] = color
        x += 1
    lasso = LassoMultipath(tuple(word[:start]), tuple(word[start:]))
    return ReversalRun(lasso, GraphSet.of(_family_graph(k, m, chosen) for m, chosen in steps))
