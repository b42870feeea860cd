"""Graph families that turn recurring-color questions into descent questions.

For k colors, one parameter z_I is kept per nonempty subset I of the colors.
A choice state tracks, per subset, a currently chosen color that cycles
through the subset as colors are observed; a subset is "active" when its
choice sits at the end of the cycle and the observed color restarts it.
Feeding an eventually periodic coloring through this machine produces an
ultimately periodic multipath whose unique descent parameter is z_I* for
I* = the set of colors that recur forever.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .colorings import EPColoring
from .graphs import FunSig, GraphSet, LassoMultipath, SizeChangeGraph
from .record import record


@record
class IndexSet:
    """A nonempty set of colors; the ascending tuple doubles as its fixed enumeration."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("index set must be nonempty")
        if any(a >= b for a, b in zip(self.members, self.members[1:])):
            raise ValueError("members must be strictly ascending")

    @classmethod
    def of(cls, colors) -> "IndexSet":
        return cls(tuple(sorted(set(colors))))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def first(self) -> int:
        return self.members[0]

    @property
    def last(self) -> int:
        return self.members[-1]

    def param_name(self) -> str:
        return "z" + "".join(str(i) for i in self.members)


@lru_cache(maxsize=None)
def index_sets(k: int) -> tuple[IndexSet, ...]:
    """All nonempty subsets of the colors, ordered by (size, lexicographic).

    Bounded to 1 <= k <= 12: from k = 13 on the parameter names collide
    ({12} and {1,2} are both z12), and the sets grow as 2^k.
    """
    if not 1 <= k <= 12:
        raise ValueError(f"index sets are built for 1 <= k <= 12 colors, got k = {k}")
    sets = [
        IndexSet(combo)
        for size in range(1, k + 1)
        for combo in itertools.combinations(range(k), size)
    ]
    return tuple(sets)


@lru_cache(maxsize=None)
def family_signature(k: int) -> FunSig:
    return FunSig("f", tuple(s.param_name() for s in index_sets(k)))


@record
class ChoiceState:
    """One chosen color per index set, always a member of that set."""

    k: int
    choices: tuple[int, ...]  # aligned with index_sets(k)

    def __post_init__(self) -> None:
        sets = index_sets(self.k)
        if len(self.choices) != len(sets):
            raise ValueError("need one choice per index set")
        for s, c in zip(sets, self.choices):
            if c not in s.members:
                raise ValueError(f"choice {c} is not in {s.members}")


def initial_chi(k: int) -> ChoiceState:
    return ChoiceState(k, tuple(s.first for s in index_sets(k)))


def chi_step(state: ChoiceState, observed: int) -> ChoiceState:
    """Advance each per-subset choice on an observed color.

    A choice moves to the observed color exactly when that color is the next
    element of the subset's cyclic enumeration; singleton subsets never move.
    """
    if not 0 <= observed < state.k:
        raise ValueError(f"color {observed} out of range")
    new = []
    for s, current in zip(index_sets(state.k), state.choices):
        if s.size == 1:
            new.append(s.first)
            continue
        position = s.members.index(current)
        succ = s.members[(position + 1) % s.size]
        new.append(observed if succ == observed else current)
    return ChoiceState(state.k, tuple(new))


def active_sets(state: ChoiceState, color: int) -> frozenset[IndexSet]:
    """Subsets whose choice is at enumeration end and whose least element is the color."""
    return frozenset(
        s
        for s, current in zip(index_sets(state.k), state.choices)
        if current == s.last and s.first == color
    )


def _family_graph(k: int, m: int, chosen) -> SizeChangeGraph:
    """Strict self-arc on z_I for I at the chosen positions of index_sets(k),
    all of size m; non-strict self-arc on every other z_I of size >= m."""
    sig = family_signature(k)
    triples = ((p, p in chosen, p) for p, s in enumerate(index_sets(k)) if s.size >= m)
    return SizeChangeGraph._of_triples(sig, sig, triples)


def graph_for(state: ChoiceState, color: int) -> SizeChangeGraph:
    """The size-change graph one (choice state, color) step contributes: the
    family graph strict on the active sets of the largest active size."""
    active = active_sets(state, color)
    m = max(s.size for s in active)
    chosen = {p for p, s in enumerate(index_sets(state.k)) if s in active and s.size == m}
    return _family_graph(state.k, m, chosen)


def spp_reduction_family(k: int) -> GraphSet:
    """The distinct graphs of all (choice state, color) pairs, in first-appearance order.

    graph_for(state, c) depends only on c, the largest active size m and the
    active sets of size m with least element c (singletons are always active).
    Each choice of those sets is built once, keyed by the least state giving
    it: S.last on the chosen sets, S.first elsewhere.  Distinct choices give
    distinct strict arcs; sorting on (choices, c) gives the order in which
    the product over states, then colors, first meets each graph.  Bounded
    to 1 <= k <= 6: k = 7 has over a million graphs.
    """
    if not 1 <= k <= 6:
        raise ValueError(f"the spp family is built for 1 <= k <= 6, got k = {k}")
    sets = index_sets(k)
    graphs: dict[tuple[tuple[int, ...], int], SizeChangeGraph] = {}
    for c in range(k):
        for m in range(1, k - c + 1):
            candidates = [p for p, s in enumerate(sets) if s.first == c and s.size == m]
            for r in range(1, len(candidates) + 1):
                for chosen in map(frozenset, itertools.combinations(candidates, r)):
                    choices = tuple(s.last if p in chosen else s.first for p, s in enumerate(sets))
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

    The joint state is (choice state, position in the coloring's automaton);
    it is finite, so the run is cut into a prefix and a cyclic period.
    """
    k = c.k
    prefix_len, period_len = len(c.prefix), len(c.period)

    def pos(x: int) -> int:
        return x if x < prefix_len else prefix_len + (x - prefix_len) % period_len

    state = initial_chi(k)
    seen: dict[tuple[tuple[int, ...], int], int] = {}
    distinct: dict[SizeChangeGraph, int] = {}  # in first-appearance order
    word = []
    x = 0
    while True:
        key = (state.choices, pos(x))
        if key in seen:
            start = seen[key]
            break
        seen[key] = x
        color = c.at(x)
        word.append(distinct.setdefault(graph_for(state, color), len(distinct)))
        state = chi_step(state, color)
        x += 1
    lasso = LassoMultipath(tuple(word[:start]), tuple(word[start:]))
    return ReversalRun(lasso, GraphSet.of(distinct))
