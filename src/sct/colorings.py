"""Finite stand-ins for infinite colorings.

A coloring of the naturals is represented as eventually periodic (prefix +
repeated period), which makes "occurs infinitely often" decidable: a color
recurs forever iff it occurs in the period.  Pair colorings live on a finite
initial segment.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Optional

from .graphs import GraphSet, LassoMultipath, SizeChangeGraph, _check_lasso, compose
from .record import mutable_record, record


@record
class EPColoring:
    """Eventually periodic coloring of the naturals in k colors."""

    k: int
    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        if any(not 0 <= c < self.k for c in self.prefix + self.period):
            raise ValueError(f"colors must be below {self.k}")

    def at(self, x: int) -> int:
        if x < len(self.prefix):
            return self.prefix[x]
        return self.period[(x - len(self.prefix)) % len(self.period)]


def spp_witness(c: EPColoring) -> frozenset[int]:
    """The set of colors taken infinitely often: exactly the period's colors."""
    return frozenset(c.period)


@mutable_record
class PairColoring:
    """A coloring of the pairs {(i, j): i < j < n} in k colors."""

    k: int
    n: int
    values: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one point, got n = {self.n}")

    @classmethod
    def from_function(cls, k: int, n: int, fn: Callable[[int, int], int]) -> "PairColoring":
        if type(k) is not int or type(n) is not int:
            raise ValueError(f"k and n must be integers, got k = {k!r}, n = {n!r}")
        if k < 1:
            raise ValueError(f"need at least one color, got k = {k}")
        values = {(i, j): fn(i, j) for i in range(n) for j in range(i + 1, n)}
        if any(type(v) is not int or not 0 <= v < k for v in values.values()):
            raise ValueError(f"colors must be integers below {k}")
        return cls(k, n, values)

    def at(self, i: int, j: int) -> int:
        return self.values[(i, j)]


@record
class StarWitness:
    center: int
    color: int
    pairs: tuple[tuple[int, int], ...]


def star_search(c: PairColoring, min_triangles: int) -> Optional[StarWitness]:
    """Find a vertex anchoring at least min_triangles monochromatic triangles.

    Returns the smallest center t (then the smallest color) such that
    c(t,m) = c(t,l) = c(m,l) for enough pairs t < m < l.  Exhaustive.
    """
    if min_triangles < 1:
        raise ValueError(f"need at least one triangle, got min_triangles = {min_triangles}")
    for t in range(c.n):
        for color in range(c.k):
            pairs = tuple(
                (m, l)
                for m in range(t + 1, c.n)
                for l in range(m + 1, c.n)
                if c.at(t, m) == color and c.at(t, l) == color and c.at(m, l) == color
            )
            if len(pairs) >= min_triangles:
                return StarWitness(t, color, pairs)
    return None


def pair_coloring_from_lasso(
    lasso: LassoMultipath, gs: GraphSet, n: int
) -> tuple[PairColoring, list[SizeChangeGraph]]:
    """Color each pair i < j < n by the multipath composition over [i, j).

    Colors are palette indices; the palette lists the distinct composed
    graphs in order of first appearance.
    """
    _check_lasso(lasso, gs)
    steps = [gs.graphs[lasso.graph_index_at(t)] for t in range(n - 1)]
    palette: list[SizeChangeGraph] = []
    index: dict[SizeChangeGraph, int] = {}
    values: dict[tuple[int, int], int] = {}
    for i in range(n):
        for j, g in enumerate(accumulate(steps[i:], compose), start=i + 1):
            if g not in index:
                index[g] = len(palette)
                palette.append(g)
            values[(i, j)] = index[g]
    return PairColoring(len(palette), n, values), palette
