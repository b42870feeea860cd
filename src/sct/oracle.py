"""Independent bounded brute-force check of the termination criterion.

Walks every composable cyclic word up to a length bound and tests the
idempotent power of its composition for a strict self-arc.  Used to
cross-validate the closure-based criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import (
    GraphSet,
    LassoMultipath,
    SizeChangeGraph,
    _RowMap,
    idempotent_power,
)


@dataclass(frozen=True)
class OracleReport:
    counterexample: Optional[LassoMultipath]
    max_len: int
    words_checked: int

    @property
    def refuted(self) -> bool:
        return self.counterexample is not None


def bounded_lasso_oracle(gs: GraphSet, max_len: int) -> OracleReport:
    """Search composable cyclic words, in shortlex order, for a descent-free repetition.

    A word whose composition has an idempotent power without a strict
    self-arc yields an infinite multipath without infinite descent.  Each
    length is walked depth-first on an explicit stack of (depth, graph
    index, source index, target index, rows), so the bound is not limited by
    the recursion limit; a word's rows extend its prefix's through one row
    map per base graph, and the current word is one list indexed by depth.
    The verdict on a cyclic value is kept per (signature index, rows).  The
    walk stops at the first length no composable word reaches, as no longer
    word is composable either.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    sigs = gs.sigs
    # (graph index, source index, target index, rows, row lookup)
    bases = []
    for j, g in enumerate(gs.graphs):
        s, t = sigs.index(g.source), sigs.index(g.target)
        bases.append((j, s, t, g.rows, _RowMap(g.rows, sigs[s].arity, sigs[t].arity).__getitem__))
    # children are pushed in reverse index order, so they pop smallest first
    bases.reverse()
    after = [[(j, t, lookup) for j, s, t, _, lookup in bases if s == k] for k in range(len(sigs))]
    descends: dict[tuple[int, tuple[int, ...]], bool] = {}
    checked = 0
    for length in range(1, max_len + 1):
        last = length - 1
        word = [0] * length
        stack = [(0, j, s, t, rows) for j, s, t, rows, _ in bases]
        reached = False
        while stack:
            depth, j, src, tgt, rows = stack.pop()
            word[depth] = j
            if depth < last:
                depth += 1
                for k, t, lookup in after[tgt]:
                    stack.append((depth, k, src, t, tuple(map(lookup, rows))))
                continue
            reached = True
            if src == tgt:
                checked += 1
                verdict = descends.get((src, rows))
                if verdict is None:
                    value = SizeChangeGraph._of_rows(sigs[src], sigs[src], rows)
                    verdict = descends[src, rows] = idempotent_power(value)[0].has_strict_self_arc()
                if not verdict:
                    return OracleReport(LassoMultipath((), tuple(word)), max_len, checked)
        if not reached:
            break
    return OracleReport(None, max_len, checked)
