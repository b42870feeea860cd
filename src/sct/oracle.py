"""Independent bounded brute-force check of the termination criterion.

Walks every composable cyclic word up to a length bound and tests the
idempotent power of its composition for a strict self-arc.  Used to
cross-validate the closure-based criterion.
"""

from __future__ import annotations

from typing import Optional

from .graphs import (
    GraphSet,
    LassoMultipath,
    SizeChangeGraph,
    _fan_outs,
    idempotent_power,
)
from .record import record


@record
class OracleReport:
    counterexample: Optional[LassoMultipath]
    max_len: int
    words_checked: int

    @property
    def refuted(self) -> bool:
        return self.counterexample is not None


def check_max_len(max_len: int) -> None:
    """The oracle's one check on its length bound, for callers that check before reading a set."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")


def bounded_lasso_oracle(gs: GraphSet, max_len: int) -> OracleReport:
    """Search composable cyclic words, in shortlex order, for a descent-free repetition.

    A word whose composition has an idempotent power without a strict
    self-arc yields an infinite multipath without infinite descent.  Each
    length is walked depth-first on an explicit stack of (depth, graph
    index, source index, target index, rows), so the bound is not limited by
    the recursion limit; a word's rows extend its prefix's through the
    fan-out map of its target signature, the closure's row map, and the
    current word is one list indexed by depth.
    The verdict on a cyclic value is kept per (signature index, rows).  The
    walk stops at the first length no composable word reaches, as no longer
    word is composable either.
    """
    check_max_len(max_len)
    sigs = gs.sigs
    # (graph index, source index, target index, rows), in reverse index order:
    # children are pushed in that order, so they pop smallest first
    bases = [(j, sigs.index(g.source), sigs.index(g.target), g.rows) for j, g in enumerate(gs.graphs)]
    bases.reverse()
    after = _fan_outs(sigs, bases)
    descends: dict[tuple[int, tuple[int, ...]], bool] = {}
    checked = 0
    for length in range(1, max_len + 1):
        last = length - 1
        word = [0] * length
        stack = [(0, j, s, t, rows) for j, s, t, rows in bases]
        reached = False
        while stack:
            depth, j, src, tgt, rows = stack.pop()
            word[depth] = j
            if depth < last:
                depth += 1
                succ, fan = after[tgt]
                for (k, t), child in zip(succ, zip(*map(fan, rows))):
                    stack.append((depth, k, src, t, child))
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
