"""Independent bounded brute-force check of the termination criterion.

Walks every composable cyclic word up to a length bound and tests its
composition for a cycle through a strict arc, which holds exactly when the
composition's idempotent power has a strict self-arc.  Used to cross-validate
the closure-based criterion, which tests idempotents.
"""

from __future__ import annotations

from typing import Optional

from .graphs import GraphSet, LassoMultipath, _has_strict_diagonal, _product
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


def _strict_cycle(rows: tuple[int, ...], n: int) -> bool:
    """Whether the parameter graph of the rows (n parameters) has a cycle through a strict arc.

    This holds exactly when the idempotent power H = G^e of the graph G has a
    strict self-arc.  A strict i->i arc of H is a closed walk of G with a
    strict step.  Conversely, a closed walk of length L through a strict step
    from i gives a strict i->i arc in G^(eL) = H^L = H.  A closed walk through
    a strict arc u->v exists when v = u or v reaches u, so the test reads the
    diagonal, then computes reachability on the reach bits (Warshall) and
    looks once per strict arc.
    """
    if _has_strict_diagonal(rows, n):  # a strict self-arc: a cycle of one step
        return True
    mask = (1 << n) - 1
    reach = [r & mask for r in rows]
    for k, via in enumerate(reach):  # via is row k as the earlier steps left it
        bit = 1 << k
        for i, r in enumerate(reach):
            if r & bit:
                reach[i] = r | via
    for u, r in enumerate(rows):
        strict = r >> n
        while strict:
            low = strict & -strict
            if reach[low.bit_length() - 1] >> u & 1:
                return True
            strict ^= low
    return False


class _FanOut(dict):
    """The rows of r;g for each given base g, keyed by the row r: made on first
    use and kept, so a map holds only the rows its caller meets."""

    __slots__ = ("rights", "m")

    def __init__(self, m: int, rights: list[tuple[tuple[int, ...], int]]) -> None:
        super().__init__()
        self.m, self.rights = m, rights  # (rows of g, arity of its target)

    def __missing__(self, row: int) -> tuple[int, ...]:
        self[row] = out = tuple(_product((row,), g, self.m, n)[0] for g, n in self.rights)
        return out


def bounded_lasso_oracle(gs: GraphSet, max_len: int) -> OracleReport:
    """Search composable cyclic words, in shortlex order, for a descent-free repetition.

    A word whose composition has no cycle through a strict arc (so its
    idempotent power has no strict self-arc, see ``_strict_cycle``) yields an
    infinite multipath without infinite descent.  Each length is walked
    depth-first on an explicit stack of (depth, graph index, source index,
    target index, rows), so the bound is not limited by the recursion limit;
    a word's rows extend its prefix's, one lookup per row, through the lazy
    ``_FanOut`` map of its target signature, and the current word is one list
    indexed by depth.  The verdict on a cyclic value is kept per (signature
    index, rows).  The walk stops at the first length no composable word
    reaches, as no longer word is composable either.
    """
    check_max_len(max_len)
    sigs = gs.sigs
    # (graph index, source index, target index, rows), in reverse index order:
    # children are pushed in that order, so they pop smallest first
    bases = [(j, sigs.index(g.source), sigs.index(g.target), g.rows) for j, g in enumerate(gs.graphs)]
    bases.reverse()
    # per signature index: the (graph index, target index) of each base leaving
    # it, in the order of bases, and the lookup of its fan-out map
    after = []
    for k, sig in enumerate(sigs):
        leaving = [(j, t, rows) for j, s, t, rows in bases if s == k]
        fan = _FanOut(sig.arity, [(rows, sigs[t].arity) for _, t, rows in leaving])
        after.append(([(j, t) for j, t, _ in leaving], fan.__getitem__))
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
                    verdict = descends[src, rows] = _strict_cycle(rows, sigs[src].arity)
                if not verdict:
                    return OracleReport(LassoMultipath((), tuple(word)), max_len, checked)
        if not reached:
            break
    return OracleReport(None, max_len, checked)
