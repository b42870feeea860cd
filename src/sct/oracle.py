"""Independent bounded brute-force check of the termination criterion.

Covers every composable cyclic word up to a length bound, through each
distinct composition, and tests the composition for a cycle through a strict
arc, which holds exactly when its idempotent power has a strict self-arc.
Used to cross-validate the closure-based criterion, which tests idempotents;
the oracle shares no closure, table or test with it.
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


def _count_words(bases: list, n: int, length: int, word: tuple[int, ...] = ()) -> int:
    """The composable endo-words of lengths 1 to length, or up to word in shortlex order.

    ``bases`` holds each base's (source index, target index, rows).  Per start
    signature, a vector of word counts per end signature steps along the
    bases; its own entry counts the endo-words of each length.  To place the
    word, every shorter length's vectors are kept: at each position, each
    composable base below the letter adds its completions back to the start
    (its own source at the first position).
    """
    checked, paths = 0, []  # paths[s][j][t]: the words of length j from s to t
    for s in range(n):
        vec = [0] * n
        vec[s] = 1
        paths.append([vec])
        for _ in range(length - 1 if word else length):
            step = [0] * n
            for a, b, _ in bases:
                step[b] += vec[a]
            vec = step
            checked += vec[s]
            if word:
                paths[s].append(vec)
            elif not any(vec):  # no longer word leaves s either
                break
    if not word:
        return checked
    start = bases[word[0]][0]
    checked += sum(paths[b][length - 1][a] for a, b, _ in bases[: word[0]])
    for i in range(1, length):
        at = bases[word[i - 1]][1]
        checked += sum(paths[b][length - 1 - i][start] for a, b, _ in bases[: word[i]] if a == at)
    return checked + 1


def bounded_lasso_oracle(gs: GraphSet, max_len: int) -> OracleReport:
    """Search composable cyclic words, in shortlex order, for a descent-free repetition.

    A word whose composition has no cycle through a strict arc (so its
    idempotent power has no strict self-arc, see ``_strict_cycle``) yields an
    infinite multipath without infinite descent.  The verdict depends only on
    the composition, a value (source index, target index, rows), so the search
    is breadth-first over distinct values: the bases in index order, then each
    layer's values in order, each extended by the bases leaving its target in
    index order through that signature's lazy ``_FanOut`` map.  A value is
    kept at its first arrival, its shortlex-least word, so the first failing
    endo-value of a layer carries the least failing word, and every word
    within the bound is covered through its value.  The search stops at the
    bound or at a layer with no new value; ``words_checked``, the endo-words
    a word-by-word walk tests, is counted.
    """
    check_max_len(max_len)
    sigs = gs.sigs
    bases = [(sigs.index(g.source), sigs.index(g.target), g.rows) for g in gs.graphs]
    arity = [sig.arity for sig in sigs]
    # per signature index, made on first use: the (graph index, target index)
    # of each base leaving it, and the lookup of its fan-out map
    after: list = [None] * len(sigs)
    seen: dict = {}  # value -> (the value it extends, or None; the graph index appended)
    for j, value in enumerate(bases):
        seen.setdefault(value, (None, j))
    layer = list(seen)
    for length in range(1, max_len + 1):
        for value in layer:
            src, tgt, rows = value
            if src == tgt and not _strict_cycle(rows, arity[src]):
                word = []
                while value is not None:
                    value, j = seen[value]
                    word.append(j)
                word = tuple(reversed(word))
                checked = _count_words(bases, len(sigs), length, word)
                return OracleReport(LassoMultipath((), word), max_len, checked)
        if not layer or length == max_len:
            break
        grown = []
        for value in layer:
            src, tgt, rows = value
            if after[tgt] is None:
                leaving = [(j, t, r) for j, (s, t, r) in enumerate(bases) if s == tgt]
                fan = _FanOut(arity[tgt], [(r, arity[t]) for _, t, r in leaving])
                after[tgt] = [(j, t) for j, t, _ in leaving], fan.__getitem__
            succ, fan = after[tgt]
            for (j, t), child in zip(succ, zip(*map(fan, rows))):
                key = src, t, child
                if key not in seen:
                    seen[key] = value, j
                    grown.append(key)
        layer = grown
    return OracleReport(None, max_len, _count_words(bases, len(sigs), max_len))
