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
    compose,
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
    length is walked depth-first on an explicit stack, and a word's
    composition extends the one of its prefix, so every prefix is composed
    once per length and the bound is not limited by the recursion limit.
    The walk stops at the first length no composable word reaches, as no
    longer word is composable either.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    # children are pushed in reverse index order, so they pop smallest first
    indexed = tuple(enumerate(gs.graphs))[::-1]
    checked = 0
    for length in range(1, max_len + 1):
        stack = [((i,), g) for i, g in indexed]
        reached = False
        while stack:
            word, value = stack.pop()
            if len(word) < length:
                stack.extend(
                    (word + (j,), compose(value, g))
                    for j, g in indexed
                    if value.target == g.source
                )
                continue
            reached = True
            if value.target == value.source:
                checked += 1
                stable, _ = idempotent_power(value)
                if not stable.has_strict_self_arc():
                    return OracleReport(LassoMultipath((), word), max_len, checked)
        if not reached:
            break
    return OracleReport(None, max_len, checked)
