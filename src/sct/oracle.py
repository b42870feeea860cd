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
    length is walked depth-first, and a word's composition extends the one
    of its prefix, so every prefix is composed once per length.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    graphs = gs.graphs

    def cycles(word: tuple[int, ...], value: SizeChangeGraph, length: int):
        if len(word) == length:
            if value.target == value.source:
                yield word, value
            return
        for j, g in enumerate(graphs):
            if value.target == g.source:
                yield from cycles(word + (j,), compose(value, g), length)

    checked = 0
    for length in range(1, max_len + 1):
        for i, g in enumerate(graphs):
            for word, value in cycles((i,), g, length):
                checked += 1
                stable, _ = idempotent_power(value)
                if not stable.has_strict_self_arc():
                    return OracleReport(LassoMultipath((), word), max_len, checked)
    return OracleReport(None, max_len, checked)
