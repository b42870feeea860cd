#!/usr/bin/env python3
"""Sweep eventually periodic colorings through the reduction construction.

For every coloring with the given bounds, builds the induced multipath,
decides periodic descent, and checks that the descent parameter names
exactly the set of colors that recur forever.
"""

import argparse
import itertools
from collections import Counter

from sct import decide_periodic_descent
from sct.colorings import EPColoring, spp_witness
from sct.reduction import build_reversal_multipath, family_signature, index_sets


def colorings(k, max_prefix, max_period):
    for plen in range(max_prefix + 1):
        for prefix in itertools.product(range(k), repeat=plen):
            for qlen in range(1, max_period + 1):
                for period in itertools.product(range(k), repeat=qlen):
                    yield EPColoring(k, prefix, period)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--max-prefix", type=int, default=3)
    ap.add_argument("--max-period", type=int, default=4)
    args = ap.parse_args()

    sets, names = index_sets(args.k), family_signature(args.k).params
    by_param = Counter()
    cycle_lengths = Counter()
    extras = 0
    total = 0
    for c in colorings(args.k, args.max_prefix, args.max_period):
        total += 1
        run = build_reversal_multipath(c)
        witness = decide_periodic_descent(run.lasso, run.graphs)
        assert witness is not None
        target = sets.index(tuple(sorted(spp_witness(c))))
        params = witness.params
        assert target in params, (c, params)
        extras += len(params) - 1
        by_param[names[target]] += 1
        cycle_lengths[len(run.lasso.period)] += 1

    print(f"{total} colorings, descent always at the recurring-color parameter")
    print("descent parameter counts:", dict(sorted(by_param.items())))
    print("cycle length distribution:", dict(sorted(cycle_lengths.items())))
    print("additional descent parameters seen:", extras)


if __name__ == "__main__":
    main()
