#!/usr/bin/env python3
"""End-to-end walk-through on the bundled two-argument Ackermann program."""

from sct import Fuel, check_sct_criterion, closure, eval_program, sample_safety
from sct.extract import Mode, extract_description
from sct.fixtures import ackermann_program
from sct.syntax import format_program


def main():
    program = ackermann_program()
    print("program:")
    print("  " + format_program(program).strip())

    for mode in (Mode.GUARDED, Mode.SYNTACTIC):
        description = extract_description(program, mode)
        print(f"\n{mode.value} description:")
        for i, g in enumerate(description.sites):
            print(f"  tau{i}: {g}")

    description = extract_description(program, Mode.GUARDED)
    gs = description.to_graph_set()
    cl = closure(gs)
    print(f"\nclosure ({len(cl)} elements):")
    for dg in cl.elements:
        print(f"  {dg.graph}   via {' ; '.join(gs.word_names(dg.witness))}")
    print(f"criterion: {'terminating' if check_sct_criterion(gs, cl).sct else 'NOT terminating'}")

    print("\nvalues, and the calls each costs:")
    for x, y in [(1, 1), (2, 2), (3, 3)]:
        fuel = Fuel(10**6)
        value = eval_program(program, "A", (x, y), fuel)
        print(f"  A({x}, {y}) = {value} in {10**6 - fuel.budget} calls")

    report = sample_safety(program, description, trials=500, value_bound=3, fuel=10**6)
    print(
        f"\nsafety sample: {len(report.violations)} violations over "
        f"{report.converged} converged / {report.skipped} skipped trials"
    )


if __name__ == "__main__":
    main()
