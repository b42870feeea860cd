import random
import sys

import pytest

from helpers import (
    corrupted_ackermann_description,
    hook_transitions,
    random_functional_graph_set,
    reference_run,
    reference_safety,
    reference_trace,
)
from sct import (
    Arc,
    ArcKind,
    OutOfFuel,
    eval_program,
    parse_program,
    sample_safety,
    synthesize,
)
from sct.extract import Mode, extract_description
from sct.interp import Fuel


def ack_oracle(x, y):
    # closed forms for the small rows
    if x == 0:
        return y + 1
    if x == 1:
        return y + 2
    if x == 2:
        return 2 * y + 3
    if x == 3:
        return 2 ** (y + 3) - 3
    raise ValueError(x)


class TestEval:
    def test_ackermann_values(self, ackermann):
        assert eval_program(ackermann, "A", (2, 2), 10**6) == 7
        assert eval_program(ackermann, "A", (3, 3), 10**6) == 61

    def test_ackermann_rows_against_closed_forms(self, ackermann):
        for x in range(4):
            for y in range(4):
                assert eval_program(ackermann, "A", (x, y), 10**6) == ack_oracle(x, y)

    def test_zero_fuel(self, ackermann):
        with pytest.raises(OutOfFuel):
            eval_program(ackermann, "A", (0, 0), 0)

    def test_monus_at_zero(self):
        p = parse_program("f(x) = x-1")
        assert eval_program(p, "f", (0,), 10) == 0
        assert eval_program(p, "f", (5,), 10) == 4

    def test_monus_order(self):
        p = parse_program("f(x) = x-1")
        for x in range(6):
            value = eval_program(p, "f", (x,), 10)
            assert value <= x
            assert (value < x) == (x > 0)

    def test_primops_and_constants(self):
        p = parse_program(
            "f(a, b) = if a<=b then plus(times(a, b), max(a, 2)) else min(a, b)"
        )
        assert eval_program(p, "f", (2, 3), 10) == 8
        assert eval_program(p, "f", (3, 2), 10) == 2

    def test_boolean_atoms(self):
        p = parse_program("f(x) = if x=3 && !(x=0) then 1 else 0")
        assert eval_program(p, "f", (3,), 10) == 1
        assert eval_program(p, "f", (2,), 10) == 0

    @pytest.mark.parametrize(
        "cond, values, expected",
        [
            ("x<y", (1, 2), 1),
            ("x<y", (2, 2), 0),
            ("x=0 || y=0", (3, 0), 1),
            ("x=0 || y=0", (3, 5), 0),
        ],
    )
    def test_less_than_and_disjunction(self, cond, values, expected):
        p = parse_program(f"f(x, y) = if {cond} then 1 else 0")
        assert eval_program(p, "f", values, 10) == expected

    def test_arity_check(self, ackermann):
        with pytest.raises(ValueError):
            eval_program(ackermann, "A", (1,), 10)

    def test_unknown_function(self, ackermann):
        with pytest.raises(ValueError):
            eval_program(ackermann, "B", (1, 1), 10)

    def test_negative_argument(self, ackermann):
        with pytest.raises(ValueError, match="natural numbers"):
            eval_program(ackermann, "A", (-1, 2), 10)

    def test_negative_fuel(self, ackermann):
        with pytest.raises(ValueError, match="fuel"):
            eval_program(ackermann, "A", (1, 2), -5)

    def test_determinism(self, ackermann):
        runs = {eval_program(ackermann, "A", (2, 3), 10**6) for _ in range(3)}
        assert runs == {9}

    def test_fuel_monotonicity_sampled(self, ackermann):
        for values in [(0, 3), (1, 2), (2, 2), (3, 1)]:
            fuel = Fuel(10**6)
            eval_program(ackermann, "A", values, fuel)
            needed = 10**6 - fuel.budget  # one spend per call entry
            expected = ack_oracle(*values)
            with pytest.raises(OutOfFuel):
                eval_program(ackermann, "A", values, needed - 1)
            assert eval_program(ackermann, "A", values, needed) == expected
            assert eval_program(ackermann, "A", values, needed + 7) == expected


class TestTrace:
    """The transitions the compiled walk's hook sees: (sig, values, label, callee sig, argv)."""

    def test_first_transition_base_row(self, ackermann):
        sig = ackermann.defs[0].sig
        trace = hook_transitions(ackermann, "A", (1, 0), 10**6)
        assert trace[0] == (sig, (1, 0), 0, sig, (0, 1))

    def test_inner_call_first(self, ackermann):
        sig = ackermann.defs[0].sig
        trace = hook_transitions(ackermann, "A", (1, 1), 10**6)
        assert trace[0] == (sig, (1, 1), 2, sig, (1, 0))

    def test_call_free_branch(self, ackermann):
        assert hook_transitions(ackermann, "A", (0, 5), 10**6) == []

    def test_fuel_exhaustion_truncates(self):
        p = parse_program("loop(n) = loop(n+1)")
        trace = hook_transitions(p, "loop", (0,), 25)
        # a transition exists once its argument values do, even if entering
        # the callee then runs out of fuel
        assert len(trace) == 25
        assert [argv[0] for *_, argv in trace] == list(range(1, 26))

    def test_unknown_function(self, ackermann):
        with pytest.raises(ValueError, match="no function named 'B'"):
            hook_transitions(ackermann, "B", (1, 1), 10)

    def test_wrong_length(self, ackermann):
        with pytest.raises(ValueError, match=r"^A takes 2 argument\(s\), got 1$"):
            hook_transitions(ackermann, "A", (1,), 10)

    def test_negative_value(self, ackermann):
        with pytest.raises(ValueError, match="natural numbers"):
            hook_transitions(ackermann, "A", (-1, 2), 10)


class TestSafety:
    def test_guarded_ackermann_is_safe(self, ackermann, ack_description):
        report = sample_safety(
            ackermann, ack_description, trials=300, value_bound=3, fuel=10**6, seed=5
        )
        assert report.ok
        assert report.converged == 300 and report.skipped == 0

    def test_corrupted_graph_is_caught(self, ackermann):
        bad = corrupted_ackermann_description()
        report = sample_safety(
            ackermann, bad, trials=100, value_bound=3, fuel=10**6, seed=5
        )
        assert report.violations
        v = report.violations[0]
        assert v.site == 0
        assert v.arc == Arc(1, ArcKind.STRICT, 1)
        # the bogus arc claims y shrinks, but the first call resets y to 1
        assert v.values[v.arc.src] <= v.argv[v.arc.tgt]

    def test_call_free_program(self):
        p = parse_program("f(x) = x+1")
        d = extract_description(p, Mode.GUARDED)
        report = sample_safety(p, d, trials=50, value_bound=3, fuel=10, seed=0)
        assert report.ok and report.converged == 50

    def test_divergent_trials_are_skipped_not_failed(self):
        p = parse_program("loop(n) = loop(n+1)")
        d = extract_description(p, Mode.GUARDED)
        report = sample_safety(p, d, trials=20, value_bound=3, fuel=30, seed=0)
        assert report.skipped == 20 and report.ok


# --- the compiled interpreter against the tree-walking reference ----------------

# primitive operators, constants and nested calls in arguments and in then branches
HAND_WRITTEN = [
    "f(x) = if x=0 then 0 else plus(f(x-1), 1)",
    "f(x, y) = if x=0 then plus(y, 2) else if y<x then g(f(x-1, plus(y, 1)), times(x, 2))"
    " else max(f(x-1, y), g(y, 1))\n"
    "g(a, b) = if a<=b && !(b=0) then plus(h(a), min(a, 3)) else if a=0 || b=0 then 7 else h(b-1)\n"
    "h(z) = if z=0 then 1 else if z=1 then if !(z=2) then times(h(z-1), 3) else 0 else g(z-1, h(z-1))",
    "f(x, y) = if x=0 then f(y, 0) else if !(y<=x) then plus(f(x-1, y), f(x, y-1)) else f(x-1, plus(x, y))",
    "e(n) = if n=0 then 1 else o(n-1)\no(n) = if n=0 then 0 else e(n-1)",
    "k(x, y) = if x=0 then y else plus(k(k(x-1, y), x-1), times(k(y-1, x), 2))",
    # one parameter against constants, a repeated constant, and then the other parameter
    "d(x, y) = if x=2 then d(x-1, y+1) else if x=0 then y else if x=2 then 9 else if x=1 then"
    " plus(d(x-1, y), 1) else if y=3 then x else d(x-1, y)",
    "d(x, y) = if x=2 then d(x-1, y+1) else if x=0 then y else if x=2 then 9 else if x=1 then"
    " plus(d(x-1, y), 1) else d(x-1, y)",
]


def reference_outcome(program, fun, values, budget):
    fuel = Fuel(budget)
    try:
        return reference_run(program, fun, values, fuel), fuel.budget
    except OutOfFuel:
        return "out of fuel", fuel.budget


def compiled_outcome(program, fun, values, budget):
    fuel = Fuel(budget)
    try:
        return eval_program(program, fun, values, fuel), fuel.budget
    except OutOfFuel:
        return "out of fuel", fuel.budget


def assert_agrees(program, fun, values, cap):
    """Equal values, fuel left and transitions at every budget up to what the run needs."""
    _, left = reference_outcome(program, fun, values, cap)
    for budget in range(cap - left + 1):
        expected = reference_outcome(program, fun, values, budget)
        assert compiled_outcome(program, fun, values, budget) == expected, (values, budget)
        trace = hook_transitions(program, fun, values, budget)
        assert trace == reference_trace(program, fun, values, Fuel(budget)), (values, budget)
    full = reference_trace(program, fun, values, Fuel(cap))
    assert hook_transitions(program, fun, values, cap) == full


def synthesized(seed):
    return synthesize(random_functional_graph_set(random.Random(seed)))


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_synthesized_programs(self, seed):
        program = synthesized(seed)
        rng = random.Random(seed)
        arity = program.defs[0].sig.arity
        for d in program.defs:
            assert_agrees(program, d.sig.name, tuple(rng.randint(0, 4) for _ in range(arity)), 80)

    def test_ackermann(self, ackermann):
        for x in range(4):
            for y in range(4 if x < 3 else 1):
                assert_agrees(ackermann, "A", (x, y), 10**4)
        for values in [(2, 9), (3, 3)]:
            assert reference_outcome(ackermann, "A", values, 10**5) == \
                compiled_outcome(ackermann, "A", values, 10**5)

    @pytest.mark.parametrize("text", HAND_WRITTEN)
    def test_hand_written_programs(self, text):
        program = parse_program(text)
        rng = random.Random(text)
        for d in program.defs:
            for _ in range(4):
                values = tuple(rng.randint(0, 4) for _ in d.sig.params)
                assert_agrees(program, d.sig.name, values, 150)

    @pytest.mark.parametrize("seed", range(20))
    def test_safety_on_synthesized_programs(self, seed):
        program = synthesized(seed)
        for mode in Mode:
            description = extract_description(program, mode)
            for fuel in (0, 3, 40):
                args = (program, description, 12, 4, fuel, seed)
                assert sample_safety(*args) == reference_safety(*args)

    @pytest.mark.parametrize("text", HAND_WRITTEN)
    def test_safety_on_hand_written_programs(self, text):
        program = parse_program(text)
        for mode in Mode:
            args = (program, extract_description(program, mode), 30, 4, 150, 1)
            assert sample_safety(*args) == reference_safety(*args)

    def test_safety_on_ackermann(self, ackermann, ack_description):
        for description in (ack_description, corrupted_ackermann_description()):
            for fuel in (5, 10**4):
                args = (ackermann, description, 40, 3, fuel, 2)
                report = sample_safety(*args)
                assert report == reference_safety(*args)
        assert report.violations  # the corrupted description is caught


class TestDepth:
    def test_non_tail_recursion_past_the_recursion_limit(self):
        limit = sys.getrecursionlimit()
        p = parse_program("f(x) = if x=0 then 0 else plus(f(x-1), 1)")
        assert eval_program(p, "f", (100_000,), 100_001) == 100_000
        assert sys.getrecursionlimit() == limit

    def test_deep_trace(self, ackermann):
        fuel = Fuel(10**6)
        eval_program(ackermann, "A", (2, 100), fuel)
        n = 100
        assert 10**6 - fuel.budget == 2 * n**2 + 7 * n + 5  # the calls A(2, n) makes
