import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    corrupted_ackermann_description,
    hook_transitions,
    program_text,
    random_functional_graph_set,
    reference_run,
    reference_safety,
    reference_trace,
    shrinking_description,
)
from sct import (
    Arc,
    ArcKind,
    OutOfFuel,
    SourceError,
    eval_program,
    parse_program,
    sample_safety,
    synthesize,
)
from sct import interp
from sct.extract import Mode, extract_description
from sct.interp import Fuel
from sct.syntax import Call, Cases, PrimOp


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
    """The transitions the compiled walk's hook sees: (label, values, argv)."""

    def test_first_transition_base_row(self, ackermann):
        trace = hook_transitions(ackermann, "A", (1, 0), 10**6)
        assert trace[0] == (0, (1, 0), (0, 1))

    def test_inner_call_first(self, ackermann):
        trace = hook_transitions(ackermann, "A", (1, 1), 10**6)
        assert trace[0] == (2, (1, 1), (1, 0))

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
        assert not report.violations
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
        assert not report.violations and report.converged == 50

    def test_negative_value_bound(self, ackermann, ack_description):
        with pytest.raises(ValueError, match="value_bound must be >= 0, got -1"):
            sample_safety(ackermann, ack_description, trials=3, value_bound=-1, fuel=10)

    def test_negative_trials(self, ackermann, ack_description):
        with pytest.raises(ValueError, match="trials must be >= 0, got -2"):
            sample_safety(ackermann, ack_description, trials=-2, value_bound=3, fuel=10)

    def test_no_trials(self, ackermann, ack_description):
        report = sample_safety(ackermann, ack_description, trials=0, value_bound=0, fuel=0)
        assert report == interp.SafetyReport((), 0, 0)

    def test_divergent_trials_are_skipped_not_failed(self):
        p = parse_program("loop(n) = loop(n+1)")
        d = extract_description(p, Mode.GUARDED)
        report = sample_safety(p, d, trials=20, value_bound=3, fuel=30, seed=0)
        assert report.skipped == 20 and not report.violations


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

    @pytest.mark.parametrize("seed", range(40))
    def test_safety_records_on_synthesized_programs(self, seed):
        # forty trials share one call's records; value bound seed % 5 makes states repeat
        program = synthesized(seed)
        runs = {}
        with recursion_limit(20_000):
            for mode in Mode:
                description = extract_description(program, mode)
                for fuel in (0, 1, 2, 3, 40, 1000):
                    args = (program, description, 40, seed % 5, fuel, seed)
                    assert sample_safety(*args) == reference_safety(*args, runs=runs)

    @pytest.mark.parametrize("text", HAND_WRITTEN)
    def test_safety_on_hand_written_programs(self, text):
        program = parse_program(text)
        for mode in Mode:
            args = (program, extract_description(program, mode), 30, 4, 150, 1)
            assert sample_safety(*args) == reference_safety(*args)

    def test_safety_records_on_corrupted_ackermann(self, ackermann):
        # the bogus arc is broken inside returned calls, so their replayed slices are not empty
        description, runs = corrupted_ackermann_description(), {}
        for seed in range(4):
            for fuel in (5, 50, 500, 10**4):
                args = (ackermann, description, 40, 3, fuel, seed)
                report = sample_safety(*args)
                assert report == reference_safety(*args, runs=runs)
                assert report.violations

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


# --- reuse of returned calls ------------------------------------------------------

# nested calls that repeat: a doubling tree, a call's value as the argument of
# another (q(x) = 2^x), and an inner call whose state the tail call repeats
REPEATING = {
    "d": "d(x) = if x=0 then 1 else plus(d(x-1), d(x-1))",
    "q": "q(x) = if x=0 then 1 else plus(q(min(q(x-1), x-1)), q(x-1))",
    "n": "n(x, y) = if x=0 then y+1 else n(x-1, n(x-1, y))",
}


@contextmanager
def recursion_limit(limit):
    """The reference walk recurses a few Python frames per interpreted call."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def assert_same_at_budgets(program, fun, values, cap):
    """Equal value or OutOfFuel, and equal fuel left, at budgets around what the run spends.

    The budgets come from the compiled run's spending: were it wrong, the
    reference would disagree at the budget it names.
    """
    outcome, left = compiled_outcome(program, fun, values, cap)
    spent = cap - left
    budgets = {0, 1, 2, 3, 10, 100, spent // 2, spent - 1, spent, spent + 1}
    if outcome != "out of fuel":
        budgets.add(10**5)
    with recursion_limit(20_000):
        for budget in sorted(budgets):
            expected = reference_outcome(program, fun, values, budget)
            assert compiled_outcome(program, fun, values, budget) == expected, (values, budget)


def count_entries(compiled):
    """Make each function's select count the calls entered; returns the one-item count."""
    count = [0]

    def counting(fn):
        inner = fn.select

        def select(args):
            nonlocal inner
            count[0] += 1
            leaf = inner(args)
            if fn.select is not select:  # the first entry put the compiled chain in its place
                inner, fn.select = fn.select, select
            return leaf

        fn.select = select

    for fn in compiled.funs.values():
        counting(fn)
    return count


def counted_run(program, fun, values, budget, watch=None):
    """(value or "out of fuel", fuel left, calls entered) of one compiled run."""
    compiled = interp._Compiled(program)
    entries = count_entries(compiled)
    fuel = Fuel(budget)
    try:
        outcome = interp._run(compiled.enter(fun, values), values, fuel, watch)
    except OutOfFuel:
        outcome = "out of fuel"
    return outcome, fuel.budget, entries[0]


def has_non_tail_call(c) -> bool:
    if isinstance(c, Cases):
        return any(map(has_non_tail_call, c.thens)) or has_non_tail_call(c.orelse)
    return isinstance(c, (Call, PrimOp)) and any(map(interp._has_call, c.args))


class TestReuse:
    """A returned non-tail call is reused, with its fuel charged again.

    A hooked run also appends the log slice the call's subtree appended, and
    enters the call when its cost is more than the budget left:
    TestAgainstReference and TestRecord compare its transitions, and
    sample_safety's reports, with the reference's.
    """

    @pytest.mark.parametrize("m", range(4))
    def test_ackermann(self, ackermann, m):
        for n in range(7):
            assert_same_at_budgets(ackermann, "A", (m, n), 10**6)

    @pytest.mark.parametrize("name, top", [("d", 10), ("q", 7), ("n", 10)])
    def test_repeating_programs(self, name, top):
        program = parse_program(REPEATING[name])
        for x in range(top + 1):
            assert_same_at_budgets(program, name, (x, 2)[: program.defs[0].sig.arity], 10**6)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(program_text(), st.tuples(st.integers(0, 4), st.integers(0, 4)))
    def test_generated_programs_with_nested_calls(self, text, values):
        try:
            program = parse_program(text)
        except SourceError:
            program = None
        assume(program is not None and any(has_non_tail_call(d.body) for d in program.defs))
        for d in program.defs:
            assert_same_at_budgets(program, d.sig.name, values[: d.sig.arity], 300)

    def test_reused_cost_past_the_budget_left(self):
        # d(5) enters d(5), then d(4) down to d(0) and d(0) again (a one-entry
        # call is not kept): 7 calls.  The repeats of d(1), d(2), d(3) and d(4)
        # are charged 3, 7, 15 and 31 without being entered
        program = parse_program(REPEATING["d"])
        assert counted_run(program, "d", (5,), 63) == (32, 0, 7)
        # at 62, 30 is left for the repeat of d(4): the charge takes it all
        assert counted_run(program, "d", (5,), 62) == ("out of fuel", 0, 7)
        assert reference_outcome(program, "d", (5,), 62) == ("out of fuel", 0)
        # a hooked run enters that repeat, so it logs the transitions the reference makes
        log = []
        outcome, left, entries = counted_run(program, "d", (5,), 62, interp._Watch(lambda *t: log.append(t), log))
        assert (outcome, left) == ("out of fuel", 0) and entries > 7
        assert log == reference_trace(program, "d", (5,), Fuel(62))

    def test_far_fewer_entries_than_charges(self, ackermann):
        value, left, entries = counted_run(ackermann, "A", (2, 30), 10**6)
        assert value == ack_oracle(2, 30)
        assert 10**6 - left == 2 * 30**2 + 7 * 30 + 5
        assert entries * 5 < 10**6 - left  # 215 entries for 2,015 charges

    def test_hooked_run_logs_every_call(self, ackermann):
        # one transition per charge after the first, though repeats are not entered
        log = []
        watch = interp._Watch(lambda *t: log.append(t), log)
        value, left, entries = counted_run(ackermann, "A", (2, 30), 10**6, watch)
        assert (value, left, entries) == counted_run(ackermann, "A", (2, 30), 10**6)
        assert log == reference_trace(ackermann, "A", (2, 30), Fuel(10**6))
        assert len(log) == 10**6 - left - 1 and entries * 5 < len(log)  # 215 entries, 2,014 transitions

    def test_no_table_outlives_its_run(self):
        compiled = interp._Compiled(parse_program(REPEATING["d"]))
        entries = count_entries(compiled)
        for runs in (1, 2):
            assert interp._run(compiled.enter("d", (5,)), (5,), Fuel(63), None) == 32
            assert entries[0] == 7 * runs


# --- records of states' futures, shared by the runs of one _Watch -----------------

RECORDED = {
    # returns
    "count": "c(x) = if x=0 then 7 else c(x-1)",
    # a tail self-loop of period 4
    "cycle": "l(n) = if n=3 then l(0) else l(n+1)",
    # a two-function loop of six states and nine charges whose steps make nested
    # calls, as h(x) = x
    "pair": "p(x) = if x=2 then q(0) else q(plus(h(x), 1))\nq(x) = p(x)\n"
            "h(x) = if x=0 then 0 else plus(h(x-1), 1)",
    # values that grow: no state repeats
    "grow": "g(x, y) = g(y, x+1)",
    # a non-tail recursion that never returns: d(0) is the only state entered with no frame pending
    "deep": "d(x) = plus(d(x+1), 1)",
}


def watched_runs(program, starts):
    """(outcome, fuel left, transitions) of each (function, values, budget), run in order
    through one _Watch whose hook logs every transition; and the calls entered."""
    compiled = interp._Compiled(program)
    entries = count_entries(compiled)
    log = []
    watch = interp._Watch(lambda *t: log.append(t), log)
    out = []
    for fun, values, budget in starts:
        fuel, mark = Fuel(budget), len(log)
        try:
            outcome = interp._run(compiled.enter(fun, values), values, fuel, watch)
        except OutOfFuel:
            outcome = "out of fuel"
        out.append((outcome, fuel.budget, log[mark:]))
    return out, entries[0]


def reference_runs(program, starts):
    """``watched_runs`` by ``reference_run``, one run at a time."""
    out = []
    with recursion_limit(20_000):
        for fun, values, budget in starts:
            fuel, trace = Fuel(budget), []
            try:
                outcome = reference_run(program, fun, values, fuel, lambda *t: trace.append(t))
            except OutOfFuel:
                outcome = "out of fuel"
            out.append((outcome, fuel.budget, trace))
    return out


class TestRecord:
    """Runs that share a _Watch: outcomes, fuel left and every transition as the reference's."""

    @staticmethod
    def assert_same(name, starts):
        program = parse_program(RECORDED[name])
        runs, entries = watched_runs(program, starts)
        assert runs == reference_runs(program, starts)
        return entries

    def test_returned_value(self):
        # c(8) enters c(8), c(7), c(6) and runs c(5)'s record; c(8) again runs c(8)'s,
        # to its end at budget 9 and short of it at 8; c(3) stops inside c(5)'s
        starts = [("c", (5,), 100), ("c", (8,), 100), ("c", (8,), 9), ("c", (8,), 8),
                  ("c", (3,), 2), ("c", (9,), 100), ("c", (2,), 0)]
        assert self.assert_same("count", starts) == 6 + 3 + 1

    def test_resume_past_out_of_fuel(self):
        # c(9) runs out entering c(5); c(7) reaches c(5) with budget left and
        # interprets on; the last two stop inside the record c(7) left
        starts = [("c", (9,), 4), ("c", (7,), 50), ("c", (9,), 6), ("c", (9,), 4), ("c", (6,), 3)]
        assert self.assert_same("count", starts) == 4 + 6

    def test_repeated_run_out_of_fuel(self):
        # the same budget again runs out where the record did, entering nothing; less
        # enters every call again, and more resumes at d(0)
        starts = [("d", (0,), 500)] * 3 + [("d", (0,), 499), ("d", (0,), 501), ("d", (0,), 501)]
        assert self.assert_same("deep", starts) == 500 + 499 + 501

    @pytest.mark.parametrize("budgets", [range(1, 14), (1001, 1003, 1002, 14, 3)])
    def test_tail_loop(self, budgets):
        starts = [("l", (n % 4,), b) for n, b in enumerate(budgets)]
        assert self.assert_same("cycle", starts) <= 8

    @pytest.mark.parametrize("budgets", [range(1, 24), (1000, 1001, 1006, 23, 2)])
    def test_two_function_loop_with_nested_calls(self, budgets):
        starts = [(f, (x,), b) for b in budgets for f, x in (("p", 0), ("q", 2), ("h", 3), ("p", 1))]
        self.assert_same("pair", starts)

    def test_growing_values(self):
        starts = [("g", (0, 0), 300), ("g", (5, 0), 300), ("g", (0, 0), 301), ("g", (0, 0), 299)]
        # the two first runs repeat no state, so they enter every call they are charged
        assert self.assert_same("grow", starts) == 300 + 300 + 1

    def test_looping_trial_enters_far_fewer_calls_than_charges(self):
        # l(0) enters its first lap, four calls; the rest is charged by divmod
        log = []
        watch = interp._Watch(lambda *t: log.append(t), log)
        budget = 10**5 + 3
        outcome, left, entries = counted_run(parse_program(RECORDED["cycle"]), "l", (0,), budget, watch)
        assert (outcome, left, len(log)) == ("out of fuel", 0, budget)
        assert log[:8] == [(1, (0,), (1,)), (1, (1,), (2,)), (1, (2,), (3,)), (0, (3,), (0,))] * 2
        assert entries * 10**4 < budget

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_safety(self, name):
        program = parse_program(RECORDED[name])
        runs, violations = {}, 0
        with recursion_limit(20_000):
            for description in (extract_description(program, Mode.GUARDED), shrinking_description(program)):
                for fuel in (0, 1, 2, 5, 7, 13, 100, 1001):
                    for seed in range(3):
                        args = (program, description, 20, 3, fuel, seed)
                        report = sample_safety(*args)
                        assert report == reference_safety(*args, runs=runs)
                        violations += len(report.violations)
        # c(x) calls c(x-1), so only the other programs break the shrinking description
        assert (violations > 0) == (name != "count")
